"""Scaling-law fits and the T-guess schedule."""

import pytest

from repro.experiments import guess_schedule, loglog_slope


class TestLogLogSlope:
    def test_exact_power_law(self):
        xs = [1, 2, 4, 8, 16]
        ys = [x**-0.5 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(-0.5)

    def test_with_constant_factor(self):
        xs = [10, 100, 1000]
        ys = [42 * x**2 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_validates(self):
        with pytest.raises(ValueError):
            loglog_slope([1], [1])
        with pytest.raises(ValueError):
            loglog_slope([1, 2], [1])
        with pytest.raises(ValueError):
            loglog_slope([0, 1], [1, 1])
        with pytest.raises(ValueError):
            loglog_slope([1, 1], [1, 2])


class TestGuessSchedule:
    def test_geometric_and_capped(self):
        schedule = guess_schedule(m=100, levels=20)
        assert schedule[0] == 1.0
        assert all(b / a == 4.0 for a, b in zip(schedule, schedule[1:]))
        assert schedule[-1] <= 2 * 100 * 100

    def test_levels_cap(self):
        assert len(guess_schedule(m=10**6, levels=5)) == 5
