"""Scaling-law fits and the T-guess schedule.

The paper's claims are asymptotic — space Õ(m / sqrt(T)), Õ(m /
T^{1/4}), ... — so the experiments sweep the driving parameter (mostly
``T``) with everything else pinned and fit a log-log slope
(:func:`loglog_slope`).  A claim like "space ~ T^{-1/2}" passes when the
fitted exponent is within a tolerance of -0.5.
"""

from __future__ import annotations

import math
from typing import List, Sequence


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    All inputs must be positive; two distinct x values are required.
    """
    if len(xs) != len(ys):
        raise ValueError("x and y series must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit needs strictly positive values")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    n = len(log_x)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    sxx = sum((x - mean_x) ** 2 for x in log_x)
    if sxx == 0:
        raise ValueError("all x values identical; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y))
    return sxy / sxx


def guess_schedule(m: int, levels: int = 8) -> List[float]:
    """Geometric T-guess schedule ``1, 2, 4, ...`` capped at ``2 m^2``.

    The standard answer to "we do not know T in advance": run one
    algorithm instance per guess and combine (see
    :func:`repro.experiments.calibration.estimate_with_guesses`).
    """
    guesses: List[float] = []
    guess = 1.0
    cap = 2.0 * m * m
    while guess <= cap and len(guesses) < levels:
        guesses.append(guess)
        guess *= 4.0
    return guesses
