"""Handling the unknown-T parameterization.

Every algorithm in the paper takes the target count ``T`` as a
parameter ("this convention is widely adopted in the literature",
Section 1.1).  In practice one runs O(log) instances on a geometric
guess schedule and keeps the estimate that is *self-consistent*: an
instance parameterized by guess ``g`` is trustworthy when the true
count is at least ``g`` (its sampling rates were dense enough), and
its own estimate tells us whether that plausibly holds.

:func:`estimate_with_guesses` implements the standard rule: walk the
guesses from largest to smallest and return the first estimate that is
at least its own guess; if none qualifies, return the smallest guess's
estimate (the densest, most conservative instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from ..core.result import EstimateResult
from ..streams.models import StreamSource

GuessAlgorithmFactory = Callable[[float, int], Any]  # (t_guess, seed) -> algorithm
StreamFactory = Callable[[int], StreamSource]


@dataclass
class GuessOutcome:
    """The per-guess results and the selected answer."""

    guesses: List[float]
    results: List[EstimateResult]
    selected_guess: float
    estimate: float

    @property
    def estimates(self) -> List[float]:
        return [result.estimate for result in self.results]

    def table(self) -> List[Dict[str, float]]:
        return [
            {
                "guess": g,
                "estimate": e,
                "self_consistent": e >= g,
                "selected": g == self.selected_guess,
            }
            for g, e in zip(self.guesses, self.estimates)
        ]


def estimate_with_guesses(
    algorithm_factory: GuessAlgorithmFactory,
    stream_factory: StreamFactory,
    guesses: Sequence[float],
    seed: int = 0,
) -> GuessOutcome:
    """Run one instance per guess and select the self-consistent one.

    Each instance gets an independent stream object (same graph) and an
    independent algorithm seed; this mirrors running the instances in
    parallel on the same pass, which is how the paper's convention is
    deployed.
    """
    if not guesses:
        raise ValueError("need at least one guess")
    ordered = sorted(guesses)
    results = [
        algorithm_factory(guess, seed * 1000 + idx).run(
            stream_factory(seed * 1000 + 500 + idx)
        )
        for idx, guess in enumerate(ordered)
    ]
    estimates = [result.estimate for result in results]

    selected_guess = ordered[0]
    selected_estimate = estimates[0]
    for guess, estimate in zip(reversed(ordered), reversed(estimates)):
        if estimate >= guess:
            selected_guess = guess
            selected_estimate = estimate
            break
    return GuessOutcome(
        guesses=list(ordered),
        results=results,
        selected_guess=selected_guess,
        estimate=selected_estimate,
    )
