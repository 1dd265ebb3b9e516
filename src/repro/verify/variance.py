"""Empirical-vs-theoretical variance checks for unbiased estimators.

The closed-form variances of :mod:`repro.verify.budgets` are exact on
the vertex-disjoint planted workloads, so the sample variance of ``N``
independent trials should match them — a much sharper probe of seeding
bugs than accuracy alone.  Correlated RNG streams (the bug class the
namespaced seeding of :mod:`repro.seeding` eliminates) typically
*shrink* the apparent variance: two "independent" components sharing a
stream act like one, and the empirical/theoretical ratio collapses
below the chi-square band.  This check is what would have caught it.

Three kinds of comparison, matching :attr:`GuaranteePlan.variance_kind`:

* ``exact`` — ratio must land inside the two-sided chi-square band of
  :func:`repro.verify.stats.variance_ratio_bounds` (widened for the
  non-normality of small Bernoulli sums).
* ``upper-bound`` — the theoretical value is only a bound (e.g.
  TRIEST-impr's ``T (eta - 1)``); the ratio must stay below the plan's
  slack, and an *extremely* small ratio is fine.
* ``implied`` — no closed form (the paper's own multi-pass
  algorithms); the empirical variance must stay below the Chebyshev
  requirement ``delta (eps T)^2`` the certification assumes.

Verdicts: ``OK`` inside the band, ``SUSPECT`` within 3x of it (noise),
``FAIL`` beyond — a FAIL on ``exact`` usually means either a broken
estimator or correlated randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .. import obs as _obs
from ..experiments.runner import run_trials
from ..resilience.checkpoint import NULL_CHECKPOINT, CheckpointContext
from ..seeding import derive_seed
from .certify import PAPER_DELTA, PAPER_EPSILON, PLANS
from .stats import variance_ratio_bounds

__all__ = ["VarianceReport", "check_variance", "check_variance_all"]

#: Widening factor on the chi-square band: our trial estimates are sums
#: of Bernoullis, whose kurtosis at moderate p inflates the variance of
#: the sample variance beyond the normal-theory chi-square.
CHI_SQUARE_WIDEN = 1.8


@dataclass
class VarianceReport:
    """Outcome of one empirical-vs-theoretical variance comparison."""

    algorithm: str
    kind: str
    trials: int
    empirical: float
    theoretical: float
    ratio: float
    band_low: float
    band_high: float
    verdict: str  # "OK" | "SUSPECT" | "FAIL"
    mean_estimate: float
    truth: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "verdict": self.verdict,
            "trials": self.trials,
            "empirical_var": round(self.empirical, 2),
            "theoretical_var": round(self.theoretical, 2),
            "ratio": round(self.ratio, 3),
            "band": f"[{self.band_low:.2f}, {self.band_high:.2f}]",
        }


def _sample_variance(values: Sequence[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / (n - 1)


def check_variance(
    name: str,
    epsilon: float = PAPER_EPSILON,
    delta: float = PAPER_DELTA,
    *,
    trials: int = 64,
    seed: int = 0,
    n_jobs: int = 1,
    quick: bool = False,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> VarianceReport:
    """Run ``trials`` independent trials of a plan at its paper budget
    and compare the sample variance against the theoretical value."""
    try:
        plan = PLANS[name]
    except KeyError:
        known = ", ".join(sorted(PLANS))
        raise KeyError(f"unknown guarantee plan {name!r}; known: {known}") from None
    if trials < 8:
        raise ValueError(f"variance checks need at least 8 trials, got {trials}")
    built = plan.build(epsilon, delta, seed, quick)
    theoretical = built.budget.detail["variance"]
    telemetry = _obs.current()
    with telemetry.tracer.span(
        "verify:variance", kind="verify", algorithm=name, trials=trials
    ):
        unit = f"variance|{name}|eps={epsilon}|delta={delta:.6f}|quick={quick}|n={trials}"
        payload = checkpoint.unit(
            unit,
            lambda: {
                "estimates": list(
                    run_trials(
                        built.algorithm_factory,
                        built.stream_factory,
                        truth=built.truth,
                        trials=trials,
                        base_seed=derive_seed("verify:variance", name, seed=seed),
                        n_jobs=n_jobs,
                    ).estimates
                )
            },
        )
    estimates = payload["estimates"]
    empirical = _sample_variance(estimates)
    mean_estimate = sum(estimates) / len(estimates)

    kind = plan.variance_kind
    slack = plan.variance_slack
    if kind == "exact":
        if theoretical <= 0.0:
            # p capped at 1: the estimator is exact; empirical must be ~0
            band_low, band_high = 0.0, 1e-9
            ratio = empirical
        else:
            band_low, band_high = variance_ratio_bounds(
                len(estimates), confidence=0.99, widen=CHI_SQUARE_WIDEN
            )
            ratio = empirical / theoretical
        verdict = _band_verdict(ratio, band_low, band_high)
    elif kind in ("upper-bound", "implied"):
        band_low, band_high = 0.0, slack if kind == "upper-bound" else 1.0
        ratio = empirical / theoretical if theoretical > 0 else math.inf
        if ratio <= band_high:
            verdict = "OK"
        elif ratio <= 3.0 * band_high:
            verdict = "SUSPECT"
        else:
            verdict = "FAIL"
    else:
        raise ValueError(f"unknown variance kind {kind!r}")
    if telemetry.enabled:
        telemetry.metrics.set_gauge(f"verify.variance_ratio.{name}", ratio)
    return VarianceReport(
        algorithm=name,
        kind=kind,
        trials=len(estimates),
        empirical=empirical,
        theoretical=theoretical,
        ratio=ratio,
        band_low=band_low,
        band_high=band_high,
        verdict=verdict,
        mean_estimate=mean_estimate,
        truth=built.truth,
        detail=dict(built.budget.detail),
    )


def _band_verdict(ratio: float, low: float, high: float) -> str:
    if low <= ratio <= high:
        return "OK"
    if low / 3.0 <= ratio <= high * 3.0:
        return "SUSPECT"
    return "FAIL"


def check_variance_all(
    names: Optional[Sequence[str]] = None,
    epsilon: float = PAPER_EPSILON,
    delta: float = PAPER_DELTA,
    **kwargs: Any,
) -> List[VarianceReport]:
    """Variance-check every plan (or the named subset)."""
    selected = list(names) if names else sorted(PLANS)
    return [check_variance(name, epsilon, delta, **kwargs) for name in selected]
