"""Statistical guarantee certification (``repro verify``).

The paper's theorems promise, for each algorithm, that

    P(|T_hat - T| > eps * T) <= delta

at a stated space budget.  This package turns those promises into
*testable certificates*:

* :mod:`repro.verify.stats` — small-sample binomial machinery (Wilson
  and Clopper–Pearson confidence intervals, chi-square variance-ratio
  bounds) with no external dependencies.
* :mod:`repro.verify.budgets` — the Chebyshev "budget from paper"
  parameterizations: for each estimator with a closed-form variance on
  vertex-disjoint planted workloads, the knob setting that makes the
  theoretical failure probability at most ``delta``.
* :mod:`repro.verify.certify` — the certification engine: seeded trial
  batches through :class:`~repro.experiments.parallel.ParallelTrialRunner`
  with sequential early stopping, emitting per-theorem PASS / FAIL /
  INCONCLUSIVE certificates.
* :mod:`repro.verify.variance` — empirical-vs-theoretical variance
  ratio checks for the unbiased estimators.
* :mod:`repro.verify.seeds` — the static seed audit: flags any two RNG
  components whose leading draws coincide under a shared seed (the bug
  class :mod:`repro.seeding` eliminates).
* :mod:`repro.verify.report` — table / JSON rendering.

CLI: ``python -m repro verify {guarantee,variance,seeds,all}``.
"""

from __future__ import annotations

from .budgets import Budget, chebyshev_slack
from .certify import (
    PLANS,
    Certificate,
    GuaranteePlan,
    certify,
    certify_all,
    certify_checkpoint_key,
)
from .seeds import AUDIT_SEEDS, SeedCollision, SeedProbe, audit_seeds, default_probes
from .stats import (
    BinomialCI,
    clopper_pearson_interval,
    inverse_normal_cdf,
    variance_ratio_bounds,
    wilson_interval,
)
from .variance import VarianceReport, check_variance, check_variance_all
from .report import certificates_to_json, render_certificates, render_variance

__all__ = [
    "AUDIT_SEEDS",
    "BinomialCI",
    "Budget",
    "Certificate",
    "GuaranteePlan",
    "PLANS",
    "SeedCollision",
    "SeedProbe",
    "VarianceReport",
    "audit_seeds",
    "certificates_to_json",
    "certify",
    "certify_all",
    "certify_checkpoint_key",
    "chebyshev_slack",
    "check_variance",
    "check_variance_all",
    "clopper_pearson_interval",
    "default_probes",
    "inverse_normal_cdf",
    "render_certificates",
    "render_variance",
    "variance_ratio_bounds",
    "wilson_interval",
]
