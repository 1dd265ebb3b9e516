"""Exception types of the resilience layer.

Kept dependency-free so any layer (streams, the parallel engine, the
experiment suite) can raise them without import cycles.
"""

from __future__ import annotations


class SpaceBudgetExceeded(RuntimeError):
    """A trial's peak space crossed the configured budget.

    Raised only when the caller asked for ``on_budget="raise"``; the
    default behavior of the trial runner is to *flag* the trial
    (``result.details["space_budget_exceeded"]``) and keep the sweep
    alive — one runaway trial should degrade, not abort.
    """


class TrialRetryError(RuntimeError):
    """A trial kept failing after every allowed retry.

    The original exception is chained as ``__cause__``; the message
    names the trial index and the seeds of the final attempt so the
    failure is reproducible in isolation.
    """


class TrialTimeoutError(RuntimeError):
    """A trial exceeded its wall-clock timeout with no retries left."""


class CheckpointMismatchError(RuntimeError):
    """A checkpoint file belongs to a different config/seed schedule.

    Resuming a sweep against a checkpoint recorded under different
    parameters would silently mix incompatible results; the hash check
    turns that into a loud error.
    """
