"""Resilience layer: fault injection, validation, checkpoint/resume.

This package hardens the reproduction harness against the failure modes
real runs actually hit:

* corrupted input streams — :class:`FaultPlan` / :class:`FaultyStream`
  inject seeded faults, :class:`~repro.streams.validation.ValidatedStream`
  applies the ``strict`` / ``repair`` / ``skip`` policies;
* dying workers and runaway trials — the
  :class:`~repro.experiments.parallel.ParallelTrialRunner` (retry,
  timeout, crash recovery) lives in :mod:`repro.experiments.parallel`
  and raises the error types defined here;
* interrupted sweeps — :func:`config_hash` / :class:`Checkpoint` /
  :class:`CheckpointContext` persist completed work units atomically so
  ``--resume`` replays them byte-identically;
* torn artifacts — :func:`atomic_write` backs every export, trace and
  checkpoint write.

See docs/robustness.md for the full tour.  This module must not import
from :mod:`repro.experiments` (the experiments import *us*).
"""

from ..streams.policies import (
    POLICIES,
    POLICY_REPAIR,
    POLICY_SKIP,
    POLICY_STRICT,
    StreamFaultError,
    check_policy,
)
from ..streams.validation import ValidatedStream
from .atomic import atomic_write
from .checkpoint import (
    NULL_CHECKPOINT,
    Checkpoint,
    CheckpointContext,
    config_hash,
    is_missing,
)
from .errors import (
    CheckpointMismatchError,
    SpaceBudgetExceeded,
    TrialRetryError,
    TrialTimeoutError,
)
from .faults import FaultPlan, FaultyStream

__all__ = [
    "POLICIES",
    "POLICY_REPAIR",
    "POLICY_SKIP",
    "POLICY_STRICT",
    "StreamFaultError",
    "check_policy",
    "ValidatedStream",
    "atomic_write",
    "NULL_CHECKPOINT",
    "Checkpoint",
    "CheckpointContext",
    "config_hash",
    "is_missing",
    "CheckpointMismatchError",
    "SpaceBudgetExceeded",
    "TrialRetryError",
    "TrialTimeoutError",
    "FaultPlan",
    "FaultyStream",
]
