"""Validation-policy primitives shared by the stream sources.

Kept free of any :mod:`repro.streams.models` import so the strict
models can use these at construction time while
:class:`ValidatedStream` (in :mod:`repro.streams.validation`), the one
place the policies are applied, builds on the models — no cycle.

The three policies:

* ``strict``  — any fault raises :class:`StreamFaultError`;
* ``repair``  — canonicalize endpoints, drop self-loops and duplicates;
* ``skip``    — drop faulty tokens, leave valid ones untouched.

Fault counts are emitted through the active :mod:`repro.obs` metrics
registry under ``stream.faults.<kind>`` (see docs/robustness.md).
"""

from __future__ import annotations

from typing import Dict

from .. import obs as _obs

POLICY_STRICT = "strict"
POLICY_REPAIR = "repair"
POLICY_SKIP = "skip"
POLICIES = (POLICY_STRICT, POLICY_REPAIR, POLICY_SKIP)

FAULT_METRIC_PREFIX = "stream.faults."


class StreamFaultError(ValueError):
    """A malformed token reached a stream running the ``strict`` policy."""


def check_policy(policy: str) -> str:
    """Validate a policy name, returning it unchanged."""
    if policy not in POLICIES:
        raise ValueError(
            f"unknown validation policy {policy!r}; expected one of {POLICIES}"
        )
    return policy


def emit_fault_counts(counts: Dict[str, int]) -> None:
    """Fold per-pass fault counts into the active metrics registry."""
    if not counts:
        return
    telemetry = _obs.current()
    if not telemetry.enabled:
        return
    for kind, count in counts.items():
        if count:
            telemetry.metrics.inc(FAULT_METRIC_PREFIX + kind, count)


def reject_self_loops(graph) -> None:
    """Raise :class:`StreamFaultError` if a vertex is its own neighbor.

    ``Graph`` itself rejects self-loops, but a hand-built adjacency
    structure (or a subclass with looser invariants) can hold ``v`` in
    its own neighbor set; the stream models call this at construction
    so such input fails loudly instead of deep inside ``normalize_edge``.
    """
    for v in graph.vertices():
        if v in graph.neighbors(v):
            raise StreamFaultError(
                f"self loop {v!r}-{v!r} in source graph (strict policy)"
            )
