"""``ValidatedStream`` — per-pass validation over any stream source.

Real ingestion pipelines deliver duplicate edges, self-loops, reversed
endpoints and truncated feeds; the paper's stream models assume none of
those.  :class:`ValidatedStream` is the seam between the two worlds: it
wraps a (possibly corrupted — see
:class:`~repro.resilience.faults.FaultyStream`) source and applies one
of the three policies from :mod:`repro.streams.policies`:

* ``strict``  — any fault raises
  :class:`~repro.streams.policies.StreamFaultError`;
* ``repair``  — canonicalize endpoints, drop self-loops and duplicates,
  so downstream algorithms see a clean simple-graph stream;
* ``skip``    — drop faulty tokens but leave valid ones untouched
  (arrival orientation preserved).

As a :class:`~repro.streams.models.StreamDecorator` it only validates
the wrapped source's raw tokens (or blocks, for an adjacency source),
so it stacks over any source.  Fault counts land in the active
:mod:`repro.obs` MetricsRegistry under ``stream.faults.<kind>`` (see
docs/robustness.md for the registry).

The dedupe filter needs O(m) memory per pass; that is the price of
validation, charged to the harness rather than the algorithm under
test (the algorithm's :class:`~repro.streams.meter.SpaceMeter` is
unaffected).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..graphs.graph import Edge, Vertex, normalize_edge
from .models import StreamDecorator, StreamSource
from .policies import (
    POLICY_REPAIR,
    POLICY_SKIP,
    POLICY_STRICT,
    StreamFaultError,
    check_policy,
    emit_fault_counts,
)


class ValidatedStream(StreamDecorator):
    """Apply a validation policy to any stream source, per pass.

    Token faults handled: self-loop tokens ``(u, u)``; duplicate edges
    (for adjacency sources each edge may legitimately appear twice,
    once per endpoint, so the duplicate threshold is two there);
    reversed endpoints (counted and canonicalized — arrival orientation
    is not an error, so ``strict`` tolerates them too).

    Fault counts accumulate in :attr:`fault_counts` (cumulative across
    passes) and are emitted per pass through the active telemetry as
    ``stream.faults.<kind>``.  The declared ``num_vertices`` /
    ``num_edges`` are the source's — under ``repair`` the cleaned pass
    can be shorter than the declared ``m``, exactly the discrepancy a
    production feed exhibits.
    """

    def __init__(self, source: StreamSource, policy: str = POLICY_REPAIR) -> None:
        super().__init__(source)
        self._policy = check_policy(policy)
        # Adjacency sources present each edge twice (once per endpoint);
        # only a third sighting is a duplicate there.
        self._max_occurrences = 2 if source.provides_adjacency else 1
        self.fault_counts: Dict[str, int] = {}

    @property
    def policy(self) -> str:
        return self._policy

    # -- internals ------------------------------------------------------
    def _count(self, counts: Dict[str, int], kind: str) -> None:
        counts[kind] = counts.get(kind, 0) + 1

    def _flush(self, counts: Dict[str, int]) -> None:
        for kind, count in counts.items():
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count
        emit_fault_counts(counts)

    def _tokens(self) -> Iterator[Edge]:
        policy = self._policy
        seen: Dict[Edge, int] = {}
        counts: Dict[str, int] = {}
        try:
            for token in self._source._tokens():
                u, v = token
                if u == v:
                    if policy == POLICY_STRICT:
                        raise StreamFaultError(
                            f"self loop token {u!r}-{v!r} in stream (strict policy)"
                        )
                    self._count(counts, "self_loop")
                    continue
                edge = normalize_edge(u, v)
                if edge != tuple(token):
                    self._count(counts, "reversed")
                occurrences = seen.get(edge, 0)
                if occurrences >= self._max_occurrences:
                    if policy == POLICY_STRICT:
                        raise StreamFaultError(
                            f"duplicate edge {edge!r} in stream (strict policy)"
                        )
                    self._count(counts, "duplicate")
                    continue
                seen[edge] = occurrences + 1
                yield edge if policy != POLICY_SKIP else (u, v)
        finally:
            self._flush(counts)

    def _blocks(self) -> Iterator[Tuple[Vertex, List[Vertex]]]:
        """Validated ``(vertex, neighbors)`` blocks of one pass.

        Per policy: self-loop entries and duplicate directed pairs are
        raised / dropped; consecutive blocks of the same vertex (a
        *split block* fault) are merged back under ``repair``/``skip``;
        a vertex whose blocks reappear non-consecutively (a *reordered
        split*) cannot be merged without buffering the stream, so it is
        yielded as-is and counted.
        """
        policy = self._policy
        counts: Dict[str, int] = {}
        seen_pairs: set = set()
        finished: set = set()
        held: Optional[Tuple[Vertex, List[Vertex]]] = None
        try:
            for vertex, neighbors in self._source._blocks():
                entries: List[Vertex] = []
                for u in neighbors:
                    if u == vertex:
                        if policy == POLICY_STRICT:
                            raise StreamFaultError(
                                f"self loop entry {vertex!r} in its own "
                                "adjacency list (strict policy)"
                            )
                        self._count(counts, "self_loop")
                        continue
                    pair = (vertex, u)
                    if pair in seen_pairs:
                        if policy == POLICY_STRICT:
                            raise StreamFaultError(
                                f"duplicate entry {u!r} in adjacency list of "
                                f"{vertex!r} (strict policy)"
                            )
                        self._count(counts, "duplicate")
                        continue
                    seen_pairs.add(pair)
                    entries.append(u)
                if held is not None and held[0] == vertex:
                    if policy == POLICY_STRICT:
                        raise StreamFaultError(
                            f"adjacency list of {vertex!r} is split across "
                            "multiple blocks (strict policy)"
                        )
                    self._count(counts, "split_block")
                    held[1].extend(entries)
                    continue
                if held is not None:
                    yield held
                    finished.add(held[0])
                if vertex in finished:
                    if policy == POLICY_STRICT:
                        raise StreamFaultError(
                            f"adjacency list of {vertex!r} reappears after "
                            "other blocks (strict policy)"
                        )
                    self._count(counts, "split_block")
                held = (vertex, entries)
            if held is not None:
                yield held
        finally:
            self._flush(counts)
