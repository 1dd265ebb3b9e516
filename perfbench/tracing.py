"""Benchmark-side span tracing of the library's layers.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces a fixed list of the library's public functions and methods with
timing wrappers (class attributes, or module attributes where callers
look the name up at call time) and :meth:`Tracer.uninstall` puts the
originals back.

Each wrapper keeps a stack of child time, so a layer's *self* time is its
spans' duration minus the part their child spans cover.  Hot leaf calls
(hash evaluations, meter updates, CountSketch updates) are aggregated as
counts and self time per key; coarse spans (set-up phases, estimates,
passes, trials, l2 extraction) are also kept as records with a parent
id and a round id, and :meth:`Tracer.write_jsonl` writes them at exit.

Stream passes are timed by wrapping the pass iterator, which ends when
the algorithm has consumed the last token.  Iteration itself runs inside
the consumer's frames and cannot be timed per token without distorting
it, so the streams layer is charged ``tokens x`` the bare-iteration
floor measured separately (:func:`iterate_ns_per_token`), and that
amount is taken off the layer whose estimate consumed the tokens.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.experiments.parallel as parallel_mod
import repro.experiments.runner as runner_mod
import repro.experiments.workloads as workloads_mod
import repro.graphs as graphs_pkg
import repro.obs as obs_pkg
from repro.baselines.triest import TriestImpr
from repro.core.fourcycle_arbitrary_threepass import FourCycleArbitraryThreePass
from repro.core.fourcycle_l2sampling import FourCycleL2Sampling
from repro.core.fourcycle_moment import FourCycleMoment
from repro.core.triangle_random_order import TriangleRandomOrder
from repro.obs.trace import NullTracer
from repro.sketches.countsketch import CountSketch
from repro.sketches.hashing import KWiseHash
from repro.sketches.l2_sampler import L2Sampler, L2SamplerBank
from repro.sketches.wedge_f2 import WedgeF2Estimator
from repro.streams.meter import SpaceMeter
from repro.streams.models import (
    AdjacencyListStream,
    ArbitraryOrderStream,
    RandomOrderStream,
    StreamSource,
)

_now = time.perf_counter_ns

LAYERS = ("graphs", "streams", "sketches", "core", "baselines", "experiments", "obs")

# estimate spans: algorithm class -> key (layer is the key's first part)
ALGORITHM_KEYS = {
    TriangleRandomOrder: "core.a1",
    FourCycleMoment: "core.a4",
    FourCycleL2Sampling: "core.a5",
    FourCycleArbitraryThreePass: "core.a6",
    TriestImpr: "baselines.triest",
}

# (owner, attribute, key, record as a span); a key's layer is its first part
_CLASS_TARGETS: List[Tuple[Any, str, str, bool]] = [
    (RandomOrderStream, "__init__", "streams.construct", True),
    (AdjacencyListStream, "__init__", "streams.construct", True),
    (ArbitraryOrderStream, "__init__", "streams.construct", True),
    (SpaceMeter, "add", "streams.meter", False),
    (SpaceMeter, "set", "streams.meter", False),
    (KWiseHash, "value", "sketches.hashing.scalar", False),
    (KWiseHash, "values_array", "sketches.hashing.batch", False),
    (CountSketch, "update", "sketches.countsketch.update", False),
    (CountSketch, "update_batch", "sketches.countsketch.update_batch", False),
    (CountSketch, "query", "sketches.countsketch.query", False),
    (WedgeF2Estimator, "process_adjacency_list", "sketches.wedge_f2", False),
    (WedgeF2Estimator, "process_edge", "sketches.wedge_f2", False),
    (WedgeF2Estimator, "estimate", "sketches.wedge_f2", False),
    (L2Sampler, "update", "sketches.l2_sampler", False),
    (L2Sampler, "sample", "sketches.l2_sampler", False),
    (L2SamplerBank, "update", "sketches.l2_sampler", False),
    (L2SamplerBank, "samples", "sketches.l2_sampler.samples", True),
    (NullTracer, "span", "obs", False),
]

# module-level names, patched where the library looks them up at call time
_MODULE_TARGETS: List[Tuple[Any, str, str, bool]] = [
    (graphs_pkg, "barabasi_albert", "graphs.generate", True),
    (workloads_mod, "dense_wedge_graph", "graphs.generate", True),
    (workloads_mod, "planted_diamonds", "graphs.generate", True),
    (workloads_mod, "cached_ground_truth", "experiments.groundtruth", True),
    (runner_mod, "run_trials", "experiments.run_trials", True),
    (parallel_mod, "execute_trial", "experiments.execute_trial", True),
    (obs_pkg, "current", "obs", False),
]


class Tracer:
    """Per-key call counts, self and inclusive time, plus span records."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)  # keys hashed / updated
        self.pass_ns: Dict[str, int] = defaultdict(int)  # per estimate key
        self.tokens: Dict[str, int] = defaultdict(int)  # per estimate key
        self.drawn = 0  # l2 samples accepted
        self.bank_slots = 0  # l2 samplers asked
        self.records: List[Dict[str, Any]] = []
        self.round: Optional[int] = None
        self._children: List[int] = []  # child-time accumulator per open span
        self._open: List[int] = []  # record ids of open recorded spans
        self._estimates: List[str] = []  # keys of open estimate spans
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn: Callable, key: str, record: bool) -> Callable:
        children = self._children
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns

        if not record:

            @functools.wraps(fn)
            def leaf(*args: Any, **kwargs: Any) -> Any:
                children.append(0)
                start = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = _now() - start
                    self_ns[key] += elapsed - children.pop()
                    incl_ns[key] += elapsed
                    calls[key] += 1
                    if children:
                        children[-1] += elapsed

            return leaf

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            record_id = self._begin(key)
            children.append(0)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                elapsed = end - start
                self_ns[key] += elapsed - children.pop()
                incl_ns[key] += elapsed
                calls[key] += 1
                if children:
                    children[-1] += elapsed
                self._end(record_id, start, end)

        return spanned

    def _wrap_run(self, fn: Callable, key: str) -> Callable:
        inner = self._wrap(fn, key, record=True)

        @functools.wraps(fn)
        def run(*args: Any, **kwargs: Any) -> Any:
            self._estimates.append(key)
            try:
                return inner(*args, **kwargs)
            finally:
                self._estimates.pop()

        return run

    def _begin(self, key: str) -> int:
        record_id = len(self.records)
        self.records.append(
            {
                "type": "span",
                "id": record_id,
                "parent": self._open[-1] if self._open else None,
                "name": key,
                "round": self.round,
            }
        )
        self._open.append(record_id)
        return record_id

    def _end(self, record_id: int, start: int, end: int) -> None:
        # by id, not pop(): a pass span can still be open out of order
        self._open.remove(record_id)
        self.records[record_id]["start_ns"] = start
        self.records[record_id]["end_ns"] = end

    def _passes(self, iterator_fn: Callable, tokens_of: Callable) -> Callable:
        tracer = self

        @functools.wraps(iterator_fn)
        def begin_pass(stream: StreamSource, *args: Any, **kwargs: Any):
            inner = iterator_fn(stream, *args, **kwargs)
            if not tracer._estimates:
                return inner
            return tracer._timed_pass(inner, tracer._estimates[-1], tokens_of(stream))

        return begin_pass

    def _timed_pass(self, inner: Any, key: str, tokens: int):
        record_id = self._begin(f"{key}.pass")
        start = _now()
        try:
            yield from inner
        finally:
            end = _now()
            self._end(record_id, start, end)
            self.pass_ns[key] += end - start
            self.tokens[key] += tokens

    def _count_items(self, fn: Callable, key: str) -> Callable:
        @functools.wraps(fn)
        def counted(obj: Any, keys: Any, *args: Any, **kwargs: Any) -> Any:
            self.items[key] += len(keys)
            return fn(obj, keys, *args, **kwargs)

        return counted

    def _count_drawn(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def samples(bank: L2SamplerBank, *args: Any, **kwargs: Any) -> Any:
            drawn = fn(bank, *args, **kwargs)
            self.drawn += len(drawn)
            self.bank_slots += len(bank)
            return drawn

        return samples

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Replace every traced entry point with its timing wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, name, key, record in _CLASS_TARGETS:
            self._patch(owner, name, self._wrap(owner.__dict__[name], key, record))
        for owner, name, key, record in _MODULE_TARGETS:
            self._patch(owner, name, self._wrap(owner.__dict__[name], key, record))
        for cls, key in ALGORITHM_KEYS.items():
            self._patch(cls, "run", self._wrap_run(cls.__dict__["run"], key))
        # counts wrap outside the timing wrappers, so they cost no span time
        self._patch(
            KWiseHash,
            "values_array",
            self._count_items(KWiseHash.__dict__["values_array"], "sketches.hashing.batch"),
        )
        self._patch(
            CountSketch,
            "update_batch",
            self._count_items(
                CountSketch.__dict__["update_batch"], "sketches.countsketch.update_batch"
            ),
        )
        self._patch(
            L2SamplerBank, "samples", self._count_drawn(L2SamplerBank.__dict__["samples"])
        )
        self._patch(
            StreamSource,
            "edges",
            self._passes(StreamSource.__dict__["edges"], lambda s: s.stream_length),
        )
        self._patch(
            AdjacencyListStream,
            "adjacency_lists",
            self._passes(
                AdjacencyListStream.__dict__["adjacency_lists"], lambda s: s.stream_length
            ),
        )

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------
    def layer_self_s(self, floor_ns_per_token: float) -> Dict[str, float]:
        """Self seconds per layer, with stream iteration moved to streams."""
        totals = {layer: 0.0 for layer in LAYERS}
        for key, ns in self.self_ns.items():
            totals[key.split(".", 1)[0]] += ns / 1e9
        for key, tokens in self.tokens.items():
            iteration_s = tokens * floor_ns_per_token / 1e9
            totals[key.split(".", 1)[0]] -= iteration_s
            totals["streams"] += iteration_s
        return totals

    def seconds(self, *keys: str, inclusive: bool = False) -> float:
        source = self.incl_ns if inclusive else self.self_ns
        return sum(source.get(key, 0) for key in keys) / 1e9

    def count(self, *keys: str) -> int:
        return sum(self.calls.get(key, 0) for key in keys)

    def write_jsonl(self, path: str, header: Dict[str, Any]) -> None:
        """Manifest header, the span records, then the per-key totals."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "manifest", **header}) + "\n")
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
            totals = {
                key: {
                    "calls": self.calls[key],
                    "self_ns": self.self_ns[key],
                    "incl_ns": self.incl_ns[key],
                }
                for key in sorted(self.calls)
            }
            handle.write(json.dumps({"type": "totals", "keys": totals}) + "\n")


def iterate_ns_per_token(make_stream: Callable[[], StreamSource], repeats: int = 5) -> float:
    """Bare iteration cost: one pass with a no-op consumer, best of ``repeats``."""
    best = float("inf")
    for _ in range(repeats):
        stream = make_stream()
        start = _now()
        if stream.provides_adjacency:
            for _vertex, _neighbors in stream.adjacency_lists():
                pass
        else:
            for _token in stream.edges():
                pass
        best = min(best, (_now() - start) / max(1, stream.stream_length))
    return best
