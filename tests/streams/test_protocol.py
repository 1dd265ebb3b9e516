"""The stream-pass protocol: every source counts a pass the same way.

``StreamSource.edges`` and ``StreamSource.adjacency_lists`` are the only
code that starts a pass; models and decorators supply raw items only.
"""

import pathlib
import re

import pytest

import repro
from repro import obs
from repro.graphs import erdos_renyi, write_edge_list
from repro.resilience import FaultPlan, FaultyStream
from repro.streams import (
    POLICY_REPAIR,
    AdjacencyListStream,
    ArbitraryOrderStream,
    FileEdgeStream,
    RandomOrderStream,
    ValidatedStream,
)
from repro.streams.models import EDGE_CHUNK

GRAPH = erdos_renyi(30, 0.2, seed=4)


def _file_stream(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(GRAPH, path)
    return FileEdgeStream(path)


BASES = {
    "arbitrary": lambda tmp_path: ArbitraryOrderStream.from_graph(GRAPH),
    "random": lambda tmp_path: RandomOrderStream(GRAPH, seed=1),
    "adjacency": lambda tmp_path: AdjacencyListStream(GRAPH, seed=1),
    "file": _file_stream,
}
DECORATORS = {
    "plain": lambda source: source,
    "validated": lambda source: ValidatedStream(source, POLICY_REPAIR),
    "faulty": lambda source: FaultyStream(source, FaultPlan.mixed(0.2), seed=3),
}
CASES = [(base, deco) for base in BASES for deco in DECORATORS]


@pytest.fixture(params=CASES, ids=[f"{deco}-{base}" for base, deco in CASES])
def source(request, tmp_path):
    base, deco = request.param
    return DECORATORS[deco](BASES[base](tmp_path))


def _counters(telemetry):
    counters = telemetry.metrics.snapshot()["counters"]
    return counters.get("stream.passes", 0), counters.get("stream.edges_consumed", 0)


def test_edges_pass_is_counted(source):
    before = source.passes_taken
    with obs.session() as telemetry:
        tokens = list(source.edges())
        passes, consumed = _counters(telemetry)
    assert source.passes_taken == before + 1
    assert passes == 1
    assert consumed == len(tokens)


def test_edge_chunks_are_one_counted_edges_pass(source):
    tokens = list(source.edges())
    before = source.passes_taken
    with obs.session() as telemetry:
        chunks = source.edge_chunks()
        assert source.passes_taken == before + 1  # counted when the pass begins
        chunks = list(chunks)
        passes, consumed = _counters(telemetry)
    assert source.passes_taken == before + 1
    assert passes == 1
    assert [token for chunk in chunks for token in chunk] == tokens
    assert consumed == len(tokens)
    assert all(0 < len(chunk) <= EDGE_CHUNK for chunk in chunks)


def test_edge_chunks_split_long_streams():
    graph = erdos_renyi(200, 0.5, seed=1)
    stream = RandomOrderStream(graph, seed=5)
    m = stream.num_edges
    assert m > 2 * EDGE_CHUNK
    with obs.session() as telemetry:
        chunks = list(stream.edge_chunks())
        assert _counters(telemetry) == (1, m)
    assert [len(chunk) for chunk in chunks] == [EDGE_CHUNK, EDGE_CHUNK, m - 2 * EDGE_CHUNK]
    assert [token for chunk in chunks for token in chunk] == list(stream.edges())


def test_edge_chunks_of_an_empty_stream():
    stream = ArbitraryOrderStream([])
    assert list(stream.edge_chunks()) == []
    assert stream.passes_taken == 1


def test_adjacency_pass_is_counted_or_refused(source):
    before = source.passes_taken
    if not source.provides_adjacency:
        with pytest.raises(TypeError, match="not an adjacency-list source"):
            source.adjacency_lists()
        assert source.passes_taken == before
        return
    with obs.session() as telemetry:
        blocks = list(source.adjacency_lists())
        passes, consumed = _counters(telemetry)
    assert source.passes_taken == before + 1
    assert passes == 1
    assert consumed == sum(len(neighbors) for _, neighbors in blocks)


def test_early_exit_reports_tokens_read():
    stream = RandomOrderStream(GRAPH, seed=2)
    with obs.session() as telemetry:
        for index, _ in enumerate(stream.edges()):
            if index == 4:
                break
        assert _counters(telemetry) == (1, 5)


def test_telemetry_off_returns_the_raw_iterator():
    stream = ArbitraryOrderStream.from_graph(GRAPH)
    tokens = stream.edges()
    assert type(tokens) is type(iter([]))
    assert stream.passes_taken == 1


SRC = pathlib.Path(repro.__file__).parent
PASS_ACCOUNTING = ("_passes +=", '"stream.passes"', '"stream.edges_consumed"')
BLOCKS_PROBE = re.compile(r"\b(?:hasattr|getattr)\s*\([^)]*[\"']_blocks[\"']")


def test_only_the_stream_source_counts_passes():
    """Pass accounting and the adjacency test live in streams/models.py."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "streams/models.py":
            continue
        text = path.read_text(encoding="utf-8")
        offenders += [f"{relative}: {needle}" for needle in PASS_ACCOUNTING if needle in text]
        if BLOCKS_PROBE.search(text):
            offenders.append(f"{relative}: _blocks probe")
    assert offenders == []
