"""Edge-list file I/O.

Real graph datasets ship as whitespace- or comma-separated edge lists
(SNAP, KONECT, ...).  This module reads and writes that format so the
algorithms can run on external data, and so the CLI can round-trip
generated workloads.

Format accepted: one edge per line, two vertex tokens separated by
whitespace, a comma, or a semicolon.  Lines that are empty or start
with ``#`` / ``%`` are skipped.  Vertex tokens that parse as integers
become ints (so generated graphs round-trip); anything else stays a
string.  Duplicate edges and self loops are dropped with a count
returned, matching how streaming papers preprocess such data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from .graph import Graph, Vertex

_SEPARATORS = re.compile(r"[,;\s]+")
_COMMENT_PREFIXES = ("#", "%")

PathLike = Union[str, Path]


@dataclass
class LoadReport:
    """What happened while reading an edge list."""

    edges_kept: int
    duplicates_dropped: int
    self_loops_dropped: int
    lines_skipped: int


def _parse_vertex(token: str) -> Vertex:
    try:
        return int(token)
    except ValueError:
        return token


def _edge_lines(path: PathLike) -> Iterator[Optional[Tuple[Vertex, Vertex]]]:
    """Each line of an edge-list file: its parsed edge, or ``None`` for a
    blank or comment line.

    Raises:
        ValueError: naming ``path:line`` on a non-comment line that does
            not contain at least two tokens.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(_COMMENT_PREFIXES):
                yield None
                continue
            tokens = _SEPARATORS.split(stripped)
            if len(tokens) < 2:
                raise ValueError(
                    f"{path}:{line_number}: expected two vertex tokens, got {stripped!r}"
                )
            yield _parse_vertex(tokens[0]), _parse_vertex(tokens[1])


def iter_edge_list(path: PathLike) -> Iterator[Tuple[Vertex, Vertex]]:
    """Stream raw edges from a file, one pass, O(1) memory.

    Yields edges as parsed (unnormalized, duplicates included) — the
    building block for :class:`FileEdgeStream`, which applies the
    model's semantics on top.  A malformed line raises ``ValueError``.
    """
    return (edge for edge in _edge_lines(path) if edge is not None)


def read_edge_list(path: PathLike) -> Tuple[Graph, LoadReport]:
    """Load an edge-list file into a :class:`Graph` with a report."""
    graph = Graph()
    duplicates = 0
    self_loops = 0
    kept = 0
    skipped = 0
    for edge in _edge_lines(path):
        if edge is None:
            skipped += 1
        elif edge[0] == edge[1]:
            self_loops += 1
        elif graph.add_edge(*edge):
            kept += 1
        else:
            duplicates += 1
    report = LoadReport(
        edges_kept=kept,
        duplicates_dropped=duplicates,
        self_loops_dropped=self_loops,
        lines_skipped=skipped,
    )
    return graph, report


def write_edge_list(graph: Graph, path: PathLike, header: str = "") -> int:
    """Write a graph as a whitespace-separated edge list.

    Returns the number of edges written.  Edges are written in
    canonical sorted order so output is deterministic.  The write is
    atomic: an interrupted call leaves any previous file untouched.
    """
    from ..resilience.atomic import atomic_write

    count = 0
    with atomic_write(path) as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in graph.edge_list():
            handle.write(f"{u} {v}\n")
            count += 1
    return count
