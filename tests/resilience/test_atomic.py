"""atomic_write: all-or-nothing artifact writes."""

from __future__ import annotations

import os
import stat

import pytest

from repro.resilience import atomic_write


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("hello\n")
        assert target.read_text() == "hello\n"

    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()

    def test_failure_preserves_previous_artifact(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous complete artifact\n")
        with pytest.raises(ValueError):
            with atomic_write(target) as handle:
                handle.write("half a new ")
                raise ValueError("interrupted")
        assert target.read_text() == "previous complete artifact\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("ok")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                raise RuntimeError("boom")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(target) as handle:
            handle.write("new")
        assert target.read_text() == "new"


    def test_file_gets_the_mode_open_would_give(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        target = tmp_path / "atomic.txt"
        with atomic_write(target) as handle:
            handle.write("x")
        mode = stat.S_IMODE(target.stat().st_mode)
        assert mode == stat.S_IMODE(plain.stat().st_mode)


class TestExportsAreAtomic:
    def test_export_json_interrupted_keeps_previous(self, tmp_path, monkeypatch):
        import json

        from repro.experiments import export_json, load_json

        target = tmp_path / "records.json"
        export_json([{"a": 1}], target)
        assert load_json(target) == [{"a": 1}]

        class Unserializable:
            pass

        with pytest.raises(TypeError):
            export_json([{"a": Unserializable()}], target)
        # The torn write never reached the target.
        assert load_json(target) == [{"a": 1}]
        assert json.loads(target.read_text())

    def test_export_csv_atomic(self, tmp_path):
        from repro.experiments import export_csv

        target = tmp_path / "records.csv"
        assert export_csv([{"a": 1, "b": 2}], target) == 1
        assert target.read_text().splitlines()[0] == "a,b"
        assert os.listdir(tmp_path) == ["records.csv"]

    def test_trace_file_written_atomically(self, tmp_path):
        from repro import obs as _obs

        path = tmp_path / "trace.jsonl"
        with _obs.session(path=str(path)) as telemetry:
            telemetry.metrics.inc("x")
        lines = path.read_text().splitlines()
        assert lines  # manifest + metrics records
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    def test_write_edge_list_interrupted_keeps_previous(self, tmp_path, monkeypatch):
        from repro.graphs import Graph, write_edge_list

        target = tmp_path / "graph.txt"
        write_edge_list(Graph.from_edges([(1, 2), (2, 3)]), target, header="old")
        before = target.read_bytes()

        def torn_edge_list():
            yield (5, 6)
            raise RuntimeError("interrupted")

        graph = Graph.from_edges([(5, 6), (6, 7)])
        monkeypatch.setattr(graph, "edge_list", torn_edge_list)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_edge_list(graph, target)
        assert target.read_bytes() == before
        assert os.listdir(tmp_path) == ["graph.txt"]
