"""CSV / JSON experiment export."""

import csv
import json

import pytest

from repro.experiments.export import export_csv, export_json, load_json

RECORDS = [
    {"algorithm": "a", "rel_err": 0.1, "space": 100},
    {"algorithm": "b", "rel_err": 0.2, "space": 50, "note": "extra"},
]


class TestExportCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        assert export_csv(RECORDS, path) == 2
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["algorithm"] == "a"
        assert rows[1]["note"] == "extra"
        assert rows[0]["note"] == ""  # restval fills missing keys

    def test_header_order(self, tmp_path):
        path = tmp_path / "out.csv"
        export_csv(RECORDS, path)
        with open(path) as handle:
            header = handle.readline().strip().split(",")
        assert header[:3] == ["algorithm", "rel_err", "space"]
        assert "note" in header

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv([], tmp_path / "x.csv")


class TestExportJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        export_json(RECORDS, path, metadata={"experiment": "E1"})
        records = load_json(path)
        assert records == RECORDS
        with open(path) as handle:
            document = json.load(handle)
        assert document["metadata"]["experiment"] == "E1"

    def test_numpy_scalars_serialized(self, tmp_path):
        import numpy as np

        path = tmp_path / "np.json"
        export_json([{"x": np.float64(1.5), "n": np.int64(3)}], path)
        assert load_json(path) == [{"x": 1.5, "n": 3}]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_json([], tmp_path / "x.json")

    def test_unserializable_raises(self, tmp_path):
        with pytest.raises(TypeError):
            export_json([{"bad": object()}], tmp_path / "bad.json")
