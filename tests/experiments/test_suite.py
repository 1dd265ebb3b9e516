"""The light experiment suite."""

import pytest

from repro.experiments.suite import SUITE, run_experiment


class TestSuiteRegistry:
    def test_every_entry_has_unique_id_and_title(self):
        assert len(SUITE) >= 5
        for exp_id, experiment in SUITE.items():
            assert experiment.id == exp_id
            assert experiment.title

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_lowercase_id_accepted(self):
        records = run_experiment("e12", seed=1)
        assert records


class TestLightRuns:
    def test_e12_records(self):
        records = run_experiment("E12", seed=0)
        assert all(record["holds"] for record in records)
        assert {record["eta"] for record in records} == {2.0, 8.0, 90.0}

    def test_e11_records(self):
        records = run_experiment("E11", seed=2)
        by_answer = {record["DISJ_answer"]: record for record in records}
        assert by_answer[0]["four_cycles"] == 0
        assert by_answer[0]["protocol_decided"] == 0
        assert by_answer[1]["four_cycles"] > 0

    def test_e9_records(self):
        records = run_experiment("E9", seed=1)
        rates = {record["instance"]: record["detection_rate"] for record in records}
        assert rates["cycle-free"] == 0.0
        assert rates["T cycles"] >= 0.5

    def test_e4_records(self):
        records = run_experiment("E4", seed=3)
        assert len(records) == 5
        assert all(record["error_over_M"] < 1.0 for record in records)

    def test_e1_records(self):
        records = run_experiment("E1", seed=1)
        assert len(records) == 2
        mv = next(r for r in records if "Thm 2.1" in r["algorithm"])
        assert mv["median_rel_err"] < 0.5
        # pinned: E1 reads the thm2.1 and cormode-jowhari cells
        assert records == [
            {
                "algorithm": "mv-triangle-ro (Thm 2.1)",
                "truth": 280,
                "median_estimate": 258.5,
                "median_rel_err": 0.0767,
            },
            {
                "algorithm": "cormode-jowhari",
                "truth": 280,
                "median_estimate": 146.2,
                "median_rel_err": 0.4777,
            },
        ]

    def test_e5_and_e8_run(self):
        for exp_id in ("E5", "E8"):
            records = run_experiment(exp_id, seed=1)
            assert records[0]["median_rel_err"] < 0.5
        # pinned: E5 and E8 read the thm4.2 and thm5.3 cells
        assert run_experiment("E5", seed=1) == [
            {
                "algorithm": "diamond (Thm 4.2)",
                "truth": 1014,
                "median_estimate": 1014.0,
                "median_rel_err": 0.0,
                "passes": 2,
            }
        ]
        assert run_experiment("E8", seed=1) == [
            {
                "algorithm": "three-pass (Thm 5.3)",
                "truth": 1802,
                "median_estimate": 1802.0,
                "median_rel_err": 0.0,
                "passes": 3,
            }
        ]


class TestPaperTable:
    def test_rows_cover_all_results(self):
        from repro.experiments import paper_table

        rows = paper_table(seed=1, trials=1)
        results = {row["result"] for row in rows}
        assert results == {"Thm 2.1", "Thm 4.2", "Thm 4.3a", "Thm 5.3", "Thm 5.6", "Thm 5.7"}
        for row in rows:
            assert row["passes"] in (1, 2, 3)
            assert isinstance(row["measured_rel_err"], float)
        # pinned: (result, problem, model, passes, space bound, error, space)
        assert [tuple(row.values()) for row in rows] == [
            ("Thm 2.1", "triangles", "random", 1, "Õ(ε⁻²m/√T)", 0.077, 2107),
            ("Thm 4.2", "four-cycles", "adjacency", 2, "Õ(ε⁻⁵m/√T)", 0.0, 105793),
            (
                "Thm 4.3a",
                "four-cycles (T=Ω(n²))",
                "adjacency",
                1,
                "Õ(ε⁻⁴n⁴/T²)",
                0.195,
                315,
            ),
            (
                "Thm 5.7",
                "four-cycles (T=Ω(n²))",
                "arbitrary",
                1,
                "Õ(ε⁻²n)",
                0.033,
                38387,
            ),
            ("Thm 5.3", "four-cycles", "arbitrary", 3, "Õ(m/T^{1/4})", 0.0, 13271),
            (
                "Thm 5.6",
                "0 vs T four-cycles",
                "arbitrary",
                2,
                "Õ(m^{3/2}/T^{3/4})",
                0.0,
                "-",
            ),
        ]
        assert list(rows[0]) == [
            "result",
            "problem",
            "model",
            "passes",
            "space",
            "measured_rel_err",
            "measured_space",
        ]
