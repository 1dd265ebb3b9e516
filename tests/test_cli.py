"""The command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "graph.txt"
    # a triangle plus a pendant edge
    path.write_text("0 1\n1 2\n0 2\n2 3\n")
    return path


class TestWorkloadsCommand:
    def test_lists_registry(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "light-triangles" in output
        assert "dense-gnp" in output


class TestGenerateCommand:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "generated.txt"
        code = main(["generate", "four-cycle-free", "--out", str(out)])
        assert code == 0
        assert out.exists()
        output = capsys.readouterr().out
        assert "wrote" in output

    def test_unknown_workload(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "nope", "--out", str(tmp_path / "x.txt")])


class TestExactCommand:
    def test_counts(self, edge_file, capsys):
        assert main(["exact", str(edge_file)]) == 0
        output = capsys.readouterr().out
        assert "triangles" in output
        assert "1" in output  # one triangle


class TestEstimateCommand:
    def test_triangles_with_guess(self, edge_file, capsys):
        code = main(
            [
                "estimate",
                str(edge_file),
                "--problem",
                "triangles",
                "--model",
                "random",
                "--t-guess",
                "1",
                "--epsilon",
                "0.5",
                "--compare-exact",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "median_estimate" in output
        assert "exact" in output

    def test_auto_calibration_path(self, edge_file, capsys):
        code = main(
            [
                "estimate",
                str(edge_file),
                "--problem",
                "triangles",
                "--model",
                "random",
                "--epsilon",
                "0.5",
            ]
        )
        assert code == 0
        assert "median_estimate" in capsys.readouterr().out

    def test_boost_flag(self, edge_file, capsys):
        code = main(
            [
                "estimate",
                str(edge_file),
                "--problem",
                "triangles",
                "--t-guess",
                "1",
                "--boost",
                "3",
            ]
        )
        assert code == 0


class TestExperimentsCommand:
    def test_prints_index(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output
        assert "E13" in output
        assert "bench_e9_distinguisher" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_bad_model(self, edge_file):
        with pytest.raises(SystemExit):
            main(["estimate", str(edge_file), "--model", "sorted"])


class TestRunExperimentCommand:
    def test_runs_light_experiment(self, capsys):
        assert main(["run-experiment", "E12"]) == 0
        output = capsys.readouterr().out
        assert "Lemma 5.1" in output
        assert "holds" in output

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run-experiment", "E99"])

    def test_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint PATH"):
            main(["run-experiment", "E12", "--resume"])
        assert capsys.readouterr().out == ""


class TestEstimateFourCycles:
    def test_adjacency_model_dispatch(self, tmp_path, capsys):
        # a small diamond-rich file
        from repro.graphs import planted_diamonds, write_edge_list

        path = tmp_path / "diamonds.txt"
        write_edge_list(planted_diamonds(120, [6, 4, 3], seed=1), path)
        code = main(
            [
                "estimate",
                str(path),
                "--problem",
                "four-cycles",
                "--model",
                "adjacency",
                "--t-guess",
                "24",
                "--epsilon",
                "0.3",
                "--compare-exact",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "four-cycles" in output
        assert "adjacency" in output

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        from repro.graphs import planted_diamonds, write_edge_list

        path = tmp_path / "diamonds.txt"
        write_edge_list(planted_diamonds(120, [6, 4, 3], seed=1), path)
        outputs = []
        for jobs in ("1", "2"):
            argv = ["estimate", str(path), "--problem", "four-cycles"]
            argv += ["--model", "adjacency", "--t-guess", "24", "--trials", "3"]
            assert main(argv + ["--compare-exact", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "four-cycles" in outputs[0]

    def test_compare_exact_counts_once(self, edge_file, monkeypatch, capsys):
        import repro.cli

        calls = []

        def counting(graph):
            calls.append(graph)
            return 0

        monkeypatch.setattr(repro.cli, "four_cycle_count", counting)
        code = main(
            [
                "estimate",
                str(edge_file),
                "--problem",
                "four-cycles",
                "--model",
                "adjacency",
                "--t-guess",
                "1",
                "--trials",
                "2",
                "--compare-exact",
            ]
        )
        assert code == 0
        assert len(calls) == 1
        assert "exact" in capsys.readouterr().out


class TestPaperTableCommand:
    def test_prints_measured_table(self, capsys):
        assert main(["paper-table", "--trials", "1"]) == 0
        output = capsys.readouterr().out
        assert "Thm 2.1" in output
        assert "Thm 5.6" in output
        assert "measured_rel_err" in output
