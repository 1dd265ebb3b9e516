"""Checkpoint/resume: config hashing, unit memoization, interrupted runs."""

from __future__ import annotations

import json

import pytest

from repro.experiments import experiment_checkpoint_key, run_experiment
from repro.resilience import (
    NULL_CHECKPOINT,
    Checkpoint,
    CheckpointContext,
    CheckpointMismatchError,
    config_hash,
)


class TestConfigHash:
    def test_stable_and_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert len(config_hash({"a": 1})) == 16

    def test_distinguishes_configs(self):
        assert config_hash({"seed": 0}) != config_hash({"seed": 1})


class TestCheckpoint:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = Checkpoint(path, key="abc")
        store.record("unit-1", {"x": 1})
        store.record("unit-2", [1, 2, 3])
        assert store.completed == ["unit-1", "unit-2"]

        resumed = Checkpoint(path, key="abc", resume=True)
        assert resumed.resumed
        assert "unit-1" in resumed
        assert resumed.get("unit-1") == {"x": 1}
        assert resumed.get("unit-2") == [1, 2, 3]
        assert resumed.completed == ["unit-1", "unit-2"]

    def test_fresh_run_discards_existing(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        Checkpoint(path, key="abc").record("unit-1", 1)
        fresh = Checkpoint(path, key="abc")  # resume=False
        assert not fresh.resumed
        assert "unit-1" not in fresh

    def test_key_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        Checkpoint(path, key="oldkey").record("unit-1", 1)
        with pytest.raises(CheckpointMismatchError, match="oldkey"):
            Checkpoint(path, key="newkey", resume=True)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"not": "a checkpoint"}\n')
        with pytest.raises(CheckpointMismatchError, match="bad header"):
            Checkpoint(path, key="abc", resume=True)

    def test_file_is_json_lines_with_header(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        Checkpoint(path, key="abc").record("u", {"v": 2})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "checkpoint"
        assert lines[0]["key"] == "abc"
        assert lines[1] == {"type": "unit", "name": "u", "payload": {"v": 2}}

    def test_lineage(self, tmp_path):
        store = Checkpoint(tmp_path / "ck.jsonl", key="abc")
        store.record("u", 1)
        lineage = store.lineage()
        assert lineage["key"] == "abc"
        assert lineage["cached_units"] == 1
        assert lineage["resumed"] is False


class TestCheckpointContext:
    def test_null_context_runs_everything(self):
        calls = []
        assert NULL_CHECKPOINT.unit("a", lambda: calls.append(1) or 7) == 7
        assert NULL_CHECKPOINT.unit("a", lambda: calls.append(1) or 8) == 8
        assert len(calls) == 2
        assert not NULL_CHECKPOINT.active
        assert NULL_CHECKPOINT.lineage() is None

    def test_null_context_counts_nothing(self):
        # NULL_CHECKPOINT is shared by the whole process, so counting
        # there would leak state from one run into the next.
        NULL_CHECKPOINT.unit("a", lambda: 1)
        assert (NULL_CHECKPOINT.hits, NULL_CHECKPOINT.misses) == (0, 0)

    def test_unit_memoizes_across_contexts(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        calls = []

        def thunk():
            calls.append(1)
            return {"value": 42}

        ctx = CheckpointContext(Checkpoint(path, key="k"))
        assert ctx.unit("work", thunk) == {"value": 42}
        assert ctx.unit("work", thunk) == {"value": 42}
        assert len(calls) == 1
        assert (ctx.hits, ctx.misses) == (1, 1)

        resumed = CheckpointContext(Checkpoint(path, key="k", resume=True))
        assert resumed.unit("work", thunk) == {"value": 42}
        assert len(calls) == 1
        assert resumed.hits == 1


class TestInterruptedExperimentResumes:
    def test_resume_is_byte_identical(self, tmp_path):
        path = tmp_path / "e11.jsonl"
        key = experiment_checkpoint_key("E11", seed=3)
        reference = run_experiment("E11", seed=3)

        class SimulatedKill(Exception):
            pass

        # Die after the first completed unit, mid-run.
        ctx = CheckpointContext(Checkpoint(path, key=key))
        real_unit = ctx.unit
        completed = {"n": 0}

        def dying_unit(name, thunk):
            if completed["n"] >= 1:
                raise SimulatedKill(name)
            completed["n"] += 1
            return real_unit(name, thunk)

        ctx.unit = dying_unit
        with pytest.raises(SimulatedKill):
            run_experiment("E11", seed=3, checkpoint=ctx)

        resumed_ctx = CheckpointContext(Checkpoint(path, key=key, resume=True))
        resumed = run_experiment("E11", seed=3, checkpoint=resumed_ctx)
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert resumed_ctx.hits == 1
        assert resumed_ctx.misses >= 1

    def test_wrong_seed_cannot_reuse_checkpoint(self, tmp_path):
        path = tmp_path / "e11.jsonl"
        Checkpoint(path, key=experiment_checkpoint_key("E11", seed=3)).record("x", 1)
        with pytest.raises(CheckpointMismatchError):
            Checkpoint(path, key=experiment_checkpoint_key("E11", seed=4), resume=True)

