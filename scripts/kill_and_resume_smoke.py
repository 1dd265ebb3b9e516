#!/usr/bin/env python
"""Kill-and-resume smoke test for the checkpoint layer.

Scenario: a light experiment run, or a ``paper-table`` run at
``--trials 1``, is killed (real SIGTERM) right after its first completed
checkpoint unit; a second invocation resumes from the checkpoint file
through the real CLI and must

* report the interrupted unit as resumed (served from the file), and
* print a record table byte-identical to an uninterrupted run.

The kill is deterministic — the child schedules its own SIGTERM after
the first unit lands — so this passes or fails on the checkpoint
logic, never on scheduler timing.  Exits 0 on success.

Usage: python scripts/kill_and_resume_smoke.py [experiment | paper-table] [seed]
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
TARGET = sys.argv[1] if len(sys.argv) > 1 else "E12"
SEED = sys.argv[2] if len(sys.argv) > 2 else "0"
if TARGET == "paper-table":
    COMMAND, NOUN = ["paper-table", "--trials", "1"], "row(s)"
else:
    COMMAND, NOUN = ["run-experiment", TARGET], "unit(s)"

# The interrupted run: complete one unit, then die by SIGTERM exactly
# the way an OOM-killer / preemption would end the process.
_CHILD = """
import os, signal, sys
from repro.resilience import Checkpoint, CheckpointContext
from repro.experiments import experiment_checkpoint_key, paper_table, run_experiment
from repro.experiments.suite import paper_table_checkpoint_key

path, target, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
if target == "paper-table":
    key = paper_table_checkpoint_key(seed, trials=1)
    run = lambda ctx: paper_table(seed=seed, trials=1, checkpoint=ctx)
else:
    key = experiment_checkpoint_key(target, seed)
    run = lambda ctx: run_experiment(target, seed=seed, checkpoint=ctx)
ctx = CheckpointContext(Checkpoint(path, key=key))
real_unit = ctx.unit

def dying_unit(name, thunk):
    value = real_unit(name, thunk)  # persisted atomically before the kill
    os.kill(os.getpid(), signal.SIGTERM)
    raise AssertionError("unreachable: SIGTERM should have ended the process")

ctx.unit = dying_unit
run(ctx)
"""


def _run(argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        argv, cwd=REPO, env=env, capture_output=True, text=True, **kwargs
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "smoke.jsonl")

        interrupted = _run(
            [sys.executable, "-c", _CHILD, ck, TARGET, SEED]
        )
        if interrupted.returncode != -signal.SIGTERM:
            print(
                "FAIL: interrupted run should die by SIGTERM, got "
                f"returncode {interrupted.returncode}\n{interrupted.stderr}"
            )
            return 1
        units = sum(
            1 for line in open(ck, encoding="utf-8") if '"type": "unit"' in line
        )
        if units != 1:
            print(f"FAIL: expected exactly 1 persisted unit after the kill, got {units}")
            return 1

        resumed = _run(
            [
                sys.executable, "-m", "repro", *COMMAND,
                "--seed", SEED, "--checkpoint", ck, "--resume",
            ]
        )
        if resumed.returncode != 0:
            print(f"FAIL: resume exited {resumed.returncode}\n{resumed.stderr}")
            return 1
        if f"1 {NOUN} resumed" not in resumed.stdout:
            print(f"FAIL: resume did not reuse the checkpointed unit:\n{resumed.stdout}")
            return 1

        reference = _run([sys.executable, "-m", "repro", *COMMAND, "--seed", SEED])
        if reference.returncode != 0:
            print(f"FAIL: reference run exited {reference.returncode}\n{reference.stderr}")
            return 1

        resumed_table = [
            line for line in resumed.stdout.splitlines()
            if not line.startswith("checkpoint ")
        ]
        if resumed_table != reference.stdout.splitlines():
            print("FAIL: resumed records differ from an uninterrupted run")
            print("--- resumed ---\n" + resumed.stdout)
            print("--- reference ---\n" + reference.stdout)
            return 1

    print(
        f"OK: {TARGET} killed by SIGTERM after 1 unit, resumed the unit "
        "from the checkpoint, and reproduced the uninterrupted records "
        "byte-identically"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
