"""Schema self-test of the benchmark, in quick mode.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` and the benchmark code name the same
workloads, metrics and units; runs the real command on every workload
with small graphs, untraced and traced, and checks that each run exits
with 0, is correct, and prints every end-to-end (untraced) or per-layer
(traced) metric with its unit as the last line; and checks that the
command exits nonzero without printing a result when the library source
is missing.  Exits with 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from run import OUT, ROOT, use_checkout_source

QUICK_SECONDS = "1"
RUN_TIMEOUT_S = 180


def _run(command: List[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )


def check_spec(spec: dict, units: Dict[str, Dict[str, str]], workloads: List[str]) -> List[str]:
    problems = []
    if [w["name"] for w in spec["workloads"]] != workloads:
        problems.append(f"workloads differ: {spec['workloads']} vs {workloads}")
    for section in ("end_to_end", "per_layer"):
        listed = {entry["name"]: entry["unit"] for entry in spec[section]}
        if listed != units[section]:
            problems.append(f"{section}: BENCHMARK.json {listed} != code {units[section]}")
    return problems


def check_output(name: str, trace: int, completed: subprocess.CompletedProcess, expected: Dict[str, str]) -> List[str]:
    where = f"{name} --trace {trace}"
    if completed.returncode != 0:
        reasons = [line for line in completed.stdout.splitlines() if line.startswith("FAILED")]
        return [f"{where}: exit {completed.returncode}\n" + "\n".join(reasons) + completed.stderr[-2000:]]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    got = {metric: entry.get("unit") for metric, entry in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        problems.append(f"{where}: missing {missing}, unexpected {extra}, or wrong units")
    for metric, entry in result["metrics"].items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} value {value!r} is not a finite number")
    return problems


def check_missing_source() -> List[str]:
    """The command alone, without ``src/``, must fail without a result."""
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        completed = _run(
            [sys.executable, "perfbench/run.py", "--workload", "triangle-edge-stream",
             "--seed", "1", "--seconds", QUICK_SECONDS, "--trace", "0"],
            bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        return [f"without src/: exit {completed.returncode}, stdout {completed.stdout[-500:]!r}"]
    return []


def main() -> int:
    use_checkout_source()
    from measure import END_TO_END_UNITS, PER_LAYER_UNITS
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {"end_to_end": END_TO_END_UNITS, "per_layer": PER_LAYER_UNITS}
    problems = check_spec(spec, units, list(WORKLOADS))
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for trace, expected in ((0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
            completed = _run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
                 "--seconds", QUICK_SECONDS, "--trace", str(trace), "--quick"],
                ROOT,
            )
            found = check_output(name, trace, completed, expected)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems.extend(found)
    problems.extend(check_missing_source())
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
