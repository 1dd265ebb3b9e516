"""Compare two commits on the repository benchmark in alternating pairs.

Each commit is exported with ``git archive`` into a temporary directory,
so only committed files are measured.  For every workload and seed the
script runs ``perfbench/run.py`` once on each side, alternating which
side goes first from pair to pair, and writes to ``--out``:

* the median and quartiles of each summarized metric on each side;
* for each metric, how many pairs the change won, by the direction
  ``BENCHMARK.json`` gives it;
* every run's metrics and gate verdict, and the change side's manifest.

Example (about 50 minutes: three workloads, ten pairs of 40 s runs)::

    python scripts/bench_pairs.py --base a5c1474 --change HEAD \\
        --seeds 101 102 103 104 105 106 107 108 109 110 --seconds 40 \\
        --out BENCH_a6_oracles.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
SUMMARIZED = (
    "ns_per_token",
    "estimate_s_p50",
    "estimates_per_s",
    "rel_error_p50",
    "peak_space_words",
)


def export(rev: str, into: Path) -> str:
    """Write commit ``rev``'s tree under ``into``; return its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One benchmark run: its gate verdict, metric values and manifest."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = completed.stdout.splitlines()
    manifest = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("manifest ")),
        None,
    )
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {
        "exit_code": completed.returncode,
        "correct": result.get("correct", False),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "manifest": manifest,
    }


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "p50": q2, "p75": q3}


def summarize(runs: List[Dict], metrics: Dict[str, Dict]) -> Dict[str, Dict]:
    by_seed = {(run["seed"], run["side"]): run["metrics"] for run in runs if run["correct"]}
    seeds = sorted(
        {seed for seed, _ in by_seed if {(seed, "base"), (seed, "change")} <= by_seed.keys()}
    )
    if len(seeds) < 2:
        return {}
    summary = {}
    for name in SUMMARIZED:
        base = [by_seed[(s, "base")][name] for s in seeds]
        change = [by_seed[(s, "change")][name] for s in seeds]
        lower = metrics[name]["better"] == "lower"
        summary[name] = {
            "unit": metrics[name]["unit"],
            "better": metrics[name]["better"],
            "base": quartiles(base),
            "change": quartiles(change),
            "change_over_base_p50": statistics.median(change) / statistics.median(base),
            "pairs_change_better": sum((c < b) if lower else (c > b) for b, c in zip(base, change)),
            "pairs": len(seeds),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", default="HEAD", help="the commit measured against it")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in config["end_to_end"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    report: Dict = {"command": " ".join(["python", "scripts/bench_pairs.py", *sys.argv[1:]])}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch) / side for side in ("base", "change")}
        shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        report.update(shas, seconds=args.seconds, seeds=args.seeds)
        report["workloads"] = {}
        for workload in workloads:
            runs = []
            for index, seed in enumerate(args.seeds):
                order = ("base", "change") if index % 2 == 0 else ("change", "base")
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds)
                    run.update(seed=seed, side=side)
                    runs.append(run)
                    print(workload, seed, side, run["correct"], flush=True)
            manifest = next(
                (r["manifest"] for r in runs if r["side"] == "change" and r["manifest"]), None
            )
            report["workloads"][workload] = {
                "summary": summarize(runs, metrics),
                "manifest": manifest,
                "runs": [{k: v for k, v in run.items() if k != "manifest"} for run in runs],
            }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
