"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload triangle-edge-stream --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay.  Each metric goes on its own line with its
unit, the manifest goes on a line before them, and the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every estimate passed its
correctness gate.  The library is imported from this checkout's ``src/``
and nowhere else; without it the command exits with code 2.

Result rows (manifest, metrics, notes) are appended to
``.perfbench_out/results.jsonl`` and a traced run writes its spans to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def use_checkout_source() -> None:
    """Put this checkout's ``src/`` first on the path, or exit with 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="small graphs, for the schema self-test"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    from measure import manifest, run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace, args.quick)
    ledger = outcome["ledger"]
    header = manifest(SRC, args.workload, args.seed, outcome["n_jobs"], trace, args.quick)
    metrics = {
        name: {"value": value, "unit": outcome["units"][name]}
        for name, value in outcome["metrics"].items()
    }

    OUT.mkdir(exist_ok=True)
    if trace:
        outcome["tracer"].write_jsonl(
            str(OUT / f"trace-{args.workload}-{args.seed}.jsonl"), header
        )
    row = {
        "manifest": header,
        "correct": outcome["correct"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "notes": outcome["notes"],
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")

    print("manifest " + json.dumps(header))
    for key, value in outcome["notes"].items():
        print(f"note {key} {value}")
    for reason in ledger.failures:
        print(f"FAILED {reason}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
