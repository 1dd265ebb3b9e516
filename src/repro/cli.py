"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``workloads``      — list the named workload families.
* ``generate``       — build a workload and write it as an edge-list file.
* ``exact``          — exact triangle / four-cycle counts of an edge list.
* ``estimate``       — run a streaming algorithm over an edge-list file.
* ``experiments``    — print the experiment index (id -> bench target).
* ``run-experiment`` — run one light experiment variant inline.
* ``paper-table``    — regenerate the Section 1.1 table with measured columns.
* ``verify``         — statistical guarantee certification: ``guarantee``,
  ``variance``, ``seeds`` and ``all``.
* ``obs``            — observability: render a trace file into a report.

``estimate``, ``run-experiment``, ``paper-table`` and the ``verify``
commands other than ``seeds`` accept ``--trace PATH`` to record a
JSON-lines telemetry trace (spans, metrics, run manifest) that ``repro
obs report PATH`` renders afterwards.

``run-experiment``, ``paper-table``, ``verify guarantee`` and ``verify
all`` accept ``--checkpoint PATH`` to persist each completed unit of
work atomically, and ``--resume`` to restart an interrupted run from
that file — recomputing only the missing units, with byte-identical
results (see docs/robustness.md).

Examples::

    python -m repro generate diamond-mixture --out /tmp/g.txt
    python -m repro exact /tmp/g.txt
    python -m repro estimate /tmp/g.txt --problem four-cycles \
        --model adjacency --epsilon 0.3 --trials 5
    python -m repro run-experiment E1 --trace /tmp/e1.jsonl
    python -m repro run-experiment E16 --checkpoint /tmp/ck.jsonl --resume
    python -m repro obs report /tmp/e1.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
from typing import List, Optional

from . import api
from . import obs as _obs
from .experiments import ALL_WORKLOADS, build_workload, format_records
from .graphs import four_cycle_count, graph_summary, triangle_count
from .graphs.io import read_edge_list, write_edge_list

EXPERIMENT_INDEX = [
    ("E1", "Thm 2.1 accuracy vs baselines", "benchmarks/bench_e1_triangle_random_order.py"),
    ("E2", "Thm 2.1 space ~ m/sqrt(T)", "benchmarks/bench_e2_triangle_space_scaling.py"),
    ("E3", "Thm 2.6 / Figure 1 lower bound", "benchmarks/bench_e3_lowerbound_construction.py"),
    ("E4", "Lemma 3.1 Useful Algorithm", "benchmarks/bench_e4_useful_algorithm.py"),
    ("E5", "Thm 4.2 diamonds", "benchmarks/bench_e5_fourcycle_adjacency.py"),
    ("E6", "Thm 4.3a moments", "benchmarks/bench_e6_fourcycle_moment.py"),
    ("E7", "Thm 4.3b l2 sampling", "benchmarks/bench_e7_fourcycle_l2.py"),
    ("E8", "Thm 5.3 three passes", "benchmarks/bench_e8_fourcycle_threepass.py"),
    ("E9", "Thm 5.6 distinguisher", "benchmarks/bench_e9_distinguisher.py"),
    ("E10", "Thm 5.7 one-pass dense", "benchmarks/bench_e10_onepass_dense.py"),
    ("E11", "Thm 5.8 DISJ lower bound", "benchmarks/bench_e11_lowerbound_disj.py"),
    ("E12", "Lemma 5.1 structural", "benchmarks/bench_e12_structural_lemma.py"),
    ("E13", "cross-model frontier", "benchmarks/bench_e13_frontier.py"),
    ("E14", "error-vs-space frontier curves", "benchmarks/bench_e14_error_vs_space.py"),
    ("E15", "Section 4 tradeoff table", "benchmarks/bench_e15_adjacency_tradeoffs.py"),
    ("E16", "robustness: error vs stream-fault rate", "src/repro/experiments/robustness.py"),
    ("A1", "ablations of design choices", "benchmarks/bench_a1_ablations.py"),
    ("A2", "median-boost amplification", "benchmarks/bench_a2_boosting.py"),
]


def _estimate_with_seed(estimate_one, seed: int):
    """Module-level trial worker (picklable for ``--jobs`` fan-out)."""
    return estimate_one(seed=seed)


@contextlib.contextmanager
def _traced(args: argparse.Namespace):
    """A telemetry session writing to ``--trace``, or the current no-op one.

    Says where the trace went once the session has closed and written it.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield _obs.current()
        return
    config = {key: value for key, value in vars(args).items() if not callable(value)}
    with _obs.session(path=path, config=config) as telemetry:
        yield telemetry
    print(f"trace written to {path}")


@contextlib.contextmanager
def _checkpointed(args: argparse.Namespace, key: str, noun: str):
    """A traced run with the :class:`CheckpointContext` of
    ``--checkpoint``/``--resume``.

    ``key`` is the run's config hash: resuming against a checkpoint
    recorded for a different config/seed fails loudly instead of mixing
    results.  The resume lineage goes into the run manifest, and the
    hit/miss line counted in ``noun`` is printed after the trace line.
    """
    from .resilience.checkpoint import NULL_CHECKPOINT, Checkpoint, CheckpointContext

    checkpoint = NULL_CHECKPOINT
    if args.checkpoint:
        checkpoint = CheckpointContext(
            Checkpoint(args.checkpoint, key=key, resume=args.resume)
        )
    elif args.resume:
        raise SystemExit("--resume requires --checkpoint PATH")
    with _traced(args) as telemetry:
        lineage = checkpoint.lineage()
        if lineage is not None and telemetry.manifest is not None:
            telemetry.manifest.record_invocation("checkpoint", lineage)
        yield checkpoint
    if checkpoint.active:
        print(
            f"checkpoint {args.checkpoint}: {checkpoint.hits} {noun} resumed, "
            f"{checkpoint.misses} computed"
        )


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [{"name": name} for name in sorted(ALL_WORKLOADS)]
    print(format_records(rows))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = build_workload(args.name, **({"seed": args.seed} if args.seed is not None else {}))
    header = (
        f"workload={workload.name} params={workload.params} "
        f"triangles={workload.triangles} four_cycles={workload.four_cycles}"
    )
    written = write_edge_list(workload.graph, args.out, header=header)
    print(workload.describe())
    print(f"wrote {written} edges to {args.out}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    graph, report = read_edge_list(args.path)
    summary = graph_summary(graph)
    rows = [{"quantity": key, "value": value} for key, value in summary.items()]
    rows.append({"quantity": "duplicates_dropped", "value": report.duplicates_dropped})
    rows.append({"quantity": "self_loops_dropped", "value": report.self_loops_dropped})
    print(format_records(rows))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    import functools

    from .experiments.parallel import parallel_map

    graph, _report = read_edge_list(args.path)
    estimate_one = functools.partial(
        api.estimate,
        graph,
        problem=args.problem,
        model=args.model,
        t_guess=args.t_guess,
        epsilon=args.epsilon,
        boost_copies=args.boost,
    )
    truth = None
    if args.compare_exact:
        truth = (
            triangle_count(graph)
            if args.problem == "triangles"
            else four_cycle_count(graph)
        )
    with _traced(args) as telemetry:
        with telemetry.tracer.span(
            "estimate", kind="experiment", problem=args.problem, model=args.model
        ):
            results = parallel_map(
                functools.partial(_estimate_with_seed, estimate_one),
                [args.seed + trial for trial in range(args.trials)],
                n_jobs=args.jobs,
            )
        estimates: List[float] = [result.estimate for result in results]
        spaces: List[int] = [result.space_items for result in results]
        if telemetry.enabled:
            payload = {
                "problem": args.problem,
                "model": args.model,
                "trials": args.trials,
                "epsilon": args.epsilon,
                "estimates": estimates,
                "space_items": spaces,
            }
            if truth is not None:
                payload["truth"] = truth
            telemetry.record_run("estimate", payload)
        passes = results[-1].passes if results else 0
        rows = [
            {
                "problem": args.problem,
                "model": args.model,
                "median_estimate": round(statistics.median(estimates), 2),
                "trials": args.trials,
                "passes": passes,
                "median_space": statistics.median(spaces),
            }
        ]
        if truth is not None:
            rows[0]["exact"] = truth
            if truth:
                rows[0]["median_rel_err"] = round(
                    abs(statistics.median(estimates) - truth) / truth, 4
                )
        print(format_records(rows))
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from .experiments.suite import SUITE

    rows = [
        {
            "id": exp_id,
            "claim": claim,
            "bench": bench,
            "light_variant": "yes" if exp_id in SUITE else "",
        }
        for exp_id, claim, bench in EXPERIMENT_INDEX
    ]
    print(format_records(rows))
    print(
        "\nfull run:  pytest <bench> -s --benchmark-disable"
        "\nlight run: python -m repro run-experiment <id>"
    )
    return 0


def _cmd_paper_table(args: argparse.Namespace) -> int:
    from .experiments.suite import paper_table, paper_table_checkpoint_key

    key = paper_table_checkpoint_key(args.seed, args.trials)
    with _checkpointed(args, key, "row(s)") as checkpoint:
        table = paper_table(seed=args.seed, trials=args.trials, checkpoint=checkpoint)
        print("Section 1.1 contributions table, with measured columns")
        print(format_records(table))
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    from .experiments.suite import SUITE, experiment_checkpoint_key, run_experiment

    key = experiment_checkpoint_key(args.id, args.seed)
    with _checkpointed(args, key, "unit(s)") as checkpoint:
        records = run_experiment(
            args.id, seed=args.seed, n_jobs=args.jobs, checkpoint=checkpoint
        )
        print(SUITE[args.id.upper()].title)
        print(format_records(records))
    return 0


def _resolve_verify_plans(args: argparse.Namespace) -> List[str]:
    from .verify import PLANS

    names = getattr(args, "algorithm", None)
    if not names:
        return sorted(PLANS)
    unknown = [name for name in names if name not in PLANS]
    if unknown:
        known = ", ".join(sorted(PLANS))
        raise SystemExit(f"unknown algorithm(s) {unknown}; known: {known}")
    return list(names)


def _verify_epsilon_delta(args: argparse.Namespace):
    from .verify.certify import PAPER_DELTA, PAPER_EPSILON

    if getattr(args, "budget_from_paper", False):
        return PAPER_EPSILON, PAPER_DELTA
    return args.epsilon, args.delta


def _certify_all(args: argparse.Namespace, names, epsilon, delta, checkpoint):
    from .verify import certify_all

    return certify_all(
        names,
        epsilon,
        delta,
        confidence=args.confidence,
        batch_size=args.batch,
        max_trials=args.max_trials,
        seed=args.seed,
        n_jobs=args.jobs,
        quick=args.quick,
        method=args.method,
        checkpoint=checkpoint,
    )


def _certify_key(args: argparse.Namespace, names, epsilon, delta) -> str:
    from .verify import certify_checkpoint_key

    return certify_checkpoint_key(
        names, epsilon, delta, args.seed, args.quick, args.batch, args.max_trials
    )


def _cmd_verify_guarantee(args: argparse.Namespace) -> int:
    from .verify import certificates_to_json
    from .verify.report import render_certificates, summarize_verdicts, write_json

    names = _resolve_verify_plans(args)
    epsilon, delta = _verify_epsilon_delta(args)
    key = _certify_key(args, names, epsilon, delta)
    with _checkpointed(args, key, "batch(es)") as checkpoint:
        certificates = _certify_all(args, names, epsilon, delta, checkpoint)
        print(
            f"guarantee certification: eps={epsilon} delta={delta:.4f} "
            f"confidence={args.confidence}"
        )
        print(render_certificates(certificates))
        if args.json:
            write_json(args.json, certificates_to_json(certificates=certificates))
            print(f"certificates written to {args.json}")
    failing = summarize_verdicts(certificates)["FAIL"]
    if failing:
        print(f"FAILED guarantees: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_variance(args: argparse.Namespace) -> int:
    from .verify import certificates_to_json, check_variance_all
    from .verify.report import render_variance, write_json

    names = _resolve_verify_plans(args)
    epsilon, delta = _verify_epsilon_delta(args)
    with _traced(args):
        reports = check_variance_all(
            names,
            epsilon,
            delta,
            trials=args.trials,
            seed=args.seed,
            n_jobs=args.jobs,
            quick=args.quick,
        )
        print(
            f"variance-ratio checks: eps={epsilon} delta={delta:.4f} "
            f"trials={args.trials}"
        )
        print(render_variance(reports))
        if args.json:
            write_json(args.json, certificates_to_json(variance_reports=reports))
            print(f"report written to {args.json}")
    failing = [report.algorithm for report in reports if report.verdict == "FAIL"]
    if failing:
        print(f"FAILED variance checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_seeds(args: argparse.Namespace) -> int:
    from .verify import audit_seeds, default_probes
    from .verify.report import certificates_to_json, render_seed_audit, write_json

    probes = default_probes()
    collisions = audit_seeds(probes)
    print(render_seed_audit(collisions, probes=len(probes)))
    if args.json:
        write_json(args.json, certificates_to_json(seed_collisions=collisions))
        print(f"report written to {args.json}")
    return 1 if collisions else 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from .verify import audit_seeds, check_variance_all, default_probes
    from .verify.report import (
        certificates_to_json,
        render_certificates,
        render_seed_audit,
        render_variance,
        summarize_verdicts,
        write_json,
    )

    names = _resolve_verify_plans(args)
    epsilon, delta = _verify_epsilon_delta(args)
    probes = default_probes()
    collisions = audit_seeds(probes)
    print(render_seed_audit(collisions, probes=len(probes)))
    key = _certify_key(args, names, epsilon, delta)
    with _checkpointed(args, key, "unit(s)") as checkpoint:
        certificates = _certify_all(args, names, epsilon, delta, checkpoint)
        reports = check_variance_all(
            names,
            epsilon,
            delta,
            trials=args.trials,
            seed=args.seed,
            n_jobs=args.jobs,
            quick=args.quick,
            checkpoint=checkpoint,
        )
        print(
            f"\nguarantee certification: eps={epsilon} delta={delta:.4f} "
            f"confidence={args.confidence}"
        )
        print(render_certificates(certificates))
        print(f"\nvariance-ratio checks: trials={args.trials}")
        print(render_variance(reports))
        if args.json:
            write_json(
                args.json,
                certificates_to_json(
                    certificates=certificates,
                    variance_reports=reports,
                    seed_collisions=collisions,
                ),
            )
            print(f"report written to {args.json}")
    failing = summarize_verdicts(certificates)["FAIL"]
    variance_failing = [r.algorithm for r in reports if r.verdict == "FAIL"]
    problems = []
    if collisions:
        problems.append("seed audit")
    if failing:
        problems.append(f"guarantees ({', '.join(failing)})")
    if variance_failing:
        problems.append(f"variance ({', '.join(variance_failing)})")
    if problems:
        print(f"verification FAILED: {'; '.join(problems)}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    # imported lazily: repro.obs.report pulls in experiments.reporting,
    # which would make repro.obs -> repro.experiments a hard cycle
    from .obs.report import report_file

    flagged = report_file(
        args.path,
        error_budget=args.error_budget,
        space_budget=args.space_budget,
    )
    if flagged and args.strict:
        return 1
    return 0


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent trials (-1 = all cores)",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSON-lines telemetry trace (render with `repro obs report`)",
    )


def _add_checkpoint_flags(parser: argparse.ArgumentParser, noun: str) -> None:
    """``--checkpoint``/``--resume`` for a command checkpointed per ``noun``."""
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=f"persist each completed {noun} to this file (atomic JSON lines)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"resume from --checkpoint, recomputing only each {noun} it lacks",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Triangle and four-cycle counting in the data stream model "
        "(McGregor & Vorotnikova, PODS 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workload families").set_defaults(
        func=_cmd_workloads
    )

    generate = sub.add_parser("generate", help="write a workload as an edge list")
    generate.add_argument("name", help="workload name (see `workloads`)")
    generate.add_argument("--out", required=True, help="output edge-list path")
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(func=_cmd_generate)

    exact = sub.add_parser("exact", help="exact counts of an edge-list file")
    exact.add_argument("path")
    exact.set_defaults(func=_cmd_exact)

    estimate = sub.add_parser("estimate", help="streaming estimate over a file")
    estimate.add_argument("path")
    estimate.add_argument("--problem", choices=api.PROBLEMS, default="triangles")
    estimate.add_argument("--model", choices=api.MODELS, default="random")
    estimate.add_argument(
        "--t-guess",
        type=float,
        default=None,
        help="count parameter T; omit to auto-calibrate with a guess schedule",
    )
    estimate.add_argument("--epsilon", type=float, default=0.2)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--trials", type=int, default=1)
    estimate.add_argument("--boost", type=int, default=1, help="median-boost copies")
    estimate.add_argument(
        "--compare-exact",
        action="store_true",
        help="also compute the exact count and report the error",
    )
    _add_jobs_flag(estimate)
    _add_trace_flag(estimate)
    estimate.set_defaults(func=_cmd_estimate)

    sub.add_parser("experiments", help="print the experiment index").set_defaults(
        func=_cmd_experiments
    )

    table = sub.add_parser(
        "paper-table", help="regenerate the paper's contributions table (measured)"
    )
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--trials", type=int, default=3)
    _add_trace_flag(table)
    _add_checkpoint_flags(table, "row")
    table.set_defaults(func=_cmd_paper_table)

    run_exp = sub.add_parser(
        "run-experiment", help="run a light experiment variant inline"
    )
    run_exp.add_argument("id", help="experiment id, e.g. E9")
    run_exp.add_argument("--seed", type=int, default=0)
    _add_jobs_flag(run_exp)
    _add_trace_flag(run_exp)
    _add_checkpoint_flags(run_exp, "unit")
    run_exp.set_defaults(func=_cmd_run_experiment)

    verify = sub.add_parser(
        "verify", help="statistical guarantee certification (see docs/verification.md)"
    )
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)

    def _add_verify_common(p, trials_flag=False, certify_flags=False):
        p.add_argument(
            "--algorithm",
            action="append",
            default=None,
            metavar="NAME",
            help="restrict to this algorithm plan (repeatable; default: all)",
        )
        p.add_argument("--epsilon", type=float, default=0.3)
        p.add_argument(
            "--delta",
            type=float,
            default=1.0 / 3.0,
            help="target failure probability of the (1 +- eps) guarantee",
        )
        p.add_argument(
            "--budget-from-paper",
            action="store_true",
            help="certify at the paper's canonical (eps=0.3, delta=1/3) budget, "
            "overriding --epsilon/--delta",
        )
        p.add_argument("--seed", type=int, default=0)
        _add_jobs_flag(p)
        p.add_argument(
            "--quick",
            action="store_true",
            help="smaller planted workloads (CI smoke scale)",
        )
        p.add_argument(
            "--json", default=None, metavar="PATH", help="also write results as JSON"
        )
        _add_trace_flag(p)
        if trials_flag:
            p.add_argument(
                "--trials",
                type=int,
                default=64,
                help="trials per variance estimate",
            )
        if certify_flags:
            p.add_argument("--confidence", type=float, default=0.95)
            p.add_argument(
                "--batch", type=int, default=25, help="trials per sequential batch"
            )
            p.add_argument(
                "--max-trials",
                type=int,
                default=200,
                help="trial budget before declaring INCONCLUSIVE",
            )
            p.add_argument(
                "--method",
                choices=["wilson", "clopper-pearson"],
                default="wilson",
                help="confidence-interval method for the failure probability",
            )

    guarantee = verify_sub.add_parser(
        "guarantee",
        help="certify P(|est - T| > eps T) <= delta with a binomial CI",
    )
    _add_verify_common(guarantee, certify_flags=True)
    _add_checkpoint_flags(guarantee, "batch")
    guarantee.set_defaults(func=_cmd_verify_guarantee)

    variance = verify_sub.add_parser(
        "variance", help="empirical vs theoretical variance-ratio checks"
    )
    _add_verify_common(variance, trials_flag=True)
    variance.set_defaults(func=_cmd_verify_variance)

    seeds_cmd = verify_sub.add_parser(
        "seeds",
        help="static seed audit: flag components with correlated RNG streams",
    )
    seeds_cmd.add_argument(
        "--json", default=None, metavar="PATH", help="also write results as JSON"
    )
    seeds_cmd.set_defaults(func=_cmd_verify_seeds)

    verify_all = verify_sub.add_parser(
        "all", help="seed audit + guarantee certificates + variance checks"
    )
    _add_verify_common(verify_all, trials_flag=True, certify_flags=True)
    _add_checkpoint_flags(verify_all, "unit")
    verify_all.set_defaults(func=_cmd_verify_all)

    obs = sub.add_parser("obs", help="observability commands")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="render a trace file into per-phase timing/space tables"
    )
    report.add_argument("path", help="JSON-lines trace written via --trace")
    report.add_argument(
        "--error-budget",
        type=float,
        default=None,
        help="flag trials whose relative error exceeds this "
        "(default: the run's epsilon, when recorded)",
    )
    report.add_argument(
        "--space-budget",
        type=float,
        default=None,
        help="flag trials whose space (items) exceeds this",
    )
    report.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any trial is flagged",
    )
    report.set_defaults(func=_cmd_obs_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
