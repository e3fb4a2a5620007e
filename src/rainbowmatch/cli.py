"""Command-line front end.

Subcommands: gen, count, solve, trace, threshold, mean-count, hamilton, plot.
Run `rainbowmatch <subcommand> --help` for the per-command flags.  Exit codes:
0 on success (for `solve`: a witness was found), 1 when `solve` proves
absence, 2 for configuration or input errors (including a malformed instance
document or an instance too large to build), 3 when a search budget ran out,
4 for an internal error (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

from . import experiments
from .count import (
    BudgetExceededError,
    DEFAULT_NODE_BUDGET,
    count_rainbow_pm,
    find_rainbow_pm,
    latin_transversal,
)
from .model import (
    GRAPH,
    RandomnessSpec,
    _check_draw,
    complete_colored,
    dumps_instance,
    load_instance,
    loads_instance,
    sample_colored_graph,
    sample_partite_m,
    sample_partite_p,
)

__all__ = ["main", "build_parser"]


def _int_grid(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _add_run_flags(sub) -> None:
    sub.add_argument("--n", type=_int_grid, dest="ns", required=True,
                     help="comma-separated n grid")
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, dest="master_seed")
    sub.add_argument("--jobs", type=int)
    sub.add_argument("--budget", type=int, dest="node_budget",
                     help="node budget per exact search")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--raw-out", default=None,
                     help="append one JSON line per completed trial (progress stream)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowmatch",
        description="Samplers, exact rainbow-matching solvers, deletion traces, "
        "and Hamilton-cycle pipelines for edge-colored instances.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="sample an instance and write its JSON")
    gen.add_argument("--mode", choices=("partite", "graph"), default="partite")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--colors", type=int, default=None, help="default: n")
    group = gen.add_mutually_exclusive_group()
    group.add_argument("--m", type=int, default=None, help="sample exactly m edges")
    group.add_argument("--p", type=float, default=None, help="keep each edge with probability p")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)

    count = subs.add_parser("count", help="exactly count rainbow perfect matchings")
    count.add_argument("instance", help="instance JSON path, or - for stdin")
    count.add_argument("--method", choices=("brute", "ie"), default="brute")
    count.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    count.add_argument("--out", default=None)

    solve = subs.add_parser("solve", help="find one rainbow perfect matching or "
                            "one latin transversal")
    solve.add_argument("instance", nargs="?", default=None,
                       help="instance JSON path, or - for stdin")
    solve.add_argument("--latin", default=None,
                       help="integer-matrix CSV; 0 marks an unavailable cell")
    solve.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    solve.add_argument("--out", default=None)

    # An experiment flag's dest is the ExperimentConfig field it sets.  The
    # experiment parsers suppress defaults, so a flag left out is absent from
    # the parsed namespace and its field keeps the ExperimentConfig default.
    no_default = argparse.SUPPRESS
    trace = subs.add_parser("trace", argument_default=no_default,
                            help="run the edge-deletion process and emit per-step statistics")
    trace.add_argument("--k", type=int)
    trace.add_argument("--colors", type=int, dest="kappa")
    trace.add_argument("--steps", type=int, dest="t_max", help="stop after this many deletions")
    trace.add_argument("--event-k", type=float, dest="event_abundance",
                       help="abundance scale for the flag thresholds")
    trace.add_argument("--summary-out", default=None,
                       help="also write the per-step aggregate CSV here")
    _add_run_flags(trace)

    threshold = subs.add_parser("threshold", argument_default=no_default,
                                help="success probability over an (n, m) grid")
    threshold.add_argument("--k", type=int)
    threshold.add_argument("--colors", type=int, dest="kappa")
    threshold.add_argument("--m", type=_int_grid, dest="ms", required=True,
                           help="comma-separated m grid")
    _add_run_flags(threshold)

    mean = subs.add_parser("mean-count", argument_default=no_default,
                           help="sample means of exact counts vs closed forms")
    mean.add_argument("--k", type=int)
    mean.add_argument("--colors", type=int, dest="kappa")
    _add_run_flags(mean)

    ham = subs.add_parser("hamilton", argument_default=no_default,
                          help="rainbow Hamilton cycle pipelines")
    ham.add_argument("--m", type=_int_grid, dest="ms", required=True)
    ham.add_argument("--retries", type=int,
                     help="independent attempts per trial (required for odd n)")
    ham.add_argument("--hc-budget", type=int)
    _add_run_flags(ham)

    plot = subs.add_parser("plot", help="render a CSV column pair as an SVG plot")
    plot.add_argument("csv", help="CSV file produced by this tool")
    plot.add_argument("--x", required=True)
    plot.add_argument("--y", required=True)
    plot.add_argument("--yerr", default=None)
    plot.add_argument("--title", default="")
    plot.add_argument("--width", type=int, default=640)
    plot.add_argument("--height", type=int, default=440)
    plot.add_argument("--out", default=None)

    return parser


def _read_instance(arg: str):
    if arg == "-":
        return loads_instance(sys.stdin.read())
    return load_instance(arg)


def _cmd_gen(args) -> int:
    rnd = RandomnessSpec(args.seed).rng()
    kappa = args.colors if args.colors is not None else args.n
    if args.mode == "partite":
        if args.p is not None:
            H = sample_partite_p(args.n, args.k, kappa, args.p, rnd)
        elif args.m is not None:
            H = sample_partite_m(args.n, args.k, kappa, args.m, rnd)
        else:
            H = complete_colored(args.n, args.k, kappa, rnd)
    else:
        if args.p is not None:
            raise ValueError("the binomial model is partite-only; use --m for graphs")
        total = _check_draw(GRAPH, args.n, args.k, kappa, args.m)
        H = sample_colored_graph(args.n, total if args.m is None else args.m, kappa, rnd)
    _write_text(dumps_instance(H) + "\n", args.out)
    return 0


def _cmd_count(args) -> int:
    H = _read_instance(args.instance)
    report = count_rainbow_pm(H, method=args.method, budget=args.budget)
    payload = {
        "outcome": "counted",
        "value": report.value,
        "method": report.method,
        "nodes": report.nodes,
        "elapsed": report.elapsed,
    }
    _write_text(json.dumps(payload) + "\n", args.out)
    return 0


def _parse_matrix(path: str) -> list[list[int]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rows.append([int(cell) for cell in line.split(",")])
    if not rows:
        raise ValueError("matrix CSV has no rows")
    return rows


def _cmd_solve(args) -> int:
    if (args.instance is None) == (args.latin is None):
        raise ValueError("give exactly one of an instance path or --latin")
    if args.latin is not None:
        key = "cells"
        cells = latin_transversal(_parse_matrix(args.latin), budget=args.budget)
        answer = None if cells is None else [list(c) for c in cells]
    else:
        key = "matching"
        M = find_rainbow_pm(_read_instance(args.instance), budget=args.budget)
        answer = None if M is None else [
            {"verts": list(e.verts), "color": e.color} for e in M.edges
        ]
    outcome = "absent" if answer is None else "found"
    _write_text(json.dumps({"outcome": outcome, key: answer}) + "\n", args.out)
    return 1 if answer is None else 0


# Per experiment command: the names of its driver, CSV emitter and JSON
# emitter, looked up on `experiments` at call time so that wrappers put there
# are seen.  An emitter returns text or a (header, rows) table for table_json.
_EXPERIMENTS = {
    "trace": ("trace_experiment", "trace_steps_csv", "trace_steps_table"),
    "threshold": ("threshold_scan", "threshold_csv", "threshold_table"),
    "mean-count": ("mean_count_experiment", "mean_count_csv", "mean_count_table"),
    "hamilton": ("hamilton_experiment", "hamilton_csv", "hamilton_trials_json"),
}


def _cmd_experiment(args) -> int:
    kind = args.command
    parsed = vars(args)
    config = experiments.ExperimentConfig(kind=kind, **{
        field.name: parsed[field.name]
        for field in dataclasses.fields(experiments.ExperimentConfig)
        if field.name in parsed
    })
    driver, csv_emitter, json_emitter = _EXPERIMENTS[kind]
    raw_out = nullcontext() if args.raw_out is None else open(args.raw_out, "a", encoding="utf-8")
    with raw_out as raw:
        result = getattr(experiments, driver)(config, raw_sink=raw)
    out = getattr(experiments, csv_emitter if args.format == "csv" else json_emitter)(result)
    if not isinstance(out, str):
        out = experiments.table_json(kind, *out)
    _write_text(out, args.out)
    if getattr(args, "summary_out", None) is not None:
        _write_text(experiments.trace_summary_csv(result), args.summary_out)
    return 0


def _cmd_plot(args) -> int:
    text = Path(args.csv).read_text(encoding="utf-8")
    spec = experiments.PlotSpec(
        x=args.x, y=args.y, yerr=args.yerr, title=args.title,
        width=args.width, height=args.height,
    )
    _write_text(experiments.emit_plot(text, spec), args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "solve": _cmd_solve,
    **dict.fromkeys(_EXPERIMENTS, _cmd_experiment),
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            return _COMMANDS[args.command](args)
        except BudgetExceededError as exc:  # count and solve ran out of nodes
            _write_text(json.dumps({"outcome": "budget", "nodes": exc.nodes}) + "\n", args.out)
            return 3
    except (ValueError, OSError) as exc:
        print(f"rainbowmatch: error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a program error must not read as solve's "absent"
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
