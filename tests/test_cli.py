import concurrent.futures
import hashlib
import io
import json
import math
import os
import random
import time
import tracemalloc
import xml.etree.ElementTree as ET
from concurrent.futures import Future, ThreadPoolExecutor
from fractions import Fraction

import pytest

from rainbowmatch import cli, count, experiments, process
from rainbowmatch.cli import main
from rainbowmatch.count import find_rainbow_pm, is_perfect_matching, is_rainbow
from rainbowmatch.model import (
    PARTITE,
    ColoredEdge,
    ColoredHypergraph,
    Matching,
    RandomnessSpec,
    complete_colored,
    dumps_instance,
    load_instance,
    loads_instance,
    restrict,
    sample_colored_graph,
    sample_partite_m,
)

from helpers import save_instance
from oracles import csv_cell, trace_summary_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "Subcommands" in out or "subcommand" in out or "usage" in out


def test_gen_partite_round_trips(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--n", "3", "--m", "5", "--seed", "7", "--out", str(path))
    assert code == 0
    H = load_instance(path)
    assert H.n == 3 and H.k == 2 and len(H.edges) == 5


def test_gen_graph_complete_default(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--mode", "graph", "--n", "5", "--out", str(path))
    assert code == 0
    H = load_instance(path)
    assert H.mode == "graph" and len(H.edges) == 10


def test_gen_refuses_more_edges_than_the_capacity(capsys):
    # 10^8 of the 10^9 partite triples, 50x the 2,000,000-edge capacity
    code, out, err = run(capsys, "gen", "--n", "1000", "--k", "3", "--m", "100000000")
    assert code == 2 and out == "" and "exceeds capacity" in err


# Spaces no sampler can index (past sys.maxsize) or hold, a k used before it
# is bounded and a grid too large to list: each is refused before anything
# is built or powered.
TOO_LARGE = [
    pytest.param(["gen", "--n", "2", "--k", "63", "--m", "3"], id="gen-2^63-tuples"),
    pytest.param(["gen", "--mode", "graph", "--n", "4294967297", "--m", "3"],
                 id="gen-graph-2^63-pairs"),
    pytest.param(["threshold", "--n", "1000000", "--k", "100", "--m", "10", "--trials", "1"],
                 id="threshold-k100"),
    pytest.param(["hamilton", "--n", "9" * 30, "--m", "3", "--retries", "5", "--trials", "1"],
                 id="hamilton-n10^30"),
    pytest.param(["gen", "--n", "2", "--k", "1000000000000"], id="gen-k10^12"),
    pytest.param(["gen", "--n", "1", "--k", "100000000"], id="gen-n1-k10^8"),
    pytest.param(["gen", "--n", "1", "--k", "1" + "0" * 21, "--m", "1"], id="gen-n1-k10^21"),
    pytest.param(["mean-count", "--n", "1", "--k", "1" + "0" * 30, "--trials", "1"],
                 id="mean-count-n1-k10^30"),
    pytest.param(["mean-count", "--n", "1", "--k", "3000000", "--trials", "1"],
                 id="mean-count-n1-k3e6"),
    pytest.param(["threshold", "--n", "3", "--k", "1000000000000", "--m", "5", "--trials", "1"],
                 id="threshold-k10^12"),
    pytest.param(["trace", "--n", "3", "--k", "1000000000000", "--trials", "1"],
                 id="trace-k10^12"),
    pytest.param(["threshold", "--n", "3", "--m", "3", "--trials", "100000000000"],
                 id="threshold-10^11-trials"),
    # one 2*10^6-vertex edge: its layout spans 4*10^12 bits
    pytest.param(["mean-count", "--n", "1", "--k", "2000000", "--trials", "1"],
                 id="mean-count-n1-k2e6-layout"),
    pytest.param(["trace", "--n", "1", "--k", "2000000", "--trials", "1"],
                 id="trace-n1-k2e6-layout"),
    pytest.param(["gen", "--n", "4294967296", "--m", "1"], id="gen-2^64-tuples"),
    # 10^6 edges times 3 colors: the weight table, and K = 0, refused before sampling
    pytest.param(["trace", "--n", "1000", "--colors", "3", "--trials", "1"],
                 id="trace-table-3e6"),
    pytest.param(["trace", "--n", "1000", "--colors", "1", "--event-k", "0", "--trials", "1"],
                 id="trace-event-k0"),
    # 2.2 M trials of valid cells: the trial cap is asked before any cell is built
    pytest.param(["threshold", "--n", ",".join(map(str, range(1000, 2100))),
                  "--m", ",".join(map(str, range(1, 1001))), "--trials", "2"],
                 id="threshold-grid-2.2e6-trials"),
    pytest.param(["hamilton", "--n", ",".join(map(str, range(1000, 2100, 2))),
                  "--m", ",".join(map(str, range(1, 2001))), "--trials", "2"],
                 id="hamilton-grid-2.2e6-trials"),
]


@pytest.mark.parametrize("argv", TOO_LARGE)
def test_too_large_to_index_or_hold_is_refused(capsys, argv):
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("rainbowmatch: error: ") and err.count("\n") == 1, err
    assert elapsed < 2 and peak < 64 << 20, (elapsed, peak)


# Inputs each subcommand refuses with exit 2, empty stdout and one error
# line naming the fault (after argparse's usage lines for a flag it cannot
# parse); the files are written to the working directory.
REFUSED_FILES = {
    "graph-k3.json": '{"mode": "graph", "n": 4, "k": 3, "colors": 4, "edges": []}',
    "n0.json": '{"mode": "partite", "n": 0, "k": 2, "colors": 2, "edges": []}',
    "colors0.json": '{"mode": "partite", "n": 2, "k": 2, "colors": 0, "edges": []}',
    "k1.json": '{"mode": "partite", "n": 2, "k": 1, "colors": 2, "edges": []}',
    "absent-part3.json": '{"mode": "partite", "n": 2, "k": 2, "colors": 2, "edges": [],'
                         ' "absent": [[3, 1]]}',
    "absent.json": '{"mode": "partite", "n": 2, "k": 2, "colors": 2,'
                   ' "edges": [{"verts": [2, 2], "color": 1}], "absent": [[1, 1]]}',
    "bad-row.csv": "x,y\n1,2\n2,x\n",
    "empty.csv": "",
    # an integer past int(str)'s 4300-digit limit: json raises a plain ValueError
    "digits.json": '{"mode": "partite", "n": ' + "1" * 4301 + ', "k": 2, "colors": 2, "edges": []}',
}
REFUSED = [
    pytest.param(["threshold", "--n", "a", "--m", "1"],
                 "argument --n: expected comma-separated integers, got 'a'", id="grid-not-int"),
    pytest.param(["count", "n0.json", "--budget", "abc"],
                 "argument --budget: invalid int value: 'abc'", id="budget-not-int"),
    pytest.param(["threshold", "--n", "4", "--m", "4", "--trials", "0"],
                 "trials must be >= 1", id="trials-0"),
    pytest.param(["threshold", "--n", "4", "--m", "4", "--jobs", "0"],
                 "jobs must be >= 1", id="jobs-0"),
    pytest.param(["hamilton", "--n", "4", "--m", "6", "--trials", "1", "--retries", "-1"],
                 "retries must be >= 0", id="retries-negative"),
    pytest.param(["threshold", "--n", "3", "--m", "10"],
                 "m must lie in 0..9", id="threshold-m-past-n^k"),
    pytest.param(["threshold", "--n", "4", "--k", "1", "--m", "4"],
                 "partite mode needs k >= 2", id="threshold-k1"),
    pytest.param(["trace", "--n", "3", "--steps", "10"], "t_max must lie in 0..9",
                 id="trace-steps-past-n^k"),
    pytest.param(["hamilton", "--n", "3", "--m", "3"], "hamilton experiment needs n >= 4",
                 id="hamilton-n3"),
    pytest.param(["hamilton", "--n", "4", "--m", "7"],
                 "m must lie in 0..6", id="hamilton-m-past-pairs"),
    # the trial cap is asked before any cell: every cell here has m = -1
    pytest.param(["threshold", "--n", ",".join(map(str, range(4, 2005))), "--m", "-1",
                  "--trials", "1000"],
                 "grid of 2001000 trials exceeds capacity 2000000", id="threshold-cap-before-cells"),
    pytest.param(["plot", "bad-row.csv", "--x", "x", "--y", "y"], "malformed CSV row '2,x'",
                 id="plot-row-not-a-number"),
    pytest.param(["count", "graph-k3.json"], "malformed instance document: graph mode fixes k = 2",
                 id="count-graph-k3"),
    pytest.param(["count", "n0.json"], "malformed instance document: n must be >= 1", id="count-n0"),
    pytest.param(["count", "colors0.json"], "malformed instance document: kappa must be >= 1",
                 id="count-colors0"),
    pytest.param(["count", "k1.json"], "malformed instance document: partite mode needs k >= 2",
                 id="count-partite-k1"),
    pytest.param(["count", "absent-part3.json"],
                 "malformed instance document: vertex PartiteVertex(part=3, index=1) out of range",
                 id="count-absent-part3"),
    pytest.param(["count", "digits.json"],
                 "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
                 "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit",
                 id="count-int-past-the-digit-limit"),
    pytest.param(["count", "absent.json", "--method", "ie"],
                 "inclusion-exclusion route requires all vertices active", id="count-ie-absent"),
    pytest.param(["gen", "--n", "3", "--m", "10"], "m must lie in 0..9", id="gen-m-past-n^k"),
    pytest.param(["gen", "--mode", "graph", "--n", "0"], "n must be >= 1", id="gen-graph-n0"),
    pytest.param(["solve", "--latin", "empty.csv"], "matrix CSV has no rows", id="latin-empty"),
]


@pytest.mark.parametrize("argv,message", REFUSED)
def test_refused_inputs_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    for name, text in REFUSED_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    raw = tmp_path / "raw.jsonl"
    raw.write_text("")
    if argv[0] in cli._EXPERIMENTS:  # refused before the first trial: no progress line
        argv = [*argv, "--raw-out", str(raw)]
    code, out, err = run(capsys, *argv)
    *usage, line = err.splitlines()
    assert (code, out) == (2, "")
    assert usage == [] or usage[0].startswith("usage: "), err
    assert line.startswith("rainbowmatch") and line.endswith(f" error: {message}"), err
    assert "error:" not in "".join(usage), err
    assert raw.read_text() == ""


# Grids whose first cells are valid and whose last is refused by its
# sampler's argument rule: each is refused, for every cell, before the
# first trial, so the progress stream stays empty.
REFUSED_GRIDS = [
    pytest.param(["threshold", "--n", "4", "--m", "4,-1", "--trials", "2"], "m must lie in 0..16",
                 id="threshold-negative-m"),
    pytest.param(["threshold", "--n", "4,10", "--k", "20", "--m", "5", "--trials", "2"],
                 "10^20 tuples exceeds index range", id="threshold-10^20-tuples"),
    pytest.param(["threshold", "--n", "4,1000000000", "--m", "4", "--trials", "2"],
                 "layout of 15000000000 bits exceeds capacity", id="threshold-layout"),
    pytest.param(["mean-count", "--n", "2,3", "--k", "14", "--trials", "1", "--budget", "1000"],
                 "4782969 edges exceeds capacity 2000000", id="mean-count-3^14-edges"),
    pytest.param(["hamilton", "--n", "3000", "--m", "3,2500000", "--trials", "1"],
                 "2500000 edges exceeds capacity 2000000", id="hamilton-m-past-capacity"),
    # the odd route's contraction keeps up to 999,999 edges on 1500 vertices
    pytest.param(["hamilton", "--n", "1501", "--m", "10,1000000", "--retries", "1",
                  "--trials", "1"],
                 "layout of 3001000000 bits exceeds capacity 2147483648", id="hamilton-odd-layout"),
]


@pytest.mark.parametrize("argv,message", REFUSED_GRIDS)
def test_grids_are_refused_before_the_first_trial(tmp_path, capsys, argv, message):
    raw = tmp_path / "raw.jsonl"
    raw.write_text("")
    code, out, err = run(capsys, *argv, "--raw-out", str(raw))
    assert (code, out) == (2, "")
    assert err.startswith("rainbowmatch: error: ") and err.count("\n") == 1, err
    assert message in err, err
    assert raw.read_text() == ""


def test_an_empty_grid_is_refused():
    # no --m list parses empty, so only a library call has a grid of no cells
    config = experiments.ExperimentConfig(kind="threshold", ns=(4,), ms=())
    with pytest.raises(ValueError, match="^parameter grid must be nonempty$"):
        experiments.threshold_scan(config)


# Exit codes and outputs of input paths no other test runs: the binomial
# sampler, an instance read from stdin, and a matrix CSV whose blank line is
# skipped.
ACCEPTED = [
    pytest.param(["gen", "--n", "3", "--p", "0.5"], "", 0,
                 {"mode": "partite", "n": 3, "k": 2, "colors": 3}, id="gen-p"),
    pytest.param(["count", "-"],
                 '{"mode": "partite", "n": 2, "k": 2, "colors": 2, "edges": ['
                 '{"verts": [1, 1], "color": 1}, {"verts": [2, 2], "color": 2}]}', 0,
                 {"outcome": "counted", "value": 1}, id="count-stdin"),
    pytest.param(["solve", "--latin", "blank-line.csv"], "", 1,
                 {"outcome": "absent", "cells": None}, id="latin-blank-line"),
]


@pytest.mark.parametrize("argv,stdin,exit_code,fields", ACCEPTED)
def test_input_paths_exit_codes(tmp_path, capsys, monkeypatch, argv, stdin, exit_code, fields):
    (tmp_path / "blank-line.csv").write_text("1,2\n\n2,1\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    assert (code, err) == (exit_code, "")
    assert {key: doc[key] for key in fields} == fields


def test_gen_samples_the_largest_indexable_space(capsys):
    # 2^62 tuples lie within sys.maxsize, so random.sample indexes them
    code, out, _ = run(capsys, "gen", "--n", "2", "--k", "62", "--m", "3")
    H = json.loads(out)
    assert code == 0 and len(H["edges"]) == 3 and len(H["edges"][0]["verts"]) == 62


def test_gen_graph_rejects_p(capsys):
    code, _, err = run(capsys, "gen", "--mode", "graph", "--n", "4", "--p", "0.5")
    assert code == 2
    assert "partite-only" in err


def test_gen_graph_rejects_k_other_than_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, out, err = run(capsys, "gen", "--mode", "graph", "--n", "4", "--k", "3", "--out", str(path))
    assert (code, out) == (2, "") and "graph mode fixes k = 2" in err
    assert not path.exists()
    code, _, _ = run(capsys, "gen", "--mode", "graph", "--n", "4", "--k", "2", "--out", str(path))
    assert code == 0 and load_instance(path).k == 2


def test_count_both_methods(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--seed", "1", "--out", str(path))
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    brute = json.loads(out)
    code, out, _ = run(capsys, "count", str(path), "--method", "ie")
    ie = json.loads(out)
    assert code == 0
    assert brute["value"] == ie["value"]
    assert brute["method"] == "brute"
    assert ie["method"] == "color-inclusion-exclusion"


def test_solve_exit_codes(tmp_path, capsys):
    found = tmp_path / "found.json"
    found.write_text(json.dumps({
        "mode": "partite", "n": 2, "k": 2, "colors": 2,
        "edges": [{"verts": [1, 1], "color": 1}, {"verts": [2, 2], "color": 2},
                  {"verts": [1, 2], "color": 1}, {"verts": [2, 1], "color": 2}],
    }))
    code, out, _ = run(capsys, "solve", str(found))
    assert code == 0
    assert json.loads(out)["outcome"] == "found"

    absent = tmp_path / "absent.json"
    absent.write_text(json.dumps({
        "mode": "partite", "n": 2, "k": 2, "colors": 2,
        "edges": [{"verts": [1, 1], "color": 1}, {"verts": [2, 2], "color": 1},
                  {"verts": [1, 2], "color": 2}, {"verts": [2, 1], "color": 2}],
    }))
    code, out, _ = run(capsys, "solve", str(absent))
    assert code == 1
    assert json.loads(out)["outcome"] == "absent"


def test_solve_latin(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text("1,0\n0,2\n")
    code, out, _ = run(capsys, "solve", "--latin", str(csv))
    assert code == 0
    assert json.loads(out)["cells"] == [[1, 1], [2, 2]]
    csv.write_text("1,2\n2,1\n")
    code, out, _ = run(capsys, "solve", "--latin", str(csv))
    assert code == 1


def test_solve_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize("error", [RuntimeError("lost an edge"), KeyError("boom")])
def test_internal_error_exits_4(tmp_path, capsys, monkeypatch, error):
    # a crash is not a proof of absence: exit 4 with the traceback on stderr,
    # never solve's exit 1 with empty stdout
    path = tmp_path / "inst.json"
    assert run(capsys, "gen", "--n", "3", "--m", "5", "--out", str(path))[0] == 0

    def crash(H, budget):
        raise error

    monkeypatch.setattr(cli, "find_rainbow_pm", crash)
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (4, "")
    assert err.startswith("Traceback") and f"{type(error).__name__}: {error}" in err


def test_a_witness_that_fails_its_check_exits_4(tmp_path, capsys, monkeypatch):
    H = ColoredHypergraph(PARTITE, 2, 2, 2, (ColoredEdge((1, 1), 1), ColoredEdge((2, 2), 2)))
    path = tmp_path / "inst.json"
    save_instance(H, path)

    class WrongSearch(count._Search):
        def run(self):
            super().run()
            _, *rest = self.found
            self.found = (*rest, *rest)  # the other edge twice: vertex (1, 1) or (2, 2) uncovered

    monkeypatch.setattr(count, "_Search", WrongSearch)
    with pytest.raises(RuntimeError, match="not a rainbow perfect matching"):
        find_rainbow_pm(H)
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (4, "") and "RuntimeError" in err


def test_trace_runs_one_n(capsys):
    code, out, err = run(capsys, "trace", "--n", "2,3", "--trials", "1")
    assert (code, out) == (2, "") and "one n at a time" in err


def test_trace_refuses_a_weight_table_past_the_capacity(capsys):
    # 9 tuples times the colors: past 2,000,000 entries, refused at once
    for colors in ("300000", "100000000"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "trace", "--n", "3", "--colors", colors, "--trials", "1",
                             "--steps", "2")
        assert time.perf_counter() - t0 < 1.0, colors
        assert (code, out) == (2, ""), colors
        assert err.startswith("rainbowmatch: error: weight table of") and err.count("\n") == 1


def test_a_long_trace_ends_at_its_budget_in_little_memory(capsys):
    # 22,500 and 46,225 steps: each edge carries its death in one narrow
    # field, so the edge lists stay small, and the 10-node budget ends the
    # only trial before the weight table is indexed
    for n in ("150", "215"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "trace", "--n", n, "--colors", "10", "--trials", "1",
                                 "--budget", "10")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "i,phi,xi,gamma,p_i,w_max,w_avg,w_med,B,R,C\n", ""), n
        assert peak < 48 << 20, (n, peak)


def test_trace_headers(tmp_path, capsys):
    steps = tmp_path / "steps.csv"
    summary = tmp_path / "summary.csv"
    code, _, _ = run(
        capsys, "trace", "--n", "2", "--trials", "1", "--seed", "3",
        "--out", str(steps), "--summary-out", str(summary),
    )
    assert code == 0
    assert steps.read_text().splitlines()[0] == "i,phi,xi,gamma,p_i,w_max,w_avg,w_med,B,R,C"
    assert summary.read_text().splitlines()[0] == (
        "i,gamma,mean_xi,se_xi,trials_positive,sum_gamma_exact,sum_gamma_closed"
    )
    code, _, _ = run(
        capsys, "trace", "--n", "2", "--trials", "2", "--seed", "3", "--out", str(steps)
    )
    assert steps.read_text().splitlines()[0].startswith("trial,i,phi")


def test_trace_summary_is_linear_in_the_steps(tmp_path, capsys):
    # a budget-out trial still writes all 14,400 summary rows; their bytes
    # are those the per-row sums gave
    summary = tmp_path / "summary.csv"
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "trace", "--n", "120", "--colors", "120", "--trials", "1",
                       "--budget", "10", "--summary-out", str(summary))
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (0, "i,phi,xi,gamma,p_i,w_max,w_avg,w_med,B,R,C\n")
    text = summary.read_text()
    assert text.count("\n") == 14_401
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "665a63a1a5fd4ae0bce09fadce0d03d3d47a59c815667d108601a3db34447ee2"
    )


def test_summary_out_is_csv_under_format_json(tmp_path, capsys):
    # --format sets the steps output alone: the summary file holds the same
    # CSV bytes under both formats
    summaries = {form: tmp_path / f"summary-{form}" for form in ("json", "csv")}
    outs = {}
    for form, summary in summaries.items():
        code, outs[form], _ = run(capsys, "trace", "--n", "2", "--trials", "1",
                                  "--format", form, "--summary-out", str(summary))
        assert code == 0
    data = json.loads(outs["json"])
    assert data["kind"] == "trace" and [row["i"] for row in data["rows"]] == [0, 1, 2, 3, 4]
    text = summaries["json"].read_text()
    assert text.splitlines()[0] == (
        "i,gamma,mean_xi,se_xi,trials_positive,sum_gamma_exact,sum_gamma_closed"
    )
    assert text == summaries["csv"].read_text()


def test_threshold_header_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["threshold", "--n", "3", "--m", "2,5,9", "--trials", "15", "--seed", "5"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--jobs", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "n,k,kappa,m,trials,successes,p_hat,se,absent,budget"


def test_mean_count_csv_and_json(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, _, _ = run(capsys, "mean-count", "--n", "2,3", "--trials", "10",
                     "--seed", "2", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,k,kappa,trials,mean,expected_mean")
    assert len(lines) == 3
    code, text, _ = run(capsys, "mean-count", "--n", "2", "--trials", "5",
                        "--seed", "2", "--format", "json")
    assert code == 0
    data = json.loads(text)
    assert data["kind"] == "mean-count" and len(data["rows"]) == 1


def test_mean_count_closed_forms_only_at_kappa_n(capsys):
    # the closed forms hold for n colors: at 5 colors the n=3 mean is
    # 3! * (5 * 4 * 3) / 5^3 = 2.88, at 2 colors it is 0; neither is 4/3
    for colors, mean in (("5", 2.845), ("2", 0.0)):
        code, out, _ = run(capsys, "mean-count", "--n", "3", "--colors", colors,
                           "--trials", "400", "--seed", "1")
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert (row["kappa"], float(row["mean"])) == (colors, mean)
        assert row["expected_mean"] == row["expected_second_moment"] == ""
    code, out, _ = run(capsys, "mean-count", "--n", "3", "--colors", "5", "--trials", "2",
                       "--format", "json")
    (row,) = json.loads(out)["rows"]
    assert row["expected_mean"] is None and row["expected_second_moment"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_mean_count_closed_forms_past_the_float_range(capsys):
    # a closed form past the largest float reads inf, as a mean with no
    # counted trial reads nan: at n=130 the second moment, at n=210 both
    code, out, err = run(capsys, "mean-count", "--n", "130,210", "--trials", "1",
                         "--budget", "10")
    assert (code, err) == (0, "")
    header, *lines = (line.split(",") for line in out.splitlines())
    rows = [dict(zip(header, line)) for line in lines]
    assert [(row["expected_mean"], row["expected_second_moment"]) for row in rows] == [
        ("6.437993181801595e+164", "inf"), ("inf", "inf")]
    assert {(row["mean"], row["budget"]) for row in rows} == {("nan", "1")}
    # JSON has no nan or inf: those cells are null, and a strict parser reads the table
    code, out, err = run(capsys, "mean-count", "--n", "130,210", "--trials", "1",
                         "--budget", "10", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert [(row["expected_mean"], row["expected_second_moment"]) for row in rows] == [
        (6.437993181801595e+164, None), (None, None)]
    assert {(row["mean"], row["budget"]) for row in rows} == {(None, 1)}


class Tally(int):
    def __str__(self):
        return f"tally {int(self)}"


class Weight(float):
    def __repr__(self):
        return f"weight {float(self)}"


class Ratio(Fraction):
    pass


class Label(str):
    def __str__(self):
        return f"label {str.__str__(self)}"


CSV_CELLS = [
    None, True, False, 0, -7, 2**70, -(2**70), Tally(3),
    math.nan, math.inf, -math.inf, -0.0, 0.1, 1e308, 5e-324, Weight(2.5),
    Fraction(0), Fraction(-6, 3), Fraction(1, 3), Fraction(3**700, 2**100),
    Fraction(3**1000 + 1, 3**999), Ratio(1, 3), "", "found", "hc-budget", Label("x"),
]


def test_csv_cells_match_the_isinstance_chain():
    # every kind of cell, each in a row of its own and all in one row mixed
    # with the others, renders as the plain isinstance chain renders it
    rows = [[x] for x in CSV_CELLS] + [CSV_CELLS, CSV_CELLS[::-1], []]
    expected = "\n".join(",".join(map(csv_cell, row)) for row in [["a", "b"], *rows]) + "\n"
    assert experiments._csv_lines(["a", "b"], rows) == expected
    # a Fraction past the float range raises the same error on both routes
    huge = Fraction(10**400, 3)
    with pytest.raises(OverflowError) as by_chain:
        csv_cell(huge)
    with pytest.raises(OverflowError) as by_type:
        experiments._csv_lines(["a"], [[huge]])
    assert str(by_type.value) == str(by_chain.value)


# (n, k, kappa, t_max) of the traces whose rendering is checked against the
# uncached routes, then again in reverse, each shape after another one;
# kappa None is n
TRACE_SHAPES = [(1, 2, None, None), (2, 2, None, 0), (3, 2, None, None), (3, 2, None, 4),
                (2, 3, None, None), (3, 2, 5, None), (3, 3, None, 10)]


def _traces():
    for n, k, kappa, t_max in TRACE_SHAPES + TRACE_SHAPES[::-1]:
        # one trial has no trial column, so gamma and p_i sit one place left
        for trials in (1, 3):
            config = experiments.ExperimentConfig(
                kind="trace", ns=(n,), k=k, kappa=kappa, t_max=t_max, trials=trials,
                master_seed=n + k)
            yield config, experiments.trace_experiment(config)
    # every trial out of budget: no step rows, every summary row
    config = experiments.ExperimentConfig(kind="trace", ns=(3,), trials=2, node_budget=10)
    yield config, experiments.trace_experiment(config)


def test_trace_csv_from_the_shape_caches_matches_uncached_rendering():
    for cached in (experiments._ratio_cells, process._step_ratios):
        cached.cache_clear()
    rendered = [(config, result, experiments.trace_steps_csv(result),
                 experiments.trace_summary_csv(result)) for config, result in _traces()]
    for config, result, steps_csv, summary_csv in rendered:
        header, rows = experiments.trace_steps_table(result)
        assert steps_csv == experiments._csv_lines(header, rows), config
        assert steps_csv == "".join(",".join(map(csv_cell, row)) + "\n" for row in [header, *rows])
        # the table keeps exact ratios: trace --format json renders it
        n, k = config.ns[0], config.k
        at = header.index("i")
        for row in rows:
            i, gamma, p = row[at], row[at + 3], row[at + 4]
            assert type(p) is Fraction and p == Fraction(n**k - i, n**k)
            if i:
                assert type(gamma) is Fraction and gamma == Fraction(n, n**k - i + 1)
            else:
                assert gamma is None
        header, rows = trace_summary_table(result)
        assert len(rows) == (n**k if config.t_max is None else config.t_max), config
        assert summary_csv == experiments._csv_lines(header, rows), config
        assert summary_csv == "".join(",".join(map(csv_cell, row)) + "\n"
                                      for row in [header, *rows]), config


def test_hamilton_csv_and_config_error(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, _, _ = run(capsys, "hamilton", "--n", "6", "--m", "12", "--trials", "4",
                     "--seed", "1", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("n,m,colors,mode,trials,success,edge_class_too_small")
    code, _, err = run(capsys, "hamilton", "--n", "5", "--m", "8", "--trials", "2")
    assert code == 2 and "retries" in err
    code, _, err = run(capsys, "hamilton", "--n", "5", "--m", "0", "--retries", "1",
                       "--trials", "1")
    assert code == 2 and "m >= 1" in err and len(err.strip().splitlines()) == 1
    # the pipelines fix the color count at n, so hamilton takes no --colors
    code, out, err = run(capsys, "hamilton", "--n", "8", "--m", "28", "--trials", "1",
                         "--colors", "8")
    assert code == 2 and out == "" and "--colors" in err


def test_hamilton_json_telemetry(capsys):
    code, text, _ = run(capsys, "hamilton", "--n", "5", "--m", "9", "--trials", "3",
                        "--retries", "2", "--seed", "4", "--format", "json")
    assert code == 0
    data = json.loads(text)
    trials = data["cells"][0]["trials"]
    assert len(trials) == 3
    for t in trials:
        assert {"stage_reached", "sizes", "matchings_found", "hc_found",
                "attempts", "elapsed"} <= set(t)


def test_plot_svg_valid_and_deterministic(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    run(capsys, "threshold", "--n", "3", "--m", "2,5,9", "--trials", "10",
        "--seed", "9", "--out", str(csv))
    svg1 = tmp_path / "p1.svg"
    svg2 = tmp_path / "p2.svg"
    args = ["plot", str(csv), "--x", "m", "--y", "p_hat", "--yerr", "se"]
    assert run(capsys, *args, "--out", str(svg1))[0] == 0
    assert run(capsys, *args, "--out", str(svg2))[0] == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    root = ET.parse(svg1).getroot()
    assert root.tag.endswith("svg")


def test_plot_rejects_bad_input(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "plot", str(empty), "--x", "m", "--y", "p_hat")
    assert code == 2 and "no data" in err
    csv = tmp_path / "t.csv"
    csv.write_text("a,b\n1,2\n")
    code, _, err = run(capsys, "plot", str(csv), "--x", "a", "--y", "nope")
    assert code == 2 and "column" in err


def test_plot_skips_rows_that_are_not_finite(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("x,y,e\n1,2,0.5\n2,nan,0.5\n3,4,inf\n4,5,0.5\n")
    svg = tmp_path / "p.svg"
    assert run(capsys, "plot", str(csv), "--x", "x", "--y", "y", "--out", str(svg))[0] == 0
    assert "nan" not in svg.read_text()
    assert len(ET.parse(svg).getroot().findall("{*}circle")) == 3
    assert run(capsys, "plot", str(csv), "--x", "x", "--y", "y", "--yerr", "e",
               "--out", str(svg))[0] == 0
    assert "nan" not in svg.read_text() and "inf" not in svg.read_text()
    assert len(ET.parse(svg).getroot().findall("{*}circle")) == 2
    # an all-nan column, and a budget-out's nan mean: nothing to plot
    csv.write_text("x,y\n1,nan\n2,nan\n")
    code, _, err = run(capsys, "plot", str(csv), "--x", "x", "--y", "y")
    assert code == 2 and "no finite data rows" in err
    run(capsys, "mean-count", "--n", "6", "--trials", "2", "--budget", "1", "--out", str(csv))
    assert "nan" in csv.read_text()
    code, _, err = run(capsys, "plot", str(csv), "--x", "n", "--y", "mean")
    assert code == 2 and "no finite data rows" in err


def test_plot_leaves_out_rows_with_an_empty_cell(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    svg = tmp_path / "p.svg"
    csv.write_text("x,y,e\n1,2,0.5\n2,,0.5\n3,4,\n,5,0.5\n5,6,0.5\n")
    for yerr, points in (([], 3), (["--yerr", "e"], 2)):
        args = ["plot", str(csv), "--x", "x", "--y", "y", *yerr, "--out", str(svg)]
        assert run(capsys, *args)[0] == 0, yerr
        assert len(ET.parse(svg).getroot().findall("{*}circle")) == points, yerr
    # text and short rows stay malformed, an empty cell among them or not
    for text, bad in (("x,y\n1,2\n2,x\n", "2,x"), ("x,y\n1,\n2\n", "2"),
                      ("x,y\n,x\n", ",x"), ("x,y,e\n1,2,\n3,4\n", "3,4")):
        csv.write_text(text)
        code, _, err = run(capsys, "plot", str(csv), "--x", "x", "--y", "y",
                           *(["--yerr", "e"] if ",e" in text else []))
        assert code == 2 and f"malformed CSV row {bad!r}" in err, text
    # the tool's own CSVs: a full trace's summary, whose later steps have
    # no mean_xi, its steps, whose step 0 has no xi, and the closed form
    # that mean-count leaves empty at kappa != n
    steps, summary = tmp_path / "steps.csv", tmp_path / "summary.csv"
    assert run(capsys, "trace", "--n", "3", "--trials", "4", "--seed", "2", "--out", str(steps),
               "--summary-out", str(summary))[0] == 0
    assert ",,," in summary.read_text()
    for args in ([str(summary), "--x", "gamma", "--y", "mean_xi", "--yerr", "se_xi"],
                 [str(steps), "--x", "i", "--y", "xi"]):
        assert run(capsys, "plot", *args, "--out", str(svg))[0] == 0, args
    run(capsys, "mean-count", "--n", "3,4", "--colors", "5", "--trials", "2", "--out", str(csv))
    code, _, err = run(capsys, "plot", str(csv), "--x", "n", "--y", "expected_mean")
    assert code == 2 and "no finite data rows" in err
    assert run(capsys, "plot", str(csv), "--x", "n", "--y", "mean", "--out", str(svg))[0] == 0


def test_plot_size_must_leave_a_plot_area(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("x,y\n1,2\n3,4\n")
    for size in (["--width", "0"], ["--width", "-100"], ["--width", "80"], ["--height", "64"],
                 ["--height", "80", "--title", "t"]):
        code, out, err = run(capsys, "plot", str(csv), "--x", "x", "--y", "y", *size)
        assert code == 2 and "no plot area" in err and out == "", size
    assert run(capsys, "plot", str(csv), "--x", "x", "--y", "y", "--width", "81",
               "--height", "65")[0] == 0


# emit_plot's bytes for inputs without markup characters, recorded before its
# elements moved onto one writer: no title, a title, error bars, a single
# point, equal x values, a non-default size, and negative and tiny values.
PLOT_CSVS = {
    "scan": "m,p_hat,se\n2,0.1,0.05\n5,0.5,0.1\n9,0.9,0.03\n12,1.0,0.0\n",
    "single": "x,y\n3,7\n",
    "equal-x": "x,y\n2,1\n2,3\n2,2\n",
    "signed": "x,y,e\n-3,-1e-07,2e-08\n-1,3e-07,1e-08\n0.5,-2e-07,5e-08\n",
}
PLOT_SPECS = [
    ("scan", experiments.PlotSpec("m", "p_hat")),
    ("scan", experiments.PlotSpec("m", "p_hat", yerr="se", title="threshold n=3")),
    ("scan", experiments.PlotSpec("m", "se", width=300, height=200)),
    ("single", experiments.PlotSpec("x", "y", title="one point")),
    ("equal-x", experiments.PlotSpec("x", "y")),
    ("signed", experiments.PlotSpec("x", "y")),
    ("signed", experiments.PlotSpec("x", "y", yerr="e", title="tiny", width=500, height=300)),
]
PLOT_DIGEST = "eecca6b4311ad3cd95e3f0de61ef59ed54f00450c61dd07ea4e662310343bb44"


def test_plot_bytes_pinned():
    svgs = [experiments.emit_plot(PLOT_CSVS[name], spec) for name, spec in PLOT_SPECS]
    for svg in svgs:
        ET.fromstring(svg)
    assert hashlib.sha256("".join(svgs).encode()).hexdigest() == PLOT_DIGEST


def test_plot_escapes_markup_in_its_labels(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("a&b,y<1\n1,2\n3,4\n")
    svg = tmp_path / "p.svg"
    assert run(capsys, "plot", str(csv), "--x", "a&b", "--y", "y<1", "--title", "n<8 & m>2",
               "--out", str(svg))[0] == 0
    texts = [t.text for t in ET.parse(svg).getroot().findall("{*}text")]
    assert {"n<8 & m>2", "a&b", "y<1"} <= set(texts)


@pytest.mark.parametrize(
    "rows,named",
    [
        ("-1e308,1\n1e308,2\n", "x range -1e+308 to 1e+308"),
        ("1,-1e308\n2,1e308\n", "y range -1e+308 to 1e+308"),
        ("1e20,1\n", "x range 1e+20 to 1e+20"),
        # one float apart: a tick step below the spacing never advances
        ("1e20,1\n100000000000000016384,2\n", "x range 1e+20 to 1e+20"),
    ],
)
def test_plot_rejects_a_range_it_cannot_draw(tmp_path, capsys, rows, named):
    csv = tmp_path / "t.csv"
    csv.write_text("x,y\n" + rows)
    code, out, err = run(capsys, "plot", str(csv), "--x", "x", "--y", "y")
    assert code == 2 and out == ""
    assert err.startswith("rainbowmatch: error:") and err.count("\n") == 1
    assert named in err


def test_raw_stream_written(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    run(capsys, "threshold", "--n", "2", "--m", "1,4", "--trials", "3",
        "--seed", "0", "--raw-out", str(raw), "--out", str(tmp_path / "x.csv"))
    lines = [json.loads(ln) for ln in raw.read_text().splitlines()]
    assert len(lines) == 6  # one per (cell, trial)


def test_budget_must_be_positive(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--seed", "1", "--out", str(path))
    csv = tmp_path / "m.csv"
    csv.write_text("1,0\n0,2\n")
    commands = (
        ("count", str(path)),
        ("solve", str(path)),
        ("solve", "--latin", str(csv)),
        ("trace", "--n", "2", "--trials", "1"),
    )
    for argv in commands:
        for budget in ("0", "-5"):
            code, out, err = run(capsys, *argv, "--budget", budget)
            assert (code, out) == (2, ""), (argv, budget)
            assert "budget" in err and "positive" in err, (argv, budget)
    code, out, _ = run(capsys, "count", str(path), "--budget", "1")
    assert code == 3 and json.loads(out)["outcome"] == "budget"


def test_count_budget_out_in_the_split_exits_3(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_instance(complete_colored(6, 2, 6, RandomnessSpec(1).rng()), path)
    code, out, _ = run(capsys, "count", str(path), "--budget", "10")
    assert code == 3 and json.loads(out)["outcome"] == "budget"


def test_deep_instance_is_solved(tmp_path, capsys):
    # 1100 disjoint edges: a witness 1100 edges deep, past Python's default
    # recursion limit; the matching search keeps its path on an explicit stack
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "mode": "graph", "n": 2200, "k": 2, "colors": 1100,
        "edges": [{"verts": [2 * i - 1, 2 * i], "color": i} for i in range(1, 1101)],
    }))
    code, out, err = run(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["outcome"] == "found"
    M = Matching(tuple(ColoredEdge(tuple(e["verts"]), e["color"]) for e in doc["matching"]))
    H = load_instance(path)
    assert len(M) == 1100 and is_perfect_matching(H, M) and is_rainbow(M)


def test_bad_document_is_an_input_error(tmp_path, capsys):
    # neither wrong JSON types, nor nesting deeper than the JSON decoder's
    # recursion limit, nor an instance too large to build may surface as a
    # traceback and exit 1, which is solve's "proved absent" code, or exit 4
    doc = '{"mode": "partite", "n": %s, "k": 2, "colors": 2, "edges": %s}'
    cases = (
        (doc % ("2", "null"), "malformed instance document"),
        (doc % ("1e400", "[]"), "malformed instance document"),
        # a float is not truncated to an integer: n = 2.5 is not n = 2
        (doc % ("2.5", '[{"verts": [1.7, 1], "color": 1}]'), "malformed instance document"),
        # a valid instance that also carries a 200k-deep array
        (doc[:-1] % ("2", "[]") + ', "x": ' + "[" * 200_000 + "]" * 200_000 + "}",
         "not valid JSON"),
        # too large to build: 10^12 vertex bits, or a color 10^12 bits wide
        (doc % ("1000000000000", "[]"), "layout of"),
        (doc.replace("partite", "graph") % ("1000000000000", "[]"), "layout of"),
        ('{"mode": "partite", "n": 2, "k": 2, "colors": 1000000000000,'
         ' "edges": [{"verts": [1, 1], "color": 1000000000000}]}', "layout of"),
        # one edge of 200,000 vertices: few mask bits, but 200,000 per-part
        # bits up to 200,000 bits wide
        ('{"mode": "partite", "n": 1, "k": 200000, "colors": 1, "edges": [{"verts": [%s],'
         ' "color": 1}]}' % ", ".join(["1"] * 200_000), "layout of"),
    )
    path = tmp_path / "bad.json"
    for text, message in cases:
        path.write_text(text)
        for command in ("count", "solve"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (2, ""), (command, message)
            assert err.startswith(f"rainbowmatch: error: {message}") and err.count("\n") == 1


# -- seeded mutations of outside inputs

MUTATION_JUNK = (0, -1, 2, 5, 10**12, 2.0, 2.5, math.inf, True, None, "2", [], [1, 2], {})
DOC_KEYS = ("mode", "n", "k", "colors", "edges", "absent")


def _mutate_document(doc: dict, rnd) -> None:
    """One seeded mutation of a parsed instance document, in place.  Most
    keep it an instance (an edge dropped or recolored, more colors, the
    edges shuffled, an unknown key, the absent vertices restored); the rest
    break a key, an edge or a value.  A mutation that needs a part an
    earlier one broke leaves the document as it is."""
    junk = rnd.choice(MUTATION_JUNK)
    kind = rnd.choices(range(12), weights=(5, 5, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1))[0]
    try:
        edges = doc["edges"]
        edge = edges[rnd.randrange(len(edges))]
        if kind == 0:
            edges.remove(edge)
        elif kind == 1:
            edge["color"] = rnd.randint(1, doc["colors"])
        elif kind == 2:
            doc["colors"] += rnd.randint(1, 3)
        elif kind == 3:
            rnd.shuffle(edges)
        elif kind == 4:
            doc["note"] = [2.5, None]
        elif kind == 5:
            doc.pop("absent", None)
        elif kind == 6:
            doc[rnd.choice(DOC_KEYS)] = junk
        elif kind == 7:
            del doc[rnd.choice(DOC_KEYS)]
        elif kind == 8:
            edges[edges.index(edge)] = junk if rnd.random() < 0.5 else {"verts": edge["verts"]}
        elif kind == 9:
            edge["verts"][rnd.randrange(len(edge["verts"]))] = junk
        elif kind == 10:
            edge["color"] = junk
        else:  # a vertex tuple repeated, reversed or resized, or an edge's vertex absent
            rnd.choice((
                lambda: edges.append(dict(edge)),
                lambda: edge["verts"].reverse(),
                lambda: edge["verts"].append(1),
                lambda: edge["verts"].pop(),
                lambda: doc.setdefault("absent", []).append(
                    edge["verts"][0] if doc["mode"] == "graph" else [1, edge["verts"][0]]),
            ))()
    except (LookupError, TypeError, AttributeError, ValueError):
        pass


def mutation_corpus(seed: int = 44, cases: int = 300) -> list[tuple[list[str], str]]:
    """(argv, text) pairs: each text is a valid document or symbol matrix
    with one or two seeded mutations, each argv a `count`, `count --method
    ie` or `solve` of the document on stdin, or a `solve --latin` of the
    matrix in the file named by the placeholder "{matrix}"."""
    rnd = random.Random(seed)
    docs = [
        dumps_instance(sample_partite_m(4, 2, 4, 11, RandomnessSpec(1).rng())),
        dumps_instance(sample_colored_graph(6, 12, 6, RandomnessSpec(2).rng())),
        dumps_instance(complete_colored(2, 3, 2, RandomnessSpec(3).rng())),
        dumps_instance(restrict(complete_colored(4, 2, 4, RandomnessSpec(4).rng()),
                                removed_vertices=[(1, 2), (2, 4)])),
        # counted, or its inclusion-exclusion run, past the budget
        dumps_instance(complete_colored(8, 2, 8, RandomnessSpec(5).rng())),
    ]
    square = [[(i + j) % 4 + 1 for j in range(4)] for i in range(4)]
    corpus = []
    for _ in range(cases):
        if rnd.random() < 0.15:
            rows = [list(map(str, row)) for row in square]
            for _ in range(rnd.randint(1, 2)):
                row = rnd.choice(rows)
                if rnd.random() < 0.1:
                    rows.remove(row) if rnd.random() < 0.5 else row.pop()
                else:
                    row[rnd.randrange(len(row))] = rnd.choice("01234" if rnd.random() < 0.7
                                                              else ("5", "-1", "1.5", "x"))
            corpus.append((["solve", "--latin", "{matrix}"], "\n".join(map(",".join, rows))))
            continue
        doc = json.loads(rnd.choice(docs))
        for _ in range(rnd.randint(1, 2)):
            _mutate_document(doc, rnd)
        argv = rnd.choice((["count"], ["count"], ["count", "--method", "ie"], ["solve"]))
        corpus.append(([*argv, "-", "--budget", "2000"], json.dumps(doc)))
    return corpus


def test_mutated_inputs_exit_cleanly(tmp_path, capsys, monkeypatch):
    # every exit is an answer (0, 1, 3) or one refusal line (2), never a
    # traceback (4); a document the reader refuses says it is malformed
    matrix = tmp_path / "matrix.csv"
    answered = 0
    for argv, text in mutation_corpus():
        refused = False
        if "-" in argv:  # the document comes on stdin
            try:
                loads_instance(text)
            except ValueError:
                refused = True
        matrix.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, *(str(matrix) if a == "{matrix}" else a for a in argv))
        assert code in (0, 1, 2, 3), (argv, text, err)
        if code == 2:
            assert out == "" and err.startswith("rainbowmatch: error: "), (argv, text, err)
            assert err.count("\n") == 1 and err.count("rainbowmatch: error:") == 1, err
        else:
            assert err == "" and json.loads(out)["outcome"], (argv, text, err)
            answered += 1
        if refused:
            assert err.startswith("rainbowmatch: error: malformed instance document: "), err
    assert answered >= 150


def test_huge_edgeless_documents_answer_like_small_ones(tmp_path, capsys):
    # the kernel's set-up is built per edge, not per vertex, so n = 10^6
    # answers at the root like its small analogue (same parity: a graph with
    # an odd vertex count is refused before the search)
    doc = '{"mode": "%s", "n": %d, "k": 2, "colors": 1, "edges": []}'
    for mode, small, huge, nodes in (("partite", 3, 10**6, 1), ("graph", 4, 10**6, 1),
                                     ("graph", 3, 10**6 + 1, 0)):
        answers = []
        for n in (small, huge):
            path = tmp_path / f"{mode}{n}.json"
            path.write_text(doc % (mode, n))
            code, out, _ = run(capsys, "count", str(path))
            counted = json.loads(out)
            del counted["elapsed"]
            answers.append((code, counted, run(capsys, "solve", str(path))[:2]))
        assert answers[1] == answers[0], (mode, small)
        code, counted, solved = answers[0]
        assert (code, counted["value"], counted["nodes"]) == (0, 0, nodes), (mode, small)
        assert solved == (1, '{"outcome": "absent", "matching": null}\n')


def test_count_ie_refuses_a_large_n_before_building_4_to_the_n(tmp_path, capsys):
    # 4^8000 has 4817 digits, past Python's int-to-string limit
    path = tmp_path / "ie.json"
    path.write_text('{"mode": "partite", "n": 8000, "k": 2, "colors": 8000, "edges": []}')
    code, out, err = run(capsys, "count", str(path), "--method", "ie", "--budget", "1000")
    assert (code, err) == (3, "")
    assert json.loads(out) == {"outcome": "budget", "nodes": 1001}


def test_jobs_are_capped_at_the_trials_and_the_cpus(capsys, monkeypatch):
    # a pool that records its size and runs each task at submit, so no
    # process is started
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    # the runner imports the pool from concurrent.futures when jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    args = ("threshold", "--n", "4", "--m", "6", "--seed", "2")
    serial = run(capsys, *args, "--trials", "3")
    for cpus, trials, jobs, size in ((8, 1, 5000, 1), (8, 3, 5000, 3), (2, 3, 5000, 2),
                                     (None, 3, 5000, 1), (8, 3, 2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        result = run(capsys, *args, "--trials", str(trials), "--jobs", str(jobs))
        assert sizes == [size], (cpus, trials, jobs)
        if trials == 3:
            assert result == serial
    sizes.clear()
    assert run(capsys, *args, "--trials", "3", "--jobs", "1") == serial
    assert sizes == []


def always_out_of_budget(H, budget):
    raise count.BudgetExceededError(f"node budget {budget} exceeded", budget + 1)


@pytest.mark.parametrize("jobs", [1, 3])
def test_a_budget_out_is_a_budget_row(monkeypatch, jobs):
    # the runner, not the trial, turns a budget-out into outcome "budget"
    # with no value; jobs 3 runs the pool branch in threads, so no process
    # is started and the patched search is seen.  The trace runs out of its
    # tiny budget in step 0's tally.
    monkeypatch.setattr(experiments, "find_rainbow_pm", always_out_of_budget)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    for runner, config in (
        (experiments.threshold_scan,
         experiments.ExperimentConfig(kind="threshold", ns=(4,), ms=(6,), trials=3, jobs=jobs)),
        (experiments.trace_experiment,
         experiments.ExperimentConfig(kind="trace", ns=(3,), trials=3, jobs=jobs,
                                      node_budget=5)),
    ):
        raw = io.StringIO()
        result = runner(config, raw_sink=raw)
        assert [(r.outcome, r.value) for r in result.rows] == [("budget", None)] * 3
        lines = sorted(json.loads(line)[:3] for line in raw.getvalue().splitlines())
        assert lines == [[[0, t], "budget", None] for t in range(3)]


def test_raw_lines_are_the_json_of_each_trial(monkeypatch):
    # the raw stream's shared encoder writes each trial's line byte for byte
    # as json.dumps with default=str does: a trial of each kind, the trace's
    # Fractions as strings, and a budget row
    timed, seen = experiments._timed, []

    def recorded(*task):
        seen.append(res := timed(*task))
        return res

    monkeypatch.setattr(experiments, "_timed", recorded)
    Config = experiments.ExperimentConfig
    for runner, config, outcome in (
        (experiments.threshold_scan, Config(kind="threshold", ns=(4,), ms=(6,)), "absent"),
        (experiments.mean_count_experiment, Config(kind="mean-count", ns=(3,)), "found"),
        (experiments.trace_experiment, Config(kind="trace", ns=(3,)), "found"),
        (experiments.hamilton_experiment,
         Config(kind="hamilton", ns=(5,), ms=(10,), retries=1), "absent"),
        (experiments.trace_experiment, Config(kind="trace", ns=(3,), node_budget=5), "budget"),
    ):
        raw = io.StringIO()
        seen.clear()
        runner(config, raw_sink=raw)
        assert [res[1] for res in seen] == [outcome], config
        assert raw.getvalue() == json.dumps(seen[0], default=str) + "\n", config


def test_event_k_must_be_positive(capsys):
    for value in ("0", "-5", "nan"):
        code, out, err = run(capsys, "trace", "--n", "2", "--trials", "1", "--event-k", value)
        assert (code, out) == (2, ""), value
        assert err == "rainbowmatch: error: K must be positive\n", value
    # the rest of what --event-k refuses reads as K, not as L or eps1
    for value, rule in (("0.5", "exceed 1"), ("1", "exceed 1"), ("inf", "be finite")):
        code, out, err = run(capsys, "trace", "--n", "2", "--trials", "1", "--event-k", value)
        assert (code, out, err) == (2, "", f"rainbowmatch: error: K must {rule}\n"), value
    assert run(capsys, "trace", "--n", "2", "--trials", "1", "--event-k", "1.5")[0] == 0


# SHA-256 of every output of small experiment grids, so that a change to the
# experiment plumbing cannot alter an output byte unnoticed (criterion 11 only
# compares runs of one version).  Hamilton JSON drops each trial's wall time;
# raw lines drop their elapsed field.  The threshold and hamilton-even grids
# run on small node budgets, so their digests also pin how many nodes the
# matching search needs; test_smaller_budget_only_adds_budget_outcomes checks
# that a budget decides only whether a trial answers.
PINNED_RUNS = {
    "threshold": ["threshold", "--n", "3,4", "--m", "3,6,9", "--trials", "6",
                  "--seed", "1", "--budget", "4"],
    "mean-count": ["mean-count", "--n", "2,3", "--trials", "6", "--seed", "1"],
    "trace": ["trace", "--n", "3", "--steps", "4", "--trials", "3", "--seed", "1"],
    "hamilton-odd": ["hamilton", "--n", "7,9", "--m", "18,21", "--retries", "2",
                     "--trials", "4", "--hc-budget", "12", "--seed", "1"],
    "hamilton-even": ["hamilton", "--n", "40", "--m", "780", "--trials", "3",
                      "--budget", "500", "--hc-budget", "200", "--seed", "1"],
}
PINNED_DIGESTS = {
    "threshold csv": "973a43d5208193d6110f2de91434f796a740074b7d0805fa09762c7c2b2c20fc",
    "threshold csv raw": "0caffa032d3253682233a5675f156938d3e4cb57a7fe92223d64adc9d25e64d6",
    "threshold json": "28ee047dd332b8940d5214995f15274005a17fde7aa71ab29bf1fcafccbd6dd4",
    "threshold json raw": "0caffa032d3253682233a5675f156938d3e4cb57a7fe92223d64adc9d25e64d6",
    "mean-count csv": "1e4a6da34f8d9255644068d773b32ba4717249b4f92dff0459ff0cb6c3a8a370",
    "mean-count csv raw": "c64f1b411034b390de81af101d92ba9ea4a4cf58243b1fc41aac80eaa505a532",
    "mean-count json": "dd4c09be95aa54e7819010d3b054195e1437eeaccf755030ac7b4567b8d5eef2",
    "mean-count json raw": "c64f1b411034b390de81af101d92ba9ea4a4cf58243b1fc41aac80eaa505a532",
    "trace csv": "c5d995f80e21956852909a653566582fea1ed5569e67944bcc81b3aebe588118",
    "trace csv summary": "6b4bc252e4cae1a1bf11cb28276cdee1defc42cee11770775c605c3da8595c1b",
    "trace csv raw": "6536788e2f96e182a67fdaed1e2b801c6406d2c17e2a07a6c223f7118cc25558",
    "trace json": "122a6f04b1eab46b6871d4c04b3ee7ec4b030a8e13e6e6bb622d14ca97078581",
    "trace json summary": "6b4bc252e4cae1a1bf11cb28276cdee1defc42cee11770775c605c3da8595c1b",
    "trace json raw": "6536788e2f96e182a67fdaed1e2b801c6406d2c17e2a07a6c223f7118cc25558",
    "hamilton-odd csv": "d1463e8bd89036a6c607feba2c5c65111d0b643128d70aa68f3d5574a58cd8d6",
    "hamilton-odd csv raw": "8b39b154aa72973df22949651815e4cb6d4c6002caeda67e65a16e2fa6b7b839",
    "hamilton-odd json": "65df5c4e887fba67bd43f581cbbdeff561c89ca6f39ff83b54fca849158e5933",
    "hamilton-odd json raw": "8b39b154aa72973df22949651815e4cb6d4c6002caeda67e65a16e2fa6b7b839",
    "hamilton-even csv": "311ccfe68053bc1be329d51ae102c58a13aa792e8247047efb2cf59993391903",
    "hamilton-even csv raw": "9b48f34b9f605fa891d4ecb893c88d95017eb7d3dbcd60bb9890a06d685a799f",
    "hamilton-even json": "8caf9a5e4ef35a1fec4c03be2dd9d4de39bffb7ec0db1bd9d8fc5d84fc290fc3",
    "hamilton-even json raw": "9b48f34b9f605fa891d4ecb893c88d95017eb7d3dbcd60bb9890a06d685a799f",
}


def _pinned_outputs(tmp_path, capsys) -> dict[str, str]:
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    digests = {}
    for name, argv in PINNED_RUNS.items():
        for fmt in ("csv", "json"):
            raw = tmp_path / f"{name}-{fmt}.jsonl"
            summary = tmp_path / f"{name}-{fmt}-summary.csv"
            extra = ["--summary-out", str(summary)] if argv[0] == "trace" else []
            code, out, err = run(capsys, *argv, "--format", fmt, "--jobs", "1",
                                 "--raw-out", str(raw), *extra)
            assert (code, err) == (0, ""), (name, fmt, err)
            if argv[0] == "hamilton" and fmt == "json":
                doc = json.loads(out)
                for cell in doc["cells"]:
                    for trial in cell["trials"]:
                        del trial["elapsed"]
                out = json.dumps(doc, sort_keys=True)
            digests[f"{name} {fmt}"] = sha(out)
            if extra:
                digests[f"{name} {fmt} summary"] = sha(summary.read_text())
            lines = [json.loads(line) for line in raw.read_text().splitlines()]
            assert all(len(line) == 4 for line in lines)
            digests[f"{name} {fmt} raw"] = sha(json.dumps([line[:3] for line in lines]))
    return digests


def test_smaller_budget_only_adds_budget_outcomes(tmp_path, capsys):
    # A node budget decides whether a search answers, never what it answers:
    # each trial of the budgeted pinned grids either ran out of budget or
    # ends as it does at the default budget.
    budget_outs = 0
    for name in ("threshold", "hamilton-even"):
        argv = PINNED_RUNS[name]
        at = argv.index("--budget")
        outcomes = []
        for tag, args in (("small", argv), ("default", argv[:at] + argv[at + 2:])):
            raw = tmp_path / f"{name}-{tag}.jsonl"
            code, _, err = run(capsys, *args, "--jobs", "1", "--raw-out", str(raw))
            assert (code, err) == (0, ""), (name, tag, err)
            lines = [json.loads(line) for line in raw.read_text().splitlines()]
            outcomes.append({tuple(line[0]): line[1:3] for line in lines})
        small, default = outcomes
        assert small.keys() == default.keys()
        for key, got in small.items():
            assert default[key][0] != "budget", (name, key)
            if got[0] == "budget":
                budget_outs += 1
            else:
                assert got == default[key], (name, key)
    assert budget_outs > 0


def test_cli_outputs_pinned(tmp_path, capsys):
    assert _pinned_outputs(tmp_path, capsys) == PINNED_DIGESTS
