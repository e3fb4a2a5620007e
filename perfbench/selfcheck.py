"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Shows that self time is span duration minus child coverage, that the output
gate accepts a correct round and rejects a corrupted reference or a tampered
CSV, that an odd hamilton trial whose search ran out of budget is not counted
as answered, that tracing restores every function it wrapped and accounts for
the traced time, and that a real run with a corrupted reference exits
non-zero with "correct": false.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time

import run
import tracing
from rainbowmatch import experiments, hamilton, process
from workloads import Workload, master_seed

TINY_EXACT = Workload(
    "tiny-exact",
    (("mean-count", {"ns": (4,), "trials": 2}),
     ("threshold", {"ns": (5,), "ms": (10, 20), "trials": 2}),
     ("trace", {"ns": (3,), "trials": 2})),
    exact=True,
)
TINY_HAMILTON = Workload(
    "tiny-hamilton",
    (("hamilton", {"ns": (9,), "ms": (30,), "trials": 2, "retries": 2}),
     ("hamilton", {"ns": (8,), "ms": (28,), "trials": 1, "node_budget": 2000})),
    exact=False,
)
# odd trials that all report hc-not-found: at m=30 the search proves there is
# no cycle at its root, on the complete graph (m=36) it runs out of budget
TINY_ODD_BUDGET = Workload(
    "tiny-odd-budget",
    (("hamilton", {"ns": (9,), "ms": (30,), "trials": 2, "retries": 1, "hc_budget": 1}),
     ("hamilton", {"ns": (9,), "ms": (36,), "trials": 2, "retries": 1, "hc_budget": 1})),
    exact=False,
)


def expect(ok, what) -> None:
    if not ok:
        raise AssertionError(f"self-check failed: {what}")


def check_self_time() -> None:
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 3.0, 0),
        S("b", 2.0, 5.0, 0),     # overlaps a: coverage is the union [1, 5]
        S("c", 1.5, 2.5, 1),     # grandchild: covers part of a only
        S("d", 9.0, 12.0, 0),    # runs past root: clipped to [9, 10]
    ]
    got = tracing.self_times(spans)
    want = [10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 1.0, 3.0]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)), f"self times {got} != {want}")


def check_gate() -> None:
    clock = run.TrialClock()
    outputs, _ = run.run_round(TINY_EXACT, 5, clock)
    reference = {"5": run.digest(outputs)}
    expect(run.check_round(TINY_EXACT, 5, outputs, clock.lines, reference) == [],
           "a correct round passes the gate")
    corrupt = {"5": reference["5"][:-1] + ("0" if reference["5"][-1] != "0" else "1")}
    expect(run.check_round(TINY_EXACT, 5, outputs, clock.lines, corrupt),
           "a corrupted reference fails the gate")
    expect(run.check_round(TINY_EXACT, 6, outputs, clock.lines, reference),
           "a master seed without a reference fails the gate")

    clock = run.TrialClock()
    outputs, _ = run.run_round(TINY_HAMILTON, 5, clock)
    expect(run.check_round(TINY_HAMILTON, 5, outputs, clock.lines, None) == [],
           "a correct hamilton round passes the invariants")
    header, row = outputs[0][0].splitlines()[:2]
    cells = row.split(",")
    cells[5] = str(int(cells[5]) + 1)  # one more success than trials allow
    tampered = [[header + "\n" + ",".join(cells) + "\n"]] + outputs[1:]
    expect(run.check_round(TINY_HAMILTON, 5, tampered, clock.lines, None),
           "a hamilton CSV whose stages do not sum to its trials fails")


def check_budget_outs() -> None:
    clock = run.TrialClock()
    run.run_round(TINY_ODD_BUDGET, 5, clock)
    stages = {json.loads(line)[2]["stage_reached"] for line in clock.lines}
    expect(stages == {"hc-not-found"}, f"odd trials out of HC budget report {stages}")
    expect(clock.hc_budget_outs == [0, 0, 1, 1], f"HC budget-outs per trial {clock.hc_budget_outs}")
    expect(run.answered(clock) == 2, "a trial whose HC search ran out of budget is unanswered")
    expect(experiments.find_rainbow_hc is hamilton.find_rainbow_hc,
           "the budget-out counter is removed after the round")


def check_tracing() -> None:
    before = (experiments.threshold_scan, process.restrict, process.count_rainbow_pm)
    rec = tracing.Recorder()
    rec.install()
    try:
        clocks = [run.TrialClock(), run.TrialClock()]
        t0 = time.perf_counter()
        run.run_round(TINY_EXACT, 3, clocks[0])
        run.run_round(TINY_HAMILTON, 3, clocks[1])
        wall = time.perf_counter() - t0
    finally:
        rec.uninstall()
    expect((experiments.threshold_scan, process.restrict, process.count_rainbow_pm) == before,
           "uninstall restores the wrapped functions")
    expect(not rec.failures, f"witness checks failed: {rec.failures}")
    trials = sum(len(c.durations) for c in clocks)
    m = tracing.layer_metrics(rec.spans, trials)
    for name in ("model.restrict.calls", "count.count.calls", "count.find.calls",
                 "process.weight_profile.calls", "hamilton.hc.calls", "hamilton.assemble.calls"):
        expect(m[name] > 0, f"{name} is recorded")
    # n=3: 9 tuples x 3 colors weight counts plus the count of phi
    expect(m["process.count_calls_per_step"] == 3 * 3 * 3 + 1, "count calls per step at n=3")
    # self times partition the top-level spans, so they account for the wall
    # time up to the loop code between the driver calls
    top = sum(s.end - s.start for s in rec.spans if s.parent < 0)
    expect(abs(m["trace.attributed_s"] * trials - top) < 1e-9, "self times sum to the top spans")
    expect(0 <= wall - top < 0.05 * wall, f"unattributed {wall - top:.4f} s of {wall:.4f} s")


def check_corrupted_run() -> None:
    # one round of threshold-sparse holds enough trials, so the run is short
    name = "threshold-sparse"
    out = run.HERE / "out" / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(run.REFERENCE_DIR, out)
    path = out / f"{name}.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    key = str(master_seed(0, 0))
    ref["digests"][key] = "0" * 64
    path.write_text(json.dumps(ref), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    reference_dir, run.REFERENCE_DIR = run.REFERENCE_DIR, out
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run.main(["--workload", name, "--seed", "0", "--seconds", "0.1", "--trace", "0"])
    finally:
        run.REFERENCE_DIR = reference_dir
        shutil.rmtree(out)
    expect(code == 1, f"run with a corrupted reference returned {code}")
    expect(json.loads(stdout.getvalue().splitlines()[-1])["correct"] is False,
           "it reports correct: false")
    expect("differs from the reference" in stderr.getvalue(), "it names the mismatch")


def main() -> int:
    for check in (check_self_time, check_gate, check_budget_outs, check_tracing,
                  check_corrupted_run):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
