"""rainbowmatch benchmark: seeded experiment workloads, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run calls the public experiment drivers in `rainbowmatch.experiments` with
jobs=1, one round after another, until the rounds have taken --seconds and,
untraced, put BEYOND_TAIL trials beyond the workload's tail percentile, but
never for more than workloads.STRIDE rounds (the run's window of master
seeds).  Round r uses master seed `workloads.master_seed(seed, r)`.  Every
round's output is checked: exact workloads must render byte-identical CSV to
the committed reference (perfbench/reference/<workload>.json), the others
must satisfy the CSV invariants.  A mismatch makes the run report
`"correct": false` and exit 1.

--trace 0 reports the end-to-end metrics: set-up time (median over fresh
processes, in units of a bare interpreter's start-up), trials per second, the
median and the tail per-trial time (the workload's percentile: p90, or p80
where a run holds few trials), the fraction of trials answered without a
budget-out, and peak RSS.  Trial times are the gaps between the stamps the
benchmark's raw sink takes as each trial completes, so they include
sampling.  Every time is scaled to a reference machine speed by a calibration
kernel timed between rounds (calibrate.py); the run also prints the unscaled
trials per second.

--trace 1 runs each round once untraced and once with spans around the public
functions (see tracing.py) and reports per-layer counts and self times, the
part of the traced wall time no span covers, and the tracing overhead.  It
also checks every witness the searches return, makes one `cli.main` call
whose output must equal the library's, and on count-dense recounts a few
instances with the inclusion-exclusion route.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import DRIVERS, ROOT, STRIDE, WORKLOADS, Workload, master_seed

import calibrate
import tracing
from rainbowmatch import cli, experiments
from rainbowmatch.count import BudgetExceededError, count_rainbow_pm
from rainbowmatch.hamilton import STAGE_HC_BUDGET, STAGE_MATCHING_BUDGET, STAGE_SUCCESS

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SETUP_PROBES = 11
# trials an untraced run puts beyond the tail percentile, at least
BEYOND_TAIL = 10
ORACLE_INSTANCES = 3
BUDGET_STAGES = {STAGE_MATCHING_BUDGET, STAGE_HC_BUDGET}
HAMILTON_STAGES = (
    "edge_class_too_small", "matching_not_found", "matching_budget",
    "hc_not_found", "hc_budget", "lift_failed",
)


class TrialClock:
    """The drivers' raw sink: stamps each completed trial.  The JSON line is
    kept as is and parsed after the round, outside the timed region.

    It also keeps, per trial, how many Hamilton-cycle searches called by the
    odd pipeline ran out of budget (`count_hc_budget_outs`): that pipeline
    reports a trial whose only attempt ran out of budget as hc-not-found, so
    its stage alone cannot tell."""

    def __init__(self):
        self.durations: list[float] = []
        self.lines: list[str] = []
        self.hc_budget_outs: list[int] = []
        self.budget_outs = 0
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def write(self, line: str) -> None:
        now = time.perf_counter()
        self.durations.append(now - self._last)
        self._last = now
        self.lines.append(line)
        self.hc_budget_outs.append(self.budget_outs)
        self.budget_outs = 0

    def flush(self) -> None:
        pass


class Speed:
    """Times the calibration kernel between rounds (see calibrate.py)."""

    def __init__(self):
        self._last = calibrate.kernel_seconds()

    def scale(self) -> float:
        """Scale for whatever ran since the previous call: the reference
        kernel time over the mean of the kernel times around it."""
        now = calibrate.kernel_seconds()
        scale = calibrate.REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return scale


@contextlib.contextmanager
def count_hc_budget_outs(clock: TrialClock):
    """Count on `clock` the budget-outs of the Hamilton-cycle searches the odd
    hamilton pipeline makes (one per attempt, so the count costs nothing
    measurable)."""
    search = experiments.find_rainbow_hc

    def counted(*args, **kwargs):
        try:
            return search(*args, **kwargs)
        except BudgetExceededError:
            clock.budget_outs += 1
            raise

    experiments.find_rainbow_hc = counted
    try:
        yield
    finally:
        experiments.find_rainbow_hc = search


def run_round(workload: Workload, mseed: int, clock: TrialClock) -> tuple[list[list[str]], float]:
    """One round: every driver call of the workload, rendered as the CLI would.
    Returns the rendered outputs per call and the round's wall time."""
    outputs = []
    with count_hc_budget_outs(clock):
        t0 = time.perf_counter()
        for config in workload.configs(mseed):
            driver, emitters = DRIVERS[config.kind]
            clock.start()
            result = getattr(experiments, driver)(config, raw_sink=clock)
            outputs.append([getattr(experiments, name)(result) for name in emitters])
        wall = time.perf_counter() - t0
    return outputs, wall


def digest(outputs: list[list[str]]) -> str:
    return hashlib.sha256("\0".join(text for call in outputs for text in call).encode()).hexdigest()


def load_reference(workload: Workload) -> dict | None:
    if not workload.exact:
        return None
    ref = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text(encoding="utf-8"))
    if ref["definition"] != definition(workload):
        raise SystemExit(f"perfbench: {workload.name} changed since its reference was made; "
                         "run perfbench/make_reference.py")
    return ref["digests"]


def definition(workload: Workload) -> list:
    return json.loads(json.dumps(workload.calls))


def answered(clock: TrialClock) -> int:
    """Trials that ended without a budget-out (found or proven absent).  A
    hamilton trial that did not succeed is unanswered when one of its
    Hamilton-cycle searches ran out of budget, whatever stage it reports."""
    n = 0
    for line, hc_budget_outs in zip(clock.lines, clock.hc_budget_outs):
        _, outcome, value, _ = json.loads(line)
        stage = value.get("stage_reached") if isinstance(value, dict) else None
        if outcome == "budget" or stage in BUDGET_STAGES:
            continue
        if stage != STAGE_SUCCESS and hc_budget_outs:
            continue
        n += 1
    return n


def check_round(workload: Workload, mseed: int, outputs, lines, reference) -> list[str]:
    """Problems with one round's output; empty when it is correct."""
    if workload.exact:
        want = reference.get(str(mseed))
        if want is None:
            return [f"no reference for master seed {mseed}"]
        if digest(outputs) != want:
            return [f"master seed {mseed}: output differs from the reference"]
        return []
    # hamilton: the witness order may change, so check invariants
    errors = []
    stages = Counter(json.loads(line)[2]["stage_reached"] for line in lines)
    seen = Counter()
    for config, call in zip(workload.configs(mseed), outputs):
        for row in csv.DictReader(io.StringIO(call[0])):
            trials = int(row["trials"])
            success = int(row["success"])
            counts = [int(row[c]) for c in HAMILTON_STAGES]
            if trials != config.trials or success + sum(counts) != trials:
                errors.append(f"master seed {mseed}: stage columns do not sum to trials: {row}")
            seen[STAGE_SUCCESS] += success
            for c, v in zip(HAMILTON_STAGES, counts):
                seen[c.replace("_", "-")] += v
    if +seen != stages:
        errors.append(f"master seed {mseed}: CSV stages {dict(seen)} != trial stages {dict(stages)}")
    return errors


class Totals:
    def __init__(self):
        self.rounds = 0
        self.trials = 0
        self.failed = 0
        self.answered = 0
        self.raw_wall = 0.0
        self.wall = 0.0
        self.durations: list[float] = []
        self.scales: list[float] = []
        self.errors: list[str] = []
        self.first_outputs = None

    def add(self, workload, mseed, outputs, wall, scale, clock, reference, extra_errors=()):
        """Record one round; `scale` converts its times to the reference
        machine speed."""
        errors = check_round(workload, mseed, outputs, clock.lines, reference) + list(extra_errors)
        if self.first_outputs is None:
            self.first_outputs = outputs
        self.rounds += 1
        self.trials += len(clock.durations)
        self.failed += len(clock.durations) if errors else 0
        self.answered += answered(clock)
        self.raw_wall += wall
        self.wall += wall * scale
        self.durations += [d * scale for d in clock.durations]
        self.scales.append(scale)
        self.errors += errors


def started_seconds(args: list[str]) -> float:
    """Time from spawning `python3 <args>` until it prints the monotonic
    clock (shared by all processes on Linux) as its last output."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.split()[-1]) - t0


def setup_seconds(workload: Workload) -> float:
    """Time from process start to the point where the first trial would
    begin, at the reference machine speed: the median over fresh processes
    of that time over the start-up time of a bare interpreter spawned just
    before it, times the bare start-up time at the reference speed."""
    ratios = [
        started_seconds([str(HERE / "setup_probe.py"), workload.name])
        / started_seconds(["-c", calibrate.BARE_START])
        for _ in range(SETUP_PROBES)
    ]
    return statistics.median(ratios) * calibrate.BARE_START_REFERENCE_S


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def more_rounds(totals: Totals, raw_wall: float, seconds: float, min_trials: int) -> bool:
    """Whether a run goes on: until its rounds have taken `seconds` and hold
    `min_trials` trials, within its STRIDE master seeds."""
    return totals.rounds < STRIDE and (raw_wall < seconds or totals.trials < min_trials)


def end_to_end(workload: Workload, seed: int, seconds: float, reference) -> tuple[Totals, dict]:
    setup_s = setup_seconds(workload)
    speed = Speed()
    totals = Totals()
    min_trials = math.ceil(BEYOND_TAIL * 100 / (100 - workload.tail))
    while more_rounds(totals, totals.raw_wall, seconds, min_trials):
        mseed = master_seed(seed, totals.rounds)
        clock = TrialClock()
        outputs, wall = run_round(workload, mseed, clock)
        totals.add(workload, mseed, outputs, wall, speed.scale(), clock, reference)
    print(f"{workload.name}: {totals.rounds} rounds (at most {STRIDE}), {totals.trials} trials, "
          f"tail = p{workload.tail} of {totals.trials} trial times; unscaled "
          f"{totals.trials / totals.raw_wall:.4f} trials/s, median speed scale "
          f"{statistics.median(totals.scales):.4f}")
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": totals.trials / totals.wall,
        "trial_p50_s": statistics.median(totals.durations),
        "trial_tail_s": percentile(totals.durations, workload.tail),
        "answered_frac": totals.answered / totals.trials,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return totals, metrics


def cli_argv(config: experiments.ExperimentConfig) -> list[str]:
    argv = [config.kind, "--n", ",".join(map(str, config.ns))]
    if config.ms:
        argv += ["--m", ",".join(map(str, config.ms))]
    if config.kind == "hamilton":
        argv += ["--retries", str(config.retries), "--hc-budget", str(config.hc_budget)]
    else:
        argv += ["--k", str(config.k)]
    return argv + ["--trials", str(config.trials), "--seed", str(config.master_seed),
                   "--budget", str(config.node_budget)]


def per_layer(workload: Workload, seed: int, seconds: float, reference) -> tuple[Totals, dict]:
    rec = tracing.Recorder(ORACLE_INSTANCES if workload.name == "count-dense" else 0)
    totals = Totals()
    speed = Speed()
    untraced = untraced_raw = 0.0
    while more_rounds(totals, untraced_raw + totals.raw_wall, seconds, 0):
        mseed = master_seed(seed, totals.rounds)
        clock = TrialClock()
        outputs, wall = run_round(workload, mseed, clock)
        errors = check_round(workload, mseed, outputs, clock.lines, reference)
        untraced_raw += wall
        untraced += wall * speed.scale()
        clock = TrialClock()
        witness_failures = len(rec.failures)
        rec.install()
        try:
            outputs, wall = run_round(workload, mseed, clock)
        finally:
            rec.uninstall()
        totals.add(workload, mseed, outputs, wall, speed.scale(), clock, reference,
                   errors + rec.failures[witness_failures:])

    # one CLI call, traced on its own: it must print what the library rendered
    config = workload.configs(master_seed(seed, 0))[0]
    cli_rec = tracing.Recorder()
    stdout = io.StringIO()
    cli_rec.install()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(cli_argv(config))
    finally:
        cli_rec.uninstall()
    if code != 0 or stdout.getvalue() != totals.first_outputs[0][0]:
        totals.errors.append(f"cli.main exited {code} or printed other output than the library")
    totals.errors += cli_rec.failures

    # untimed oracle: the inclusion-exclusion route must agree with brute force
    for H, value in rec.count_instances:
        if count_rainbow_pm(H, method="ie").value != value:
            totals.errors.append("inclusion-exclusion count differs from the brute-force count")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"spans-{workload.name}.jsonl")

    # span times are scaled by the run's median speed scale
    scale = statistics.median(totals.scales)
    metrics = tracing.layer_metrics(rec.spans, totals.trials)
    metrics["cli.self_s"] = sum(st for s, st in zip(cli_rec.spans, tracing.self_times(cli_rec.spans))
                                if s.name == "cli")
    metrics["trace.wall_s"] = totals.raw_wall / totals.trials
    metrics["trace.unattributed_s"] = metrics["trace.wall_s"] - metrics.pop("trace.attributed_s")
    for name in metrics:
        if name.endswith("per_s"):
            metrics[name] /= scale
        elif name.endswith("_s"):
            metrics[name] *= scale
    check_s = metrics["bench.check_s"] * totals.trials
    metrics["trace.overhead"] = (totals.wall - check_s) / untraced
    metrics["trace.trials"] = totals.trials
    print(f"{workload.name}: {totals.rounds} rounds, {totals.trials} trials traced, "
          f"{len(rec.spans)} spans; traced {totals.wall:.3f} s vs untraced {untraced:.3f} s "
          f"at the reference speed (median scale {scale:.4f}); per trial:")
    for name, value in metrics.items():
        if name.endswith("self_s") or name.startswith(("trace.", "bench.")):
            print(f"  {name:32s} {value:12.6f}")
    return totals, metrics


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    reference = load_reference(workload)
    measure = per_layer if args.trace else end_to_end
    totals, values = measure(workload, args.seed, args.seconds, reference)
    for error in totals.errors:
        print(f"perfbench: INCORRECT: {error}", file=sys.stderr)
    correct = not totals.errors
    result = {
        "correct": correct,
        "attempted": totals.trials,
        "failed": totals.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared_metrics(bool(args.trace))
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
