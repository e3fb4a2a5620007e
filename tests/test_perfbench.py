"""The benchmark under perfbench/ reaches into the package by name: the
layers it traces, the drivers and emitters a round calls, and the Hamilton
search it counts budget-outs on.  A renamed or deleted name fails here
instead of in a benchmark run.  A few rounds of the exact workloads are also
checked against the committed references, so a change that alters one
count, one weight or one find fails here too, and a few hamilton rounds
against digests recorded here, since the benchmark checks that workload only
by invariants."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def run(monkeypatch):
    # run.py imports its siblings (workloads, calibrate, tracing) by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve(run):
    for layer, (home, names) in run.tracing.LAYERS.items():
        for name in names:
            assert callable(getattr(home, name, None)), (layer, name)
    for kind, (driver, emitters) in run.DRIVERS.items():
        for name in (driver, *emitters):
            assert callable(getattr(run.experiments, name, None)), (kind, name)
    for workload in run.WORKLOADS.values():
        assert workload.configs(0), workload.name
    # run.count_hc_budget_outs swaps this binding for a counting wrapper
    assert callable(run.experiments.find_rainbow_hc)


@pytest.mark.parametrize("name", ["count-dense", "threshold-sparse", "trace-process"])
def test_exact_workloads_match_their_references(run, name):
    workload = run.WORKLOADS[name]
    reference = run.load_reference(workload)
    for mseed in range(8):
        clock = run.TrialClock()
        outputs, _ = run.run_round(workload, mseed, clock)
        assert run.check_round(workload, mseed, outputs, clock.lines, reference) == []


# Recorded before the samplers drew in bulk: the rendered CSV and the raw
# lines (key, outcome, telemetry; not the time) of the hamilton workload.  The
# benchmark checks that workload only by invariants, so a change to the color
# or label stream would pass there while changing which trials end early.
HAMILTON_PINNED = {
    0: ("b6a4318d9942573428103eff097c6331a4b9a7acb428e6302763d5620b7c2ac4",
        "26e9390dc35d3de02b700847304e7929f5eccb319e56567c8b7513db30baaab0"),
    1: ("460aa8aff6fe404ca649a54214e7da0d902d98aae9f99ec775d7f0e61437c3f9",
        "da9c16a81bfed1103e709e7f6d697aa23c31deeae80ed480a4070c31c941e557"),
    2: ("7eb7603a2bcd80c7076d24de242285da043cb7fce4c09634aabf472edb4eda5c",
        "95cecfdb65947d10b564f5571c88ef757a2c8a952ec8257efa39aaf94f923d14"),
    3: ("5d1d2c258260dc04ec8a05ea20ee728881e89331aecdc176958367d1b7f19c39",
        "bf854d6a680f8b49cec00162a28b0fdcdbb21da1c6a08cec3f941e7b152b9633"),
}


def test_hamilton_workload_pinned(run):
    workload = run.WORKLOADS["hamilton"]
    for mseed, (csv_digest, lines_digest) in HAMILTON_PINNED.items():
        clock = run.TrialClock()
        outputs, _ = run.run_round(workload, mseed, clock)
        fields = "\n".join(json.dumps(json.loads(line)[:3]) for line in clock.lines)
        assert run.digest(outputs) == csv_digest, mseed
        assert hashlib.sha256(fields.encode()).hexdigest() == lines_digest, mseed


def test_traced_trace_round(run):
    # one trace-process round under the benchmark's span recorder: the
    # wrapped sampler and process must still yield the reference outputs,
    # one coloring and one deletion order per trial, and full traces
    workload = run.WORKLOADS["trace-process"]
    trials = sum(config.trials for config in workload.configs(0))
    rec = run.tracing.Recorder()
    clock = run.TrialClock()
    rec.install()
    try:
        outputs, _ = run.run_round(workload, 0, clock)
    finally:
        rec.uninstall()
    assert run.check_round(workload, 0, outputs, clock.lines, run.load_reference(workload)) == []
    assert rec.failures == []
    assert sum(span.name == "model.sample" for span in rec.spans) == 2 * trials
    runs = [span for span in rec.spans if span.name == "process.run"]
    assert len(runs) == trials and all(span.attrs == {"steps": 26} for span in runs)
