"""The benchmark under perfbench/ reaches into the package by name: the
layers it traces, the drivers and emitters a round calls, and the Hamilton
search it counts budget-outs on.  A renamed or deleted name fails here
instead of in a benchmark run.  A few rounds of the exact workloads are also
checked against the committed references, so a change that alters one
count, one weight or one find fails here too."""

import importlib.util
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
