"""The benchmark's workloads: which experiment drivers a round calls, with
which configuration, and how the run's seed picks each round's master seed.

This module imports nothing from the benchmark, so the set-up probe can load
it next to the package without paying for the benchmark's own imports.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rainbowmatch import experiments  # noqa: E402

# A run walks consecutive master seeds, one per round, starting at
# seed * STRIDE, and stops after at most STRIDE rounds.  Every master seed
# below POOL has a committed reference output, so seeds 0..POOL // STRIDE - 1
# have windows that do not overlap; larger seeds wrap onto them.  A 20 s run
# needs about 30 rounds at the reference speed, so STRIDE leaves room for a
# machine twice as fast.
STRIDE = 64
POOL = 12 * STRIDE

# Name of the driver and of the emitters that render its result, per kind.
DRIVERS = {
    "mean-count": ("mean_count_experiment", ("mean_count_csv",)),
    "threshold": ("threshold_scan", ("threshold_csv",)),
    "trace": ("trace_experiment", ("trace_steps_csv", "trace_summary_csv")),
    "hamilton": ("hamilton_experiment", ("hamilton_csv",)),
}


@dataclass(frozen=True)
class Workload:
    """One workload.

    calls     (kind, ExperimentConfig fields) per driver call in a round; the
              master seed and jobs=1 are added per round
    exact     True when the rendered CSV is compared byte for byte with the
              committed reference; False checks invariants instead
    tail      the percentile reported as trial_tail_s: p90, or p80 where a
              20 s run holds fewer than 100 trials (an untraced run goes on
              until 10 trials lie beyond it)

    Why each workload is in the benchmark is recorded next to its name in
    BENCHMARK.json.
    """

    name: str
    calls: tuple[tuple[str, dict], ...]
    exact: bool
    tail: int = 90

    def configs(self, master_seed: int) -> list[experiments.ExperimentConfig]:
        return [
            experiments.ExperimentConfig(kind=kind, master_seed=master_seed, jobs=1, **params)
            for kind, params in self.calls
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-dense",
            (("mean-count", {"ns": (10,), "trials": 5}),),
            exact=True,
        ),
        Workload(
            "threshold-sparse",
            (("threshold", {"ns": (14,), "ms": (70, 80, 100, 120), "trials": 40}),),
            exact=True,
        ),
        Workload(
            "trace-process",
            (("trace", {"ns": (5,), "trials": 4}),),
            exact=True,
            tail=80,
        ),
        Workload(
            "hamilton",
            (
                ("hamilton", {"ns": (15,), "ms": (60,), "trials": 16, "retries": 1,
                              "hc_budget": 1_500}),
                ("hamilton", {"ns": (40,), "ms": (780,), "trials": 16,
                              "node_budget": 6_000, "hc_budget": 1_500}),
            ),
            exact=False,
        ),
    )
}


def master_seed(seed: int, round_index: int) -> int:
    return (seed * STRIDE + round_index) % POOL
