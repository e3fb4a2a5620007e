"""Regenerate the reference digests of an exact workload.

    python3 perfbench/make_reference.py <workload>

Runs one round for every master seed of the pool, on as many worker
processes as there are CPUs, and writes the SHA-256 of
its rendered CSV to perfbench/reference/<workload>.json.  Run it only when a
workload's definition changes, never to make a failing run pass: the
reference pins the outputs of the code it was made with.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from run import REFERENCE_DIR, TrialClock, definition, digest, run_round
from workloads import POOL, WORKLOADS


def round_digest(task: tuple[str, int]) -> tuple[int, str]:
    name, mseed = task
    outputs, _ = run_round(WORKLOADS[name], mseed, TrialClock())
    return mseed, digest(outputs)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=[w.name for w in WORKLOADS.values() if w.exact])
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    tasks = [(workload.name, mseed) for mseed in range(POOL)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(mp_context=ctx) as pool:
        digests = dict(pool.map(round_digest, tasks))
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    ref = {
        "definition": definition(workload),
        "digests": {str(k): digests[k] for k in sorted(digests)},
    }
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
