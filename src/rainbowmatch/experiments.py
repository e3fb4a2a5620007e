"""Experiment drivers: threshold scans, mean-count calibration, deletion
traces, Hamilton pipelines, and SVG plotting.

Determinism contract: a given ExperimentConfig (including master_seed) yields
byte-identical CSV no matter how many workers run the trials.  Three rules
make that work: every trial owns a fixed substream index derived from its
(cell, trial) position; workers return rows that are merged by that key, not
by arrival order; and no wall-clock value is ever written to CSV (elapsed
fields live in the JSON reports only).

CSV schemas (fixed, also documented in the README):

threshold     `n,k,kappa,m,trials,successes,p_hat,se,absent,budget`
mean-count    `n,k,kappa,trials,mean,expected_mean,mean_se,
              second_moment,expected_second_moment,second_moment_se,budget`
trace steps   `i,phi,xi,gamma,p_i,w_max,w_avg,w_med,B,R,C`
              (a trial column is prepended when trials > 1)
trace summary `i,gamma,mean_xi,se_xi,trials_positive,
              sum_gamma_exact,sum_gamma_closed`
hamilton      `n,m,colors,mode,trials,success,edge_class_too_small,
              matching_not_found,matching_budget,hc_not_found,hc_budget,
              lift_failed,p_hat,se`
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

from .count import (
    BudgetExceededError,
    DEFAULT_NODE_BUDGET,
    _check_budget,
    _check_layout_bits,
    count_rainbow_pm,
    expected_rainbow_count,
    find_rainbow_pm,
    second_moment_exact,
)
from .hamilton import (
    DEFAULT_HC_BUDGET,
    FAILURE_STAGES,
    STAGE_HC_BUDGET,
    STAGE_HC_NOT_FOUND,
    STAGE_LIFT_FAILED,
    STAGE_SUCCESS,
    assemble_even,
    contract_color_delete,
    find_rainbow_hc,
    is_rainbow_hamilton_cycle,
    lift_cycle,
)
from .model import (
    _SHAPE_CACHE_SIZE,
    DEFAULT_EDGE_CAPACITY,
    GRAPH,
    PARTITE,
    CapacityError,
    RandomnessSpec,
    _check_draw,
    _key_edges,
    complete_colored,
    random_edge_ordering,
    sample_colored_graph,
    sample_partite_m,
)
from .process import (
    _DEAD_XI,
    DEFAULT_ABUNDANCE,
    EventParams,
    _check_t_max,
    _check_table,
    _step_ratios,
    run_deletion_process,
)

__all__ = [
    "ExperimentConfig",
    "TrialRow",
    "ExperimentResult",
    "threshold_scan",
    "threshold_table",
    "threshold_csv",
    "mean_count_experiment",
    "mean_count_table",
    "mean_count_csv",
    "trace_experiment",
    "trace_steps_table",
    "trace_steps_csv",
    "trace_summary_csv",
    "hamilton_experiment",
    "hamilton_table",
    "hamilton_csv",
    "hamilton_trials_json",
    "table_json",
    "PlotSpec",
    "emit_plot",
]

# ExperimentConfig's count fields but its budgets, each with its smallest value
_COUNT_FIELDS = {"trials": 1, "jobs": 1, "retries": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one experiment run; a runner ignores the fields it does
    not use.  Each count field is an int (a bool or a float is refused) of
    at least its bound in `_COUNT_FIELDS`, or 1 for a budget (`count._check_budget`)."""

    kind: str
    ns: tuple[int, ...]
    k: int = 2
    kappa: int | None = None  # None: kappa = n per cell
    ms: tuple[int, ...] = ()
    trials: int = 1
    master_seed: int = 0
    jobs: int = 1
    node_budget: int = DEFAULT_NODE_BUDGET
    hc_budget: int = DEFAULT_HC_BUDGET
    t_max: int | None = None
    retries: int = 0
    event_abundance: float = DEFAULT_ABUNDANCE

    def __post_init__(self):
        for name, low in _COUNT_FIELDS.items():
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
        _check_budget(self.node_budget, "node_budget")
        _check_budget(self.hc_budget, "hc_budget")

    def kappa_for(self, n: int) -> int:
        return self.kappa if self.kappa is not None else n


@dataclass(frozen=True)
class TrialRow:
    cell: tuple
    trial: int
    outcome: str  # found | absent | budget
    value: object
    elapsed: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[TrialRow, ...]

    def by_cell(self) -> dict[tuple, list[TrialRow]]:
        cells: dict[tuple, list[TrialRow]] = {}
        for row in self.rows:
            cells.setdefault(row.cell, []).append(row)
        return cells


def _fmt(x) -> str:
    """Deterministic CSV cell rendering; None becomes an empty cell."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, Fraction):
        return repr(float(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(map(_fmt, row)))
    return "\n".join(out) + "\n"


def table_json(kind: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The same table a CSV emitter writes, as a JSON document.  JSON has no
    nan or inf, so a non-finite cell is null, as an empty one is."""
    records = []
    for row in rows:
        rec = {}
        for h, v in zip(header, row):
            if isinstance(v, Fraction):
                v = float(v)
            if isinstance(v, float) and not math.isfinite(v):
                v = None
            rec[h] = v
        records.append(rec)
    return json.dumps({"kind": kind, "rows": records}, indent=2, allow_nan=False) + "\n"


def _p_hat_se(successes: int, trials: int) -> tuple[float, float]:
    p = successes / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def _finished(worker: Callable, tasks: list, jobs: int):
    """Yield worker(*task) for every task, in completion order.  jobs > 1
    runs them in a process pool of at most jobs workers, and never more
    than there are tasks or CPUs: under the fork start method the pool
    starts every worker it is given at its first submit.  The pool is
    imported here, so a serial run never loads `multiprocessing`."""
    if jobs <= 1:
        for task in tasks:
            yield worker(*task)
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
        futures = [pool.submit(worker, *task) for task in tasks]
        for fut in as_completed(futures):
            yield fut.result()


def _timed(trial: Callable, key: tuple, config: ExperimentConfig, cell: tuple, stream: int):
    """One trial's raw line (key, outcome, value, elapsed): trial(config,
    cell, stream) returns (outcome, value), a budget-out anywhere in it is
    ("budget", None), and elapsed is the whole trial, sampling included."""
    t0 = time.perf_counter()
    try:
        outcome, value = trial(config, cell, stream)
    except BudgetExceededError:
        outcome, value = "budget", None
    return key, outcome, value, time.perf_counter() - t0


# one encoder for every raw line (json.dumps builds one per call); no cycles
_RAW_LINE = json.JSONEncoder(default=str, check_circular=False)


def _run_grid(
    config: ExperimentConfig, axes: tuple[Sequence, ...], check: Callable, trial: Callable,
    raw_sink=None,
) -> ExperimentResult:
    """Run trial `config.trials` times per cell of the grid product(*axes),
    each through `_timed`, once the grid passes its one gate, asked from the
    axes' sizes before any cell is built: an empty grid is refused
    (ValueError), then one of more trials than `model.DEFAULT_EDGE_CAPACITY`
    (CapacityError), then each cell by check(config, *cell), the kind's one
    rule of all its trial could refuse.  Trial t of cell ci has key (ci, t)
    and owns stream ci * trials + t; with jobs > 1 the rows are sorted by
    key, so the output is independent of completion order.  An optional raw
    sink receives one JSON line per completed trial, in completion order (a
    progress stream)."""
    cell_count = math.prod(map(len, axes))
    if not cell_count:
        raise ValueError("parameter grid must be nonempty")
    if (size := cell_count * config.trials) > DEFAULT_EDGE_CAPACITY:
        raise CapacityError(f"grid of {size} trials exceeds capacity {DEFAULT_EDGE_CAPACITY}")
    cells = list(product(*axes))
    for cell in cells:
        check(config, *cell)
    tasks = [
        (trial, (ci, t), config, cell, ci * config.trials + t)
        for ci, cell in enumerate(cells)
        for t in range(config.trials)
    ]
    results = []
    for res in _finished(_timed, tasks, config.jobs):
        results.append(res)
        if raw_sink is not None:
            raw_sink.write(_RAW_LINE.encode(res) + "\n")
            raw_sink.flush()
    return ExperimentResult(config, tuple(
        TrialRow(cells[ci], t, outcome, value, elapsed)
        for (ci, t), outcome, value, elapsed in sorted(results, key=lambda r: r[0])
    ))


def _check_cell(config: ExperimentConfig, n: int, m: int | None = None) -> int:
    """n^k, once the partite cell (n, m), m None for the complete instance,
    passes its sampler's rule (`model._check_draw`) and its layout's cap."""
    k, kappa = config.k, config.kappa_for(n)
    total = _check_draw(PARTITE, n, k, kappa, m)
    _check_layout_bits(total if m is None else m, n * k, k, kappa)
    return total


# -- threshold scan -------------------------------------------------------------


def _threshold_trial(config: ExperimentConfig, cell: tuple, stream: int):
    n, m = cell
    rnd = RandomnessSpec(config.master_seed, stream).rng()
    H = sample_partite_m(n, config.k, config.kappa_for(n), m, rnd)
    M = find_rainbow_pm(H, budget=config.node_budget)
    return ("found" if M is not None else "absent"), None


def threshold_scan(config: ExperimentConfig, raw_sink=None) -> ExperimentResult:
    """`trials` samples of the m-edge model per (n, m) cell (`_check_cell`),
    solved exactly; a budget-out is its own outcome, never folded into absent."""
    return _run_grid(config, (config.ns, config.ms), _check_cell, _threshold_trial, raw_sink)


def threshold_table(result: ExperimentResult) -> tuple[list[str], list[list]]:
    header = ["n", "k", "kappa", "m", "trials", "successes", "p_hat", "se", "absent", "budget"]
    lines = []
    config = result.config
    for cell, rows in result.by_cell().items():
        n, m = cell
        successes = sum(1 for r in rows if r.outcome == "found")
        absent = sum(1 for r in rows if r.outcome == "absent")
        budget = sum(1 for r in rows if r.outcome == "budget")
        p, se = _p_hat_se(successes, len(rows))
        lines.append(
            [n, config.k, config.kappa_for(n), m, len(rows), successes, p, se, absent, budget]
        )
    return header, lines


def threshold_csv(result: ExperimentResult) -> str:
    return _csv_lines(*threshold_table(result))


# -- mean count calibration -------------------------------------------------------


def _mean_count_trial(config: ExperimentConfig, cell: tuple, stream: int):
    (n,) = cell
    rnd = RandomnessSpec(config.master_seed, stream).rng()
    H = complete_colored(n, config.k, config.kappa_for(n), rnd)
    return "found", count_rainbow_pm(H, budget=config.node_budget).value


def mean_count_experiment(config: ExperimentConfig, raw_sink=None) -> ExperimentResult:
    """Exact-count `trials` random colorings of the complete instance per n
    (`_check_cell`), against the closed-form mean and second moment."""
    return _run_grid(config, (config.ns,), _check_cell, _mean_count_trial, raw_sink)


def _moment_stats(values: Sequence[int], power: int) -> tuple[float, float]:
    """(sample mean of x^power, standard error of that mean)."""
    xs = [float(v) ** power for v in values]
    mean = math.fsum(xs) / len(xs)
    if len(xs) < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    return mean, math.sqrt(var / len(xs))


def mean_count_table(result: ExperimentResult) -> tuple[list[str], list[list]]:
    """The closed forms hold for kappa = n only; at other color counts their
    cells are empty."""
    header = [
        "n", "k", "kappa", "trials",
        "mean", "expected_mean", "mean_se",
        "second_moment", "expected_second_moment", "second_moment_se",
        "budget",
    ]
    config = result.config
    lines = []
    for cell, rows in result.by_cell().items():
        (n,) = cell
        counted = [r.value for r in rows if r.outcome == "found"]
        budget = sum(1 for r in rows if r.outcome == "budget")
        if counted:
            mean, mean_se = _moment_stats(counted, 1)
            m2, m2_se = _moment_stats(counted, 2)
        else:
            mean = mean_se = m2 = m2_se = float("nan")
        kappa = config.kappa_for(n)
        closed = kappa == n
        lines.append(
            [
                n, config.k, kappa, len(rows),
                mean, expected_rainbow_count(n, config.k) if closed else None, mean_se,
                m2, second_moment_exact(n, config.k) if closed else None, m2_se,
                budget,
            ]
        )
    return header, lines


def mean_count_csv(result: ExperimentResult) -> str:
    return _csv_lines(*mean_count_table(result))


# -- deletion trace -----------------------------------------------------------------


# the fields of process.DeletionStep, in order
TRACE_STEP_HEADER = ["i", "phi", "xi", "gamma", "p_i", "w_max", "w_avg", "w_med", "B", "R", "C"]


def _trace_trial(config: ExperimentConfig, cell: tuple, stream: int):
    (n,) = cell
    rnd = RandomnessSpec(config.master_seed, stream).rng()
    H0 = complete_colored(n, config.k, config.kappa_for(n), rnd)
    ordering = random_edge_ordering(H0, rnd)
    trace = run_deletion_process(
        H0,
        ordering,
        t_max=config.t_max,
        params=EventParams.from_abundance(config.event_abundance),
        budget=config.node_budget,
    )
    return "found", trace.steps


def trace_experiment(config: ExperimentConfig, raw_sink=None) -> ExperimentResult:
    """Fresh coloring and fresh uniform deletion order per trial; each trial's
    TrialRow.value is the full step tuple list for the CSV emitters.  One
    cell, its rule `_trace_shape`, so trial t owns stream t."""
    if len(config.ns) != 1:
        raise ValueError("trace experiment runs one n at a time")
    return _run_grid(config, (config.ns,), _trace_shape, _trace_trial, raw_sink)


def _trace_shape(config: ExperimentConfig, n: int) -> tuple[int, int, int]:
    """(n, N, t_max) of the trace cell n, N = n^k edges and t_max steps, once
    all its trial could refuse holds: `_check_cell`, the abundance K, the
    n^k * kappa weight table (`process._check_table`) and t_max."""
    N = _check_cell(config, n)
    EventParams.from_abundance(config.event_abundance)
    _check_table((N, config.kappa_for(n)))
    return n, N, _check_t_max(config.t_max, N)


TRACE_SUMMARY_HEADER = ["i", "gamma", "mean_xi", "se_xi", "trials_positive",
                        "sum_gamma_exact", "sum_gamma_closed"]


def _summary_sums(n: int, N: int, t_max: int) -> list[tuple[float, float | None]]:
    """(sum_gamma_exact, sum_gamma_closed) at steps t = 1..t_max, in one
    running pass: sum_{i=1..t} n/(N-i+1) against n*log(N/(N-t)).  The float
    terms 1.0/(N-i+1) are summed exactly and rounded once per t, which is
    math.fsum of them, then multiplied by n.  The closed form under-approaches
    the exact sum from below with gap at most 2n/(N-t): each harmonic term
    n/(N-i+1) lies between the integral slices of n/x on [N-i+1, N-i+2] and
    [N-i, N-i+1].  It diverges once every edge is gone, so at t = N it is None."""
    total = Fraction(0)
    sums = []
    for t in range(1, t_max + 1):
        total += Fraction(1.0 / (N - t + 1))
        sums.append((n * float(total), n * math.log(N / (N - t)) if t < N else None))
    return sums


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _ratio_cells(n: int, N: int, t_max: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """The trace CSV cells that depend on the shape alone, rendered once per
    shape: the steps' "gamma,p_i" at steps 0..t_max (`process._step_ratios`)
    and the summary's "i,gamma" and "sum_gamma_exact,sum_gamma_closed"."""
    ps, gammas = _step_ratios(n, N, t_max)
    summary = [(f"{i},{_fmt(gammas[i])}", f"{_fmt(exact)},{_fmt(closed)}")
               for i, (exact, closed) in enumerate(_summary_sums(n, N, t_max), 1)]
    return tuple(f"{_fmt(gamma)},{_fmt(p)}" for gamma, p in zip(gammas, ps)), tuple(summary)


def trace_steps_table(result: ExperimentResult) -> tuple[list[str], list[list]]:
    multi = len(result.rows) > 1
    header = (["trial"] if multi else []) + TRACE_STEP_HEADER
    lines = []
    for row in result.rows:
        for step in row.value or ():  # a budget row has no steps
            lines.append(([row.trial] if multi else []) + list(step))
    return header, lines


def _step_cell(x: Fraction | int | None) -> str:
    # xi and w_avg (a Fraction or None) and w_med (an int or None) as `_fmt`
    # renders them; the settled steps of a trace share one Fraction 0
    if x is None:
        return ""
    if type(x) is int:
        return str(x)
    return "0.0" if x is _DEAD_XI else repr(x.numerator / x.denominator)


def trace_steps_csv(result: ExperimentResult) -> str:
    """trace_steps_table as CSV, each cell rendered by its `DeletionStep`
    field's type.  A step's gamma and p_i depend on its index and the
    trace's shape alone, so they come rendered from `_ratio_cells`."""
    multi = len(result.rows) > 1
    out = [",".join((["trial"] if multi else []) + TRACE_STEP_HEADER)]
    shape = _trace_shape(result.config, *result.config.ns)
    cell, flag = _step_cell, ("0", "1")
    for row in result.rows:
        steps = row.value or ()  # a budget row has no steps, and renders no ratios
        ratios = _ratio_cells(*shape)[0] if steps else ()
        lead = f"{row.trial}," if multi else ""
        for (i, phi, xi, _, _, w_max, w_avg, w_med, b, r, c), ratio in zip(steps, ratios):
            out.append(f"{lead}{i},{phi},{cell(xi)},{ratio},{w_max},{cell(w_avg)},"
                       f"{cell(w_med)},{flag[b]},{flag[r]},{flag[c]}")
    return "\n".join(out) + "\n"


def _positive_xis(result: ExperimentResult, t_max: int) -> list[list[float]]:
    """Per step i = 1..t_max, the xi of each trial whose previous count was
    still positive (the regime where the step-rate identity applies)."""
    per_step: list[list[float]] = [[] for _ in range(t_max)]
    for row in result.rows:
        steps = row.value or ()  # a budget row has no steps
        for prev, step in zip(steps, steps[1:]):
            if not prev.phi:
                break  # a count that reached 0 stays 0
            per_step[step.index - 1].append(step.xi.numerator / step.xi.denominator)
    return per_step


def trace_summary_csv(result: ExperimentResult) -> str:
    """Per step i: gamma, the mean of xi over the trials `_positive_xis` keeps,
    its SE, their count, and the cumulative rate sum against its closed form.
    Only mean_xi, se_xi and trials_positive are rendered per result, the
    other cells come from `_ratio_cells`."""
    shape = _trace_shape(result.config, *result.config.ns)
    out = [",".join(TRACE_SUMMARY_HEADER)]
    for (head, sums), xs in zip(_ratio_cells(*shape)[1], _positive_xis(result, shape[2])):
        mean, se = _moment_stats(xs, 1) if xs else (None, None)
        out.append(f"{head},{_fmt(mean)},{_fmt(se)},{len(xs)},{sums}")
    return "\n".join(out) + "\n"


# -- hamilton pipeline ----------------------------------------------------------------


_STAGES = (*FAILURE_STAGES, STAGE_SUCCESS)
_BUDGET_STAGES = frozenset(s for s in FAILURE_STAGES if s.endswith("-budget"))
# The stages an odd trial's attempt can end at, worst first: a budget-out
# ranks below every answered stage, answered stages rank by how far the
# pipeline got.
_ATTEMPT_RANK = (STAGE_HC_BUDGET, STAGE_HC_NOT_FOUND, STAGE_LIFT_FAILED, STAGE_SUCCESS)


def _odd_attempt(config: ExperimentConfig, n: int, m: int, tag: str) -> str:
    """One odd-n attempt on a fresh sample drawn from stream tag (slash
    separated, so it cannot collide with the plain integer streams): contract
    a random edge, solve the even-order remainder, lift back.  Returns the
    stage it ends at.  The edge is picked by index (the one `_randbelow(m)`
    of `rnd.choice(G.edges)`), and G's edges view is never built for it."""
    rnd = RandomnessSpec(config.master_seed, tag).rng()
    G = sample_colored_graph(n, m, config.kappa_for(n), rnd)
    e = _key_edges(G, (rnd.choice(range(len(G.keys))),))[0]
    Gp, cmap = contract_color_delete(G, e)
    try:
        hc = find_rainbow_hc(Gp, budget=config.hc_budget)
    except BudgetExceededError:
        return STAGE_HC_BUDGET
    if hc is None:
        return STAGE_HC_NOT_FOUND
    lifted = lift_cycle(hc, cmap, e)
    if lifted is None:
        return STAGE_LIFT_FAILED
    if not is_rainbow_hamilton_cycle(G, lifted):
        raise RuntimeError("lift: the lifted cycle is not a rainbow Hamilton cycle of G")
    return STAGE_SUCCESS


def _hamilton_trial(config: ExperimentConfig, cell: tuple, stream: int):
    n, m = cell
    if n % 2 == 0:
        rnd = RandomnessSpec(config.master_seed, stream).rng()
        G = sample_colored_graph(n, m, config.kappa_for(n), rnd)
        plan, hc = assemble_even(
            G, rnd, matching_budget=config.node_budget, hc_budget=config.hc_budget
        )
        telemetry = {
            "stage_reached": plan.stage,
            "sizes": list(plan.class_sizes),
            "matchings_found": sum(1 for M in plan.matchings if M is not None),
            "hc_found": hc is not None,
            "attempts": None,
        }
    else:
        # odd n: a trial reports its furthest attempt.  best starts at the
        # lowest stage an attempt can reach, so a budget-out is never folded
        # into hc-not-found.
        best = STAGE_HC_BUDGET
        for attempt in range(config.retries):
            stage = _odd_attempt(config, n, m, f"{stream}/{attempt}")
            best = max(best, stage, key=_ATTEMPT_RANK.index)
            if best == STAGE_SUCCESS:
                break
        telemetry = {
            "stage_reached": best,
            "sizes": None,
            "matchings_found": None,
            # an attempt reaches the lift only with a cycle of the contraction
            "hc_found": best in (STAGE_LIFT_FAILED, STAGE_SUCCESS),
            "attempts": attempt + 1,
        }
    stage = telemetry["stage_reached"]
    if stage in _BUDGET_STAGES:
        return "budget", telemetry
    return ("found" if stage == STAGE_SUCCESS else "absent"), telemetry


def _check_hamilton_cell(config: ExperimentConfig, n: int, m: int) -> None:
    """Refuse the cell (n, m) unless n >= 4, kappa = n, the graph sampler's
    rule (`model._check_draw`) holds and, for odd n, retries >= 1, m >= 1
    and the cycle search fits the layout cap: the contraction keeps at most
    m - 1 edges on n - 1 vertices with n colors."""
    if n < 4:
        raise ValueError("hamilton experiment needs n >= 4")
    if n % 2 == 1 and config.retries < 1:
        raise ValueError("odd n requires retries >= 1")
    if config.kappa_for(n) != n:
        raise ValueError("the pipelines require exactly n colors")
    _check_draw(GRAPH, n, 2, n, m)
    if n % 2 == 1:
        if m < 1:
            raise ValueError(f"cell (n={n}, m={m}): odd n contracts an edge, so needs m >= 1")
        _check_layout_bits(m - 1, n - 1, 2, n)


def hamilton_experiment(config: ExperimentConfig, raw_sink=None) -> ExperimentResult:
    """Stage telemetry for the even-n assembly or the odd-n contract-and-lift
    pipeline, one cell per (n, m), its rule `_check_hamilton_cell`."""
    return _run_grid(config, (config.ns, config.ms), _check_hamilton_cell, _hamilton_trial,
                     raw_sink)


def hamilton_table(result: ExperimentResult) -> tuple[list[str], list[list]]:
    """One column per failure stage, named after it with underscores."""
    header = (
        ["n", "m", "colors", "mode", "trials", "success"]
        + [stage.replace("-", "_") for stage in FAILURE_STAGES]
        + ["p_hat", "se"]
    )
    config = result.config
    lines = []
    for cell, rows in result.by_cell().items():
        n, m = cell
        hist = dict.fromkeys(_STAGES, 0)
        for r in rows:
            hist[r.value["stage_reached"]] += 1
        successes = hist[STAGE_SUCCESS]
        p, se = _p_hat_se(successes, len(rows))
        lines.append(
            [n, m, config.kappa_for(n), "even" if n % 2 == 0 else "odd", len(rows), successes]
            + [hist[stage] for stage in FAILURE_STAGES]
            + [p, se]
        )
    return header, lines


def hamilton_csv(result: ExperimentResult) -> str:
    return _csv_lines(*hamilton_table(result))


def hamilton_trials_json(result: ExperimentResult) -> str:
    """Per-trial JSON telemetry (this report, unlike the CSV, includes wall
    time)."""
    config = result.config
    cells = [
        {
            "n": n,
            "m": m,
            "colors": config.kappa_for(n),
            "mode": "even" if n % 2 == 0 else "odd",
            "trials": [{"trial": r.trial, **r.value, "elapsed": r.elapsed} for r in rows],
        }
        for (n, m), rows in result.by_cell().items()
    ]
    out = {"kind": "hamilton", "k": 2, "trials": config.trials, "cells": cells}
    return json.dumps(out, indent=2) + "\n"


# -- SVG plotting --------------------------------------------------------------------


@dataclass(frozen=True)
class PlotSpec:
    x: str
    y: str
    yerr: str | None = None
    title: str = ""
    width: int = 640
    height: int = 440

    def __post_init__(self):
        ml, mr, mt, mb = self.margins
        if self.width <= ml + mr or self.height <= mt + mb:
            raise ValueError(
                f"plot size {self.width}x{self.height} leaves no plot area "
                f"(width must exceed {ml + mr}, height {mt + mb})"
            )

    @property
    def margins(self) -> tuple[int, int, int, int]:
        """Left, right, top and bottom space around the plot area."""
        return 62, 18, 34 if self.title else 18, 46


def _axis_range(axis: str, name: str, lo: float, hi: float, pad: float) -> tuple[float, float]:
    """The drawn range of an axis whose data span [lo, hi]: a unit wide
    around a single value, then padded by pad times its width on each side.
    Raises ValueError when that width is not finite, or too small at its
    magnitude for the ticks (`_nice_ticks`) to step through it."""
    a, b = (lo - 0.5, hi + 0.5) if hi == lo else (lo, hi)
    a, b = a - pad * (b - a), b + pad * (b - a)
    if not 1e-9 * max(abs(a), abs(b)) < b - a < math.inf:
        raise ValueError(f"cannot plot the {axis} range {lo:g} to {hi:g} of column {name!r}")
    return a, b


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """The ticks inside [lo, hi], hi > lo: about five, on the finest
    1/2/2.5/5 step that gives at most five spans."""
    span = hi - lo
    mag = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= 5:
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return [t for t in ticks if lo <= t <= hi]


def _svg(tag: str, body: str | list[str] | None = None, **attrs) -> str:
    """One SVG element: every element of a plot is written here.  Underscores
    in attribute names become hyphens.  A string body is text, escaped here;
    a list body is child elements, one per line."""
    head = " ".join(
        [tag, *(f'{name.replace("_", "-")}="{value}"' for name, value in attrs.items())]
    )
    if body is None:
        return f"<{head}/>"
    # imported here, not by every subcommand: it loads urllib.request (~7 MB)
    from xml.sax.saxutils import escape
    inner = escape(body) if isinstance(body, str) else "\n".join(["", *body, ""])
    return f"<{head}>{inner}</{tag}>"


def _label(text: str, x, y, size: int, anchor: str = "middle", **attrs) -> str:
    return _svg("text", text, x=x, y=y, text_anchor=anchor, font_family="sans-serif",
                font_size=size, **attrs)


def _parse_plot_csv(text: str, spec: PlotSpec) -> tuple[list[float], list[float], list[float] | None]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("CSV has no data rows")
    header = lines[0].split(",")
    try:
        xi = header.index(spec.x)
        yi = header.index(spec.y)
        erri = header.index(spec.yerr) if spec.yerr else None
    except ValueError as exc:
        raise ValueError(f"column not found: {exc}") from exc
    columns = [i for i in (xi, yi, erri) if i is not None]
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            # an empty cell (a closed form at kappa != n, a mean no trial
            # backs) has no value, and a nan or inf one (a budget-out's
            # mean) no place on the axes
            row = [float(cells[i]) for i in columns if cells[i]]
        except (ValueError, IndexError) as exc:
            raise ValueError(f"malformed CSV row {ln!r}") from exc
        if len(row) == len(columns) and all(map(math.isfinite, row)):
            rows.append(row)
    if not rows:
        raise ValueError("CSV has no finite data rows")
    rows.sort(key=lambda row: row[0])  # stable: equal x keep their file order
    xs, ys, *errs = map(list, zip(*rows))
    return xs, ys, errs[0] if errs else None


def emit_plot(csv_text: str, spec: PlotSpec) -> str:
    """Render a line/scatter plot (optionally with error bars) as an SVG
    string.  Pure function of the CSV bytes and the plot settings."""
    xs, ys, errs = _parse_plot_csv(csv_text, spec)
    W, H = spec.width, spec.height
    ml, mr, mt, mb = spec.margins
    pw, ph = W - ml - mr, H - mt - mb
    xlo, xhi = _axis_range("x", spec.x, min(xs), max(xs), 0.0)
    ylo = min(ys) if errs is None else min(y - e for y, e in zip(ys, errs))
    yhi = max(ys) if errs is None else max(y + e for y, e in zip(ys, errs))
    ylo, yhi = _axis_range("y", spec.y, ylo, yhi, 0.04)

    def X(x: float) -> float:
        return ml + (x - xlo) / (xhi - xlo) * pw

    def Y(y: float) -> float:
        return mt + ph - (y - ylo) / (yhi - ylo) * ph

    def f(v: float) -> str:
        return f"{v:.2f}"

    parts = [_svg("rect", width=W, height=H, fill="white")]
    if spec.title:
        parts.append(_label(spec.title, f"{W / 2:.1f}", 20, 14))
    # axes
    parts.append(
        _svg("rect", x=ml, y=mt, width=pw, height=ph, fill="none", stroke="#333", stroke_width=1)
    )
    for t in _nice_ticks(xlo, xhi):
        x = f(X(t))
        parts.append(_svg("line", x1=x, y1=mt + ph, x2=x, y2=mt + ph + 5, stroke="#333"))
        parts.append(_label(f"{t:g}", x, mt + ph + 18, 11))
    for t in _nice_ticks(ylo, yhi):
        y = f(Y(t))
        parts.append(_svg("line", x1=ml - 5, y1=y, x2=ml, y2=y, stroke="#333"))
        parts.append(_label(f"{t:g}", ml - 8, f(Y(t) + 4), 11, "end"))
    mid = f"{mt + ph / 2:.1f}"
    parts.append(_label(spec.x, f"{ml + pw / 2:.1f}", H - 8, 12))
    parts.append(_label(spec.y, 16, mid, 12, transform=f"rotate(-90 16 {mid})"))
    if errs is not None:
        for x, y, e in zip(xs, ys, errs):
            parts.append(_svg("line", x1=f(X(x)), y1=f(Y(y - e)), x2=f(X(x)), y2=f(Y(y + e)),
                              stroke="#d62728", stroke_width=1))
    points = " ".join(f"{f(X(x))},{f(Y(y))}" for x, y in zip(xs, ys))
    parts.append(_svg("polyline", points=points, fill="none", stroke="#1f77b4", stroke_width=1.5))
    for x, y in zip(xs, ys):
        parts.append(_svg("circle", cx=f(X(x)), cy=f(Y(y)), r=3, fill="#1f77b4"))
    return _svg("svg", parts, xmlns="http://www.w3.org/2000/svg", width=W, height=H,
                viewBox=f"0 0 {W} {H}") + "\n"
