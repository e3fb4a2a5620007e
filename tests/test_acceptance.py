"""Acceptance suite: eleven end-to-end checks, one test per shipped guarantee.

Each test finishes by printing a single "criterion N: PASS - ..." line with
the measured numbers (run pytest -s to see them; pytest -v gives the per-test
verdicts either way).  Grids, seeds, and tolerances are pinned on purpose:
they were chosen once, by measurement, and a change to any of them is a
behavior change, not a tuning knob.
"""

import itertools
import math
import time
from collections import Counter, defaultdict
from fractions import Fraction
from statistics import fmean, stdev

from rainbowmatch.count import (
    count_rainbow_pm,
    disjoint_completion_count,
    expected_rainbow_count,
    latin_transversal,
)
from rainbowmatch.experiments import (
    ExperimentConfig,
    hamilton_csv,
    hamilton_experiment,
    mean_count_csv,
    mean_count_experiment,
    threshold_csv,
    threshold_scan,
    threshold_table,
    trace_experiment,
    trace_steps_csv,
    trace_summary_csv,
)
from rainbowmatch import hamilton
from rainbowmatch.hamilton import (
    ColoredMultigraph,
    assemble_even,
    find_rainbow_hc,
    is_rainbow_hamilton_cycle,
)
from rainbowmatch.model import (
    PARTITE,
    ColoredEdge,
    ColoredHypergraph,
    RandomnessSpec,
    complete_colored,
    random_edge_ordering,
    restrict,
    sample_colored_graph,
    sample_partite_m,
)
from rainbowmatch.process import (
    entropy,
    dyadic_interval_cover,
    run_deletion_process,
    weight_profile,
)
from rainbowmatch.process import _loss_rates

from helpers import color_counts, degrees
from oracles import count_uniform_pm, reduce_to_uniform


def rng(stream, seed=0):
    return RandomnessSpec(seed, stream).rng()


# -- 1: expected count formula ----------------------------------------------------


def test_criterion_01_expected_count_formula():
    t0 = time.perf_counter()

    # 2x2 is small enough to integrate over all 16 colorings exactly
    verts = [(1, 1), (1, 2), (2, 1), (2, 2)]
    total = Fraction(0)
    total_sq = Fraction(0)
    for colors in itertools.product((1, 2), repeat=4):
        H = ColoredHypergraph(
            PARTITE, 2, 2, 2,
            tuple(ColoredEdge(v, c) for v, c in zip(verts, colors)),
        )
        x = count_rainbow_pm(H).value
        total += x
        total_sq += x * x
    assert total / 16 == 1
    assert total_sq / 16 == Fraction(3, 2)

    details = []
    for ci, (n, k) in enumerate(((2, 2), (3, 2), (4, 2), (3, 3))):
        counts = []
        for t in range(10_000):
            H = complete_colored(n, k, n, rng(ci * 10_000 + t, seed=11))
            counts.append(count_rainbow_pm(H).value)
        mean = fmean(counts)
        se = stdev(counts) / math.sqrt(len(counts))
        expect = expected_rainbow_count(n, k)
        assert abs(mean - expect) <= 3 * se, (n, k, mean, expect, se)
        details.append(f"({n},{k}) {mean:.4f} vs {expect:.4f} se {se:.4f}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(
        "criterion 1: PASS - exhaustive 2x2 oracle exact (mean 1, second moment"
        f" 3/2); Monte Carlo {'; '.join(details)}; {elapsed:.1f}s"
    )


# -- 2: completion counts ----------------------------------------------------------


def brute_disjoint_completions(ell, k):
    """Enumerate (k-1)-tuples of permutations of [ell] with no position fixed
    by the whole tuple, via per-permutation fixed-point bitmasks."""
    masks = []
    for p in itertools.permutations(range(ell)):
        m = 0
        for j, pj in enumerate(p):
            if pj == j:
                m |= 1 << j
        masks.append(m)
    if k == 2:
        return sum(1 for m in masks if m == 0)
    assert k == 3
    return sum(1 for m1 in masks for m2 in masks if m1 & m2 == 0)


def test_criterion_02_completion_counts():
    t0 = time.perf_counter()
    for k in (2, 3):
        for ell in range(7):
            assert disjoint_completion_count(ell, k) == brute_disjoint_completions(ell, k)

    derangements = [1, 0]
    for ell in range(2, 9):
        derangements.append((ell - 1) * (derangements[-1] + derangements[-2]))
    for ell in range(9):
        assert disjoint_completion_count(ell, 2) == derangements[ell]

    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    print(
        "criterion 2: PASS - brute enumeration matches for ell <= 6 at k = 2, 3;"
        f" derangement recurrence matches for ell <= 8; {elapsed:.1f}s"
    )


# -- 3: brute vs inclusion-exclusion ----------------------------------------------


def test_criterion_03_counter_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        cap = n * n
        for j in range(24):
            r = rng(j, seed=31 + n)
            m = 0 if j == 0 else cap if j == 1 else r.randrange(cap + 1)
            H = sample_partite_m(n, 2, n, m, r)
            brute = count_rainbow_pm(H, method="brute")
            ie = count_rainbow_pm(H, method="ie")
            assert brute.value == ie.value, (n, m, j)
            checked += 1
    assert checked >= 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(
        f"criterion 3: PASS - brute and inclusion-exclusion agree on {checked}"
        f" instances, n = 2..6, m spanning 0..n^2; {elapsed:.1f}s"
    )


# -- 4: colored-to-uniform reduction ----------------------------------------------


def test_criterion_04_reduction_bijection():
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3, 4):
        for k in (2, 3):
            for j in range(17):
                r = rng(j, seed=41 + 10 * n + k)
                m = r.randrange(n**k + 1)
                H = sample_partite_m(n, k, n, m, r)
                assert count_rainbow_pm(H).value == count_uniform_pm(reduce_to_uniform(H))
                checked += 1
    assert checked >= 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(
        f"criterion 4: PASS - colored count equals uniform count after reduction"
        f" on {checked} instances, n <= 4, k = 2, 3; {elapsed:.1f}s"
    )


# -- 5: weight identity along deletion traces -------------------------------------


def test_criterion_05_weight_identity():
    t0 = time.perf_counter()
    steps_checked = 0
    for n in (3, 4):
        N = n * n
        for j in range(10):
            r = rng(j, seed=51 + n)
            H = complete_colored(n, 2, n, r)
            edges = [H.edges[x] for x in random_edge_ordering(H, r)]
            for i in range(N + 1):
                Hi = restrict(H, removed_edges=edges[:i])
                phi = count_rainbow_pm(Hi).value
                table = weight_profile(Hi)
                assert sum(table[(e.verts, e.color)] for e in Hi.edges) == n * phi, (n, j, i)
                steps_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(
        "criterion 5: PASS - weight sum equals n * count at every one of"
        f" {steps_checked} steps over 20 full traces, n = 3..4; {elapsed:.1f}s"
    )


# -- 6: step-ratio calibration -----------------------------------------------------


def test_criterion_06_step_ratio_calibration():
    t0 = time.perf_counter()
    gated = {}
    details = []
    for n in (2, 3):
        N = n * n
        t_max = min(5, N)
        per_step = defaultdict(list)
        for j in range(1000):
            r = rng(j, seed=70 + n)
            H = complete_colored(n, 2, n, r)
            order = random_edge_ordering(H, r)
            trace = run_deletion_process(H, order, t_max=t_max)
            # the step ratio is only informative while the count is alive, so
            # condition on the previous count being positive
            for i in range(1, len(trace.steps)):
                if trace.steps[i - 1].phi > 0:
                    per_step[i].append(float(trace.steps[i].xi))
        passed = 0
        for i in range(1, t_max + 1):
            xs = per_step[i]
            if len(xs) < 100:
                continue
            gamma = n / (N - i + 1)
            mean = fmean(xs)
            se = stdev(xs) / math.sqrt(len(xs))
            assert abs(mean - gamma) <= 3 * se, (n, i, mean, gamma, se)
            passed += 1
            details.append(f"n={n} i={i} ({len(xs)} live): {mean:.3f} vs {gamma:.3f}")
        gated[n] = passed
    assert gated[2] >= 3 and gated[3] == 5

    for n in (2, 3):
        N = n * n
        for t in range(1, min(5, N - 1) + 1):
            exact, closed = _loss_rates(n, N, t)[t]
            assert abs(exact - closed) <= 2 * n / (N - t), (n, t)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(
        "criterion 6: PASS - conditional mean step ratio within 3 SE of"
        f" n/(N-i+1) at {gated[2]}+{gated[3]} gated steps"
        f" ({'; '.join(details)}); loss-rate gap bound holds; {elapsed:.1f}s"
    )


# -- 7: entropy-gated interval cover -----------------------------------------------


def test_criterion_07_interval_cover_suite():
    t0 = time.perf_counter()
    r = rng(0, seed=7)
    tested = {1: 0, 2: 0}
    skipped = 0
    for j in range(1000):
        if j % 10 == 9:
            # a near-point-mass vector, to prove the entropy gate really skips
            w = [1e-9] * 63 + [1.0]
        else:
            p = r.choice((0.5, 1.0, 2.0))
            w = [r.random() ** p for _ in range(64)]
        h = entropy(w)
        for M in (1, 2):
            if h <= math.log(64) - M:
                skipped += 1
                continue
            tested[M] += 1
            a, b, J = dyadic_interval_cover(w, M)
            rho = 2.0 ** (4 * (M + math.log(3)))
            sigma = 2.0 ** (-2 * M - 2)
            assert b <= rho * a, (j, M)
            assert len(J) >= sigma * 64, (j, M)
            assert math.fsum(w[i] for i in J) > 0.7 * math.fsum(w), (j, M)
    assert tested[1] >= 500 and tested[2] >= 500
    assert skipped >= 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(
        "criterion 7: PASS - ratio, size, and mass bounds hold in"
        f" {tested[1]} + {tested[2]} gated cases (M = 1, 2), {skipped} vectors"
        f" rejected by the entropy gate; {elapsed:.1f}s"
    )


# -- 8: Hamilton assembly invariants -----------------------------------------------


def round_robin_factors(n):
    """The circle-method 1-factorization of K_n (n even)."""
    fixed = n
    others = list(range(1, n))
    factors = []
    for r in range(n - 1):
        rot = others[r:] + others[:r]
        pairs = [(rot[0], fixed)]
        for i in range(1, n // 2):
            pairs.append((rot[i], rot[-i]))
        factors.append([tuple(sorted(p)) for p in pairs])
    return factors


def planted_union(n):
    """An 8-regular union with every color exactly 4 times and a rainbow
    Hamilton cycle planted in it: the n-cycle in distinct colors plus six
    round-robin factors, colors cycling."""
    edges = []
    for i in range(1, n + 1):
        edges.append(ColoredEdge(tuple(sorted((i, i % n + 1))), i))
    filler = [p for f in round_robin_factors(n)[:6] for p in f]
    for idx, p in enumerate(filler):
        edges.append(ColoredEdge(p, idx % n + 1))
    return ColoredMultigraph(n, n, tuple(edges))


def config_model_8_regular(n, kappa, r):
    """Configuration-model 8-regular colored multigraph: pair up 8 stubs per
    vertex, resampling whole pairings until none is a self-loop."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(8)]
        r.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(a != b for a, b in pairs):
            return ColoredMultigraph(
                n,
                kappa,
                tuple(ColoredEdge(tuple(sorted(p)), r.randint(1, kappa)) for p in pairs),
            )


def brute_rainbow_hc_exists(G):
    """Try every cyclic vertex order, then ask for a system of distinct colors
    among the parallel edges of each consecutive pair."""
    slots_by_pair = {}
    for e in G.edges:
        slots_by_pair.setdefault(e.verts, set()).add(e.color)
    n = G.n

    def sdr(slot_sets, used, idx):
        if idx == len(slot_sets):
            return True
        for c in slot_sets[idx]:
            if c not in used:
                used.add(c)
                if sdr(slot_sets, used, idx + 1):
                    used.discard(c)
                    return True
                used.discard(c)
        return False

    for perm in itertools.permutations(range(2, n + 1)):
        if perm[0] > perm[-1]:
            continue
        order = (1,) + perm
        slot_sets = []
        for i in range(n):
            pair = tuple(sorted((order[i], order[(i + 1) % n])))
            if pair not in slots_by_pair:
                break
            slot_sets.append(slots_by_pair[pair])
        else:
            if sdr(slot_sets, set(), 0):
                return True
    return False


def test_criterion_08_hamilton_assembly_invariants():
    t0 = time.perf_counter()

    # full pipeline on complete colored input; structure and validator checks
    # apply to every run that reaches success
    stages = Counter()
    organic = 0
    for n in (8, 10, 12):
        m = n * (n - 1) // 2
        for j in range(50):
            r = rng(j, seed=81)
            G = sample_colored_graph(n, m, n, r)
            plan, hc = assemble_even(G, r)
            stages[plan.stage] += 1
            if plan.stage == hamilton.STAGE_SUCCESS:
                assert hc is not None
                assert set(degrees(plan.union_graph)) == {8}
                assert set(color_counts(plan.union_graph)) == {4}
                assert is_rainbow_hamilton_cycle(plan.union_graph, hc)
                organic += 1
            else:
                assert hc is None
    assert sum(stages.values()) == 150
    assert set(stages) <= {
        hamilton.STAGE_CLASS_TOO_SMALL,
        hamilton.STAGE_MATCHING_NOT_FOUND,
        hamilton.STAGE_MATCHING_BUDGET,
        hamilton.STAGE_HC_NOT_FOUND,
        hamilton.STAGE_HC_BUDGET,
        hamilton.STAGE_SUCCESS,
    }

    # the same invariants exercised non-vacuously on hand-planted unions
    for n in (8, 10, 12):
        G = planted_union(n)
        assert set(degrees(G)) == {8}
        assert set(color_counts(G)) == {4}
        hc = find_rainbow_hc(G)
        assert hc is not None
        assert is_rainbow_hamilton_cycle(G, hc)

    # searcher vs permutation brute force on configuration-model multigraphs
    found = absent = 0
    for j in range(50):
        n = 6 if j % 2 else 8
        r = rng(j, seed=88)
        G = config_model_8_regular(n, n, r)
        hc = find_rainbow_hc(G)
        assert (hc is not None) == brute_rainbow_hc_exists(G), j
        if hc is None:
            absent += 1
        else:
            assert is_rainbow_hamilton_cycle(G, hc)
            found += 1
    assert found >= 1 and absent >= 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    stage_note = ", ".join(f"{s}: {c}" for s, c in sorted(stages.items()))
    print(
        f"criterion 8: PASS - {organic} of 150 assembly runs reached success"
        f" ({stage_note}); invariants also hold on 3 planted unions; searcher"
        f" matches brute force on 50 multigraphs ({found} cycles, {absent}"
        f" none); {elapsed:.1f}s"
    )


# -- 9: threshold behavior ---------------------------------------------------------


def isotonic_fit(values):
    """Nondecreasing least-squares fit via pool-adjacent-violators: the
    closest nondecreasing sequence in L2."""
    blocks = []  # [mean, count]
    for v in values:
        blocks.append([float(v), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            m2, c2 = blocks.pop()
            m1, c1 = blocks.pop()
            blocks.append([(m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2])
    fit = []
    for mean, count in blocks:
        fit.extend([mean] * count)
    return fit


def test_criterion_09_threshold_behavior():
    t0 = time.perf_counter()
    grid = (9, 15, 22, 29, 36, 42, 47, 52, 57, 63, 75, 100)
    config = ExperimentConfig(
        kind="threshold",
        ns=(10,),
        k=2,
        kappa=10,
        ms=grid,
        trials=200,
        master_seed=0,
        node_budget=10**6,
    )
    header, rows = threshold_table(threshold_scan(config))
    assert header[6] == "p_hat" and header[7] == "se" and header[9] == "budget"
    by_m = {row[3]: row for row in rows}
    assert sorted(by_m) == sorted(grid)
    assert all(row[9] == 0 for row in rows), "budget exhaustion in threshold scan"
    assert by_m[9][6] == 0.0
    assert by_m[100][6] >= 0.95

    p_hat = [by_m[m][6] for m in grid]
    se = [by_m[m][7] for m in grid]
    fit = isotonic_fit(p_hat)
    residuals = [abs(p - f) for p, f in zip(p_hat, fit)]
    for m, res, s in zip(grid, residuals, se):
        assert res <= 2 * s, (m, res, s)

    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    print(
        f"criterion 9: PASS - p_hat 0 at m=9, {by_m[100][6]:.3f} at m=100, no"
        f" budget outcomes, max isotonic residual {max(residuals):.4f} over"
        f" {len(grid)} cells x 200 trials; {elapsed:.1f}s"
    )


# -- 10: latin transversals --------------------------------------------------------


def brute_latin_exists(M):
    n = len(M)
    for perm in itertools.permutations(range(n)):
        vals = [M[i][perm[i]] for i in range(n)]
        if all(vals) and len(set(vals)) == n:
            return True
    return False


def test_criterion_10_latin_transversal_equivalence():
    t0 = time.perf_counter()
    r = rng(0, seed=101)
    found = absent = 0
    for j in range(200):
        n = 2 + j % 6
        M = [[r.randrange(n + 1) for _ in range(n)] for _ in range(n)]
        cells = latin_transversal(M)
        assert (cells is not None) == brute_latin_exists(M), (j, M)
        if cells is None:
            absent += 1
        else:
            rows = [c[0] for c in cells]
            cols = sorted(c[1] for c in cells)
            vals = [M[a - 1][b - 1] for a, b in cells]
            assert rows == list(range(1, n + 1)) and cols == list(range(1, n + 1))
            assert all(vals) and len(set(vals)) == n
            found += 1
    assert found >= 20 and absent >= 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(
        f"criterion 10: PASS - solver matches all-permutation brute force on 200"
        f" matrices, n = 2..7 ({found} found, {absent} none); {elapsed:.1f}s"
    )


# -- 11: determinism under parallelism ---------------------------------------------


def test_criterion_11_determinism():
    import dataclasses

    t0 = time.perf_counter()
    runs = [
        (
            "threshold",
            ExperimentConfig(kind="threshold", ns=(4,), ms=(6, 10, 16), trials=30, master_seed=3),
            threshold_scan,
            (threshold_csv,),
        ),
        (
            "mean-count",
            ExperimentConfig(kind="mean-count", ns=(2, 3), trials=100, master_seed=4),
            mean_count_experiment,
            (mean_count_csv,),
        ),
        (
            "trace",
            ExperimentConfig(kind="trace", ns=(3,), trials=4, t_max=6, master_seed=5),
            trace_experiment,
            (trace_steps_csv, trace_summary_csv),
        ),
        (
            "hamilton",
            ExperimentConfig(
                kind="hamilton", ns=(4, 5), ms=(6,), trials=10, retries=2, master_seed=6
            ),
            hamilton_experiment,
            (hamilton_csv,),
        ),
    ]
    for name, config, run, renderers in runs:
        serial = run(config)
        serial_again = run(config)
        parallel = run(dataclasses.replace(config, jobs=8))
        for render in renderers:
            base = render(serial)
            assert render(serial_again) == base, (name, "repeat run differs")
            assert render(parallel) == base, (name, "8 workers differ from 1")
            assert base.encode() == render(parallel).encode()
    elapsed = time.perf_counter() - t0
    print(
        "criterion 11: PASS - byte-identical CSV across repeat runs and worker"
        f" counts 1 and 8 for threshold, mean-count, trace, hamilton; {elapsed:.1f}s"
    )
