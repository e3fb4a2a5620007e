import hashlib
import itertools
import json
import random
from collections import Counter, defaultdict

import pytest

from rainbowmatch import experiments, hamilton
from rainbowmatch.count import BudgetExceededError, _Search
from rainbowmatch.experiments import (
    ExperimentConfig,
    hamilton_experiment,
    hamilton_table,
    hamilton_trials_json,
)
from rainbowmatch.hamilton import (
    ColoredMultigraph,
    DEFAULT_HC_BUDGET,
    HamiltonCycle,
    STAGE_CLASS_TOO_SMALL,
    STAGE_HC_BUDGET,
    STAGE_HC_NOT_FOUND,
    STAGE_LIFT_FAILED,
    STAGE_MATCHING_BUDGET,
    STAGE_MATCHING_NOT_FOUND,
    STAGE_SUCCESS,
    _color_label_pairs,
    assemble_even,
    contract_color_delete,
    find_rainbow_hc,
    is_rainbow_hamilton_cycle,
    lift_cycle,
)
from rainbowmatch.model import (
    ColoredEdge,
    ColoredHypergraph,
    GRAPH,
    PARTITE,
    Matching,
    _graph_pairs,
    complete_colored,
    sample_colored_graph,
)

from helpers import (assert_stored_as_checked, color_counts, degrees, edge_by_verts, rng,
                     round_robin_factors)
from oracles import brute_rainbow_hc_count, find_rainbow_hc_by_extension


def graph(n, kappa, pairs_with_colors):
    edges = tuple(ColoredEdge(tuple(sorted(p)), c) for p, c in pairs_with_colors)
    return ColoredHypergraph(GRAPH, n, 2, kappa, edges)


def multigraph(n, kappa, pairs_with_colors):
    edges = tuple(ColoredEdge(tuple(sorted(p)), c) for p, c in pairs_with_colors)
    return ColoredMultigraph(n, kappa, edges)


# -- multigraph type


def test_multigraph_allows_parallel_edges():
    G = multigraph(3, 3, [((1, 2), 1), ((1, 2), 2), ((2, 3), 3)])
    assert len(G.edges) == 3
    assert degrees(G) == [2, 3, 1]
    assert color_counts(G) == [1, 1, 1]


def test_multigraph_rejects_self_loops_and_bad_colors():
    with pytest.raises(ValueError):
        multigraph(3, 3, [((1, 1), 1)])
    with pytest.raises(ValueError):
        multigraph(3, 2, [((1, 2), 3)])
    for bad in (ColoredEdge((1, 2), 1.9), ColoredEdge((2, 3), True),
                ColoredEdge((1.5, 3), 1), ColoredEdge((1, True), 2)):
        with pytest.raises(ValueError, match="not an int"):
            ColoredMultigraph(3, 3, (ColoredEdge((1, 3), 2), bad))


# -- direct search and validator


def test_triangle_found_and_canonical():
    G = graph(3, 3, [((1, 2), 1), ((2, 3), 2), ((1, 3), 3)])
    hc = find_rainbow_hc(G)
    assert hc is not None
    assert hc.vertices[0] == 1
    assert hc.vertices[1] < hc.vertices[-1]
    assert is_rainbow_hamilton_cycle(G, hc)
    assert sorted(e.color for e in hc.edges) == [1, 2, 3]


def test_triangle_repeated_color_absent():
    G = graph(3, 3, [((1, 2), 1), ((2, 3), 1), ((1, 3), 2)])
    assert find_rainbow_hc(G) is None


def test_small_n_rejected():
    G = graph(2, 2, [((1, 2), 1)])
    with pytest.raises(ValueError):
        find_rainbow_hc(G)


def test_budget_error():
    rnd = rng(100)
    pairs = list(itertools.combinations(range(1, 11), 2))
    G = multigraph(10, 10, [(p, rnd.randrange(1, 11)) for p in pairs])
    with pytest.raises(BudgetExceededError) as info:
        find_rainbow_hc(G, budget=5)
    assert info.value.nodes >= 5


def test_validator_rejects_tampering():
    G = graph(3, 3, [((1, 2), 1), ((2, 3), 2), ((1, 3), 3)])
    hc = find_rainbow_hc(G)
    bad_cover = HamiltonCycle((1, 2, 2), hc.edges)
    assert not is_rainbow_hamilton_cycle(G, bad_cover)
    # swap an edge for one the graph does not contain
    fake = HamiltonCycle(hc.vertices, (hc.edges[0], hc.edges[1], ColoredEdge((1, 3), 1)))
    assert not is_rainbow_hamilton_cycle(G, fake)
    # repeat a color by doubling an edge occurrence
    dup = HamiltonCycle(hc.vertices, (hc.edges[0], hc.edges[0], hc.edges[2]))
    assert not is_rainbow_hamilton_cycle(G, dup)


def test_validator_checks_multiplicity_on_multigraphs():
    # one copy of (1,2) color 1 in the graph; a cycle may not use it twice
    G = multigraph(4, 4, [((1, 2), 1), ((2, 3), 2), ((3, 4), 3), ((1, 4), 4)])
    hc = find_rainbow_hc(G)
    assert hc is not None and is_rainbow_hamilton_cycle(G, hc)


C5 = graph(5, 5, [((1, 2), 1), ((2, 3), 2), ((3, 4), 3), ((4, 5), 4), ((1, 5), 5)])
PARTITE_K4 = complete_colored(4, 2, 4, rng(2))
WITH_ABSENT = ColoredHypergraph(GRAPH, 4, 2, 4, (ColoredEdge((1, 2), 1),), frozenset({4}))
TRIANGLE = HamiltonCycle((1, 2, 3), (ColoredEdge((1, 2), 1), ColoredEdge((2, 3), 2),
                                     ColoredEdge((1, 3), 3)))


def lift_without_xi():
    e = edge_by_verts(C5, (4, 5))
    _, cmap = contract_color_delete(C5, e)  # xi = 4, which TRIANGLE misses
    return lift_cycle(TRIANGLE, cmap, e)


@pytest.mark.parametrize("call, expected", [
    (lambda: find_rainbow_hc(PARTITE_K4), ValueError("graph-mode")),
    (lambda: find_rainbow_hc(WITH_ABSENT), ValueError("all vertices active")),
    (lambda: find_rainbow_hc(TRIANGLE), TypeError("unsupported host HamiltonCycle")),
    (lambda: contract_color_delete(PARTITE_K4, PARTITE_K4.edges[0]), ValueError("graph-mode")),
    (lambda: contract_color_delete(WITH_ABSENT, WITH_ABSENT.edges[0]),
     ValueError("all vertices active")),
    (lambda: contract_color_delete(C5, ColoredEdge((1, 3), 1)), ValueError("not an edge")),
    (lambda: contract_color_delete(C5, ColoredEdge((1.0, 2), 1)), ValueError("not an edge")),
    (lambda: contract_color_delete(C5, ColoredEdge((True, 2), 1)), ValueError("not an edge")),
    (lambda: contract_color_delete(C5, ColoredEdge((2, 1), 1)), ValueError("not an edge")),
    (lambda: contract_color_delete(C5, ColoredEdge((1, 2), 2)), ValueError("not an edge")),
    (lambda: contract_color_delete(graph(2, 1, [((1, 2), 1)]), ColoredEdge((1, 2), 1)),
     ValueError("n >= 3")),
    (lambda: assemble_even(PARTITE_K4, rng()), ValueError("graph-mode")),
    (lambda: assemble_even(WITH_ABSENT, rng()), ValueError("all vertices active")),
    (lift_without_xi, ValueError("does not visit the contracted vertex")),
    (lambda: is_rainbow_hamilton_cycle(C5, HamiltonCycle((1, 2, 3, 4, 5), C5.edges[:4])),
     False),
], ids=["host-partite", "host-absent", "host-type", "contract-partite", "contract-absent",
        "contract-foreign-edge", "contract-float-index", "contract-bool-index",
        "contract-reversed-ends", "contract-wrong-color", "contract-small-n", "assemble-partite", "assemble-absent",
        "lift-without-xi", "validator-edge-count"])
def test_refusals(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            call()
    else:
        assert call() == expected


def random_multigraph(rnd, n, kappa, m):
    pairs = [(tuple(sorted(rnd.sample(range(1, n + 1), 2))), rnd.randint(1, kappa))
             for _ in range(m)]
    return multigraph(n, kappa, pairs)


def test_searcher_matches_permutation_brute():
    # n = 5, 6 with exactly n colors, then n = 4..8 with n and n + 2 colors
    # (each color at most once on the cycle)
    cases = []
    for j in range(40):
        rnd = rng(j, seed=50)
        n = 5 + j % 2
        m = rnd.randrange(n, 2 * n + 4)
        pairs = []
        while len(pairs) < m:
            u = rnd.randrange(1, n + 1)
            v = rnd.randrange(1, n + 1)
            if u != v:
                pairs.append((tuple(sorted((u, v))), rnd.randrange(1, n + 1)))
        cases.append(multigraph(n, n, pairs))
    for j in range(50):
        rnd = rng(j, seed=52)
        n = 4 + j % 5
        kappa = n + 2 * (j // 5 % 2)
        cases.append(random_multigraph(rnd, n, kappa, rnd.randint(2 * n, 4 * n)))
    found = 0
    for G in cases:
        hc = find_rainbow_hc(G)
        assert (hc is not None) == (brute_rainbow_hc_count(G) > 0), G.edges
        if hc is not None:
            assert is_rainbow_hamilton_cycle(G, hc)
            found += 1
    assert 20 <= found <= len(cases) - 20


def test_cycle_count_matches_permutation_brute():
    # The kernel in count mode with a demand of two edges per vertex reaches
    # every rainbow Hamilton cycle once: a take/drop split that reached a
    # cover twice, or missed one, would move the count.
    counts = []
    for j in range(60):
        rnd = rng(j, seed=53)
        n = 4 + j % 4
        kappa = n + 2 * (j // 4 % 2)
        G = random_multigraph(rnd, n, kappa, rnd.randint(2 * n, 4 * n))
        search = _Search(G, DEFAULT_HC_BUDGET, find_one=False, demand=2)
        search.run()
        assert search.count == brute_rainbow_hc_count(G), G.edges
        counts.append(search.count)
    assert sum(c > 1 for c in counts) >= 10 and 0 in counts


def hc_pinned_instances():
    """Contracted odd-pipeline graphs (n=15, m=60, one edge contracted and its
    color deleted) and random multigraphs on 7..11 vertices."""
    out = []
    for s in range(12):
        rnd = rng(s, seed=7)
        G = sample_colored_graph(15, 60, 15, rnd)
        Gp, _ = contract_color_delete(G, rnd.choice(G.edges))
        out.append(Gp)
    for s in range(12):
        rnd = rng(s, seed=8)
        n = 7 + s % 5
        pairs = [(tuple(sorted(rnd.sample(range(1, n + 1), 2))), rnd.randint(1, n + s % 2))
                 for _ in range((3 + s % 3) * n)]
        out.append(multigraph(n, n + s % 2, pairs))
    return out


# (cycle vertices, cycle colors, nodes) of find_rainbow_hc on
# hc_pinned_instances(), recorded when the search became the exact-cover
# kernel with a demand of two edges per vertex: the search tree is pinned, so
# the cycle found and the node count (the smallest budget that does not
# raise) must not move.
HC_PINNED = [
    ((1, 9, 2, 3, 14, 12, 5, 6, 13, 4, 11, 8, 7, 10),
     (14, 3, 15, 12, 13, 8, 2, 7, 10, 9, 4, 1, 5, 11), 47),
    (None, None, 4),
    (None, None, 1),
    (None, None, 1),
    ((1, 6, 9, 7, 5, 3, 11, 10, 12, 13, 2, 4, 14, 8),
     (6, 3, 4, 12, 15, 8, 7, 11, 14, 13, 10, 9, 2, 1), 22),
    ((1, 9, 12, 5, 3, 14, 2, 7, 10, 13, 4, 6, 8, 11),
     (13, 4, 7, 5, 3, 6, 9, 10, 15, 8, 12, 11, 2, 14), 28),
    ((1, 8, 13, 7, 4, 14, 6, 5, 10, 11, 2, 12, 3, 9),
     (1, 12, 3, 15, 5, 10, 9, 13, 14, 11, 7, 2, 6, 8), 76),
    ((1, 4, 7, 12, 13, 8, 3, 6, 9, 10, 2, 5, 14, 11),
     (9, 6, 4, 7, 3, 1, 13, 11, 2, 8, 15, 14, 12, 5), 322),
    (None, None, 162),
    ((1, 6, 2, 4, 7, 10, 11, 14, 8, 5, 12, 3, 13, 9),
     (12, 15, 5, 7, 4, 2, 8, 1, 3, 13, 11, 14, 10, 6), 60),
    ((1, 3, 10, 13, 4, 14, 11, 6, 7, 12, 2, 5, 8, 9),
     (12, 6, 4, 8, 9, 2, 11, 10, 14, 3, 5, 15, 7, 13), 23),
    (None, None, 71),
    (None, None, 9),
    ((1, 3, 7, 8, 4, 6, 2, 5),
     (5, 2, 9, 3, 1, 7, 4, 8), 12),
    ((1, 5, 8, 7, 6, 4, 2, 3, 9),
     (9, 5, 7, 3, 6, 8, 1, 4, 2), 49),
    (None, None, 10),
    ((1, 6, 2, 4, 10, 3, 8, 7, 5, 9, 11),
     (5, 1, 7, 4, 2, 9, 8, 6, 10, 3, 11), 23),
    ((1, 2, 5, 3, 7, 6, 4),
     (2, 6, 1, 3, 4, 5, 8), 19),
    (None, None, 2),
    ((1, 6, 9, 5, 2, 3, 8, 4, 7),
     (8, 6, 3, 2, 9, 1, 10, 5, 7), 28),
    ((1, 6, 5, 10, 3, 9, 2, 4, 7, 8),
     (7, 8, 9, 3, 10, 6, 2, 1, 4, 5), 30),
    ((1, 6, 4, 9, 2, 5, 11, 7, 3, 10, 8),
     (2, 3, 4, 11, 8, 12, 6, 5, 9, 1, 7), 13),
    ((1, 3, 2, 6, 7, 4, 5),
     (3, 4, 7, 1, 5, 6, 2), 8),
    ((1, 2, 3, 8, 7, 6, 4, 5),
     (5, 7, 8, 1, 6, 2, 4, 3), 21),
]


def test_search_tree_pinned():
    for G, (vertices, colors, nodes) in zip(hc_pinned_instances(), HC_PINNED, strict=True):
        hc = find_rainbow_hc(G, budget=nodes)
        if hc is None:
            assert (vertices, colors) == (None, None)
        else:
            assert (hc.vertices, tuple(e.color for e in hc.edges)) == (vertices, colors)
            assert is_rainbow_hamilton_cycle(G, hc)
        if nodes > 1:
            with pytest.raises(BudgetExceededError) as info:
                find_rainbow_hc(G, budget=nodes - 1)
            assert info.value.nodes == nodes


def test_search_matches_path_extension_oracle():
    # The exact-cover search and the path-extension oracle visit different
    # trees, so their answers are compared: a cycle or absence at an
    # unlimited budget, and every cycle a rainbow Hamilton cycle of G.
    instances = []
    for s in range(16):
        rnd = rng(s, seed=9)
        G = sample_colored_graph(15, 60, 15, rnd)
        instances.append(contract_color_delete(G, rnd.choice(G.edges))[0])
    for s in range(36):
        rnd = rng(s, seed=10)
        n = 5 + s % 7
        instances.append(random_multigraph(rnd, n, n + s % 3, rnd.randint(2 * n, 5 * n)))
    found = 0
    for G in instances:
        hc = find_rainbow_hc(G)
        assert (hc is None) == (find_rainbow_hc_by_extension(G) is None), G
        if hc is not None:
            assert is_rainbow_hamilton_cycle(G, hc)
            found += 1
    assert 0 < found < len(instances)


# -- synthetic eight-matching unions


def test_round_robin_is_a_one_factorization():
    for n in (8, 10):
        factors = round_robin_factors(n)
        assert len(factors) == n - 1
        seen = set()
        for f in factors:
            flat = [v for p in f for v in p]
            assert sorted(flat) == list(range(1, n + 1))
            seen.update(f)
        assert len(seen) == n * (n - 1) // 2


def test_synthetic_union_invariants_and_search():
    # eight disjoint perfect matchings; colors dealt round-robin so each of
    # the n colors appears exactly four times in the union
    n = 10
    factors = round_robin_factors(n)[:8]
    slots = [pair for f in factors for pair in f]
    edges = [ColoredEdge(pair, (idx % n) + 1) for idx, pair in enumerate(slots)]
    G = ColoredMultigraph(n, n, tuple(edges))
    assert set(degrees(G)) == {8}
    assert set(color_counts(G)) == {4}
    hc = find_rainbow_hc(G)
    if hc is not None:
        assert is_rainbow_hamilton_cycle(G, hc)


def test_planted_cycle_union_is_found():
    # plant the n-cycle as two of the eight matchings with all-distinct
    # colors; filler matchings may repeat cycle pairs, which just makes
    # parallel edges in the union
    n = 8
    cycle_pairs = [tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)]
    odd = cycle_pairs[0::2]
    even = cycle_pairs[1::2]
    edges = [ColoredEdge(p, i + 1) for i, p in enumerate(odd + even)]
    filler = [pair for f in round_robin_factors(n)[:6] for pair in f]
    edges += [ColoredEdge(pair, (idx % n) + 1) for idx, pair in enumerate(filler)]
    G = ColoredMultigraph(n, n, tuple(edges))
    assert set(degrees(G)) == {8}
    hc = find_rainbow_hc(G)
    assert hc is not None
    assert is_rainbow_hamilton_cycle(G, hc)


def lone_cycle(n, kappa):
    """The cycle 1, 2, ..., n, 1 alone, its edges in n distinct colors of 1..kappa."""
    colors = list(range(1, kappa + 1))
    random.Random(5).shuffle(colors)
    return multigraph(n, kappa, [((i, i % n + 1), c) for i, c in zip(range(1, n + 1), colors)])


def test_deep_cycle_is_found():
    # a 1200-vertex rainbow cycle: the search path is 1200 nodes deep, past
    # Python's default recursion limit
    n = 1200
    G = lone_cycle(n, n)
    hc = find_rainbow_hc(G)
    assert hc is not None and is_rainbow_hamilton_cycle(G, hc)
    assert hc.vertices == tuple(range(1, n + 1))


def test_deep_cycle_is_found_on_huge_sparse_columns():
    # with 3n colors the columns are dicts of the touched vertices and
    # colors, and the fragment ends are copied 1200 pushes deep
    n = 1200
    G = lone_cycle(n, 3 * n)
    assert type(_Search(G, 1, find_one=True, demand=2).cols) is defaultdict
    hc = find_rainbow_hc(G)
    assert hc is not None and is_rainbow_hamilton_cycle(G, hc)
    assert hc.vertices == tuple(range(1, n + 1))


# -- assembly pipeline


def test_assemble_validates_input():
    rnd = rng(2)
    odd = sample_colored_graph(5, 8, 5, rnd)
    with pytest.raises(ValueError):
        assemble_even(odd, rnd)
    wrong_colors = sample_colored_graph(6, 10, 4, rnd)
    with pytest.raises(ValueError):
        assemble_even(wrong_colors, rnd)
    partite = complete_colored(4, 2, 4, rnd)
    with pytest.raises(ValueError):
        assemble_even(partite, rnd)


def test_assemble_k4_gates_on_class_size():
    # 6 edges cannot fill 8 classes, so the size gate always fires at n=4
    rnd = rng(3)
    G = sample_colored_graph(4, 6, 4, rnd)
    plan, hc = assemble_even(G, rnd)
    assert hc is None
    assert plan.stage == STAGE_CLASS_TOO_SMALL
    assert plan.union_graph is None
    assert sum(plan.class_sizes) == 6
    assert len(plan.blocks) == 8
    assert all(len(b) == 2 for b in plan.blocks)  # nu = n/2 pairs per block


def test_assemble_blocks_partition_color_label_pairs():
    rnd = rng(4)
    G = sample_colored_graph(8, 20, 8, rnd)
    plan, _ = assemble_even(G, rnd)
    pooled = set()
    for b in plan.blocks:
        assert not pooled & b
        pooled |= b
    assert pooled == {(c, l) for c in range(1, 9) for l in range(1, 5)}
    assert min(plan.label_list) >= 1 and max(plan.label_list) <= 4
    assert sum(plan.class_sizes) == 20


def test_assemble_labels_match_per_call_oracle():
    # the labels are drawn in bulk; they, the shuffle after them, the classes
    # and their sizes, and the generator state left must be those of one
    # randint per edge, whether the plan stops at the size gate or in a search
    for n, m, seed, stage in (
        (8, 20, 0, STAGE_CLASS_TOO_SMALL),
        (12, 66, 1, STAGE_CLASS_TOO_SMALL),
        (40, 780, 2, STAGE_MATCHING_NOT_FOUND),
        (40, 300, 3, STAGE_CLASS_TOO_SMALL),
        (8, 28, 10, STAGE_MATCHING_NOT_FOUND),
    ):
        G = sample_colored_graph(n, m, n, rng(seed, seed=61))
        got_rnd, want_rnd = rng(seed, seed=62), rng(seed, seed=62)
        plan, _ = assemble_even(G, got_rnd, matching_budget=50, hc_budget=50)
        labels = {e: want_rnd.randint(1, 4) for e in G.edges}
        pairs = [(c, l) for c in range(1, n + 1) for l in range(1, 5)]
        want_rnd.shuffle(pairs)
        classes = tuple(
            tuple(e for e in G.edges if (e.color, labels[e]) in block) for block in plan.blocks
        )
        plan_classes = tuple(
            tuple(e for e, b in zip(plan.graph.edges, plan.edge_class) if b == bi) for bi in range(8)
        )
        assert dict(zip(plan.graph.edges, plan.label_list)) == labels, (n, m)
        assert plan.blocks == tuple(frozenset(pairs[i * n // 2 : (i + 1) * n // 2]) for i in range(8))
        assert plan_classes == classes, (n, m)
        assert plan.class_sizes == tuple(map(len, classes)), (n, m)
        assert plan.stage == stage, (n, m)
        assert got_rnd.getstate() == want_rnd.getstate(), (n, m)


def test_assemble_stage_accounting_over_seeds():
    stages = Counter()
    for j in range(25):
        rnd = rng(j, seed=51)
        G = sample_colored_graph(12, 66, 12, rnd)
        plan, hc = assemble_even(G, rnd)
        stages[plan.stage] += 1
        if plan.union_graph is not None:
            assert set(degrees(plan.union_graph)) == {8}
            assert set(color_counts(plan.union_graph)) == {4}
        if hc is not None:
            assert is_rainbow_hamilton_cycle(plan.union_graph, hc)
    assert sum(stages.values()) == 25


class PlannedRandom:
    """Stands in for the assembly's random source: randint hands out the
    planned labels one by one and shuffle puts the pairs in the planned
    order."""

    def __init__(self, labels, pairs):
        self.labels = iter(labels)
        self.pairs = pairs

    def randint(self, low, high):
        return next(self.labels)

    def shuffle(self, items):
        items[:] = self.pairs


def planted_assembly():
    """K10 minus one factor of its round-robin factorization (40 edges), and a
    random source planning matching i's five edges onto the five (color,
    label) pairs of block i, so each edge class is one of the matchings."""
    n = 10
    factors = round_robin_factors(n)[:8]
    pairs = [(c, l) for c in range(1, n + 1) for l in range(1, 5)]
    label, matchings = {}, []
    for i, factor in enumerate(factors):
        block = pairs[5 * i : 5 * i + 5]
        edges = [ColoredEdge(p, c) for p, (c, _) in zip(factor, block)]
        label.update((e, l) for e, (_, l) in zip(edges, block))
        matchings.append(Matching(tuple(sorted(edges))))
    G = ColoredHypergraph(GRAPH, n, 2, n, tuple(label))
    return G, PlannedRandom([label[e] for e in G.edges], pairs), matchings


def test_planted_assembly_reaches_success():
    G, rnd, matchings = planted_assembly()
    plan, hc = assemble_even(G, rnd)
    assert plan.stage == STAGE_SUCCESS
    assert plan.class_sizes == (5,) * 8
    assert plan.matchings == tuple(matchings)
    assert set(degrees(plan.union_graph)) == {8}
    assert set(color_counts(plan.union_graph)) == {4}
    assert hc is not None and is_rainbow_hamilton_cycle(G, hc)
    G, rnd, _ = planted_assembly()
    plan, hc = assemble_even(G, rnd, matching_budget=1)
    assert (plan.stage, hc) == (STAGE_MATCHING_BUDGET, None)


def test_assemble_recolors_a_searched_class_by_sorted_pair_position(monkeypatch):
    # each class the assembly searches is its edges, each recolored to its
    # (color, label) pair's 1-based position in the sorted block
    searched = []
    find = hamilton.find_rainbow_pm

    def capture(H, budget):
        searched.append(H)
        return find(H, budget=budget)

    monkeypatch.setattr(hamilton, "find_rainbow_pm", capture)
    G, rnd, _ = planted_assembly()
    runs = [(G, rnd)]
    for j in range(6):
        r = rng(j, seed=63)
        runs.append((sample_colored_graph(12, 66, 12, r), r))
    reached = set()
    for G, rnd in runs:
        searched.clear()
        plan, _ = assemble_even(G, rnd)
        reached.add(len(searched))
        for bi, H in enumerate(searched):
            order = sorted(plan.blocks[bi])
            want = tuple(
                ColoredEdge(e.verts, order.index((e.color, label)) + 1)
                for e, label, b in zip(plan.graph.edges, plan.label_list, plan.edge_class) if b == bi
            )
            assert (H.n, H.kappa) == (G.n, G.n // 2)
            assert H.edges == tuple(sorted(want)), bi
    assert 8 in reached  # the planted run searches every class


def test_union_search_checks_its_cycle(monkeypatch):
    # a wrong cycle from the union search is a program error, never a success
    G, rnd, _ = planted_assembly()
    found = find_rainbow_hc

    def wrong_search(union, budget):
        return repeat_a_color(found(union, budget=budget))

    monkeypatch.setattr(hamilton, "find_rainbow_hc", wrong_search)
    with pytest.raises(RuntimeError, match="^union search: "):
        assemble_even(G, rnd)


def test_union_search_budget_out_keeps_the_union():
    G, rnd, _ = planted_assembly()
    plan, hc = assemble_even(G, rnd, hc_budget=1)
    assert (plan.stage, hc) == (STAGE_HC_BUDGET, None)
    assert plan.union_graph is not None and len(plan.union_graph.edges) == 40


def test_union_search_without_a_cycle_is_hc_not_found(monkeypatch):
    G, rnd, _ = planted_assembly()
    monkeypatch.setattr(hamilton, "find_rainbow_hc", lambda union, budget: None)
    plan, hc = assemble_even(G, rnd)
    assert (plan.stage, hc) == (STAGE_HC_NOT_FOUND, None)
    assert plan.union_graph is not None


# -- contraction and lifting


def test_contract_shape_and_color_accounting():
    G = graph(5, 5, [((1, 2), 1), ((2, 3), 2), ((3, 4), 3), ((4, 5), 4), ((1, 5), 5)])
    e = edge_by_verts(G, (4, 5))
    Gp, cmap = contract_color_delete(G, e)
    assert Gp.n == 4 and cmap.xi == 4
    before = Counter(x.color for x in G.edges)
    del before[e.color]
    assert Counter(x.color for x in Gp.edges) == before


def test_contract_triangle_makes_parallel_edges():
    G = graph(3, 3, [((1, 2), 1), ((2, 3), 2), ((1, 3), 3)])
    e = edge_by_verts(G, (2, 3))
    Gp, cmap = contract_color_delete(G, e)
    assert Gp.n == 2
    assert [x.verts for x in Gp.edges] == [(1, 2), (1, 2)]
    assert sorted(x.color for x in Gp.edges) == [1, 3]


def test_derived_builders_store_what_the_checked_constructors_store(monkeypatch):
    # the contraction, the recolored classes and the union skip their
    # constructors' checks, so each must store exactly what a checked build
    # of the same fields stores
    for j in range(4):
        for n, m in ((7, 21), (9, 20), (8, 28), (10, 30)):
            r = rng(j, seed=71)
            G = sample_colored_graph(n, m, n, r)
            Gp, _ = contract_color_delete(G, G.edges[r.randrange(m)])
            assert_stored_as_checked(Gp)
    for n in (9, 20):  # full draws at one n share one tuple of keys
        r = rng(n, seed=73)
        G1, G2 = (sample_colored_graph(n, n * (n - 1) // 2, n, r) for _ in range(2))
        assert G1.edges != G2.edges
        assert G1.keys is G2.keys
        for G in (G1, G2):
            assert_stored_as_checked(G)
            Gp, _ = contract_color_delete(G, G.edges[r.randrange(len(G.edges))])
            assert_stored_as_checked(Gp)
    searched = []
    find = hamilton.find_rainbow_pm

    def capture(H, budget):
        searched.append(H)
        return find(H, budget=budget)

    monkeypatch.setattr(hamilton, "find_rainbow_pm", capture)
    G, rnd, _ = planted_assembly()
    plan, _ = assemble_even(G, rnd)
    assert plan.stage == STAGE_SUCCESS
    assert_stored_as_checked(plan.union_graph)
    for j in range(4):  # complete n=20 graphs, two of which reach a class search
        r = rng(j, seed=72)
        assemble_even(sample_colored_graph(20, 190, 20, r), r, matching_budget=5000)
    assert len(searched) > 8
    for H in searched:
        assert_stored_as_checked(H)


def test_hamilton_trials_never_build_the_edges_view():
    # the assembly, the contraction, the cycle search and the lift read keys
    # and colors only, whichever stage a trial ends at; the edges views are
    # built when they are first read
    for n, m, j, stage in ((40, 300, 3, STAGE_CLASS_TOO_SMALL),
                           (40, 780, 2, STAGE_MATCHING_NOT_FOUND)):
        G = sample_colored_graph(n, m, n, rng(j, seed=61))
        plan, _ = assemble_even(G, rng(j, seed=62), matching_budget=50, hc_budget=50)
        assert "edges" not in vars(G), stage
        assert plan.stage == stage and plan.graph is G
        assert_stored_as_checked(G)
    for j, stage in ((0, STAGE_HC_NOT_FOUND), (20, STAGE_LIFT_FAILED)):
        r = rng(j, seed=90)
        G = sample_colored_graph(7, 14, 7, r)
        pick = r.choice(range(len(G.keys)))  # the odd trial's pick
        u, v = divmod(G.keys[pick], 7)
        e = ColoredEdge((u + 1, v + 1), G.colors[pick])
        Gp, cmap = contract_color_delete(G, e)
        hc = find_rainbow_hc(Gp)
        reached = STAGE_HC_NOT_FOUND if hc is None else STAGE_LIFT_FAILED
        assert reached == stage and (hc is None or lift_cycle(hc, cmap, e) is None)
        assert "edges" not in vars(G) and "edges" not in vars(Gp), stage
        assert_stored_as_checked(G)
        assert_stored_as_checked(Gp)


def test_shape_caches_stay_at_their_bound_over_a_sweep():
    # the per-n keys of full draws and pairs of the assembly are cached; a sweep
    # over more shapes than the bound keeps only the last few
    for cached in (_graph_pairs, _color_label_pairs):
        cached.cache_clear()
    bound = _graph_pairs.cache_info().maxsize
    for n in range(4, 4 + 2 * (bound + 3), 2):
        r = rng(n, seed=74)
        G = sample_colored_graph(n, n * (n - 1) // 2, n, r)
        assemble_even(G, r, matching_budget=50, hc_budget=50)
    for cached in (_graph_pairs, _color_label_pairs):
        info = cached.cache_info()
        assert 1 <= info.maxsize <= 16 and info.currsize == info.maxsize, info


def test_contract_lift_round_trip_on_c5():
    G = graph(5, 5, [((1, 2), 1), ((2, 3), 2), ((3, 4), 3), ((4, 5), 4), ((1, 5), 5)])
    e = edge_by_verts(G, (4, 5))
    Gp, cmap = contract_color_delete(G, e)
    hc_prime = find_rainbow_hc(Gp)
    assert hc_prime is not None
    lifted = lift_cycle(hc_prime, cmap, e)
    assert lifted is not None
    assert is_rainbow_hamilton_cycle(G, lifted)
    assert e in lifted.edges
    assert lifted.vertices[0] == 1


def test_lift_fails_when_both_attachments_hit_one_side():
    # vertex 4 touches only the contracted edge, so both cycle edges at the
    # merged vertex trace back to endpoint 3 and the expansion cannot close
    G = graph(4, 4, [((1, 3), 1), ((2, 3), 2), ((1, 2), 3), ((3, 4), 4)])
    e = edge_by_verts(G, (3, 4))
    Gp, cmap = contract_color_delete(G, e)
    hc_prime = find_rainbow_hc(Gp)
    assert hc_prime is not None
    assert lift_cycle(hc_prime, cmap, e) is None


def test_lift_picks_the_free_side_of_a_two_origin_edge():
    # the color-1 edges (1, 4) and (1, 5) both become (1, xi); the other
    # xi-edge of the cycle has one origin, so the color-1 edge must be lifted
    # to the other endpoint of the contracted edge (4, 5)
    for other, free in (((3, 4), 5), ((3, 5), 4)):
        G = graph(5, 5, [((1, 4), 1), ((1, 5), 1), ((1, 2), 2), ((2, 3), 3),
                         (other, 4), ((4, 5), 5)])
        e = edge_by_verts(G, (4, 5))
        Gp, cmap = contract_color_delete(G, e)
        assert [g for g in Gp.edges if g.color == 1] == [ColoredEdge((1, 4), 1)] * 2
        hc_prime = find_rainbow_hc(Gp)
        assert hc_prime is not None
        lifted = lift_cycle(hc_prime, cmap, e)
        assert lifted is not None
        assert is_rainbow_hamilton_cycle(G, lifted)
        assert ColoredEdge((1, free), 1) in lifted.edges


def random_hamilton_cycle(Gp, rnd, tries=300):
    """A Hamilton cycle of Gp through uniformly random vertex orders, each
    step over a random one of its parallel edges (any colors), or None when
    none of the tries closes."""
    by_pair = {}
    for g in Gp.edges:
        by_pair.setdefault(g.verts, []).append(g)
    for _ in range(tries):
        order = [1] + rnd.sample(range(2, Gp.n + 1), Gp.n - 1)
        pairs = [tuple(sorted((order[i], order[(i + 1) % Gp.n]))) for i in range(Gp.n)]
        if all(p in by_pair for p in pairs):
            return HamiltonCycle(tuple(order), tuple(rnd.choice(by_pair[p]) for p in pairs))
    return None


def lift_pin_record():
    """lift_cycle's results over sampled contractions, as one JSON text, and
    (lifts, lift failures, cycles lifted over a xi-edge with both an x- and a
    y-origin).  n = 5..11, kappa in {n, 3} (three colors make same-colored
    parallel xi-edges common), dense graphs; each contraction lifts the
    rainbow cycle the path-extension oracle finds, if any, and two random
    Hamilton cycles of any colors."""
    out, lifts, fails, two_origin = [], 0, 0, 0
    for n in range(5, 12):
        total = n * (n - 1) // 2
        for kappa in (n, 3):
            for t in range(20):
                rnd = rng(t, seed=1000 * n + kappa)
                G = sample_colored_graph(n, total - rnd.randint(0, n), kappa, rnd)
                host = set(G.edges)
                e = rnd.choice(G.edges)
                x, y = e.verts
                Gp, cmap = contract_color_delete(G, e)
                cycles = [find_rainbow_hc_by_extension(Gp), random_hamilton_cycle(Gp, rnd),
                          random_hamilton_cycle(Gp, rnd)]
                for hc in filter(None, cycles):
                    lifted = lift_cycle(hc, cmap, e)
                    if lifted is None:
                        fails += 1
                        out.append(None)
                        continue
                    lifts += 1
                    assert e in lifted.edges
                    assert not Counter(lifted.edges) - Counter(G.edges)
                    out.append([lifted.vertices, [[g.verts, g.color] for g in lifted.edges]])
                    for g in hc.edges:
                        if cmap.xi in g.verts:
                            w = cmap.new_to_old[g.verts[0]]
                            if {ColoredEdge(tuple(sorted((w, z))), g.color)
                                    for z in (x, y)} <= host:
                                two_origin += 1
    return json.dumps(out), (lifts, fails, two_origin)


# sha256 of lift_pin_record()'s JSON, recorded when the lift still looked
# xi-edges up in a table of their original endpoint pairs
LIFT_PINNED = "3ecf5f49864f7f9cd05d7fc5eb272a88af8b217f4adfe27cd7534d7b35b2e347"


def test_lift_pinned():
    record, (lifts, fails, two_origin) = lift_pin_record()
    assert lifts > 100 and fails > 100 and two_origin > 50
    assert hashlib.sha256(record.encode()).hexdigest() == LIFT_PINNED


# -- odd-n experiment accounting


def test_odd_budget_exhaustion_is_not_reported_absent():
    # on the complete graph the contracted search cannot stop at its root, so
    # a budget of one node runs out on every attempt
    config = ExperimentConfig(kind="hamilton", ns=(9,), ms=(36,), trials=4, retries=2,
                              hc_budget=1, master_seed=3)
    result = hamilton_experiment(config)
    assert {r.value["stage_reached"] for r in result.rows} == {STAGE_HC_BUDGET}
    assert {r.outcome for r in result.rows} == {"budget"}
    header, (row,) = hamilton_table(result)
    counts = dict(zip(header, row))
    assert (counts["hc_budget"], counts["hc_not_found"], counts["success"]) == (4, 0, 0)
    (cell,) = json.loads(hamilton_trials_json(result))["cells"]
    assert [t["stage_reached"] for t in cell["trials"]] == [STAGE_HC_BUDGET] * 4


def repeat_a_color(cycle):
    edges = list(cycle.edges)
    edges[1] = ColoredEdge(edges[1].verts, edges[0].color)
    return HamiltonCycle(cycle.vertices, tuple(edges))


def swap_two_colors(cycle):
    # still rainbow, but over two edges the sampled graph lacks
    edges = list(cycle.edges)
    edges[0], edges[1] = (ColoredEdge(edges[0].verts, edges[1].color),
                          ColoredEdge(edges[1].verts, edges[0].color))
    return HamiltonCycle(cycle.vertices, tuple(edges))


@pytest.mark.parametrize("tamper", [repeat_a_color, swap_two_colors])
def test_odd_trial_checks_the_lifted_cycle(monkeypatch, tamper):
    # a wrong lifted cycle is a program error: the trial raises rather than
    # report it as a success (or as an absence)
    config = ExperimentConfig(kind="hamilton", ns=(7,), ms=(18,), trials=3, retries=2,
                              master_seed=1)
    stages = [r.value["stage_reached"] for r in hamilton_experiment(config).rows]
    assert "success" in stages

    def wrong_lift(hc, cmap, e):
        lifted = lift_cycle(hc, cmap, e)
        return None if lifted is None else tamper(lifted)

    monkeypatch.setattr(experiments, "lift_cycle", wrong_lift)
    with pytest.raises(RuntimeError, match="^lift: "):
        hamilton_experiment(config)


def test_odd_cell_without_edges_is_rejected():
    # the odd pipeline contracts an edge, so it needs one; even n runs on
    with pytest.raises(ValueError, match="m >= 1"):
        hamilton_experiment(ExperimentConfig(kind="hamilton", ns=(5,), ms=(0,), trials=1,
                                             retries=1))
    result = hamilton_experiment(ExperimentConfig(kind="hamilton", ns=(4,), ms=(0,),
                                                  trials=1, retries=1))
    assert [r.value["stage_reached"] for r in result.rows] == ["matching-not-found"]


def test_pipelines_refuse_other_color_counts():
    # both pipelines need exactly n colors; kappa = n itself runs
    for kappa in (4, 8):
        with pytest.raises(ValueError, match="exactly n colors"):
            hamilton_experiment(ExperimentConfig(kind="hamilton", ns=(6,), ms=(12,), trials=1,
                                                 kappa=kappa))
    hamilton_experiment(ExperimentConfig(kind="hamilton", ns=(6,), ms=(12,), trials=1, kappa=6))
