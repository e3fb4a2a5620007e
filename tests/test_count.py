import itertools
import math
from fractions import Fraction

import pytest

from rainbowmatch import count as count_module
from rainbowmatch.count import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    _Search,
    count_rainbow_pm,
    disjoint_completion_count,
    expected_rainbow_count,
    find_rainbow_pm,
    is_perfect_matching,
    is_rainbow,
    latin_transversal,
    second_moment_exact,
)
from rainbowmatch.hamilton import ColoredMultigraph
from rainbowmatch.model import (
    ColoredEdge,
    ColoredHypergraph,
    GRAPH,
    Matching,
    PARTITE,
    PartiteVertex,
    RandomnessSpec,
    complete_colored,
    restrict,
    sample_colored_graph,
    sample_partite_m,
)

from helpers import active_vertices, assert_stored_as_checked, edge_by_verts
from oracles import count_uniform_pm, reduce_to_uniform


def rng(stream=0, seed=0):
    return RandomnessSpec(seed, stream).rng()


def bipartite(color_map, n=2):
    """Complete n x n bipartite instance with colors given by (i, j) -> c."""
    edges = tuple(
        ColoredEdge((i, j), color_map[(i, j)])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    kappa = max(color_map.values())
    return ColoredHypergraph(PARTITE, n, 2, kappa, edges)


# -- predicates


def test_is_rainbow_basic():
    assert is_rainbow([ColoredEdge((1, 1), 1), ColoredEdge((2, 2), 2)])
    assert not is_rainbow([ColoredEdge((1, 1), 1), ColoredEdge((2, 2), 1)])
    assert is_rainbow([])


def test_is_perfect_matching_respects_absent():
    H = complete_colored(2, 2, 2, rng(0))
    M = Matching((edge_by_verts(H, (1, 1)), edge_by_verts(H, (2, 2))))
    assert is_perfect_matching(H, M)
    # after deleting the (1,.) and (.,1) vertices, the single edge (2,2) covers
    R = restrict(H, removed_vertices=[PartiteVertex(1, 1), PartiteVertex(2, 1)])
    single = Matching((edge_by_verts(R, (2, 2)),))
    assert is_perfect_matching(R, single)


def test_is_perfect_matching_rejects_what_is_not_one():
    H = complete_colored(3, 2, 3, rng(0))
    e11, e22, e33, e12 = (edge_by_verts(H, v) for v in [(1, 1), (2, 2), (3, 3), (1, 2)])
    assert is_perfect_matching(H, Matching((e11, e22, e33)))
    foreign = ColoredEdge((3, 3), e33.color % 3 + 1)  # right vertices, wrong color
    assert not is_perfect_matching(H, Matching((e11, e22, foreign)))
    assert not is_perfect_matching(H, Matching((e11, e22)))  # (3, 3) uncovered
    assert not is_perfect_matching(H, Matching((e11, e12, e33)))  # vertex (1, 1) twice
    assert not is_perfect_matching(H, Matching((e11, e22, e33, e33)))
    G = ColoredHypergraph(GRAPH, 4, 2, 2, (ColoredEdge((1, 2), 1), ColoredEdge((3, 4), 2),
                                           ColoredEdge((2, 3), 1)))
    assert is_perfect_matching(G, Matching(G.edges[::2]))
    assert not is_perfect_matching(G, Matching(G.edges[:2]))  # vertex 2 twice
    # vertex indices out of range that spell the key of an edge of H with the
    # same color, in a matching that would otherwise pass: at n = 3, (1, 4)
    # spells the key of (2, 1); at n = 4, (1, 7) that of (2, 3); at n = 2,
    # k = 3, (1, 1, 3) that of (1, 2, 1)
    e21 = edge_by_verts(H, (2, 1))
    assert not is_perfect_matching(H, Matching((ColoredEdge((1, 4), e21.color), e22, e33)))
    assert not is_perfect_matching(G, Matching((ColoredEdge((1, 7), 1), ColoredEdge((3, 4), 2))))
    H3 = complete_colored(2, 3, 2, rng(1))
    e121, e222 = edge_by_verts(H3, (1, 2, 1)), edge_by_verts(H3, (2, 2, 2))
    assert not is_perfect_matching(H3, Matching((ColoredEdge((1, 1, 3), e121.color), e222)))
    # an index that is not an int: at n = 2, (1.5, 1) spells the key of (1, 2)
    H2 = complete_colored(2, 2, 2, rng(2))
    e12, e22 = edge_by_verts(H2, (1, 2)), edge_by_verts(H2, (2, 2))
    assert not is_perfect_matching(H2, Matching((ColoredEdge((1.5, 1), e12.color), e22)))


# -- find


def test_find_absent_when_both_pms_repeat_colors():
    H = bipartite({(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1})
    assert find_rainbow_pm(H) is None


def test_find_positive_case():
    H = bipartite({(1, 1): 1, (2, 2): 2, (1, 2): 1, (2, 1): 2})
    M = find_rainbow_pm(H)
    assert M is not None
    assert is_perfect_matching(H, M) and is_rainbow(M)


def test_find_empty_instance_absent():
    H = ColoredHypergraph(PARTITE, 2, 2, 2, ())
    assert find_rainbow_pm(H) is None


def test_find_zero_active_instance_trivially_found():
    H = complete_colored(1, 2, 1, rng(2))
    R = restrict(H, removed_vertices=[PartiteVertex(1, 1), PartiteVertex(2, 1)])
    M = find_rainbow_pm(R)
    assert M is not None and len(M) == 0


def test_a_threshold_trial_never_builds_the_edges_view():
    # the sampler stores keys and colors, and the search, the witness and its
    # check read only those, whether a witness is found, absence is proved or
    # the budget runs out; the edges view is built when it is first read
    outcomes = []
    for m, budget in ((30, DEFAULT_NODE_BUDGET), (8, DEFAULT_NODE_BUDGET), (30, 2)):
        H = sample_partite_m(6, 2, 6, m, rng(0, seed=80))
        try:
            outcomes.append("found" if find_rainbow_pm(H, budget=budget) else "absent")
        except BudgetExceededError:
            outcomes.append("budget")
        assert "edges" not in vars(H), m
        assert_stored_as_checked(H)
        assert "edges" in vars(H)
    assert outcomes == ["found", "absent", "budget"]


def test_find_budget_error_carries_node_count():
    H = complete_colored(5, 2, 5, rng(3))
    with pytest.raises(BudgetExceededError) as info:
        find_rainbow_pm(H, budget=2)
    assert info.value.nodes >= 2


# -- count


def test_count_worked_example_two():
    H = bipartite({(1, 1): 1, (2, 2): 2, (1, 2): 1, (2, 1): 2})
    assert count_rainbow_pm(H).value == 2


def test_count_monochrome_zero():
    H = bipartite({(1, 1): 3, (1, 2): 3, (2, 1): 3, (2, 2): 3})
    assert count_rainbow_pm(H).value == 0


def test_count_cyclic_coloring_matches_permutation_brute():
    # n=3, color (i + j mod 3) + 1; brute over the 6 permutations directly
    cmap = {(i, j): (i + j) % 3 + 1 for i in range(1, 4) for j in range(1, 4)}
    H = bipartite(cmap, n=3)
    by_hand = 0
    for perm in itertools.permutations(range(1, 4)):
        colors = {cmap[(i, perm[i - 1])] for i in range(1, 4)}
        by_hand += len(colors) == 3
    report = count_rainbow_pm(H)
    assert report.value == by_hand == 3
    assert count_rainbow_pm(H, method="ie").value == by_hand


def test_count_zero_active_is_one():
    H = complete_colored(1, 2, 1, rng(4))
    R = restrict(H, removed_vertices=[PartiteVertex(1, 1), PartiteVertex(2, 1)])
    assert count_rainbow_pm(R).value == 1


def test_count_methods_agree_on_random_instances():
    for j in range(40):
        n = 2 + j % 4  # 2..5
        m = (j * 7) % (n * n + 1)
        H = sample_partite_m(n, 2, n, m, rng(j, seed=31))
        brute = count_rainbow_pm(H).value
        ie = count_rainbow_pm(H, method="ie").value
        assert brute == ie, (n, m, j)


def test_count_ie_requires_square_bipartite():
    H = sample_partite_m(3, 3, 3, 5, rng(5))
    with pytest.raises(ValueError):
        count_rainbow_pm(H, method="ie")
    H2 = sample_partite_m(3, 2, 4, 5, rng(6))
    with pytest.raises(ValueError):
        count_rainbow_pm(H2, method="ie")
    with pytest.raises(ValueError, match="^unknown method 'x'$"):
        count_rainbow_pm(H2, method="x")


def test_count_monotone_in_edges():
    for j in range(20):
        n = 3
        H = sample_partite_m(n, 2, n, 5, rng(j, seed=32))
        base = count_rainbow_pm(H).value
        missing = sorted(
            {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)}
            - {e.verts for e in H.edges}
        )
        if not missing:
            continue
        extra = ColoredEdge(missing[j % len(missing)], 1 + j % n)
        H2 = ColoredHypergraph(PARTITE, n, 2, n, H.edges + (extra,))
        assert count_rainbow_pm(H2).value >= base


def test_count_report_fields():
    H = complete_colored(2, 2, 2, rng(7))
    report = count_rainbow_pm(H)
    assert report.method == "brute"
    assert report.nodes > 0 and report.elapsed >= 0.0
    assert count_rainbow_pm(H, method="ie").method == "color-inclusion-exclusion"


def test_count_ie_reports_dp_transitions():
    # one color on every edge: only the 2^(n-1) color subsets holding it give
    # a nonzero adjacency, the full one, whose permanent DP makes n * 2^(n-1)
    # transitions; the other subsets make none
    for n in range(1, 6):
        edges = tuple(ColoredEdge((i, j), 1) for i in range(1, n + 1) for j in range(1, n + 1))
        report = count_rainbow_pm(ColoredHypergraph(PARTITE, n, 2, n, edges), method="ie")
        assert report.value == (n == 1)
        assert report.nodes == n * 4 ** (n - 1)
    # the budget pre-check still uses the 4^n * n estimate
    H = complete_colored(3, 2, 3, rng(9))
    with pytest.raises(BudgetExceededError):
        count_rainbow_pm(H, method="ie", budget=4**3 * 3 - 1)
    assert count_rainbow_pm(H, method="ie", budget=4**3 * 3).nodes < 4**3 * 3


# -- color-supply prune


def plain_count(H):
    """Rainbow perfect matchings of H by trying every edge subset of the
    matching size (no search, no pruning)."""
    active = active_vertices(H)
    per_edge = H.k if H.mode == PARTITE else 2
    if len(active) % per_edge:
        return 0
    size = len(active) // per_edge
    total = 0
    for sub in itertools.combinations(H.edges, size):
        if len({e.color for e in sub}) < size:
            continue
        if H.mode == PARTITE:
            verts = [PartiteVertex(p, i) for e in sub for p, i in enumerate(e.verts, start=1)]
        else:
            verts = [v for e in sub for v in e.verts]
        total += len(set(verts)) == len(active)
    return total


def test_prune_keeps_counts_on_square_instances():
    # kappa == n: the inclusion-exclusion route (k=2) and the uniform
    # reduction (k=2 and 3) are independent of the kernel
    for j in range(24):
        n = 3 + j % 3
        H = sample_partite_m(n, 2, n, 2 * n + j % (n * n - 2 * n + 1), rng(j, seed=36))
        brute = count_rainbow_pm(H).value
        assert brute == count_rainbow_pm(H, method="ie").value, (n, j)
        assert brute == count_uniform_pm(reduce_to_uniform(H)), (n, j)
    for j in range(12):
        n = 3 + j % 2
        H = sample_partite_m(n, 3, n, 3 * n + j, rng(j, seed=37))
        assert count_rainbow_pm(H).value == count_uniform_pm(reduce_to_uniform(H)), (n, j)


def test_prune_keeps_counts_off_square():
    cases = []
    for j in range(8):
        n = 4 + j % 2
        cases.append(sample_partite_m(n, 2, n - 1, 3 * n, rng(j, seed=38)))  # kappa < n
        cases.append(sample_partite_m(n, 2, n + 2, 3 * n, rng(j, seed=39)))  # kappa > n
        cases.append(sample_partite_m(3, 3, 3 + j % 3, 14, rng(j, seed=40)))
        H = sample_partite_m(5, 2, 5, 16, rng(j, seed=41))
        cases.append(restrict(H, removed_colors=[1 + j % 5]))
        cases.append(restrict(H, removed_vertices=[PartiteVertex(1, 1 + j % 5),
                                                   PartiteVertex(2, 5 - j % 5)]))
        cases.append(restrict(H, removed_vertices=[PartiteVertex(1, 2)], removed_colors=[3]))
        cases.append(sample_colored_graph(8, 14, 4 + j % 3, rng(j, seed=42)))
        G = sample_colored_graph(8, 14, 5, rng(j, seed=43))
        cases.append(restrict(G, removed_vertices=[1 + j % 8, 8 - j % 4], removed_colors=[2]))
    positive = 0
    for H in cases:
        want = plain_count(H)
        assert count_rainbow_pm(H).value == want, H
        assert (find_rainbow_pm(H) is None) == (want == 0), H
        positive += want > 0
    assert 0 < positive < len(cases)


def test_color_starved_instance_dies_at_the_root():
    # n - 1 colors cannot pay for n edges, whatever the vertices allow
    for n, k in ((6, 2), (4, 3)):
        H = complete_colored(n, k, n - 1, rng(n, seed=44))
        report = count_rainbow_pm(H)
        assert (report.value, report.nodes) == (0, 1)
        assert find_rainbow_pm(H) is None


def colors_are_primary(H):
    """True when the search kernel covers every color exactly once: the edges
    carry exactly as many colors as a perfect matching has edges."""
    per_edge = H.k if H.mode == PARTITE else 2
    return len({e.color for e in H.edges}) * per_edge == len(active_vertices(H))


def color_switch_cases():
    """(instance, reference count) on both sides of the kernel's color switch.
    kappa == n and nothing removed: inclusion-exclusion (k = 2) and the
    uniform reduction.  Otherwise (graph mode, k = 3 with kappa > n, removed
    vertices or colors): the edge-subset enumerator."""
    cases = []
    for j in range(12):
        n, k = (3 + j % 3, 2) if j % 2 else (3, 3)
        H = sample_partite_m(n, k, n, n ** k - j % n ** (k - 1), rng(j, seed=60))
        want = count_uniform_pm(reduce_to_uniform(H))
        if k == 2:
            assert want == count_rainbow_pm(H, method="ie").value, H
        cases.append((H, want))
    for j in range(8):
        others = [
            sample_colored_graph(8, 16, 4, rng(j, seed=61)),  # exactly s colors
            sample_colored_graph(8, 16, 6, rng(j, seed=62)),
            sample_partite_m(3, 3, 5, 20, rng(j, seed=63)),
        ]
        H = sample_partite_m(5, 2, 6, 20, rng(j, seed=64))
        drop = [PartiteVertex(1, 1 + j % 5), PartiteVertex(2, 1 + (j + 2) % 5)]
        others.append(restrict(H, removed_vertices=drop))  # 6 colors, 4 edges
        others.append(restrict(H, removed_vertices=drop, removed_colors=[5, 6]))
        cases += [(G, plain_count(G)) for G in others]
    return cases


def test_search_counts_on_both_sides_of_the_color_switch():
    seen = set()
    for H, want in color_switch_cases():
        assert dfs_count(H) == want, H
        M = find_rainbow_pm(H)
        assert (M is None) == (want == 0), H
        if M is not None:
            assert is_perfect_matching(H, M) and is_rainbow(M), H
        seen.add((H.mode, colors_are_primary(H), want > 0))
    for mode in (PARTITE, "graph"):
        assert {(mode, True, True), (mode, False, True), (mode, False, False)} <= seen, mode


def _layout_oracle(H, demand=1):
    """The instance's bit layout built vertex by vertex, every column found by
    scanning the edge list, and the part-1 lists by scanning it once per
    part-1 vertex: the attributes _Layout must hold."""
    n = H.n
    if demand == 2:
        active, twice = list(range(1, n + 1)), list(range(1, n + 1))
        feasible, per_edge, shift = True, 2, n
    elif H.mode == PARTITE:
        active = [PartiteVertex(p, i) for p in range(1, H.k + 1) for i in H.part_active(p)]
        twice = []
        feasible = len({len(H.part_active(p)) for p in range(1, H.k + 1)}) == 1
        per_edge, shift = H.k, n * H.k
    else:
        active, twice = active_vertices(H), []
        feasible, per_edge, shift = len(active) % 2 == 0, 2, n

    def bit(v):
        return 1 << ((v.part - 1) * n + v.index - 1) if isinstance(v, PartiteVertex) else 1 << (v - 1)

    def edge_vertices(e):
        if demand == 1 and H.mode == PARTITE:
            return [PartiteVertex(p, i) for p, i in enumerate(e.verts, start=1)]
        return list(e.verts)

    items = []
    for e in H.edges:
        verts = tuple(bit(v) for v in edge_vertices(e))
        items.append((verts, sum(verts), 1 << (e.color - 1)))
    vertex_cols, color_cols = {}, {}
    for v in active:
        col = sum(1 << i for i, e in enumerate(H.edges) if v in edge_vertices(e))
        if col:
            vertex_cols[bit(v)] = col
    for c in range(1, H.kappa + 1):
        col = sum(1 << i for i, e in enumerate(H.edges) if e.color == c)
        if col:
            color_cols[1 << (c - 1)] = col
    all_active = sum(bit(v) for v in active)
    vcols = sorted(vertex_cols.items())
    if any(bit(v) not in vertex_cols for v in active):
        vcols.insert(0, (all_active, 0))
    want = {
        "active": all_active,
        "twice": sum(bit(v) for v in twice),
        "per_edge": per_edge,
        "feasible": feasible,
        "shift": shift,
        "items": items,
        "vertex_cols": vertex_cols,
        "color_cols": color_cols,
        "vcols": vcols,
        "ccols": [col for _, col in sorted(color_cols.items())],
        "exact": len(color_cols) * per_edge == len(active) + len(twice),
    }
    if demand == 1 and H.mode == PARTITE:
        # each edge packed, and the edges of each part-1 vertex in order
        packed = [covers | cbit << shift for _, covers, cbit in items]
        lists = {}
        for i in H.part_active(1):
            b = bit(PartiteVertex(1, i))
            lists[b] = [x for x in packed if x & b]
        want["packed"] = (packed, lists)
    return want


# the search's columns, which _Search builds from the layout's bits
_COLUMNS = ("vertex_cols", "color_cols", "vcols", "ccols", "exact")


def test_kernel_layout_pinned():
    cases = []
    for j in range(10):
        for n, k, m in ((6, 2, 20), (4, 3, 30), (1, 2, 1), (3, 4, 40)):
            H = sample_partite_m(n, k, n + 1, m, rng(j, seed=70))
            cases.append(H)
            if n > 1:
                # balanced: one vertex gone from every part
                cases.append(restrict(H, removed_vertices=[
                    PartiteVertex(p, 1 + (j + p) % n) for p in range(1, k + 1)]))
                # unequal active parts
                cases.append(restrict(H, removed_vertices=[PartiteVertex(1 + j % k, 1 + j % n)]))
                cases.append(restrict(H, removed_vertices=[
                    PartiteVertex(p, i) for p in (1, k) for i in range(1, n + 1) if i % 2]))
        for n, m in ((7, 12), (8, 20), (2, 1)):
            G = sample_colored_graph(n, m, n, rng(j, seed=71))
            cases += [G, restrict(G, removed_vertices=[1 + j % n])]
            cases.append(restrict(G, removed_vertices=range(1, n + 1, 2)))
    cases += [ColoredHypergraph(PARTITE, 3, 2, 3, ()), ColoredHypergraph("graph", 5, 2, 2, ())]
    feasible = set()
    for H in cases:
        search = count_module._Search(H, 1, find_one=True)
        layout = search.layout
        want = _layout_oracle(H)
        got = {name: getattr(search if name in _COLUMNS else layout, name)
               for name in want if name != "packed"}
        if "packed" in want:
            got["packed"] = layout.packed()
        assert got == want, H
        # the bare layout holds bits only
        assert not any(hasattr(count_module._Layout(H), name) for name in _COLUMNS), H
        feasible.add((H.mode, bool(H.absent), layout.feasible))
    assert feasible == {(mode, gone, ok) for mode in (PARTITE, "graph")
                        for gone in (False, True) for ok in (False, True)} - {(PARTITE, False, False)}
    # demand 2: a multigraph with parallel edges, then one more vertex, which
    # no edge touches
    edges = [ColoredEdge((1, 2), 1), ColoredEdge((1, 2), 3), ColoredEdge((2, 3), 2),
             ColoredEdge((1, 3), 2), ColoredEdge((3, 4), 4)]
    for G in (ColoredMultigraph(4, 4, tuple(edges)), ColoredMultigraph(5, 4, tuple(edges))):
        search = count_module._Search(G, 1, find_one=True, demand=2)
        want = _layout_oracle(G, demand=2)
        assert {name: getattr(search if name in _COLUMNS else search.layout, name)
                for name in want} == want, G
        assert not any(hasattr(count_module._Layout(G, demand=2), name) for name in _COLUMNS), G


def test_an_active_vertex_without_edges_prunes_the_root():
    # the kernel builds columns only for vertices some edge touches; an
    # active vertex that none touches still ends the search at its root
    H = complete_colored(4, 2, 4, rng(0, seed=72))
    G = sample_colored_graph(6, 15, 6, rng(0, seed=73))
    for Hc in (restrict(H, removed_edges=[e for e in H.edges if e.verts[1] == 3]),
               restrict(H, removed_edges=[e for e in H.edges if e.verts[0] == 1]),
               restrict(G, removed_edges=[e for e in G.edges if 4 in e.verts])):
        assert Hc.edges
        assert find_rainbow_pm(Hc) is None
        assert witness_nodes(Hc) == 1
        report = count_rainbow_pm(Hc)
        assert (report.value, report.nodes) == (0, 1)


# -- split count (meet in the middle)


def dfs_count(H):
    """The depth-first kernel's count, the split count's reference."""
    search = _Search(H, DEFAULT_NODE_BUDGET, find_one=False)
    search.run()
    return search.count


def witness_nodes(H):
    """Nodes of the depth-first witness search that precedes the split."""
    search = _Search(H, DEFAULT_NODE_BUDGET, find_one=True)
    search.run()
    return search.nodes


def split_cases():
    """Random partite instances at k = 2 and 3 with kappa from n - 1 to n + 3,
    some with balanced absent vertices, a removed color or unequal active
    parts, plus s = 1, complete kappa = n and edgeless instances."""
    cases = []
    for j in range(80):
        k, i = 2 + j % 2, j // 2
        n = 3 + i % 4 if k == 2 else 2 + i % 3
        kappa = n - 1 + (i // 4) % 5
        m = n**k - (j * 7) % (n ** (k - 1) + 1)
        H = sample_partite_m(n, k, kappa, m, rng(j, seed=50))
        variant = (j // 10) % 4
        if variant == 1:
            H = restrict(H, removed_vertices=[PartiteVertex(p, 1 + (j + p) % n)
                                              for p in range(1, k + 1)])
        elif variant == 2:
            H = restrict(H, removed_colors=[1 + j % kappa])
        elif variant == 3:
            H = restrict(H, removed_vertices=[PartiteVertex(1, 1 + j % n)])
        cases.append(H)
    for j in range(6):
        k = 2 + j % 2
        H = sample_partite_m(3, k, 2 + j % 3, 3**k - j, rng(j, seed=51))
        drop = [PartiteVertex(p, i) for p in range(1, k + 1) for i in (1 + j % 3, 1 + (j + 1) % 3)]
        cases.append(restrict(H, removed_vertices=drop))  # s = 1
        cases.append(complete_colored(1, k, 1 + j % 2, rng(j, seed=52)))  # s = 1
    for n in (4, 5, 6):
        cases.append(complete_colored(n, 2, n, rng(n, seed=53)))
    for n in (2, 3, 4):
        cases.append(complete_colored(n, 3, n, rng(n, seed=53)))
    cases.append(ColoredHypergraph(PARTITE, 3, 2, 3, ()))
    cases.append(ColoredHypergraph(PARTITE, 2, 3, 4, ()))
    return cases


def test_split_count_matches_depth_first_search():
    joins = set()
    sizes = set()
    square = 0
    for H in split_cases():
        report = count_rainbow_pm(H)
        assert report.value == dfs_count(H), H
        if H.kappa == H.n and not H.absent:
            # the uniform reduction and, at k = 2, inclusion-exclusion
            square += 1
            assert report.value == count_uniform_pm(reduce_to_uniform(H)), H
            if H.k == 2:
                assert report.value == count_rainbow_pm(H, method="ie").value, H
        s = len(H.part_active(1))
        sizes.add(s)
        if report.value:
            # exact palette (one dict lookup per leaf) or a wider one (scan)
            joins.add(len({e.color for e in H.edges}) == s)
        else:
            # the witness search proved the zero; the split did not run
            assert report.nodes == witness_nodes(H), H
    assert joins == {True, False}
    assert {1, 2, 3, 4, 5, 6} <= sizes
    assert square >= 14


def prefix_rainbow(H, firsts):
    """The rainbow matchings with exactly one edge through each part-1 vertex
    of firsts and no other edge."""
    for combo in itertools.product(*([e for e in H.edges if e.verts[0] == v] for v in firsts)):
        verts = {(p, v) for e in combo for p, v in enumerate(e.verts)}
        if len(verts) == len(firsts) * H.k and is_rainbow(combo):
            yield combo


def prefix_matchings(H, firsts):
    """For d = 1..len(firsts): how many rainbow matchings have exactly one
    edge through each of the part-1 vertices firsts[:d] and no other edge."""
    return [sum(1 for _ in prefix_rainbow(H, firsts[:d])) for d in range(1, len(firsts) + 1)]


def shares_a_state(H, firsts):
    """True iff two of the rainbow matchings through firsts cover the same
    vertices with the same colors."""
    states = [(frozenset((p, v) for e in combo for p, v in enumerate(e.verts)),
               frozenset(e.color for e in combo))
              for combo in prefix_rainbow(H, firsts)]
    return len(set(states)) < len(states)


def test_split_count_nodes_and_budget_edges():
    cases = [
        complete_colored(5, 2, 5, rng(0, seed=55)),
        complete_colored(5, 2, 7, rng(1, seed=55)),
        complete_colored(4, 2, 4, rng(2, seed=55)),
        complete_colored(3, 3, 4, rng(3, seed=55)),
        restrict(complete_colored(6, 2, 7, rng(4, seed=55)),
                 removed_vertices=[PartiteVertex(1, 2), PartiteVertex(2, 5)], removed_colors=[3]),
        # two partial matchings of a first-half layer below the table share
        # a state (covered vertices and used colors): each counts as a node
        complete_colored(8, 2, 8, rng(5, seed=55)),
        complete_colored(7, 2, 8, rng(9, seed=55)),
    ]
    for H in cases[-2:]:
        firsts = H.part_active(1)
        assert any(shares_a_state(H, firsts[:d]) for d in range(2, len(firsts) // 2))
    for H in cases:
        report = count_rainbow_pm(H)
        # the witness search's nodes, then one node per partial matching
        # either half builds: the first h part-1 vertices and the rest
        firsts = H.part_active(1)
        h = len(firsts) // 2
        halves = prefix_matchings(H, firsts[:h]) + prefix_matchings(H, firsts[h:])
        want = witness_nodes(H) + sum(halves)
        assert report.nodes == want
        assert count_rainbow_pm(H, budget=report.nodes).value == report.value
        with pytest.raises(BudgetExceededError) as info:
            count_rainbow_pm(H, budget=report.nodes - 1)
        assert info.value.nodes > report.nodes - 1


def test_split_count_budget_out_in_the_first_half():
    # the witness probe fits in the budget; the first chunk of the first
    # half's table takes the count past it
    H = complete_colored(6, 2, 6, RandomnessSpec(1).rng())
    assert witness_nodes(H) <= 10
    with pytest.raises(BudgetExceededError) as info:
        count_rainbow_pm(H, budget=10)
    assert info.value.nodes == 16


def test_split_count_value_does_not_depend_on_the_table_cap(monkeypatch):
    # the layer sizes of these instances are 6, 24-26, 64-72: a lower cap
    # keeps an earlier layer as the table (h moves), which changes the search
    # and its node count, but not the count
    for H in (complete_colored(6, 2, 6, rng(0, seed=56)),
              complete_colored(6, 2, 8, rng(1, seed=56))):
        want = dfs_count(H)
        firsts = H.part_active(1)
        for cap, h in ((0, 0), (10, 1), (30, 2)):
            monkeypatch.setattr(count_module, "_SPLIT_TABLE_CAP", cap)
            report = count_rainbow_pm(H)
            assert report.value == want, cap
            grown = prefix_matchings(H, firsts[: h + 1])
            kept = witness_nodes(H) + sum(grown[:h]) + sum(prefix_matchings(H, firsts[h:]))
            dropped = report.nodes - kept
            # layer h + 1 passed the cap and was dropped at the parent that
            # took it past (the root is the only parent of layer 1)
            assert cap < dropped <= grown[h] if h == 0 else cap < dropped < grown[h]
            assert count_rainbow_pm(H, budget=report.nodes).value == want
            with pytest.raises(BudgetExceededError):
                count_rainbow_pm(H, budget=report.nodes - 1)


def test_split_count_chunks_are_bounded_by_the_table_cap(monkeypatch):
    chunks = count_module._chunks
    calls = []

    def recorded(states, edges):
        sizes = []
        calls.append(sizes)
        for chunk in chunks(states, edges):
            sizes.append((len(chunk), len(edges)))
            yield chunk

    monkeypatch.setattr(count_module, "_chunks", recorded)
    several = False
    for cap in (0, 8, 40):
        monkeypatch.setattr(count_module, "_SPLIT_TABLE_CAP", cap)
        joins = set()
        for H in split_cases():
            calls.clear()
            report = count_rainbow_pm(H)
            assert report.value == dfs_count(H), (cap, H)
            for sizes in calls:
                assert all(size <= max(cap, width) for size, width in sizes), (cap, H)
            if report.value:
                # exact palette (one dict lookup per state) or a wider one
                joins.add(len({e.color for e in H.edges}) == len(H.part_active(1)))
                # at cap 0 the table is the empty matching alone, so every
                # list after the first is the depth-first half's
                several |= cap == 0 and any(len(sizes) > 1 for sizes in calls[1:])
        assert joins == {True, False}, cap
    assert several


def test_split_count_reads_the_witness_search_layout(monkeypatch):
    # a partite count builds one bit layout, in its witness search, and the
    # split reads that one
    built = []

    class Counted(count_module._Layout):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(count_module, "_Layout", Counted)
    H = complete_colored(5, 2, 5, rng(0, seed=74))
    # exact palette (one lookup per state), then a wider one (a bucket scan)
    for G in (H, restrict(H, removed_vertices=[PartiteVertex(1, 2), PartiteVertex(2, 4)])):
        want = dfs_count(G)
        built.clear()
        assert count_rainbow_pm(G).value == want > 0
        assert built == [G]


def pm_witness_instances():
    out = []
    for s in range(6):
        n = 6 + s % 3
        out.append(sample_partite_m(n, 2, n + s % 2, 5 * n + 2 * s, rng(s, seed=9)))
    for s in range(4):
        out.append(sample_partite_m(4, 3, 4 + s % 2, 24 + 4 * s, rng(s, seed=10)))
    for s in range(4):
        H = sample_partite_m(7, 2, 8, 36, rng(s, seed=11))
        out.append(restrict(H, removed_vertices=[PartiteVertex(1, 1 + s), PartiteVertex(2, 7 - s)],
                            removed_colors=[1 + s]))
    for s in range(6):
        n = 10 + 2 * (s % 2)
        out.append(sample_colored_graph(n, 3 * n, n // 2 + s % 3, rng(s, seed=12)))
    return out


# Witnesses of find_rainbow_pm on pm_witness_instances(), as indices into the
# instance's canonical edge list.  They pin the kernel's deterministic search
# order: the column with the fewest live edges first, ties to the lowest
# vertex, a column's edges in canonical order.  A prune cuts only dead
# subtrees, so it cannot move them.  The None entries are proofs of absence,
# which no search order changes.
PM_WITNESSES = [
    [4, 6, 11, 17, 25, 27], [3, 7, 13, 19, 20, 26, 35], [0, 9, 13, 20, 25, 33, 34, 42],
    [0, 10, 13, 20, 29, 33], [2, 12, 16, 21, 26, 31, 41], [6, 12, 16, 20, 25, 34, 36, 46],
    [2, 5, 15, 20], None, [2, 9, 20, 30], [1, 12, 24, 32],
    None, [3, 4, 7, 13, 17, 20], [2, 3, 10, 15, 17, 21], [2, 4, 9, 12, 19, 20],
    [1, 10, 17, 25, 28], [2, 7, 13, 24, 28, 32], [3, 10, 15, 21, 28], [2, 5, 10, 14, 19, 29],
    [0, 5, 17, 25, 28], [6, 9, 12, 25, 27, 32],
]


def test_find_witnesses_pinned():
    for H, want in zip(pm_witness_instances(), PM_WITNESSES, strict=True):
        M = find_rainbow_pm(H)
        assert (None if M is None else [H.edges.index(e) for e in M.edges]) == want
        if M is not None:
            assert is_perfect_matching(H, M) and is_rainbow(M), H


# -- closed forms


def test_expected_rainbow_count_values():
    assert math.isclose(expected_rainbow_count(2, 2), 1.0, rel_tol=1e-12)
    assert math.isclose(expected_rainbow_count(3, 3), 8.0, rel_tol=1e-12)
    assert math.isclose(expected_rainbow_count(3, 2), 4 / 3, rel_tol=1e-12)
    assert math.isclose(expected_rainbow_count(6, 2), 518400 / 46656, rel_tol=1e-12)


def test_closed_forms_are_inf_past_the_float_range():
    # each moment is finite up to the largest n whose value a float holds,
    # and inf from the next n on
    for n, k in ((123, 2), (64, 3), (45, 4)):
        assert math.isfinite(second_moment_exact(n, k)), (n, k)
        assert second_moment_exact(n + 1, k) == math.inf, (n, k)
    assert math.isfinite(expected_rainbow_count(209, 2))
    assert expected_rainbow_count(210, 2) == math.inf


def brute_disjoint_completions(ell, k):
    """Perfect matchings of the complete k-partite block sharing no edge with
    the diagonal matching {(j, j, ..., j)}."""
    total = 0
    for sigmas in itertools.product(itertools.permutations(range(ell)), repeat=k - 1):
        if all(any(sigma[j] != j for sigma in sigmas) for j in range(ell)):
            total += 1
    return total


def test_disjoint_completion_examples():
    assert disjoint_completion_count(3, 2) == 2
    assert disjoint_completion_count(2, 3) == 3
    assert disjoint_completion_count(0, 2) == 1
    assert disjoint_completion_count(0, 5) == 1
    with pytest.raises(ValueError, match="^need ell >= 0, k >= 2$"):
        disjoint_completion_count(-1, 2)


def test_disjoint_completion_small_brute():
    for k in (2, 3):
        for ell in range(5):
            assert disjoint_completion_count(ell, k) == brute_disjoint_completions(ell, k)


def test_disjoint_completion_derangements():
    d = [1, 0]
    for ell in range(2, 9):
        d.append((ell - 1) * (d[-1] + d[-2]))
    for ell in range(9):
        assert disjoint_completion_count(ell, 2) == d[ell]


def test_second_moment_examples():
    assert math.isclose(second_moment_exact(2, 2), 1.5, rel_tol=1e-12)
    assert math.isclose(second_moment_exact(1, 2), 1.0, rel_tol=1e-12)
    assert math.isclose(second_moment_exact(3, 2), 76 / 27, rel_tol=1e-12)


def test_second_moment_matches_monte_carlo_at_n3():
    trials = 100_000
    total = 0
    total_sq = 0
    for j in range(trials):
        x = count_rainbow_pm(complete_colored(3, 2, 3, rng(j, seed=33))).value
        total += x
        total_sq += x * x
    mean_sq = total_sq / trials
    # SE of the X^2 sample mean, estimated from the fourth moment
    var_est = sum(
        (count_rainbow_pm(complete_colored(3, 2, 3, rng(j, seed=33))).value ** 2 - mean_sq) ** 2
        for j in range(0, trials, 50)
    ) / (trials // 50)
    se = math.sqrt(var_est / trials)
    assert abs(mean_sq - second_moment_exact(3, 2)) <= 3 * se


# -- reduction


def test_reduce_single_edge():
    H = ColoredHypergraph(PARTITE, 1, 2, 1, (ColoredEdge((1, 1), 1),))
    U = reduce_to_uniform(H)
    assert U.r == 3 and len(U.edges) == 1
    assert count_uniform_pm(U) == 1 == count_rainbow_pm(H).value


def test_reduce_requires_square_colors():
    H = sample_partite_m(3, 2, 4, 5, rng(8))
    with pytest.raises(ValueError):
        reduce_to_uniform(H)


def test_reduce_empty_instance():
    H = ColoredHypergraph(PARTITE, 2, 2, 2, ())
    U = reduce_to_uniform(H)
    assert U.edges == ()
    assert count_uniform_pm(U) == 0


def test_reduction_bijection_random():
    for j in range(30):
        n = 2 + j % 3
        k = 2 + (j // 3) % 2
        m = (3 * j) % (n**k + 1)
        H = sample_partite_m(n, k, n, m, rng(j, seed=34))
        assert count_rainbow_pm(H).value == count_uniform_pm(reduce_to_uniform(H)), (n, k, m)


# -- latin transversals


def brute_latin(matrix):
    n = len(matrix)
    for perm in itertools.permutations(range(n)):
        values = [matrix[i][perm[i]] for i in range(n)]
        if 0 not in values and len(set(values)) == n:
            return True
    return False


def test_latin_worked_examples():
    assert latin_transversal([[1, 0], [0, 2]]) == [(1, 1), (2, 2)]
    assert latin_transversal([[1, 2], [2, 1]]) is None
    ident = [[(i if i == j else 0) for j in range(1, 4)] for i in range(1, 4)]
    assert latin_transversal(ident) == [(1, 1), (2, 2), (3, 3)]


def test_latin_validates_input():
    with pytest.raises(ValueError):
        latin_transversal([[1, 2]])
    with pytest.raises(ValueError):
        latin_transversal([[1, 5], [2, 1]])  # entry out of 0..n
    with pytest.raises(ValueError):
        latin_transversal([[1, -1], [2, 1]])
    with pytest.raises(ValueError, match="^matrix must be nonempty$"):
        latin_transversal([])


def test_latin_rejects_symbols_that_are_not_ints():
    # 1.9 and 2.7 were truncated to 1 and 2 (a transversal), True read as 1
    for bad in (1.9, 2.0, True, False, "1"):
        with pytest.raises(ValueError, match="not an int"):
            latin_transversal([[bad, 2], [1, 2]])
    with pytest.raises(ValueError, match="not an int"):
        latin_transversal([[1.9, 2], [1, 2.7]])


def test_latin_agrees_with_permutation_brute():
    for j in range(60):
        n = 2 + j % 4
        rnd = rng(j, seed=35)
        matrix = [[rnd.randrange(0, n + 1) for _ in range(n)] for _ in range(n)]
        got = latin_transversal(matrix)
        assert (got is not None) == brute_latin(matrix), matrix
        if got is not None:
            values = [matrix[r - 1][c - 1] for r, c in got]
            assert 0 not in values and len(set(values)) == n
            assert sorted(r for r, _ in got) == list(range(1, n + 1))
            assert sorted(c for _, c in got) == list(range(1, n + 1))
