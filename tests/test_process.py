import math
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from rainbowmatch.count import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    count_rainbow_pm,
)
from rainbowmatch.experiments import TRACE_STEP_HEADER, _ratio_cells
from rainbowmatch.model import (
    CapacityError,
    ColoredEdge,
    ColoredHypergraph,
    PARTITE,
    PartiteVertex,
    RandomnessSpec,
    complete_colored,
    random_edge_ordering,
    restrict,
    sample_partite_p,
)
from rainbowmatch.process import (
    DEFAULT_EVENT_PARAMS,
    DeletionStep,
    EventParams,
    LemmaPreconditionError,
    dyadic_interval_cover,
    dyadic_ratio_bound,
    dyadic_support_fraction,
    entropy,
    majority_median,
    run_deletion_process,
    weight_profile,
)
from rainbowmatch.process import (
    _DeletionState,
    _loss_rates,
    _median_capped,
    _regularity,
    _step_ratios,
)

from helpers import edge_by_verts
from oracles import degree_profile_by_edge, majority_median_walk, rainbow_weight, weight_ratio_bounded


def rng(stream=0, seed=0):
    return RandomnessSpec(seed, stream).rng()


def bipartite(color_map, n=2):
    edges = tuple(
        ColoredEdge((i, j), color_map[(i, j)])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    return ColoredHypergraph(PARTITE, n, 2, max(color_map.values()), edges)


def edge_table(H):
    """w(e) for every edge of H, read off the weight table: the number of
    rainbow perfect matchings through e."""
    table = weight_profile(H)
    return {e: table[(e.verts, e.color)] for e in H.edges}


def degree_lists(H):
    """H's vertex degrees and color degrees as two lists, in the order of
    `degree_profile_by_edge`'s keys."""
    return [list(degrees.values()) for degrees in degree_profile_by_edge(H)]


def regular(H, p, params=DEFAULT_EVENT_PARAMS):
    """Flag R as the deletion step computes it: the integer test on the
    smallest and the largest vertex degree and color degree of H."""
    return _regularity(H, params)(p, *degree_lists(H))


def median_capped(H, phi=None, table=None):
    """Flag C as the deletion step computes it: the predicate over the flat
    weight table, H's own or a hand-built table's, with the floor of
    phi / (2^k n^k) as its bound (phi is H's count by default)."""
    parts = [H.part_active(p) for p in range(1, H.k + 1)]
    if table is None:
        table = weight_profile(H)
    weights = [table[key] for key in product(product(*parts), range(1, H.kappa + 1))]
    if phi is None:
        phi = count_rainbow_pm(H).value
    dims = [*map(len, parts), H.kappa]
    return _median_capped(dims, weights, phi // (2**H.k * H.n**H.k))


# -- weights


def test_rainbow_weight_trivial_cases():
    H1 = complete_colored(1, 2, 1, rng(0))
    assert rainbow_weight(H1, (1, 1), 1) == 1
    empty = ColoredHypergraph(PARTITE, 2, 2, 2, ())
    assert rainbow_weight(empty, (1, 1), 1) == 0


def test_rainbow_weight_all_distinct_colors():
    H = bipartite({(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4})
    # removing (1,1)'s vertices leaves edge (2,2) of color 4 != 1
    assert rainbow_weight(H, (1, 1), 1) == 1
    # avoiding the remaining edge's own color kills it
    assert rainbow_weight(H, (1, 1), 4) == 0


def test_edge_weights_identity_on_complete():
    for j in range(5):
        H = complete_colored(3, 2, 3, rng(j, seed=40))
        w = edge_table(H)
        phi = count_rainbow_pm(H).value
        assert sum(w.values()) == 3 * phi


def test_weight_profile_psi0_brute():
    for j in range(6):
        H = complete_colored(3, 2, 3, rng(j, seed=41))
        prof = weight_profile(H)
        brute = max(
            rainbow_weight(H, (i, col), c)
            for i in range(1, 4)
            for col in range(1, 4)
            for c in range(1, 4)
        )
        assert brute == max(prof.values())


def oracle_table(H):
    """The weight table by definition: one restrict-and-count per entry."""
    parts = [H.part_active(p) for p in range(1, H.k + 1)]
    return {
        (verts, c): rainbow_weight(H, verts, c)
        for verts in product(*parts)
        for c in range(1, H.kappa + 1)
    }


# kappa 9 and 17 spread the free colors over two and three bytes
@pytest.mark.parametrize(
    "n,k,kappa", [(3, 2, 3), (4, 2, 4), (3, 2, 4), (3, 3, 3), (2, 2, 9), (3, 2, 17)]
)
def test_weight_table_matches_oracle_along_traces(n, k, kappa):
    for j in range(2):
        H = complete_colored(n, k, kappa, rng(j, seed=49 + n + k + kappa))
        edges = [H.edges[x] for x in random_edge_ordering(H, rng(j, seed=50))]
        for i in range(len(edges) + 1):
            Hi = restrict(H, removed_edges=edges[:i])
            table = oracle_table(Hi)
            assert weight_profile(Hi) == table, (j, i)
            assert edge_table(Hi) == {e: table[(e.verts, e.color)] for e in Hi.edges}


def test_weight_table_matches_oracle_on_restricted_instances():
    H = complete_colored(3, 2, 3, rng(0, seed=51))
    cases = {
        # unequal active parts: no near-perfect matching, every weight is 0
        "unequal": restrict(H, removed_vertices=[(1, 1)]),
        "balanced-absent": restrict(H, removed_vertices=[(1, 1), (2, 3)]),
        "removed-color": restrict(H, removed_colors=(2,)),
        "n=1": complete_colored(1, 2, 1, rng(1)),
        "n=1 k=3 edgeless": ColoredHypergraph(PARTITE, 1, 3, 2, ()),
        "edgeless": ColoredHypergraph(PARTITE, 3, 2, 3, ()),
    }
    # kappa below, at and above n; k = 2 and 3; complete and thinned halves
    shapes = [(3, 2, 2), (3, 2, 3), (4, 2, 4), (3, 2, 5), (3, 3, 2), (3, 3, 3), (2, 3, 3)]
    for n, k, kappa in shapes:
        Hs = complete_colored(n, k, kappa, rng(n + kappa, seed=52 + k))
        edges = [Hs.edges[j] for j in random_edge_ordering(Hs, rng(1, seed=52))]
        cases[(n, k, kappa)] = Hs
        cases[(n, k, kappa, "thinned")] = restrict(Hs, removed_edges=edges[: len(edges) // 2])
    H4 = complete_colored(4, 2, 4, rng(0, seed=53))
    cases["n=4 balanced-absent"] = restrict(H4, removed_vertices=[(1, 2), (2, 4)])
    cases["n=4 removed-color"] = restrict(H4, removed_colors=(2,))
    cases["k=3 absent and removed color"] = restrict(
        complete_colored(3, 3, 3, rng(1, seed=53)),
        removed_vertices=[(1, 1), (2, 2), (3, 3)],
        removed_colors=(2,),
    )
    for name, Hc in cases.items():
        assert weight_profile(Hc) == oracle_table(Hc), name
    assert not any(weight_profile(cases["unequal"]).values())
    assert not any(weight_profile(cases["edgeless"]).values())
    # n=1: the empty matching leaves (1, 1) uncovered and uses no color
    assert weight_profile(cases["n=1"]) == {((1, 1), 1): 1}
    # n=1: every restriction is the empty instance, edge or no edge
    assert set(weight_profile(cases["n=1 k=3 edgeless"]).values()) == {1}
    with pytest.raises(ValueError):
        weight_profile(ColoredHypergraph("graph", 4, 2, 3, ()))


def smallest_budget(run):
    """The smallest budget, at least 1 (the least a budget may be), under
    which run(budget) does not raise BudgetExceededError, by bisection."""

    def fits(budget):
        try:
            run(budget)
        except BudgetExceededError:
            return False
        return True

    lo, hi = 0, DEFAULT_NODE_BUDGET
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def tally_nodes(H):
    """The smallest budget the plain tally fits in, by bisection: its node count."""
    return smallest_budget(lambda budget: weight_profile(H, budget=budget))


def trace_nodes(H, order, t_max=None):
    """The smallest budget under which the trace does not raise, by bisection."""
    return smallest_budget(lambda budget: run_deletion_process(H, order, t_max, budget=budget))


def test_weight_profile_budget_raises():
    H = complete_colored(4, 2, 4, rng(3, seed=51))
    nodes = tally_nodes(H)
    for budget in (1, 10, nodes - 1):
        with pytest.raises(BudgetExceededError) as info:
            weight_profile(H, budget=budget)
        assert info.value.nodes > budget
        with pytest.raises(BudgetExceededError):
            _DeletionState(H, budget)
    assert weight_profile(H, budget=nodes) == weight_profile(H)


def test_weight_table_capacity():
    # 9 tuples times 10^8 colors: refused before the table, the color mask
    # or the color degrees are built
    H = complete_colored(3, 2, 10**8, rng(0, seed=51))
    with pytest.raises(CapacityError, match="weight table of 900000000 entries"):
        weight_profile(H)


def test_trace_budget_truncation():
    H = complete_colored(3, 2, 3, rng(4, seed=51))
    order = random_edge_ordering(H, rng(5, seed=51))
    full = run_deletion_process(H, order)
    assert len(full.steps) == len(order) + 1
    # Deleting an edge only shrinks the plain tally.
    edges = [H.edges[j] for j in order]
    plain = [tally_nodes(restrict(H, removed_edges=edges[:i])) for i in range(len(order) + 1)]
    assert plain == sorted(plain, reverse=True)
    # The trace's one tally runs at step 0: a budget it fits in gives the
    # whole trace, and a smaller one raises before any step is recorded,
    # at a node count past that budget.
    nodes = trace_nodes(H, order)
    assert nodes == full.nodes
    assert run_deletion_process(H, order, budget=nodes) == full
    with pytest.raises(BudgetExceededError) as info:
        run_deletion_process(H, order, budget=nodes - 1)
    assert info.value.nodes > nodes - 1
    # t_max keeps the prefix of the full trace; it stamps fewer edges, so
    # only the trace's node count may differ
    short = run_deletion_process(H, order, t_max=4, budget=nodes)
    assert short.steps == full.steps[:5]


@pytest.mark.parametrize("n,k,kappa", [(4, 2, 4), (3, 2, 5), (3, 3, 3), (2, 3, 4)])
def test_step_nodes_along_trace(n, k, kappa):
    # the trace reports the one tally's states, the smallest budget the
    # trace fits in
    for j in range(2):
        H = complete_colored(n, k, kappa, rng(j, seed=57))
        order = random_edge_ordering(H, rng(j, seed=58))
        trace = run_deletion_process(H, order)
        assert len(trace.steps) == len(order) + 1
        assert trace.nodes == trace_nodes(H, order), j


@pytest.mark.parametrize("n,k,kappa", [(4, 2, 4), (3, 3, 3)])
def test_step_nodes_grow_with_the_stamped_edges(n, k, kappa):
    # a trace that deletes nothing stamps no edge and runs the plain tally;
    # each stamped edge can only keep more states apart
    H = complete_colored(n, k, kappa, rng(0, seed=57))
    order = random_edge_ordering(H, rng(0, seed=58))
    nodes = [run_deletion_process(H, order, t).nodes for t in range(len(order) + 1)]
    assert nodes[0] == tally_nodes(H)
    assert nodes == sorted(nodes)
    assert nodes[-1] > nodes[0]


@pytest.mark.parametrize("n,k,kappa", [(4, 2, 4), (3, 3, 3)])
def test_a_state_carries_its_death_in_a_narrow_field(n, k, kappa):
    # above the layout's bits a state holds one death index in 0..T, not a
    # bit per step
    H = complete_colored(n, k, kappa, rng(0, seed=57))
    order = random_edge_ordering(H, rng(0, seed=58))
    state = _DeletionState(H, DEFAULT_NODE_BUDGET, order)
    top = 1 << state.shift + kappa + len(order).bit_length()
    assert state.near and all(s < top for s in state.near)


def assert_carried_state(H, order, t_max):
    # the state the process carries across deletions, at every step, against
    # the weight rows and degrees of the instance rebuilt from scratch; the
    # live edges are checked through the edge weights they give the trace
    state = _DeletionState(H, DEFAULT_NODE_BUDGET, order[:t_max])
    steps = run_deletion_process(H, order, t_max).steps
    edges = [H.edges[j] for j in order]
    for i in range(t_max + 1):
        if i:
            state.delete(i - 1)
        Hi = restrict(H, removed_edges=edges[:i])
        assert state.weights == _DeletionState(Hi, DEFAULT_NODE_BUDGET).weights, i
        assert [state.deg, state.cdeg] == degree_lists(Hi), i
        ws = list(edge_table(Hi).values())
        want = (max(ws), Fraction(sum(ws), len(ws)), majority_median_walk(ws)) if ws else (0, None, None)
        assert (steps[i].w_max, steps[i].w_avg, steps[i].w_med) == want, i


@pytest.mark.parametrize(
    "n,k,kappa", [(3, 2, 3), (4, 2, 4), (4, 2, 3), (3, 2, 5), (3, 3, 3), (2, 3, 4), (3, 2, 17)]
)
def test_carried_state_matches_rebuilt_instance(n, k, kappa):
    for j in range(2):
        H = complete_colored(n, k, kappa, rng(j, seed=59))
        order = random_edge_ordering(H, rng(j, seed=60))
        assert_carried_state(H, order, len(order))


def test_carried_state_of_a_short_trace():
    # edges past t_max carry no stamp: their matchings stay in the table
    H = complete_colored(4, 2, 4, rng(2, seed=59))
    order = random_edge_ordering(H, rng(2, seed=60))
    for t_max in (0, 1, 5, len(order) - 1):
        assert_carried_state(H, order, t_max)


def test_carried_state_of_an_n1_trace():
    # the empty near-perfect matching has no edge, so it never dies: the
    # table keeps w((1, 1), 1) = 1 after the only edge is deleted
    H = complete_colored(1, 2, 1, rng(1))
    order = random_edge_ordering(H, rng(1, seed=60))
    assert_carried_state(H, order, 1)
    steps = run_deletion_process(H, order).steps
    assert [step.phi for step in steps] == [1, 0]


def dying_trace():
    """An n=4, kappa=4 trace whose count dies at step 2 while the weight
    table keeps near-perfect matchings with a free color until step 10."""
    H = complete_colored(4, 2, 4, rng(0, seed=61))
    return H, random_edge_ordering(H, rng(0, seed=62))


def test_table_outlives_the_count():
    # the carried weights, and the flags read off them, must match the
    # rebuilt instance on every step, also between the count's death and
    # the table's
    H, order = dying_trace()
    steps = run_deletion_process(H, order).steps
    state = _DeletionState(H, DEFAULT_NODE_BUDGET, order)
    edges = [H.edges[j] for j in order]
    table_left = []
    for step in steps:
        i = step.index
        if i:
            state.delete(i - 1)
        Hi = restrict(H, removed_edges=edges[:i])
        assert state.weights == _DeletionState(Hi, DEFAULT_NODE_BUDGET).weights, i
        assert step.median_capped == median_capped(Hi, step.phi), i
        ws = list(edge_table(Hi).values())
        assert step.balanced == weight_ratio_bounded(ws, DEFAULT_EVENT_PARAMS.L), i
        assert step.regular == regular(Hi, step.p), i
        table_left.append(any(state.weights))
    dead_count_live_table = [i for i, step in enumerate(steps) if not step.phi and table_left[i]]
    assert dead_count_live_table == list(range(2, 10))


def test_a_dead_count_leaves_flag_c_to_the_table():
    # steps 2-9 of dying_trace have phi = 0 and states alive, and flag C
    # fails there: only a table with no state alive settles C
    H, order = dying_trace()
    steps = run_deletion_process(H, order).steps
    state = _DeletionState(H, DEFAULT_NODE_BUDGET, order)
    edges = [H.edges[j] for j in order]
    for step in steps:
        if step.index:
            state.delete(step.index - 1)
        assert state.alive == sum(1 for s in state.near if s >> state.shift + H.kappa > step.index - 1)
        Hi = restrict(H, removed_edges=edges[: step.index])
        assert step.median_capped == median_capped(Hi, step.phi), step.index
    assert [s.median_capped for s in steps[2:11]] == [False] * 8 + [True]


def test_carried_state_of_an_empty_tally():
    # kappa = 2 < n - 1: no near-perfect matching, so no state is tallied,
    # the table is never indexed, and every step is settled
    H = complete_colored(4, 2, 2, rng(3, seed=59))
    order = random_edge_ordering(H, rng(3, seed=60))
    state = _DeletionState(H, DEFAULT_NODE_BUDGET, order)
    assert (state.near, state.alive) == ({}, 0) and not hasattr(state, "base_of")
    assert_carried_state(H, order, len(order))
    steps = run_deletion_process(H, order).steps
    assert {(s.phi, s.w_max, s.w_med, s.balanced, s.median_capped) for s in steps[:-1]} == {
        (0, 0, 0, True, True)}
    assert (steps[0].w_avg, steps[-1].w_avg, steps[-1].w_med) == (0, None, None)


# DeletionTrace.nodes of dying_trace: the states of its one stamped tally
TALLY_NODES = 115


def test_step_nodes_pinned():
    H, order = dying_trace()
    assert run_deletion_process(H, order).nodes == TALLY_NODES


# (budget, BudgetExceededError.nodes) of dying_trace: each budget is passed
# inside a layer by one parent's kids, by more than one, so nodes is the
# count after that parent's last kid.  A check per kid would read budget + 1,
# one per layer the layer's end (24, 43, 43 and 102).
BUDGET_OUTS = [(13, 16), (26, 29), (31, 34), (68, 70)]


def test_the_budget_is_checked_after_each_parent():
    H, order = dying_trace()
    for budget, nodes in BUDGET_OUTS:
        with pytest.raises(BudgetExceededError) as info:
            run_deletion_process(H, order, budget=budget)
        assert info.value.nodes == nodes, budget


def test_weight_profile_maxima_consistency():
    H = complete_colored(2, 2, 2, rng(1))
    prof = weight_profile(H)
    assert all(v >= 0 for v in prof.values())


# -- the nonstandard median


def test_majority_median_examples():
    assert majority_median([1, 2, 3]) == 1
    assert majority_median([5, 5, 5, 5]) == 5
    assert majority_median([1, 100]) == 1


def test_majority_median_more_cases():
    assert majority_median([7]) == 7
    assert majority_median([1, 1, 2, 2]) == 1
    assert majority_median([1, 2, 2, 2]) == 1
    assert majority_median([1, 1, 1, 2]) == 1  # only one element larger than 1
    with pytest.raises(ValueError):
        majority_median([])


def test_majority_median_is_member_and_definition():
    for j in range(200):
        rnd = rng(j, seed=42)
        vals = [rnd.randrange(0, 6) for _ in range(rnd.randrange(1, 9))]
        med = majority_median(vals)
        assert med in vals
        larger = sum(1 for v in vals if v > med)
        if larger >= len(vals) / 2:
            # qualifying: no larger member may also qualify
            for cand in vals:
                if cand > med:
                    assert sum(1 for v in vals if v > cand) < len(vals) / 2
        else:
            # fallback: nothing qualifies, so the minimum is returned
            assert med == min(vals)
            for cand in set(vals):
                assert sum(1 for v in vals if v > cand) < len(vals) / 2


# -- event flags


def test_ratio_flag_hand_weights():
    # weights over the four edges come out (1, 0, 0, 1): max/avg = 2
    H = bipartite({(1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 3})
    assert edge_table(H) == {
        edge_by_verts(H, (1, 1)): 1,
        edge_by_verts(H, (2, 2)): 1,
        edge_by_verts(H, (1, 2)): 0,
        edge_by_verts(H, (2, 1)): 0,
    }
    assert weight_ratio_bounded(edge_table(H).values(), 2.5)
    assert not weight_ratio_bounded(edge_table(H).values(), 1.5)


def test_ratio_flag_zero_and_singleton():
    all_same = bipartite({(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
    # all weights zero: holds by convention
    assert weight_ratio_bounded(edge_table(all_same).values(), DEFAULT_EVENT_PARAMS.L)
    single = ColoredHypergraph(PARTITE, 1, 2, 1, (ColoredEdge((1, 1), 1),))
    assert weight_ratio_bounded(edge_table(single).values(), 1.01)
    empty = ColoredHypergraph(PARTITE, 2, 2, 2, ())
    assert weight_ratio_bounded(edge_table(empty).values(), 1.01)  # no edges


def test_regular_flag_complete_and_damaged():
    H = complete_colored(3, 2, 3, rng(2))
    # vertex degrees are exactly n^{k-1}; color degrees need a balanced coloring
    edges = tuple(ColoredEdge((i, j), (i + j) % 3 + 1) for i in range(1, 4) for j in range(1, 4))
    balanced = ColoredHypergraph(PARTITE, 3, 2, 3, edges)
    assert regular(balanced, 1)
    damaged = ColoredHypergraph(
        PARTITE, 3, 2, 3, tuple(e for e in balanced.edges if e.verts[0] != 1)
    )
    assert not regular(damaged, 1)
    del H


def test_regular_flag_reads_each_axis_against_its_own_mean():
    # complete n=4, k=2 with kappa=8 colors, each on exactly 2 edges: every
    # vertex degree is its mean 4, every color degree its mean 16/8 = 2
    edges = tuple(
        ColoredEdge((i, j), ((i - 1) * 4 + (j - 1)) % 8 + 1) for i in range(1, 5) for j in range(1, 5)
    )
    H = ColoredHypergraph(PARTITE, 4, 2, 8, edges)
    assert set(degree_lists(H)[1]) == {2}
    assert regular(H, 1) and fraction_regular(H, 1, DEFAULT_EVENT_PARAMS.eps1)
    trace = run_deletion_process(H, list(range(len(edges)))[::-1], t_max=1)
    assert trace.steps[0].regular
    # one edge moved from color 2 to color 1: color degrees 3 and 1
    moved = next(e for e in edges if e.color == 2)
    bumped = ColoredHypergraph(PARTITE, 4, 2, 8, tuple(
        ColoredEdge(e.verts, 1) if e == moved else e for e in edges
    ))
    assert not regular(bumped, 1) and not fraction_regular(bumped, 1, DEFAULT_EVENT_PARAMS.eps1)


def test_regular_flag_matches_direct_reimplementation():
    params = EventParams(L=10.0, eps1=0.25)
    for j in range(30):
        H = sample_partite_p(4, 2, 4, 0.5, rng(j, seed=43))
        deg, cdeg = degree_profile_by_edge(H)
        expect = Fraction(4) * Fraction(1, 2)
        tol = Fraction(1, 4) * expect
        by_hand = all(abs(Fraction(d) - expect) <= tol for d in deg.values()) and all(
            abs(Fraction(d) - expect) <= tol for d in cdeg.values()
        )
        assert regular(H, Fraction(1, 2), params) == by_hand, j


def test_median_cap_flag_trivial_cases():
    mono = bipartite({(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
    assert median_capped(mono)  # phi = 0, all weights zero
    # n=1: every restriction is the empty instance, so the whole table is 1
    single = ColoredHypergraph(PARTITE, 1, 2, 1, (ColoredEdge((1, 1), 1),))
    assert median_capped(single)
    # n=2 with any positive count: each tuple's color family contains a zero
    # (avoid the completion's own color), so the median clause always trips
    rainbow_rich = bipartite({(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4})
    assert not median_capped(rainbow_rich)


class SliceCounting(list):
    """A flat weight table that counts the group slices read from it."""

    slices = 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.slices += 1
        return super().__getitem__(index)


def test_median_cap_exits_on_the_table_maximum():
    # dims (2, 2, 2): the part-1 group of the first entry reads (5, 0),
    # whose majority median is 0, so it fails exactly when 5 beats the bound
    dims = [2, 2, 2]
    at_bound = SliceCounting([5] + [0] * 7)
    assert _median_capped(dims, at_bound, 5) and at_bound.slices == 0
    above = SliceCounting([5] + [0] * 7)
    assert not _median_capped(dims, above, 4) and above.slices == 1
    zero = SliceCounting([0] * 8)
    assert _median_capped(dims, zero, 0) and zero.slices == 0
    assert _median_capped([0, 3, 2], SliceCounting(), 0)


def test_median_cap_flag_completion_clause_alone():
    # Hand-built table at n=3, k=2: weight 10 on every color of tuple (1, 1),
    # 1 on every other entry.  Every full tuple's color group is flat, so only
    # a completion group can trip the flag: vertex 1 of either part, with any
    # color, reads 10, 1, 1 over its completions, whose majority median is 1.
    H = complete_colored(3, 2, 3, rng(0, seed=47))
    idx, colors = (1, 2, 3), (1, 2, 3)
    table = {((i, j), c): 10 if (i, j) == (1, 1) else 1
             for i in idx for j in idx for c in colors}
    for i in idx:
        for j in idx:
            by_color = [table[((i, j), c)] for c in colors]
            assert max(by_color) == min(by_color)
    # cap = phi / (2^2 * 3^2): 1/36 for phi = 1, below twice the median (2)
    assert not median_capped(H, phi=1, table=table)
    # at phi = 360 the cap reaches 10 and lets the completion groups pass;
    # at phi = 359 it is 9.97, whose floor 9 the weight 10 exceeds
    assert median_capped(H, phi=360, table=table)
    assert not median_capped(H, phi=359, table=table)


def test_median_cap_flag_color_clause_alone():
    # The mirror case: weight 10 at color 1 of every tuple, 1 elsewhere.  Every
    # completion group is flat, so only the color groups (10, 1, 1) can trip
    # the flag, and they do exactly when 10 exceeds the floor of the cap.
    H = complete_colored(3, 2, 3, rng(0, seed=47))
    idx = (1, 2, 3)
    table = {((i, j), c): 10 if c == 1 else 1 for i in idx for j in idx for c in idx}
    assert not median_capped(H, phi=1, table=table)
    assert median_capped(H, phi=360, table=table)
    assert not median_capped(H, phi=359, table=table)


def test_median_cap_flag_at_twice_the_median():
    # n=3, k=2, phi=1: the cap 1/36 is below every median clause, so a group
    # trips iff its max strictly exceeds twice its majority median (1 here)
    H = complete_colored(3, 2, 3, rng(0, seed=47))
    idx = (1, 2, 3)

    def capped(top, colors):
        table = {((i, j), c): 1 for i in idx for j in idx for c in idx}
        for c in colors:
            table[((1, 1), c)] = top
        # flag C reads only the table
        return median_capped(H, phi=1, table=table)

    # every color of (1, 1): flat color groups, completion groups (top, 1, 1)
    assert capped(2, idx) and not capped(3, idx)
    # color 1 of (1, 1) alone: its color group reads (top, 1, 1) as well
    assert capped(2, (1,)) and not capped(3, (1,))


def test_median_cap_flag_matches_reimplementation():
    # independent arithmetic over the full weight table at n=2
    for j in range(20):
        H = complete_colored(2, 2, 2, rng(j, seed=44))
        phi = count_rainbow_pm(H).value
        prof = weight_profile(H)
        cap = Fraction(phi, 2**2 * 2**2)

        def clause(groups):
            for vals in groups:
                bound = max(cap, 2 * Fraction(majority_median(vals)))
                if Fraction(max(vals)) > bound:
                    return False
            return True

        by_color = [
            [prof[((i, col), c)] for c in (1, 2)]
            for i in (1, 2)
            for col in (1, 2)
        ]
        # one family per part: fix the other coordinate and the color
        by_completion = [
            [prof[((i, col), c)] for col in (1, 2)] for i in (1, 2) for c in (1, 2)
        ] + [
            [prof[((i, col), c)] for i in (1, 2)] for col in (1, 2) for c in (1, 2)
        ]
        expected = clause(by_color) and clause(by_completion)
        assert median_capped(H, phi) == expected, j


def test_weight_groups_match_table_grouping():
    # flag C against the weight table grouped entry by entry, along deletion
    # orders at n=3 (k=2) and n=2 (k=3), at k=2 with one part emptied (no
    # entry, so no group) and at k=3 with part sizes 2, 3 and 1
    def grouped(H, table):
        groups = {}
        for (verts, c), w in table.items():
            for missing in range(H.k):
                partial = tuple((p + 1, v) for p, v in enumerate(verts) if p != missing)
                groups.setdefault(("v", partial, c), []).append(w)
            groups.setdefault(("c", verts), []).append(w)
        return groups

    def capped(H, table, phi):
        cap = Fraction(phi, 2**H.k * H.n**H.k)
        return all(
            max(vals) <= max(cap, 2 * majority_median(vals))
            for vals in grouped(H, table).values()
        )

    starts = [complete_colored(3, 2, 3, rng(j, seed=45)) for j in range(6)]
    starts.append(complete_colored(2, 3, 3, rng(0, seed=45)))
    starts.append(restrict(starts[0], removed_vertices=[PartiteVertex(2, 1)]))
    starts.append(restrict(starts[0], removed_vertices=[PartiteVertex(2, i) for i in (1, 2, 3)]))
    uneven = restrict(
        complete_colored(3, 3, 3, rng(1, seed=45)),
        removed_vertices=[PartiteVertex(1, 2), PartiteVertex(3, 1), PartiteVertex(3, 3)],
    )
    starts.append(uneven)
    for j, H in enumerate(starts):
        edges = [H.edges[x] for x in random_edge_ordering(H, rng(j, seed=46))]
        for i in range(len(edges) // 2 + 1):
            Hi = restrict(H, removed_edges=edges[:i])
            phi = count_rainbow_pm(Hi).value
            assert median_capped(Hi, phi) == capped(Hi, weight_profile(Hi), phi), (j, i)
    # uneven parts rule out every perfect matching, so its table is all zero:
    # random tables over its keys, of 2s, 3s and 4s (no group fails) and one
    # 5 (its groups fail where their median is 2), check the groups
    keys = list(weight_profile(uneven))
    rnd = rng(0, seed=48)
    outcomes = set()
    for _ in range(60):
        table = {key: rnd.choice((2, 3, 4)) for key in keys}
        table[rnd.choice(keys)] = 5
        outcomes.add(capped(uneven, table, 1))
        assert median_capped(uneven, 1, table) == capped(uneven, table, 1), table
    assert outcomes == {True, False}


def fraction_median(vals):
    """The majority median with a Fraction half: the largest member that at
    least half the multiset strictly exceeds, else the minimum."""
    half = Fraction(len(vals), 2)
    for x in sorted(set(vals), reverse=True):
        if sum(1 for v in vals if v > x) >= half:
            return x
    return min(vals)


def fraction_regular(H, p, eps1):
    """Flag R with Fraction means and Fraction tolerances: a vertex degree
    against the vertex mean n^(k-1) p, a color degree against the color mean
    n^k p / kappa."""
    deg, cdeg = degree_profile_by_edge(H)
    return all(
        abs(Fraction(d) - expect) <= Fraction(eps1) * expect
        for degs, expect in (
            (deg.values(), Fraction(H.n ** (H.k - 1)) * Fraction(p)),
            (cdeg.values(), Fraction(H.n**H.k, H.kappa) * Fraction(p)),
        )
        for d in degs
    )


def test_majority_median_matches_fraction_definition():
    for j in range(300):
        rnd = rng(j, seed=54)
        size = rnd.randrange(1, 6) * 2 - j % 2  # odd and even lengths alternate
        vals = [rnd.randrange(0, 5) for _ in range(size)]
        assert majority_median(vals) == fraction_median(vals), vals


def test_majority_median_matches_the_walk_on_every_small_multiset():
    for size in range(1, 9):
        for vals in combinations_with_replacement(range(4), size):
            assert majority_median(vals) == majority_median_walk(vals), vals


def test_majority_median_matches_the_walk_on_random_multisets():
    rnd = rng(0, seed=19)
    for _ in range(20_000):
        top = rnd.randrange(1, 50)
        vals = [rnd.randrange(top) for _ in range(rnd.randrange(1, 30))]
        assert majority_median(vals) == majority_median_walk(vals), vals


def test_deletion_step_leads_with_the_trace_columns():
    # experiments writes a step's CSV row as its leading fields
    assert DeletionStep._fields[:11] == (
        "index", "phi", "xi", "gamma", "p", "w_max", "w_avg", "w_med",
        "balanced", "regular", "median_capped",
    )


def test_deletion_step_is_its_csv_row():
    # a step carries exactly the trace CSV's step columns, nothing more
    assert len(DeletionStep._fields) == len(TRACE_STEP_HEADER)


@pytest.mark.parametrize("n,k,kappa", [(3, 2, 3), (4, 2, 4), (2, 3, 3), (4, 2, 2)])
def test_step_flags_match_fraction_oracle(n, k, kappa):
    # every step's R, C and w_med against the
    # Fraction arithmetic over the weight table grouped entry by entry
    for params in (DEFAULT_EVENT_PARAMS, EventParams.from_abundance(8.0)):
        for j in range(2):
            H = complete_colored(n, k, kappa, rng(j, seed=55 + n + k))
            order = random_edge_ordering(H, rng(j, seed=56))
            trace = run_deletion_process(H, order, params=params)
            assert len(trace.steps) == len(order) + 1
            edges = [H.edges[x] for x in order]
            for step in trace.steps:
                Hi = restrict(H, removed_edges=edges[: step.index])
                prof = weight_profile(Hi)
                groups = {}
                for (verts, c), w in prof.items():
                    for missing in range(k):
                        partial = tuple((p + 1, v) for p, v in enumerate(verts) if p != missing)
                        groups.setdefault((partial, c), []).append(w)
                    groups.setdefault(verts, []).append(w)
                cap = Fraction(step.phi, 2**k * n**k)
                capped = all(
                    max(vals) <= max(cap, 2 * Fraction(fraction_median(vals)))
                    for vals in groups.values()
                )
                ws = [prof[(e.verts, e.color)] for e in Hi.edges]
                assert step.median_capped == capped, (j, step.index)
                assert step.regular == fraction_regular(Hi, step.p, params.eps1), (j, step.index)
                assert step.w_med == (fraction_median(ws) if ws else None), (j, step.index)


@pytest.mark.parametrize("eps1", [0.5, 100 ** (-1 / 3)])
def test_regular_flag_at_tolerance_boundary(eps1):
    params = EventParams(L=10.0, eps1=eps1)
    # balanced complete n=4: every vertex degree and every color degree is 4
    edges = tuple(ColoredEdge((i, j), (i + j) % 4 + 1) for i in range(1, 5) for j in range(1, 5))
    flat = ColoredHypergraph(PARTITE, 4, 2, 4, edges)
    # one edge moved from color 2 to color 1: color degrees 5 and 3
    moved = next(e for e in edges if e.color == 2)
    bumped = ColoredHypergraph(
        PARTITE, 4, 2, 4,
        tuple(ColoredEdge(e.verts, 1) if e == moved else e for e in edges),
    )
    e = Fraction(eps1)
    tiny = Fraction(1, 10**60)
    for side in (1, -1):
        # degree 4 = expect + side * tol = 4 * p * (1 + side * eps1)
        p = 1 / (1 + side * e)
        assert regular(flat, p, params)
        assert not regular(bumped, p, params)  # a degree one beyond
        assert not regular(flat, p - side * tiny, params)
        assert regular(flat, p + side * tiny, params)
        # float p: the floats around the boundary read as their exact values
        q = float(p)
        for x in (math.nextafter(q, 0), q, math.nextafter(q, math.inf)):
            assert regular(flat, x, params) == fraction_regular(flat, x, eps1), x
            assert regular(flat, Fraction(x), params) == fraction_regular(flat, x, eps1)
    # dyadic eps1 and p: the lower boundary is a float, and it passes
    if eps1 == 0.5:
        assert regular(flat, 2.0, params)
        assert not regular(flat, math.nextafter(2.0, math.inf), params)


def test_event_params_validation():
    p = EventParams.from_abundance(100.0)
    assert p.L == pytest.approx(10.0)
    assert p.eps1 == pytest.approx(100.0 ** (-1 / 3))
    with pytest.raises(ValueError):
        EventParams(L=1.0, eps1=0.5)
    with pytest.raises(ValueError):
        EventParams(L=2.0, eps1=0.0)
    # rejected before L = sqrt(K) and eps1 = K^(-1/3) are derived
    for K in (0.0, -5.0, math.nan):
        with pytest.raises(ValueError, match="K must be positive"):
            EventParams.from_abundance(K)


# -- deletion process


def test_trace_t_max_zero():
    H = complete_colored(2, 2, 2, rng(3))
    trace = run_deletion_process(H, random_edge_ordering(H, rng(4)), t_max=0)
    assert len(trace.steps) == 1
    assert trace.steps[0].phi == count_rainbow_pm(H).value
    assert trace.steps[0].xi is None and trace.steps[0].gamma is None


def test_trace_unique_pm_dies_at_step_one():
    H = bipartite({(1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 3})
    first = H.edges.index(edge_by_verts(H, (1, 1)))
    order = [first, *(j for j in range(len(H.keys)) if j != first)]
    trace = run_deletion_process(H, order)
    assert trace.steps[0].phi == 1
    assert trace.steps[1].phi == 0
    assert trace.steps[1].xi == Fraction(1)


def test_trace_recomputation_oracle_and_telescoping():
    for n, trials in ((2, 8), (3, 4), (4, 2)):
        N = n * n
        for j in range(trials):
            H = complete_colored(n, 2, n, rng(j, seed=45 + 10 * (n - 2)))
            order = random_edge_ordering(H, rng(j, seed=46 + 10 * (n - 2)))
            trace = run_deletion_process(H, order)
            deleted = [H.edges[x] for x in order]
            assert trace.steps[0].phi == count_rainbow_pm(H).value
            assert trace.steps[-1].phi == 0
            running = Fraction(trace.steps[0].phi)
            for i, step in enumerate(trace.steps):
                if i == 0:
                    continue
                # recount from scratch on the reconstructed instance
                remaining = tuple(e for e in H.edges if e not in deleted[:i])
                Hi = ColoredHypergraph(PARTITE, n, 2, n, remaining)
                assert step.phi == count_rainbow_pm(Hi).value, (n, j, i)
                assert step.p == Fraction(N - i, N)
                assert step.gamma == Fraction(n, N - i + 1)
                running *= 1 - step.xi
                assert running == step.phi  # exact telescoping
                assert 0 <= step.xi <= 1


def test_trace_rejects_bad_inputs():
    H = complete_colored(2, 2, 2, rng(5))
    order = random_edge_ordering(H, rng(6))
    partial = ColoredHypergraph(PARTITE, 2, 2, 2, H.edges[:3])
    with pytest.raises(ValueError):
        run_deletion_process(partial, [0, 1, 2])
    with pytest.raises(ValueError):
        run_deletion_process(H, order[:2])  # not a full permutation
    N = len(order)
    for bad in (
        [*order[:-1], order[0]],  # one position twice, one missing
        [H.edges[j] for j in order],  # the edges themselves, not their positions
        [True if j == 1 else j for j in order],  # a bool aliases position 1
        [1.0 if j == 1 else j for j in order],  # a float hashes like 1
        [-1 if j == N - 1 else j for j in order],  # would read the last slot
        [N if j == 0 else j for j in order],
    ):
        with pytest.raises(ValueError, match="permutation"):
            run_deletion_process(H, bad)
    with pytest.raises(ValueError):
        run_deletion_process(H, order, t_max=5)


def test_trace_flags_and_stats_present():
    H = complete_colored(2, 2, 2, rng(7))
    trace = run_deletion_process(H, random_edge_ordering(H, rng(8)))
    for step in trace.steps:
        assert isinstance(step.balanced, bool)
        assert isinstance(step.regular, bool)
        assert isinstance(step.median_capped, bool)
    final = trace.steps[-1]
    assert final.w_avg is None and final.w_med is None  # no edges left


# -- cumulative rate sum


def test_cumulative_loss_examples():
    assert _loss_rates(2, 4, 0)[0] == (0.0, 0.0)
    exact, closed = _loss_rates(2, 4, 2)[2]
    assert math.isclose(exact, 7 / 6, rel_tol=1e-12)
    assert math.isclose(closed, 2 * math.log(2), rel_tol=1e-12)
    exact, closed = _loss_rates(10, 100, 50)[50]
    assert abs(exact - closed) < 10 * (1 / 50) * 2


def test_cumulative_loss_gap_bound_sweep():
    for n, k in ((2, 2), (3, 2), (4, 2)):
        N = n**k
        for t in range(N):
            exact, closed = _loss_rates(n, N, t)[t]
            assert abs(exact - closed) <= 2 * n / (N - t), (n, k, t)


def test_cumulative_loss_sum_is_the_fsum_of_its_terms():
    # the running exact sum, rounded once per t, is math.fsum of the terms
    for n, k in ((2, 2), (6, 2), (10, 2), (3, 3), (4, 4), (3, 5)):
        N = n**k
        for t in range(N):
            want = n * math.fsum(1.0 / (N - i + 1) for i in range(1, t + 1))
            assert _loss_rates(n, N, t)[t][0] == want, (n, k, t)
    n, N = 41, 41 * 41
    for t, (exact, _) in enumerate(_loss_rates(n, N, N - 1)):
        assert exact == n * math.fsum(1.0 / (N - i + 1) for i in range(1, t + 1)), t



def test_step_ratios_cover_the_steps_a_trace_reads_in_bounded_caches():
    # a trace of t_max steps builds p and gamma for steps 0..t_max only
    _step_ratios.cache_clear()
    H0 = complete_colored(3, 2, 3, rng(40))
    run_deletion_process(H0, random_edge_ordering(H0, rng(41)), t_max=2)
    assert _step_ratios.cache_info().misses == 1
    for n, N, t_max in ((3, 9, 0), (3, 9, 2), (3, 9, 9), (2, 8, 5)):
        ps, gammas = _step_ratios(n, N, t_max)
        assert len(ps) == len(gammas) == t_max + 1
        assert ps == tuple(Fraction(N - i, N) for i in range(t_max + 1))
        assert gammas == (None, *(Fraction(n, N - i + 1) for i in range(1, t_max + 1)))
    assert _step_ratios.cache_info().hits == 1  # (3, 9, 2) is the trace's
    # a caller that sweeps shapes keeps only the last few
    for cached in (_step_ratios, _loss_rates, _ratio_cells):
        assert 1 <= cached.cache_info().maxsize <= 16

# -- entropy


def test_entropy_examples():
    assert math.isclose(entropy([1, 1, 1, 1]), math.log(4), rel_tol=1e-12)
    assert entropy([5]) == 0.0
    assert math.isclose(entropy([1, 1, 2]), 1.5 * math.log(2), rel_tol=1e-12)


def test_entropy_zero_terms_and_errors():
    assert math.isclose(entropy([2, 0, 2]), math.log(2), rel_tol=1e-12)
    with pytest.raises(ValueError):
        entropy([0, 0])
    with pytest.raises(ValueError):
        entropy([1, -1])


def test_entropy_permutation_invariant_and_bounded():
    for j in range(50):
        rnd = rng(j, seed=47)
        w = [rnd.random() + 1e-9 for _ in range(rnd.randrange(1, 12))]
        h = entropy(w)
        assert math.isclose(h, entropy(list(reversed(w))), rel_tol=1e-12)
        assert -1e-12 <= h <= math.log(len(w)) + 1e-12


# -- dyadic interval cover


def test_dyadic_constants():
    assert math.isclose(dyadic_ratio_bound(1), 2 ** (4 * (1 + math.log(3))), rel_tol=1e-12)
    assert dyadic_support_fraction(1) == 1 / 16
    assert dyadic_support_fraction(2) == 1 / 64


def test_dyadic_all_equal():
    a, b, J = dyadic_interval_cover([3.0] * 10, 1)
    assert a == b == 3.0
    assert J == list(range(10))


def test_dyadic_64_near_uniform():
    weights = [1.0] * 64
    weights[17] = 2.0
    a, b, J = dyadic_interval_cover(weights, 1)
    assert a == 1.0 and b == 2.0
    assert len(J) == 64


def test_dyadic_premise_violation_raises():
    weights = [1e-9] * 63 + [1e6]
    with pytest.raises(LemmaPreconditionError):
        dyadic_interval_cover(weights, 1)
    with pytest.raises(ValueError):
        dyadic_interval_cover([1.0, 0.0], 1)  # weights must be positive
    with pytest.raises(ValueError, match="^weights must be nonempty$"):
        dyadic_interval_cover([], 1)


def test_dyadic_conclusions_property_mini():
    checked = 0
    for j in range(300):
        rnd = rng(j, seed=48)
        power = (0.5, 1.0, 2.0)[j % 3]
        w = [(1 - rnd.random()) ** power for _ in range(64)]
        for M in (1, 2):
            if entropy(w) <= math.log(64) - M:
                continue
            a, b, J = dyadic_interval_cover(w, M)
            checked += 1
            assert b <= dyadic_ratio_bound(M) * a * (1 + 1e-12)
            assert len(J) >= dyadic_support_fraction(M) * 64
            assert sum(w[i] for i in J) > 0.7 * sum(w)
            assert J == [i for i in range(64) if a <= w[i] <= b]
    assert checked >= 300


# -- tail bounds


def chernoff_bounds(
    mu: float, eps: float | None = None, alpha: float | None = None
) -> tuple[float | None, float | None]:
    """Multiplicative tail bounds for a mean-mu sum of independent indicators.

    Returns (deviation, tail):
      deviation = 2*exp(-eps^2*mu/3)  for P(|X - mu| > eps*mu), 0 <= eps <= 1
      tail      = (e/alpha)^(alpha*mu) for P(X >= alpha*mu), alpha > e

    Either slot is None when its parameter is not supplied.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    deviation = tail = None
    if eps is not None:
        if not 0 <= eps <= 1:
            raise ValueError("eps must lie in [0, 1]")
        deviation = 2.0 * math.exp(-(eps**2) * mu / 3.0)
    if alpha is not None:
        if not alpha > math.e:
            raise ValueError("alpha must exceed e")
        tail = (math.e / alpha) ** (alpha * mu)
    return deviation, tail


def test_chernoff_values():
    dev, tail = chernoff_bounds(100.0, eps=0.5)
    assert math.isclose(dev, 2 * math.exp(-25 / 3), rel_tol=1e-12)
    assert tail is None
    dev, _ = chernoff_bounds(7.0, eps=0.0)
    assert dev == 2.0
    _, tail = chernoff_bounds(10.0, alpha=2 * math.e)
    assert math.isclose(tail, 0.5 ** (20 * math.e), rel_tol=1e-12)


def test_chernoff_validation():
    assert chernoff_bounds(5.0) == (None, None)
    with pytest.raises(ValueError):
        chernoff_bounds(-1.0, eps=0.5)
    with pytest.raises(ValueError):
        chernoff_bounds(5.0, eps=1.5)
    with pytest.raises(ValueError):
        chernoff_bounds(5.0, alpha=2.0)  # needs alpha > e
