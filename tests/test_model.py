import hashlib
import inspect
import itertools
import json
import math
import random
import re
from collections import Counter

import pytest

from rainbowmatch import model
from rainbowmatch.count import count_rainbow_pm, find_rainbow_pm
from rainbowmatch.experiments import ExperimentConfig
from rainbowmatch.hamilton import ColoredMultigraph, assemble_even, find_rainbow_hc
from rainbowmatch.model import (
    DEFAULT_EDGE_CAPACITY,
    CapacityError,
    ColoredEdge,
    ColoredHypergraph,
    GRAPH,
    PARTITE,
    PartiteVertex,
    RandomnessSpec,
    complete_colored,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    random_edge_ordering,
    restrict,
    sample_colored_graph,
    sample_partite_m,
    sample_partite_p,
)
from rainbowmatch.process import weight_profile

from helpers import assert_stored_as_checked, rng, save_instance


# -- construction and invariants


def test_complete_colored_shape():
    H = complete_colored(3, 2, 3, rng())
    assert len(H.edges) == 9
    assert len({e.verts for e in H.edges}) == 9
    assert all(1 <= e.color <= 3 for e in H.edges)
    assert all(len(e.verts) == 2 for e in H.edges)


def test_edges_canonically_sorted():
    H = sample_partite_m(4, 2, 4, 10, rng(1))
    assert list(H.edges) == sorted(H.edges)


def test_duplicate_vertex_tuple_rejected():
    edges = (ColoredEdge((1, 1), 1), ColoredEdge((1, 1), 2))
    with pytest.raises(ValueError):
        ColoredHypergraph(PARTITE, 2, 2, 2, edges)


def test_vertex_index_out_of_range_rejected():
    with pytest.raises(ValueError):
        ColoredHypergraph(PARTITE, 2, 2, 2, (ColoredEdge((1, 3), 1),))
    with pytest.raises(ValueError):
        ColoredHypergraph(PARTITE, 2, 2, 2, (ColoredEdge((1, 2), 5),))


def test_non_int_values_rejected():
    # a float or bool color and a float or string vertex index are errors
    # naming their edge, never truncated or stored as given
    for bad in (ColoredEdge((1, 1), 1.9), ColoredEdge((2, 2), True),
                ColoredEdge((1.5, 1), 1), ColoredEdge(("1", 2), 1)):
        with pytest.raises(ValueError, match=f"edge {re.escape(str(bad))} has a vertex"):
            ColoredHypergraph(PARTITE, 2, 2, 2, (ColoredEdge((1, 2), 1), bad))
    for absent in ((1, 1.0), (True, 1)):
        with pytest.raises(ValueError, match="must be a pair of ints"):
            ColoredHypergraph(PARTITE, 2, 2, 2, (), frozenset([absent]))
    with pytest.raises(ValueError, match="must be an int"):
        ColoredHypergraph(GRAPH, 3, 2, 2, (), frozenset([2.0]))
    H = ColoredHypergraph(PARTITE, 2, 2, 2, (ColoredEdge((1, 1), 1),))
    for bad in ((1, 1.0), (True, 1)):
        with pytest.raises(ValueError):
            restrict(H, removed_vertices=[bad])
    with pytest.raises(ValueError):
        restrict(H, removed_colors=[1.0])


# Each entry point that takes sizes or node budgets, as a function of them
# with valid defaults: each refuses one that is not exactly an int (None
# too), never compares, powers, draws or searches with it.
SIZED_ENTRY_POINTS = {
    "ColoredHypergraph": lambda n=3, k=2, kappa=3: ColoredHypergraph(PARTITE, n, k, kappa, ()),
    "ColoredMultigraph": lambda n=3, kappa=3: ColoredMultigraph(n, kappa, ()),
    "complete_colored": lambda n=3, k=2, kappa=3: complete_colored(n, k, kappa, rng()),
    "sample_partite_m": lambda n=3, k=2, kappa=3, m=4: sample_partite_m(n, k, kappa, m, rng()),
    "sample_partite_p": lambda n=3, k=2, kappa=3: sample_partite_p(n, k, kappa, 0.5, rng()),
    "sample_colored_graph": lambda n=4, kappa=3, m=3: sample_colored_graph(n, m, kappa, rng()),
    "ExperimentConfig": lambda trials=1, jobs=1, retries=0, node_budget=50, hc_budget=50:
        ExperimentConfig(kind="hamilton", ns=(5,), trials=trials, jobs=jobs, retries=retries,
                         node_budget=node_budget, hc_budget=hc_budget),
    "find_rainbow_pm": lambda budget=1000:
        find_rainbow_pm(complete_colored(3, 2, 3, rng()), budget),
    "count_rainbow_pm": lambda budget=1000:
        count_rainbow_pm(complete_colored(3, 2, 3, rng()), budget=budget),
    "count_rainbow_pm-ie": lambda budget=1000:
        count_rainbow_pm(complete_colored(3, 2, 3, rng()), method="ie", budget=budget),
    "find_rainbow_hc": lambda budget=1000:
        find_rainbow_hc(sample_colored_graph(5, 10, 5, rng()), budget),
    "weight_profile": lambda budget=1000: weight_profile(complete_colored(3, 2, 3, rng()), budget),
    "assemble_even": lambda matching_budget=1000, hc_budget=1000:
        assemble_even(sample_colored_graph(4, 6, 4, rng()), rng(1), matching_budget, hc_budget),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True, None])
@pytest.mark.parametrize("entry", list(SIZED_ENTRY_POINTS))
def test_sizes_that_are_not_ints_are_refused(entry, bad):
    build = SIZED_ENTRY_POINTS[entry]
    build()
    for size in inspect.signature(build).parameters:
        with pytest.raises(ValueError, match=f"^{size} must be an int, not {re.escape(repr(bad))}$"):
            build(**{size: bad})


@pytest.mark.parametrize("entry,name", [
    (entry, name) for entry, build in SIZED_ENTRY_POINTS.items()
    for name in inspect.signature(build).parameters if name.endswith("budget")
])
def test_budgets_below_one_are_refused(entry, name):
    # before any search starts, never reported as a budget-out
    build = SIZED_ENTRY_POINTS[entry]
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"^{name} must be positive, not {bad}$"):
            build(**{name: bad})


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: ColoredHypergraph(PARTITE, 2, 2, 2, (1,)),
                 "edge 1 must be a (verts, color) pair", id="edge-int"),
    pytest.param(lambda: ColoredHypergraph(PARTITE, 2, 2, 2, ((5, 1),)),
                 "edge (5, 1) must be a (verts, color) pair", id="edge-verts-int"),
    pytest.param(lambda: ColoredHypergraph(PARTITE, 2, 2, 2, (((1, 2),),)),
                 "edge ((1, 2),) must be a (verts, color) pair", id="edge-without-color"),
    pytest.param(lambda: ColoredHypergraph(PARTITE, 2, 2, 2, (), {5}),
                 "vertex 5 must be a pair of ints", id="absent-int"),
    pytest.param(lambda: restrict(complete_colored(2, 2, 2, rng()), removed_vertices=[5]),
                 "vertex 5 must be a pair of ints", id="restrict-int"),
    pytest.param(lambda: restrict(complete_colored(2, 2, 2, rng()), removed_edges=[1]),
                 "edge 1 must be a (verts, color) pair", id="restrict-edge-int"),
    pytest.param(lambda: restrict(complete_colored(2, 2, 2, rng()), removed_edges=[((1, 1),)]),
                 "edge ((1, 1),) must be a (verts, color) pair", id="restrict-edge-without-color"),
    pytest.param(lambda: sample_partite_p(3, 2, 3, "x", rng()),
                 "p must be an int or a float in [0, 1], not 'x'", id="p-str"),
    pytest.param(lambda: sample_partite_p(3, 2, 3, True, rng()),
                 "p must be an int or a float in [0, 1], not True", id="p-bool"),
    pytest.param(lambda: ColoredHypergraph(GRAPH, 3, 2, 2, (), {4}),
                 "vertex 4 out of range", id="graph-absent-out-of-range"),
    pytest.param(lambda: ColoredHypergraph(GRAPH, 3, 2, 2, ()).part_active(1),
                 "part_active is a partite-mode operation", id="part-active-graph"),
    pytest.param(lambda: restrict(ColoredHypergraph(PARTITE, 2, 2, 2, (), {(1, 1)}),
                                  removed_vertices=[(1, 1)]),
                 "vertex PartiteVertex(part=1, index=1) is already absent", id="restrict-absent"),
])
def test_malformed_entries_are_named(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_graph_mode_edges_are_sorted_pairs():
    H = sample_colored_graph(5, 6, 3, rng(2))
    for e in H.edges:
        u, v = e.verts
        assert 1 <= u < v <= 5


def test_capacity_guard():
    with pytest.raises(CapacityError):
        complete_colored(40, 5, 40, rng())


def test_every_sampler_reads_the_capacity_at_call_time(monkeypatch):
    # complete_colored and sample_partite_p size the whole tuple space (n^k),
    # the m-edge samplers their m
    monkeypatch.setattr(model, "DEFAULT_EDGE_CAPACITY", 10)
    for draw in (lambda: complete_colored(4, 2, 3, rng()),
                 lambda: sample_partite_p(4, 2, 3, 0.1, rng()),
                 lambda: sample_partite_m(4, 2, 3, 11, rng()),
                 lambda: sample_colored_graph(6, 11, 3, rng())):
        with pytest.raises(CapacityError, match="exceeds capacity 10"):
            draw()
    assert len(complete_colored(3, 2, 3, rng()).edges) == 9
    assert len(sample_partite_p(3, 2, 3, 1.0, rng()).edges) == 9
    assert len(sample_partite_m(4, 2, 3, 10, rng()).edges) == 10
    assert len(sample_colored_graph(6, 10, 3, rng()).edges) == 10


def test_zero_vertex_edge_cases():
    H = ColoredHypergraph(PARTITE, 1, 2, 1, (ColoredEdge((1, 1), 1),))
    assert H.part_active(1) == H.part_active(2) == [1]
    empty = ColoredHypergraph(PARTITE, 2, 2, 2, ())
    assert empty.edges == ()


def _per_edge_oracle(mode, n, k, kappa, edges, absent=frozenset(), parallel=False):
    """The constructor's edge handling as one loop per edge, written out
    apart from it: ("accepted", the canonical edges' repr) or the
    exception's (type name, message).  repr, since NaN equals nothing.
    It coerces no vertex index or color with int(): one that is not an int
    is an error naming its edge, found in the given order when such a value
    leaves the edges unsortable.  parallel allows a repeated vertex tuple,
    as `ColoredMultigraph` does."""
    try:
        edges = tuple(ColoredEdge(tuple(e[0]), e[1]) for e in edges)
        try:
            edges = tuple(sorted(edges))
        except TypeError:
            pass
        seen = set()
        for e in edges:
            if type(e.color) is not int or any(type(i) is not int for i in e.verts):
                raise ValueError(f"edge {e} has a vertex index or color that is not an int")
            if not 1 <= e.color <= kappa:
                raise ValueError(f"color {e.color} out of range 1..{kappa}")
            if mode == PARTITE:
                if len(e.verts) != k:
                    raise ValueError(f"edge {e} must pick one vertex per part")
                for part, idx in enumerate(e.verts, start=1):
                    if not 1 <= idx <= n:
                        raise ValueError(f"edge {e} vertex out of range")
                    if PartiteVertex(part, idx) in absent:
                        raise ValueError(f"edge {e} touches absent vertex")
            else:
                if len(e.verts) != 2 or e.verts[0] >= e.verts[1]:
                    raise ValueError(f"graph edge {e} must be a sorted pair u < v")
                for u in e.verts:
                    if not 1 <= u <= n:
                        raise ValueError(f"edge {e} vertex out of range")
                    if u in absent:
                        raise ValueError(f"edge {e} touches absent vertex")
            if e.verts in seen and not parallel:
                raise ValueError(f"duplicate vertex tuple {e.verts}")
            seen.add(e.verts)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return "accepted", repr(edges)


def _constructed(mode, n, k, kappa, edges, absent=frozenset()):
    try:
        H = ColoredHypergraph(mode, n, k, kappa, edges, absent)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    assert all(type(e) is ColoredEdge and type(e.verts) is tuple for e in H.edges)
    assert all(type(e.color) is int for e in H.edges)
    return "accepted", repr(H.edges)


def _edge_corpus():
    """(mode, n, k, kappa, edges, absent) inputs, valid and not."""
    cases = []
    for j in range(6):
        for mode, n, k, kappa, H in (
            (PARTITE, 5, 2, 4, sample_partite_m(5, 2, 4, 12, rng(j, seed=30))),
            (PARTITE, 3, 3, 5, sample_partite_m(3, 3, 5, 10, rng(j, seed=31))),
            (GRAPH, 7, 2, 6, sample_colored_graph(7, 12, 6, rng(j, seed=32))),
        ):
            rnd = rng(j, seed=33)
            edges = list(H.edges)
            shuffled = edges[:]
            rnd.shuffle(shuffled)
            cases += [(mode, n, k, kappa, edges, ()), (mode, n, k, kappa, shuffled, ())]
            cases.append((mode, n, k, kappa, (), ()))

            def with_edge(e, pos=None):
                out = shuffled[:]
                out.insert(rnd.randrange(len(out) + 1) if pos is None else pos, e)
                return (mode, n, k, kappa, out, ())

            first = edges[rnd.randrange(len(edges))]

            def recolored(color):
                out = [ColoredEdge(e.verts, color) if e == first else e for e in shuffled]
                return (mode, n, k, kappa, out, ())

            # a repeated vertex tuple, with the same and with another color
            cases.append(with_edge(first))
            cases.append(with_edge(ColoredEdge(first.verts, first.color % kappa + 1)))
            # colors 0 and kappa + 1, alone and next to a repeat
            for color in (0, kappa + 1, -3):
                cases.append(recolored(color))
                cases.append(with_edge(ColoredEdge(first.verts, color)))
            # an index of 0 or n + 1 in each position
            for pos in range(k):
                for idx in (0, n + 1):
                    verts = list(first.verts)
                    verts[pos] = idx
                    cases.append(with_edge(ColoredEdge(tuple(verts), 1)))
            # wrong arity
            cases.append(with_edge(ColoredEdge(first.verts[:-1], 1)))
            cases.append(with_edge(ColoredEdge(first.verts + (1,), 1)))
            # list verts, plain tuples, and bool / float colors next to the
            # int colors they look like
            cases.append((mode, n, k, kappa, [(list(e.verts), e.color) for e in shuffled], ()))
            cases.append((mode, n, k, kappa, [ColoredEdge(list(e.verts), e.color) for e in edges], ()))
            for color in (1, kappa, True, False, 1.0, 1.9, 2.5, float(kappa) + 0.5):
                cases.append(recolored(color))
                cases.append(with_edge(ColoredEdge(first.verts, color), pos=0))
            # non-int vertices (a float index, NaN, a string): first or last
            # in the tuple, and on an edge of its own
            for odd in (1.0, 1.5, float("nan"), "1"):
                for verts in ((odd,) + first.verts[1:], first.verts[:-1] + (odd,)):
                    cases.append(with_edge(ColoredEdge(verts, 1)))
                    cases.append((mode, n, k, kappa, [ColoredEdge(verts, 1)], ()))
            # edges touching absent vertices, and absent vertices touching none
            if mode == PARTITE:
                for part in range(1, k + 1):
                    hit = PartiteVertex(part, first.verts[part - 1])
                    cases.append((mode, n, k, kappa, shuffled, (hit,)))
                used = {e.verts[0] for e in edges}
                spare = [i for i in range(1, n + 1) if i not in used]
                if spare:
                    kept = [e for e in shuffled if e.verts[1] != 1]
                    cases.append((mode, n, k, kappa, kept, (PartiteVertex(1, spare[0]), PartiteVertex(2, 1))))
            else:
                for u in first.verts:
                    cases.append((mode, n, k, kappa, shuffled, (u,)))
                touched = {u for e in edges for u in e.verts}
                cases.append((mode, n, k, kappa, shuffled, tuple(set(range(1, n + 1)) - touched)))
                # pairs with u >= v
                for bad in ((3, 2), (2, 2), (n, 1)):
                    cases.append(with_edge(ColoredEdge(bad, 1)))
    return cases


def test_bulk_checks_agree_with_per_edge_loop():
    corpus = _edge_corpus()
    outcomes = Counter()
    for mode, n, k, kappa, edges, absent in corpus:
        absent = frozenset(absent)
        got = _constructed(mode, n, k, kappa, edges, absent)
        assert got == _per_edge_oracle(mode, n, k, kappa, edges, absent), (mode, edges, absent)
        outcomes[got[0]] += 1
    assert outcomes["accepted"] >= 100 and outcomes["ValueError"] >= 300, outcomes


def test_multigraph_checks_agree_with_per_edge_loop():
    # the multigraph runs the graph-mode edge rules with repeats allowed, on
    # every graph case of the corpus that has no absent vertex
    outcomes = Counter()
    for mode, n, k, kappa, edges, absent in _edge_corpus():
        if mode != GRAPH or absent:
            continue
        try:
            G = ColoredMultigraph(n, kappa, edges)
        except (ValueError, TypeError) as exc:
            got = type(exc).__name__, str(exc)
        else:
            assert all(type(e) is ColoredEdge and type(e.verts) is tuple for e in G.edges)
            assert all(type(e.color) is int for e in G.edges)
            got = "accepted", repr(G.edges)
            outcomes["with a repeated pair"] += len({e.verts for e in G.edges}) < len(G.edges)
        assert got == _per_edge_oracle(mode, n, k, kappa, edges, parallel=True), edges
        outcomes[got[0]] += 1
    assert outcomes["accepted"] >= 60 and outcomes["ValueError"] >= 200, outcomes
    assert outcomes["with a repeated pair"] >= 20, outcomes


# SHA-256 over dumps_instance of each sampler on a fixed grid (seeds 0-4 of
# RandomnessSpec(seed, "pin")), recorded before the samplers built canonical
# edges themselves: the draws, the edges and their order must not move.
SAMPLER_PINS = {
    "partite_m k=2": "41f315f74df28ecad5f68969bcb55de1cc6a230579093d5d512d4734f0fabeec",
    "partite_m k=3": "9a9508c7177d753ea324e2fa7ffada0b9602f2bdd09fa81be2db816389708c50",
    "partite_p": "f2747b82cb69bc10e0bf3647d1b62e627458b021b0506379701927f7ac10f754",
    "complete": "d845e670e06d39942e3c92e402fc4ffb046db43a8fc7bc3c570b9fc8e26797ac",
    "graph sparse": "2bc12df91a97c56912ceb40b6ea3435c05e76d30d8d6f93c6938bce542bd88b8",
    "graph complete n=40": "40c6562a0fbb49b90537d98ebf85a89c6abb12639ba1f178aa3ffdd74001da9b",
}
SAMPLER_GRID = {
    "partite_m k=2": [lambda r, n=n, m=m: sample_partite_m(n, 2, n, m, r)
                      for n, m in ((1, 1), (3, 5), (8, 30), (14, 70), (14, 120), (20, 400))],
    "partite_m k=3": [lambda r, n=n, m=m: sample_partite_m(n, 3, n + 1, m, r)
                      for n, m in ((2, 8), (4, 20), (6, 100))],
    "partite_p": [lambda r, n=n, k=k, p=p: sample_partite_p(n, k, n, p, r)
                  for n, k, p in ((4, 2, 0.3), (10, 2, 0.5), (4, 3, 0.4))],
    "complete": [lambda r, n=n, k=k: complete_colored(n, k, n, r)
                 for n, k in ((3, 2), (10, 2), (4, 3))],
    "graph sparse": [lambda r, n=n, m=m: sample_colored_graph(n, m, n, r)
                     for n, m in ((2, 1), (14, 30), (100, 200))],
    "graph complete n=40": [lambda r: sample_colored_graph(40, 780, 40, r)],
}


def test_sampler_streams_pinned():
    for name, makers in SAMPLER_GRID.items():
        digest = hashlib.sha256()
        for make in makers:
            for seed in range(5):
                digest.update(dumps_instance(make(RandomnessSpec(seed, "pin").rng())).encode())
                digest.update(b"\n")
        assert digest.hexdigest() == SAMPLER_PINS[name], name


def test_samplers_store_what_the_checked_constructor_stores():
    # the samplers skip the constructor's checks, so each must store exactly
    # what the checked constructor stores for the same fields
    makers = [make for grid in SAMPLER_GRID.values() for make in grid]
    makers += [lambda r, n=n, k=k, p=p: sample_partite_p(n, k, n, p, r)
               for n, k in ((4, 2), (3, 3)) for p in (0.0, 1.0)]
    for make in makers:
        for seed in range(3):
            assert_stored_as_checked(make(RandomnessSpec(seed, "held").rng()))


# The pins above digest only the instance; the checks below also compare the
# generator state each draw leaves, so a word read too many or too few fails.
# Bounds below 256 map each word's top byte through a table, larger ones
# filter the words: the spot bounds (the byte/word boundary among them) run
# every count on three seeds, every other table bound a few counts on one.
SPOT_BOUNDS = (
    {1, 2, 3, 4, 255, 256, 257, 2**31, 2**32 - 1}
    | {2**j + d for j in (2, 3, 5, 6, 10, 16, 31) for d in (-1, 1)}
)
UNIFORM_BOUNDS = sorted(SPOT_BOUNDS | set(range(1, 256)))


@pytest.mark.parametrize("hi", UNIFORM_BOUNDS + [2**32, 2**40 + 3])
def test_uniform_matches_per_call_randint(hi):
    # 2**32 and above fall back to the per-call loop; the rest draw in bulk
    spot = hi in SPOT_BOUNDS or hi >= 2**32
    for count in (0, 1, 2, 7, 300, 781) if spot else (0, 1, 7, 781):
        for seed in range(3 if spot else 1):
            want_rnd, got_rnd = rng(seed, seed=hi), rng(seed, seed=hi)
            want = [want_rnd.randint(1, hi) for _ in range(count)]
            assert model._uniform(got_rnd, hi, count) == want, (hi, count, seed)
            assert got_rnd.getstate() == want_rnd.getstate(), (hi, count, seed)


class ListedRandom:
    """A duck-typed generator: randint only, handing out a planned list."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, low, high):
        return next(self.values)


class CountingRandom(random.Random):
    """A subclass may override `_randbelow`; here it counts the calls."""

    calls = 0

    def _randbelow(self, n):
        self.calls += 1
        return super()._randbelow(n)


def test_uniform_keeps_per_call_path_for_other_generators():
    assert model._uniform(ListedRandom([3, 1, 2]), 5, 3) == [3, 1, 2]
    counting, plain = CountingRandom(7), random.Random(7)
    assert model._uniform(counting, 5, 40) == [plain.randint(1, 5) for _ in range(40)]
    assert counting.calls == 40
    assert counting.getstate() == plain.getstate()
    # a full graph draw on a subclass still goes through rnd.sample: one
    # _randbelow per pair, then one per color
    counting, plain = CountingRandom(7), random.Random(7)
    assert sample_colored_graph(12, 66, 5, counting) == sample_colored_graph(12, 66, 5, plain)
    assert counting.calls == 66 + 66
    assert counting.getstate() == plain.getstate()


def _per_call_complete(n, k, kappa, rnd):
    edges = [ColoredEdge(v, rnd.randint(1, kappa)) for v in itertools.product(range(1, n + 1), repeat=k)]
    return ColoredHypergraph(PARTITE, n, k, kappa, tuple(edges))


def _per_call_partite_m(n, k, kappa, m, rnd):
    tuples = list(itertools.product(range(1, n + 1), repeat=k))
    picked = sorted(rnd.sample(range(len(tuples)), m))
    edges = [ColoredEdge(tuples[t], rnd.randint(1, kappa)) for t in picked]
    return ColoredHypergraph(PARTITE, n, k, kappa, tuple(edges))


def _per_call_graph(n, m, kappa, rnd):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    picked = sorted(rnd.sample(range(len(pairs)), m))
    edges = [ColoredEdge(pairs[t], rnd.randint(1, kappa)) for t in picked]
    return ColoredHypergraph(GRAPH, n, 2, kappa, tuple(edges))


@pytest.mark.parametrize(
    "sampler, oracle, grid",
    [
        (complete_colored, _per_call_complete, [(1, 2, 1), (3, 2, 4), (10, 2, 10), (4, 3, 5), (6, 2, 1)]),
        (sample_partite_m, _per_call_partite_m,
         [(3, 2, 3, 0), (3, 2, 4, 9), (14, 2, 14, 100), (20, 2, 16, 400), (5, 3, 6, 60)]),
        (sample_colored_graph, _per_call_graph,
         [(2, 1, 1), (14, 40, 14), (40, 780, 40), (30, 200, 33)]
         # full draws, on both sides of random.sample's k > 5 set-size branch
         + [(n, n * (n - 1) // 2, n) for n in range(1, 9)] + [(50, 1225, 300)]),
    ],
    ids=["complete", "partite_m", "graph"],
)
def test_samplers_match_per_call_oracles(sampler, oracle, grid):
    for args in grid:
        for seed in range(3):
            got_rnd, want_rnd = rng(seed, seed=11), rng(seed, seed=11)
            assert sampler(*args, got_rnd) == oracle(*args, want_rnd), (args, seed)
            assert got_rnd.getstate() == want_rnd.getstate(), (args, seed)


# -- samplers


def test_sample_m_exact_count_and_support():
    H = sample_partite_m(3, 2, 3, 5, rng(3))
    assert len(H.edges) == 5
    full = sample_partite_m(3, 2, 3, 9, rng(4))
    comp = complete_colored(3, 2, 3, rng(5))
    assert {e.verts for e in full.edges} == {e.verts for e in comp.edges}


def test_sample_m_uniform_tuple_frequency():
    # (n=4, k=2, kappa=4, m=8): each of the 16 tuples lands in the sample
    # with probability 1/2; check every one against a 3-SE band
    trials = 10_000
    hits = Counter()
    for j in range(trials):
        H = sample_partite_m(4, 2, 4, 8, rng(j, seed=10))
        for e in H.edges:
            hits[e.verts] += 1
    se = math.sqrt(0.5 * 0.5 / trials)
    for verts, count in hits.items():
        assert abs(count / trials - 0.5) <= 3 * se, (verts, count)
    assert len(hits) == 16


def test_sample_p_mean_edge_count():
    # (n=5, k=2, p=0.3): 25 slots, mean 7.5
    trials = 10_000
    total = 0
    for j in range(trials):
        total += len(sample_partite_p(5, 2, 5, 0.3, rng(j, seed=11)).edges)
    mean = total / trials
    se = math.sqrt(25 * 0.3 * 0.7 / trials)
    assert abs(mean - 7.5) <= 3 * se


def test_sample_p_extremes():
    assert sample_partite_p(3, 2, 3, 0.0, rng(6)).edges == ()
    assert len(sample_partite_p(3, 2, 3, 1.0, rng(7)).edges) == 9
    with pytest.raises(ValueError):
        sample_partite_p(3, 2, 3, 1.5, rng(8))


def test_sample_graph_bounds():
    H = sample_colored_graph(6, 15, 6, rng(9))
    assert len(H.edges) == 15
    assert sample_colored_graph(4, 0, 2, rng(10)).edges == ()
    with pytest.raises(ValueError):
        sample_colored_graph(4, 7, 2, rng(11))


def test_sample_graph_matches_list_decoding():
    # the row walk decodes the same pairs, in the same order, as indexing into
    # the full lexicographic pair list, so every seeded graph is unchanged
    for n in (1, 2, 3, 5, 8, 15, 40):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for m in sorted({0, min(1, len(pairs)), len(pairs) // 3, len(pairs) // 2, len(pairs)}):
            for seed in range(4):
                rnd = rng(seed, seed=n)
                picked = sorted(rnd.sample(range(len(pairs)), m))
                want = tuple(ColoredEdge(pairs[t], rnd.randint(1, n)) for t in picked)
                assert sample_colored_graph(n, m, n, rng(seed, seed=n)).edges == want


def test_sample_graph_sparse_on_huge_vertex_set():
    H = sample_colored_graph(10**6, 10, 5, rng(12))
    assert len(H.edges) == 10
    assert all(1 <= u < v <= 10**6 for u, v in (e.verts for e in H.edges))
    # n = 3000 has ~4.5M pairs, so only the capacity guard stops this draw
    with pytest.raises(CapacityError):
        sample_colored_graph(3000, DEFAULT_EDGE_CAPACITY + 1, 3, rng(13))


def test_determinism_same_spec_same_instance():
    a = sample_partite_m(5, 2, 5, 12, RandomnessSpec(42, 3).rng())
    b = sample_partite_m(5, 2, 5, 12, RandomnessSpec(42, 3).rng())
    assert a == b
    c = sample_partite_m(5, 2, 5, 12, RandomnessSpec(42, 4).rng())
    assert a != c  # different stream, different draw (a.s.)


# -- restriction


def test_restrict_noop():
    H = complete_colored(2, 2, 2, rng(12))
    assert restrict(H) == H


def test_restrict_all_colors_empties_edges():
    H = complete_colored(2, 2, 2, rng(13))
    R = restrict(H, removed_colors=[1, 2])
    assert R.edges == ()
    assert R.absent == H.absent


def test_restrict_vertex_removes_incident_edges():
    H = complete_colored(2, 2, 2, rng(14))
    R = restrict(H, removed_vertices=[PartiteVertex(1, 1)])
    assert len(R.edges) == 2
    assert all(e.verts[0] != 1 for e in R.edges)
    assert PartiteVertex(1, 1) in R.absent


def test_restrict_composes_without_renumbering():
    H = complete_colored(3, 2, 3, rng(15))
    R1 = restrict(H, removed_vertices=[PartiteVertex(1, 2)])
    R2 = restrict(R1, removed_vertices=[PartiteVertex(2, 3)])
    both = restrict(H, removed_vertices=[PartiteVertex(1, 2), PartiteVertex(2, 3)])
    assert R2 == both
    assert len(R2.edges) == 4  # remaining 2x2 block


def test_restrict_rejects_foreign_edge():
    H = sample_partite_m(2, 2, 2, 2, rng(16))
    stranger = ColoredEdge((9, 9), 1)
    with pytest.raises(ValueError):
        restrict(H, removed_edges=[stranger])


def test_restrict_graph_mode():
    H = sample_colored_graph(4, 6, 4, rng(17))
    R = restrict(H, removed_vertices=[1])
    assert all(1 not in e.verts for e in R.edges)
    assert 1 in R.absent


# -- orderings


def test_ordering_single_edge_identity():
    H = sample_partite_m(2, 2, 2, 1, rng(20))
    assert random_edge_ordering(H, rng(21)) == [0]


def test_ordering_deterministic():
    H = complete_colored(3, 2, 3, rng(22))
    assert random_edge_ordering(H, rng(23)) == random_edge_ordering(H, rng(23))
    # shuffle's draws depend only on the list's length, so the edges read
    # off the positions are a shuffle of the edges view at the same stream
    edges, rnd = list(H.edges), rng(23)
    rnd.shuffle(edges)
    assert [H.edges[j] for j in random_edge_ordering(H, rng(23))] == edges


def test_ordering_uniform_over_six_orders():
    H = sample_partite_m(3, 2, 3, 3, rng(24))
    trials = 6_000
    seen = Counter()
    for j in range(trials):
        seen[tuple(random_edge_ordering(H, rng(j, seed=25)))] += 1
    assert len(seen) == 6
    se = math.sqrt((1 / 6) * (5 / 6) / trials)
    for order, count in seen.items():
        assert abs(count / trials - 1 / 6) <= 3 * se, order


# -- JSON wire format


def test_round_trip_dict_and_text():
    H = sample_partite_m(4, 3, 5, 9, rng(26))
    assert instance_from_dict(instance_to_dict(H)) == H
    assert loads_instance(dumps_instance(H)) == H


def test_round_trip_with_absent(tmp_path):
    H = restrict(complete_colored(3, 2, 3, rng(27)), removed_vertices=[PartiteVertex(2, 1)])
    path = tmp_path / "inst.json"
    save_instance(H, path)
    assert load_instance(path) == H
    data = json.loads(path.read_text())
    assert data["absent"] == [[2, 1]]


def test_round_trip_graph_with_absent():
    H = restrict(sample_colored_graph(6, 10, 6, RandomnessSpec(2).rng()), removed_vertices=[2])
    assert H.absent == frozenset({2})
    assert instance_to_dict(H)["absent"] == [2]
    assert loads_instance(dumps_instance(H)) == H


def test_wire_format_schema():
    H = sample_colored_graph(3, 3, 3, rng(28))
    data = instance_to_dict(H)
    assert set(data) == {"mode", "n", "k", "colors", "edges"}
    assert data["mode"] == "graph"
    assert all(set(e) == {"verts", "color"} for e in data["edges"])


def test_from_dict_validates():
    with pytest.raises(ValueError):
        instance_from_dict({"mode": "nope", "n": 2, "k": 2, "colors": 2, "edges": []})
    bad = {"mode": "partite", "n": 2, "k": 2, "colors": 2,
           "edges": [{"verts": [1, 1], "color": 7}]}
    with pytest.raises(ValueError):
        instance_from_dict(bad)
    # wrong JSON types and non-finite numbers are input errors too, never a
    # TypeError or OverflowError
    partite = {"mode": "partite", "n": 2, "k": 2, "colors": 2,
               "edges": [{"verts": [1, 2], "color": 1}]}
    graph = {"mode": "graph", "n": 3, "k": 2, "colors": 3,
             "edges": [{"verts": [1, 2], "color": 1}]}
    assert instance_from_dict(partite).edges and instance_from_dict(graph).edges
    malformed = [
        {**partite, "edges": None},
        {**partite, "absent": None},
        {**partite, "absent": [5]},
        {**graph, "absent": [[1, 2]]},
        {**partite, "n": math.inf},
        {**graph, "edges": [{"verts": [1, math.inf], "color": 1}]},
        {**graph, "edges": [{"verts": 1, "color": 1}]},
        {**graph, "edges": [[1, 2]]},
        [],
        # numbers that are not JSON integers are never truncated
        {**partite, "n": 2.5},
        {**partite, "n": 2.0},
        {**partite, "k": True},
        {**partite, "colors": "2"},
        {**partite, "edges": [{"verts": [1.7, 1], "color": 1}]},
        {**partite, "edges": [{"verts": [1, 2], "color": 1.9}]},
        {**partite, "edges": [{"verts": [1, 2], "color": True}]},
        {**partite, "absent": [[1, 1.0]]},
        {**partite, "absent": [[False, 1]]},
        {**graph, "absent": [2.5]},
        {**graph, "absent": [True]},
    ]
    for doc in malformed:
        with pytest.raises(ValueError, match="malformed instance document"):
            instance_from_dict(doc)
    # the constructor's own rule follows the prefix
    with pytest.raises(ValueError, match=r"^malformed instance document: n must be an int, not 2\.5$"):
        instance_from_dict({**partite, "n": 2.5})
    with pytest.raises(ValueError, match=r"^malformed instance document: edge ColoredEdge\(verts=\(1, 2\), "
                                         r"color=True\) has a vertex index or color that is not an int$"):
        instance_from_dict({**partite, "edges": [{"verts": [1, 2], "color": True}]})
    # the same through the parser: json reads 1e400 and 1e999 as infinity
    for text in ('{"mode": "partite", "n": 1e400, "k": 2, "colors": 2, "edges": []}',
                 '{"mode": "graph", "n": 3, "k": 2, "colors": 3,'
                 ' "edges": [{"verts": [1, 1e999], "color": 1}]}'):
        with pytest.raises(ValueError, match="malformed instance document"):
            loads_instance(text)


def test_from_dict_names_what_the_document_lacks():
    # a missing key names itself, and within the edges the edge's position;
    # a document that is not one JSON object says so
    partite = {"mode": "partite", "n": 2, "k": 2, "colors": 2,
               "edges": [{"verts": [1, 1], "color": 1}, {"verts": [2, 2], "color": 2}]}
    cases = [
        ({**partite, "edges": [partite["edges"][0], {"verts": [2, 2]}]}, "edges[1] has no key 'color'"),
        ({**partite, "edges": [{"color": 1}]}, "edges[0] has no key 'verts'"),
        ({**partite, "edges": [partite["edges"][0], [2, 2]]}, "edges[1] is not a JSON object"),
        ({**partite, "edges": {"verts": 1}}, "edges must be a JSON array"),
        ({**partite, "edges": "ab"}, "edges must be a JSON array"),
        ({**partite, "edges": 5}, "edges must be a JSON array"),
        ({key: v for key, v in partite.items() if key != "colors"}, "the document has no key 'colors'"),
        ([partite], "the document is not a JSON object"),
        (None, "the document is not a JSON object"),
    ]
    for doc, rule in cases:
        with pytest.raises(ValueError) as info:
            instance_from_dict(doc)
        assert str(info.value) == f"malformed instance document: {rule}", doc
        with pytest.raises(ValueError) as info:
            loads_instance(json.dumps(doc))
        assert str(info.value) == f"malformed instance document: {rule}", doc
