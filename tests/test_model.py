import itertools
import json
import math
from collections import Counter

import pytest

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
    degree_profile,
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
    save_instance,
)


def rng(stream=0, seed=0):
    return RandomnessSpec(seed, stream).rng()


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


def test_graph_mode_edges_are_sorted_pairs():
    H = sample_colored_graph(5, 6, 3, rng(2))
    for e in H.edges:
        u, v = e.verts
        assert 1 <= u < v <= 5


def test_capacity_guard():
    with pytest.raises(CapacityError):
        complete_colored(40, 5, 40, rng(), max_edges=10**6)


def test_zero_vertex_edge_cases():
    H = ColoredHypergraph(PARTITE, 1, 2, 1, (ColoredEdge((1, 1), 1),))
    assert H.active_vertices()
    empty = ColoredHypergraph(PARTITE, 2, 2, 2, ())
    assert empty.edges == ()


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


# -- degree profile


def test_degree_profile_complete():
    H = complete_colored(3, 2, 3, rng(18))
    deg, cdeg = degree_profile(H)
    assert all(d == 3 for d in deg.values())
    assert sum(cdeg.values()) == len(H.edges)
    assert set(cdeg) == {1, 2, 3}


def test_degree_profile_empty_and_monochrome():
    empty = ColoredHypergraph(PARTITE, 2, 2, 2, ())
    deg, cdeg = degree_profile(empty)
    assert set(deg.values()) == {0}
    assert set(cdeg.values()) == {0}
    mono = ColoredHypergraph(
        GRAPH, 4, 2, 3, tuple(ColoredEdge(p, 2) for p in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    )
    _, cdeg = degree_profile(mono)
    assert cdeg == {1: 0, 2: 5, 3: 0}


def test_degree_sum_identity_random():
    for j in range(25):
        H = sample_partite_m(4, 3, 4, 17, rng(j, seed=19))
        deg, cdeg = degree_profile(H)
        assert sum(deg.values()) == 3 * len(H.edges)
        assert sum(cdeg.values()) == len(H.edges)


# -- orderings


def test_ordering_single_edge_identity():
    H = sample_partite_m(2, 2, 2, 1, rng(20))
    assert random_edge_ordering(H, rng(21)) == H.edges


def test_ordering_deterministic():
    H = complete_colored(3, 2, 3, rng(22))
    assert random_edge_ordering(H, rng(23)) == random_edge_ordering(H, rng(23))


def test_ordering_uniform_over_six_orders():
    H = sample_partite_m(3, 2, 3, 3, rng(24))
    trials = 6_000
    seen = Counter()
    for j in range(trials):
        seen[random_edge_ordering(H, rng(j, seed=25))] += 1
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
    ]
    for doc in malformed:
        with pytest.raises(ValueError, match="malformed instance document"):
            instance_from_dict(doc)
    # the same through the parser: json reads 1e400 and 1e999 as infinity
    for text in ('{"mode": "partite", "n": 1e400, "k": 2, "colors": 2, "edges": []}',
                 '{"mode": "graph", "n": 3, "k": 2, "colors": 3,'
                 ' "edges": [{"verts": [1, 1e999], "color": 1}]}'):
        with pytest.raises(ValueError, match="malformed instance document"):
            loads_instance(text)
