"""Small helpers shared by the unit suites."""

from collections import Counter
from pathlib import Path

from rainbowmatch.hamilton import ColoredMultigraph
from rainbowmatch.model import (
    PARTITE, ColoredEdge, ColoredHypergraph, PartiteVertex, RandomnessSpec, dumps_instance,
)


def rng(stream=0, seed=0):
    """The random.Random of stream `stream` under master seed `seed`."""
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


def round_robin_factors(n):
    """The circle-method 1-factorization of K_n (n even): n-1 perfect
    matchings partitioning the edge set."""
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


def edge_by_verts(H, verts):
    """The edge of H on the vertex tuple verts, or None (a linear scan)."""
    for e in H.edges:
        if e.verts == verts:
            return e
    return None


def save_instance(H, path):
    """Write H to path as one JSON line, the bytes `rainbowmatch gen` writes."""
    Path(path).write_text(dumps_instance(H) + "\n", encoding="utf-8")


def active_vertices(H):
    """H's active (non-absent) vertices in canonical order: PartiteVertex
    (part, index) by part, then index, or a graph's vertex ints."""
    if H.mode == PARTITE:
        return [PartiteVertex(p, i) for p in range(1, H.k + 1) for i in H.part_active(p)]
    return [v for v in range(1, H.n + 1) if v not in H.absent]


def degrees(G):
    """The degree of each of G's vertices 1..n, parallel edges counted, so a
    vertex without edges shows as 0."""
    deg = Counter(v for e in G.edges for v in e.verts)
    return [deg[v] for v in range(1, G.n + 1)]


def color_counts(G):
    """How many edges of G carry each color 1..kappa, absent colors as 0."""
    count = Counter(e.color for e in G.edges)
    return [count[c] for c in range(1, G.kappa + 1)]


def assert_stored_as_checked(H):
    """H, an instance or a multigraph the program built without its
    constructor's checks, equals its rebuild through that checked public
    constructor from H's edges view: the keys and colors it stores are the
    ones the constructor derives, tuples of exact ints (a bool or a float
    compares equal to an int, but the constructor refuses it), and the view
    holds ColoredEdges of tuples of ints."""
    if type(H) is ColoredMultigraph:
        checked = ColoredMultigraph(H.n, H.kappa, H.edges)
    else:
        checked = ColoredHypergraph(H.mode, H.n, H.k, H.kappa, H.edges, H.absent)
    assert checked == H
    assert (H.keys, H.colors) == (checked.keys, checked.colors)
    assert type(H.keys) is tuple and type(H.colors) is tuple
    assert all(type(x) is int for x in (*H.keys, *H.colors))
    for e in H.edges:
        assert type(e) is ColoredEdge and type(e.verts) is tuple, e
        assert all(type(x) is int for x in (*e.verts, e.color)), e
