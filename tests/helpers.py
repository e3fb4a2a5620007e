"""Small helpers shared by the unit suites."""

from collections import Counter

from rainbowmatch.hamilton import ColoredMultigraph
from rainbowmatch.model import PARTITE, ColoredEdge, ColoredHypergraph, PartiteVertex


def edge_by_verts(H, verts):
    """The edge of H on the vertex tuple verts, or None (a linear scan)."""
    for e in H.edges:
        if e.verts == verts:
            return e
    return None


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
