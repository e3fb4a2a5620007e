"""Small helpers shared by the unit suites."""

from collections import Counter


def edge_by_verts(H, verts):
    """The edge of H on the vertex tuple verts, or None (a linear scan)."""
    for e in H.edges:
        if e.verts == verts:
            return e
    return None


def degrees(G):
    """The degree of each of G's vertices 1..n, parallel edges counted, so a
    vertex without edges shows as 0."""
    deg = Counter(v for e in G.edges for v in e.verts)
    return [deg[v] for v in range(1, G.n + 1)]


def color_counts(G):
    """How many edges of G carry each color 1..kappa, absent colors as 0."""
    count = Counter(e.color for e in G.edges)
    return [count[c] for c in range(1, G.kappa + 1)]
