"""Small helpers shared by the unit suites."""


def edge_by_verts(H, verts):
    """The edge of H on the vertex tuple verts, or None (a linear scan)."""
    for e in H.edges:
        if e.verts == verts:
            return e
    return None
