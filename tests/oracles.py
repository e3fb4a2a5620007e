"""Oracles the tests compare the library against.  Nothing in the package
calls them: each computes by definition what the library computes by a
faster route.

`rainbow_weight` is one entry of the weight table, restrict then count.
`reduce_to_uniform` and `count_uniform_pm` count rainbow perfect matchings
through the colored-to-uniform reduction with a plain enumerator kept
independent of the matching kernel.
`find_rainbow_hc_by_extension` is a Hamilton cycle search of its own: it
extends a path from vertex 1 with degree, color-supply and reachability
prunes.  The library's exact-cover search must find a cycle exactly when it
does.
`weight_ratio_bounded` is flag B by its definition, max over average edge
weight against L as exact fractions; the library cross-multiplies ints.
`majority_median_walk` is the majority median by its definition, walking the
distinct values down from the top; the library takes it in one bisection.
`csv_cell` renders a CSV cell by one isinstance chain; the library tests the
exact types int, Fraction, float and str first.
`degree_profile_by_edge` counts the degrees one edge end at a time; the
deletion process counts them per layout bit and per color, then decrements
them per deletion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from rainbowmatch.count import BudgetExceededError, DEFAULT_NODE_BUDGET, count_rainbow_pm
from rainbowmatch.hamilton import (
    DEFAULT_HC_BUDGET,
    HamiltonCycle,
    _cycle_of,
    _host_n,
)
from rainbowmatch.model import PARTITE, ColoredHypergraph, PartiteVertex, restrict
from rainbowmatch.process import _check_partite

from helpers import active_vertices


def rainbow_weight(
    H: ColoredHypergraph,
    verts: Sequence[int],
    color: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Number of rainbow perfect matchings of H minus verts' vertices that
    avoid the given color class entirely.

    verts is a full per-part index tuple (the vertex set of a potential edge;
    the edge itself need not be present).  All named vertices must be active.
    """
    _check_partite(H)
    if len(verts) != H.k:
        raise ValueError(f"verts must name one vertex per part, got {verts}")
    removed = [PartiteVertex(p, i) for p, i in enumerate(verts, start=1)]
    sub = restrict(H, removed_vertices=removed, removed_colors=(color,))
    return count_rainbow_pm(sub, budget=budget).value


@dataclass(frozen=True)
class UniformHypergraph:
    """An r-partite r-uniform hypergraph on r classes of n vertices, no colors.

    Edges are r-tuples (one index per class).  Produced by reduce_to_uniform,
    where class r holds the original colors.
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.r < 2:
            raise ValueError("need n >= 1, r >= 2")
        seen = set()
        edges = tuple(sorted(tuple(e) for e in self.edges))
        for e in edges:
            if len(e) != self.r or not all(1 <= v <= self.n for v in e):
                raise ValueError(f"bad edge {e}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", edges)


def reduce_to_uniform(H: ColoredHypergraph) -> UniformHypergraph:
    """Append each edge's color as a (k+1)-st vertex class.

    Rainbow perfect matchings of H then correspond bijectively to perfect
    matchings of the result: a perfect matching must cover all n color
    vertices, which is exactly color-distinctness when kappa == n.  That is
    also why kappa != n (or a restricted instance) is rejected: "perfect"
    stops encoding "rainbow" when the counts drift apart.
    """
    if H.mode != PARTITE:
        raise ValueError("reduction applies to partite instances")
    if H.kappa != H.n:
        raise ValueError("reduction requires kappa == n")
    if H.absent:
        raise ValueError("reduction requires all vertices active")
    return UniformHypergraph(
        H.n, H.k + 1, tuple(e.verts + (e.color,) for e in H.edges)
    )


def count_uniform_pm(U: UniformHypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Perfect matchings of an uncolored uniform hypergraph, by a deliberately
    plain enumerator (kept independent of the main kernel so the two can
    cross-check the colored-to-uniform reduction)."""
    by_first: dict[int, list[tuple[int, ...]]] = {}
    for e in U.edges:
        by_first.setdefault(e[0], []).append(e)
    n, r = U.n, U.r
    nodes = 0

    def rec(i: int, used: frozenset) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exceeded", nodes)
        if i > n:
            return 1
        total = 0
        for e in by_first.get(i, ()):
            pairs = [(cls, v) for cls, v in enumerate(e, start=1)]
            if any(p in used for p in pairs[1:]):
                continue
            total += rec(i + 1, used | frozenset(pairs))
        return total

    return rec(1, frozenset())


def find_rainbow_hc_by_extension(G, budget: int = DEFAULT_HC_BUDGET) -> HamiltonCycle | None:
    """First rainbow Hamilton cycle found by exhaustive backtracking, or None
    when the search space is exhausted.  Raises BudgetExceededError when the
    node budget runs out (never a silent absence).  Depth first on an
    explicit stack, so no recursion limit applies; children are pushed in
    reverse adjacency order, so the tree is visited in preorder with each
    node's neighbors in adjacency order."""
    n, host_edges = _host_n(G), G.edges
    if n < 3:
        raise ValueError("Hamilton cycles need n >= 3")
    # Vertex v is bit v - 1, color c is bit c - 1.
    bit_edges = []
    adj: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n + 1)]
    for idx, e in enumerate(host_edges):
        u, v = e.verts
        ubit, vbit, cbit = 1 << (u - 1), 1 << (v - 1), 1 << (e.color - 1)
        bit_edges.append((ubit | vbit, ubit, vbit, u, v, cbit))
        adj[u].append((v, vbit, cbit, idx))
        adj[v].append((u, ubit, cbit, idx))

    start = start_bit = 1  # vertex 1, bit 0
    all_bits = (1 << n) - 1
    nodes = 0
    # (head, visited, used colors, the edges the parent left live, path as
    # nested (edge index, rest) back to start)
    stack = [(start, start_bit, 0, bit_edges, None)]
    pop, push = stack.pop, stack.append
    while stack:
        head, visited, colors, pool, path = pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exceeded", nodes)
        depth = visited.bit_count()
        if depth == n:
            for v, _, cbit, idx in adj[head]:
                if v == start and not cbit & colors:
                    edges = [host_edges[idx]]
                    while path:
                        idx, path = path
                        edges.append(host_edges[idx])
                    return _cycle_of(n, edges)
            continue
        # An edge is live when its color is unused and neither endpoint is an
        # interior visited vertex (head and start stay usable: the remaining
        # cycle segment leaves head and eventually re-enters start).  The used
        # colors and the interior only grow down the tree, so an edge dead at
        # a node stays dead below it and a child scans only its parent's live
        # edges.  nbr[v] is the mask of v's live neighbors.
        head_bit = 1 << (head - 1)
        interior = visited & ~head_bit & ~start_bit
        nbr = [0] * (n + 1)
        live = []
        live_colors = 0
        for item in pool:
            uvbit, ubit, vbit, u, v, cbit = item
            if cbit & colors or uvbit & interior:
                continue
            live.append(item)
            nbr[u] |= vbit
            nbr[v] |= ubit
            live_colors |= cbit
        if live_colors.bit_count() < n - depth + 1:
            continue
        # Every unvisited vertex still needs two distinct cycle neighbors;
        # start still needs its closing edge.
        unvisited = all_bits & ~visited
        rest = unvisited
        while rest:
            low = rest & -rest
            if nbr[low.bit_length()].bit_count() < 2:
                break
            rest ^= low
        if rest or not nbr[start]:
            continue
        # The remaining segment is a path head -> (all unvisited) -> start,
        # so everything must be reachable from head through live edges.
        seen = frontier = head_bit
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbr[low.bit_length()]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        if (unvisited | start_bit) & ~seen:
            continue
        for v, vbit, cbit, idx in reversed(adj[head]):
            if not (vbit & visited or cbit & colors):
                push((v, visited | vbit, colors | cbit, live, (idx, path)))
    return None


def weight_ratio_bounded(weights, L: float) -> bool:
    """Flag B: max edge weight over average edge weight is at most L,
    vacuously true with no edges or only zero weights."""
    ws = list(weights)
    total = sum(ws)
    return not total or Fraction(max(ws) * len(ws), total) <= Fraction(L)


def majority_median_walk(values) -> int:
    """The largest x in the multiset such that at least half the elements are
    strictly larger than x; the minimum when no element qualifies."""
    vals = sorted(values)
    if not vals:
        raise ValueError("median of an empty multiset")
    # Walk distinct values from the top; the strictly-larger count only grows
    # as the candidate shrinks, so the first qualifying hit is the largest.
    pos = len(vals) - 1
    while pos >= 0:
        x = vals[pos]
        if 2 * (len(vals) - 1 - pos) >= len(vals):
            return x
        while pos >= 0 and vals[pos] == x:
            pos -= 1
    return vals[0]


def csv_cell(x) -> str:
    """A CSV cell: None empty, a bool 1 or 0, a Fraction its float's repr, a
    float its repr, anything else its str."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, Fraction):
        return repr(float(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def degree_profile_by_edge(H: ColoredHypergraph) -> tuple[dict, dict[int, int]]:
    """(vertex degrees over the active vertices, color degrees over
    1..kappa), zero entries included, keyed in the order `active_vertices`
    and the colors give: every edge adds one to each of its ends, a partite end
    built as its PartiteVertex, and one to its color."""
    deg = {v: 0 for v in active_vertices(H)}
    cdeg = {c: 0 for c in range(1, H.kappa + 1)}
    for e in H.edges:
        if H.mode == PARTITE:
            for part, idx in enumerate(e.verts, start=1):
                deg[PartiteVertex(part, idx)] += 1
        else:
            for u in e.verts:
                deg[u] += 1
        cdeg[e.color] += 1
    return deg, cdeg
