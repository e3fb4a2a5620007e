"""Rainbow Hamilton cycles: exact search plus the two constructions that
produce candidates for it.

The even-n construction splits a colored graph into eight edge classes via a
random (color, label) partition, finds a rainbow perfect matching inside each
class under the pair recoloring, and unions the matchings into an 8-regular
multigraph in which every original color appears exactly four times; that
multigraph is then searched for a rainbow Hamilton cycle directly.  The odd-n
route contracts one edge (deleting its color class), solves the resulting
even-order multigraph, and lifts the cycle back when its two contracted-vertex
edges came from different original endpoints.

The search is the matching kernel, count._Search, with a demand of two
edges per vertex: one node is one partial edge set in which each vertex has
at most two edges, each color at most one, and the chosen edges form paths
(an edge closing a cycle shorter than n is killed).  It is exhaustive, so
"None" means "no rainbow Hamilton cycle", while budget exhaustion raises.
Parallel edges are distinct objects throughout.  assemble_even checks its
cycle against the original graph before reporting it, and a failed check
raises RuntimeError (the odd-n trial in experiments does the same with a
lifted cycle).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, product
from typing import Iterable, Iterator, Mapping, Sequence

from .count import BudgetExceededError, DEFAULT_NODE_BUDGET, _check_budget, _Search, find_rainbow_pm
from .model import (
    _SHAPE_CACHE_SIZE, GRAPH, ColoredEdge, ColoredHypergraph, Matching, _built, _check_sizes,
    _digits, _has_edge, _key, _key_edges, _stored_edges, _uniform,
)

__all__ = [
    "DEFAULT_HC_BUDGET",
    "STAGE_CLASS_TOO_SMALL",
    "STAGE_MATCHING_NOT_FOUND",
    "STAGE_MATCHING_BUDGET",
    "STAGE_HC_NOT_FOUND",
    "STAGE_HC_BUDGET",
    "STAGE_LIFT_FAILED",
    "STAGE_SUCCESS",
    "FAILURE_STAGES",
    "ColoredMultigraph",
    "HamiltonCycle",
    "ContractionMap",
    "AssemblyPlan",
    "is_rainbow_hamilton_cycle",
    "find_rainbow_hc",
    "assemble_even",
    "contract_color_delete",
    "lift_cycle",
]

DEFAULT_HC_BUDGET = 10**7

STAGE_CLASS_TOO_SMALL = "edge-class-too-small"
STAGE_MATCHING_NOT_FOUND = "matching-not-found"
STAGE_MATCHING_BUDGET = "matching-budget"
STAGE_HC_NOT_FOUND = "hc-not-found"
STAGE_HC_BUDGET = "hc-budget"
STAGE_LIFT_FAILED = "lift-failed"  # odd n: the cycle found does not lift
STAGE_SUCCESS = "success"
# The ways a pipeline trial falls short, in the order of the hamilton CSV
# columns.
FAILURE_STAGES = (
    STAGE_CLASS_TOO_SMALL,
    STAGE_MATCHING_NOT_FOUND,
    STAGE_MATCHING_BUDGET,
    STAGE_HC_NOT_FOUND,
    STAGE_HC_BUDGET,
    STAGE_LIFT_FAILED,
)


@dataclass(frozen=True, init=False)
class ColoredMultigraph:
    """A colored multigraph on [1..n], stored as a graph-mode instance is (a
    key once per parallel edge).  Every edge follows a graph-mode instance's
    edge rules, checked edge by edge as an instance's are
    (`model._stored_edges`) but with repeated pairs allowed, so no
    self-loops.  The union and the contraction are valid by construction and
    skip that check (`model._built`); the tests hold both to it."""

    n: int
    kappa: int
    keys: tuple[int, ...]
    colors: tuple[int, ...]
    k = 2  # a pair per key

    def __init__(self, n: int, kappa: int, edges: Iterable):
        _check_sizes(GRAPH, n, 2, kappa)
        self.__dict__.update(n=n, kappa=kappa,
                             **_stored_edges(edges, GRAPH, n, 2, kappa, frozenset(), parallel=True))

    edges = cached_property(_key_edges)


@dataclass(frozen=True)
class HamiltonCycle:
    """vertices is the cyclic order (each vertex once, starting at vertex 1
    and going on to the smaller of its two neighbors); edges[i] joins
    vertices[i] and vertices[(i+1) % n]."""

    vertices: tuple[int, ...]
    edges: tuple[ColoredEdge, ...]


def _check_graph_host(G: ColoredHypergraph, what: str) -> None:
    """Refuse G for what unless it is a graph-mode instance, all vertices active."""
    if G.mode != GRAPH or G.absent:
        raise ValueError(f"{what} needs a graph-mode instance with all vertices active")


def _host_n(G) -> int:
    """G's n, once G is a host the cycle search takes."""
    if isinstance(G, ColoredHypergraph):
        _check_graph_host(G, "Hamilton cycle search")
    elif not isinstance(G, ColoredMultigraph):
        raise TypeError(f"unsupported host {type(G).__name__}")
    return G.n


def is_rainbow_hamilton_cycle(G, cycle: HamiltonCycle) -> bool:
    """Independent validator: full vertex coverage, consecutive adjacency, the
    edge multiset really available in G (parallel edges counted), and all
    colors distinct.  Shares no code with the searcher."""
    n = _host_n(G)
    if sorted(cycle.vertices) != list(range(1, n + 1)):
        return False
    if len(cycle.edges) != n:
        return False
    for i, e in enumerate(cycle.edges):
        u, v = cycle.vertices[i], cycle.vertices[(i + 1) % n]
        if tuple(sorted((u, v))) != e.verts:
            return False
    if Counter(cycle.edges) - Counter(G.edges):
        return False
    colors = [e.color for e in cycle.edges]
    return len(colors) == len(set(colors))


def _cycle_of(n: int, edges: Sequence[ColoredEdge]) -> HamiltonCycle:
    """The Hamilton cycle on [1..n] whose edge set is edges, walked from
    vertex 1 towards the smaller of its two neighbors, so the form depends
    only on the edge set."""
    ends: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, e in enumerate(edges):
        u, v = e.verts
        ends[u].append((v, i))
        ends[v].append((u, i))
    at, came = min(ends[1])
    vertices, order = [1], [came]
    while at != 1:
        vertices.append(at)
        (a, i), (b, j) = ends[at]
        at, came = (b, j) if i == came else (a, i)
        order.append(came)
    return HamiltonCycle(tuple(vertices), tuple(edges[i] for i in order))


def find_rainbow_hc(G, budget: int = DEFAULT_HC_BUDGET) -> HamiltonCycle | None:
    """The first rainbow Hamilton cycle the exact-cover search reaches, or
    None when the search space is exhausted.  Raises BudgetExceededError
    when the node budget runs out (never a silent absence), reporting node
    budget + 1.

    The search is count._Search with a demand of two edges per vertex: one
    node is one partial edge set, each vertex taking at most two edges and
    each color at most one, and no chosen edges closing a cycle shorter than
    n.  It branches on the column with the fewest spare live edges; on a
    vertex that still needs both of its edges, on taking its lowest live edge
    or dropping it.  It reads G's keys and colors, never its edges view; the
    cycle, the chosen edge set, is the form _cycle_of gives it."""
    n = _host_n(G)
    if n < 3:
        raise ValueError("Hamilton cycles need n >= 3")
    search = _Search(G, budget, find_one=True, demand=2)
    search.run()
    if search.found is None:
        return None
    return _cycle_of(n, _key_edges(G, search.found))


# -- even-n assembly ----------------------------------------------------------


# byte b -> 1 for b == bi, 0 otherwise: translates a plan's class bytes into
# the selector of class bi (`itertools.compress`)
_MEMBER = tuple(bytes(int(b == bi) for b in range(256)) for bi in range(8))


def _members(items: Sequence, edge_class: bytes, bi: int) -> Iterator:
    """The items at the positions whose class byte is bi, in order."""
    return compress(items, edge_class.translate(_MEMBER[bi]))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _color_label_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The 4n (color, label) pairs of [1..n] x [1..4], in order: what the
    assembly shuffles into its blocks."""
    return tuple(product(range(1, n + 1), range(1, 5)))


@dataclass(frozen=True)
class AssemblyPlan:
    """Everything the eight-matching construction decided and found.

    graph         the sampled instance: edge j is keys[j] of colors[j]
    label_list    label_list[j] in 1..4 is the label of edge j
    blocks        the 8 disjoint (color, label) sets, each of size n/2
    edge_class    byte j is the index of the block holding edge j's
                  (color, label) pair
    matchings     per class, the found matching in *original* colors, or None
    union_graph   the multigraph union of all matchings (None unless all found)
    stage         the STAGE_* name the pipeline ended at, STAGE_SUCCESS when
                  the HC search ran and found a cycle

    class_sizes, the edges per class, is counted off edge_class on first use.
    """

    graph: ColoredHypergraph
    label_list: Sequence[int]
    blocks: tuple[frozenset, ...]
    edge_class: bytes
    matchings: tuple[Matching | None, ...]
    union_graph: ColoredMultigraph | None
    stage: str

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(map(self.edge_class.count, range(8)))


def assemble_even(
    G: ColoredHypergraph,
    rnd: random.Random,
    matching_budget: int = DEFAULT_NODE_BUDGET,
    hc_budget: int = DEFAULT_HC_BUDGET,
) -> tuple[AssemblyPlan, HamiltonCycle | None]:
    """Run the full even-n pipeline on a colored graph with kappa == n.

    Labels every edge with 1..4 (one label per key in order, drawn in bulk
    by `model._uniform`), partitions [1..n] x [1..4] into 8
    blocks of size n/2 (a shuffle of the per-n pairs, `_color_label_pairs`),
    splits edges into classes by their (color, label) pair, gates on every
    class holding at least a tenth of the edges, finds one rainbow perfect
    matching per class under the pair recoloring, unions the matchings into
    a multigraph, and searches it for a rainbow Hamilton cycle under the
    original colors.  One flat table has a slot per pair (c, l), at
    4c + l - 5, holding the pair's block and its 1-based position in the
    sorted block, the color it takes in the pair recoloring; one pass over
    G's colors and the labels gives each edge its class byte, and the size
    gate counts those bytes.  G's edges view is never read: each class
    searched is built and recolored from its keys and colors (`_members`)
    when its search comes, and a found matching gets its original colors
    back through its class's key -> color map.  Each way to fall short is
    a named failure stage.  The recolored classes (a subsequence of G's
    keys, colored 1..n/2) and the union (G's keys, sorted) are valid by
    construction, so they skip the constructors' checks (`model._built`);
    the tests hold them to those.
    """
    _check_graph_host(G, "assembly")
    if G.n % 2 != 0 or G.n < 4:
        raise ValueError("assembly needs even n >= 4")
    if G.kappa != G.n:
        raise ValueError("assembly needs exactly n colors")
    _check_budget(matching_budget, "matching_budget")
    _check_budget(hc_budget, "hc_budget")

    n, keys, colors = G.n, G.keys, G.colors
    label_list = _uniform(rnd, 4, len(keys))
    pairs = list(_color_label_pairs(n))
    rnd.shuffle(pairs)
    nu = n // 2
    blocks = tuple(frozenset(pairs[i * nu : (i + 1) * nu]) for i in range(8))

    slots: list[tuple[int, int]] = [(0, 0)] * (4 * n)
    for bi, block in enumerate(blocks):
        for i, (c, l) in enumerate(sorted(block), 1):
            slots[4 * c + l - 5] = (bi, i)
    edge_class = bytes([slots[4 * c + l - 5][0] for c, l in zip(colors, label_list)])

    def plan(matchings, union, stage):
        return AssemblyPlan(G, label_list, blocks, edge_class, tuple(matchings), union, stage)

    if any(edge_class.count(bi) * 10 < len(keys) for bi in range(8)):
        return plan([None] * 8, None, STAGE_CLASS_TOO_SMALL), None

    matchings: list[Matching | None] = [None] * 8
    for bi in range(8):
        cls_keys = tuple(_members(keys, edge_class, bi))
        cls_colors = tuple(_members(colors, edge_class, bi))
        recolored = _built(ColoredHypergraph, mode=GRAPH, n=n, k=2, kappa=nu, keys=cls_keys,
                           colors=tuple([slots[4 * c + l - 5][1] for c, l in zip(
                               cls_colors, _members(label_list, edge_class, bi))]),
                           absent=frozenset())
        try:
            M = find_rainbow_pm(recolored, budget=matching_budget)
        except BudgetExceededError:
            return plan(matchings, None, STAGE_MATCHING_BUDGET), None
        if M is None:
            return plan(matchings, None, STAGE_MATCHING_NOT_FOUND), None
        original = dict(zip(cls_keys, cls_colors))
        matchings[bi] = Matching(tuple(sorted(
            ColoredEdge(f.verts, original[_key(f.verts, n)]) for f in M.edges)))

    keys, colors = zip(*sorted((_key(e.verts, n), e.color) for M in matchings for e in M.edges))
    union = _built(ColoredMultigraph, n=n, kappa=G.kappa, keys=keys, colors=colors)
    try:
        hc = find_rainbow_hc(union, budget=hc_budget)
    except BudgetExceededError:
        return plan(matchings, union, STAGE_HC_BUDGET), None
    if hc is None:
        return plan(matchings, union, STAGE_HC_NOT_FOUND), None
    if not is_rainbow_hamilton_cycle(G, hc):
        raise RuntimeError("union search: the cycle found is not a rainbow Hamilton cycle of G")
    return plan(matchings, union, STAGE_SUCCESS), hc


# -- odd-n contract and lift -----------------------------------------------------


@dataclass(frozen=True)
class ContractionMap:
    """Bookkeeping from contract_color_delete.

    xi            the new vertex standing in for both removed endpoints
    new_to_old    new vertex id -> original vertex id (xi excluded)
    host          the original graph; a xi-edge (w, xi) of color c comes
                  from (w, x, c), from (w, y, c) or from both, and these are
                  the only candidates, looked up by key (`model._has_edge`)
    """

    xi: int
    new_to_old: Mapping[int, int]
    host: ColoredHypergraph


def contract_color_delete(
    G: ColoredHypergraph, e: ColoredEdge
) -> tuple[ColoredMultigraph, ContractionMap]:
    """Contract e = {x, y} into a fresh vertex and drop color class c(e).

    Survivor vertices are renumbered 1..n-2 in increasing order and the new
    vertex takes id n-1, so the result lives on [1..n-1]; one list indexed
    by the old id gives every vertex its new one.  Edges formerly at
    x or y become parallel edges at the new vertex; the map keeps the
    original graph, which tells lift_cycle which endpoint each came from.
    e must pass the one edge lookup (`model._has_edge`).  The color
    multiset of the result is the original one minus the whole c(e) class.
    Its keys are G's, each key's two digits (`_digits`; the edges view is
    never read) renumbered to distinct ends (G is simple, so only e joins x
    and y) and sorted, so the multigraph skips its constructor's check
    (`model._built`); the tests hold it to that.
    """
    _check_graph_host(G, "contraction")
    if not _has_edge(G, e.verts, e.color):
        raise ValueError(f"{e} is not an edge of the instance")
    if G.n < 3:
        raise ValueError("contraction needs n >= 3")
    x, y = e.verts
    xi = G.n - 1
    # new[v] is old vertex v's id: the survivors keep their order on
    # 1..n-2, and x and y become xi, the largest, so an edge u < v keeps
    # its order unless u is x or y
    new = [*range(x), xi, *range(x, y - 1), xi, *range(y - 1, xi)]
    new_to_old = {w: v for v, w in enumerate(new) if 0 < w < xi}

    drop = e.color
    pairs = sorted((_key((new[v], xi) if new[u] == xi else (new[u], new[v]), xi), c)
                   for u, v, c in zip(*_digits(G.keys, G.n, 2, (1, 1)), G.colors) if c != drop)
    keys, colors = zip(*pairs) if pairs else ((), ())
    return (_built(ColoredMultigraph, n=xi, kappa=G.kappa, keys=keys, colors=colors),
            ContractionMap(xi, new_to_old, G))


def lift_cycle(
    hc: HamiltonCycle, cmap: ContractionMap, e: ColoredEdge
) -> HamiltonCycle | None:
    """Expand a rainbow Hamilton cycle of the contracted graph back to the
    original graph, inserting e between its endpoints.

    Succeeds iff the two cycle edges at the contracted vertex can be traced to
    distinct original endpoints (one at x, one at y); returns None otherwise.
    When a xi-edge has parallel same-colored copies from both sides, any
    assignment making the endpoints distinct is taken: all copies exist in the
    original graph, so the lifted cycle is valid either way.  Each cycle edge
    is then mapped back, ordinary vertices through new_to_old and xi to the
    endpoint its edge was traced to, and e closes the gap; the result is the
    mapped edge set in the form _cycle_of gives it.  It is rainbow for free:
    e's color class was deleted before the cycle was found.  Origins are
    looked up in the original graph by key (`model._has_edge`).
    """
    x, y = e.verts
    xi_edges = [g for g in hc.edges if cmap.xi in g.verts]
    if not xi_edges:
        raise ValueError("cycle does not visit the contracted vertex")
    first, second = xi_edges

    def sides(g: ColoredEdge) -> set[int]:
        # g is (w', xi) with w' < xi; its origins are (w, x) and (w, y) in c(g)
        w = cmap.new_to_old[g.verts[0]]
        return {z for z in (x, y) if _has_edge(cmap.host, (min(w, z), max(w, z)), g.color)}

    first_sides, second_sides = sides(first), sides(second)
    if x in first_sides and y in second_sides:
        xi_ends = iter((x, y))
    elif y in first_sides and x in second_sides:
        xi_ends = iter((y, x))
    else:
        return None
    # xi = n' is the largest contracted vertex, so it is the second end of
    # each xi-edge; the xi-edges meet xi_ends in cycle order.
    lifted = [e]
    for g in hc.edges:
        u, v = g.verts
        w = next(xi_ends) if v == cmap.xi else cmap.new_to_old[v]
        u = cmap.new_to_old[u]
        lifted.append(ColoredEdge((min(u, w), max(u, w)), g.color))
    return _cycle_of(len(hc.vertices) + 1, lifted)
