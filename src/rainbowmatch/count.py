"""Exact rainbow perfect matching decision, search, and counting.

Everything here is exact integer combinatorics; nothing is sampled.  The
workhorse is an exact-cover search (_Search).  A rainbow perfect matching
covers every active vertex exactly once, and every color exactly once when
the edges carry exactly as many colors as the matching has edges (otherwise
each color at most once).  The live edges are one int bitset; each column, a
vertex or a color, has its own edge bitset, and choosing an edge drops every
edge that shares a vertex or its color.  Two fail-fast prunes: a branch dies
as soon as some active uncovered vertex has no live edge (vertex coverage),
or the live edges carry fewer distinct colors than the matching still needs
edges (color supply: each missing edge takes its own unused color).  Each
node branches on the column with the fewest live edges (Knuth's rule for
Algorithm X, "Dancing Links"), ties going to the lowest vertex and a color
winning only when strictly smaller, and tries that column's live edges in
canonical order.  The depth-first order lives on an explicit stack, so a
matching's size is not bounded by Python's recursion limit.  Prunes and
branching change the nodes visited and which witness comes first, never a
count or whether a witness exists.  Exponential in the worst case, fine at
desk scale, and guarded by an explicit node budget that raises instead of
silently truncating.

The same kernel covers vertex demand 2, which makes its covers rainbow
Hamilton cycles (exact covering with multiplicities, Knuth's Algorithm M):
every vertex of a graph needs two edges and every color at most one, or
exactly one when the graph carries exactly n colors.  A vertex that still
needs both of its edges scores its live edges minus one in the column
choice, and a branch on it either takes its lowest live edge or drops that
edge (only while two others are left), so no cover is reached twice.  An
edge taken kills its color, the columns of the vertices it saturates, and
the edges that join the two ends of the path fragment it joins, unless that
fragment spans every vertex (the "nocycle" rule of Caseau and Laburthe).
The supply test counts the demand left, one per edge still needed at each
vertex.

Partite counts take a second route, which prunes nothing: every edge holds
exactly one part-1 vertex, so a rainbow perfect matching splits into a
matching on the first half of the part-1 vertices and one on the second
half, with complementary vertices and disjoint colors.  Both halves are flat
lists of partial matchings, built in chunks of at most _SPLIT_TABLE_CAP
(_chunks) and never merged: at half depth far fewer of them share a state
than at full depth, and merging costs more than it saves.  The first half
grows layer by layer and its last layer is tabulated by (covered vertices,
used colors); the second is walked depth first over chunks and completed by
a complement lookup (meet in the middle, after Horowitz and Sahni).  A
first-half layer past _SPLIT_TABLE_CAP is dropped, and the first half
shrinks.  The split runs only after the kernel has found one witness, so a
zero count is still proved by the pruned search.  Graph-mode counts have no
part-1 side and stay on the search kernel.

The search kernel and the split read one bit layout of the instance
(_Layout: vertex, color and edge bits, the edges grouped by part-1 vertex),
built once per instance from its keys and colors with no rescan per vertex;
the split reads the one its witness search built.  Only the search builds
columns; the deletion process (process._DeletionState) reads the bits alone.

For bipartite instances whose color count equals n there is one more,
independent counting route via inclusion-exclusion over color subsets and
permanents.  The tests cross-check the routes with each other and with a
colored-to-uniform reduction counted by a plain enumerator
(tests/oracles.py).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (PARTITE, CapacityError, ColoredEdge, ColoredHypergraph, Matching, _check_sizes,
                    _digits, _has_edge, _key_edges)

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "BudgetExceededError",
    "CountReport",
    "is_rainbow",
    "is_perfect_matching",
    "find_rainbow_pm",
    "count_rainbow_pm",
    "expected_rainbow_count",
    "disjoint_completion_count",
    "second_moment_exact",
    "latin_transversal",
]

DEFAULT_NODE_BUDGET = 10**8

# Most bits a layout may span (_check_layout_bits): _Layout refuses a larger
# instance (model.CapacityError) before it builds a mask.
_LAYOUT_BIT_CAP = 1 << 31

METHOD_BRUTE = "brute"
METHOD_IE = "color-inclusion-exclusion"


def _check_budget(budget: int, name: str = "budget") -> None:
    """Refuse a node budget that is not an int (a bool or a float too) or is below 1."""
    if type(budget) is not int:
        raise ValueError(f"{name} must be an int, not {budget!r}")
    if budget < 1:
        raise ValueError(f"{name} must be positive, not {budget}")


class BudgetExceededError(RuntimeError):
    """Search exceeded its node budget.  Carries the node count reached."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


@dataclass(frozen=True)
class CountReport:
    value: int
    method: str
    elapsed: float
    nodes: int


# -- predicates ---------------------------------------------------------------


def is_rainbow(edges: Iterable[ColoredEdge] | Matching) -> bool:
    """True iff the edges carry pairwise distinct colors."""
    if isinstance(edges, Matching):
        edges = edges.edges
    colors = [e.color for e in edges]
    return len(colors) == len(set(colors))


def is_perfect_matching(H: ColoredHypergraph, M: Matching) -> bool:
    """True iff M's edges are edges of H, pairwise vertex-disjoint, and
    together cover every active vertex.

    Shares no code with the search kernel.  Each edge is looked up by the
    one edge lookup rule (`model._has_edge`: its vertex indices ints in
    1..n, one per tuple position, its key bisected among H's keys, its color
    compared).  Covered vertices are (part, index) pairs, or ints in graph
    mode; H's edges touch only active vertices, so M is perfect iff none is
    covered twice and as many are as are active.
    """
    partite = H.mode == PARTITE
    vertices = H.k * H.n if partite else H.n
    covered = set()
    for e in M.edges:
        if not _has_edge(H, e.verts, e.color):
            return False
        covered.update(enumerate(e.verts) if partite else e.verts)
    return len(covered) == H.k * len(M) == vertices - len(H.absent)


# -- exact-cover search kernel -------------------------------------------------


def _check_layout_bits(edges: int, vertex_bits: int, per_edge: int, kappa: int) -> None:
    """Refuse (model.CapacityError) a layout of more than _LAYOUT_BIT_CAP
    bits: (edges + 1) * (vertex_bits * per_edge / 2 + kappa), an edge's
    per_edge vertex bits being vertex_bits / 2 wide on average (at k = 2,
    one mask of every vertex bit)."""
    size = (edges + 1) * (vertex_bits * per_edge // 2 + kappa)
    if size > _LAYOUT_BIT_CAP:
        raise CapacityError(f"layout of {size} bits exceeds capacity {_LAYOUT_BIT_CAP}")


class _Layout:
    """The bit layout of one instance, built once from its keys and colors,
    in a few linear passes (none per vertex).

    Vertex (p, i) of a partite instance is bit (p - 1) * n + i - 1, vertex
    v of a graph bit v - 1 (bit(); offsets[p] is tuple position p's first
    bit), color c bit c - 1, and edge i (key H.keys[i]) bit i.  Edge i's
    vertex at tuple position p is bit positions[p][i], its key's digit
    there plus offsets[p] (`model._digits`); bits and cbits give each
    touched position and color one int that the edges share.  items[i] is
    edge i's (vertex bits in part order, their union, color bit).  runs
    maps each first digit d to its run (lo, hi) of the sorted keys, the
    edges of part-1 vertex d + 1 (of a graph's, as the smaller end).
    active holds the active vertices and twice those that need two edges
    (demand 2: H is a graph or multigraph on [1..n]); per_edge is the
    vertices an edge covers, and feasible is False when part sizes or
    parity rule out any cover.  The layout holds bits only; the search
    builds its columns (_Search).  Nothing but packed's lists is built per
    active vertex, since each mask is an n*k-bit int.
    """

    def __init__(self, H, demand: int = 1):
        n = self.n = H.n
        partite = demand == 1 and H.mode == PARTITE
        k = self.per_edge = H.k if partite else 2
        self.shift = n * k if partite else n
        _check_layout_bits(len(H.keys), self.shift, k, H.kappa)
        self.offsets = range(0, self.shift, n) if partite else (0, 0)
        self.twice = 0
        if demand == 2:
            self.active = self.twice = (1 << n) - 1
            self.feasible = True
        elif partite:
            gone = [0] * k
            for v in H.absent:
                gone[v.part - 1] += 1
            self.feasible = min(gone) == max(gone)
            self.active = ((1 << self.shift) - 1) & ~sum(
                self.bit(v.part - 1, v.index) for v in H.absent)
        else:
            self.active = ((1 << n) - 1) & ~sum(self.bit(0, v) for v in H.absent)
            self.feasible = self.active.bit_count() % 2 == 0
        self.positions = _digits(H.keys, n, k, self.offsets)
        first = self.positions[0]
        self.runs = {d: (bisect_left(first, d), bisect_right(first, d)) for d in sorted(set(first))}
        self.bits = {x: 1 << x for x in set().union(*self.positions)}
        self.cbits = {c: 1 << (c - 1) for c in set(H.colors)}
        verts = list(zip(*[[self.bits[x] for x in xs] for xs in self.positions]))
        self.items = list(zip(verts, map(sum, verts), [self.cbits[c] for c in H.colors]))

    def bit(self, p: int, i: int) -> int:
        """The bit of vertex index i at tuple position p (its part - 1; 0 in a graph)."""
        return 1 << (self.offsets[p] + i - 1)

    def packed(self) -> tuple[list[int], dict[int, list[int]]]:
        """Each edge packed, in canonical order, and the packed edges of each
        active part-1 vertex of a partite instance, keyed by its bit from low
        to high (the branch order), edgeless vertices included (runs).  A
        state (a partial matching) is packed too, covered vertices | used
        colors << shift, so an edge fits a state iff the two share no bit."""
        shift, runs = self.shift, self.runs
        packed = [covers | cbit << shift for _, covers, cbit in self.items]
        lists = {b: packed[slice(*runs.get(b.bit_length() - 1, (0, 0)))]
                 for b in _bits(self.active & ((1 << self.n) - 1))}
        return packed, lists


class _Search:
    """One exact-cover search (columns, prunes and branching rule in the
    module docstring); counts every visited node against the budget.

    With demand 1 each active vertex of H needs one edge: the covers are
    rainbow perfect matchings.  With demand 2, H is a graph on [1..n]
    (parallel edges allowed, every vertex active) whose vertices each need
    two edges, under the fragment rule: the covers are rainbow Hamilton
    cycles.  layout is the instance's bit layout (_Layout), built here, and
    edge i of it is bit i of the live set.  The constructor builds the
    columns from the layout: vertex_cols and color_cols map each touched
    vertex's and each carried color's bit to its edges; vcols and ccols list
    them low bit first, vcols after a leading (active, 0) when some active
    vertex has no edge (it prunes the root).  exact: the edges carry exactly
    as many colors as a cover has edges.  After run(), nodes is the number
    of nodes visited, count the covers reached (all of them unless
    find_one), and found, in find_one mode, the indices of the edges of the
    first one reached, in the order they were chosen, or None.
    """

    def __init__(self, H, budget: int, find_one: bool, demand: int = 1):
        _check_budget(budget)
        self.layout = layout = _Layout(H, demand)
        # by bit position and by color: a first digit's run at once, the rest
        # edge by edge; in lists when they need at most two slots per edge (no
        # more room than the edges take), else in dicts (a huge sparse instance)
        dense = layout.shift + H.kappa <= 2 * len(H.keys)
        cols = [0] * layout.shift if dense else defaultdict(int)
        ccols = [0] * (H.kappa + 1) if dense else defaultdict(int)
        for d, (lo, hi) in layout.runs.items():
            cols[d] = (1 << hi) - (1 << lo)
        for into, values in [*[(cols, xs) for xs in layout.positions[1:]], (ccols, H.colors)]:
            ebit = 1
            for v in values:
                into[v] |= ebit
                ebit <<= 1
        xs, cs = (range(len(cols)), range(len(ccols))) if dense else (sorted(cols), sorted(ccols))
        self.vcols = [(layout.bits[x], cols[x]) for x in xs if cols[x]]
        self.vertex_cols = dict(self.vcols)
        self.color_cols = {layout.cbits[c]: ccols[c] for c in cs if ccols[c]}
        # no edge touches an absent vertex
        active = layout.active.bit_count()
        if len(self.vcols) < active:
            self.vcols.insert(0, (layout.active, 0))
        self.ccols = list(self.color_cols.values())
        self.exact = len(self.ccols) * layout.per_edge == active + layout.twice.bit_count()
        self.budget = budget
        self.find_one = find_one
        self.nodes = 0
        self.count = 0
        self.found: tuple[int, ...] | None = None

    def run(self) -> None:
        layout = self.layout
        if not layout.feasible:
            return
        all_active, twice = layout.active, layout.twice
        if all_active == 0:
            # No active vertices: exactly one (empty) perfect matching.
            self.count = 1
            if self.find_one:
                self.found = ()
            return
        items, vertex_cols, color_cols = layout.items, self.vertex_cols, self.color_cols
        vcols, ccols, exact, per_edge = self.vcols, self.ccols, self.exact, layout.per_edge
        cycle = twice != 0
        find_one, budget = self.find_one, self.budget
        nodes = count = 0
        # (live edges, vertices still short of an edge, those short of two,
        # each path fragment's end to its other end (cycles only; a vertex no
        # chosen edge touches is its own fragment), chosen edges as nested
        # (i, rest))
        stack = [((1 << len(items)) - 1, all_active, twice,
                  {v: v for v in vertex_cols} if cycle else None, None)]
        pop, push = stack.pop, stack.append
        while stack:
            live, uncovered, twice, ends, chosen = pop()
            nodes += 1
            if nodes > budget:
                self.nodes = nodes
                raise BudgetExceededError(f"node budget {budget} exceeded", nodes)
            if not uncovered:
                count += 1
                if find_one:
                    found = []
                    while chosen:
                        i, chosen = chosen
                        found.append(i)
                    self.found = tuple(reversed(found))
                    break
                continue
            best, fewest, pick = 0, len(items) + 1, 0
            for bit, col in vcols:
                if uncovered & bit:
                    d = (col & live).bit_count()
                    if d <= fewest:
                        if twice & bit:
                            d -= 1  # it needs two of them
                        if d < fewest:
                            if d < 1:
                                break  # this vertex can no longer be covered
                            best, fewest, pick = col, d, bit
            else:
                # Used colors have no live edge left, so the colors that still
                # have one are unused; each edge still needed takes its own.
                # With exact colors the test also says every unused color
                # keeps a live edge, and each is a column to branch on.
                demand = uncovered.bit_count() + twice.bit_count()
                supply = 0
                for col in ccols:
                    x = col & live
                    if x:
                        supply += 1
                        if exact:
                            d = x.bit_count()
                            if d < fewest:
                                best, fewest, pick = col, d, 0
                if supply * per_edge >= demand:
                    cands = best & live
                    if pick & twice:
                        # take its lowest live edge, or drop that edge while
                        # two others are left (pushed first, tried second)
                        low = cands & -cands
                        if fewest > 1:
                            push((live ^ low, uncovered, twice, ends, chosen))
                        cands = low
                    # pushed high to low, so the lowest edge is tried first
                    while cands:
                        i = cands.bit_length() - 1
                        cands ^= 1 << i
                        # the edge kills its color and the columns of the
                        # vertices it saturates
                        verts, covers, cbit = items[i]
                        saturated = covers & ~twice
                        kill = color_cols[cbit]
                        for v in verts:
                            if v & saturated:
                                kill |= vertex_cols[v]
                        ends_after = None
                        if cycle:
                            # the new fragment's ends may no longer be joined,
                            # unless it spans every vertex: then this edge
                            # leaves a demand of 2, the closing edge's
                            u, v = verts
                            a, b = ends[u], ends[v]
                            if demand > 4:
                                kill |= vertex_cols[a] & vertex_cols[b]
                            ends_after = ends.copy()
                            ends_after[a], ends_after[b] = b, a
                        push((live & ~kill, uncovered ^ saturated, twice & ~covers,
                              ends_after, (i, chosen)))
        self.nodes = nodes
        self.count = count


def _bits(mask: int):
    """The set bits of mask, low to high, each as its own int."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


# Most partial matchings the split count's half table may be made from, and
# the size _chunks holds each list to.  A first-half layer that passes it is
# dropped, and the depth-first half covers one more part-1 vertex instead.
_SPLIT_TABLE_CAP = 1 << 20


def _chunks(states: list[int], edges: list[int]):
    """The one-edge extensions of states (packed ints, _Layout.packed), as
    lists built from at most _SPLIT_TABLE_CAP // len(edges) parents each (one
    at least), so none holds more than max(_SPLIT_TABLE_CAP, len(edges))
    entries.  Nothing is merged: kids of two parents that reach the same
    state are both kept.  edges is not empty."""
    step = max(1, _SPLIT_TABLE_CAP // len(edges))
    for i in range(0, len(states), step):
        yield [st | e for st in states[i:i + step] for e in edges if not st & e]


def _first_half(lists: list[list[int]], nodes: int, budget: int):
    """The split count's table: (Counter of the partial matchings on the first
    h part-1 vertices, h, nodes + every partial matching built).  Grows one
    layer per list up to len(lists) // 2; a layer that passes
    _SPLIT_TABLE_CAP partial matchings is dropped at the chunk that takes it
    past, and the table keeps the layer before."""
    half, h = [0], 0
    while h < len(lists) // 2:
        layer = []
        for chunk in _chunks(half, lists[h]):
            layer += chunk
            nodes += len(chunk)
            if nodes > budget:
                raise BudgetExceededError(f"node budget {budget} exceeded", nodes)
            if len(layer) > _SPLIT_TABLE_CAP:
                return Counter(half), h, nodes
        half, h = layer, h + 1
    return Counter(half), h, nodes


def _count_split(H: ColoredHypergraph, budget: int) -> tuple[int, int]:
    """(count, nodes) of the rainbow perfect matchings of a partite instance,
    by meeting in the middle.

    Every edge holds exactly one part-1 vertex, so a rainbow perfect matching
    on s part-1 vertices is a rainbow matching on the first h of them plus one
    on the other s - h, with complementary covered vertices and disjoint
    colors.  States and edges are packed ints, and the edges are grouped by
    part-1 vertex, in the layout the witness search has already built
    (_Layout.packed); exact and the color cover come from that search's
    columns.  Both halves are flat lists of partial matchings built in
    chunks (_chunks): at half depth states repeat far less, and merging them
    would cost more than it saves.  The first half is grown layer by layer
    and its last layer counted into the table {state: number of matchings}
    (_first_half; h is s // 2, or less when a layer passes
    _SPLIT_TABLE_CAP).  The second half
    is walked depth first over chunks, one chunk generator per depth, and
    each chunk of full states is joined with the table: one dict lookup per
    state when the edges carry exactly s colors (every rainbow perfect
    matching uses all of them), otherwise a scan of the table entries on the
    complementary vertex set for color-disjoint ones.

    The split prunes nothing, so the depth-first kernel first looks for one
    witness: its prunes settle infeasible shapes, instances without an
    active vertex and most zero counts fast, where the split would build
    both halves in full for nothing.  nodes are the kernel's search nodes
    (node 1 is its root, where the vertex-coverage and color-supply check
    runs) plus every partial matching either half builds, counted against
    budget after each chunk.
    """
    probe = _Search(H, budget, find_one=True)
    probe.run()
    nodes = probe.nodes
    if not probe.found:
        # None: no perfect matching is feasible or the search proved absence;
        # (): no active vertex, so the empty matching is the one
        return (0 if probe.found is None else 1), nodes
    layout, exact = probe.layout, probe.exact
    shift, all_active = layout.shift, layout.active
    lists = list(layout.packed()[1].values())
    table, h, nodes = _first_half(lists, nodes, budget)

    if exact:
        # every color some edge carries: a full state uses them all
        full = all_active | sum(probe.color_cols) << shift
        get = table.get
    else:
        low = (1 << shift) - 1
        buckets: dict[int, list[tuple[int, int]]] = {}
        for state, ways in table.items():
            buckets.setdefault(state & low, []).append((state & ~low, ways))
        del table

    # The other half, depth first: walks[d] yields the chunks of states on
    # the first d + 1 of the remaining part-1 vertices, from one chunk of
    # walks[d - 1]; the chunks of the last depth are joined with the table.
    rest = lists[h:]
    last = len(rest) - 1
    walks = [_chunks([0], rest[0])]
    total = 0
    while walks:
        chunk = next(walks[-1], None)
        if chunk is None:
            walks.pop()
            continue
        nodes += len(chunk)
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exceeded", nodes)
        if len(walks) <= last:
            walks.append(_chunks(chunk, rest[len(walks)]))
        elif exact:
            total += sum([get(full ^ kid, 0) for kid in chunk])
        else:
            for kid in chunk:
                for colors, ways in buckets.get(all_active ^ (kid & low), ()):
                    if not colors & kid:
                        total += ways
    return total, nodes


def find_rainbow_pm(
    H: ColoredHypergraph, budget: int = DEFAULT_NODE_BUDGET
) -> Matching | None:
    """The first rainbow perfect matching the exact-cover search reaches, or
    None.

    The search is deterministic: it branches on the column with the fewest
    live edges (ties to the lowest vertex bit, a color only when strictly
    fewer live edges carry it) and tries that column's edges in canonical
    order, so the same instance always gives the same witness, though not
    necessarily the lexicographically first one.  "None" is a proof of
    absence (the search space was exhausted), not a timeout; running out of
    budget raises BudgetExceededError instead.  The witness alone becomes
    ColoredEdges (H.edges is not read) and is checked (`is_perfect_matching`,
    `is_rainbow`); one that fails is a search bug and raises RuntimeError.
    """
    search = _Search(H, budget, find_one=True)
    search.run()
    if search.found is None:
        return None
    M = Matching(_key_edges(H, sorted(search.found)))
    if not (is_perfect_matching(H, M) and is_rainbow(M)):
        raise RuntimeError("search: the matching found is not a rainbow perfect matching of H")
    return M


def count_rainbow_pm(
    H: ColoredHypergraph,
    method: str = METHOD_BRUTE,
    budget: int = DEFAULT_NODE_BUDGET,
) -> CountReport:
    """Exact number of rainbow perfect matchings of H.

    method "brute" works in both modes and with restrictions applied: a
    partite instance is counted by the split route (_count_split), whose
    nodes are those of a depth-first witness search plus every partial
    matching it builds in either half (two that share a state count twice),
    and whose table and lists of partial matchings hold at most
    _SPLIT_TABLE_CAP entries each (plus one chunk); a graph-mode instance is
    counted by the depth-first kernel, whose nodes are the search nodes.
    "color-inclusion-exclusion" (alias "ie") needs a bipartite instance with
    kappa == n and no absent vertices, and is the independent cross-check
    route for both; its nodes are permanent-DP transitions.
    """
    start = time.perf_counter()
    if method == METHOD_BRUTE:
        if H.mode == PARTITE:
            value, nodes = _count_split(H, budget)
        else:
            search = _Search(H, budget, find_one=False)
            search.run()
            value, nodes = search.count, search.nodes
        return CountReport(value, METHOD_BRUTE, time.perf_counter() - start, nodes)
    if method in (METHOD_IE, "ie"):
        value, nodes = _count_ie(H, budget)
        return CountReport(value, METHOD_IE, time.perf_counter() - start, nodes)
    raise ValueError(f"unknown method {method!r}")


def _count_ie(H: ColoredHypergraph, budget: int) -> tuple[int, int]:
    """Inclusion-exclusion over color subsets, permanents via subset DP.

    A perfect matching is rainbow iff its color set is all of [1..n] (we need
    kappa == n, so n edges with distinct colors use every color).  For a color
    subset D let A_D be the bipartite adjacency keeping only edges colored
    inside D; then summing (-1)^(n-|D|) perm(A_D) counts exactly the perfect
    matchings whose color set is all of [1..n].

    The budget is checked up front against the ~4^n * n estimate (a
    budget-out reports budget + 1 nodes); the node count returned is the
    number of permanent-DP transitions actually made.
    """
    _check_budget(budget)
    if H.mode != PARTITE or H.k != 2:
        raise ValueError("inclusion-exclusion route requires a bipartite instance")
    if H.kappa != H.n:
        raise ValueError("inclusion-exclusion route requires kappa == n")
    if H.absent:
        raise ValueError("inclusion-exclusion route requires all vertices active")
    n = H.n
    # 4^n alone passes the budget once 2n reaches its bit length
    if 2 * n >= budget.bit_length() or 4**n * n > budget:
        raise BudgetExceededError(
            f"inclusion-exclusion needs ~4^{n}*{n} steps, over budget {budget}", budget + 1
        )

    # row_color[i][c]: bitmask of columns j such that (i+1, j+1) has color c+1.
    row_color = [[0] * n for _ in range(n)]
    for i, j, c in zip(*_digits(H.keys, n, 2, (0, 0)), H.colors):  # the edge (i + 1, j + 1)
        row_color[i][c - 1] |= 1 << j

    full = (1 << n) - 1
    total = 0
    transitions = 0
    for D in range(1 << n):
        rows = []
        for i in range(n):
            mask = 0
            rc = row_color[i]
            d = D
            while d:
                low = d & -d
                mask |= rc[low.bit_length() - 1]
                d ^= low
            rows.append(mask)
        # permanent of the 0/1 matrix given by rows, DP over column subsets
        f = [0] * (full + 1)
        f[0] = 1
        for mask in range(full + 1):
            fm = f[mask]
            if not fm:
                continue
            i = bin(mask).count("1")
            if i == n:
                continue
            avail = rows[i] & ~mask
            transitions += avail.bit_count()
            while avail:
                low = avail & -avail
                f[mask | low] += fm
                avail ^= low
        perm = f[full]
        sign = -1 if (n - bin(D).count("1")) % 2 else 1
        total += sign * perm
    return total, transitions


# -- moment formulas -----------------------------------------------------------


def expected_rainbow_count(n: int, k: int) -> float:
    """Expected number of rainbow perfect matchings of the complete partite
    instance with kappa = n and uniform colors: (n!)^k / n^n.

    Evaluated in log space; math.inf past the float range.
    """
    _check_sizes(PARTITE, n, k, n)
    try:
        return math.exp(k * math.lgamma(n + 1) - n * math.log(n))
    except OverflowError:
        return math.inf


def disjoint_completion_count(ell: int, k: int) -> int:
    """Number of perfect matchings on ell fixed vertices per part that avoid
    every edge of a given perfect matching on those vertices:

        sum_{i=0}^{ell} (-1)^i C(ell, i) ((ell-i)!)^(k-1)

    At k = 2 this is the derangement number D_ell.
    """
    if ell < 0 or k < 2:
        raise ValueError("need ell >= 0, k >= 2")
    return sum(
        (-1) ** i * math.comb(ell, i) * math.factorial(ell - i) ** (k - 1)
        for i in range(ell + 1)
    )


def second_moment_exact(n: int, k: int) -> float:
    """E[X^2] for the rainbow perfect matching count X of the complete partite
    instance with kappa = n, evaluated exactly in rationals:

        E[X^2] = E[X] * sum_{ell=0}^{n} n!/(ell! n^(n-ell)) * D_{n-ell}

    where D is disjoint_completion_count(., k).  The sum splits a second
    matching by how many edges it shares with the first; sharing all but
    (n-ell) edges leaves (n-ell) fresh edges that must dodge the first
    matching (D term) and must pick up exactly the unused colors
    ((n-ell)!/n^(n-ell) term).  math.inf past the float range.
    """
    _check_sizes(PARTITE, n, k, n)
    ex = Fraction(math.factorial(n) ** k, n**n)
    total = Fraction(0)
    for ell in range(n + 1):
        total += Fraction(
            math.factorial(n) * disjoint_completion_count(n - ell, k),
            math.factorial(ell) * n ** (n - ell),
        )
    try:
        return float(ex * total)
    except OverflowError:
        return math.inf


# -- latin transversals ----------------------------------------------------------


def latin_transversal(matrix: Sequence[Sequence[int]], budget: int = DEFAULT_NODE_BUDGET):
    """A transversal of an n x n symbol matrix: n cells, one per row and column,
    with pairwise distinct symbols.  Returns 1-based (row, col) pairs sorted by
    row, or None when no transversal exists.

    Entry 0 means "cell unavailable".  Symbols must be ints (a bool or a
    float is an error, never truncated nor read as 0) in [0..n]; a nonzero
    symbol is a color, which the instance constructor checks.  Note that
    n cells with pairwise distinct symbols from an n-symbol alphabet use every
    symbol, so distinctness and full symbol coverage coincide here; the solver
    checks distinctness.
    """
    n = len(matrix)
    if n < 1:
        raise ValueError("matrix must be nonempty")
    edges = []
    for i, row in enumerate(matrix, start=1):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, sym in enumerate(row, start=1):
            if type(sym) is not int:
                raise ValueError(f"symbol {sym!r} at ({i}, {j}) is not an int")
            if sym:
                edges.append(((i, j), sym))
    H = ColoredHypergraph(PARTITE, n, 2, n, edges)
    M = find_rainbow_pm(H, budget=budget)
    if M is None:
        return None
    return sorted((e.verts[0], e.verts[1]) for e in M.edges)
