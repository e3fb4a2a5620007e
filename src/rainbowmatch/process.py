"""Edge-deletion process instrumentation.

Start from a complete colored partite instance, delete edges one at a time in
a given order, and after each deletion record the exact rainbow perfect
matching count, the relative loss it suffered, and a set of regularity flags
on the weight landscape.  Everything ratio-shaped is kept in Fraction so the
telescoping identity

    phi_t = phi_0 * prod_{i=1..t} (1 - xi_i)

holds exactly, not approximately.

The weight of a vertex tuple v against a color c is the number of rainbow
perfect matchings of the instance with v's vertices removed and color class c
removed.  For an edge e, the weight against its own color counts exactly the
rainbow perfect matchings through e, which is what links weights to counts:
summing that weight over all remaining edges counts each matching n times.

The whole weight table comes from one tally: a rainbow perfect matching of
the instance minus v's vertices is a rainbow near-perfect matching of the
instance that leaves exactly v uncovered, and it avoids c iff it does not
use c.  So the near-perfect matchings are built layer by layer (`_grow`,
`_near_layers`; at full depth many share a state, so each layer merges
them, where the split count's half-depth `count._chunks` does not), and
each one is added straight into its leftover tuple's entries, at every
color it leaves unused.  A count phi is then the sum of the edge weights
divided by n.  `_DeletionState` owns the table, one flat list in `product`
order over (part 1, ..., part k, color), indexed only after the tally;
`weight_profile` returns it as a table for any partite instance.

The process knows its deletion order before step 0, so it runs that tally
once, at step 0, over edges that carry the index of the step that deletes
them in a death field above the layout's bits: a near-perfect matching is
present at step t exactly when the earliest death among its edges is after
t, and each state keeps that earliest death in its own field.  Step 0 adds
every state into the table, and step i + 1 subtracts the states whose
earliest death is i.  The order is a permutation of the edge positions
(indices into the instance's keys), so an edge is its position throughout.
The state (the weight table, those groups by step, the count of states
still alive, one weight slot per edge and one degree list per axis) is
carried from step to step, and no step builds an instance.

Most steps of a full trace are settled by what that state already knows.
The edge weights sum to n * phi and a deletion makes no matching, so once a
step's phi is 0 every live edge weight is 0 for the rest of the trace: a
later step reads w_max = 0, w_avg = 0, w_med = 0 and B without listing the
weights.  Once no tallied state is alive (at step 0 too, when the tally
found none) the whole table is 0, so C holds as well without a scan, and a
tally that found no state indexes no table at all.

Flags per step (wire names B, R, C in the trace CSV):

* weight ratio: max edge weight over average edge weight stays below L,
* degree regularity: every vertex degree sits within relative eps1 of
  the vertex mean n^(k-1) * p, and every color degree within relative eps1
  of the color mean n^k * p / kappa, where p is the surviving edge
  fraction (the two means differ unless kappa = n),
* median cap: localized weight maxima stay below the larger of a fixed
  fraction of the current count and twice a one-sided majority median.

`run_deletion_process` is the one place the flags are computed, in integers
(cross-multiplied against the thresholds' own integer ratios, or floored).
Flag C is one predicate over the flat table (`_median_capped`), whose
localized groups are its stride slices along each of the k + 1 axes: a
weight is an int, so it exceeds phi / (2^k n^k) iff it exceeds that bound's
floor.  The predicate scans the table up to its first weight past the
floor and passes when there is none; otherwise it stops at the first group
whose max beats both the floor and twice its median.  Each step is recorded
once, as a `DeletionStep` whose fields are the trace CSV's step columns.

The dyadic interval machinery at the bottom is independent of the process: it
locates, for any positive weight vector with near-maximal entropy, a short
dyadic interval carrying most of the mass on a large support.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from .count import BudgetExceededError, DEFAULT_NODE_BUDGET, _check_budget, _Layout
from .model import (_SHAPE_CACHE_SIZE, DEFAULT_EDGE_CAPACITY, PARTITE, CapacityError,
                    ColoredHypergraph)

__all__ = [
    "EventParams",
    "LemmaPreconditionError",
    "weight_profile",
    "majority_median",
    "DeletionStep",
    "DeletionTrace",
    "run_deletion_process",
    "entropy",
    "dyadic_ratio_bound",
    "dyadic_support_fraction",
    "dyadic_interval_cover",
]


class LemmaPreconditionError(ValueError):
    """The entropy premise of the dyadic cover does not hold."""


@dataclass(frozen=True)
class EventParams:
    """Thresholds for the per-step flags.

    L        cap on max/avg edge weight (flag B)
    eps1     relative degree tolerance (flag R)

    from_abundance(K) derives both from one abundance knob K:
    L = sqrt(K), eps1 = K^(-1/3).
    """

    L: float
    eps1: float

    def __post_init__(self):
        if not self.L > 1:
            raise ValueError("L must exceed 1")
        if not 0 < self.eps1 < 1:
            raise ValueError("eps1 must lie in (0, 1)")

    @classmethod
    def from_abundance(cls, K: float) -> "EventParams":
        """The thresholds of abundance K, a finite float above 1: K <= 0 and
        NaN are not positive, a finite K whose square root does not round
        above 1 (0 < K <= 1, and 1 + 2^-52) gives no L > 1, and infinity
        gives eps1 = 0.  Every other K gives L > 1 and eps1 in (0, 1)."""
        if not K > 0:
            raise ValueError("K must be positive")
        if K == math.inf:
            raise ValueError("K must be finite")
        if not math.sqrt(K) > 1:
            raise ValueError("K must exceed 1")
        return cls(L=math.sqrt(K), eps1=K ** (-1.0 / 3.0))


# the abundance K of a trace that does not set one (`trace --event-k`)
DEFAULT_ABUNDANCE = 100.0
DEFAULT_EVENT_PARAMS = EventParams.from_abundance(DEFAULT_ABUNDANCE)


# -- weights ------------------------------------------------------------------


def _check_partite(H: ColoredHypergraph) -> None:
    if H.mode != PARTITE:
        raise ValueError("this operation is defined for partite instances")


def _grow(table: dict[int, int], pairs: list[tuple[int, int]], nodes: int, budget: int, low: int):
    """One layer of the near-perfect tally: every state of table extended by
    every edge that fits it, each kid added into the layer as it is made,
    multiplicities summed.  An edge is a pair (x, e): x its layout bits (the
    bits of low), e the same bits with its death field above them.  It fits
    a state that shares no bit of x with it, and the kid is the smaller of
    state | x (the parent's death) and own | e (the edge's death): their low
    bits agree, so the smaller keeps the earlier death.  table is emptied as
    it goes, so a parent is freed once grown.  Returns (layer, nodes + one
    per new state); raises BudgetExceededError past budget, checked after
    each parent's kids, so its nodes is the count at that parent."""
    layer: dict[int, int] = {}
    get = layer.get
    pop = table.popitem
    while table:
        state, ways = pop()
        own = state & low
        for x, e in pairs:
            if not own & x:
                kid = state | x
                if (dies := own | e) < kid:
                    kid = dies
                layer[kid] = get(kid, 0) + ways
                nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exceeded", nodes)
    return layer, nodes


def _near_layers(
    lists: Iterable[list[tuple[int, int]]], budget: int, low: int, root: int
) -> tuple[dict[int, int], int]:
    """The near-perfect tally's layer loop over edge lists (one list of
    `_grow`'s (x, e) pairs per part-1 vertex, from `count._Layout.packed`):
    returns (near, nodes), near mapping every state that covers all part-1
    vertices of the lists but one to its number of rainbow matchings, nodes
    the states built.  Two edges conflict when they share a bit of low (the
    layout's bits); the bits above it are a state's death field.  root is
    the empty matching's state: no layout bit, and a death field no edge's
    exceeds, so a state's field is the least of its edges'.

    One layer (_grow) per list, over two tables: full, the matchings covering
    every part-1 vertex so far, and near, those that left exactly one of them
    uncovered.  Each layer grows both and carries every state of full into
    near with this vertex left uncovered.  The nodes counted against budget
    are one per grown state and one per carry.  Nothing is pruned, so
    removing edges from the lists only shrinks every layer and the node
    count with it.
    """
    full, near, nodes = {root: 1}, {}, 0
    for pairs in lists:
        near, nodes = _grow(near, pairs, nodes, budget, low)
        # the carries cover no vertex the grown states do, so nothing collides
        near.update(full)
        nodes += len(full)
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exceeded", nodes)
        full, nodes = _grow(full, pairs, nodes, budget, low)
    return near, nodes


def _check_table(dims: Sequence[int]) -> int:
    """The entries of a weight table of sizes dims, at most the capacity."""
    if (size := math.prod(dims)) > DEFAULT_EDGE_CAPACITY:
        raise CapacityError(f"weight table of {size} entries exceeds capacity {DEFAULT_EDGE_CAPACITY}")
    return size


# the set bits of each byte value, lowest first: a state's free colors are
# read from its bytes, so peeling them is linear in kappa
_BITS = [tuple(p for p in range(8) if b >> p & 1) for b in range(256)]


class _DeletionState:
    """The weight table of a partite instance, written from its rainbow
    near-perfect matchings and kept exact under the deletion of the edges
    at positions order, with what the deletion process reads next to it.

    weights is the table as one flat list in `product` order over (part 1,
    ..., part k, color), whose sizes are dims: w(v, c), the rainbow
    near-perfect matchings that leave exactly v uncovered and do not use
    color c.  A table past the capacity (`_check_table`) is refused before
    anything is built.  The constructor then
    builds the instance's bit layout (`count._Layout`), tallies from its
    packed edges per part-1 vertex (`_near_layers`; near maps each final
    state to its rainbow matchings, nodes is the states built, all counted
    against budget, so a budget-out raises here), and only then indexes the
    table.  An edge is named by its position j in H's keys.  Edge order[i]
    dies at step i + 1 and its packed form (`packed[j]`) carries its death
    index i in a field at bit at = shift + kappa, above the layout's bits;
    an edge outside order, and the empty matching, carry T = len(order)
    and never die.  A state's field is the least of its edges' (`_grow`),
    at most T, so it spans bit_length(T) bits; dying maps each step index
    i < T to the final states whose field is i, and alive counts the states
    not yet dead.  base_of maps the mask of the active vertices outside v
    (those a state that leaves v uncovered covers: the active mask less one
    bit per part, in `product` order) to the index of w(v, 1); slots[j] is
    the index of edge j's own entry, w(its verts, its color).  A tally that
    found no state leaves every weight 0 for good, so neither is built and
    slots is empty.  deg holds one vertex degree per layout vertex bit and
    cdeg one color degree per color 1..kappa.  delete(i), for i = 0, 1, ...
    in turn, subtracts the states that die with order[i] and decrements its
    vertex and color degrees: no tally runs.  delete assumes the active
    parts have equal sizes.
    """

    def __init__(self, H: ColoredHypergraph, budget: int, order: Sequence[int] = ()):
        _check_budget(budget)
        self.parts = [H.part_active(p) for p in range(1, H.k + 1)]
        self.dims = [*map(len, self.parts), H.kappa]
        size = _check_table(self.dims)
        layout = _Layout(H)
        self.active, self.shift = layout.active, layout.shift
        self.color_bits, self.width = ((1 << H.kappa) - 1) << self.shift, (H.kappa + 7) // 8
        at, t = self.shift + H.kappa, len(order)  # the death field's lowest bit
        self.near, self.nodes = {}, 0
        if layout.feasible:
            packed, lists = layout.packed()
            death = {packed[j]: i for i, j in enumerate(order)}
            pairs = [[(x, x | death.get(x, t) << at) for x in xs] for xs in lists]
            self.near, self.nodes = _near_layers(pairs, budget, (1 << at) - 1, t << at)
        self.alive = len(self.near)
        self.order, self.positions, self.colors = order, layout.positions, H.colors
        self.deg, self.cdeg = [0] * self.shift, [0] * H.kappa
        for xs in layout.positions:
            for x in xs:
                self.deg[x] += 1
        for c in H.colors:
            self.cdeg[c - 1] += 1
        self.weights = [0] * size
        self.dying: dict[int, list[int]] = {}
        self.slots: list[int] = []
        if not self.near:  # every weight is 0 for good: nothing indexes the table
            return
        masks = [self.active]  # the index, built after the tally: v's covered mask
        for p, part in enumerate(self.parts):
            bits = [layout.bit(p, i) for i in part]
            masks = [m ^ b for m in masks for b in bits]
        self.base_of = dict(zip(masks, range(0, size, H.kappa)))
        self.slots = [self.base_of[self.active ^ covers] + c - 1
                      for covers, c in zip(layout.covers, H.colors)]
        self._add(self.near, 1)
        for state in self.near:
            if (i := state >> at) < t:
                self.dying.setdefault(i, []).append(state)

    def _add(self, states: Iterable[int], sign: int) -> None:
        # each near-perfect state's ways, sign times, into the entries of the
        # tuple it leaves uncovered, at every color it leaves unused; the
        # masks are ANDed first, so no op runs over a state's death field
        weights, base_of, active, shift = self.weights, self.base_of, self.active, self.shift
        color_bits, width, near = self.color_bits, self.width, self.near
        for state in states:
            at = base_of[state & active]  # w(v, c) sits at at + c - 1
            ways = near[state] * sign
            free = (state & color_bits ^ color_bits) >> shift
            if free < 256:  # always so at kappa <= 8: one byte, no to_bytes call
                for p in _BITS[free]:
                    weights[at + p] += ways
                continue
            for byte in free.to_bytes(width, "little"):
                for p in _BITS[byte]:
                    weights[at + p] += ways
                at += 8

    def delete(self, i: int) -> None:
        if dying := self.dying.pop(i, None):
            self.alive -= len(dying)
            self._add(dying, -1)
        j = self.order[i]
        for xs in self.positions:
            self.deg[xs[j]] -= 1
        self.cdeg[self.colors[j] - 1] -= 1


def weight_profile(
    H: ColoredHypergraph, budget: int = DEFAULT_NODE_BUDGET
) -> dict[tuple[tuple[int, ...], int], int]:
    """The whole weight table of H, the one step 0 of the deletion process
    starts from: a dict (verts, color) -> weight over active tuples x colors.

    Cost is one tally of the rainbow near-perfect matchings
    (`_DeletionState`), however many entries the table has; every state the
    tally builds counts against budget, and a tally past it raises
    BudgetExceededError before the table is indexed.  Still exponential, so
    meant for small instances.
    """
    _check_partite(H)
    state = _DeletionState(H, budget)
    return dict(zip(product(product(*state.parts), range(1, H.kappa + 1)), state.weights))


def _median_capped(dims: Sequence[int], weights: Sequence[int], bound: int) -> bool:
    """Flag C over a flat weight table (`_DeletionState.weights`, in
    `product` order over the axes of sizes dims: part 1, ..., part k,
    color): False at the first localized group whose maximum exceeds both
    bound and twice the group's majority median, True when no group's does.

    A localized group is every entry that shares all coordinates but one:
    along a part's axis, the weights of a partial tuple missing that part,
    at one color, over its completions (family "v"); along the color axis,
    a tuple's weights over the colors (family "c").  In `product` order the
    group along an axis of size s starting at index i is weights[i : i +
    s * stride : stride], stride being the product of the later sizes.  An
    emptied part leaves no entry, hence no group.  A failing group holds a
    weight past bound, so a scan that stops at the first such weight passes
    an empty table, or one with none, without slicing any group.
    """
    span = len(weights)
    if not any(map(bound.__lt__, weights)):
        return True
    for size in dims:
        stride = span // size
        for block in range(0, len(weights), span):
            for start in range(block, block + stride):
                vals = weights[start : block + span : stride]
                top = max(vals)
                # a median is needed only where the group could fail
                if top > bound and top > 2 * majority_median(vals):
                    return False
        span = stride
    return True


# -- median and flags -----------------------------------------------------------


def majority_median(values: Iterable) -> int:
    """The largest x in the multiset such that at least half the elements are
    strictly larger than x; the minimum when no element qualifies (e.g. all
    values equal).  Always a member of the multiset.

    With the values sorted, x qualifies iff its last copy sits below index
    len // 2, i.e. iff x is smaller than the value at that index; so the
    answer is the value just below that value's first copy."""
    vals = sorted(values)
    if not vals:
        raise ValueError("median of an empty multiset")
    first = bisect_left(vals, vals[len(vals) // 2])
    return vals[first - 1] if first else vals[0]


def _ratio_within(w_max: int, size: int, total: int, num: int, den: int) -> bool:
    # flag B over size weights summing to total, L = num / den: max/avg <=
    # L <=> w_max * size <= L * total, in exact arithmetic; all weights zero
    # (max/avg is 0/0) or none at all reads as balanced
    return not total or w_max * size * den <= num * total


def _regularity(H: ColoredHypergraph, params: EventParams):
    """Flag R on H's axes under params, as a test of (p, deg, cdeg), the
    vertex and the color degrees as two lists, whose constants (N = n^k, eps1's integer ratio) are taken once.  A degree d on
    an axis of s members (n vertices per part, or kappa colors) has mean
    N * p / s, so it passes iff d * s lies within relative eps1 of N * p;
    tested on each axis's smallest and largest degree, cross-multiplied."""
    e, f = params.eps1.as_integer_ratio()
    N, n, kappa = H.n**H.k, H.n, H.kappa

    def within(p: Fraction | float, deg: Sequence[int], cdeg: Sequence[int]) -> bool:
        a, b = p.as_integer_ratio()
        expect_b = N * a  # N * p * b
        tol, nb, cb = e * expect_b, n * b, kappa * b
        return (
            f * abs(min(deg) * nb - expect_b) <= tol
            and f * abs(max(deg) * nb - expect_b) <= tol
            and f * abs(min(cdeg) * cb - expect_b) <= tol
            and f * abs(max(cdeg) * cb - expect_b) <= tol
        )

    return within


# -- the deletion process ---------------------------------------------------------


class DeletionStep(NamedTuple):
    """State after the i-th deletion (index 0 is the initial state).

    The fields are the trace CSV's step columns (`experiments.TRACE_STEP_HEADER`).
    `run_deletion_process` builds them of exact types: index, phi and w_max
    an int, xi, gamma and w_avg a Fraction or None, p a Fraction, w_med an
    int or None, and the flags a bool.  xi and gamma are None at index 0 (no
    deletion happened yet).  Once the count has died (previous phi = 0), xi
    is Fraction(0), as the telescoping product is 0 from then on either way;
    w_avg and w_med are None once no edges remain.
    """

    index: int
    phi: int
    xi: Fraction | None
    gamma: Fraction | None
    p: Fraction
    w_max: int
    w_avg: Fraction | None
    w_med: int | None
    balanced: bool
    regular: bool
    median_capped: bool


@dataclass(frozen=True)
class DeletionTrace:
    """One DeletionStep per step from index 0.  nodes is the states the
    trace's one tally built.  It is telemetry and appears in no experiment
    output."""

    steps: tuple[DeletionStep, ...]
    nodes: int


# the xi of every step after the count died
_DEAD_XI = Fraction(0)
# (w_max, w_avg, w_med) of a settled step, with live edges and without
_SETTLED = (0, _DEAD_XI, 0)
_NO_WEIGHTS = (0, None, None)


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _step_ratios(
    n: int, N: int, t_max: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction | None, ...]]:
    """(p, gamma) over steps i = 0..t_max of a trace on N = n^k edges: p[i]
    = (N - i) / N and gamma[i] = n / (N - i + 1), gamma[0] None.  They
    depend on the shape (n, N, t_max) alone, so every trace of one shape
    shares them, and `experiments._ratio_cells` renders their CSV cells once
    per shape.  Only the steps a trace reads are built."""
    p = tuple(Fraction(N - i, N) for i in range(t_max + 1))
    gamma = (None, *(Fraction(n, N - i + 1) for i in range(1, t_max + 1)))
    return p, gamma


def _check_t_max(t_max: int | None, N: int) -> int:
    """The steps a trace of N deletions takes: N for None, else t_max, an int
    in 0..N (a bool or a float is an error)."""
    if t_max is None:
        return N
    if type(t_max) is not int or not 0 <= t_max <= N:
        raise ValueError(f"t_max must lie in 0..{N}")
    return t_max


def run_deletion_process(
    H0: ColoredHypergraph,
    order: Sequence[int],
    t_max: int | None = None,
    params: EventParams = DEFAULT_EVENT_PARAMS,
    budget: int = DEFAULT_NODE_BUDGET,
) -> DeletionTrace:
    """Delete the edges at positions order[0..t_max-1] one at a time from a
    complete colored instance and record a DeletionStep after every
    deletion (plus step 0).

    order must be a permutation of the edge positions (indices into
    H0.keys), as `model.random_edge_ordering` draws.  Step 0 tallies the
    rainbow near-perfect matchings of H0 once, each carrying the earliest
    step of order[:t_max] that deletes one of its edges, into the weight
    table of the carried state (`_DeletionState`).  Every later step
    deletes its edge from that state: it subtracts the matchings that die
    with the edge and decrements the edge's vertex and color degrees.  The
    step's weights (the slots of order[i:], the edges still live after i
    deletions), count and flags are read off the carried state; no
    instance is rebuilt and no later step tallies.  A step after the count
    died, with no tallied state alive, or with no edge left (i = N) is
    settled without reading the weights (module docstring).
    DeletionTrace.nodes is the states that tally built.

    Those states count against budget: past it, step 0's tally raises
    BudgetExceededError, whose nodes is the count at which it stopped.
    """
    _check_partite(H0)
    N = H0.n**H0.k
    if len(H0.keys) != N or H0.absent:
        raise ValueError("the process starts from a complete colored instance")
    # N ints (a bool or a float is not one) that cover 0..N-1 are a permutation
    if len(order) != N or set(map(type, order)) != {int} or set(order) != set(range(N)):
        raise ValueError("order must be a permutation of the instance's edge positions")
    t_max = _check_t_max(t_max, N)

    state = _DeletionState(H0, budget, order[:t_max])
    weights, slots, deg, cdeg = state.weights, state.slots, state.deg, state.cdeg
    n, dims, floor_den = H0.n, state.dims, 2**H0.k * N
    num, den = params.L.as_integer_ratio()
    regular = _regularity(H0, params)
    ps, gammas = _step_ratios(n, N, t_max)
    steps: list[DeletionStep] = []
    prev_phi: int | None = None
    for i in range(t_max + 1):
        if i > 0:
            state.delete(i - 1)
        if prev_phi == 0 or not state.alive or i == N:
            # settled: the count is dead for good, the table is all 0 or no
            # edge is left, so phi and every live weight are 0 (the weights
            # sum to n * phi)
            phi, balanced = 0, True
            w_max, w_avg, w_med = _SETTLED if i < N else _NO_WEIGHTS
        else:
            # the live edges are order[i:]; their weights' sum, max, count
            # and median do not depend on the order they are read in
            ws = [weights[slots[j]] for j in order[i:]]
            total = sum(ws)
            # w(e) counts the rainbow perfect matchings through e, and each of
            # them has n edges.
            phi = total // n
            w_max, w_avg, w_med = max(ws), Fraction(total, len(ws)), majority_median(ws)
            balanced = _ratio_within(w_max, len(ws), total, num, den)
        if i == 0:
            xi = None
        else:
            xi = _DEAD_XI if prev_phi == 0 else Fraction(prev_phi - phi, prev_phi)
        steps.append(DeletionStep(
            i, phi, xi, gammas[i], ps[i], w_max, w_avg, w_med, balanced,
            regular(ps[i], deg, cdeg),
            # an empty table is all zeros; a weight exceeds phi / (2^k n^k)
            # iff it exceeds the floor
            not state.alive or _median_capped(dims, weights, phi // floor_den),
        ))
        prev_phi = phi
    return DeletionTrace(tuple(steps), state.nodes)


# -- entropy and the dyadic interval cover ------------------------------------------


def entropy(weights: Iterable[float]) -> float:
    """Shannon entropy (nats) of the distribution proportional to weights.

    Zero weights contribute nothing; negative weights and all-zero vectors
    are errors.
    """
    ws = [float(w) for w in weights]
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    total = math.fsum(ws)
    if total <= 0:
        raise ValueError("weights must not all be zero")
    acc = 0.0
    for w in ws:
        if w > 0:
            p = w / total
            acc -= p * math.log(p)
    return acc


def dyadic_ratio_bound(defect: float) -> float:
    """rho: the max allowed b/a for the dyadic cover at entropy defect M."""
    return 2.0 ** (4.0 * (defect + math.log(3.0)))


def dyadic_support_fraction(defect: float) -> float:
    """sigma: the min fraction of indices the cover must contain."""
    return 2.0 ** (-2.0 * defect - 2.0)


def _dyadic_level(w: float) -> int:
    # level L such that 2^L <= w < 2^(L+1)
    _, e = math.frexp(w)
    return e - 1


def dyadic_interval_cover(
    weights: Sequence[float], defect: float
) -> tuple[float, float, list[int]]:
    """Find [a, b] with b <= rho*a whose preimage J = w^-1[a, b] satisfies
    |J| >= sigma*|S| and w(J) > 0.7*w(S), assuming the entropy premise
    H(w) > log|S| - defect.

    Weights must be strictly positive.  Scans contiguous runs of occupied
    dyadic levels, heaviest top level first.  A top fixes b, and as the
    bottom level rises a rises while the run's support and mass only shrink,
    so per top only the run down to the lowest bottom with b <= rho*a can
    qualify; a and b are actual weight values, hence members of the run.
    Raises LemmaPreconditionError when the entropy premise fails,
    RuntimeError if (against the lemma) no run qualifies.
    """
    ws = [float(w) for w in weights]
    if not ws:
        raise ValueError("weights must be nonempty")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be strictly positive")
    size = len(ws)
    h = entropy(ws)
    if not h > math.log(size) - defect:
        raise LemmaPreconditionError(
            f"entropy {h:.6f} does not exceed log({size}) - {defect} = "
            f"{math.log(size) - defect:.6f}"
        )
    rho = dyadic_ratio_bound(defect)
    sigma = dyadic_support_fraction(defect)
    total = math.fsum(ws)

    by_level: dict[int, list[int]] = {}
    for idx, w in enumerate(ws):
        by_level.setdefault(_dyadic_level(w), []).append(idx)
    occupied = sorted(by_level, reverse=True)
    low = {lev: min(ws[i] for i in idxs) for lev, idxs in by_level.items()}

    for ti, top in enumerate(occupied):
        b = max(ws[i] for i in by_level[top])
        # low rises with the level, so the levels that pass run from top
        # downward; top itself passes, as the premise needs defect > 0 and
        # so rho > 2
        levels = [lev for lev in occupied[ti:] if b <= rho * low[lev]]
        idxs = sorted(i for lev in levels for i in by_level[lev])
        if len(idxs) >= sigma * size and math.fsum(ws[i] for i in idxs) > 0.7 * total:
            return low[levels[-1]], b, idxs
    raise RuntimeError("no qualifying dyadic run; the entropy premise should forbid this")
