"""Edge-colored instances and their samplers.

Two instance flavors share one type:

* partite mode: k vertex classes of size n each, edges are k-tuples picking one
  vertex per class, colors drawn from [1..kappa].  Vertex tuples are unique, so
  the complete instance has n^k edges.
* graph mode: a simple graph on [1..n] with colored edges (k is fixed to 2 and
  a "tuple" is an unordered pair u < v).

Instances are immutable and canonical: edges are stored as sorted integer keys
(`_key`) and their colors, so equal content compares equal and serializes
identically; `edges` is a view built on first read.  Deleted vertices are
tracked in `absent` rather than by renumbering, which is what lets
restriction operators compose without rewriting labels.

All sampling takes an explicit `random.Random`; see `RandomnessSpec` for the
seed/substream convention used by the experiment drivers.  Colors are drawn in
bulk (`_uniform`): on a `random.Random` they come from the same Mersenne
Twister words, in the same order, as one `randint(1, kappa)` call per edge
would take, and leave the generator in the same state, so every stream is the
one the per-call loop gives; a bound below 256 reads each word's top byte
through one table.  A complete graph's support skips the words `random.sample`
would take, without its pool.  Any other generator takes the per-call path.

Instances read from outside the program (`instance_from_dict`) and every
`restrict` go through the checked constructor, which sorts the edges and
checks them one at a time, then derives their keys.  The samplers store the
keys they draw, valid by construction, so they skip that check (`_built`);
the tests hold each sampler to the checked constructor.  Both run the one
size rule (`_check_sizes`), and one view gives the vertices an edge touches
(`_vertices`).  A sampler's whole argument rule is `_check_draw`, which the
experiment drivers also ask for every cell before their first trial.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations, repeat, starmap
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "PARTITE",
    "GRAPH",
    "CapacityError",
    "PartiteVertex",
    "ColoredEdge",
    "Matching",
    "ColoredHypergraph",
    "RandomnessSpec",
    "complete_colored",
    "sample_partite_m",
    "sample_partite_p",
    "sample_colored_graph",
    "restrict",
    "random_edge_ordering",
    "instance_to_dict",
    "instance_from_dict",
    "dumps_instance",
    "loads_instance",
    "load_instance",
]

PARTITE = "partite"
GRAPH = "graph"

# Complete partite instances materialize all n^k edges; refuse to build ones
# that would not fit in memory anyway.
DEFAULT_EDGE_CAPACITY = 2_000_000

# the shapes whose constant tables are kept, by every per-shape cache (a
# complete graph's keys, the assembly's (color, label) pairs, a trace's step
# ratios and rendered cells): a grid runs its cells one after another and a
# trace run reads one shape, so a caller that sweeps shapes keeps only the
# last few; one n = 2000 graph's keys alone are about 2 M ints
_SHAPE_CACHE_SIZE = 4


class CapacityError(ValueError):
    """Raised when an operation would materialize too many edges."""


class PartiteVertex(NamedTuple):
    part: int
    index: int


class ColoredEdge(NamedTuple):
    """A colored edge.

    `verts` is the per-part index tuple in partite mode (position = part), or
    the sorted endpoint pair in graph mode.
    """

    verts: tuple[int, ...]
    color: int


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges (disjointness is the caller's
    invariant; see `count.is_perfect_matching` for the checker)."""

    edges: tuple[ColoredEdge, ...]

    def __len__(self) -> int:
        return len(self.edges)


def _key(verts: Iterable[int], n: int) -> int:
    """The key of a vertex tuple: the base-n number of (v1 - 1, ..., vk - 1)."""
    key = 0
    for i in verts:
        key = key * n + i - 1
    return key


def _digits(keys: Sequence[int], n: int, k: int, offsets: Iterable[int]) -> list[list[int]]:
    """Per tuple position p, each key's base-n digit p (most significant
    first) plus offsets[p]: at offsets 1, the vertex indices (`_key` inverted)."""
    places = [n**p for p in range(k - 1, -1, -1)]
    return [[o + t // w % n for t in keys] for o, w in zip(offsets, places)]


def _key_edges(H, at: Iterable[int] | None = None) -> tuple[ColoredEdge, ...]:
    """The ColoredEdges of H's keys, or of those at the indices at, built with
    no Python frame per edge: a key's digits plus one are its vertex tuple."""
    n, k, keys, colors = H.n, H.k, H.keys, H.colors
    if at is not None:
        keys, colors = [keys[i] for i in at], [colors[i] for i in at]
    verts = zip(*_digits(keys, n, k, repeat(1)))
    return tuple(map(tuple.__new__, repeat(ColoredEdge), zip(verts, colors)))


def _has_edge(H, verts: Sequence, color) -> bool:
    """True iff instance H holds the edge (verts, color): k vertex indices,
    each an int in 1..n (a bool, a float or any other could spell another
    edge's key), whose key (`_key`) bisection finds with that color."""
    n, keys = H.n, H.keys
    if len(verts) != H.k or not all(type(v) is int and 1 <= v <= n for v in verts):
        return False
    key = _key(verts, n)
    i = bisect_left(keys, key)
    return i < len(keys) and keys[i] == key and H.colors[i] == color


def _derive_seed(master_seed: int, stream_index: int | str) -> int:
    # Hash-derived substreams: independent of PYTHONHASHSEED, stable across
    # platforms, and two distinct (seed, stream) pairs never collide in
    # practice.  Same trick as the usual "seed spawning" recipes.
    tag = f"rainbowmatch/{master_seed}/{stream_index}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:16], "big")


@dataclass(frozen=True)
class RandomnessSpec:
    """Seed plus substream index.

    Experiment drivers give every trial its own stream index so that results
    do not depend on scheduling: trial j always consumes stream j, whether it
    runs first, last, or in another process.
    """

    master_seed: int
    stream_index: int | str = 0

    def rng(self) -> random.Random:
        return random.Random(_derive_seed(self.master_seed, self.stream_index))


@dataclass(frozen=True, init=False)
class ColoredHypergraph:
    """An immutable edge-colored instance (see module docstring for modes).

    It stores keys, its edges' sorted keys (`_key`), and their colors;
    `edges` is a view.  The constructor checks every instance it is handed:
    `restrict`, `instance_from_dict`, `count.latin_transversal` and any
    library caller alike, and is the one type and range check of their
    sizes, edges and absent vertices.  The samplers and the Hamilton
    assembly's recolored classes store keys valid by construction and skip
    it (`_built`); the tests hold them to it.  Past the sizes
    (`_check_sizes`) it requires every edge to be a (verts, color) pair,
    every vertex index and color to be an int (a bool or a float is an
    error, never truncated), every color in 1..kappa, every edge with one
    vertex per part (graph mode: a pair u < v), every vertex index in 1..n,
    no edge touching an absent vertex, and no vertex tuple twice, and names
    the first offending edge in canonical order (`_stored_edges`).
    """

    mode: str
    n: int
    k: int
    kappa: int
    keys: tuple[int, ...]
    colors: tuple[int, ...]
    absent: frozenset

    def __init__(self, mode: str, n: int, k: int, kappa: int, edges=(), absent=()):
        _check_sizes(mode, n, k, kappa)
        self.__dict__.update(mode=mode, n=n, k=k, kappa=kappa)
        absent = frozenset(map(self._coerce_vertex, absent))
        self.__dict__.update(absent=absent, **_stored_edges(edges, mode, n, k, kappa, absent))

    edges = cached_property(_key_edges)

    def _coerce_vertex(self, v):
        if self.mode == PARTITE:
            try:
                part, index = v
            except (TypeError, ValueError):
                raise ValueError(f"vertex {v!r} must be a pair of ints") from None
            if type(part) is not int or type(index) is not int:
                raise ValueError(f"vertex {v!r} must be a pair of ints")
            pv = PartiteVertex(part, index)
            if not (1 <= part <= self.k and 1 <= index <= self.n):
                raise ValueError(f"vertex {pv} out of range")
            return pv
        if type(v) is not int:
            raise ValueError(f"vertex {v!r} must be an int")
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range")
        return v

    # -- vertex helpers ----------------------------------------------------

    def part_active(self, part: int) -> list[int]:
        if self.mode != PARTITE:
            raise ValueError("part_active is a partite-mode operation")
        return [i for i in range(1, self.n + 1) if PartiteVertex(part, i) not in self.absent]


def _check_sizes(mode: str, n: int, k: int, kappa: int) -> None:
    """Raise ValueError unless mode is PARTITE or GRAPH and n, k, kappa are
    ints (a bool or a float is an error, never truncated) with n >= 1,
    kappa >= 1 and k >= 2 (graph mode: k = 2): every instance's sizes."""
    if mode not in (PARTITE, GRAPH):
        raise ValueError(f"unknown mode {mode!r}")
    for name, value in (("n", n), ("k", k), ("kappa", kappa)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, not {value!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if mode == PARTITE and k < 2:
        raise ValueError("partite mode needs k >= 2")
    if mode == GRAPH and k != 2:
        raise ValueError("graph mode fixes k = 2")


def _vertices(e: ColoredEdge, mode: str) -> Iterable:
    """The vertices e touches, in the order of e.verts: a PartiteVertex per
    part in partite mode, the endpoints themselves in graph mode."""
    if mode == PARTITE:
        return starmap(PartiteVertex, enumerate(e.verts, start=1))
    return e.verts


def _check_edge(e: ColoredEdge, mode: str, n: int, k: int, kappa: int, absent: frozenset) -> None:
    """Raise ValueError, naming e, when e breaks one of the edge rules of an
    instance (`ColoredHypergraph`) on n vertices per part with k parts and
    kappa colors, or touches a vertex in absent; each vertex (`_vertices`)
    in turn is checked for its range, then for absence."""
    if type(e.color) is not int or any(type(i) is not int for i in e.verts):
        raise ValueError(f"edge {e} has a vertex index or color that is not an int")
    if not 1 <= e.color <= kappa:
        raise ValueError(f"color {e.color} out of range 1..{kappa}")
    if mode == PARTITE:
        if len(e.verts) != k:
            raise ValueError(f"edge {e} must pick one vertex per part")
    elif len(e.verts) != 2 or e.verts[0] >= e.verts[1]:
        raise ValueError(f"graph edge {e} must be a sorted pair u < v")
    for idx, v in zip(e.verts, _vertices(e, mode)):
        if not 1 <= idx <= n:
            raise ValueError(f"edge {e} vertex out of range")
        if v in absent:
            raise ValueError(f"edge {e} touches absent vertex")


def _edge_pairs(edges: Iterable) -> list[ColoredEdge]:
    """Each (verts, color) pair of edges as a ColoredEdge(tuple(verts),
    color); a ValueError names an entry that is not such a pair."""
    pairs = []
    for e in edges:
        try:
            verts, color = e
            pairs.append(ColoredEdge(tuple(verts), color))
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} must be a (verts, color) pair") from None
    return pairs


def _stored_edges(
    edges: Iterable,
    mode: str,
    n: int,
    k: int,
    kappa: int,
    absent: frozenset,
    parallel: bool = False,
) -> dict:
    """The keys and colors an instance stores, and the view's value: edges as
    ColoredEdges (`_edge_pairs`), sorted, then checked one by one against the
    edge rules (`_check_edge`) and, unless parallel, for a repeated vertex
    tuple.  A ValueError names the first offending edge in canonical order (in
    the given order when a value that is not an int leaves them unsortable)."""
    stored = _edge_pairs(edges)
    try:
        edges = sorted(stored)
    except TypeError:  # a value that is not an int: the loop below names its edge
        edges = stored
    seen: set[tuple] = set()
    for e in edges:
        _check_edge(e, mode, n, k, kappa, absent)
        if e.verts in seen and not parallel:
            raise ValueError(f"duplicate vertex tuple {e.verts}")
        seen.add(e.verts)
    return {"edges": tuple(edges), "keys": tuple(_key(e.verts, n) for e in edges),
            "colors": tuple(e.color for e in edges)}


def _built(cls, **fields):
    """The frozen dataclass cls holding fields as given, made without its
    checks.  Only for builders whose fields are valid by construction,
    which must pass every field and exactly what the checked constructor
    would store: keys a sorted tuple of ints (`_key`), colors a tuple of
    ints, `absent` a frozenset."""
    built = object.__new__(cls)
    built.__dict__.update(fields)
    return built


# -- samplers ---------------------------------------------------------------


def _words(rnd: random.Random, count: int) -> Sequence[int]:
    """The next count 32-bit words of rnd in draw order (`getrandbits` puts
    the first in the lowest bits)."""
    words = memoryview(rnd.getrandbits(32 * count).to_bytes(4 * count, sys.byteorder)).cast("I")
    return words[::-1] if sys.byteorder == "big" else words


@cache
def _byte_table(hi: int) -> bytes:
    """Top byte of a word -> 1 + what `_randbelow(hi)` reads there, 0 on a reject."""
    shift = 8 - hi.bit_length()
    return bytes(v + 1 if (v := b >> shift) < hi else 0 for b in range(256))


def _uniform(rnd: random.Random, hi: int, count: int) -> list[int]:
    """What `[rnd.randint(1, hi) for _ in range(count)]` returns, drawn in
    bulk and leaving rnd in the state that loop leaves.

    On CPython's `random.Random`, `randint(1, hi)` is `1 + _randbelow(hi)`,
    which takes one 32-bit word per try, keeps its top `hi.bit_length()` bits
    and tries again while they are >= hi.  Below 256 those bits lie in the
    word's top byte, so each byte maps through `_byte_table` and the rejects
    (0) are dropped; larger bounds filter the words (`_words`).  Each batch
    draws exactly as many words as values are still missing, so the helper
    never reads past the last word the per-call loop would take.  Any other
    generator (a subclass may override `_randbelow`) and any bound outside
    1..2**32 - 1 take the per-call path.
    """
    if type(rnd) is not random.Random or type(hi) is not int or not 0 < hi < 1 << 32:
        randint = rnd.randint
        return [randint(1, hi) for _ in range(count)]
    if hi < 256:
        table, drawn = _byte_table(hi), b""
        while len(drawn) < count:
            need = count - len(drawn)
            top = rnd.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            drawn += top.translate(table).replace(b"\0", b"")
        return list(drawn)
    shift = 32 - hi.bit_length()
    out: list[int] = []
    while len(out) < count:
        out += [v + 1 for w in _words(rnd, count - len(out)) if (v := w >> shift) < hi]
    return out


def _skip_full_sample(rnd: random.Random, total: int) -> None:
    """Advance rnd past the words `rnd.sample(range(total), total)` takes: a
    full draw always takes CPython's pool branch, whose `_randbelow(total - i)`
    takes words until one is below total - i shifted up to bit 31."""
    limits, hi = [], total  # call i accepts a word below limits[i]
    while hi:
        shift, low = 32 - hi.bit_length(), 1 << (hi.bit_length() - 1)
        limits += range(hi << shift, (low - 1) << shift, -(1 << shift))
        hi = low - 1
    limits.append(0)
    done = 0
    while done < total:
        limit = limits[done]
        for w in _words(rnd, total - done):
            if w < limit:
                done += 1
                limit = limits[done]


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _graph_pairs(n: int) -> tuple[int, ...]:
    """The keys of every pair (u, v), 1 <= u < v <= n, in lexicographic order:
    a complete graph's, shared by every full draw on n vertices."""
    return tuple(_key(p, n) for p in combinations(range(1, n + 1), 2))


def _check_draw(mode: str, n: int, k: int, kappa: int, m: int | None = None) -> int:
    """The total n^k tuples (graph mode: n(n-1)/2 pairs) a sampler draws m
    of, once the sizes hold (`_check_sizes`), the tuples fit in sys.maxsize
    (a partite k is bounded before n ** k is computed) and m, None for all,
    is an int in 0..total of at most `DEFAULT_EDGE_CAPACITY` edges."""
    _check_sizes(mode, n, k, kappa)
    if mode == PARTITE:
        if n > 1 and k >= sys.maxsize.bit_length():
            raise CapacityError(f"{n}^{k} tuples exceeds index range {sys.maxsize}")
        if k > DEFAULT_EDGE_CAPACITY:
            raise CapacityError(f"an edge of {k} vertices exceeds capacity {DEFAULT_EDGE_CAPACITY}")
        total = n**k
    else:
        total = n * (n - 1) // 2
    if total > sys.maxsize:
        space = f"{n}^{k} tuples" if mode == PARTITE else f"{total} pairs"
        raise CapacityError(f"{space} exceeds index range {sys.maxsize}")
    if m is None:
        m = total
    elif type(m) is not int:
        raise ValueError(f"m must be an int, not {m!r}")
    elif not 0 <= m <= total:
        raise ValueError(f"m must lie in 0..{total}")
    if m > DEFAULT_EDGE_CAPACITY:
        raise CapacityError(f"{m} edges exceeds capacity {DEFAULT_EDGE_CAPACITY}")
    return total


def complete_colored(
    n: int,
    k: int,
    kappa: int,
    rnd: random.Random,
) -> ColoredHypergraph:
    """The complete partite instance: every vertex tuple present once, colors
    i.i.d. uniform on [1..kappa], one per tuple in lexicographic order, drawn
    in bulk (`_uniform`).  The arguments obey `_check_draw` with m None."""
    total = _check_draw(PARTITE, n, k, kappa)
    return _built(ColoredHypergraph, mode=PARTITE, n=n, k=k, kappa=kappa, keys=tuple(range(total)),
                  colors=tuple(_uniform(rnd, kappa, total)), absent=frozenset())


def sample_partite_m(
    n: int, k: int, kappa: int, m: int, rnd: random.Random
) -> ColoredHypergraph:
    """m distinct vertex tuples uniformly at random, colors i.i.d. uniform.

    The gnm-style model: the edge support is a uniform m-subset of the n^k
    possible tuples, independent of the colors.  The sorted tuple indices are
    the keys; the colors follow, one per tuple in that order, drawn in bulk
    (`_uniform`).  The arguments obey `_check_draw`, with m an int."""
    if m is None:
        raise ValueError("m must be an int, not None")
    total = _check_draw(PARTITE, n, k, kappa, m)
    keys = tuple(sorted(rnd.sample(range(total), m)))
    return _built(ColoredHypergraph, mode=PARTITE, n=n, k=k, kappa=kappa, keys=keys,
                  colors=tuple(_uniform(rnd, kappa, m)), absent=frozenset())


def sample_partite_p(
    n: int,
    k: int,
    kappa: int,
    p: float,
    rnd: random.Random,
) -> ColoredHypergraph:
    """Each vertex tuple kept independently with probability p (gnp-style),
    colors i.i.d. uniform on the kept edges.  Each tuple's coin flip is
    followed by its color when kept, so the colors are drawn one call at a
    time, not in bulk.  The sizes obey `_check_draw` with m None."""
    total = _check_draw(PARTITE, n, k, kappa)
    if type(p) not in (int, float) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be an int or a float in [0, 1], not {p!r}")
    keys, colors = [], []
    for t in range(total):  # the tuples in lexicographic order
        if rnd.random() < p:
            keys.append(t)
            colors.append(rnd.randint(1, kappa))
    return _built(ColoredHypergraph, mode=PARTITE, n=n, k=k, kappa=kappa, keys=tuple(keys),
                  colors=tuple(colors), absent=frozenset())


def sample_colored_graph(
    n: int, m: int, kappa: int, rnd: random.Random
) -> ColoredHypergraph:
    """A uniform m-edge simple graph on [1..n] with i.i.d. uniform colors.

    The m pairs are drawn as indices into the lexicographic list of all
    n(n-1)/2 pairs: the sorted indices are turned into keys by walking the
    rows (u, u+1..n) in order.  A full draw on a `random.Random` sorts to
    every index whatever the words say, so its words are skipped
    (`_skip_full_sample`) and it takes the one per-n tuple of keys every
    full draw shares (`_graph_pairs`).  The colors follow, one per pair in
    that order, drawn in bulk (`_uniform`).  The arguments obey
    `_check_draw`, with m an int, never None."""
    if m is None:
        raise ValueError("m must be an int, not None")
    total = _check_draw(GRAPH, n, 2, kappa, m)
    if m == total and type(rnd) is random.Random:
        _skip_full_sample(rnd, total)
        keys = _graph_pairs(n)
    else:
        keys = []
        u, row_start, row_len = 1, 0, n - 1
        for t in sorted(rnd.sample(range(total), m)):
            while t >= row_start + row_len:
                row_start += row_len
                row_len -= 1
                u += 1
            keys.append((u - 1) * n + u + t - row_start)  # the pair (u, u + 1 + t - row_start)
    return _built(ColoredHypergraph, mode=GRAPH, n=n, k=2, kappa=kappa, keys=tuple(keys),
                  colors=tuple(_uniform(rnd, kappa, m)), absent=frozenset())


# -- restriction and orderings -----------------------------------------------


def restrict(
    H: ColoredHypergraph,
    removed_edges: Iterable[ColoredEdge] = (),
    removed_vertices: Iterable = (),
    removed_colors: Iterable[int] = (),
) -> ColoredHypergraph:
    """Delete edges, vertices (with their incident edges), and color classes.

    Removed vertices are recorded in `absent`, never renumbered, so repeated
    restrictions compose; an edge goes when a vertex it touches (`_vertices`)
    is removed.  Arguments must be drawn from H: foreign edges, already-absent
    vertices, and out-of-range colors are hard errors rather than silent
    no-ops.
    """
    edge_set = set(H.edges)
    removed_e = set()
    for e in _edge_pairs(removed_edges):
        if e not in edge_set:
            raise ValueError(f"{e} is not an edge of the instance")
        removed_e.add(e)

    removed_v = set()
    for v in removed_vertices:
        pv = H._coerce_vertex(v)
        if pv in H.absent:
            raise ValueError(f"vertex {pv} is already absent")
        removed_v.add(pv)

    removed_c = set()
    for c in removed_colors:
        if type(c) is not int or not 1 <= c <= H.kappa:
            raise ValueError(f"color {c!r} out of range 1..{H.kappa}")
        removed_c.add(c)

    kept = tuple(
        e
        for e in H.edges
        if e not in removed_e
        and e.color not in removed_c
        and removed_v.isdisjoint(_vertices(e, H.mode))
    )
    return ColoredHypergraph(H.mode, H.n, H.k, H.kappa, kept, H.absent | removed_v)


def random_edge_ordering(H: ColoredHypergraph, rnd: random.Random) -> list[int]:
    """A uniform permutation of the edge positions (indices into H.keys).
    rnd.shuffle's draws depend only on the list's length, so the edges read
    off it are those of a shuffle of list(H.edges) at the same stream."""
    order = list(range(len(H.keys)))
    rnd.shuffle(order)
    return order


# -- JSON wire format ---------------------------------------------------------
#
# {"mode": "partite"|"graph", "n": int, "k": int, "colors": int,
#  "edges": [{"verts": [int, ...], "color": int}, ...]}
#
# plus an "absent" key (list of [part, index] or int) only when nonempty.
# Every number is a JSON integer: a float (even 2.0) or a bool is malformed.
# The reader hands the raw values to the constructor, the one type and range
# check; every refusal reads "malformed instance document: " and the rule it
# breaks.  Emission is canonical (edges sorted, fixed key order), so
# parse(emit(H)) == H and emit(parse(s)) == s whenever s is canonical.


def instance_to_dict(H: ColoredHypergraph) -> dict:
    out = {
        "mode": H.mode,
        "n": H.n,
        "k": H.k,
        "colors": H.kappa,
        "edges": [{"verts": list(e.verts), "color": e.color} for e in H.edges],
    }
    if H.absent:
        if H.mode == PARTITE:
            out["absent"] = sorted([v.part, v.index] for v in H.absent)
        else:
            out["absent"] = sorted(H.absent)
    return out


def instance_from_dict(data: dict) -> ColoredHypergraph:
    try:
        if not isinstance(data, dict):
            raise ValueError("the document is not a JSON object")
        for key in ("mode", "n", "k", "colors", "edges"):
            if key not in data:
                raise ValueError(f"the document has no key {key!r}")
        return ColoredHypergraph(
            data["mode"], data["n"], data["k"], data["colors"],
            _edge_items(data["edges"]), data.get("absent", ()),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc


def _edge_items(edges: list) -> list:
    # each edge object's (verts, color) from a JSON array; the first edge that
    # is not an object or lacks a key is named by its position
    if not isinstance(edges, list):
        raise ValueError("edges must be a JSON array")
    for at, item in enumerate(edges):
        if not isinstance(item, dict):
            raise ValueError(f"edges[{at}] is not a JSON object")
        for key in ("verts", "color"):
            if key not in item:
                raise ValueError(f"edges[{at}] has no key {key!r}")
    return [(item["verts"], item["color"]) for item in edges]


def dumps_instance(H: ColoredHypergraph) -> str:
    return json.dumps(instance_to_dict(H), separators=(",", ":"))


def loads_instance(text: str) -> ColoredHypergraph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, or an integer past the digit limit of int(str)
        # (a plain ValueError); the decoder recurses once per nesting level
        raise ValueError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(data)


def load_instance(path) -> ColoredHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())
