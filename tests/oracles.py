"""Oracles the tests compare the library against.  Nothing in the package
calls them: each computes by definition what the library computes by a
faster route.

`rainbow_weight` is one entry of the weight table, restrict then count.
`reduce_to_uniform` and `count_uniform_pm` count rainbow perfect matchings
through the colored-to-uniform reduction with a plain enumerator kept
independent of the matching kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from rainbowmatch.count import BudgetExceededError, DEFAULT_NODE_BUDGET, count_rainbow_pm
from rainbowmatch.model import PARTITE, ColoredHypergraph, PartiteVertex, restrict
from rainbowmatch.process import _check_partite


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
