"""Machine-speed calibration for the benchmark's time metrics.

The 2-vCPU virtual machine this benchmark was tuned on runs its vCPUs as
threads of a busy host: the same round took up to twice as long from one
minute to the next, and CPU time swung as much as wall time.  A run therefore
times a fixed pure-Python kernel between its rounds and scales each round's
times by REFERENCE_S / (that kernel's time), so time metrics read as seconds
at the machine speed where the kernel takes REFERENCE_S.  The kernel uses nothing
from rainbowmatch, so a change to the program cannot move it; it mixes the
kinds of work the program does (bit-mask recursion, filtering lists of
tuples, dicts, sorting, small objects and Fractions).

Process start-up follows the kernel only loosely (it is partly system calls
and file reads), so set-up time is scaled by the start-up of a bare
interpreter instead: `python3 -c BARE_START`, which imports nothing from
rainbowmatch, takes BARE_START_REFERENCE_S at the speed where the kernel takes
REFERENCE_S.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

# About the kernel time on that virtual machine in a quiet minute (Python 3.11.7).
REFERENCE_S = 0.025
# Bare interpreter start-up on that machine, measured interleaved with the
# kernel and taken at the speed where the kernel takes REFERENCE_S.
BARE_START = "import time; print(repr(time.monotonic()))"
BARE_START_REFERENCE_S = 0.055

_N = 7
# a fixed 7x7 bipartite instance: (vertex mask, color bit, label)
_ITEMS = [((1 << i) | (1 << (_N + j)), 1 << ((3 * i + 5 * j) % _N), (i, j))
          for i in range(_N) for j in range(_N)]


class _Edge(NamedTuple):
    verts: tuple
    color: int


def _queens(n: int, row: int = 0, cols: int = 0, d1: int = 0, d2: int = 0) -> int:
    if row == n:
        return 1
    total = 0
    free = ~(cols | d1 | d2) & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        total += _queens(n, row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1)
    return total


def _matchings(level: int, used: int, colors: int, pool) -> int:
    if level == _N:
        return 1
    live = [item for item in pool if not (item[0] & used or item[1] & colors)]
    vbit = 1 << level
    return sum(_matchings(level + 1, used | vmask, colors | cbit, live)
               for vmask, cbit, _ in live if vmask & vbit)


def _objects() -> int:
    edges = [_Edge((i % 13, i % 7), i % 5) for i in range(1500)]
    kept = frozenset(e for e in edges if e.color != 2)
    total = sum((Fraction(e.color + 1, e.verts[1] + 1) for e in sorted(kept)), Fraction(0))
    table = {(e.verts, e.color): str(e) for e in edges}
    return len(table) + total.denominator


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(3):
        _queens(8)
        _matchings(0, 0, 0, _ITEMS)
        _objects()
    return time.perf_counter() - t0
