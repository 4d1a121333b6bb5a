"""Machine-speed probe that the benchmark's times are scaled by.

The shared host this benchmark was built on changes speed by 20% and more
from one minute to the next, and within a minute, as other tenants load its
cores.  Wall times of the same command then differ more between runs than
any change worth measuring.  So every command is bracketed by a probe: a
fixed piece of pure-stdlib work shaped like the program's own (exact
Fraction arithmetic, a heap-based shortest-path search, dict and list
traffic, row elimination).  A command's reported time is its wall time
multiplied by ``REFERENCE_S`` over the mean of the probes just before and
just after it: the time the command would take on a machine running the
probe in ``REFERENCE_S``.

The probe shares no code with the program, so a change to the program moves
the scaled times by the same factor as the wall times.  Its work must never
change, or results before and after the change stop being comparable.
"""

from __future__ import annotations

import heapq
import random
import time
from fractions import Fraction

# Probe time on the machine the baseline was recorded on (2-vCPU Intel Xeon
# VM at 2.1 GHz, CPython 3.11).
REFERENCE_S = 0.020

_rng = random.Random(5)
_GRAPH = tuple(
    tuple((_rng.randrange(60), Fraction(_rng.randint(1, 40), _rng.randint(1, 12)))
          for _ in range(6))
    for _ in range(60)
)
_MATRIX = tuple(
    tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9))
    for _ in range(8)
)
del _rng


def _shortest_paths(source):
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _GRAPH[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _eliminate():
    rows = [list(row) for row in _MATRIX]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return rows


def probe() -> float:
    """Wall seconds the fixed work takes now."""
    start = time.perf_counter()
    for source in range(0, len(_GRAPH), 6):
        _shortest_paths(source)
    _eliminate()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that takes wall time measured between two probes to
    reference-speed time."""
    return 2 * REFERENCE_S / (before + after)
