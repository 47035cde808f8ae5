"""Reference twins of the solvers' query structures; the solvers never run them.

`NaiveNeighborIndex` answers the first-disjoint-disk queries by walking
the cyclic order disk by disk with a scalar predicate, where the
production index scans packed bit rows.  `scan_farthest_ids` answers each
farthest-enclosing-run query by scanning every run, on first lookup,
where `unweighted_greedy.farthest_ids` sweeps all indexes at once.
The weighted DP's twin, `weighted_reference.ScanLevelTable`, builds its
scan chains from plain cheapest-enclosing scans.

`solvers_using` swaps them into both solvers for the length of a `with`
block, so whole solves can be compared across {bitset, naive} neighbor
indexes and {indexed, scan} query structures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

import pytest

import diskdom.unweighted_greedy as ug
import diskdom.weighted_dp as wdp
from diskdom.neighbor_index import INTERSECTS_ALL, _BitsetNeighborIndex, build_neighbor_index
from weighted_reference import ScanLevelTable


class NaiveNeighborIndex(_BitsetNeighborIndex):
    """Walks the cyclic order disk by disk; builds no bit rows."""

    def __init__(self, instance):
        super().__init__(instance)
        # plain float tuples keep the scalar predicate allocation-free
        self._pts = [(d.center.x, d.center.y, d.radius) for d in instance.disks]

    def _avoids(self, i, z):
        xi, yi, ri = self._pts[i]
        xz, yz, rz = self._pts[z]
        dx = xz - xi
        dy = yz - yi
        rr = ri + rz
        return dx * dx + dy * dy > rr * rr

    def closed_neighborhood_size(self, i):
        return sum(1 for z in range(self.n) if not self._avoids(i, z))

    def first_disjoint_ccw(self, i, j):
        n = self.n
        for step in range(n):
            z = (j + step) % n
            if self._avoids(i, z):
                return z
        return INTERSECTS_ALL

    def first_disjoint_cw(self, i, j):
        n = self.n
        for step in range(n):
            z = (j - step) % n
            if self._avoids(i, z):
                return z
        return INTERSECTS_ALL


NEIGHBOR_INDEXES = {"bitset": build_neighbor_index, "naive": NaiveNeighborIndex}


class _Lazy(dict):
    """Answers of a one-argument query, computed on first lookup."""

    def __init__(self, query: Callable[[int], Optional[int]]):
        super().__init__()
        self._query = query

    def __missing__(self, j: int) -> Optional[int]:
        self[j] = hit = self._query(j)
        return hit


def scan_farthest_ids(starts, lengths, n: int):
    """Reference twin of `farthest_ids`: every run's reach, one by one."""
    runs = list(zip(map(int, starts), map(int, lengths)))

    def scan(j: int, *, ccw: bool) -> Optional[int]:
        best = None  # (reach, -id)
        for ident, (s, k) in enumerate(runs):
            if k == n:
                reach = n
            else:
                off = (j - s) % n  # steps from the run's start to j
                if off >= k:
                    continue
                reach = k - 1 - off if ccw else off
            key = (reach, -ident)
            if best is None or key > best:
                best = key
        return None if best is None else -best[1]

    return _Lazy(lambda j: scan(j, ccw=True)), _Lazy(lambda j: scan(j, ccw=False))


@contextmanager
def solvers_using(strategy: str = "bitset", indexed: bool = True):
    """Both solvers on the `strategy` neighbor index, and on the scan twins unless `indexed`."""
    with pytest.MonkeyPatch.context() as mp:
        for solver in (wdp, ug):
            mp.setattr(solver, "build_neighbor_index", NEIGHBOR_INDEXES[strategy])
        if not indexed:
            mp.setattr(wdp, "LevelTable", ScanLevelTable)
            mp.setattr(ug, "farthest_ids", scan_farthest_ids)
        yield
