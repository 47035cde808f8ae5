"""Reference twins of the solvers' query structures; the solvers never run them.

`NaiveNeighborIndex` answers the first-disjoint-disk queries by walking
the cyclic order disk by disk with a scalar predicate, where the
production indexes scan packed bit rows or walk a bounding-circle tree;
its batched `first_disjoint` runs that walk once per query, and its
counting bound counts each disk's neighborhood with the same predicate.
It shares only the runs built on those answers (`_NeighborIndex`).
`scan_farthest_ids` answers each farthest-enclosing-run query by
scanning every run's reach, index by index, where
`unweighted_greedy.farthest_ids` sweeps all indexes at once.
The unweighted level builder's scalar twin is `greedy_reference.py`.
The weighted DP's twin, `weighted_reference.ScanLevelTable`, builds its
scan chains from plain cheapest-enclosing scans.

`solvers_using` swaps them into both solvers for the length of a `with`
block, so whole solves can be compared across {bitset, tree, naive}
neighbor indexes and {indexed, scan} query structures.  "bitset" and
"tree" name the two production indexes whatever the instance's size.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import diskdom.unweighted_greedy as ug
import diskdom.weighted_dp as wdp
from diskdom.neighbor_index import (
    INTERSECTS_ALL,
    _BitsetNeighborIndex,
    _NeighborIndex,
    _TreeNeighborIndex,
)
from weighted_reference import ScanLevelTable


class NaiveNeighborIndex(_NeighborIndex):
    """Walks the cyclic order disk by disk; builds no bit rows and no tree."""

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

    def domination_lower_bound(self):
        n = self.n
        largest = max(sum(not self._avoids(i, z) for z in range(n)) for i in range(n))
        return -(-n // largest)

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

    def first_disjoint(self, i, j, *, ccw):
        walk = self.first_disjoint_ccw if ccw else self.first_disjoint_cw
        hits = (walk(a, b) for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist()))
        return np.array([-1 if z is INTERSECTS_ALL else z for z in hits], np.int64)


NEIGHBOR_INDEXES = {
    "bitset": _BitsetNeighborIndex,
    "tree": _TreeNeighborIndex,
    "naive": NaiveNeighborIndex,
}


def scan_farthest_ids(starts, lengths, n: int):
    """Reference twin of `farthest_ids`: at each index, every run's reach."""
    starts = np.asarray(starts, np.int64)
    lengths = np.asarray(lengths, np.int64)
    answers = {ccw: np.full(n, -1, np.int64) for ccw in (True, False)}
    for j in range(n):
        off = (j - starts) % n  # steps from each run's start to j
        covers = off < lengths
        if not covers.any():
            continue
        for ccw, answer in answers.items():
            reach = np.where(lengths == n, n, lengths - 1 - off if ccw else off)
            answer[j] = np.argmax(np.where(covers, reach, -1))  # ties to the smallest id
    return answers[True], answers[False]


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
