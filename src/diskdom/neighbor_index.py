"""First-non-intersecting-disk queries along the cyclic order.

For a fixed disk i and a scan origin j, the two core queries return the
first index z (counterclockwise respectively clockwise from j, inclusive)
whose disk does *not* intersect disk i.  When no such index exists the
explicit sentinel INTERSECTS_ALL is returned instead of a fake index, so
callers are forced to treat saturation separately.  The index turns them
into the runs the solvers merge, as (start, length) pairs
(`dominated_run`, `run_after`, `run_before`), into the one-way run the
unweighted directional step builds (`one_way_run`, with the direction as
a parameter), and into the counting bound on any dominating set
(`domination_lower_bound`).

Each disk's avoidance row (the negation of `geometry.intersects_row`) is
packed into an integer, built lazily, one row per queried disk, and the
queries are bit scans.  The row evaluates the same operations in the same
order as `geometry.intersects` (``dx*dx + dy*dy`` against
``(r_i + r_z)**2``), so the answers agree bit for bit with `verify`.
The tests check them against a disk-by-disk walk with a scalar predicate
(`tests/query_reference.py`).
"""

from __future__ import annotations

import numpy as np

from .geometry import Instance, disk_arrays, intersects_row, union_runs


class _IntersectsAll:
    """Sentinel: the queried disk intersects every disk of the instance."""

    __slots__ = ()

    def __repr__(self):
        return "INTERSECTS_ALL"


INTERSECTS_ALL = _IntersectsAll()


class _BitsetNeighborIndex:
    """Per-disk avoidance rows packed into integers; queried with bit scans.

    Rows are built lazily (one vectorized pass per queried disk) and kept,
    so a solver touching all disks pays O(n^2 / word) memory total.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n = instance.n
        self._runs: dict[int, tuple[int, int]] = {}
        self._arrays = disk_arrays(instance)
        self._rows: dict[int, int] = {}

    def _row(self, i):
        row = self._rows.get(i)
        if row is None:
            avoids = ~intersects_row(*self._arrays, i)
            row = int.from_bytes(np.packbits(avoids, bitorder="little").tobytes(), "little")
            self._rows[i] = row
        return row

    def closed_neighborhood_size(self, i: int) -> int:
        """Number of disks meeting disk i, disk i included."""
        return self.n - self._row(i).bit_count()

    def first_disjoint_ccw(self, i, j):
        row = self._row(i)
        ahead = row >> j
        if ahead:
            return j + ((ahead & -ahead).bit_length() - 1)
        if row:
            return (row & -row).bit_length() - 1
        return INTERSECTS_ALL

    def first_disjoint_cw(self, i, j):
        row = self._row(i)
        behind = row & ((1 << (j + 1)) - 1)
        if behind:
            return behind.bit_length() - 1
        if row:
            return row.bit_length() - 1
        return INTERSECTS_ALL

    def domination_lower_bound(self) -> int:
        """Fewest disks any dominating set needs.

        Each disk dominates only its closed neighborhood, so at least
        ceil(n / largest closed neighborhood) disks are needed.
        """
        n = self.n
        return -(-n // max(self.closed_neighborhood_size(i) for i in range(n)))

    def run_after(self, i: int, z: int) -> tuple[int, int]:
        """The run from z+1 counterclockwise that disk i meets throughout.

        Returned as (start, length): it stops just before the first disk
        disjoint from disk i, and is (0, n) when disk i meets every disk.
        """
        n = self.n
        a = self.first_disjoint_ccw(i, (z + 1) % n)
        if a is INTERSECTS_ALL:
            return 0, n
        return (z + 1) % n, (a - z - 1) % n

    def run_before(self, i: int, z: int) -> tuple[int, int]:
        """Mirror of `run_after`: the run from z-1 clockwise, as (start, length)."""
        n = self.n
        b = self.first_disjoint_cw(i, (z - 1) % n)
        if b is INTERSECTS_ALL:
            return 0, n
        return (b + 1) % n, (z - b - 1) % n

    def one_way_run(self, i: int, dom, run1, run2, *, ccw: bool) -> tuple[int, int]:
        """A directional step's run for disk i: the union of its four parts.

        All runs are (start, length) pairs.  `dom` is disk i's dominated
        run, `run1` a run through i and `run2` a run from just past run1's
        far end, counterclockwise or clockwise; the stretch disk i meets
        past run2's far end closes the union.  (0, n) when run2 is full.
        """
        n = self.n
        s2, k2 = run2
        if k2 == n:
            return 0, n
        tail = self.run_after(i, (s2 + k2 - 1) % n) if ccw else self.run_before(i, s2)
        return union_runs(n, (dom, run1, run2, tail))

    def dominated_run(self, i: int) -> tuple[int, int]:
        """Maximal contiguous run around p_i whose disks all meet disk i.

        Returned as (start, length), and (0, n) when disk i meets every disk.
        """
        run = self._runs.get(i)
        if run is None:
            # the stretch clockwise up to i, then the one counterclockwise from i
            run = union_runs(self.n, (self.run_before(i, i + 1), self.run_after(i, i - 1)))
            self._runs[i] = run
        return run


def build_neighbor_index(instance: Instance) -> _BitsetNeighborIndex:
    return _BitsetNeighborIndex(instance)
