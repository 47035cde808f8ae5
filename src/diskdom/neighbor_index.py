"""First-non-intersecting-disk queries along the cyclic order.

For a fixed disk i and a scan origin j, the two core queries return the
first index z (counterclockwise respectively clockwise from j, inclusive)
whose disk does *not* intersect disk i.  When no such index exists the
explicit sentinel INTERSECTS_ALL is returned instead of a fake index, so
callers are forced to treat saturation separately.  The index turns them
into the runs the solvers merge, as (start, length) pairs
(`dominated_run`, `run_after`, `run_before`), and into the counting bound
on any dominating set (`domination_lower_bound`).

All avoidance rows (the negation of `geometry.intersects_row`, so the
answers agree bit for bit with `verify`) are built once, in blocks of
rows, into one n x ceil(n/64) matrix of packed little-endian uint64
words, and the queries are bit scans.  `first_disjoint` answers arrays of
queries in word-by-word numpy passes, as the unweighted search asks them
(`runs_past`, `dominated_runs`); the scalar queries read a Python-int
view of one row.  The tests check both against a disk-by-disk walk with a
scalar predicate (`tests/query_reference.py`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import Instance, disk_arrays, intersects_row, union_columns

_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], np.uint8)


class _IntersectsAll:
    """Sentinel: the queried disk intersects every disk of the instance."""

    __slots__ = ()

    def __repr__(self):
        return "INTERSECTS_ALL"


INTERSECTS_ALL = _IntersectsAll()


def _bit_index(x: np.ndarray, *, lowest: bool) -> np.ndarray:
    """Index of the lowest (or highest) set bit of each nonzero uint64 word."""
    if lowest:
        x = x & (~x + np.uint64(1))
    else:
        for shift in (1, 2, 4, 8, 16, 32):
            x = x | (x >> np.uint64(shift))
        x = x ^ (x >> np.uint64(1))
    # x is a power of two, which float64 holds exactly
    return np.frexp(x.astype(np.float64))[1].astype(np.int64) - 1


class _BitsetNeighborIndex:
    """Per-disk avoidance rows packed into one uint64 matrix; queried with bit scans."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n = instance.n
        self._rows: dict[int, int] = {}

    @cached_property
    def _bits(self) -> np.ndarray:
        """Bit z of row i (word z >> 6, bit z & 63) is set when disk i misses disk z."""
        n = self.n
        arrays = disk_arrays(self.instance)
        bits = np.zeros((n, -(-n // 64) * 8), np.uint8)
        block = max(1, (1 << 15) // n)  # rows whose temporaries stay in cache
        for lo in range(0, n, block):
            rows = np.arange(lo, min(n, lo + block))
            avoids = ~intersects_row(*arrays, rows[:, None])
            packed = np.packbits(avoids, axis=1, bitorder="little")
            bits[rows, : packed.shape[1]] = packed
        return bits.view("<u8")

    def _row(self, i):
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = int.from_bytes(self._bits[i].tobytes(), "little")
        return row

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

    def first_disjoint(self, i, j, *, ccw: bool) -> np.ndarray:
        """`first_disjoint_ccw` (or `_cw`) of each pair (i[q], j[q]); -1 for INTERSECTS_ALL.

        Reads the origin word j >> 6 cut to the bits from j on that way
        round, then steps word by word, cyclically, over only the queries
        still open; the origin word comes round again last, whole.
        """
        i, j = np.asarray(i, np.int64), np.asarray(j, np.int64)
        w, bit = j >> 6, (j & 63).astype(np.uint64)
        bits = self._bits
        words = bits.shape[1]
        x = bits[i, w] & ((_ONES << bit) if ccw else (_ONES >> (np.uint64(63) - bit)))
        out = np.full(len(i), -1, np.int64)
        todo = np.arange(len(i))
        for step in range(words + 1):
            hit = x != 0
            out[todo[hit]] = w[hit] * 64 + _bit_index(x[hit], lowest=ccw)
            todo, w = todo[~hit], w[~hit]
            if not len(todo) or step == words:
                break
            w = (w + (1 if ccw else -1)) % words
            x = bits[i[todo], w]
        return out

    def domination_lower_bound(self) -> int:
        """Fewest disks any dominating set needs.

        Each disk dominates only its closed neighborhood, so at least
        ceil(n / largest closed neighborhood) disks are needed.
        """
        missed = _POPCOUNT8[self._bits.view(np.uint8)].sum(axis=1)
        return -(-self.n // (self.n - int(missed.min())))

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

    def runs_past(self, i, z, *, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """`run_after(i[q], z[q])` (or `run_before`) of each pair, as start and length arrays."""
        n = self.n
        j = (np.asarray(z, np.int64) + (1 if ccw else -1)) % n
        f = self.first_disjoint(i, j, ccw=ccw)
        full = f < 0
        starts = np.where(full, 0, j if ccw else (f + 1) % n)
        return starts, np.where(full, n, (f - j) % n if ccw else (j - f) % n)

    @cached_property
    def dominated_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every disk's `dominated_run`, as start and length arrays."""
        i = np.arange(self.n)
        # the stretch clockwise up to i, then the one counterclockwise from i
        before = self.runs_past(i, i + 1, ccw=False)
        return union_columns(self.n, (before, self.runs_past(i, i - 1, ccw=True)))

    def dominated_run(self, i: int) -> tuple[int, int]:
        """Maximal contiguous run around p_i whose disks all meet disk i.

        Returned as (start, length), and (0, n) when disk i meets every disk.
        """
        starts, lengths = self.dominated_runs
        return int(starts[i]), int(lengths[i])


def build_neighbor_index(instance: Instance) -> _BitsetNeighborIndex:
    return _BitsetNeighborIndex(instance)
