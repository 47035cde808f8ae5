"""Reference twins of the solvers' query structures; the solvers never run them.

`NaiveNeighborIndex` answers the first-disjoint-disk queries by walking
the cyclic order disk by disk (`walk`), reading disk i's whole
`intersects_row` row, where the production index walks a slack-bound
tree.  Its scalar runs
(`run_after`, `run_before`) are the reference the tests hold the batched
runs to: its batched `first_disjoint` runs the walk once per query, its
`runs_past` asks `run_after`/`run_before` for every tail (no dominated-run
shortcut), and the scalar level builder `greedy_reference.py` asks them
one run at a time.  Its counting bound counts each disk's neighborhood
with the same predicate.  It shares only `dominated_runs`, built on its
`first_disjoint`, with the production index it subclasses.
`scan_farthest_ids` answers each farthest-enclosing-run query by
scanning every run's reach, index by index, where
`unweighted_greedy.farthest_ids` sweeps all indexes at once.
The weighted DP's twin, `weighted_reference.ScanLevelTable`, builds its
scan chains from plain cheapest-enclosing scans.
`tail_walks` counts the tail queries that must walk the tree, from whole
`intersects_row` rows rather than from any index; `counting_queries`
records what a solve asks the index, so tests can compare the two.

`solvers_using` swaps them into both solvers for the length of a `with`
block, so whole solves can be compared across the {tree, naive} neighbor
indexes and {indexed, scan} query structures.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import diskdom.unweighted_greedy as ug
import diskdom.weighted_dp as wdp
from diskdom.geometry import intersects_row
from diskdom.neighbor_index import _TreeNeighborIndex
from weighted_reference import ScanLevelTable


class NaiveNeighborIndex(_TreeNeighborIndex):
    """Walks the cyclic order disk by disk; its tree is built but never asked."""

    def __init__(self, instance):
        super().__init__(instance)
        self._rows = {}  # disk i's whole `intersects_row` row, on first use

    def _avoids(self, i, z):
        if i not in self._rows:
            self._rows[i] = intersects_row(*self._arrays, i)
        return not self._rows[i][z]

    def domination_lower_bound(self):
        n = self.n
        largest = max(sum(not self._avoids(i, z) for z in range(n)) for i in range(n))
        return -(-n // largest)

    def walk(self, i: int, j: int, *, ccw: bool) -> int:
        """First disk from j on, ccw or cw, that misses disk i; -1 when i meets all."""
        n = self.n
        for step in range(n):
            z = (j + step if ccw else j - step) % n
            if self._avoids(i, z):
                return z
        return -1

    def run_after(self, i: int, z: int) -> tuple[int, int]:
        """The run from z+1 counterclockwise that disk i meets throughout.

        Returned as (start, length): it stops just before the first disk
        disjoint from disk i, and is (0, n) when disk i meets every disk.
        """
        n = self.n
        a = self.walk(i, (z + 1) % n, ccw=True)
        if a < 0:
            return 0, n
        return (z + 1) % n, (a - z - 1) % n

    def run_before(self, i: int, z: int) -> tuple[int, int]:
        """Mirror of `run_after`: the run from z-1 clockwise, as (start, length)."""
        n = self.n
        b = self.walk(i, (z - 1) % n, ccw=False)
        if b < 0:
            return 0, n
        return (b + 1) % n, (z - b - 1) % n

    def first_disjoint(self, i, j, *, ccw):
        pairs = zip(np.asarray(i).tolist(), np.asarray(j).tolist())
        return np.array([self.walk(a, b, ccw=ccw) for a, b in pairs], np.int64)

    def runs_past(self, i, z, *, ccw):
        run = self.run_after if ccw else self.run_before
        runs = [run(a, b) for a, b in zip(np.asarray(i).tolist(), np.asarray(z).tolist())]
        return tuple(np.array([r[part] for r in runs], np.int64) for part in (0, 1))


NEIGHBOR_INDEXES = {
    "tree": _TreeNeighborIndex,
    "naive": NaiveNeighborIndex,
}


def tail_walks(instance, tails) -> int:
    """How many tail queries start outside disk i's dominated run on a disk i meets.

    `tails` holds (i, z, ccw) batches as `runs_past` takes them; a query's
    first disk is j = z+1 (z-1 clockwise).  Each disk's run is read off
    its whole `intersects_row` row: the steps from disk i to the first
    disk it misses, each way round.
    """
    if not tails:
        return 0
    arrays = instance.xs, instance.ys, instance.rs
    n = instance.n
    i = np.concatenate([a for a, _, _ in tails])
    j = np.concatenate([(z + (1 if ccw else -1)) % n for _, z, ccw in tails])
    ahead, behind = np.full(n, n), np.full(n, n)  # steps to the first disk missed, or n

    def first_miss(*walk):
        """Steps to the first False along the walk's pieces (disk i not counted), or n."""
        done = 1
        for piece in walk:
            if len(piece) and not piece.all():
                return done + int(piece.argmin())
            done += len(piece)
        return n

    for d in np.unique(i).tolist():
        row = intersects_row(*arrays, d)
        ahead[d] = first_miss(row[d + 1:], row[:d])
        behind[d] = first_miss(row[:d][::-1], row[d + 1:][::-1])
    step = (j - i) % n
    inside = (step < ahead[i]) | ((n - step) % n < behind[i])
    meets = intersects_row(*arrays, i, j)
    return int((~inside & meets).sum())


@contextmanager
def counting_queries():
    """Counts `first_disjoint` queries and records the `runs_past` batches asked inside the block.

    Yields a dict: "walked" is the number of (i, j) pairs `first_disjoint`
    answered, "leaf_rows" the number of leaves `_leaf_words` evaluated
    exactly, and "tails" the (i, z, ccw) batches of `runs_past`, copied.
    """
    asked = {"walked": 0, "leaf_rows": 0, "tails": []}
    walk, tail = _TreeNeighborIndex.first_disjoint, _TreeNeighborIndex.runs_past
    leaf_words = _TreeNeighborIndex._leaf_words

    def first_disjoint(self, i, j, *, ccw):
        asked["walked"] += len(i)
        return walk(self, i, j, ccw=ccw)

    def runs_past(self, i, z, *, ccw):
        asked["tails"].append((np.array(i, np.int64), np.array(z, np.int64), ccw))
        return tail(self, i, z, ccw=ccw)

    def leaf_rows(self, i, leaves, ccw):
        asked["leaf_rows"] += len(i)
        return leaf_words(self, i, leaves, ccw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeNeighborIndex, "first_disjoint", first_disjoint)
        mp.setattr(_TreeNeighborIndex, "runs_past", runs_past)
        mp.setattr(_TreeNeighborIndex, "_leaf_words", leaf_rows)
        yield asked


def scan_farthest_ids(starts, lengths, n: int, *, ccw: bool):
    """Reference twin of `farthest_ids`: at each index, every run's reach."""
    starts = np.asarray(starts, np.int64)
    lengths = np.asarray(lengths, np.int64)
    answer = np.full(n, -1, np.int64)
    for j in range(n):
        off = (j - starts) % n  # steps from each run's start to j
        covers = off < lengths
        if covers.any():
            reach = np.where(lengths == n, n, lengths - 1 - off if ccw else off)
            answer[j] = np.argmax(np.where(covers, reach, -1))  # ties to the smallest id
    return answer


@contextmanager
def solvers_using(strategy: str = "tree", indexed: bool = True):
    """Both solvers on the `strategy` neighbor index, and on the scan twins unless `indexed`."""
    with pytest.MonkeyPatch.context() as mp:
        for solver in (wdp, ug):
            mp.setattr(solver, "build_neighbor_index", NEIGHBOR_INDEXES[strategy])
        if not indexed:
            mp.setattr(wdp, "LevelTable", ScanLevelTable)
            mp.setattr(ug, "farthest_ids", scan_farthest_ids)
        yield
