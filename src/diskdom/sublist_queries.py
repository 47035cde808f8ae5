"""Farthest-enclosing-run queries over a level's cyclic runs.

Among stored runs containing a single index j, the query asks for the one
whose counterclockwise (or clockwise) endpoint reaches farthest from j.
There are only n possible arguments, so the index answers all of them at
build time with a prefix-maximum sweep over the runs' starts, unrolled
onto the line [0, 2n).  Clockwise answers come from the same sweep over
the mirrored runs.  Full runs contain everything and beat every partial
run.  The index is immutable once built; ties break
toward the smallest id so solver runs are reproducible.  The tests check
it against a plain scan over the runs (`tests/query_reference.py`).

The weighted DP's cheapest-enclosing-run queries need no structure of
their own: `weighted_dp.LevelTable` reads them off (value, id)-sorted
staircases of each level's runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class FarthestEnclosingIndex:
    """Farthest-reaching run through a single index; a list lookup.

    Stores the runs (starts[k], lengths[k]) under ids k.  Reach of a stored
    run L from index j is ``offset_ccw(j, ccw_end(L))`` for counterclockwise
    queries (mirrored for clockwise) and n for full runs; equal reaches go
    to the smallest id.  All n indexes of both directions are answered at
    build time (see `_sweep`): `ccw_ids[j]` and `cw_ids[j]` hold the
    answers, None where no run covers j.
    """

    def __init__(self, starts, lengths, n: int):
        starts = np.asarray(starts, np.int64)
        lengths = np.asarray(lengths, np.int64)
        if len(starts) != len(lengths):
            raise ValueError("starts and lengths differ in size")
        if len(starts) and (
            lengths.min() < 1 or lengths.max() > n or starts.min() < 0 or starts.max() >= n
        ):
            raise ValueError("runs must be nonempty with starts in [0, n)")
        self.n = n
        self._sweep(starts, lengths)

    def _sweep(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Answer every index in both directions; ids are array positions.

        Mirroring the circle (index j to n - 1 - j) turns run (s, k) into
        ((-s - k) mod n, k) and clockwise reach from j into counterclockwise
        reach from n - 1 - j, keeping ids, so one counterclockwise sweep of
        the mirrored runs, read back reversed, answers clockwise.
        """
        n = self.n
        full = np.flatnonzero(lengths == n)
        if len(full) or not len(starts):
            self.ccw_ids = self.cw_ids = [int(full[0]) if len(full) else None] * n
            return
        self.ccw_ids = _ccw_sweep(starts, lengths, n)
        self.cw_ids = _ccw_sweep((-starts - lengths) % n, lengths, n)[::-1]

    def farthest(self, j: int, *, ccw: bool) -> Optional[int]:
        """Id of the stored run covering j whose ccw (or cw) endpoint reaches farthest."""
        if not 0 <= j < self.n:
            raise ValueError("index out of range")
        return (self.ccw_ids if ccw else self.cw_ids)[j]


def _ccw_sweep(starts: np.ndarray, lengths: np.ndarray, n: int) -> list[Optional[int]]:
    """Per index, the id of the partial run through it reaching farthest ccw.

    Each run is one copy [s, e] on the line [0, 2n), e = s + length - 1
    < 2n - 1, and covers j exactly when it covers stab j or stab j + n.
    The best copy through a stab p is the one of largest (e, -id) among
    starts <= p (a prefix maximum over starts), valid when e >= p; the
    pair is packed into one int64 key, e * base + (base - 1 - id).  The
    two stabs' answers then compete on reach, ties to the smaller id.
    None where no run covers the index.
    """
    base = len(starts)
    tie = np.arange(base - 1, -1, -1, dtype=np.int64)
    best = np.full(n, -1, dtype=np.int64)
    np.maximum.at(best, starts, (starts + lengths - 1) * base + tie)
    pref = np.maximum.accumulate(best)
    j = np.arange(n, dtype=np.int64)
    hits = []
    for p in (j, j + n):
        key = pref[np.minimum(p, n - 1)]
        e = key // base
        hits.append((np.where((key >= 0) & (e >= p), e - p, -1), key % base))
    (r1, k1), (r2, k2) = hits
    second = (r2 > r1) | ((r2 == r1) & (k2 > k1))
    reach = np.where(second, r2, r1)
    ids = base - 1 - np.where(second, k2, k1)
    return [None if r < 0 else i for r, i in zip(reach.tolist(), ids.tolist())]
