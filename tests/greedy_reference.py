"""Reference twin of the unweighted level builder: one point and one split at a time.

`build_level` builds a level from the same lower levels as
`unweighted_greedy.build_level`, but with the scalar step: per point,
direction and split level it reads the lower levels' answers one by one,
asks only the scalar runs of `query_reference.NaiveNeighborIndex`
(`run_after`/`run_before`), which it must be given, and merges with the
scalar `run_reference.union_runs`.  A lower level's answer is the last
entry of one of its chains (`farthest_entry`).  It returns a
`GreedyLevel` with the same columns, values (sums of unit weights) and
parent rows, so the tests compare the two builders id by id.  The solvers
never run it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from diskdom.solution import SolverInvariantError
from diskdom.unweighted_greedy import GreedyLevel
from run_reference import union_runs


def _reach(start: int, length: int, i: int, n: int, ccw: bool) -> int:
    """Steps a run through i extends past i, counterclockwise or clockwise; n when full."""
    if length == n:
        return n
    return (start + length - 1 - i) % n if ccw else (i - start) % n


def dominated_run(nbr, i: int) -> tuple[int, int]:
    """Disk i's dominated run from two scalar queries: the stretch up to i, then on from i."""
    return union_runs(nbr.n, (nbr.run_before(i, i + 1), nbr.run_after(i, i - 1)))


def one_way_run(nbr, i: int, dom, run1, run2, *, ccw: bool) -> tuple[int, int]:
    """A directional step's run for disk i: the union of its four parts.

    All runs are (start, length) pairs.  `dom` is disk i's dominated run,
    `run1` a run through i and `run2` a run from just past run1's far end,
    counterclockwise or clockwise; the stretch disk i meets past run2's far
    end closes the union.  (0, n) when run2 is full.
    """
    n = nbr.n
    s2, k2 = run2
    if k2 == n:
        return 0, n
    tail = nbr.run_after(i, (s2 + k2 - 1) % n) if ccw else nbr.run_before(i, s2)
    return union_runs(n, (dom, run1, run2, tail))


def _run(level: GreedyLevel, ident: int) -> tuple[int, int]:
    return int(level.starts[ident]), int(level.lengths[ident])


def farthest_entry(level, anchor: int, *, bucket: bool, ccw: bool) -> int:
    """The last id of `anchor`'s chain of that kind in `level`, or -1 when it is empty."""
    ptr, ids = level.chains(bucket=bucket, ccw=ccw)
    return int(ids[ptr[anchor + 1] - 1]) if ptr[anchor + 1] > ptr[anchor] else -1


def greedy_step(nbr, levels, i: int, t: int, *, ccw: bool) -> Optional[tuple]:
    """Point i's farthest-reaching extension of its extremes, ccw or cw.

    One combination per split level t': i's own level-t' extreme l1, the
    level-(t-t') run l2 reaching farthest past l1's far end, and the
    stretch disk i dominates beyond that (`one_way_run`), at value
    v1 + v2.  The one reaching farthest from i wins, ties to the smaller
    t'.  Returns (start, length, value, parent row), or None when no split
    has both parts.
    """
    if t < 2:
        raise SolverInvariantError(f"a step builds level 2 or later, not level {t}")
    n = nbr.n
    dom = dominated_run(nbr, i)
    best, best_reach = None, -1
    for tp in range(1, t):
        l1 = farthest_entry(levels[tp], i, bucket=True, ccw=ccw)
        if l1 < 0:
            continue
        s1, k1 = _run(levels[tp], l1)
        v = float(levels[tp].values[l1])
        if k1 == n:
            s, k, parent = 0, n, (tp, l1, -1, -1)
        else:
            other = levels[t - tp]
            anchor = (s1 + k1) % n if ccw else (s1 - 1) % n
            l2 = farthest_entry(other, anchor, bucket=False, ccw=ccw)
            if l2 < 0:
                continue
            s, k = one_way_run(nbr, i, dom, (s1, k1), _run(other, l2), ccw=ccw)
            v += float(other.values[l2])
            parent = (tp, l1, t - tp, l2)
        r = _reach(s, k, i, n, ccw)
        if r > best_reach:
            best, best_reach = (s, k, v, parent), r
    return best


def greedy_bidirectional_step(nbr, levels, i: int, t: int) -> list[tuple]:
    """One stitched (start, length, value, parent row) per split level: both extremes joined at i.

    The value is vx + vy - 1, point i's unit weight counted once.
    """
    n = nbr.n
    dom = dominated_run(nbr, i)
    out = []
    for tp in range(2, t):
        x, y = levels[tp], levels[t + 1 - tp]
        lx = farthest_entry(x, i, bucket=True, ccw=True)
        ly = farthest_entry(y, i, bucket=True, ccw=False)
        if lx < 0 or ly < 0:
            continue
        s, k = union_runs(n, (dom, _run(x, lx), _run(y, ly)))
        out.append((s, k, float(x.values[lx] + y.values[ly]) - 1.0, (tp, lx, t + 1 - tp, ly)))
    return out


def build_level(instance, nbr, levels, t: int) -> GreedyLevel:
    """Level t from levels 1..t-1, point by point: the twin of `unweighted_greedy.build_level`."""
    rows = []  # (owner, start, length, value, parent row), in id order
    for i in range(instance.n):
        if t == 1:
            bucket = [(*dominated_run(nbr, i), 1.0, (-1, -1, -1, -1))]
        else:
            steps = (greedy_step(nbr, levels, i, t, ccw=ccw) for ccw in (True, False))
            bucket = [step for step in steps if step is not None]
            bucket += greedy_bidirectional_step(nbr, levels, i, t)
        rows += [(i, *row) for row in bucket]
    owners, starts, lengths = (np.array([row[c] for row in rows], np.int64) for c in range(3))
    values = np.array([row[3] for row in rows], np.float64)
    parents = np.array([row[4] for row in rows], np.int64).reshape(-1, 4)
    return GreedyLevel(instance, t, levels, starts, lengths, owners, values, parents)
