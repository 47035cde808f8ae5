"""Smallest dominating sets of convex-position disk graphs.

Same level structure as the weighted solver, but cardinality replaces
weight, so each step can be greedy: per direction and split level it keeps
only the candidate reaching farthest around the circle, which caps every
bucket at O(level) entries.  The first level that produces a full-circle
candidate ends the search; that candidate's witnesses are a smallest
dominating set.  So a size bound k_cap needs no proof of its own: the
search stops, infeasible, after level k_cap.

A level is a set of int64 columns (`GreedyLevel`, on the `RunLevel` base
the weighted DP shares): each candidate's run as (start, length), its
owner, and a parent row naming the lower-level candidates it joins.
`build_level` builds level t in whole-level numpy passes, one per
direction and split level over all points (`directional_steps`,
`bidirectional_steps`), with the neighbor index's batched runs
(`dominated_runs`, and `runs_past` for the tails) and row-wise merges
(`geometry.union_columns`).  No candidate is an object: only the
winner's witness set is rebuilt, by walking its parents down to level 1;
`check_invariants=True` checks every level against its parent rows.

The tests compare each level with a point-by-point scalar twin
(`tests/greedy_reference.py`) that asks a disk-by-disk walk for one run
at a time, and swap in a plain-scan twin of
`farthest_ids` (`tests/query_reference.py`) to check that the solves agree.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .geometry import Instance, union_columns
from .neighbor_index import build_neighbor_index
from .solution import (
    Infeasible,
    RunLevel,
    Solution,
    SolverInvariantError,
    check_level,
    check_size_bound,
    run_reach,
    solution_of,
)


def farthest_ids(starts, lengths, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per index j, the id of the run through j reaching farthest ccw, and cw.

    The runs are (starts[k], lengths[k]) under ids k.  Reach from j is the
    number of steps a run extends past j that way round, and n for a full
    run, so a full run beats every partial one; equal reaches go to the
    smallest id.  -1 where no run covers j.  Clockwise answers come from
    the counterclockwise sweep (`_ccw_sweep`) over the mirrored runs:
    mirroring the circle (index j to n - 1 - j) turns run (s, k) into
    ((-s - k) mod n, k) and clockwise reach from j into counterclockwise
    reach from n - 1 - j, keeping ids, so that sweep read back reversed
    answers clockwise.
    """
    starts = np.asarray(starts, np.int64)
    lengths = np.asarray(lengths, np.int64)
    if len(starts) != len(lengths):
        raise ValueError("starts and lengths differ in size")
    if len(starts) and (
        lengths.min() < 1 or lengths.max() > n or starts.min() < 0 or starts.max() >= n
    ):
        raise ValueError("runs must be nonempty with starts in [0, n)")
    full = np.flatnonzero(lengths == n)
    if len(full) or not len(starts):
        ids = np.full(n, full[0] if len(full) else -1, np.int64)
        return ids, ids
    return _ccw_sweep(starts, lengths, n), _ccw_sweep((-starts - lengths) % n, lengths, n)[::-1]


def _ccw_sweep(starts: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """Per index, the id of the partial run through it reaching farthest ccw.

    Each run is one copy [s, e] on the line [0, 2n), e = s + length - 1
    < 2n - 1, and covers j exactly when it covers stab j or stab j + n.
    The best copy through a stab p is the one of largest (e, -id) among
    starts <= p (a prefix maximum over starts), valid when e >= p; the
    pair is packed into one int64 key, e * base + (base - 1 - id).  The
    two stabs' answers then compete on reach, ties to the smaller id.
    -1 where no run covers the index.
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
    return np.where(reach < 0, -1, base - 1 - np.where(second, k2, k1))


class GreedyLevel(RunLevel):
    """One level's candidates as int64 columns, in id order (`RunLevel`).

    Ids run owner by owner, and within an owner: ccw step, cw step, then
    the stitched candidates by split level.  The constructor builds the
    answers later levels read, as ids (-1 for none, equal reaches to the
    smallest id): each point's own candidate reaching farthest each way
    (`ext[ccw]`), per index the candidate through it reaching farthest each
    way (`far[ccw]`), and the first full candidate (`full_id`).
    """

    def __init__(self, instance: Instance, level: int, below, starts, lengths, owners, parents):
        super().__init__(instance, level, below, starts, lengths, owners, parents)
        n, m = self.n, len(starts)
        self.far = dict(zip((True, False), farthest_ids(starts, lengths, n)))
        full = np.flatnonzero(lengths == n)
        self.full_id = int(full[0]) if len(full) else -1
        # per point and direction (keyed by ccw): the largest key
        # reach * m + (m - 1 - id), farthest reach, then smallest id
        self.ext: dict[bool, np.ndarray] = {}
        tie = np.arange(m - 1, -1, -1, dtype=np.int64)
        for ccw in (True, False):
            reach = run_reach(starts, lengths, owners, n, ccw=ccw)
            best = np.full(n, -1, dtype=np.int64)
            np.maximum.at(best, owners, reach * m + tie)
            self.ext[ccw] = np.where(best < 0, -1, m - 1 - best % max(m, 1))


def directional_steps(nbr, levels: Sequence[Optional[GreedyLevel]], t: int, *, ccw: bool):
    """Each point's farthest-reaching extension of its extremes, ccw or cw.

    One pass over all points per split level t': l1 is the point's own
    level-t' extreme, l2 the level-(t-t') run reaching farthest past l1's
    far end, and the tail the stretch the point's disk meets past l2's far
    end (`runs_past`); the run is the union of the point's dominated run,
    l1, l2 and the tail.  A full l1 gives (0, n) without l2, a full l2
    gives (0, n).  Per point the split reaching farthest wins, ties to the
    smaller t'; points with no split are left out.  Returns one block of
    int64 columns: owners, starts, lengths and (m, 4) parent rows.
    """
    if t < 2:
        raise SolverInvariantError(f"a step builds level 2 or later, not level {t}")
    n = nbr.n
    dom_s, dom_k = nbr.dominated_runs
    best = np.full(n, -1, np.int64)  # reach of each point's winner so far
    won = np.zeros((n, 6), np.int64)  # its start, length and parent row
    for tp in range(1, t):
        near, other = levels[tp], levels[t - tp]
        i = np.flatnonzero(near.ext[ccw] >= 0)
        l1 = near.ext[ccw][i]
        s1, k1 = near.starts[l1], near.lengths[l1]
        l2 = np.where(k1 == n, -1, other.far[ccw][(s1 + k1) % n if ccw else (s1 - 1) % n])
        ok = (k1 == n) | (l2 >= 0)
        i, l1, s1, k1, l2 = i[ok], l1[ok], s1[ok], k1[ok], l2[ok]
        s2, k2, tail_s, tail_k = (np.zeros_like(i) for _ in range(4))  # empty parts
        has2 = l2 >= 0
        s2[has2], k2[has2] = other.starts[l2[has2]], other.lengths[l2[has2]]
        # the tail only where no part is full: the union saturates on those
        open_ = (k1 < n) & (k2 < n)
        tail_s[open_], tail_k[open_] = nbr.runs_past(
            i[open_], ((s2 + k2 - 1) % n if ccw else s2)[open_], ccw=ccw
        )
        s, k = union_columns(n, ((dom_s[i], dom_k[i]), (s1, k1), (s2, k2), (tail_s, tail_k)))
        reach = run_reach(s, k, i, n, ccw=ccw)
        win = reach > best[i]
        best[i[win]] = reach[win]
        t2 = np.where(l2 < 0, -1, t - tp)
        won[i[win]] = np.stack((s, k, np.full_like(i, tp), l1, t2, l2), axis=1)[win]
    i = np.flatnonzero(best >= 0)
    return i, won[i, 0], won[i, 1], won[i, 2:]


def bidirectional_steps(nbr, levels: Sequence[Optional[GreedyLevel]], t: int) -> list:
    """One block (as `directional_steps`) per split level t' = 2..t-1: the stitched candidates.

    A point's dominated run joined with its ccw extreme of level t' and its
    cw extreme of level t+1-t'; points missing either extreme are left out.
    """
    n = nbr.n
    dom_s, dom_k = nbr.dominated_runs
    blocks = []
    for tp in range(2, t):
        x, y = levels[tp], levels[t + 1 - tp]
        i = np.flatnonzero((x.ext[True] >= 0) & (y.ext[False] >= 0))
        lx, ly = x.ext[True][i], y.ext[False][i]
        runs = ((dom_s[i], dom_k[i]), (x.starts[lx], x.lengths[lx]), (y.starts[ly], y.lengths[ly]))
        parents = np.stack((np.full_like(i, tp), lx, np.full_like(i, t + 1 - tp), ly), axis=1)
        blocks.append((i, *union_columns(n, runs), parents))
    return blocks


def build_level(
    instance: Instance,
    nbr,
    levels: Sequence[Optional[GreedyLevel]],
    t: int,
    *,
    check_invariants: bool = False,
) -> GreedyLevel:
    """Level t, built from levels 1..t-1 (`levels[t']`).

    Level 1 holds one candidate per point: its own dominated run.  Later
    levels hold each point's ccw and cw steps, then its stitched
    candidates.  With `check_invariants`, every candidate is checked
    against its parents (`check_level`).
    """
    n = instance.n
    if t == 1:
        blocks = [(np.arange(n), *nbr.dominated_runs, np.full((n, 4), -1))]
    else:
        blocks = [directional_steps(nbr, levels, t, ccw=ccw) for ccw in (True, False)]
        blocks += bidirectional_steps(nbr, levels, t)
    owners, starts, lengths, parents = (np.concatenate(col) for col in zip(*blocks))
    # blocks are concatenated in slot order, so a stable sort keeps it per owner
    order = np.argsort(owners, kind="stable")
    owners, starts, lengths, parents = owners[order], starts[order], lengths[order], parents[order]
    if check_invariants:
        check_level(nbr, levels, t, owners, starts, lengths, parents)
    return GreedyLevel(instance, t, levels, starts, lengths, owners, parents)


def solve_unweighted(
    instance: Instance, k_cap: Optional[int] = None, *, check_invariants: bool = False
) -> Solution:
    """Smallest dominating set; Infeasible only when k_cap cuts the search off.

    The first level with a full candidate is the optimum size, so the
    search raises Infeasible once it would build level k_cap + 1; no
    counting bound is asked first.  SolverInvariantError reports a search
    that broke its own guarantees: no full candidate by level n, or a
    first full candidate whose witness count differs from its level.
    `check_invariants=True` also checks every level (`check_level`).
    """
    if k_cap is not None:
        check_size_bound("k_cap", k_cap)
    n = instance.n
    nbr = build_neighbor_index(instance)
    levels: list[Optional[GreedyLevel]] = [None]
    t = 0
    while True:
        t += 1
        if k_cap is not None and t > k_cap:
            raise Infeasible(k_cap)
        if t > n:
            raise SolverInvariantError(f"no full candidate by level {n}")
        level = build_level(instance, nbr, levels, t, check_invariants=check_invariants)
        levels.append(level)
        if level.full_id >= 0:
            witnesses = level.witnesses(level.full_id)
            if len(witnesses) != t:
                # the first full level equals the optimum cardinality
                raise SolverInvariantError(
                    f"first full candidate at level {t} has {len(witnesses)} witnesses"
                )
            return solution_of(instance, witnesses, "unweighted")
