"""Smallest dominating sets of convex-position disk graphs.

The weighted DP under unit weights, searched greedily.  Every candidate
of level t then weighs t, and on equal values a scan chain's last entry
is the candidate reaching farthest around the circle, ties to the
smallest id; so each chain is cut to that entry (`GreedyLevel`), and a
one-way step keeps per point only its farthest-reaching combination
over all splits (`directional_steps`): every bucket holds O(level)
rows.  The first level that produces a full-circle candidate ends the
search; its witnesses are a smallest dominating set.  So a size bound
k_cap needs no proof of its own: the search stops after level k_cap.

`build_level` builds level t with the DP's combination steps
(`solution.directional_combos`, `solution.bidirectional_combos`): one
pass each way and one stitched, each over all points and splits.  Only
the winner's witness set is rebuilt, by walking its parents down to
level 1; `check_invariants=True` checks every level against its parent
rows.  The tests compare each level with a point-by-point scalar twin
(`tests/greedy_reference.py`) and the solves with a plain-scan twin of
`farthest_ids` (`tests/query_reference.py`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .geometry import Instance
from .neighbor_index import build_neighbor_index
from .solution import (
    Infeasible,
    RunLevel,
    Solution,
    SolverInvariantError,
    bidirectional_combos,
    check_level,
    check_size_bound,
    directional_combos,
    run_reach,
    solution_of,
)


def farthest_ids(starts, lengths, n: int, *, ccw: bool) -> np.ndarray:
    """Per index j, the id of the run through j reaching farthest ccw, or cw.

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
        return np.full(n, full[0] if len(full) else -1, np.int64)
    if ccw:
        return _ccw_sweep(starts, lengths, n)
    return _ccw_sweep((-starts - lengths) % n, lengths, n)[::-1]


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


def farthest_per_point(starts, lengths, owners, n: int, *, ccw: bool) -> np.ndarray:
    """Per point, the first row it owns of farthest reach from it, ccw or cw; -1 where none."""
    m = len(owners)
    best = np.full(n, -1, np.int64)
    reach = run_reach(starts, lengths, owners, n, ccw=ccw)
    # a segmented maximum of reach * m + (m - 1 - row): equal reaches to the first row
    np.maximum.at(best, owners, reach * m + np.arange(m - 1, -1, -1))
    return np.where(best < 0, -1, m - 1 - best % max(m, 1))


class GreedyLevel(RunLevel):
    """One level's candidates as columns in id order (`RunLevel`), valued by unit weights.

    Ids run owner by owner, and within an owner: ccw step, cw step, then
    the stitched candidates by split level.  Each chain is its staircase's
    last entry alone, or empty: a bucket chain holds the owner's own
    candidate reaching farthest from it, a global chain the candidate
    through the anchor reaching farthest past it (`farthest_ids`), equal
    reaches to the smallest id.
    """

    def _chain_table(self, bucket: bool, *, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """The one-entry chains of one kind, bucket by `farthest_per_point`."""
        if bucket:
            ids = farthest_per_point(self.starts, self.lengths, self.owners, self.n, ccw=ccw)
        else:
            ids = farthest_ids(self.starts, self.lengths, self.n, ccw=ccw)
        has = ids >= 0
        return np.concatenate(([0], np.cumsum(has))), ids[has]


def directional_steps(nbr, levels: Sequence[Optional[GreedyLevel]], t: int, *, ccw: bool):
    """Each point's farthest-reaching one-way combination at level t, ccw or cw.

    With one-entry chains, `directional_combos` gives a point at most one
    row per split; the farthest reaching wins, ties to the first row (the
    smaller t'), by `farthest_per_point`.  Points with no row are left
    out.  Returns the columns of `directional_combos`.
    """
    if t < 2:
        raise SolverInvariantError(f"a step builds level 2 or later, not level {t}")
    cols = i, s, k, *_ = directional_combos(nbr, levels, t, ccw=ccw)
    rows = farthest_per_point(s, k, i, nbr.n, ccw=ccw)
    return tuple(col[rows[rows >= 0]] for col in cols)


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
    units = np.ones(n)
    if t == 1:
        blocks = [(np.arange(n), *nbr.dominated_runs, units, np.full((n, 4), -1))]
    else:
        blocks = [directional_steps(nbr, levels, t, ccw=ccw) for ccw in (True, False)]
        blocks.append(bidirectional_combos(nbr, levels, t, units))
    cols = [np.concatenate(col) for col in zip(*blocks)]
    # blocks are concatenated in slot order, so a stable sort keeps it per owner
    order = np.argsort(cols[0], kind="stable")
    owners, starts, lengths, values, parents = (col[order] for col in cols)
    if check_invariants:
        check_level(nbr, levels, t, owners, starts, lengths, parents, values, units)
    return GreedyLevel(instance, t, levels, starts, lengths, owners, values, parents)


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
        c = level.cheapest_full()
        if c >= 0:
            witnesses = level.witnesses(c)
            if len(witnesses) != t:
                # the first full level equals the optimum cardinality
                raise SolverInvariantError(
                    f"first full candidate at level {t} has {len(witnesses)} witnesses"
                )
            return solution_of(instance, witnesses, "unweighted")
