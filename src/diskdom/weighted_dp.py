"""Minimum-weight dominating sets of convex-position disk graphs.

The solver grows per-point tables of candidates level by level.  A
candidate pairs a contiguous run of hull indices with a witness set that
dominates the run and a value bounding the witness weight.  Level t
candidates for point i are built three ways, by the combination steps
both solvers share (`solution.directional_combos`,
`solution.bidirectional_combos`):

* counterclockwise: a run from i's own level-t' bucket, extended by the
  cheapest run from the level-(t-t') global level starting just past it,
  plus the stretch after that which disk i dominates by itself;
* clockwise: the mirror image, built by the same routine;
* bidirectional: one run from i's bucket in each direction, meeting at i,
  with i's weight counted once.

A level is a set of columns (`LevelTable`, on the `solution.RunLevel`
base the unweighted search shares): each candidate's run as (start,
length), its owner, its value, and a parent row naming the lower-level
candidates it joins.  `build_level` makes every combination of a level
in whole-level numpy passes, one per direction and split level and one
per bidirectional split, over all points at once: runs merged row-wise
by `geometry.union_columns`, tails from the batched
`neighbor_index.runs_past`.  `dedup_rows` then keeps one combination per
run in each bucket, the first to arrive, replaced only by a strictly
cheaper copy, in one sort.  No combination is an object: the winner's
witness set is rebuilt by walking its parents, and `check_invariants=True`
checks every combination against its parents first (`solution.check_level`).

Each combination asks a built level for the cheapest run containing a
query run that grows from a fixed anchor, one index at a time.  The answer
only changes when the query outgrows it, so the solver consumes whole
scan chains: the distinct answers in order of growing query.  A chain is
read off a staircase.  Walking a level's candidates in (value, id) order,
the ones that reach strictly farther from the anchor than every cheaper
candidate are exactly the chain.  A level builds all chains of one kind at
once, as id arrays (`LevelTable._chain_table`).  A full-circle candidate
of minimum value over levels 1..k yields the answer for size bound k, for
every k at once (`solve_weighted_all_k`).

The tests compare each level with a point-by-point scalar twin and the
chains with plain-scan cheapest-enclosing queries
(`tests/weighted_reference.py`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .geometry import Instance
from .neighbor_index import build_neighbor_index
from .solution import (
    Infeasible,
    RunLevel,
    Solution,
    bidirectional_combos,
    check_level,
    check_size_bound,
    directional_combos,
    run_reach,
    solution_of,
)

CHAIN_BLOCK = 1 << 16  # (anchor, candidate) cells per pass of the global staircase


class LevelTable(RunLevel):
    """One level's candidates as columns in id order (`RunLevel`), with every staircase.

    Ids run owner by owner (bucket order), and within an owner in order of
    first arrival (`dedup_rows`).  Its chains are whole staircases: every
    candidate reaching strictly farther than every one before it in
    (value, id) order.
    """

    def _chain_table(self, bucket: bool, *, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """The staircases of one kind, all anchors in whole-array passes.

        Bucket chains: one pass in (owner, value, id) order, where the
        running best is a running maximum of owner * (n + 2) + reach + 1,
        a key that grows with the owner.  Global chains: blocks of anchors
        against the first copy of each run in (value, id) order.
        """
        n = self.n
        if bucket:
            order = np.lexsort((self.values, self.owners))
            anchors = self.owners[order]
            reach = run_reach(self.starts[order], self.lengths[order], anchors, n, ccw=ccw)
            key = anchors * (n + 2) + reach + 1
            best = np.maximum.accumulate(key)
            step = (reach >= 0) & (key > np.concatenate(([-1], best[:-1])))
            rows, ids = anchors[step], order[step]
        else:
            order = np.argsort(self.values, kind="stable")
            # a later copy of a run never reaches farther than its first copy
            runs = self.starts[order] * (n + 1) + self.lengths[order]
            order = order[np.sort(np.unique(runs, return_index=True)[1])]
            starts, lengths = self.starts[order], self.lengths[order]
            block = max(1, CHAIN_BLOCK // max(len(order), 1))
            rows, cols = [], []
            for lo in range(0, n, block):
                anchor = np.arange(lo, min(n, lo + block))[:, None]
                best = np.maximum.accumulate(run_reach(starts, lengths, anchor, n, ccw=ccw), axis=1)
                r, c = np.nonzero(np.diff(best, axis=1, prepend=-1) > 0)
                rows.append(r + lo)
                cols.append(c)
            rows, ids = np.concatenate(rows), order[np.concatenate(cols)]
        return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), ids


def dedup_rows(n: int, owners, starts, lengths, values) -> np.ndarray:
    """The rows a level keeps, in id order: one per (owner, run).

    Rows are combinations in arrival order within each owner.  A run's
    first row fixes its place in the owner's bucket, and its kept row is
    the first of its cheapest copies: a later copy wins only when strictly
    cheaper.  One stable sort on the packed key (owner, start, length),
    then value, leaves each run's copies cheapest first, equal values in
    arrival order.
    """
    key = (owners * n + starts) * (n + 1) + lengths
    order = np.lexsort((values, key))
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    kept = order[first]
    arrival = np.minimum.reduceat(order, first) if len(order) else first
    return kept[np.argsort(owners[kept] * len(order) + arrival)]


def build_level(
    instance: Instance,
    nbr,
    levels: Sequence[Optional[LevelTable]],
    t: int,
    *,
    check_invariants: bool = False,
) -> LevelTable:
    """Level t, combined from levels 1..t-1 (`levels[t']`).

    Level 1 holds one candidate per point: its own dominated run at its
    own weight.  Later levels hold, per point, its ccw combinations by
    split level, then its cw ones, then its bidirectional ones, deduplicated
    by `dedup_rows`.  With `check_invariants`, every combination, same-run
    copies included, is first checked against its parents (`check_level`).
    """
    n = instance.n
    weights = instance.ws
    if t == 1:
        blocks = [(np.arange(n), *nbr.dominated_runs, weights, np.full((n, 4), -1))]
    else:
        blocks = [
            directional_combos(nbr, levels, t, tp, ccw=ccw)
            for ccw in (True, False)
            for tp in range(1, t)
        ]
        blocks += [bidirectional_combos(nbr, levels, t, tp, weights) for tp in range(2, t)]
    # concatenated block by block, each owner's rows stay in arrival order
    owners, starts, lengths, values, parents = (np.concatenate(col) for col in zip(*blocks))
    if check_invariants:
        check_level(nbr, levels, t, owners, starts, lengths, parents, values, weights)
    keep = dedup_rows(n, owners, starts, lengths, values)
    return LevelTable(
        instance, t, levels, starts[keep], lengths[keep], owners[keep], values[keep], parents[keep]
    )


def solve_weighted_all_k(
    instance: Instance, k: int, *, check_invariants: bool = False
) -> dict[int, Union[Solution, Infeasible]]:
    """Every size bound k' = 1..k answered from one build of levels 1..k.

    Level t does not depend on k, so the answer for k' is the cheapest full
    candidate over levels 1..k' (the first one at equal value), or an
    `Infeasible(k')` value when there is none.  When the counting bound
    (`domination_lower_bound`) already exceeds k, every answer is
    Infeasible and no level is combined past level 1.
    `check_invariants=True` checks every combination of every level
    (`check_level`) and raises SolverInvariantError on a broken one; it
    changes no answer.
    """
    check_size_bound("k", k, instance.n)
    n = instance.n
    nbr = build_neighbor_index(instance)
    levels: list[Optional[LevelTable]] = [None]
    answers: dict[int, Union[Solution, Infeasible]] = {}
    best, answer = None, None  # the cheapest full candidate so far: its value and Solution
    for t in range(1, k + 1):
        level = build_level(instance, nbr, levels, t, check_invariants=check_invariants)
        levels.append(level)
        if t == 1 and k < n and nbr.domination_lower_bound() > k:
            return {kp: Infeasible(kp) for kp in range(1, k + 1)}
        c = level.cheapest_full()
        if c >= 0 and (best is None or level.values[c] < best):
            best = level.values[c]
            answer = solution_of(instance, level.witnesses(c), "weighted")
        answers[t] = Infeasible(t) if answer is None else answer
    return answers


def solve_weighted(instance: Instance, k: int, *, check_invariants: bool = False) -> Solution:
    """Minimum-weight dominating set of size at most k, or Infeasible.

    Deterministic for fixed inputs; `solve_weighted_all_k`'s answer for k,
    `check_invariants` included.  When the counting bound already exceeds
    k, Infeasible is raised right after level 1.
    """
    answer = solve_weighted_all_k(instance, k, check_invariants=check_invariants)[k]
    if isinstance(answer, Infeasible):
        raise answer
    return answer


def solve_weighted_unbounded(instance: Instance, **kwargs) -> Solution:
    """Minimum-weight dominating set with no size bound (k = n is always feasible)."""
    return solve_weighted(instance, instance.n, **kwargs)
