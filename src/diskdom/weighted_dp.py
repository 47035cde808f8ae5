"""Minimum-weight dominating sets of convex-position disk graphs.

The solver grows per-point tables of candidates level by level.  A
candidate pairs a contiguous run of hull indices with a witness set that
dominates the run and a value bounding the witness weight.  Level t
candidates for point i are built three ways:

* counterclockwise: a run from i's own level-t' bucket, extended by the
  cheapest run from the level-(t-t') global level starting just past it,
  plus the stretch after that which disk i dominates by itself;
* clockwise: the mirror image; one routine (`directional_combos`) builds
  both;
* bidirectional: one run from i's bucket in each direction, meeting at i,
  with i's weight counted once (`bidirectional_combos`).

A level is a set of columns (`LevelTable`, on the `RunLevel` base the
unweighted search shares): each candidate's run as (start, length), its
owner, its value, and a parent row naming the lower-level candidates it
joins.  `build_level` makes every combination of a level in whole-level
numpy passes, one per direction and split level and one per bidirectional
split, over all points at once: runs merged row-wise by
`geometry.union_columns`, tails from the batched
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
once, as id arrays (`LevelTable.chains`).  A full-circle candidate of
minimum value over levels 1..k yields the answer for size bound k, for
every k at once (`solve_weighted_all_k`).

The tests compare each level with a point-by-point scalar twin and the
chains with plain-scan cheapest-enclosing queries
(`tests/weighted_reference.py`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .geometry import Instance, union_columns
from .neighbor_index import build_neighbor_index
from .solution import (
    Infeasible,
    RunLevel,
    Solution,
    check_level,
    check_size_bound,
    expand_runs,
    run_reach,
    solution_of,
)

CHAIN_BLOCK = 1 << 16  # (anchor, candidate) cells per pass of the global staircase


class LevelTable(RunLevel):
    """One level's candidates as columns in id order (`RunLevel`), plus `values`.

    Ids run owner by owner (bucket order), and within an owner in order of
    first arrival (`dedup_rows`).  A candidate's reach is how far past an
    anchor its run extends (counterclockwise or clockwise): n for a full
    run, -1 for a run missing the anchor.  A query of length q grown from
    the anchor lies inside it exactly when reach >= q - 1, so the cheapest
    answer to each query is the first candidate in (value, id) order
    reaching that far, and the chain of distinct answers holds the
    candidates reaching strictly farther than every one before them.
    """

    def __init__(self, instance: Instance, level: int, below, starts, lengths, owners, values,
                 parents):
        super().__init__(instance, level, below, starts, lengths, owners, parents)
        self.values = values
        self._chains: dict[tuple[bool, bool], tuple[np.ndarray, np.ndarray]] = {}

    def chains(self, *, bucket: bool, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """Every chain of one kind, as (ptr, ids): anchor a's is ids[ptr[a]:ptr[a + 1]].

        Bucket chains read only bucket a, anchored at its owner a; global
        chains read the whole level.  Built once per kind.
        """
        table = self._chains.get((bucket, ccw))
        if table is None:
            table = self._chains[bucket, ccw] = self._chain_table(bucket, ccw=ccw)
        return table

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


def directional_combos(nbr, levels: Sequence[Optional[LevelTable]], t: int, tp: int, *,
                       ccw: bool) -> tuple:
    """Every point's one-way level-t combinations of split level t', ccw or cw.

    Each run l1 of a point's level-t' bucket chain is extended by each run
    l2 of the level-(t-t') global chain anchored just past l1's far end,
    then by the stretch the point's disk meets past l2's far end
    (`runs_past`); the run is the union of the point's dominated run, l1,
    l2 and that tail, at value v1 + v2.  A full l1 is a combination by
    itself, at v1.  Rows come point by point, then in l1 and l2 chain
    order.  Returns int64 columns owners, starts, lengths, the float64
    values and (m, 4) parent rows.
    """
    n = nbr.n
    near, other = levels[tp], levels[t - tp]
    _, l1 = near.chains(bucket=True, ccw=ccw)
    s1, k1 = near.starts[l1], near.lengths[l1]
    ptr, l2s = other.chains(bucket=False, ccw=ccw)
    anchor = (s1 + k1) % n if ccw else (s1 - 1) % n
    full1 = k1 == n
    row, at = expand_runs(ptr[anchor], np.where(full1, 1, ptr[anchor + 1] - ptr[anchor]))
    l1, s1, k1, has2 = l1[row], s1[row], k1[row], ~full1[row]
    i = near.owners[l1]
    l2 = np.full_like(l1, -1)
    l2[has2] = l2s[at[has2]]
    s2, k2, tail_s, tail_k = (np.zeros_like(l1) for _ in range(4))  # empty parts
    s2[has2], k2[has2] = other.starts[l2[has2]], other.lengths[l2[has2]]
    # the tail only where l2 is partial: the union saturates on a full part
    open_ = has2 & (k2 < n)
    tail_s[open_], tail_k[open_] = nbr.runs_past(
        i[open_], ((s2 + k2 - 1) % n if ccw else s2)[open_], ccw=ccw
    )
    dom_s, dom_k = nbr.dominated_runs
    s, k = union_columns(n, ((dom_s[i], dom_k[i]), (s1, k1), (s2, k2), (tail_s, tail_k)))
    v1 = near.values[l1]
    values = v1.copy()
    values[has2] = v1[has2] + other.values[l2[has2]]
    parents = np.stack((np.full_like(l1, tp), l1, np.where(has2, t - tp, -1), l2), axis=1)
    return i, s, k, values, parents


def bidirectional_combos(nbr, levels: Sequence[Optional[LevelTable]], t: int, tp: int,
                         weights: np.ndarray) -> tuple:
    """Every point's combinations of a ccw run lx of level t' and a cw run ly of level t+1-t'.

    lx and ly walk the point's two bucket chains, ly fastest; the run is
    the union of the point's dominated run, lx and ly, at value
    (vx + vy) - wi, the point's weight counted once.  Columns as
    `directional_combos`.
    """
    n = nbr.n
    x, y = levels[tp], levels[t + 1 - tp]
    _, lx = x.chains(bucket=True, ccw=True)
    ptr, lys = y.chains(bucket=True, ccw=False)
    i = x.owners[lx]
    row, at = expand_runs(ptr[i], ptr[i + 1] - ptr[i])
    i, lx, ly = i[row], lx[row], lys[at]
    dom_s, dom_k = nbr.dominated_runs
    runs = ((dom_s[i], dom_k[i]), (x.starts[lx], x.lengths[lx]), (y.starts[ly], y.lengths[ly]))
    values = (x.values[lx] + y.values[ly]) - weights[i]
    parents = np.stack((np.full_like(i, tp), lx, np.full_like(i, t + 1 - tp), ly), axis=1)
    return (i, *union_columns(n, runs), values, parents)


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
        check_level(nbr, levels, t, owners, starts, lengths, parents, values)
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
    best, answer = None, None  # (value, level, id) of the cheapest full candidate so far
    for t in range(1, k + 1):
        level = build_level(instance, nbr, levels, t, check_invariants=check_invariants)
        levels.append(level)
        if t == 1 and k < n and nbr.domination_lower_bound() > k:
            return {kp: Infeasible(kp) for kp in range(1, k + 1)}
        full = np.flatnonzero(level.lengths == n)
        if len(full):
            c = int(full[np.argmin(level.values[full])])
            if best is None or level.values[c] < best[0]:
                best = (level.values[c], level, c)
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
