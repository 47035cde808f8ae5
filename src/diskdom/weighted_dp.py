"""Minimum-weight dominating sets of convex-position disk graphs.

The solver grows per-point tables of candidates level by level.  A
candidate pairs a contiguous run of hull indices with a witness set that
dominates the run and a value bounding the witness weight.  Level t
candidates for point i are built three ways, by the combination steps
both solvers share (`solution.directional_combos`,
`solution.bidirectional_combos`):

* counterclockwise: a run from i's own level-t' bucket, extended by the
  cheapest run from the level-(t-t') global level starting just past it,
  that run lengthened by the stretch after it which disk i dominates by
  itself;
* clockwise: the mirror image, built by the same routine;
* bidirectional: one run from i's bucket in each direction, meeting at i,
  with i's weight counted once.

A level is a set of columns (`LevelTable`, on the `solution.RunLevel`
base the unweighted search shares): each candidate's run as (start,
length), its owner, its value, and a parent row naming the lower-level
candidates it joins.  `build_level` makes every combination of a level
in three numpy passes (ccw, cw, bidirectional), each over all points and
split levels: tails from the batched `neighbor_index.runs_past`, each
lengthening the run it starts past, and two runs merged per row by
`geometry.union_columns`.  In a size-k solve a pair of parts valued
above a ceiling makes no row at all (the ceiling below).  One rule then
decides which rows the level keeps (`keep_rows`): per run in each
bucket, the first of its cheapest copies, only when strictly cheaper
than every lower level's copy (the prune below).  No combination is an
object: the winner's witness set is rebuilt by walking its parents, and
`check_invariants=True` first checks every row made against its parents
(`solution.check_level`).

Each combination asks a built level for the cheapest run containing a
query run that grows from a fixed anchor, one index at a time.  The answer
only changes when the query outgrows it, so the solver consumes whole
scan chains: the distinct answers in order of growing query.  A chain is
read off a staircase.  Walking a level's candidates in (value, id) order,
the ones that reach strictly farther from the anchor than every cheaper
candidate are exactly the chain.  A level builds all chains of one kind at
once, as id arrays (`LevelTable._chain_table`), off orders it sorts once
for all four kinds (`LevelTable._staircase_orders`).  A full-circle
candidate of minimum value over levels 1..k yields the answer for size
bound k, for every k at once (`solve_weighted_all_k`).

A full l1 makes no directional combination, not even a copy of itself
one level up.  Weights are positive, so a row with a full part is itself
full and no cheaper than that part, which is already a full row at a
lower level; the answers take a full row only when it is strictly
cheaper than every one before it, and a full row is never a part of a
partial one.  So no answer depends on such rows, and every row of a
level t >= 2 joins two parents.

Three more lemmas let the solve build fewer levels and rows, and change
no answer (`tests/weighted_reference.unpruned_answers` is the build
without the first two, `solve_weighted_all_k` the build without the
third, and the tests compare every answer with them, centers and weight
bits):

* The prune.  `build_level` drops a level-t row when levels 1..t-1 hold
  its owner and run at a value no larger (`keep_rows`, reading the run
  table: one sorted array of distinct keys, which each level takes over
  from the one below and extends).  A combination
  that uses the dropped row as a part has a twin that uses the lower row
  instead: the same parts' runs, so the same run, at a lower level, and,
  as float addition is monotone (a <= a' gives a + b <= a' + b and
  (a + b) - w <= (a' + b) - w), a value no larger.  So a lower level
  offers every full row the dropped one leads to, as cheap or cheaper, and
  at equal value the lower level comes first, as the answers' rule asks.
* The cap.  Let V be the cheapest full value over levels 1..t, and K the
  number of prefix sums of the ascending weights at most
  V * (1 + VALUE_SLACK).  Weights are positive, so a set of more than K
  disks weighs at least the K + 1 lightest, more than V; the slack covers
  the rounding of the prefix sums and of a row's value (each a float sum
  of at most n weights).  So no set of more than K disks beats V, and an
  optimum of at most K disks is a full row by level K:
  `solve_weighted_all_k` stops at level min(k, K), and the answers above
  it are the answer there.
* The ceiling.  `solve_weighted` first covers the circle with level-1
  runs, greedily (`greedy_cover`).  When the cover has at most k disks it
  is a dominating set of size at most k, so its weight U (summed exactly
  rounded) bounds the optimum for k, and no level makes a row valued
  above C = U * (1 + VALUE_SLACK) (`greedy_ceiling`): level 1 keeps the
  disks weighing at most C, and the combination steps drop each pair of
  parts whose value, v1 + v2 or (vx + vy) - wi, exceeds C before its
  tail, union or parent row is made.  That test is the very float
  expression that becomes the row's value, so from the same lower levels
  the steps make exactly the rows at or below C that they make without
  a ceiling, in the same arrival order, and `keep_rows` sees what it saw
  when it dropped the rows above C itself.  So the argument below, which
  reads as if every row were made and those above C then dropped, holds
  as it stands.  A row is no cheaper than either part
  up to rounding: v1 + v2 is at least v1 and v2 as floats, and both parts
  of a stitched row are rows of i, each at least wi, so (vx + vy) - wi is
  at least (1 - 3u) times either, u = 2^-53.  Let T_t = C * (1 - 3u)^t.
  By induction on t, level t's rows at or below T_t are the same with and
  without the ceiling, in the same (value, id) order, with the same
  witness sets.  Their parts lie at or below T_{t-1}, where the lower
  levels agree, and every dropped row sorts after the rows kept; so the
  staircases agree up to T_{t-1}, and so do the combinations at or below
  T_t and their arrival order, the first cheapest copy of each of their
  runs, and the place it takes, since ids follow the kept copies'
  arrival and no dropped copy moves one.  A prune of theirs reads a run
  table value no larger than the row, held by a row the builds share.
  The answer for k weighs the optimum, at most U, up to the rounding of a
  row's value and of U, well below T_k (k * 2^-50 is far below
  VALUE_SLACK), and no full row below it is new, so the answer and its
  tie-break stand.  The cap's argument holds with C for V, as U bounds
  the optimum, so the cap starts at min(k, K(C)); and the counting
  bound, at most the cover's size, is not asked.  No full row by the cap
  means the lemma broke, and raises SolverInvariantError.
  `solve_weighted_all_k` takes no ceiling: its answers for k' below the
  cover's size may weigh more than U.

Every sort on this path is plain, numpy's fastest, and numpy leaves the
order of its equal keys open (it varies by version and CPU).  So each one
sorts distinct keys, or only the least index among equal keys is read: no
level, chain or answer depends on that order.

The tests compare each level with a point-by-point scalar twin and the
chains with plain-scan cheapest-enclosing queries
(`tests/weighted_reference.py`).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import Instance
from .neighbor_index import build_neighbor_index
from .solution import (
    VALUE_SLACK,
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

CHAIN_BLOCK = 1 << 16  # (anchor, candidate) cells per pass of the global staircase


def run_keys(n: int, owners, starts, lengths) -> np.ndarray:
    """Each row's (owner, start, length) packed into one int64 key, ordered as the triple."""
    return (owners * n + starts) * (n + 1) + lengths


class LevelTable(RunLevel):
    """One level's candidates as columns in id order (`RunLevel`), with every staircase.

    Ids run owner by owner (bucket order), and within an owner in the order
    the kept copies arrived (`keep_rows`).  Its chains are whole
    staircases: every candidate reaching strictly farther than every one
    before it in (value, id) order.  `build_level` leaves the run table of levels 1..t
    (`keep_rows`) in `run_table`, and level t + 1 takes it over, leaving
    None: one table is alive at a time.
    """

    run_table: Optional[tuple[np.ndarray, np.ndarray]]

    @cached_property
    def _staircase_orders(self) -> tuple[np.ndarray, np.ndarray]:
        """The ids each kind of staircase walks, sorted once for both directions.

        Bucket: every id in (owner, value, id) order.  Global: the first
        copy of each run in (value, id) order, as a later copy never
        reaches farther.  Each sort is plain: its keys are distinct, or only
        the least index among equal keys is read, so neither order depends
        on how a sort leaves equal keys.
        """
        n, m = self.n, len(self.values)
        order = np.argsort(self.values)
        v = self.values[order]
        rank = np.cumsum(np.diff(v, prepend=v[:1]) != 0)  # per sorted value; equal values tie
        by_value = np.sort(rank * m + order) % m  # (value, id) order
        by_owner = by_value[np.sort(self.owners[by_value] * m + np.arange(m)) % m]
        runs = (self.starts * (n + 1) + self.lengths)[by_value]
        copies = np.argsort(runs)
        first = np.minimum.reduceat(copies, np.flatnonzero(np.diff(runs[copies], prepend=-1)))
        return by_owner, by_value[np.sort(first)]

    def _chain_table(self, bucket: bool, *, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """The staircases of one kind, all anchors in whole-array passes.

        Both walk the level's `_staircase_orders`.  Bucket chains: one pass,
        where the running best is a running maximum of owner * (n + 2) +
        reach + 1, a key that grows with the owner.  Global chains: blocks
        of anchors against the first copy of each run.
        """
        n = self.n
        by_owner, first_copies = self._staircase_orders
        if bucket:
            order = by_owner
            anchors = self.owners[order]
            reach = run_reach(self.starts[order], self.lengths[order], anchors, n, ccw=ccw)
            key = anchors * (n + 2) + reach + 1
            best = np.maximum.accumulate(key)
            # a run that misses its owner (only in levels built from arbitrary runs) is no step
            step = (reach >= 0) & (key > np.concatenate(([-1], best[:-1])))
            rows, ids = anchors[step], order[step]
        else:
            order = first_copies
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


def keep_rows(n: int, owners, starts, lengths, values, runs) -> tuple[np.ndarray, tuple]:
    """The rows a level keeps, in id order, and the run table through this level.

    Rows are level t's combinations, in arrival order within each owner;
    under a ceiling, only those at or below it were made (`build_level`).
    `runs` is the run table of levels 1..t-1: every (owner, run) key they
    hold (`run_keys`), sorted and distinct, with its least value.  A row is
    kept when it is the first of its (owner, run)'s cheapest copies in the
    level and strictly cheaper than the table's value for that key, so a
    lower level wins ties (the prune of the module docstring).  Ids run
    owner by owner, then in the order the kept copies arrived: no dropped
    copy moves a kept row.  One plain sort groups the copies; per group,
    minimum reductions read the least value and the first copy at that
    value, so nothing depends on how the sort leaves equal keys.  The
    group keys come out sorted and distinct: one `searchsorted` into the
    table serves the prune and the update, where a held key keeps the
    lesser value and a new one is inserted in place.
    """
    m = len(owners)
    key = run_keys(n, owners, starts, lengths)
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, v = key[first], values[order]
    least = np.minimum.reduceat(v, first)
    cheapest = np.repeat(least, np.diff(first, append=m)) == v
    kept = np.minimum.reduceat(np.where(cheapest, order, m), first)
    table_keys, table_values = runs
    at = np.searchsorted(table_keys, key)
    held = at < len(table_keys)
    held[held] = table_keys[at[held]] == key[held]
    lower = np.full(len(key), np.inf)
    lower[held] = table_values[at[held]]
    best, new = table_values.copy(), ~held
    best[at[held]] = np.minimum(lower[held], least[held])
    runs = np.insert(table_keys, at[new], key[new]), np.insert(best, at[new], least[new])
    kept = kept[least < lower]
    return kept[np.argsort(owners[kept] * m + kept)], runs


def build_level(
    instance: Instance,
    nbr,
    levels: Sequence[Optional[LevelTable]],
    t: int,
    *,
    ceiling: float = math.inf,
    check_invariants: bool = False,
) -> LevelTable:
    """Level t, combined from levels 1..t-1 (`levels[t']`).

    Level 1 holds one candidate per point: its own dominated run at its
    own weight.  Later levels hold, per point, its ccw combinations by
    split level, then its cw ones, then its bidirectional ones.  No row
    valued above `ceiling` is made, at level 1 or by the combination
    steps.  `keep_rows` then drops a later copy of a run no cheaper, and
    a run levels 1..t-1 already hold at a value no larger.  Their run
    table is taken over from level t-1 (`LevelTable.run_table`).  With
    `check_invariants`, every row made, same-run copies and pruned rows
    included, is first checked against its parents (`check_level`).
    """
    n = instance.n
    weights = instance.ws
    if t == 1:
        cheap = np.flatnonzero(weights <= ceiling)
        dom_s, dom_k = nbr.dominated_runs
        blocks = [(cheap, dom_s[cheap], dom_k[cheap], weights[cheap], np.full((len(cheap), 4), -1))]
        runs = np.zeros(0, np.int64), np.zeros(0)
    else:
        blocks = [directional_combos(nbr, levels, t, ccw=ccw, ceiling=ceiling)
                  for ccw in (True, False)]
        blocks.append(bidirectional_combos(nbr, levels, t, weights, ceiling))
        runs, levels[t - 1].run_table = levels[t - 1].run_table, None
    # concatenated block by block, each owner's rows stay in arrival order
    owners, starts, lengths, values, parents = (np.concatenate(col) for col in zip(*blocks))
    if check_invariants:
        check_level(nbr, levels, t, owners, starts, lengths, parents, values, weights)
    keep, runs = keep_rows(n, owners, starts, lengths, values, runs)
    level = LevelTable(
        instance, t, levels, starts[keep], lengths[keep], owners[keep], values[keep], parents[keep]
    )
    level.run_table = runs
    return level


def greedy_cover(nbr) -> np.ndarray:
    """A set of disks whose dominated runs cover the circle, in ascending canonical order.

    Chvatal's greedy set cover over the level-1 runs (`dominated_runs`):
    it takes the disk of least weight per still-uncovered disk in its run,
    ties to the smaller id, until every disk is covered, and then drops
    each pick the other picks still cover, heaviest first (ties to the
    smaller id).  Every disk of a disk's run meets it, so the set dominates.
    """
    n, weights = nbr.n, nbr.instance.ws
    starts, lengths = nbr.dominated_runs

    def run(i: int) -> np.ndarray:
        return (starts[i] + np.arange(lengths[i])) % n

    uncovered, picks = np.ones(n, bool), []
    while uncovered.any():
        # uncovered disks per run, off prefix counts over the circle laid out twice
        before = np.concatenate(([0], np.cumsum(np.tile(uncovered, 2))))
        count = before[starts + lengths] - before[starts]
        i = int(np.argmin(np.where(count > 0, weights / np.maximum(count, 1), np.inf)))
        picks.append(i)
        uncovered[run(i)] = False
    covers = np.bincount(np.concatenate([run(i) for i in picks]), minlength=n)
    for i in sorted(picks, key=lambda i: (-weights[i], i)):
        if covers[run(i)].min() > 1:
            covers[run(i)] -= 1
            picks.remove(i)
    return np.sort(np.array(picks, np.int64))


def greedy_ceiling(nbr, k: int) -> float:
    """The ceiling above which a size-k solve drops rows (module docstring), or inf for none.

    The `greedy_cover`'s weight U, summed exactly rounded, times
    1 + VALUE_SLACK; inf when the cover has more than k disks.
    """
    cover = greedy_cover(nbr)
    if len(cover) > k:
        return math.inf
    return math.fsum(nbr.instance.ws[cover].tolist()) * (1 + VALUE_SLACK)


def level_answers(instance: Instance, nbr, k: int, ceiling: float,
                  check_invariants: bool) -> dict[int, Union[Solution, Infeasible]]:
    """The cheapest full candidate over levels 1..k', per k' = 1..k, rows above `ceiling` dropped.

    The build stops at the level cap, which starts at min(k, K(ceiling))
    (module docstring).  With no ceiling, when the counting bound
    (`domination_lower_bound`) already exceeds k, every answer is
    Infeasible and no level is combined past level 1.  With a ceiling, a
    cover of at most k disks is in hand, so that bound is not asked, and
    only the answer for k is exact: when no full row at or below the
    ceiling appears by the cap, SolverInvariantError is raised.
    """
    n = instance.n
    levels: list[Optional[LevelTable]] = [None]
    answers: dict[int, Union[Solution, Infeasible]] = {}
    lightest = np.cumsum(np.sort(instance.ws))  # the s lightest weights' sum, s = 1..n
    best, answer = None, None  # the cheapest full candidate so far
    cap = min(k, int(np.searchsorted(lightest, ceiling, "right")))  # the level cap
    for t in range(1, k + 1):
        level = build_level(
            instance, nbr, levels, t, ceiling=ceiling, check_invariants=check_invariants
        )
        levels.append(level)
        if t == 1 and ceiling == math.inf and k < n and nbr.domination_lower_bound() > k:
            return {kp: Infeasible(kp) for kp in range(1, k + 1)}
        c = level.cheapest_full()
        if c >= 0 and (best is None or level.values[c] < best):
            best = level.values[c]
            answer = solution_of(instance, level.witnesses(c), "weighted")
            cap = min(cap, int(np.searchsorted(lightest, best * (1 + VALUE_SLACK), "right")))
        answers[t] = Infeasible(t) if answer is None else answer
        if t >= cap:
            break
    if answer is None and ceiling < math.inf:
        raise SolverInvariantError(f"no full row at or below the ceiling {ceiling!r} by level {t}")
    return answers | {kp: answer for kp in range(t + 1, k + 1)}


def solve_weighted_all_k(
    instance: Instance, k: int, *, check_invariants: bool = False
) -> dict[int, Union[Solution, Infeasible]]:
    """Every size bound k' = 1..k answered from one build of levels 1..k at most.

    Level t does not depend on k, so the answer for k' is the cheapest full
    candidate over levels 1..k' (the first one at equal value), or an
    `Infeasible(k')` value when there is none.  The build stops at the
    level cap (module docstring): once the cheapest full value V so far
    leaves room for no set of more than K disks, K read off the prefix sums
    of the ascending weights, no level past min(k, K) is built, and every
    answer above it is the answer there.  When the counting bound
    (`domination_lower_bound`) already exceeds k, every answer is
    Infeasible and no level is combined past level 1.  No ceiling drops
    rows: an answer for k' below the greedy cover's size may weigh more
    than that cover (module docstring).  `check_invariants=True` checks
    every combination of every level (`check_level`) and raises
    SolverInvariantError on a broken one; it changes no answer.
    """
    check_size_bound("k", k, instance.n)
    return level_answers(instance, build_neighbor_index(instance), k, math.inf, check_invariants)


def solve_weighted(instance: Instance, k: int, *, check_invariants: bool = False) -> Solution:
    """Minimum-weight dominating set of size at most k, or Infeasible.

    Deterministic for fixed inputs; `solve_weighted_all_k`'s answer for k,
    `check_invariants` included, from fewer rows: when the `greedy_cover`
    has at most k disks, every row valued above its ceiling is dropped
    (module docstring) and the counting bound is not asked.  Otherwise,
    when the counting bound already exceeds k, Infeasible is raised right
    after level 1.
    """
    check_size_bound("k", k, instance.n)
    nbr = build_neighbor_index(instance)
    ceiling = greedy_ceiling(nbr, k)
    answer = level_answers(instance, nbr, k, ceiling, check_invariants)[k]
    if isinstance(answer, Infeasible):
        raise answer
    return answer


def solve_weighted_unbounded(instance: Instance, **kwargs) -> Solution:
    """Minimum-weight dominating set with no size bound (k = n is always feasible).

    The greedy cover always fits in n disks, so its ceiling drops every row
    dearer than it and the level cap starts at the count of lightest
    weights it leaves room for; the cap then stops the build once no set
    larger than the level reached can be cheaper than the cheapest full
    row so far, so it builds about as many levels as the optimum has
    disks, not n.
    """
    return solve_weighted(instance, instance.n, **kwargs)
