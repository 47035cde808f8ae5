"""Smallest dominating sets of convex-position disk graphs.

Same level structure as the weighted solver, but cardinality replaces
weight, so each step can be greedy: per direction and split level it keeps
only the candidate reaching farthest around the circle, which caps every
bucket at O(level) entries.  The first level that produces a full-circle
candidate ends the search; that candidate's witnesses are a smallest
dominating set.

Runs are (start, length) pairs of integers throughout, merged by
`geometry.union_runs`.  One directional step (`greedy_step`, with the
direction as a parameter) serves both ways round and scores every split
level on them: the far-end lookup in a frozen level reads answers that
a numpy sweep computed for all n indexes at freeze time.  Only each
step's winner becomes a `GreedyCandidate` with its run and witness set.

The tests swap in a plain-scan twin of that sweep
(`tests/query_reference.py`) and check that the solves agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import Instance, union_runs
from .neighbor_index import build_neighbor_index
from .solution import (
    Infeasible,
    Solution,
    SolverInvariantError,
    check_dominated_run,
    check_frozen,
    check_size_bound,
    solution_of,
)
from .sublist_queries import FarthestEnclosingIndex


@dataclass(frozen=True)
class GreedyCandidate:
    """The run (start, length) through `owner`, dominated by `witnesses`."""

    start: int
    length: int
    witnesses: frozenset[int]
    owner: int
    level: int


def make_greedy_validator(instance: Instance) -> Callable[[GreedyCandidate], None]:
    """Checks run on every inserted candidate; failures raise SolverInvariantError."""
    n = instance.n

    def validate(cand: GreedyCandidate) -> None:
        check_dominated_run(instance, cand)
        if (cand.owner - cand.start) % n >= cand.length:
            raise SolverInvariantError(f"owner outside its run: {cand}")

    return validate


def _reach(start: int, length: int, i: int, n: int, ccw: bool) -> int:
    """Steps a run through i extends past i, counterclockwise or clockwise; n when full."""
    if length == n:
        return n
    return (start + length - 1 - i) % n if ccw else (i - start) % n


class GreedyLevel:
    """One level's candidates with cached per-point directional extremes.

    The extremes (farthest-reaching candidate each way around from the
    owning point) are kept up on insertion from the runs' integer starts
    and lengths, so later levels read them in O(1).  `freeze()` assigns
    ids (bucket order, then insertion order), keeps every run's start and
    length in lists ordered by id, builds the level's farthest-run index
    from those arrays (`FarthestEnclosingIndex`, whose numpy sweep answers
    all n indexes in both directions) and records the first full candidate,
    if any.  Steps read the farthest answers from `far_ccw`/`far_cw`, the
    index's answer lists.
    """

    def __init__(
        self,
        instance: Instance,
        nbr,
        level: int,
        *,
        validator: Optional[Callable[[GreedyCandidate], None]] = None,
    ):
        self.instance = instance
        self.nbr = nbr
        self.level = level
        self.validator = validator
        self.frozen = False
        self.n = n = instance.n
        self.buckets: list[list[GreedyCandidate]] = [[] for _ in range(n)]
        self._ext_ccw: list[Optional[GreedyCandidate]] = [None] * n
        self._ext_cw: list[Optional[GreedyCandidate]] = [None] * n
        self._reach_ccw = [-1] * n
        self._reach_cw = [-1] * n
        self.full_candidate: Optional[GreedyCandidate] = None
        self._by_id: list[GreedyCandidate] = []
        self.starts: list[int] = []  # run start of each candidate id
        self.lengths: list[int] = []  # run length of each candidate id
        # per index j: id of the candidate through j reaching farthest, or None
        self.far_ccw: Sequence[Optional[int]] = []
        self.far_cw: Sequence[Optional[int]] = []

    def insert(self, i: int, cand: GreedyCandidate) -> None:
        if self.frozen:
            raise SolverInvariantError(f"insert into frozen level {self.level}")
        if self.validator is not None:
            self.validator(cand)
        self.buckets[i].append(cand)
        s, k, n = cand.start, cand.length, self.n
        if k == n and self.full_candidate is None:
            self.full_candidate = cand
        r_ccw, r_cw = _reach(s, k, i, n, True), _reach(s, k, i, n, False)
        if r_ccw > self._reach_ccw[i]:
            self._reach_ccw[i], self._ext_ccw[i] = r_ccw, cand
        if r_cw > self._reach_cw[i]:
            self._reach_cw[i], self._ext_cw[i] = r_cw, cand

    def freeze(self) -> None:
        n = self.n
        self._by_id = [cand for bucket in self.buckets for cand in bucket]
        self.starts = [cand.start for cand in self._by_id]
        self.lengths = [cand.length for cand in self._by_id]
        far = FarthestEnclosingIndex(
            np.array(self.starts, dtype=np.int64), np.array(self.lengths, dtype=np.int64), n
        )
        self.far_ccw, self.far_cw = far.ccw_ids, far.cw_ids
        if self.validator is not None:
            self._check_extremes()
        self.frozen = True

    def _check_extremes(self) -> None:
        n = self.n
        for i, bucket in enumerate(self.buckets):
            for f, ccw in ((self._ext_ccw[i], True), (self._ext_cw[i], False)):
                best = max((_reach(c.start, c.length, i, n, ccw) for c in bucket), default=-1)
                got = -1 if f is None else _reach(f.start, f.length, i, n, ccw)
                if got != best:
                    raise SolverInvariantError(
                        f"cached extreme of point {i} reaches {got}, not {best}"
                    )

    def all_candidates(self) -> Sequence[GreedyCandidate]:
        check_frozen(self)
        return self._by_id

    def extreme(self, i: int, *, ccw: bool) -> Optional[GreedyCandidate]:
        """Point i's candidate reaching farthest counterclockwise (or clockwise) from i."""
        return (self._ext_ccw if ccw else self._ext_cw)[i]


def greedy_step(
    levels: Sequence[Optional[GreedyLevel]], i: int, t: int, *, ccw: bool
) -> Optional[GreedyCandidate]:
    """Farthest-reaching extension of i's cached extremes, ccw or cw.

    One combination per split level t' is scored on (start, length)
    integers: i's own level-t' extreme l1, the level-(t-t') run reaching
    farthest past l1's far end, and the stretch disk i dominates beyond
    that, merged with i's dominated run (`neighbor_index.one_way_run`).
    The one reaching farthest from i wins, ties to the smaller t'; only
    the winner becomes a `GreedyCandidate`.
    """
    if t < 2:
        raise SolverInvariantError(f"a step builds level 2 or later, not level {t}")
    table1 = levels[1]
    nbr, n = table1.nbr, table1.n
    dom = nbr.dominated_run(i)
    best = None  # (l1, level of l2, id of l2 or None, start, length)
    best_reach = -1
    for tp in range(1, t):
        l1 = levels[tp].extreme(i, ccw=ccw)
        if l1 is None:
            continue
        s1, k1 = l1.start, l1.length
        other = levels[t - tp]
        if k1 == n:
            hit, s, k = None, 0, n
        else:
            hit = other.far_ccw[(s1 + k1) % n] if ccw else other.far_cw[(s1 - 1) % n]
            if hit is None:
                continue
            run2 = other.starts[hit], other.lengths[hit]
            s, k = nbr.one_way_run(i, dom, (s1, k1), run2, ccw=ccw)
        r = _reach(s, k, i, n, ccw)
        if r > best_reach:
            best, best_reach = (l1, other, hit, s, k), r
    if best is None:
        return None
    l1, other, hit, s, k = best
    witnesses = l1.witnesses
    if hit is not None:
        witnesses = witnesses | other.all_candidates()[hit].witnesses
    return GreedyCandidate(s, k, witnesses, i, t)


def greedy_bidirectional_step(
    levels: Sequence[Optional[GreedyLevel]], i: int, t: int
) -> list[GreedyCandidate]:
    """One stitched candidate per split level: ccw and cw extremes joined at i."""
    table1 = levels[1]
    n = table1.n
    dom = table1.nbr.dominated_run(i)
    out = []
    for tp in range(2, t):
        lx = levels[tp].extreme(i, ccw=True)
        ly = levels[t + 1 - tp].extreme(i, ccw=False)
        if lx is None or ly is None:
            continue
        s, k = union_runs(n, (dom, (lx.start, lx.length), (ly.start, ly.length)))
        out.append(GreedyCandidate(s, k, lx.witnesses | ly.witnesses, i, t))
    return out


def solve_unweighted(
    instance: Instance, k_cap: Optional[int] = None, *, check_invariants: bool = False
) -> Solution:
    """Smallest dominating set; Infeasible only when k_cap cuts the search off.

    A k_cap below the counting bound (`domination_lower_bound`) raises
    Infeasible right after level 1.  SolverInvariantError reports a search
    that broke its own guarantees: no full candidate by level n, or a
    first full candidate whose witness count differs from its level.
    `check_invariants=True` also validates every inserted candidate.
    """
    if k_cap is not None:
        check_size_bound("k_cap", k_cap)
    n = instance.n
    nbr = build_neighbor_index(instance)
    validator = make_greedy_validator(instance) if check_invariants else None
    levels: list[Optional[GreedyLevel]] = [None]
    t = 0
    while True:
        t += 1
        if k_cap is not None and t > k_cap:
            raise Infeasible(k_cap)
        if t == 2 and k_cap is not None and nbr.domination_lower_bound() > k_cap:
            raise Infeasible(k_cap)
        if t > n:
            raise SolverInvariantError(f"no full candidate by level {n}")
        table = GreedyLevel(instance, nbr, t, validator=validator)
        if t == 1:
            for i in range(n):
                table.insert(i, GreedyCandidate(*nbr.dominated_run(i), frozenset((i,)), i, 1))
        else:
            for i in range(n):
                for ccw in (True, False):
                    cand = greedy_step(levels, i, t, ccw=ccw)
                    if cand is not None:
                        table.insert(i, cand)
                for cand in greedy_bidirectional_step(levels, i, t):
                    table.insert(i, cand)
        table.freeze()
        levels.append(table)
        if table.full_candidate is not None:
            winner = table.full_candidate
            if len(winner.witnesses) != t:
                # the first full level equals the optimum cardinality
                raise SolverInvariantError(
                    f"first full candidate at level {t} has "
                    f"{len(winner.witnesses)} witnesses"
                )
            return solution_of(instance, winner.witnesses, "unweighted")
