"""Smallest dominating sets of convex-position disk graphs.

Same level structure as the weighted solver, but cardinality replaces
weight, so each step can be greedy: per direction and split level it keeps
only the candidate reaching farthest around the circle, which caps every
bucket at O(level) entries.  The first level that produces a full-circle
candidate ends the search; that candidate's witnesses are a smallest
dominating set.

Runs are (start, length) pairs of integers throughout, merged by
`geometry.union_runs`.  A level answers both of a step's questions from
arrays that `GreedyLevel.freeze` builds once with numpy: each point's own
candidate reaching farthest each way (`extreme`), and, for all n indexes,
the candidate through the index reaching farthest each way
(`farthest_ids`).  One directional step (`greedy_step`, with the direction
as a parameter) serves both ways round and scores every split level on
integers; only each step's winner becomes a `GreedyCandidate` with its run
and witness set.

The tests swap in a plain-scan twin of `farthest_ids`
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


def farthest_ids(starts, lengths, n: int) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """Per index j, the id of the run through j reaching farthest ccw, and cw.

    The runs are (starts[k], lengths[k]) under ids k.  Reach from j is the
    number of steps a run extends past j that way round, and n for a full
    run, so a full run beats every partial one; equal reaches go to the
    smallest id.  None where no run covers j.  Clockwise answers come from
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
        ids = [int(full[0]) if len(full) else None] * n
        return ids, ids
    return _ccw_sweep(starts, lengths, n), _ccw_sweep((-starts - lengths) % n, lengths, n)[::-1]


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


class GreedyLevel:
    """One level's candidates, bucketed by owning point; read only once frozen.

    `insert` only appends to the owner's bucket.  `freeze()` assigns ids
    (bucket order, then insertion order) and builds every answer the later
    levels read, from int64 arrays of the runs' starts, lengths and owners:
    each point's own candidate reaching farthest each way round
    (`extreme`), the farthest-run answers for all n indexes
    (`far_ccw`/`far_cw`, from `farthest_ids`), and the first full
    candidate, if any.  Equal reaches go to the smallest id, the earliest
    insert.
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
        self.n = instance.n
        self.buckets: list[list[GreedyCandidate]] = [[] for _ in range(self.n)]
        self.full_candidate: Optional[GreedyCandidate] = None
        self._by_id: list[GreedyCandidate] = []
        # per point and direction (keyed by ccw): its extreme, or None
        self._extremes: dict[bool, list[Optional[GreedyCandidate]]] = {}
        # per index j: id of the candidate through j reaching farthest, or None
        self.far_ccw: Sequence[Optional[int]] = []
        self.far_cw: Sequence[Optional[int]] = []

    def insert(self, i: int, cand: GreedyCandidate) -> None:
        if self.frozen:
            raise SolverInvariantError(f"insert into frozen level {self.level}")
        if self.validator is not None:
            self.validator(cand)
        self.buckets[i].append(cand)

    def freeze(self) -> None:
        n = self.n
        by_id = self._by_id = [cand for bucket in self.buckets for cand in bucket]
        m = len(by_id)
        starts = np.fromiter((cand.start for cand in by_id), np.int64, m)
        lengths = np.fromiter((cand.length for cand in by_id), np.int64, m)
        owners = np.repeat(np.arange(n, dtype=np.int64), [len(b) for b in self.buckets])
        self.far_ccw, self.far_cw = farthest_ids(starts, lengths, n)
        is_full = lengths == n
        full = np.flatnonzero(is_full)
        self.full_candidate = by_id[full[0]] if len(full) else None
        # per owner, the largest key reach * m + (m - 1 - id): farthest
        # reach, then smallest id
        tie = np.arange(m - 1, -1, -1, dtype=np.int64)
        for ccw, past in ((True, starts + lengths - 1 - owners), (False, owners - starts)):
            reach = np.where(is_full, n, past % n)
            best = np.full(n, -1, dtype=np.int64)
            np.maximum.at(best, owners, reach * m + tie)
            self._extremes[ccw] = [None if k < 0 else by_id[m - 1 - k % m] for k in best.tolist()]
        self.frozen = True

    def all_candidates(self) -> Sequence[GreedyCandidate]:
        check_frozen(self)
        return self._by_id

    def extreme(self, i: int, *, ccw: bool) -> Optional[GreedyCandidate]:
        """Point i's candidate reaching farthest counterclockwise (or clockwise) from i."""
        check_frozen(self)
        return self._extremes[ccw][i]


def greedy_step(
    levels: Sequence[Optional[GreedyLevel]], i: int, t: int, *, ccw: bool
) -> Optional[GreedyCandidate]:
    """Farthest-reaching extension of i's extremes, ccw or cw.

    One combination per split level t' is scored on (start, length)
    integers: i's own level-t' extreme l1, the level-(t-t') run l2 reaching
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
    best = None  # (l1, l2 or None, start, length)
    best_reach = -1
    for tp in range(1, t):
        l1 = levels[tp].extreme(i, ccw=ccw)
        if l1 is None:
            continue
        s1, k1 = l1.start, l1.length
        if k1 == n:
            l2, s, k = None, 0, n
        else:
            other = levels[t - tp]
            hit = other.far_ccw[(s1 + k1) % n] if ccw else other.far_cw[(s1 - 1) % n]
            if hit is None:
                continue
            l2 = other.all_candidates()[hit]
            s, k = nbr.one_way_run(i, dom, (s1, k1), (l2.start, l2.length), ccw=ccw)
        r = _reach(s, k, i, n, ccw)
        if r > best_reach:
            best, best_reach = (l1, l2, s, k), r
    if best is None:
        return None
    l1, l2, s, k = best
    witnesses = l1.witnesses if l2 is None else l1.witnesses | l2.witnesses
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
