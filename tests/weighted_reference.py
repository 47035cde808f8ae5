"""Reference code the weighted DP is tested against; the solver never runs it.

`build_level` is the level builder's scalar twin.  Point by point it
walks the lower levels' chains one answer at a time
(`directional_combos`, `bidi_combos`: plain tuples, a run equal to the
one just made from the same l1 or lx skipped, since it is never
cheaper), merges with the scalar `run_reference.union_runs`, asks only
the scalar runs of `query_reference.NaiveNeighborIndex`
(`run_after`/`run_before`), and keeps rows by the one rule of
`weighted_dp.keep_rows`, point by point (`keep_runs`): one combination
per run in a dict, less each run a lower level holds at a value no
larger (`cheapest_below`).  It returns a
`StaircaseLevelTable` with the same columns and parent rows as
`weighted_dp.build_level`, so the tests compare the two builders id by
id.  That twin level builds each chain one anchor at a time from the
whole level (`staircase`), where `LevelTable` builds every chain of a
kind at once from the first copy of each run.  `chain_of` reads one anchor's
chain off a level's `chains` table, for either kind of table.

`bucket_min_enclosing` and `global_min_enclosing` are the plain-scan
cheapest-enclosing queries over a level: every candidate, in id order;
they answer with ids.  `ScanLevelTable` is the level table's plain-scan
twin: it builds each scan chain from those queries, one growing run at a
time (`scan_chain`), instead of reading it off a staircase.

`directional_processing` and `bidirectional_processing` are the literal
level-building steps: for a point i and a scan bound, every split level
and every scan stop, each answered by one plain cheapest-enclosing query.
The solver consumes whole scan chains instead, and the tests check that
each chain-built table holds a candidate at least as good as every one of
theirs.  They merge runs with `run_reference.union_extend`, and ask
whichever neighbor index they are given for one run at a time, as a
batch of one (`_dominated`, `_tail`).

`level_of_runs` builds a level table straight from runs and values, so
the chain and scan queries can be tested on arbitrary input.
"""

from __future__ import annotations

import math
from functools import cache, partial
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from conftest import mk_instance
from diskdom import solution
from diskdom.geometry import offset_ccw
from diskdom.neighbor_index import build_neighbor_index
from diskdom.solution import Infeasible, solution_of
from diskdom.weighted_dp import LevelTable, keep_rows
from greedy_reference import dominated_run
from invariant_reference import Candidate, candidate_of
from run_reference import CyclicSublist, run_of, union_extend, union_runs

# -- the scalar level builder ---------------------------------------------------


def _run(level: LevelTable, ident: int) -> tuple[int, int, float]:
    return int(level.starts[ident]), int(level.lengths[ident]), float(level.values[ident])


def directional_combos(nbr, levels, i: int, t: int, *, ccw: bool) -> Iterator[tuple]:
    """i's one-way level-t combinations (start, length, value, parent row), ccw or cw.

    For each split level t', every run l1 of i's level-t' bucket chain is
    extended by every run l2 of the level-(t-t') global chain starting just
    past l1's far end, then by the stretch disk i dominates past l2's far
    end.  A full l1 makes no combination.  A run equal to the one just
    made from the same l1 (never cheaper) is skipped.
    """
    n = nbr.n
    dom = dominated_run(nbr, i)
    tail = cache(partial(nbr.run_after if ccw else nbr.run_before, i))  # of l2's far end
    for tp in range(1, t):
        near, other = levels[tp], levels[t - tp]
        for l1 in chain_of(near, i, bucket=True, ccw=ccw).tolist():
            s1, k1, v1 = _run(near, l1)
            if k1 == n:
                continue
            head, last = union_runs(n, (dom, (s1, k1))), None
            anchor = (s1 + k1) % n if ccw else (s1 - 1) % n
            for l2 in chain_of(other, anchor, bucket=False, ccw=ccw).tolist():
                s2, k2, v2 = _run(other, l2)
                run = union_runs(n, (head, (s2, k2), tail((s2 + k2 - 1) % n if ccw else s2)))
                if run != last:
                    last = run
                    yield *run, v1 + v2, (tp, l1, t - tp, l2)


def copying_full_l1(combos):
    """`combos` (`solution.directional_combos`) under the rule it once had: a full l1
    is also copied up to level t by itself, at value v1.

    A copy comes last among its point's rows of its split, where its l1, the
    last entry of a bucket chain, put it.  Its parent row names l1 twice,
    (t', l1, t', l1), so its witness set is l1's.  Like every row, a copy
    valued above `ceiling` is not made.  The tests check that no answer of
    `solve_weighted_all_k` depends on the copies.
    """

    def variant(nbr, levels, t, *, ccw, ceiling=math.inf):
        i, starts, lengths, values, parents = combos(nbr, levels, t, ccw=ccw, ceiling=ceiling)
        n = nbr.n
        copies = [  # (t', l1), by split and then by point
            (tp, c)
            for tp in range(1, t)
            for c in levels[tp].chains(bucket=True, ccw=ccw)[1].tolist()
            if levels[tp].lengths[c] == n and levels[tp].values[c] <= ceiling
        ]
        if not copies:
            return i, starts, lengths, values, parents
        tp, c = np.array(copies, np.int64).T
        owner = np.array([levels[a].owners[b] for a, b in copies], np.int64)
        value = np.array([levels[a].values[b] for a, b in copies])
        at = np.searchsorted(parents[:, 0] * n + i, tp * n + owner, side="right")
        rows = np.stack((tp, c, tp, c), axis=1)
        return (np.insert(i, at, owner), np.insert(starts, at, 0), np.insert(lengths, at, n),
                np.insert(values, at, value), np.insert(parents, at, rows, axis=0))

    return variant


def bidi_combos(nbr, levels, i: int, t: int) -> Iterator[tuple]:
    """i's combinations of a ccw run lx and a cw run ly, weight wi counted once."""
    n = nbr.n
    dom = dominated_run(nbr, i)
    wi = nbr.instance.disks[i].weight
    for tp in range(2, t):
        x, y = levels[tp], levels[t + 1 - tp]
        ys = chain_of(y, i, bucket=True, ccw=False).tolist()
        for lx in chain_of(x, i, bucket=True, ccw=True).tolist():
            sx, kx, vx = _run(x, lx)
            head, last = union_runs(n, (dom, (sx, kx))), None
            for ly in ys:
                sy, ky, vy = _run(y, ly)
                run = union_runs(n, (head, (sy, ky)))
                if run != last:
                    last = run
                    yield *run, vx + vy - wi, (tp, lx, t + 1 - tp, ly)


def keep_runs(owner: int, combos, below) -> list[tuple]:
    """One bucket's kept combinations, in the order the kept ones arrived: the twin of
    `weighted_dp.keep_rows`.

    Per run, the first cheapest combination: a later copy replaces the
    kept one only when strictly cheaper, and then takes its own arrival
    place.  A run `below` (`cheapest_below`) holds at a value no larger is
    then dropped, so a lower level wins ties.
    """
    kept: dict[tuple[int, int], tuple] = {}  # (start, length) -> (value, parent row)
    for s, k, value, parent in combos:
        old = kept.get((s, k))
        if old is None or value < old[0]:
            kept.pop((s, k), None)
            kept[s, k] = value, parent
    return [(s, k, v, parent) for (s, k), (v, parent) in kept.items()
            if not below.get((owner, s, k), math.inf) <= v]


def cheapest_below(levels, t: int) -> dict[tuple[int, int, int], float]:
    """(owner, start, length) -> the least value levels 1..t-1 hold that run at."""
    best: dict[tuple[int, int, int], float] = {}
    for level in levels[1:t]:
        for c in range(len(level.owners)):
            key = int(level.owners[c]), int(level.starts[c]), int(level.lengths[c])
            best[key] = min(best.get(key, math.inf), float(level.values[c]))
    return best


def build_level(instance, nbr, levels, t: int) -> LevelTable:
    """Level t from levels 1..t-1, point by point: the twin of `weighted_dp.build_level`.

    Each bucket keeps its rows by `keep_runs`, against the least value
    levels 1..t-1 hold each run at, read off the levels themselves.
    """
    below = cheapest_below(levels, t)
    rows = []  # (owner, start, length, value, parent row), in id order
    for i, disk in enumerate(instance.disks):
        if t == 1:
            combos = [(*dominated_run(nbr, i), disk.weight, (-1, -1, -1, -1))]
        else:
            combos = chain(
                directional_combos(nbr, levels, i, t, ccw=True),
                directional_combos(nbr, levels, i, t, ccw=False),
                bidi_combos(nbr, levels, i, t),
            )
        rows += [(i, *row) for row in keep_runs(i, combos, below)]
    owners, starts, lengths = (np.array([row[c] for row in rows], np.int64) for c in range(3))
    values = np.array([row[3] for row in rows], np.float64)
    parents = np.array([row[4] for row in rows], np.int64).reshape(-1, 4)
    return StaircaseLevelTable(instance, t, levels, starts, lengths, owners, values, parents)


def unpruned_level(instance, nbr, levels, t: int) -> LevelTable:
    """Level t as `weighted_dp.build_level` made it before the cross-level prune.

    Every combination (`solution.directional_combos`,
    `solution.bidirectional_combos`), kept by `weighted_dp.keep_rows`
    against an empty run table: one row per run in each bucket, and a run
    a lower level holds at a value no larger stays.
    """
    n, weights = instance.n, instance.ws
    if t == 1:
        blocks = [(np.arange(n), *nbr.dominated_runs, weights, np.full((n, 4), -1))]
    else:
        blocks = [solution.directional_combos(nbr, levels, t, ccw=ccw) for ccw in (True, False)]
        blocks.append(solution.bidirectional_combos(nbr, levels, t, weights))
    owners, starts, lengths, values, parents = (np.concatenate(col) for col in zip(*blocks))
    keep, _ = keep_rows(n, owners, starts, lengths, values, (np.zeros(0, np.int64), np.zeros(0)))
    return LevelTable(
        instance, t, levels, starts[keep], lengths[keep], owners[keep], values[keep], parents[keep]
    )


def unpruned_answers(instance, k: int) -> dict:
    """`solve_weighted_all_k`'s answers from every level 1..k built, none pruned or capped.

    The answer for k' is the cheapest full candidate over levels 1..k', the
    first at equal value, or `Infeasible(k')`.
    """
    nbr = build_neighbor_index(instance)
    levels, answers, best, answer = [None], {}, None, None
    for t in range(1, k + 1):
        level = unpruned_level(instance, nbr, levels, t)
        levels.append(level)
        c = level.cheapest_full()
        if c >= 0 and (best is None or level.values[c] < best):
            best = level.values[c]
            answer = solution_of(instance, level.witnesses(c), "weighted")
        answers[t] = Infeasible(t) if answer is None else answer
    return answers


# -- chain twins ----------------------------------------------------------------


def chain_of(level: LevelTable, anchor: int, *, bucket: bool, ccw: bool) -> np.ndarray:
    """Ids of one chain: `anchor`'s slice of the level's `chains` table of that kind."""
    ptr, ids = level.chains(bucket=bucket, ccw=ccw)
    return ids[ptr[anchor] : ptr[anchor + 1]]


class _AnchorChains(LevelTable):
    """A level whose chain tables are built one anchor at a time, by `_chain`."""

    def _chain(self, anchor: int, *, bucket: bool, ccw: bool) -> list[int]:
        raise NotImplementedError

    def _chain_table(self, bucket: bool, *, ccw: bool):
        chains = [self._chain(a, bucket=bucket, ccw=ccw) for a in range(self.n)]
        ptr = np.cumsum([0] + [len(c) for c in chains])
        return ptr, np.array([c for chain_ in chains for c in chain_], np.int64)


def staircase(level: LevelTable, anchor: int, *, bucket: bool, ccw: bool) -> list[int]:
    """Chain at `anchor` from every candidate (bucket `anchor`'s only, for a bucket chain).

    Walks them in (value, id) order and keeps those reaching strictly
    farther past the anchor than every one before them.
    """
    n = level.n
    ids = np.flatnonzero(level.owners == anchor) if bucket else np.arange(len(level.starts))
    ids = ids[np.lexsort((ids, level.values[ids]))]
    off = (anchor - level.starts[ids]) % n
    lengths = level.lengths[ids]
    reach = np.where(off < lengths, lengths - 1 - off if ccw else off, -1)
    reach[lengths == n] = n
    best = np.maximum.accumulate(reach)
    return ids[best > np.concatenate(([-1], best[:-1]))].tolist()


class StaircaseLevelTable(_AnchorChains):
    """Twin of `LevelTable`: each chain a staircase over the whole level, one anchor at a time."""

    def _chain(self, anchor, *, bucket, ccw):
        return staircase(self, anchor, bucket=bucket, ccw=ccw)


def sub_of(level: LevelTable, ident: int) -> CyclicSublist:
    """Candidate `ident`'s run as a `CyclicSublist`."""
    return CyclicSublist(int(level.starts[ident]), int(level.lengths[ident]), level.n)


def _cheapest_containing(level: LevelTable, ids, q: CyclicSublist) -> Optional[int]:
    """Cheapest of `ids` whose run contains q; ties to the earliest."""
    best = None
    for c in ids:
        if sub_of(level, c).contains_sub(q) and (
            best is None or level.values[c] < level.values[best]
        ):
            best = c
    return best


def bucket_min_enclosing(level: LevelTable, i: int, q: CyclicSublist) -> Optional[int]:
    """Id of the cheapest candidate of bucket i whose run contains q; ties to the smaller id."""
    return _cheapest_containing(level, np.flatnonzero(level.owners == i).tolist(), q)


def global_min_enclosing(level: LevelTable, q: CyclicSublist) -> Optional[int]:
    """Id of the cheapest candidate of the level whose run contains q; ties to the smaller id."""
    return _cheapest_containing(level, range(len(level.starts)), q)


def scan_chain(level: LevelTable, query, anchor: int, *, ccw: bool) -> list[int]:
    """Chain of `query`'s answers for ever longer runs grown from `anchor`.

    The query run grows counterclockwise from the anchor (or clockwise
    from it), each time to just past the last answer's far end.
    """
    n = level.n
    out = []
    q = 1
    while q <= n:
        ans = query(CyclicSublist(anchor if ccw else anchor - q + 1, q, n))
        if ans is None:
            break
        out.append(ans)
        start, length = int(level.starts[ans]), int(level.lengths[ans])
        if length == n:
            break
        if ccw:
            q = offset_ccw(anchor, start + length - 1, n) + 2
        else:
            q = offset_ccw(start, anchor, n) + 2
    return out


class ScanLevelTable(_AnchorChains):
    """Reference twin of `LevelTable`: scan chains built from plain scans."""

    def _chain(self, anchor, *, bucket, ccw):
        query = partial(bucket_min_enclosing, self, anchor) if bucket else partial(
            global_min_enclosing, self
        )
        return scan_chain(self, query, anchor, ccw=ccw)


# -- the literal processing steps -------------------------------------------------


def _dominated(nbr, i: int) -> CyclicSublist:
    """Disk i's dominated run, read off the index's `dominated_runs`."""
    starts, lengths = nbr.dominated_runs
    return CyclicSublist(int(starts[i]), int(lengths[i]), nbr.n)


def _tail(nbr, i: int, z: int, *, ccw: bool) -> CyclicSublist:
    """The run disk i meets past z, ccw or cw: `runs_past` asked a batch of one."""
    starts, lengths = nbr.runs_past([i], [z], ccw=ccw)
    return CyclicSublist(int(starts[0]), int(lengths[0]), nbr.n)


def _answer(level: LevelTable, ident: Optional[int]) -> Optional[Candidate]:
    return None if ident is None else candidate_of(level, ident)


def _candidate(sub: CyclicSublist, value, witnesses, owner, level) -> Candidate:
    return Candidate(sub.start, sub.length, value, witnesses, owner, level)


def directional_processing(
    nbr, levels: Sequence[Optional[LevelTable]], i: int, j: int, t: int, *, ccw: bool
) -> Optional[Candidate]:
    """Best level-t candidate for i from one-way scans bounded by j.

    Counterclockwise, the scan stops z run from i to j; l1 is the cheapest
    bucket-i run containing [i, z], l2 the cheapest level-(t-t') run
    containing everything from just past l1 up to j, and the stretch disk
    i dominates past l2 closes the candidate.  Clockwise mirrors this.
    Returns the minimum-value combination over every split level t' and
    stop z (ties to the earliest), or None when every one failed a query.
    """
    assert t >= 2
    n = nbr.n
    dom = _dominated(nbr, i)
    best: Optional[Candidate] = None
    for tp in range(1, t):
        for dz in range(offset_ccw(i, j, n) + 1 if ccw else offset_ccw(j, i, n) + 1):
            q1 = CyclicSublist(i if ccw else i - dz, dz + 1, n)
            l1 = _answer(levels[tp], bucket_min_enclosing(levels[tp], i, q1))
            if l1 is None:
                continue
            sub1 = run_of(l1, n)
            if sub1.is_full:
                cand = _candidate(sub1, l1.value, l1.witnesses, i, t)
            else:
                if ccw:
                    past = (sub1.ccw_end + 1) % n
                    rest = CyclicSublist(past, offset_ccw(past, j, n) + 1, n)
                else:
                    past = (sub1.cw_end - 1) % n
                    rest = CyclicSublist(j, offset_ccw(j, past, n) + 1, n)
                l2 = _answer(levels[t - tp], global_min_enclosing(levels[t - tp], rest))
                if l2 is None:
                    continue
                sub2 = run_of(l2, n)
                if sub2.is_full:
                    sub = CyclicSublist(0, n, n)
                else:
                    tail = _tail(nbr, i, sub2.ccw_end if ccw else sub2.cw_end, ccw=ccw)
                    sub = union_extend([dom, sub1, sub2, tail])
                cand = _candidate(
                    sub, l1.value + l2.value, l1.witnesses | l2.witnesses, i, t
                )
            if best is None or cand.value < best.value:
                best = cand
    return best


def bidirectional_processing(
    nbr, levels: Sequence[Optional[LevelTable]], i: int, x: int, y: int, t: int
) -> Optional[Candidate]:
    """Best candidate stitching a ccw run toward x and a cw run toward y at i."""
    instance = nbr.instance
    n = instance.n
    dom = _dominated(nbr, i)
    wi = instance.disks[i].weight
    best: Optional[Candidate] = None
    for tp in range(2, t):
        qx = CyclicSublist(i, offset_ccw(i, x, n) + 1, n)
        lx = _answer(levels[tp], bucket_min_enclosing(levels[tp], i, qx))
        if lx is None:
            continue
        qy = CyclicSublist(y, offset_ccw(y, i, n) + 1, n)
        ly = _answer(levels[t + 1 - tp], bucket_min_enclosing(levels[t + 1 - tp], i, qy))
        if ly is None:
            continue
        cand = _candidate(
            union_extend([dom, run_of(lx, n), run_of(ly, n)]),
            lx.value + ly.value - wi,
            lx.witnesses | ly.witnesses,
            i,
            t,
        )
        if best is None or cand.value < best.value:
            best = cand
    return best


# -- levels from arbitrary runs ---------------------------------------------------


def ring(n: int):
    """n small disjoint disks on a circle: an instance that only sets n."""
    return mk_instance(
        [
            (100 * math.cos(2 * math.pi * k / n), 100 * math.sin(2 * math.pi * k / n), 0.1)
            for k in range(n)
        ]
    )


def level_of_runs(instance, runs, *, indexed: bool = True) -> LevelTable:
    """Level-1 table holding one candidate per (start, length, value, owner).

    Candidate ids follow bucket order, then the order of `runs`, and
    `positions[id]` is the candidate's place in `runs`, so equal runs of
    equal value stay distinguishable.  The runs go straight to the
    constructor, without the solver's same-run dedup, so equal runs all
    stay.  `indexed=False` builds the `ScanLevelTable` twin instead.
    """
    n = instance.n
    runs = [(CyclicSublist(s, k, n), v, owner) for s, k, v, owner in runs]
    order = sorted(range(len(runs)), key=lambda pos: runs[pos][2])
    starts, lengths, owners = (
        np.array([col(runs[pos]) for pos in order], np.int64)
        for col in (lambda r: r[0].start, lambda r: r[0].length, lambda r: r[2])
    )
    values = np.array([runs[pos][1] for pos in order], np.float64)
    parents = np.full((len(order), 4), -1, np.int64)
    level = (LevelTable if indexed else ScanLevelTable)(
        instance, 1, [None], starts, lengths, owners, values, parents
    )
    level.positions = order
    return level


def chain_answer(level: LevelTable, chain_ids, q: CyclicSublist) -> Optional[int]:
    """Cheapest enclosing answer to q read off a chain anchored at q's near end, as an id.

    Chains list their answers cheapest first, each reaching farther than the
    last, so the answer is the first chain run containing q.
    """
    ids = np.asarray(chain_ids).tolist()
    return next((c for c in ids if sub_of(level, c).contains_sub(q)), None)
