"""Reference code the weighted DP is tested against; the solver never runs it.

`bucket_min_enclosing` and `global_min_enclosing` are the plain-scan
cheapest-enclosing queries over a level: every candidate, in id
order.  `ScanLevelTable` is the level table's reference twin: it builds
each scan chain from those queries, one growing run at a time
(`scan_chain`), instead of reading it off a staircase.

`directional_processing` and `bidirectional_processing` are the literal
level-building steps: for a point i and a scan bound, every split level
and every scan stop, each answered by one plain cheapest-enclosing query.
The solver consumes whole scan chains instead, and the tests check that
each chain-built table holds a candidate at least as good as every one of
theirs.

Both merge runs with the test-side `run_reference.union_extend`, not the
solver's `union_runs`.

`level_of_runs` builds a level table straight from runs and values, so
the chain and scan queries can be tested on arbitrary input.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Sequence

from conftest import mk_instance
from diskdom.geometry import CyclicSublist, offset_ccw
from diskdom.weighted_dp import Candidate, LevelTable
from run_reference import run_of, union_extend


def _candidate(sub: CyclicSublist, value, witnesses, owner, level) -> Candidate:
    return Candidate(sub.start, sub.length, value, witnesses, owner, level)


def _cheapest_containing(cands: Sequence[Candidate], q: CyclicSublist) -> Optional[Candidate]:
    """Cheapest of `cands` whose run contains q; ties to the earliest."""
    best = None
    for cand in cands:
        if run_of(cand, q.n).contains_sub(q) and (best is None or cand.value < best.value):
            best = cand
    return best


def bucket_min_enclosing(table: LevelTable, i: int, q: CyclicSublist) -> Optional[Candidate]:
    """Cheapest candidate of bucket i whose run contains q; ties to the smaller id."""
    return _cheapest_containing(table.buckets[i], q)


def global_min_enclosing(table: LevelTable, q: CyclicSublist) -> Optional[Candidate]:
    """Cheapest candidate of the whole level whose run contains q; ties to the smaller id."""
    return _cheapest_containing(table.all_candidates(), q)


def scan_chain(query, anchor: int, n: int, *, ccw: bool) -> list[Candidate]:
    """Chain of `query`'s answers for ever longer runs grown from `anchor`.

    The query run grows counterclockwise from the anchor (or clockwise
    from it), each time to just past the last answer's far end.
    """
    out = []
    q = 1
    while q <= n:
        ans = query(CyclicSublist(anchor if ccw else anchor - q + 1, q, n))
        if ans is None:
            break
        out.append(ans)
        if ans.length == n:
            break
        if ccw:
            q = offset_ccw(anchor, ans.start + ans.length - 1, n) + 2
        else:
            q = offset_ccw(ans.start, anchor, n) + 2
    return out


class ScanLevelTable(LevelTable):
    """Reference twin of `LevelTable`: scan chains built from plain scans."""

    def _bucket_chain(self, i: int, *, ccw: bool) -> list[Candidate]:
        return scan_chain(partial(bucket_min_enclosing, self, i), i, self.instance.n, ccw=ccw)

    def _global_chain(self, anchor: int, *, ccw: bool) -> list[Candidate]:
        return scan_chain(partial(global_min_enclosing, self), anchor, self.instance.n, ccw=ccw)


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
    dom = CyclicSublist(*nbr.dominated_run(i), n)
    best: Optional[Candidate] = None
    for tp in range(1, t):
        for dz in range(offset_ccw(i, j, n) + 1 if ccw else offset_ccw(j, i, n) + 1):
            l1 = bucket_min_enclosing(levels[tp], i, CyclicSublist(i if ccw else i - dz, dz + 1, n))
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
                l2 = global_min_enclosing(levels[t - tp], rest)
                if l2 is None:
                    continue
                sub2 = run_of(l2, n)
                if sub2.is_full:
                    sub = CyclicSublist(0, n, n)
                else:
                    if ccw:
                        tail = nbr.run_after(i, sub2.ccw_end)
                    else:
                        tail = nbr.run_before(i, sub2.cw_end)
                    sub = union_extend([dom, sub1, sub2, CyclicSublist(*tail, n)])
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
    dom = CyclicSublist(*nbr.dominated_run(i), n)
    wi = instance.disks[i].weight
    best: Optional[Candidate] = None
    for tp in range(2, t):
        lx = bucket_min_enclosing(levels[tp], i, CyclicSublist(i, offset_ccw(i, x, n) + 1, n))
        if lx is None:
            continue
        ly = bucket_min_enclosing(
            levels[t + 1 - tp], i, CyclicSublist(y, offset_ccw(y, i, n) + 1, n)
        )
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


def ring(n: int):
    """n small disjoint disks on a circle: an instance that only sets n."""
    return mk_instance(
        [
            (100 * math.cos(2 * math.pi * k / n), 100 * math.sin(2 * math.pi * k / n), 0.1)
            for k in range(n)
        ]
    )


def level_of_runs(instance, runs, *, indexed: bool = True) -> LevelTable:
    """Level holding one candidate per (start, length, value, owner).

    Candidate ids follow bucket order, then the order of `runs`.  Each
    candidate's witness set holds its position in `runs`, so equal runs of
    equal value stay distinguishable.  The buckets go straight to the
    constructor, without the solver's same-run dedup (`dedup_runs`), so
    equal runs all stay.  `indexed=False` builds the `ScanLevelTable` twin
    instead.
    """
    n = instance.n
    buckets = [[] for _ in range(n)]
    for pos, (start, length, value, owner) in enumerate(runs):
        sub = CyclicSublist(start, length, n)
        buckets[owner].append(_candidate(sub, value, frozenset((pos,)), owner, 1))
    return (LevelTable if indexed else ScanLevelTable)(instance, 1, buckets)


def chain_answer(chain: Sequence[Candidate], q: CyclicSublist) -> Optional[Candidate]:
    """Cheapest enclosing answer to q read off a chain anchored at q's near end.

    Chains list their answers cheapest first, each reaching farther than the
    last, so the answer is the first chain run containing q.
    """
    return next((cand for cand in chain if run_of(cand, q.n).contains_sub(q)), None)
