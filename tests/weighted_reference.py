"""Reference code the weighted DP is tested against; the solver never runs it.

`directional_processing` and `bidirectional_processing` are the literal
level-building steps: for a point i and a scan bound, every split level
and every scan stop, each answered by one plain cheapest-enclosing query.
The solver consumes whole scan chains instead, and the tests check that
each chain-built table holds a candidate at least as good as every one of
theirs.

Both merge runs with the test-side `run_reference.union_extend`, not the
solver's `union_runs`.

`level_of_runs` builds a frozen level table straight from runs and
values, so the chain and scan queries can be tested on arbitrary input.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from conftest import mk_instance
from diskdom.geometry import CyclicSublist, offset_ccw
from diskdom.weighted_dp import Candidate, LevelTable
from run_reference import run_of, union_extend


def _candidate(sub: CyclicSublist, value, witnesses, owner, level) -> Candidate:
    return Candidate(sub.start, sub.length, value, witnesses, owner, level)


def directional_processing(
    levels: Sequence[Optional[LevelTable]], i: int, j: int, t: int, *, ccw: bool
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
    table1 = levels[1]
    nbr, n = table1.nbr, table1.instance.n
    dom = CyclicSublist(*nbr.dominated_run(i), n)
    best: Optional[Candidate] = None
    for tp in range(1, t):
        for dz in range(offset_ccw(i, j, n) + 1 if ccw else offset_ccw(j, i, n) + 1):
            l1 = levels[tp].bucket_min_enclosing(i, CyclicSublist(i if ccw else i - dz, dz + 1, n))
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
                l2 = levels[t - tp].global_min_enclosing(rest)
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
    levels: Sequence[Optional[LevelTable]], i: int, x: int, y: int, t: int
) -> Optional[Candidate]:
    """Best candidate stitching a ccw run toward x and a cw run toward y at i."""
    table1 = levels[1]
    instance, nbr = table1.instance, table1.nbr
    n = instance.n
    dom = CyclicSublist(*nbr.dominated_run(i), n)
    wi = instance.disks[i].weight
    best: Optional[Candidate] = None
    for tp in range(2, t):
        lx = levels[tp].bucket_min_enclosing(
            i, CyclicSublist(i, offset_ccw(i, x, n) + 1, n)
        )
        if lx is None:
            continue
        ly = levels[t + 1 - tp].bucket_min_enclosing(
            i, CyclicSublist(y, offset_ccw(y, i, n) + 1, n)
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
    """Frozen level holding one candidate per (start, length, value, owner).

    Candidate ids follow bucket order, then the order of `runs`.  Each
    candidate's witness set holds its position in `runs`, so equal runs of
    equal value stay distinguishable.  The candidates go straight into the
    buckets, past `insert`'s same-run dedup, so equal runs all stay.
    """
    n = instance.n
    table = LevelTable(instance, None, 1, indexed=indexed)
    for pos, (start, length, value, owner) in enumerate(runs):
        sub = CyclicSublist(start, length, n)
        table.buckets[owner].append(_candidate(sub, value, frozenset((pos,)), owner, 1))
    table.freeze()
    return table


def chain_answer(chain: Sequence[Candidate], q: CyclicSublist) -> Optional[Candidate]:
    """Cheapest enclosing answer to q read off a chain anchored at q's near end.

    Chains list their answers cheapest first, each reaching farther than the
    last, so the answer is the first chain run containing q.
    """
    return next((cand for cand in chain if run_of(cand, q.n).contains_sub(q)), None)
