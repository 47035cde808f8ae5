"""Query structures over collections of valued cyclic runs.

Two query families serve the solvers:

* minimum-value enclosing run: among stored runs containing a query run,
  the one of smallest value;
* farthest enclosing run: among stored runs containing a single index,
  the one whose counterclockwise (or clockwise) endpoint reaches farthest.

Cyclic runs are unrolled onto the line [0, 2n): for min-value queries a
run gets a copy at its start and, when it wraps, a second copy shifted by
-n, which turns containment into the dominance condition ``start <=
q_start and end >= q_end``.  Farthest queries have only n possible
arguments, so the indexed form answers all of them at build time with one
prefix/suffix-maximum sweep over the runs' starts and ends.  Full runs
contain everything and are kept aside.  Every index is immutable once
built; ties always break toward the smallest item id so solver runs are
reproducible.  Each index also has a plain-scan twin (``indexed=False``)
that serves as the oracle in tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import CyclicSublist


@dataclass(frozen=True)
class ValuedSublist:
    sub: CyclicSublist
    value: float
    id: int


def _check_items(items: Sequence[ValuedSublist], n: int):
    seen = set()
    for it in items:
        if it.sub.n != n:
            raise ValueError("item over wrong cycle size")
        if it.sub.is_empty:
            raise ValueError("empty runs cannot be stored")
        if it.id in seen:
            raise ValueError(f"duplicate item id {it.id}")
        seen.add(it.id)


class MinEnclosingIndex:
    """Minimum-value enclosing-run queries, O(log^2 m) when indexed.

    The indexed form keeps the unrolled copies sorted by start inside a
    static segment tree; each node stores its copies ordered by end with
    suffix-minimum (value, id) tables, so a query is a prefix walk plus
    one bisect per visited node.
    """

    def __init__(self, items: Sequence[ValuedSublist], n: int, *, indexed: bool = True):
        _check_items(items, n)
        self.n = n
        self.items = tuple(items)
        self.indexed = indexed
        self._by_id = {it.id: it for it in items}
        self._best_full = None
        for it in items:
            if it.sub.is_full:
                key = (it.value, it.id)
                if self._best_full is None or key < self._best_full:
                    self._best_full = key
        if indexed:
            self._build()

    def _build(self):
        n = self.n
        copies = []
        for it in self.items:
            if it.sub.is_full:
                continue
            s = it.sub.start
            e = s + it.sub.length - 1
            copies.append((s, e, it.value, it.id))
            if e - n >= 0:
                copies.append((s - n, e - n, it.value, it.id))
        copies.sort()
        self._starts = [c[0] for c in copies]
        size = 1
        while size < max(1, len(copies)):
            size <<= 1
        self._size = size
        ends: list[list] = [[] for _ in range(2 * size)]
        for idx, (s, e, v, i) in enumerate(copies):
            ends[size + idx] = [(e, v, i)]
        for node in range(size - 1, 0, -1):
            left, right = ends[2 * node], ends[2 * node + 1]
            merged = sorted(left + right)  # by end
            ends[node] = merged
        self._node_ends = []
        self._node_best = []
        for node_list in ends:
            es = [c[0] for c in node_list]
            best: list[tuple[float, int]] = [None] * len(node_list)
            run = None
            for k in range(len(node_list) - 1, -1, -1):
                key = (node_list[k][1], node_list[k][2])
                run = key if run is None or key < run else run
                best[k] = run
            self._node_ends.append(es)
            self._node_best.append(best)

    def min_enclosing(self, q: CyclicSublist) -> Optional[ValuedSublist]:
        """Smallest-value stored run containing q; ties to the smallest id."""
        if q.n != self.n:
            raise ValueError("query over wrong cycle size")
        if q.is_empty:
            raise ValueError("query run must be nonempty")
        if not self.indexed:
            return self._scan(q)
        best = self._best_full
        if not q.is_full and self._starts:
            qs = q.start
            qe = qs + q.length - 1
            pos = bisect_right(self._starts, qs)
            lo = self._size
            hi = self._size + pos
            while lo < hi:
                if lo & 1:
                    best = self._consider(lo, qe, best)
                    lo += 1
                if hi & 1:
                    hi -= 1
                    best = self._consider(hi, qe, best)
                lo >>= 1
                hi >>= 1
        return self._by_id[best[1]] if best is not None else None

    def _consider(self, node, qe, best):
        es = self._node_ends[node]
        k = bisect_left(es, qe)
        if k < len(es):
            cand = self._node_best[node][k]
            if best is None or cand < best:
                best = cand
        return best

    def _scan(self, q):
        best = None
        best_item = None
        for it in self.items:
            if it.sub.contains_sub(q):
                key = (it.value, it.id)
                if best is None or key < best:
                    best, best_item = key, it
        return best_item


class FarthestEnclosingIndex:
    """Farthest-reaching run through a single index; a list lookup when indexed.

    Reach of a stored run L from index j is ``offset_ccw(j, ccw_end(L))``
    for counterclockwise queries (mirrored for clockwise) and n for full
    runs, which therefore beat every partial run; equal reaches go to the
    smallest id.  The indexed form answers all n indexes of both
    directions at build time, in one numpy sweep (see `_sweep`).

    Build it from `ValuedSublist` items, or with `from_runs` from arrays of
    starts and lengths, whose ids are the array positions.  The `*_id`
    queries answer with an id (None when no run covers j); `farthest_ccw`
    and `farthest_cw` answer with the item and need an item-built index.
    """

    def __init__(self, items: Sequence[ValuedSublist], n: int, *, indexed: bool = True):
        _check_items(items, n)
        self.n = n
        self.items = tuple(items)
        self.indexed = indexed
        self._by_id = {it.id: it for it in items}
        self._runs = [(it.sub.start, it.sub.length, it.id) for it in items]
        if indexed:
            # sweep over positions in id order, so position ties are id ties
            ordered = sorted(items, key=lambda it: it.id)
            m = len(ordered)
            self._sweep(
                np.fromiter((it.sub.start for it in ordered), np.int64, m),
                np.fromiter((it.sub.length for it in ordered), np.int64, m),
            )
            ids = [it.id for it in ordered]
            self._ccw_ids = [None if k is None else ids[k] for k in self._ccw_ids]
            self._cw_ids = [None if k is None else ids[k] for k in self._cw_ids]

    @classmethod
    def from_runs(cls, starts: np.ndarray, lengths: np.ndarray, n: int):
        """Indexed form over runs (starts[k], lengths[k]) with ids k.

        Runs must be nonempty with starts in [0, n) (0 for full runs).
        """
        self = cls.__new__(cls)
        self.n = n
        self.items = ()
        self.indexed = True
        self._by_id = None
        self._runs = []
        self._sweep(np.asarray(starts, np.int64), np.asarray(lengths, np.int64))
        return self

    def _sweep(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Answer every index in both directions; ids are array positions.

        Each partial run is one copy [s, e] on the line, e = s + length - 1
        < 2n - 1, and covers j exactly when it covers stab j or stab j + n.
        Counterclockwise, the best copy through a stab p is the one of
        largest (e, -id) among starts <= p (a prefix maximum over starts),
        valid when e >= p; clockwise, the one of largest (-s, -id) among
        ends >= p (a suffix maximum over ends), valid when s <= p.  The two
        stabs' answers then compete on reach, ties to the smaller id.  Both
        pairs are packed into one int64 key, value * base + (base - 1 - id).
        """
        n = self.n
        base = len(starts)
        full = np.flatnonzero(lengths == n)
        if len(full) or not base:
            self._ccw_ids = self._cw_ids = [int(full[0]) if len(full) else None] * n
            return
        tie = np.arange(base - 1, -1, -1, dtype=np.int64)
        ends = starts + lengths - 1
        j = np.arange(n, dtype=np.int64)
        stabs = (j, j + n)

        best = np.full(n, -1, dtype=np.int64)
        np.maximum.at(best, starts, ends * base + tie)
        pref = np.maximum.accumulate(best)
        hits = []
        for p in stabs:
            key = pref[np.minimum(p, n - 1)]
            e = key // base
            hits.append((np.where((key >= 0) & (e >= p), e - p, -1), key % base))
        self._ccw_ids = _pick(hits, base)

        best = np.full(2 * n, -1, dtype=np.int64)
        np.maximum.at(best, ends, (2 * n - starts) * base + tie)
        suf = np.maximum.accumulate(best[::-1])[::-1]
        hits = []
        for p in stabs:
            key = suf[p]
            s = 2 * n - key // base
            hits.append((np.where((key >= 0) & (s <= p), p - s, -1), key % base))
        self._cw_ids = _pick(hits, base)

    def farthest_ccw_id(self, j: int) -> Optional[int]:
        """Id of the stored run covering j with the farthest ccw endpoint."""
        if not 0 <= j < self.n:
            raise ValueError("index out of range")
        if not self.indexed:
            return self._scan(j, ccw=True)
        return self._ccw_ids[j]

    def farthest_cw_id(self, j: int) -> Optional[int]:
        """Id of the stored run covering j with the farthest cw endpoint."""
        if not 0 <= j < self.n:
            raise ValueError("index out of range")
        if not self.indexed:
            return self._scan(j, ccw=False)
        return self._cw_ids[j]

    def farthest_ccw(self, j: int) -> Optional[ValuedSublist]:
        """Stored run covering j with the farthest counterclockwise endpoint."""
        hit = self.farthest_ccw_id(j)
        return None if hit is None else self._by_id[hit]

    def farthest_cw(self, j: int) -> Optional[ValuedSublist]:
        """Stored run covering j with the farthest clockwise endpoint."""
        hit = self.farthest_cw_id(j)
        return None if hit is None else self._by_id[hit]

    def _scan(self, j: int, *, ccw: bool) -> Optional[int]:
        """Reference answer: every stored run's reach from j, one by one."""
        n = self.n
        best = None  # (reach, -id)
        for s, k, ident in self._runs:
            if k == n:
                reach = n
            else:
                off = (j - s) % n  # steps from the run's start to j
                if off >= k:
                    continue
                reach = k - 1 - off if ccw else off
            key = (reach, -ident)
            if best is None or key > best:
                best = key
        return None if best is None else -best[1]


def _pick(hits, base: int) -> list[Optional[int]]:
    """Per index, the id of the farther of two stab answers (reach, tie key).

    Reach -1 means no answer; equal reaches go to the larger tie key, which
    is the smaller id.
    """
    (r1, k1), (r2, k2) = hits
    second = (r2 > r1) | ((r2 == r1) & (k2 > k1))
    reach = np.where(second, r2, r1)
    ids = base - 1 - np.where(second, k2, k1)
    return [None if r < 0 else i for r, i in zip(reach.tolist(), ids.tolist())]


def build_min_index(items, n, *, indexed: bool = True) -> MinEnclosingIndex:
    return MinEnclosingIndex(items, n, indexed=indexed)


def build_far_index(items, n, *, indexed: bool = True) -> FarthestEnclosingIndex:
    return FarthestEnclosingIndex(items, n, indexed=indexed)
