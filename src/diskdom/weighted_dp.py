"""Minimum-weight dominating sets of convex-position disk graphs.

The solver grows per-point tables of candidates level by level.  A
candidate pairs a contiguous run of hull indices with a witness set that
dominates the run and a value bounding the witness weight.  Level t
candidates for point i are built three ways:

* counterclockwise: a run from i's own level-t' bucket, extended by the
  cheapest run from the previous global level starting just past it, plus
  the stretch after that which disk i dominates by itself (`run_after`);
* clockwise: the mirror image.  One routine (`_directional_combos`)
  builds both, and the scan chains it reads take the direction as a
  parameter too;
* bidirectional: one run from i's bucket in each direction, meeting at i,
  with i's weight counted once.

Runs are (start, length) pairs of integers throughout, merged by
`geometry.union_runs`.  Combinations are plain tuples, and a bucket keeps
one per run, the first to arrive, replaced only by a strictly cheaper
copy; only the kept ones become `Candidate`s (`dedup_runs`).

Each combination asks a built level for the cheapest run containing a
query run that grows from a fixed anchor, one index at a time.  The answer
only changes when the query outgrows it, so the solver consumes whole
scan chains: the distinct answers in order of growing query.  A chain is
read off a staircase.  Walking a level's candidates in (value, id) order,
the ones that reach strictly farther from the anchor than every cheaper
candidate are exactly the chain.  A full-circle candidate of minimum value
over all levels yields the answer.

The tests build the same chains from plain-scan cheapest-enclosing
queries, one growing run at a time (`tests/weighted_reference.py`), and
compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .geometry import Instance, union_runs
from .neighbor_index import build_neighbor_index
from .solution import (
    Infeasible,
    Solution,
    SolverInvariantError,
    check_dominated_run,
    check_size_bound,
    solution_of,
)

VALUE_SLACK = 1e-9  # tolerance of the validator's witness-weight check


@dataclass(frozen=True)
class Candidate:
    """The run (start, length) dominated by `witnesses`, costing at most `value`."""

    start: int
    length: int
    value: float
    witnesses: frozenset[int]
    owner: int
    level: int


def make_validator(instance: Instance) -> Callable[[Candidate], None]:
    """Checks run on every candidate before dedup; failures raise SolverInvariantError."""
    disks = instance.disks

    def validate(cand: Candidate) -> None:
        check_dominated_run(instance, cand)
        total = math.fsum(disks[w].weight for w in sorted(cand.witnesses))
        if total > cand.value + VALUE_SLACK * max(1.0, abs(cand.value)):
            raise SolverInvariantError(f"witnesses weigh {total}: {cand}")

    return validate


class LevelTable:
    """All candidates of one level, bucketed by owning point; never changed.

    `buckets[i]` lists point i's candidates, one per run (`dedup_runs`).
    The constructor assigns candidate ids (bucket order, then position in
    the bucket) and lays the runs out as numpy arrays twice: sorted by
    (value, id) over the whole level, and sorted by (value, id) within
    each bucket, so that every bucket is a contiguous slice.  The two
    scan-chain methods, each taking the direction as a parameter, answer
    from those arrays (see `_staircase`) and cache their chains in one
    dict.
    """

    def __init__(self, instance: Instance, level: int, buckets: list[list[Candidate]]):
        self.instance = instance
        self.level = level
        self.buckets = buckets
        self._by_id = [cand for bucket in buckets for cand in bucket]
        sizes = [len(bucket) for bucket in buckets]
        self._bucket_lo = [0, *accumulate(sizes)]  # bucket i holds ids [lo[i], lo[i+1])
        m = len(self._by_id)
        starts = np.fromiter((c.start for c in self._by_id), np.int64, m)
        lengths = np.fromiter((c.length for c in self._by_id), np.int64, m)
        values = np.fromiter((c.value for c in self._by_id), np.float64, m)
        owners = np.repeat(np.arange(len(sizes)), sizes)
        # both sorts are stable, so equal values stay in id order
        by_value = np.argsort(values, kind="stable")
        by_bucket = np.lexsort((values, owners))
        self._global_runs = _SortedRuns(by_value, starts, lengths)
        self._bucket_runs = _SortedRuns(by_bucket, starts, lengths)
        self._chains: dict[tuple, list[Candidate]] = {}  # (bucket chain?, anchor, ccw) -> chain

    def all_candidates(self) -> Sequence[Candidate]:
        return self._by_id

    # -- distinct-answer scan chains ------------------------------------

    def _staircase(
        self, runs: _SortedRuns, lo: int, hi: int, anchor: int, *, ccw: bool
    ) -> list[Candidate]:
        """Chain of the candidates at positions [lo, hi) of `runs`.

        A candidate's reach is how far past `anchor` its run extends
        (counterclockwise or clockwise): n for a full run, -1 for a run
        missing the anchor.  The query of length q lies inside it exactly
        when reach >= q - 1, so the cheapest answer to each query is the
        first candidate in (value, id) order reaching that far, and the
        distinct answers are the candidates that reach strictly farther
        than every one before them.
        """
        n = self.instance.n
        starts = runs.starts[lo:hi]
        lengths = runs.lengths[lo:hi]
        off = (anchor - starts) % n
        reach = np.where(off < lengths, lengths - 1 - off if ccw else off, -1)
        reach[lengths == n] = n
        best = np.maximum.accumulate(reach)
        step = best != np.concatenate(([-1], best[:-1]))  # the best reach grows
        return list(map(self._by_id.__getitem__, runs.ids[lo:hi][step].tolist()))

    def _bucket_chain(self, i: int, *, ccw: bool) -> list[Candidate]:
        lo, hi = self._bucket_lo[i : i + 2]
        return self._staircase(self._bucket_runs, lo, hi, i, ccw=ccw)

    def _global_chain(self, anchor: int, *, ccw: bool) -> list[Candidate]:
        return self._staircase(self._global_runs, 0, len(self._by_id), anchor, ccw=ccw)

    def bucket_chain(self, i: int, *, ccw: bool) -> list[Candidate]:
        """Distinct bucket-i answers for queries growing from i, ccw or cw."""
        chain = self._chains.get((True, i, ccw))
        if chain is None:
            chain = self._chains[True, i, ccw] = self._bucket_chain(i, ccw=ccw)
        return chain

    def global_chain(self, anchor: int, *, ccw: bool) -> list[Candidate]:
        """Distinct global answers for queries growing from `anchor`, ccw or cw."""
        chain = self._chains.get((False, anchor, ccw))
        if chain is None:
            chain = self._chains[False, anchor, ccw] = self._global_chain(anchor, ccw=ccw)
        return chain


class _SortedRuns:
    """A level's candidate runs, permuted into one (value, id) order."""

    __slots__ = ("ids", "starts", "lengths")

    def __init__(self, order: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        self.ids = order
        self.starts = starts[order]
        self.lengths = lengths[order]


def dedup_runs(combos: Iterable[tuple], owner: int, level: int, validator=None) -> list[Candidate]:
    """One bucket: a `Candidate` for each run of `combos`, plain tuples
    (start, length, value, witnesses_a, witnesses_b), each validated first
    if `validator` is given.  A run's first combination fixes its position
    in the bucket, and a later copy replaces it only when strictly cheaper.
    """
    kept: dict[tuple[int, int], tuple] = {}  # (start, length) -> (value, a, b)
    for s, k, value, a, b in combos:
        if validator is not None:
            validator(Candidate(s, k, value, a | b, owner, level))
        old = kept.get((s, k))
        if old is None or value < old[0]:
            kept[s, k] = value, a, b
    return [Candidate(s, k, v, a | b, owner, level) for (s, k), (v, a, b) in kept.items()]


def _directional_combos(nbr, levels, i: int, t: int, *, ccw: bool, every: bool) -> Iterator[tuple]:
    """i's one-way level-t combinations, counterclockwise or clockwise.

    For each split level t', every run l1 of i's level-t' bucket chain is
    extended by every run l2 of the level-(t-t') global chain starting just
    past l1's far end, then by the stretch disk i dominates past l2's far
    end.  A full l1 is a combination by itself.  Unless `every`, a run equal
    to the one just made from the same l1 (never cheaper) is skipped.
    """
    n = nbr.n
    dom = nbr.dominated_run(i)
    tail = cache(partial(nbr.run_after if ccw else nbr.run_before, i))  # of l2's far end
    for tp in range(1, t):
        for l1 in levels[tp].bucket_chain(i, ccw=ccw):
            s1, k1, v1, a = l1.start, l1.length, l1.value, l1.witnesses
            if k1 == n:
                yield 0, n, v1, a, a
                continue
            head, last = union_runs(n, (dom, (s1, k1))), None
            for l2 in levels[t - tp].global_chain((s1 + k1) % n if ccw else (s1 - 1) % n, ccw=ccw):
                s2, k2 = l2.start, l2.length
                run = union_runs(n, (head, (s2, k2), tail((s2 + k2 - 1) % n if ccw else s2)))
                if run != last or every:
                    last = run
                    yield *run, v1 + l2.value, a, l2.witnesses


def _bidi_combos(nbr, levels, i: int, t: int, *, every: bool) -> Iterator[tuple]:
    """i's combinations of a ccw run lx and a cw run ly, weight wi counted once."""
    n = nbr.n
    dom = nbr.dominated_run(i)
    wi = nbr.instance.disks[i].weight
    for tp in range(2, t):
        ys = levels[t + 1 - tp].bucket_chain(i, ccw=False)
        for lx in levels[tp].bucket_chain(i, ccw=True):
            head, last = union_runs(n, (dom, (lx.start, lx.length))), None
            for ly in ys:
                run = union_runs(n, (head, (ly.start, ly.length)))
                if run != last or every:
                    last = run
                    yield *run, lx.value + ly.value - wi, lx.witnesses, ly.witnesses


def build_level(
    instance: Instance,
    nbr,
    levels: Sequence[Optional[LevelTable]],
    t: int,
    *,
    validator: Optional[Callable[[Candidate], None]] = None,
) -> LevelTable:
    """Level t, combined from levels 1..t-1 (`levels[t']`).

    Level 1 holds one candidate per point: its own dominated run at its
    own weight.  With a `validator`, every combination, same-run repeats
    included, is validated before its bucket's dedup (`dedup_runs`).
    """
    every = validator is not None
    buckets = []
    for i, disk in enumerate(instance.disks):
        if t == 1:
            combos = [(*nbr.dominated_run(i), disk.weight, frozenset((i,)), frozenset((i,)))]
        else:
            combos = chain(
                _directional_combos(nbr, levels, i, t, ccw=True, every=every),
                _directional_combos(nbr, levels, i, t, ccw=False, every=every),
                _bidi_combos(nbr, levels, i, t, every=every),
            )
        buckets.append(dedup_runs(combos, i, t, validator))
    return LevelTable(instance, t, buckets)


def solve_weighted(instance: Instance, k: int, *, check_invariants: bool = False) -> Solution:
    """Minimum-weight dominating set of size at most k, or Infeasible.

    Deterministic for fixed inputs.  `check_invariants=True` validates
    every candidate, also those the same-run dedup drops, and raises
    SolverInvariantError on a broken one; it changes nothing about the
    result.

    When the counting bound (`domination_lower_bound`) already exceeds k,
    Infeasible is raised right after level 1, before any level is combined.
    """
    check_size_bound("k", k, instance.n)
    n = instance.n
    nbr = build_neighbor_index(instance)
    validator = make_validator(instance) if check_invariants else None
    levels: list[Optional[LevelTable]] = [None]
    for t in range(1, k + 1):
        levels.append(build_level(instance, nbr, levels, t, validator=validator))
        if t == 1 and k < n and nbr.domination_lower_bound() > k:
            raise Infeasible(k)
    best: Optional[Candidate] = None
    for t in range(1, k + 1):
        for cand in levels[t].all_candidates():
            if cand.length == n and (best is None or cand.value < best.value):
                best = cand
    if best is None:
        raise Infeasible(k)
    return solution_of(instance, best.witnesses, "weighted")


def solve_weighted_unbounded(instance: Instance, **kwargs) -> Solution:
    """Minimum-weight dominating set with no size bound (k = n is always feasible)."""
    return solve_weighted(instance, instance.n, **kwargs)
