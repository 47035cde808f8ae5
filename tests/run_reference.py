"""Reference twins of the run merge `geometry.union_columns`; the solvers never run them.

`CyclicSublist` is a run of instance indices as a value, for the
reference queries and the tests.  `union_runs` merges one row of any
number of runs given as (start, length) pairs, and `union_extend` merges
runs given as `CyclicSublist` values.  Tests check that the two-run
`union_columns` agrees with `union_runs` row by row on every pair of
nonempty runs, and `union_runs` with `union_extend`, on every outcome
(merged run, saturation, wrap-behind and `NotConsecutive`).  The
scalar level builders of `greedy_reference` and `weighted_reference`
merge with `union_runs`, and the weighted reference steps with
`union_extend`, so those oracles stay independent of the production merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from diskdom.geometry import NotConsecutive


@dataclass(frozen=True)
class CyclicSublist:
    """A contiguous run of instance indices: start, start+1, ... (mod n).

    Empty and full runs are canonicalized to start 0 so equality is plain
    structural equality.
    """

    start: int
    length: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.length <= self.n:
            raise ValueError("length out of range")
        if self.length in (0, self.n):
            object.__setattr__(self, "start", 0)
        else:
            object.__setattr__(self, "start", self.start % self.n)

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def is_full(self) -> bool:
        return self.length == self.n

    @property
    def cw_end(self) -> int:
        """First covered index; undefined for empty or full runs."""
        if self.is_empty or self.is_full:
            raise ValueError("endpoint undefined for empty/full run")
        return self.start

    @property
    def ccw_end(self) -> int:
        """Last covered index; undefined for empty or full runs."""
        if self.is_empty or self.is_full:
            raise ValueError("endpoint undefined for empty/full run")
        return (self.start + self.length - 1) % self.n

    def covers(self, idx: int) -> bool:
        if self.is_empty:
            return False
        return (idx - self.start) % self.n < self.length

    def __contains__(self, idx: int) -> bool:
        return self.covers(idx)

    def indices(self) -> Iterator[int]:
        for k in range(self.length):
            yield (self.start + k) % self.n

    def contains_sub(self, other: "CyclicSublist") -> bool:
        """True when every index of `other` is covered by this run."""
        if other.n != self.n:
            raise ValueError("runs over different instance sizes")
        if other.is_empty or self.is_full:
            return True
        if other.length > self.length:
            return False
        d = (other.start - self.start) % self.n
        return d + other.length <= self.length


def union_runs(n: int, runs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Merge runs that appear in overlapping-or-abutting order into one run.

    Runs are (start, length) pairs over a cycle of n, with starts in
    [0, n).  Empty runs are skipped, and the result saturates to the full
    cycle as soon as the accumulated coverage wraps.  Returns the merged
    run as (start, length), canonical like `CyclicSublist`: (0, 0) when
    empty, (0, n) when full.  Raises NotConsecutive when a nonempty run
    leaves a gap against the coverage accumulated so far.
    """
    s = -1
    length = 0
    for ps, pk in runs:
        if pk == 0:
            continue
        if pk == n or length >= n:
            return 0, n
        if s < 0:
            s, length = ps, pk
            continue
        d = (ps - s) % n
        if d <= length:
            if d + pk > length:
                length = d + pk
        elif d + pk >= n:
            # wraps around behind the accumulated run
            length = max(pk, n - d + length)
            s = ps
        else:
            raise NotConsecutive(f"gap between accumulated run and ({ps}, {pk})")
    if s < 0:
        return 0, 0
    if length >= n:
        return 0, n
    return s, length


def union_extend(parts: Sequence[CyclicSublist]) -> CyclicSublist:
    """Merge runs that appear in overlapping-or-abutting order into one run.

    Saturates to the full cycle as soon as the accumulated coverage wraps.
    Raises NotConsecutive when a nonempty part leaves a gap against the
    coverage accumulated so far.
    """
    if not parts:
        raise ValueError("union_extend needs at least one part")
    n = parts[0].n
    s = None
    length = 0
    for p in parts:
        if p.n != n:
            raise ValueError("runs over different instance sizes")
        if p.is_empty:
            continue
        if p.is_full or length >= n:
            return CyclicSublist(0, n, n)
        if s is None:
            s, length = p.start, p.length
            continue
        d = (p.start - s) % n
        if d <= length:
            length = max(length, d + p.length)
        elif d + p.length >= n:
            # wraps around behind the accumulated run
            length = max(p.length, n - d + length)
            s = p.start
        else:
            raise NotConsecutive(f"gap between accumulated run and {p}")
    if s is None:
        return CyclicSublist(0, 0, n)
    if length >= n:
        return CyclicSublist(0, n, n)
    return CyclicSublist(s, length, n)


def run_of(cand, n: int) -> CyclicSublist:
    """A candidate's (start, length) run as a `CyclicSublist` over n."""
    return CyclicSublist(cand.start, cand.length, n)
