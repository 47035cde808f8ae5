"""Weighted disks in strictly convex position, plus cyclic index runs.

An instance is a cyclic counterclockwise sequence of disks whose centers
are all strict vertices of their convex hull.  Every algorithm in this
package reasons about contiguous runs of instance indices.  The solvers
carry a run as a (start, length) pair of integers and merge runs with
`union_runs`; `CyclicSublist` is the run as a value, for results and
reference queries.  Both live here next to the disk predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class GeometryError(ValueError):
    """Input that cannot form a valid instance."""


class DuplicateCenter(GeometryError):
    """Two input disks share the same center."""


class NotStrictlyConvex(GeometryError):
    """Some center is interior to, or collinear on, the hull of the centers."""


class NonPositiveWeight(GeometryError):
    """A weight is zero or negative where positive weights are required."""


class NonFiniteValue(GeometryError):
    """A coordinate, radius, or weight is NaN or infinite."""


class NotConsecutive(ValueError):
    """Runs handed to union_runs leave a gap in the cyclic order."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class WeightedDisk:
    center: Point
    radius: float
    weight: float = 1.0


def intersects(d1: WeightedDisk, d2: WeightedDisk) -> bool:
    """Closed intersection test; tangency counts.

    Compares squared distances so no square root is taken: exact whenever
    the inputs are exactly representable.
    """
    dx = d2.center.x - d1.center.x
    dy = d2.center.y - d1.center.y
    rr = d1.radius + d2.radius
    return dx * dx + dy * dy <= rr * rr


def disk_arrays(instance: "Instance") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The instance's center xs, center ys and radii as float64 arrays."""
    disks = instance.disks
    xs = np.array([d.center.x for d in disks], dtype=np.float64)
    ys = np.array([d.center.y for d in disks], dtype=np.float64)
    rs = np.array([d.radius for d in disks], dtype=np.float64)
    return xs, ys, rs


def intersects_row(xs: np.ndarray, ys: np.ndarray, rs: np.ndarray, i: int) -> np.ndarray:
    """`intersects(disk i, disk z)` for every z at once, as a bool array.

    Takes the arrays of `disk_arrays` and does the operations of
    `intersects` in the same order, so the two agree bit for bit.
    """
    dx = xs - xs[i]
    dy = ys - ys[i]
    rr = rs[i] + rs
    return dx * dx + dy * dy <= rr * rr


def orientation(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of triangle abc (positive = counterclockwise)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


@dataclass(frozen=True)
class Instance:
    """Disks in canonical counterclockwise order.

    `original_index[i]` is the position the i-th canonical disk had in the
    input passed to `canonicalize`.
    """

    disks: tuple[WeightedDisk, ...]
    original_index: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.disks)

    def to_original(self, canonical_indices) -> tuple[int, ...]:
        return tuple(self.original_index[i] for i in canonical_indices)

    def to_canonical(self, original_indices) -> tuple[int, ...]:
        inv = {orig: i for i, orig in enumerate(self.original_index)}
        return tuple(inv[i] for i in original_indices)


def _validate_disks(raw: Sequence[WeightedDisk], weighted: bool) -> None:
    for d in raw:
        for v in (d.center.x, d.center.y, d.radius, d.weight):
            if not math.isfinite(v):
                raise NonFiniteValue(f"non-finite value in disk {d}")
        if d.radius < 0:
            raise GeometryError(f"negative radius in disk {d}")
        if weighted and d.weight <= 0:
            raise NonPositiveWeight(f"weight must be positive, got {d.weight}")


def canonicalize(raw: Sequence[WeightedDisk], *, weighted: bool = True) -> Instance:
    """Order disks counterclockwise starting at the lexicographically smallest center.

    Every center must be a strict vertex of the convex hull: duplicate
    centers, collinear triples, and interior points are all rejected.
    The result is idempotent (canonicalizing a canonical order is the
    identity).
    """
    if not raw:
        raise ValueError("an instance needs at least one disk")
    _validate_disks(raw, weighted)
    pts = [(d.center.x, d.center.y) for d in raw]
    if len(set(pts)) != len(pts):
        raise DuplicateCenter("two disks share a center")
    n = len(raw)
    order = sorted(range(n), key=lambda i: pts[i])
    if n <= 2:
        return Instance(tuple(raw[i] for i in order), tuple(order))

    def chain(idxs):
        out: list[int] = []
        for i in idxs:
            while len(out) >= 2 and orientation(
                raw[out[-2]].center, raw[out[-1]].center, raw[i].center
            ) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    hull = lower[:-1] + upper[:-1]
    if len(hull) != n:
        raise NotStrictlyConvex("centers are not in strictly convex position")
    return Instance(tuple(raw[i] for i in hull), tuple(hull))


def offset_ccw(i: int, j: int, n: int) -> int:
    """Steps needed to reach j from i moving counterclockwise."""
    return (j - i) % n


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
