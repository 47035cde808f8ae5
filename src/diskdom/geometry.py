"""Weighted disks in strictly convex position, plus cyclic index runs.

An instance is a cyclic counterclockwise sequence of disks whose centers
are all strict vertices of their convex hull.  It holds its disks as
float64 columns (center xs and ys, radii, weights), and `canonicalize`
validates and orders whole columns at once; `WeightedDisk` objects are
built only for code that asks for `Instance.disks`.  Every algorithm in
this package reasons about contiguous runs of instance indices, carried
as (start, length) pairs of integers.  The solvers merge many rows of
runs at once with `union_columns`, which lives here next to the disk
predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

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
    """Runs handed to union_columns leave a gap in the cyclic order, first in row `row`."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


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


def intersects_row(
    xs: np.ndarray, ys: np.ndarray, rs: np.ndarray, i, z=slice(None)
) -> np.ndarray:
    """`intersects(disk i, disk z)` for every z at once, as a bool array.

    Takes an instance's `xs`, `ys` and `rs` columns and does the operations of
    `intersects` in the same order, so the two agree bit for bit.  An
    index array of shape (B, 1) for i gives B rows at once.  z picks the
    disks tested, every disk by default; an index array for z is
    broadcast against i, so shape (B, 64) tests B gathered blocks.
    """
    dx = xs[z] - xs[i]
    dy = ys[z] - ys[i]
    rr = rs[i] + rs[z]
    # dx*dx + dy*dy <= rr*rr, in place: a block of rows makes no extra temporaries
    dx *= dx
    dy *= dy
    dx += dy
    rr *= rr
    return dx <= rr


def _cross(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orientation(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of triangle abc (positive = counterclockwise)."""
    return _cross(a.x, a.y, b.x, b.y, c.x, c.y)


class DiskColumns(NamedTuple):
    """Disks as float64 columns: center xs, center ys, radii and weights."""

    xs: np.ndarray
    ys: np.ndarray
    rs: np.ndarray
    ws: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "DiskColumns":
        """The columns of (x, y, r, w) rows."""
        return cls(*np.array(rows, np.float64).reshape(-1, 4).T.copy())


@dataclass(frozen=True, eq=False)
class Instance:
    """Disks in canonical counterclockwise order, as read-only float64 columns.

    Disk i has center (`xs[i]`, `ys[i]`), radius `rs[i]` and weight
    `ws[i]`.  `original_index[i]` is the position the i-th canonical disk
    had in the input passed to `canonicalize`.
    """

    xs: np.ndarray
    ys: np.ndarray
    rs: np.ndarray
    ws: np.ndarray
    original_index: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.original_index)

    @cached_property
    def disks(self) -> tuple[WeightedDisk, ...]:
        """The disks as objects, built on first use (the scalar oracle routes and the tests)."""
        cols = (self.xs.tolist(), self.ys.tolist(), self.rs.tolist(), self.ws.tolist())
        return tuple(WeightedDisk(Point(x, y), r, w) for x, y, r, w in zip(*cols))

    def to_original(self, canonical_indices) -> tuple[int, ...]:
        return tuple(self.original_index[i] for i in canonical_indices)

    def to_canonical(self, original_indices) -> tuple[int, ...]:
        inv = {orig: i for i, orig in enumerate(self.original_index)}
        return tuple(inv[i] for i in original_indices)


def _validate_disks(cols: DiskColumns, weighted: bool) -> None:
    """Raise for the first disk with a non-finite value, a negative radius or,
    when `weighted`, a weight that is not positive."""
    bad = ~np.isfinite(cols).all(axis=0) | (cols.rs < 0) | (weighted & (cols.ws <= 0))
    if not bad.any():
        return
    x, y, r, w = (col[np.argmax(bad)].item() for col in cols)
    d = WeightedDisk(Point(x, y), r, w)
    if not all(map(math.isfinite, (x, y, r, w))):
        raise NonFiniteValue(f"non-finite value in disk {d}")
    if r < 0:
        raise GeometryError(f"negative radius in disk {d}")
    raise NonPositiveWeight(f"weight must be positive, got {w}")


def _hull_order(xs: np.ndarray, ys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`order`, sorted by (x, y), rearranged counterclockwise: the points below
    the line from the first sorted point to the last, then those above it.

    NotStrictlyConvex unless no point is on that line and every cyclic
    triple turns left; an overflowed orientation (NaN) is no left turn.
    """
    first, mid, last = order[:1], order[1:-1], order[-1:]
    with np.errstate(over="ignore", invalid="ignore"):
        side = _cross(xs[first], ys[first], xs[last], ys[last], xs[mid], ys[mid])
        below, above = side < 0, side > 0
        hull = np.concatenate((first, mid[below], last, mid[above][::-1]))
        hx, hy = xs[hull], ys[hull]
        turns = _cross(np.roll(hx, 1), np.roll(hy, 1), hx, hy, np.roll(hx, -1), np.roll(hy, -1))
        if not ((below | above).all() and (turns > 0).all()):
            raise NotStrictlyConvex("centers are not in strictly convex position")
    return hull


def canonicalize(
    raw: Union[DiskColumns, Sequence[WeightedDisk]], *, weighted: bool = True
) -> Instance:
    """Order disks counterclockwise starting at the lexicographically smallest center.

    `raw` is the disks as `DiskColumns`, or a sequence of `WeightedDisk`
    that is turned into columns first.  Every center must be a strict
    vertex of the convex hull: duplicate centers, collinear triples, and
    interior points are all rejected.  The result is idempotent
    (canonicalizing a canonical order is the identity).
    """
    if not isinstance(raw, DiskColumns):
        raw = DiskColumns.from_rows([(d.center.x, d.center.y, d.radius, d.weight) for d in raw])
    if not len(raw.xs):
        raise ValueError("an instance needs at least one disk")
    _validate_disks(raw, weighted)
    order = np.lexsort((raw.ys, raw.xs))
    sx, sy = raw.xs[order], raw.ys[order]
    if ((sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])).any():
        raise DuplicateCenter("two disks share a center")
    if len(order) > 2:
        order = _hull_order(raw.xs, raw.ys, order)
    cols = [col[order] for col in raw]
    for col in cols:
        col.flags.writeable = False
    return Instance(*cols, tuple(order.tolist()))


def offset_ccw(i: int, j: int, n: int) -> int:
    """Steps needed to reach j from i moving counterclockwise."""
    return (j - i) % n


def union_columns(n: int, runs) -> tuple[np.ndarray, np.ndarray]:
    """Merge rows of runs, each row's parts in overlapping-or-abutting order, into one run each.

    The runs are (starts, lengths) array pairs over a cycle of n, starts in
    [0, n): row q merges the q-th entry of each pair, in order.  Empty
    parts are skipped, and a row saturates to the full cycle as soon as
    its accumulated coverage wraps, ignoring its later parts.  Returns
    start and length arrays, canonical: (0, 0) for an empty row, (0, n)
    for a full one.  Raises NotConsecutive when a nonempty part of any row
    leaves a gap against that row's coverage so far.  Each part touches
    only the rows still open, and gaps are raised once, after every part,
    naming the first row with one.
    """
    (s0, k0), *rest = [(np.asarray(ps, np.int64), np.asarray(pk, np.int64)) for ps, pk in runs]
    out_s, out_k = np.zeros_like(s0), np.full_like(k0, n)  # saturated rows read (0, n)
    rows = np.flatnonzero(k0 < n)  # rows still open, with their accumulated run:
    s, length = np.where(k0 == 0, -1, s0)[rows], k0[rows]  # start -1 while empty
    gap = len(s0)  # the first row with a gap so far
    # selects are arithmetic, a + mask * (b - a), and no `%` is taken: both
    # beat np.where and np.mod on int64 columns
    for ps, pk in rest:
        k, p = pk[rows], ps[rows]
        p += (k == 0) * (s - p)  # an empty part merges as (s, 0): no change
        d = p - s  # how far past the accumulated start the part starts
        d += (d < 0) * n
        fresh = s < 0
        wrap = (d > length) & ~fresh  # starts past the accumulated end: must wrap behind it
        broken = wrap & (d + k < n)
        if broken.any():
            gap = min(gap, int(rows[np.argmax(broken)]))
        grown = np.maximum(length, d + k)
        grown += wrap * (np.maximum(k, n - d + length) - grown)
        length = grown + fresh * (k - grown)
        s += (fresh | wrap) * (p - s)
        open_ = length < n
        if not open_.all():
            rows, s, length = rows[open_], s[open_], length[open_]
    if gap < len(s0):
        raise NotConsecutive(f"gap between accumulated run and the next part in row {gap}", gap)
    empty = s < 0
    out_s[rows], out_k[rows] = np.where(empty, 0, s), np.where(empty, 0, length)
    return out_s, out_k
