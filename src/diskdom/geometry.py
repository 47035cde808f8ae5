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

Both geometric tests, `intersects_row` (do two closed disks meet) and
`orientation_row` (which way three centers turn), are exact: a float filter
with a forward error bound, then integer arithmetic where it cannot decide.
`intersects_row` first tries the filter again on each pair it left undecided,
scaled by a power of two, so pairs at extreme scales stay in numpy.
Their scalar forms, `intersects` and `orientation`, only call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

_REL, _ABS = 2.0**-48, 2.0**-1020  # the float filters' error bound (`_unsure`)


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
    """Closed intersection test, tangency counts, exactly: `intersects_row` on the pair."""
    cols = np.array([(d.center.x, d.center.y, d.radius) for d in (d1, d2)], np.float64).T
    return bool(intersects_row(*cols, 0, [1])[0])


def _unsure(value: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Where the float `value` may have the wrong sign: within `_REL * size + _ABS` of 0,
    NaN, or with `size` infinite.  `size`, the sum of the magnitudes of `value`'s terms,
    bounds their few roundings, each of relative error 2**-53 at most (or, underflowed,
    of absolute error 2**-1075).  Both arrays are overwritten."""
    size *= _REL
    size += _ABS
    return ~(np.abs(value, out=value) > size)


def _exact_signs(formula, *operands: np.ndarray) -> np.ndarray:
    """The sign of `formula` at each tuple of the float `operands` (1-D, finite), in
    integer arithmetic: each tuple scaled by its largest denominator, a power of two."""
    signs = []
    for values in zip(*(op.tolist() for op in operands)):
        ratios = [v.as_integer_ratio() for v in values]
        k = max(d for _, d in ratios).bit_length()
        value = formula(*(n << (k - d.bit_length()) for n, d in ratios))
        signs.append((value > 0) - (value < 0))
    return np.array(signs, np.int8)


def _scaled(operands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column of `operands` times the power of two that puts its largest magnitude in
    [0.5, 1), and per column whether that product is exact: no nonzero entry falls below
    2**-1022, where a float loses precision."""
    _, exponent = np.frexp(np.abs(operands).max(axis=0))
    scaled = np.ldexp(operands, -exponent)
    return scaled, ((scaled == 0) | (np.abs(scaled) >= 2.0**-1022)).all(axis=0)


def _gap(x1, x2, y1, y2, r1, r2):
    """(r1 + r2)² - d², where d is the distance between (x1, y1) and (x2, y2)."""
    dx, dy, rr = x2 - x1, y2 - y1, r1 + r2
    return rr * rr - dx * dx - dy * dy


def _gap_size(x1, x2, y1, y2, r1, r2):
    """(r1 + r2)² + d²: the sum of the magnitudes of `_gap`'s terms."""
    dx, dy, rr = x2 - x1, y2 - y1, r1 + r2
    return rr * rr + dx * dx + dy * dy


def intersects_row(xs: np.ndarray, ys: np.ndarray, rs: np.ndarray, i, z=None) -> np.ndarray:
    """`intersects(disk i, disk z)` for every z at once, as a bool array, exactly.

    Takes an instance's finite `xs`, `ys` and `rs` columns.  A float filter decides
    d² <= (r_i + r_z)² within its error bound (`_unsure`).  It tries again on each pair
    it leaves unsure, scaled by a power of two where that is exact (`_scaled`): a
    positive factor changes no sign, and the squares of very large or very small
    coordinates then neither overflow nor underflow.  Integer arithmetic
    (`_exact_signs`) decides the rest.  i of shape (B, 1) gives B rows; z, an index array
    broadcast against i, picks the disks tested (all when None): (B, 64) tests B blocks.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if z is None:  # whole rows, read from the columns
            dx, dy, rr = xs - xs[i], ys - ys[i], rs + rs[i]
        else:  # gathered copies in the result's shape, worked in place
            z = np.broadcast_to(z, np.broadcast(i, z).shape)
            dx, dy, rr = xs[z], ys[z], rs[z]
            dx -= xs[i]
            dy -= ys[i]
            rr += rs[i]
        dx *= dx
        dy *= dy
        dx += dy
        rr *= rr
        rr -= dx  # (r_i + r_z)² - d²
        meets = rr >= 0
        dx += dx
        dx += rr  # d² + (r_i + r_z)², the size of the terms
        unsure = _unsure(rr, dx)
    if unsure.any():  # each distinct pair once
        i, z = np.broadcast_arrays(i, np.arange(len(xs)) if z is None else z)
        pairs = i[unsure] * len(xs) + z[unsure]
        pairs, back = np.unique(pairs, return_inverse=True)
        i, z = np.divmod(pairs, len(xs))
        operands = np.array((xs[i], xs[z], ys[i], ys[z], rs[i], rs[z]))
        scaled, exact = _scaled(operands)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            gap = _gap(*scaled)
            meet = gap >= 0
            left = _unsure(gap, _gap_size(*scaled)) | ~exact
        meet[left] = _exact_signs(_gap, *operands[:, left]) >= 0
        meets[unsure] = meet[back]
    return meets


def _area(ax, ay, bx, by, cx, cy):
    """Twice the signed area of triangle abc."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orientation_row(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Exact sign of twice the signed area of each triangle abc, as int8: 1 if ccw, -1 if cw.

    The coordinates are finite float64 arrays, broadcast together.  A float
    filter decides every sign its forward error bound (`_unsure`) allows, and
    integer arithmetic the rest (`_exact_signs`), 0 for collinear points.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        left, right = (bx - ax) * (cy - ay), (by - ay) * (cx - ax)
        area = left - right
        sign = np.sign(area).astype(np.int8)
        unsure = _unsure(area, np.abs(left) + np.abs(right))
    if unsure.any():
        points = (q[unsure] for q in np.broadcast_arrays(ax, ay, bx, by, cx, cy))
        sign[unsure] = _exact_signs(_area, *points)
    return sign


def orientation(a: Point, b: Point, c: Point) -> int:
    """1 if abc turns counterclockwise, -1 if clockwise, 0 if collinear: `orientation_row`."""
    coords = np.array([[a.x], [a.y], [b.x], [b.y], [c.x], [c.y]], np.float64)
    return int(orientation_row(*coords)[0])


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
    triple turns left, both by the exact `orientation_row`.
    """
    first, mid, last = order[:1], order[1:-1], order[-1:]
    side = orientation_row(xs[first], ys[first], xs[last], ys[last], xs[mid], ys[mid])
    below, above = side < 0, side > 0
    hull = np.concatenate((first, mid[below], last, mid[above][::-1]))
    before, after = np.roll(hull, 1), np.roll(hull, -1)
    turns = orientation_row(xs[before], ys[before], xs[hull], ys[hull], xs[after], ys[after])
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
