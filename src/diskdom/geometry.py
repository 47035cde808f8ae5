"""Weighted disks in strictly convex position, plus cyclic index runs.

An instance is a cyclic counterclockwise sequence of disks whose centers
are all strict vertices of their convex hull.  It holds its disks as
float64 columns (center xs and ys, radii, weights), and `canonicalize`
validates and orders whole columns at once; `WeightedDisk` objects are
built only for code that asks for `Instance.disks`.  Every algorithm in
this package reasons about contiguous runs of instance indices, carried
as (start, length) pairs of integers.  The solvers merge two runs per
row, many rows at once, with `union_columns`, which lives here next to
the disk predicates.

Both geometric tests, `intersects_row` (do two closed disks meet) and
`orientation_row` (which way three centers turn), are exact: a float filter
with a forward error bound, then integer arithmetic where it cannot decide.
Both first try the filter again on each entry it left undecided, scaled by a
power of two (`_signs`), so entries at extreme scales stay in numpy.
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
    """A second run handed to union_columns leaves a gap after its first, first in row `row`."""

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
    """The sign of `formula`'s value at each tuple of the float `operands` (1-D, finite), in
    integer arithmetic: each tuple scaled by its largest denominator, a power of two."""
    signs = []
    for values in zip(*(op.tolist() for op in operands)):
        ratios = [v.as_integer_ratio() for v in values]
        k = max(d for _, d in ratios).bit_length()
        value, _ = formula(*(n << (k - d.bit_length()) for n, d in ratios))
        signs.append((value > 0) - (value < 0))
    return np.array(signs, np.int8)


def _signs(formula, operands: np.ndarray) -> np.ndarray:
    """The exact sign of `formula`'s value at each column of the float `operands`, as int8:
    the float filter (`_unsure`) on each column scaled by the power of two that puts its
    largest magnitude in [0.5, 1), which changes no sign, then integer arithmetic
    (`_exact_signs`) where it is unsure or a scaled entry is nonzero below 2**-1022."""
    _, exponent = np.frexp(np.abs(operands).max(axis=0))
    scaled = np.ldexp(operands, -exponent)
    inexact = ((scaled != 0) & (np.abs(scaled) < 2.0**-1022)).any(axis=0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        value, size = formula(*scaled)
        sign = np.sign(value).astype(np.int8)
        left = _unsure(value, size) | inexact
    sign[left] = _exact_signs(formula, *operands[:, left])
    return sign


def _gap(x1, x2, y1, y2, r1, r2):
    """(r1 + r2)² - d², d the distance from (x1, y1) to (x2, y2), and its size (r1+r2)² + d²."""
    dx, dy, rr = x2 - x1, y2 - y1, r1 + r2
    return rr * rr - dx * dx - dy * dy, rr * rr + dx * dx + dy * dy


def gap_signs(x1, x2, y1, y2, r1, r2) -> np.ndarray:
    """The exact sign of (r1 + r2)² - d² (`_gap`) at each entry of the float arrays."""
    return _signs(_gap, np.array((x1, x2, y1, y2, r1, r2), np.float64))


def intersects_row(xs: np.ndarray, ys: np.ndarray, rs: np.ndarray, i, z=None) -> np.ndarray:
    """`intersects(disk i, disk z)` for every z at once, as a bool array, exactly.

    Takes an instance's finite `xs`, `ys` and `rs` columns, flat or as rows of w disks.
    A float filter decides d² <= (r_i + r_z)² within its error bound (`_unsure`), and
    `gap_signs` each pair it leaves unsure (a second filter on the pair scaled by a power
    of two, then integer arithmetic).  i of shape (B, 1) gives B rows; z, an index array
    broadcast against i, picks the disks tested (all when None), or with (B,) z the rows.
    """
    fx, fy, fr = (np.reshape(col, -1) for col in (xs, ys, rs))  # disk i is entry i
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if z is None:  # whole rows, read from the columns
            dx, dy, rr = xs - fx[i], ys - fy[i], rs + fr[i]
        else:  # gathered copies in the result's shape, worked in place
            lead = np.shape(i)[: np.ndim(i) + 1 - xs.ndim]  # i's shape less a row's axis
            z = np.broadcast_to(z, np.broadcast_shapes(lead, np.shape(z)))
            dx, dy, rr = xs[z], ys[z], rs[z]
            dx -= fx[i]
            dy -= fy[i]
            rr += fr[i]
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
        i, z = np.broadcast_arrays(i, np.arange(len(fx)).reshape(xs.shape)[... if z is None else z])
        pairs = i[unsure] * len(fx) + z[unsure]
        pairs, back = np.unique(pairs, return_inverse=True)
        i, z = np.divmod(pairs, len(fx))
        meets[unsure] = (gap_signs(fx[i], fx[z], fy[i], fy[z], fr[i], fr[z]) >= 0)[back]
    return meets


def _area(ax, ay, bx, by, cx, cy):
    """Twice the signed area of triangle abc, and its size: the sum of its terms' magnitudes."""
    left, right = (bx - ax) * (cy - ay), (by - ay) * (cx - ax)
    return left - right, abs(left) + abs(right)


def orientation_row(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Exact sign of twice the signed area of each triangle abc, as int8: 1 if ccw, -1 if cw.

    The coordinates are finite float64 arrays, broadcast together.  A float
    filter decides every sign its forward error bound (`_unsure`) allows, and
    `_signs` the rest, 0 for collinear points: the filter again on each
    triangle scaled by a power of two, then integer arithmetic.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        area, size = _area(ax, ay, bx, by, cx, cy)
        sign = np.sign(area).astype(np.int8)
        unsure = _unsure(area, size)
    if unsure.any():
        points = np.array([q[unsure] for q in np.broadcast_arrays(ax, ay, bx, by, cx, cy)])
        sign[unsure] = _signs(_area, points)
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

    @cached_property
    def canonical_index(self) -> np.ndarray:
        """`original_index` inverted: the canonical index of the disk at each input position."""
        inverse = np.empty(self.n, np.int64)
        inverse[np.fromiter(self.original_index, np.int64, self.n)] = np.arange(self.n)
        return inverse

    def to_canonical(self, original_indices) -> tuple[int, ...]:
        """The canonical index of each input position; KeyError for a value outside range(n)."""
        picked = tuple(original_indices)
        if not all(o in range(self.n) for o in picked):
            raise KeyError(f"not an input position of {self.n} disks: {picked}")
        return tuple(self.canonical_index[np.array(picked, np.int64)].tolist())


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


def union_columns(n: int, first, second) -> tuple[np.ndarray, np.ndarray]:
    """Merge two runs per row, the second overlapping or abutting the first, into one run each.

    `first` and `second` are (starts, lengths) array pairs over a cycle of
    n, starts in [0, n): row q merges the q-th run of each.  Both runs of
    every row are nonempty, and a length of n or more is the whole cycle
    (a second run lengthened by its tail can reach past n).  Returns start
    and length arrays, canonical: (0, n) for a full row.  Raises
    NotConsecutive, naming the first such row, when a second run leaves a
    gap against its first.
    """
    s1, k1, s2, k2 = (np.asarray(col, np.int64) for col in (*first, *second))
    # selects are arithmetic, a + mask * (b - a), and no `%` is taken: both
    # beat np.where and np.mod on int64 columns
    d = s2 - s1  # how far past the first run's start the second starts
    d += (d < 0) * n
    wrap = d > k1  # starts past the first run's end: must wrap behind it
    broken = wrap & (d + k2 < n)
    if broken.any():
        row = int(np.argmax(broken))
        raise NotConsecutive(f"gap between the first run and the second in row {row}", row)
    grown = np.maximum(k1, d + k2)
    length = grown + wrap * (np.maximum(k2, n - d + k1) - grown)
    open_ = length < n
    return (s1 + wrap * (s2 - s1)) * open_, np.minimum(length, n)
