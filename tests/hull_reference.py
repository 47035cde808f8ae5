"""Scalar reference twin of `geometry.canonicalize`, for differential tests.

Validates one disk at a time and orders the centers with Andrew's
monotone chain over `geometry.orientation`, one Python triple at a time.
`canonicalize` splits the points by side and checks every turn in bulk;
the two must accept the same inputs, in the same order, and reject the
rest with the same exception class.
"""

from __future__ import annotations

import math
from typing import Sequence

from diskdom.geometry import (
    DuplicateCenter,
    GeometryError,
    NonFiniteValue,
    NonPositiveWeight,
    NotStrictlyConvex,
    WeightedDisk,
    orientation,
)


def _validate_disks(raw: Sequence[WeightedDisk], weighted: bool) -> None:
    for d in raw:
        for v in (d.center.x, d.center.y, d.radius, d.weight):
            if not math.isfinite(v):
                raise NonFiniteValue(f"non-finite value in disk {d}")
        if d.radius < 0:
            raise GeometryError(f"negative radius in disk {d}")
        if weighted and d.weight <= 0:
            raise NonPositiveWeight(f"weight must be positive, got {d.weight}")


def chain_order(raw: Sequence[WeightedDisk], *, weighted: bool = True) -> tuple[int, ...]:
    """The input positions of the disks in canonical counterclockwise order.

    Raises as `canonicalize` does: ValueError for no disks, then the
    validation errors, DuplicateCenter and NotStrictlyConvex.
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
        return tuple(order)

    def chain(idxs):
        out: list[int] = []
        for i in idxs:
            # pop unless a left turn
            while len(out) >= 2 and not orientation(
                raw[out[-2]].center, raw[out[-1]].center, raw[i].center
            ) > 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    hull = lower[:-1] + upper[:-1]
    if len(hull) != n:
        raise NotStrictlyConvex("centers are not in strictly convex position")
    return tuple(hull)
