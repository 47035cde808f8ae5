"""`fractions.Fraction` twins of the geometric tests, which tests use to back their expectations.

Each converts the floats it is given exactly and decides in rational
arithmetic, one pair or triple at a time, so it shares nothing with the
float filters of `geometry.intersects_row` and `geometry.orientation_row`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def exact_meets(a, b) -> bool:
    """Whether closed disks a and b meet."""
    dx = Fraction(b.center.x) - Fraction(a.center.x)
    dy = Fraction(b.center.y) - Fraction(a.center.y)
    rr = Fraction(a.radius) + Fraction(b.radius)
    return dx * dx + dy * dy <= rr * rr


def exact_orientation(p, q, r) -> int:
    """Sign of the turn p -> q -> r, for (x, y) pairs: 1 left, -1 right, 0 straight."""
    (px, py), (qx, qy), (rx, ry) = ((Fraction(x), Fraction(y)) for x, y in (p, q, r))
    area = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (area > 0) - (area < 0)


def exactly_convex(points) -> bool:
    """Whether distinct (x, y) points are in strictly convex position: no three
    on a line, and none inside a triangle of three others."""
    if any(exact_orientation(*t) == 0 for t in combinations(points, 3)):
        return False
    for p in points:
        for a, b, c in combinations([q for q in points if q != p], 3):
            sides = {exact_orientation(q, r, p) for q, r in ((a, b), (b, c), (c, a))}
            if len(sides) == 1:  # p is strictly inside abc
                return False
    return True


def exact_masks(instance) -> tuple[int, ...]:
    """Per disk i, the bitmask of the disks it meets."""
    disks = instance.disks
    return tuple(
        sum(1 << z for z, e in enumerate(disks) if exact_meets(d, e)) for d in disks
    )
