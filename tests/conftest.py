from contextlib import contextmanager

import pytest

from diskdom.geometry import Point, WeightedDisk, canonicalize


def mk_instance(points, *, weighted=True):
    """Build a canonical instance from (x, y, r) or (x, y, r, w) tuples."""
    disks = []
    for p in points:
        x, y, r = p[0], p[1], p[2]
        w = p[3] if len(p) > 3 else 1.0
        disks.append(WeightedDisk(Point(x, y), r, w))
    return canonicalize(disks, weighted=weighted)


def tangent_chain_instances(seeds=range(600)):
    """Instances whose consecutive disks are nominally tangent.

    Seed s puts n = 4 + s % 6 centers at sorted uniform angles on a
    radius-10 circle, draws r_0 = U(0.2, 0.8) * |p_0 p_{n-1}| and sets
    r_i = |p_i p_{i-1}| - r_{i-1}, so each (r_{i-1} + r_i)^2 lands within
    rounding of the squared center distance, on either side.  Seeds whose
    chain turns a radius non-positive are skipped.  Yields (seed, instance)
    with weights U(1, 10).
    """
    import math
    import random

    for seed in seeds:
        rng = random.Random(seed)
        n = 4 + seed % 6
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        pts = [(10 * math.cos(a), 10 * math.sin(a)) for a in angles]
        radii = [rng.uniform(0.2, 0.8) * math.dist(pts[0], pts[-1])]
        for i in range(1, n):
            radii.append(math.dist(pts[i], pts[i - 1]) - radii[i - 1])
        if min(radii) <= 0:
            continue
        weights = [rng.uniform(1, 10) for _ in range(n)]
        yield seed, mk_instance(
            [(x, y, r, w) for (x, y), r, w in zip(pts, radii, weights)]
        )


def nudged(v: float, steps: int) -> float:
    """`v` moved `steps` floats up (or down, for negative steps)."""
    import math

    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return v


# float orientations of this triangle overflow to inf - inf = NaN, which
# is neither a left nor a right turn; the exact ones are not
OVERFLOW_TRIANGLE = [
    (3.298140274240375e179, 4.136387574164211e180),
    (-3.4471480616112906e180, -2.3099025299166354e180),
    (1.913873263100668e180, -3.6817887757412363e180),
]


# convex in exact arithmetic, but its float side test read -2.8e-14 for the
# second point against the chord, where the exact value is +7.6e-16
FOUND_CONVEX_QUAD = [
    (10.0, 0.0),
    (9.557454113579018, 0.28415544588302555),
    (-4.161468365471424, 9.092974268256818),
    (2.8366218546322624, -9.589242746631385),
]


# Unit-square corners with radius 0.6: adjacent disks meet (distance 1
# against combined radius 1.2), diagonal ones do not (sqrt(2) > 1.2).
T4_POINTS = [(0.0, 0.0, 0.6), (1.0, 0.0, 0.6), (1.0, 1.0, 0.6), (0.0, 1.0, 0.6)]


@pytest.fixture
def t4():
    return mk_instance(T4_POINTS)


@pytest.fixture
def big5():
    """Five centers on a circle of radius 10; one giant disk reaches everything."""
    import math

    pts = []
    for k in range(5):
        a = 2 * math.pi * k / 5
        r = 100.0 if k == 0 else 0.5
        pts.append((10 * math.cos(a), 10 * math.sin(a), r))
    return mk_instance(pts)


def subprocess_env():
    """This environment with PYTHONPATH set to the package's `src`, for child Pythons."""
    import os
    from pathlib import Path

    import diskdom

    return {**os.environ, "PYTHONPATH": str(Path(diskdom.__file__).parent.parent)}


@contextmanager
def recording(module, name):
    """Every instance of the class `module.<name>` built inside the block, in order."""
    built = []

    class Recording(getattr(module, name)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, Recording)
        yield built
