"""Both solvers against brute force and `verify` on inputs that break float predicates.

Tiny and huge scales, where squares and orientations underflow or
overflow; near-collinear hulls, a few floats off convex; and chains of
nominally tangent disks.  Every expectation is backed by `fractions.Fraction`
arithmetic in `exact_reference.py`: an input is accepted exactly when its
centers are in strictly convex position, the domination masks are the
exact ones, and the optima come from enumerating them.
"""

import math
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from diskdom.geometry import NotStrictlyConvex, Point, WeightedDisk, canonicalize
from diskdom.oracle import (
    brute_force_min,
    build_masks,
    check_domination_of_assignment,
    disk_containment_pairs,
    verify,
    voronoi_assignment,
)
from diskdom.unweighted_greedy import solve_unweighted
from diskdom.weighted_dp import solve_weighted_unbounded
from conftest import FOUND_CONVEX_QUAD, OVERFLOW_TRIANGLE, nudged, tangent_chain_instances
from exact_reference import exact_masks, exactly_convex

TRIANGLE = [(0.0, 0.0), (3.0, 0.0), (1.5, 5.0)]  # unit disks on it are pairwise disjoint
TANGENT_CHAINS = {seed: inst.disks for seed, inst in tangent_chain_instances()}


def disk(x, y, r, w=1.0):
    return WeightedDisk(Point(x, y), r, w)


def check_solvers(inst) -> int:
    """Both solvers and brute force against the exact masks; returns the optimum size."""
    n, masks = inst.n, exact_masks(inst)
    assert build_masks(inst).masks == masks
    full = (1 << n) - 1
    dominating = [
        c for k in range(1, n + 1) for c in combinations(range(n), k)
        if reduce(or_, (masks[i] for i in c)) == full
    ]
    smallest = min(map(len, dominating))
    lightest = min(sum(inst.ws[i] for i in c) for c in dominating)
    solves = (("unweighted", solve_unweighted(inst)), ("weighted", solve_weighted_unbounded(inst)))
    for mode, sol in solves:
        centers = inst.to_canonical(sol.centers)
        assert verify(inst, centers) and tuple(sorted(centers)) in dominating, mode
        ref = brute_force_min(inst, mode)
        if mode == "unweighted":
            assert sol.size == ref.size == smallest
        else:
            assert math.isclose(sol.weight, lightest, rel_tol=1e-12)
            assert math.isclose(ref.weight, lightest, rel_tol=1e-12)
    return smallest


@pytest.mark.parametrize("scale", [1.0, 1e-200, 2.0**-540, 1e200])
def test_structural_diagnostics_hold_at_every_scale(scale):
    """Tiny squared distances underflowed to 0 and a fixed containment slack swamped tiny
    radii: the three disjoint disks of TRIANGLE read as all inside each other, and every
    point was assigned to center 0, which fails to dominate them."""
    inst = canonicalize([disk(x * scale, y * scale, scale) for x, y in TRIANGLE])
    asg = voronoi_assignment(inst, range(3))
    assert asg.containment_pairs == () and asg.assigned == (0, 1, 2)
    assert check_domination_of_assignment(inst, asg)
    # the unit disk at (1, 0) lies inside the radius-4 disk at the origin
    nested = canonicalize([disk(0.0, 0.0, 4 * scale), disk(scale, 0.0, scale),
                           disk(1.5 * scale, 5 * scale, scale)])
    small, big = nested.to_canonical([1, 0])
    assert disk_containment_pairs(nested, range(3)) == ((small, big),)


@pytest.mark.parametrize("scale", [1e-200, 2.0**-540])
def test_tiny_triangle_needs_all_three_centers(scale):
    """Squares and orientations underflow: the float tests called this triangle collinear."""
    disks = [disk(x * scale, y * scale, scale) for x, y in TRIANGLE]
    assert exactly_convex([(d.center.x, d.center.y) for d in disks])
    inst = canonicalize(disks)
    assert check_solvers(inst) == 3
    assert not any(verify(inst, c) for k in (1, 2) for c in combinations(range(3), k))


def test_lone_overflow_triangle_needs_all_three_centers():
    inst = canonicalize([disk(x, y, 1.0) for x, y in OVERFLOW_TRIANGLE])
    assert check_solvers(inst) == 3


def test_quad_convex_only_in_exact_arithmetic_solves_exactly():
    assert exactly_convex(FOUND_CONVEX_QUAD)
    check_solvers(canonicalize([disk(x, y, 1.0) for x, y in FOUND_CONVEX_QUAD]))


@st.composite
def adversarial_disks(draw):
    """Disks on a circle, the same with one center nudged a few floats off a
    chord (near-collinear), or a tangent chain; all scaled by 2**e, |e| <= 600."""
    kind = draw(st.sampled_from(["circle", "near-collinear", "tangent"]))
    if kind == "tangent":
        disks = list(TANGENT_CHAINS[draw(st.sampled_from(sorted(TANGENT_CHAINS)))])
    else:
        steps = draw(st.lists(st.integers(0, 2**20 - 1), min_size=3, max_size=7, unique=True))
        angles = [2 * math.pi * k / 2**20 for k in sorted(steps)]
        pts = [(10 * math.cos(a), 10 * math.sin(a)) for a in angles]
        if kind == "near-collinear":
            k = draw(st.integers(0, len(pts) - 1))
            (px, py), (qx, qy) = pts[k], pts[(k + 1) % len(pts)]
            t = draw(st.floats(0.01, 0.99))
            x, y = px + t * (qx - px), py + t * (qy - py)
            pts.insert(k + 1, tuple(nudged(v, draw(st.integers(-4, 4))) for v in (x, y)))
        radius = st.floats(0.5, 12.0)
        disks = [disk(x, y, draw(radius), draw(st.floats(1.0, 10.0))) for x, y in pts]
    scale = 2.0 ** draw(st.one_of(st.sampled_from([-600, 600]), st.integers(-600, 600)))
    return [disk(d.center.x * scale, d.center.y * scale, d.radius * scale, d.weight) for d in disks]


@given(adversarial_disks())
@settings(max_examples=100, deadline=None)
@example([disk(x * 2.0**600, y * 2.0**600, 2.0**600) for x, y in TRIANGLE])
@example(list(TANGENT_CHAINS[195]))  # three pairs a float predicate decides wrongly
@example([disk(d.center.x * 2.0**-560, d.center.y * 2.0**-560, d.radius * 2.0**-560, d.weight)
          for d in TANGENT_CHAINS[31]])
def test_solvers_are_exact_on_adversarial_inputs(disks):
    """Accepted exactly when convex; then both solvers are optimal on the exact masks."""
    if not exactly_convex([(d.center.x, d.center.y) for d in disks]):
        with pytest.raises(NotStrictlyConvex):
            canonicalize(disks)
        return
    check_solvers(canonicalize(disks))
