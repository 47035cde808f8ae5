"""Metamorphic and differential checks beyond the brute-force limit.

Rotating by 90 degrees, reflecting, reordering the input and scaling by a
power of two all map an instance onto an equivalent one, exactly in
floating point.  The optimum value must not change, whatever canonical
order and tie-breaks the transformed instance gets.  Neither check
relies on a reference twin of the solvers.

Translation is exact only when every coordinate difference survives it
bit for bit: centers snapped to a 2**-20 grid and moved by integers keep
all their differences, so canonical order, every intersection test and
hence the whole solution stay the same.

On unit weights the two solvers answer the same question, so each must
confirm the other's optimum and refuse one disk fewer.

Every solve runs with `check_invariants=True`, so each level of these
instances, beyond the brute-force limit, also passes the column check.
"""

import random

import numpy as np
import pytest

from diskdom.geometry import Point, WeightedDisk, canonicalize
from diskdom.instance_io import gen_random
from diskdom.oracle import verify
from diskdom.solution import Infeasible
from diskdom.unweighted_greedy import solve_unweighted
from diskdom.weighted_dp import solve_weighted


def _raw(doc):
    return [(p["x"], p["y"], p["r"], p.get("w", 1.0)) for p in doc.points]


TRANSFORMS = {
    "rotate90": lambda disks: [(-y, x, r, w) for x, y, r, w in disks],
    "reflect": lambda disks: [(x, -y, r, w) for x, y, r, w in disks],
    "permute": lambda disks: random.Random(len(disks)).sample(disks, len(disks)),
    "scale8": lambda disks: [(8 * x, 8 * y, 8 * r, w) for x, y, r, w in disks],
    "scale1/8": lambda disks: [(x / 8, y / 8, r / 8, w) for x, y, r, w in disks],
}


def _variants(doc, *, weighted):
    disks = _raw(doc)
    for name, transform in (("identity", lambda d: d), *TRANSFORMS.items()):
        raw = [WeightedDisk(Point(x, y), r, w) for x, y, r, w in transform(disks)]
        yield name, canonicalize(raw, weighted=weighted)


UNWEIGHTED = [
    (200, 1, "circle", "uniform(1.0,3.0)"),
    (300, 2, "ellipse", "uniform(0.5,2.0)"),
    (400, 3, "perturbed-polygon", "uniform(1.0,3.0)"),
]


@pytest.mark.parametrize("n, seed, family, law", UNWEIGHTED)
def test_unweighted_optimum_is_invariant(n, seed, family, law):
    doc = gen_random(n, 40_000 + seed, family, law, "unit")
    sizes = {}
    for name, inst in _variants(doc, weighted=False):
        sol = solve_unweighted(inst, check_invariants=True)
        assert verify(inst, inst.to_canonical(sol.centers)), name
        sizes[name] = sol.size
    assert sizes["identity"] > 2
    assert set(sizes.values()) == {sizes["identity"]}, sizes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weighted_optimum_is_invariant(seed):
    doc = gen_random(60, 41_000 + seed, "circle", "uniform(2.0,6.0)", "uniform(1,10)")
    weights = {}
    for name, inst in _variants(doc, weighted=True):
        sol = solve_weighted(inst, 6, check_invariants=True)
        assert verify(inst, inst.to_canonical(sol.centers)), name
        weights[name] = sol.weight
    for name, weight in weights.items():
        assert weight == pytest.approx(weights["identity"], abs=1e-9), name


DIFFERENTIAL = [
    (200, 42_001, "circle", "uniform(2.0,6.0)"),
    (300, 42_002, "ellipse", "uniform(1.5,4.0)"),
    (250, 42_003, "perturbed-polygon", "uniform(2.0,5.0)"),
]


@pytest.mark.parametrize("n, seed, family, law", DIFFERENTIAL)
def test_solvers_agree_on_unit_weights(n, seed, family, law):
    inst = gen_random(n, seed, family, law, "unit").to_instance()
    opt = solve_unweighted(inst, check_invariants=True).size
    assert opt > 2
    assert solve_weighted(inst, opt, check_invariants=True).weight == opt
    with pytest.raises(Infeasible):
        solve_weighted(inst, opt - 1, check_invariants=True)
    with pytest.raises(Infeasible):
        solve_unweighted(inst, k_cap=opt - 1, check_invariants=True)


GRID = 2.0**-20
OFFSETS = ((0, 0), (1024, 0), (-3, 517), (65536, -65536))


def _snapped(disks):
    """Centers rounded to the GRID; radii and weights unchanged."""
    return [(round(x / GRID) * GRID, round(y / GRID) * GRID, r, w) for x, y, r, w in disks]


def _differences(disks):
    xs = np.array([d[0] for d in disks])
    ys = np.array([d[1] for d in disks])
    return np.subtract.outer(xs, xs), np.subtract.outer(ys, ys)


def _translations(doc, *, weighted):
    """The snapped instance moved by each offset, canonicalized."""
    snapped = _snapped(_raw(doc))
    for dx, dy in OFFSETS:
        moved = [(x + dx, y + dy, r, w) for x, y, r, w in snapped]
        for a, b in zip(_differences(moved), _differences(snapped)):
            assert np.array_equal(a, b), (dx, dy)
        raw = [WeightedDisk(Point(x, y), r, w) for x, y, r, w in moved]
        inst = canonicalize(raw, weighted=weighted)
        assert inst.n == len(doc.points)
        yield (dx, dy), inst


@pytest.mark.parametrize("n, seed, family, law", UNWEIGHTED)
def test_unweighted_solution_is_invariant_under_translation(n, seed, family, law):
    doc = gen_random(n, 40_000 + seed, family, law, "unit")
    solutions = {}
    for offset, inst in _translations(doc, weighted=False):
        sol = solve_unweighted(inst, check_invariants=True)
        assert verify(inst, inst.to_canonical(sol.centers)), offset
        solutions[offset] = sol
    assert solutions[(0, 0)].size > 2
    assert set(solutions.values()) == {solutions[(0, 0)]}, solutions


@pytest.mark.parametrize("seed", [1, 2])
def test_weighted_solution_is_invariant_under_translation(seed):
    doc = gen_random(60, 41_000 + seed, "circle", "uniform(2.0,6.0)", "uniform(1,10)")
    solutions = {}
    for offset, inst in _translations(doc, weighted=True):
        sol = solve_weighted(inst, 6, check_invariants=True)
        assert verify(inst, inst.to_canonical(sol.centers)), offset
        solutions[offset] = sol
    assert set(solutions.values()) == {solutions[(0, 0)]}, solutions
