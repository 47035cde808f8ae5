import math
import random

import pytest

from conftest import T4_POINTS, mk_instance
from mask_reference import verify_by_masks
from run_reference import CyclicSublist
from diskdom.geometry import WeightedDisk, canonicalize, intersects
from diskdom.oracle import (
    brute_force_min,
    build_masks,
    check_domination_of_assignment,
    check_line_separable,
    disk_containment_pairs,
    verify,
    verify_by_predicate,
    voronoi_assignment,
)
from diskdom.solution import Infeasible, TooLarge


def rand_instance(rng, n, *, weighted=False, spread=(0.3, 3.0)):
    pts = []
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    while n > 1 and any(
        (angles[(i + 1) % n] - angles[i]) % (2 * math.pi) < 1e-3 for i in range(n)
    ):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    for a in angles:
        r = rng.uniform(*spread)
        w = rng.uniform(0.1, 5.0) if weighted else 1.0
        pts.append((10 * math.cos(a), 10 * math.sin(a), r, w))
    return mk_instance(pts, weighted=weighted)


def test_masks_t4(t4):
    dm = build_masks(t4)
    assert dm.masks[0] == 0b1011  # {3, 0, 1}
    assert dm.masks[1] == 0b0111
    assert dm.masks[2] == 0b1110
    assert dm.masks[3] == 0b1101
    assert dm.universe == 0b1111


def test_masks_big_disk(big5):
    dm = build_masks(big5)
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    assert dm.masks[big] == dm.universe


def test_masks_single():
    inst = mk_instance([(0.0, 0.0, 1.0)])
    dm = build_masks(inst)
    assert dm.masks == (1,) and dm.universe == 1


def test_verify_t4(t4):
    assert verify(t4, [0, 2])
    assert verify(t4, [1, 3])
    assert not verify(t4, [0])
    assert verify(t4, range(4))
    with pytest.raises(ValueError):
        verify(t4, [4])


def test_verify_routes_agree():
    rng = random.Random(5)
    for _ in range(40):
        inst = rand_instance(rng, rng.randint(1, 12))
        for _ in range(5):
            centers = [i for i in range(inst.n) if rng.random() < 0.4]
            if not centers:
                centers = [rng.randrange(inst.n)]
            assert verify_by_masks(inst, centers) == verify_by_predicate(inst, centers)


def brute_reference(inst, mode, k_cap=None):
    """Plain itertools re-implementation used to cross-check the table path."""
    from itertools import combinations

    n = inst.n
    best = None
    limit = k_cap if k_cap is not None else n
    for size in range(1, n + 1):
        if size > limit:
            break
        for combo in combinations(range(n), size):
            if not verify_by_masks(inst, combo):
                continue
            w = 0.0
            for i in combo:
                w += inst.disks[i].weight
            key = (size, w, combo) if mode == "unweighted" else (w, size, combo)
            if best is None or key < best:
                best = key
    return best


@pytest.mark.parametrize("mode", ["unweighted", "weighted"])
def test_brute_force_matches_reference(mode):
    rng = random.Random(17)
    for _ in range(25):
        inst = rand_instance(rng, rng.randint(1, 9), weighted=(mode == "weighted"))
        k_cap = rng.choice([None, 1, 2, inst.n])
        ref = brute_reference(inst, mode, k_cap)
        if ref is None:
            with pytest.raises(Infeasible):
                brute_force_min(inst, mode, k_cap)
            continue
        got = brute_force_min(inst, mode, k_cap)
        ref_centers = tuple(sorted(inst.to_original(ref[2])))
        assert got.centers == ref_centers
        assert got.size == len(ref[2])
        assert got.weight == pytest.approx(
            sum(inst.disks[i].weight for i in ref[2]), abs=1e-12
        )


def test_brute_force_t4(t4):
    sol = brute_force_min(t4, "unweighted")
    assert sol.size == 2 and sol.weight == 2.0
    assert verify(t4, t4.to_canonical(sol.centers))
    with pytest.raises(Infeasible):
        brute_force_min(t4, "unweighted", k_cap=1)


def test_brute_force_big_disk(big5):
    sol = brute_force_min(big5, "unweighted")
    assert sol.size == 1


def test_brute_force_too_large():
    rng = random.Random(3)
    inst = rand_instance(rng, 23)
    with pytest.raises(TooLarge):
        brute_force_min(inst, "unweighted")


def test_brute_force_deterministic_ties():
    # all-unit weights on a symmetric square: many optima, fixed winner
    inst = mk_instance(T4_POINTS, weighted=False)
    a = brute_force_min(inst, "unweighted")
    b = brute_force_min(inst, "unweighted")
    assert a == b
    # lexicographically smallest pair of canonical indices that dominates
    assert inst.to_canonical(a.centers) in ((0, 1), (1, 0))


def test_brute_force_size_monotone_in_radius():
    rng = random.Random(11)
    for _ in range(10):
        pts = []
        inst = rand_instance(rng, 8)
        sizes = []
        for scale in (1.0, 1.5, 2.5):
            scaled = [
                WeightedDisk(d.center, d.radius * scale, d.weight)
                for d in inst.disks
            ]
            sizes.append(brute_force_min(canonicalize(scaled), "unweighted").size)
        assert sizes[0] >= sizes[1] >= sizes[2]


def test_voronoi_assignment_single_center(t4, big5):
    asg = voronoi_assignment(t4, [2])
    assert asg.assigned == (2, 2, 2, 2)
    assert asg.groups == ((2, (0, 4)),)
    assert not asg.dominating  # one corner disk misses its opposite
    assert check_line_separable(t4, asg) == "separable"
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    asg = voronoi_assignment(big5, [big])
    assert asg.dominating
    assert check_domination_of_assignment(big5, asg)
    assert check_line_separable(big5, asg) == "separable"


def test_voronoi_assignment_t4_diagonal(t4):
    asg = voronoi_assignment(t4, [0, 2])
    assert asg.assigned[0] == 0 and asg.assigned[2] == 2
    # symmetric corners tie; both go to the smaller center index
    assert asg.assigned[1] == 0 and asg.assigned[3] == 0
    assert asg.dominating and not asg.containment_pairs
    assert check_domination_of_assignment(t4, asg)
    assert check_line_separable(t4, asg) != "crossed"
    for c, run in asg.groups:
        members = list(CyclicSublist(*run, t4.n).indices())
        assert all(asg.assigned[i] == c for i in members)


def test_voronoi_groups_are_maximal():
    rng = random.Random(23)
    for _ in range(30):
        inst = rand_instance(rng, rng.randint(2, 12))
        k = rng.randint(1, inst.n)
        centers = sorted(rng.sample(range(inst.n), k))
        asg = voronoi_assignment(inst, centers)
        runs = [(c, CyclicSublist(*run, inst.n)) for c, run in asg.groups]
        covered = sorted(i for _, run in runs for i in run.indices())
        assert covered == list(range(inst.n))
        for c, run in runs:
            assert all(asg.assigned[i] == c for i in run.indices())
            # maximality: the neighbours outside belong to someone else
            if not run.is_full:
                before = (run.cw_end - 1) % inst.n
                after = (run.ccw_end + 1) % inst.n
                assert asg.assigned[before] != c
                assert asg.assigned[after] != c


def test_containment_flagged():
    inst = mk_instance(
        [(0.0, 0.0, 5.0), (1.0, 0.0, 0.5), (0.5, 1.0, 0.3)], weighted=False
    )
    pairs = disk_containment_pairs(inst, range(3))
    big = max(range(3), key=lambda i: inst.disks[i].radius)
    assert all(j == big for _, j in pairs) and len(pairs) == 2
    asg = voronoi_assignment(inst, range(3))
    assert asg.containment_pairs == pairs


def test_center_owns_itself_without_containment():
    rng = random.Random(31)
    for _ in range(40):
        inst = rand_instance(rng, rng.randint(2, 12))
        k = rng.randint(1, inst.n)
        centers = sorted(rng.sample(range(inst.n), k))
        asg = voronoi_assignment(inst, centers)
        if asg.containment_pairs:
            continue
        for c in centers:
            assert asg.assigned[c] == c


def test_optimal_sets_pass_structural_diagnostics():
    rng = random.Random(47)
    for _ in range(60):
        inst = rand_instance(rng, rng.randint(3, 10))
        sol = brute_force_min(inst, "unweighted")
        centers = inst.to_canonical(sol.centers)
        asg = voronoi_assignment(inst, centers)
        assert asg.dominating
        assert not asg.containment_pairs
        assert check_domination_of_assignment(inst, asg)
        assert check_line_separable(inst, asg) == "separable"


def test_crossing_detected_on_interleaved_assignment():
    # hand-built non-nearest assignment: swapping the two top points between
    # the bottom centers makes their segments cross mid-trapezoid
    inst = mk_instance(
        [(-10.0, 0.0, 1.0), (10.0, 0.0, 1.0), (9.0, 5.0, 1.0), (-9.0, 5.0, 1.0)],
        weighted=False,
    )
    left = next(i for i in range(4) if inst.disks[i].center.x == -10)
    right = next(i for i in range(4) if inst.disks[i].center.x == 10)
    good = voronoi_assignment(inst, [left, right])
    assert check_line_separable(inst, good) == "separable"
    swap = {left: right, right: left}
    assigned = tuple(
        c if i in (left, right) else swap[c] for i, c in enumerate(good.assigned)
    )
    from diskdom.oracle import Assignment

    bad = Assignment(
        centers=good.centers,
        assigned=assigned,
        groups=good.groups,
        dominating=good.dominating,
        containment_pairs=good.containment_pairs,
    )
    assert check_line_separable(inst, bad) == "crossed"


def test_dominating_assignments_dominate():
    rng = random.Random(53)
    for _ in range(40):
        inst = rand_instance(rng, rng.randint(2, 12))
        sol = brute_force_min(inst, "unweighted")
        asg = voronoi_assignment(inst, inst.to_canonical(sol.centers))
        assert check_domination_of_assignment(inst, asg)


def test_weighted_brute_force_prefers_weight_over_size():
    # a heavy disk dominates alone; a light pair covers for less total weight
    pts = [
        (0.0, 0.0, 11.0, 10.0),
        (10.0, 0.0, 3.0, 1.0),
        (10.0, 1.0, 3.0, 1.0),
        (0.0, 1.0, 6.0, 1.0),
    ]
    inst = mk_instance(pts, weighted=True)
    sol = brute_force_min(inst, "weighted")
    assert sol.weight == 2.0 and sol.size == 2
    uw = brute_force_min(inst, "unweighted")
    assert uw.size == 1 and uw.centers == (0,)


def test_verify_matches_masks_on_tangent_chains():
    from conftest import tangent_chain_instances

    rng = random.Random(8)
    checked = 0
    for _, inst in tangent_chain_instances():
        for _ in range(20):
            centers = [i for i in range(inst.n) if rng.random() < 0.4]
            assert verify(inst, centers) == verify_by_masks(inst, centers)
            checked += 1
    assert checked >= 600


def test_verify_never_builds_masks(monkeypatch):
    import diskdom.oracle as oracle

    def forbidden(instance):
        raise AssertionError("build_masks called")

    monkeypatch.setattr(oracle, "build_masks", forbidden)
    rng = random.Random(12)
    inst = rand_instance(rng, 40)
    assert verify(inst, range(inst.n))
    assert not verify(inst, [])
