import math
import random

import numpy as np
import pytest

from diskdom.geometry import intersects
from diskdom.neighbor_index import INTERSECTS_ALL, build_neighbor_index
from conftest import mk_instance, tangent_chain_instances
from query_reference import NEIGHBOR_INDEXES, NaiveNeighborIndex
from run_reference import CyclicSublist


def dominated(idx, i):
    """The (start, length) pair `dominated_run` returns, as a CyclicSublist."""
    return CyclicSublist(*idx.dominated_run(i), idx.n)


@pytest.fixture(params=list(NEIGHBOR_INDEXES))
def t4_index(request, t4):
    return NEIGHBOR_INDEXES[request.param](t4)


def test_t4_first_disjoint_ccw_from_self(t4_index):
    # walking ccw from p_0: p_0 and p_1 intersect disk 0, the diagonal p_2 doesn't
    assert t4_index.first_disjoint_ccw(0, 0) == 2


def test_t4_first_disjoint_ccw_scan_includes_origin(t4_index):
    assert t4_index.first_disjoint_ccw(0, 2) == 2


def test_t4_first_disjoint_cw(t4_index):
    assert t4_index.first_disjoint_cw(0, 0) == 2
    assert t4_index.first_disjoint_cw(1, 1) == 3


def test_t4_dominated_run(t4_index):
    assert set(dominated(t4_index, 0).indices()) == {3, 0, 1}


def test_giant_disk_intersects_all(big5):
    for build in NEIGHBOR_INDEXES.values():
        idx = build(big5)
        big = max(range(5), key=lambda i: big5.disks[i].radius)
        assert idx.first_disjoint_ccw(big, 0) is INTERSECTS_ALL
        assert idx.first_disjoint_cw(big, 3) is INTERSECTS_ALL
        assert dominated(idx, big).is_full


def test_isolated_disk_run_is_singleton():
    # tiny disks far apart: nothing intersects anything else
    inst = mk_instance([(0, 0, 0.1), (10, 0, 0.1), (10, 10, 0.1), (0, 10, 0.1)])
    for build in NEIGHBOR_INDEXES.values():
        idx = build(inst)
        for i in range(4):
            assert list(dominated(idx, i).indices()) == [i]
            assert idx.first_disjoint_ccw(i, i) == (i + 1) % 4
            assert idx.first_disjoint_cw(i, i) == (i - 1) % 4


def test_single_disk_instance():
    inst = mk_instance([(1, 2, 3)])
    for build in NEIGHBOR_INDEXES.values():
        idx = build(inst)
        assert idx.first_disjoint_ccw(0, 0) is INTERSECTS_ALL
        assert dominated(idx, 0).is_full


def test_two_disjoint_disks():
    inst = mk_instance([(0, 0, 1), (10, 0, 1)])
    for build in NEIGHBOR_INDEXES.values():
        idx = build(inst)
        assert list(dominated(idx, 0).indices()) == [0]
        assert list(dominated(idx, 1).indices()) == [1]


def rand_instance(rng, n, big_fraction=0.2):
    pts = []
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    # reject near-duplicate angles to stay strictly convex
    if any(b - a < 1e-6 for a, b in zip(angles, angles[1:])):
        return None
    for a in angles:
        r = rng.uniform(2.0, 8.0) if rng.random() < big_fraction else rng.uniform(0.05, 1.5)
        pts.append((20 * math.cos(a), 20 * math.sin(a), r))
    return mk_instance(pts)


def test_strategies_agree_on_random_instances():
    rng = random.Random(20240817)
    done = 0
    while done < 12:
        n = rng.randint(1, 40)
        inst = rand_instance(rng, n)
        if inst is None:
            continue
        done += 1
        naive = NaiveNeighborIndex(inst)
        bits = build_neighbor_index(inst)
        for i in range(n):
            for j in range(n):
                assert bits.first_disjoint_ccw(i, j) == naive.first_disjoint_ccw(i, j)
                assert bits.first_disjoint_cw(i, j) == naive.first_disjoint_cw(i, j)
            assert naive.dominated_run(i) == bits.dominated_run(i)


def test_intersects_all_consistency():
    rng = random.Random(5)
    for _ in range(8):
        inst = rand_instance(rng, rng.randint(2, 25), big_fraction=0.6)
        if inst is None:
            continue
        idx = NaiveNeighborIndex(inst)
        n = inst.n
        for i in range(n):
            answers = [idx.first_disjoint_ccw(i, j) for j in range(n)]
            answers += [idx.first_disjoint_cw(i, j) for j in range(n)]
            saturated = [a is INTERSECTS_ALL for a in answers]
            assert all(saturated) or not any(saturated)


def test_dominated_run_is_dominated_and_maximal():
    rng = random.Random(99)
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(2, 30))
        if inst is None:
            continue
        idx = build_neighbor_index(inst)
        n = inst.n
        for i in range(n):
            run = dominated(idx, i)
            assert i in run
            for p in run.indices():
                assert intersects(inst.disks[i], inst.disks[p])
            if not run.is_full:
                # both extensions leave the dominated region
                before = (run.cw_end - 1) % n
                after = (run.ccw_end + 1) % n
                assert not intersects(inst.disks[i], inst.disks[after])
                assert not intersects(inst.disks[i], inst.disks[before])


def test_scan_answer_is_first_by_definition():
    rng = random.Random(321)
    for _ in range(6):
        inst = rand_instance(rng, rng.randint(2, 20))
        if inst is None:
            continue
        idx = build_neighbor_index(inst)
        n = inst.n
        for i in range(n):
            for j in range(n):
                z = idx.first_disjoint_ccw(i, j)
                if z is INTERSECTS_ALL:
                    continue
                steps = (z - j) % n
                for s in range(steps):  # everything passed over intersects disk i
                    assert intersects(inst.disks[i], inst.disks[(j + s) % n])
                assert not intersects(inst.disks[i], inst.disks[z])


def test_avoidance_is_negated_intersects_on_tangent_chains():
    # nominally tangent neighbours: every strategy must draw the line
    # exactly where `intersects` (and so `verify`) does
    for _, inst in tangent_chain_instances(range(200)):
        n = inst.n
        for strategy, build in NEIGHBOR_INDEXES.items():
            idx = build(inst)
            for i in range(n):
                for j in range(n):
                    z = idx.first_disjoint_ccw(i, j)
                    hits = [
                        intersects(inst.disks[i], inst.disks[(j + s) % n])
                        for s in range(n)
                    ]
                    expected = INTERSECTS_ALL if all(hits) else (j + hits.index(False)) % n
                    assert z == expected, (strategy, i, j)


def _ring_with_giant(n):
    """n disks on a circle; input disk 0 is large enough to meet every other disk."""
    pts = []
    for k in range(n):
        a = 2 * math.pi * k / n
        pts.append((20 * math.cos(a), 20 * math.sin(a), 100.0 if k == 0 else 0.3 + k % 13 / 10))
    return mk_instance(pts)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129])
def test_batched_first_disjoint_matches_scalar_and_naive(n):
    from diskdom import gen_random
    from greedy_reference import dominated_run

    instances = [_ring_with_giant(n)]
    for law in ("uniform(0.3,1.2)", "uniform(1.0,3.0)", "uniform(4.0,9.0)"):
        instances.append(gen_random(n, 7 + n, "circle", law, "unit").to_instance())
    i_all, j_all = np.divmod(np.arange(n * n), n)
    for inst in instances:
        bits, naive = build_neighbor_index(inst), NaiveNeighborIndex(inst)
        for ccw, scan in ((True, "first_disjoint_ccw"), (False, "first_disjoint_cw")):
            scalar = [getattr(bits, scan)(i, j) for i, j in zip(i_all.tolist(), j_all.tolist())]
            want = [-1 if z is INTERSECTS_ALL else z for z in scalar]
            assert bits.first_disjoint(i_all, j_all, ccw=ccw).tolist() == want
            assert naive.first_disjoint(i_all, j_all, ccw=ccw).tolist() == want
        starts, lengths = bits.dominated_runs
        assert list(zip(starts.tolist(), lengths.tolist())) == [
            dominated_run(bits, i) for i in range(n)
        ]
    # the giant disk meets every disk: each of its queries saturates
    (g,) = instances[0].to_canonical((0,))
    index = build_neighbor_index(instances[0])
    for ccw in (True, False):
        assert (index.first_disjoint(np.full(n, g), np.arange(n), ccw=ccw) == -1).all()
    assert index.dominated_run(g) == (0, n)
