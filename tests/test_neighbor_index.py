import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from diskdom.geometry import (
    DiskColumns,
    Instance,
    Point,
    WeightedDisk,
    intersects,
    intersects_row,
)
from diskdom.neighbor_index import _TreeNeighborIndex, build_neighbor_index
from conftest import mk_instance, tangent_chain_instances
from greedy_reference import dominated_run
from query_reference import NEIGHBOR_INDEXES, NaiveNeighborIndex, counting_queries, tail_walks
from run_reference import CyclicSublist


def dominated(idx, i):
    """Disk i's run in `dominated_runs`, as a CyclicSublist."""
    starts, lengths = idx.dominated_runs
    return CyclicSublist(int(starts[i]), int(lengths[i]), idx.n)


def all_pairs(n):
    """Every (i, j) pair as two arrays, i major."""
    return np.divmod(np.arange(n * n), n)


@pytest.fixture(params=list(NEIGHBOR_INDEXES))
def t4_index(request, t4):
    return NEIGHBOR_INDEXES[request.param](t4)


def test_t4_first_disjoint_ccw_from_self(t4_index):
    # walking ccw from p_0: p_0 and p_1 intersect disk 0, the diagonal p_2 doesn't
    assert t4_index.first_disjoint([0], [0], ccw=True).tolist() == [2]


def test_t4_first_disjoint_ccw_scan_includes_origin(t4_index):
    assert t4_index.first_disjoint([0], [2], ccw=True).tolist() == [2]


def test_t4_first_disjoint_cw(t4_index):
    assert t4_index.first_disjoint([0, 1], [0, 1], ccw=False).tolist() == [2, 3]


def test_t4_dominated_run(t4_index):
    assert set(dominated(t4_index, 0).indices()) == {3, 0, 1}


def test_giant_disk_intersects_all(big5):
    for build in NEIGHBOR_INDEXES.values():
        idx = build(big5)
        big = max(range(5), key=lambda i: big5.disks[i].radius)
        assert idx.first_disjoint([big], [0], ccw=True).tolist() == [-1]
        assert idx.first_disjoint([big], [3], ccw=False).tolist() == [-1]
        assert dominated(idx, big).is_full


def test_isolated_disk_run_is_singleton():
    # tiny disks far apart: nothing intersects anything else
    inst = mk_instance([(0, 0, 0.1), (10, 0, 0.1), (10, 10, 0.1), (0, 10, 0.1)])
    for build in NEIGHBOR_INDEXES.values():
        idx = build(inst)
        for i in range(4):
            assert list(dominated(idx, i).indices()) == [i]
        i = np.arange(4)
        assert idx.first_disjoint(i, i, ccw=True).tolist() == [1, 2, 3, 0]
        assert idx.first_disjoint(i, i, ccw=False).tolist() == [3, 0, 1, 2]


def test_single_disk_instance():
    inst = mk_instance([(1, 2, 3)])
    for build in NEIGHBOR_INDEXES.values():
        idx = build(inst)
        assert idx.first_disjoint([0], [0], ccw=True).tolist() == [-1]
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
        tree = build_neighbor_index(inst)
        i_all, j_all = all_pairs(n)
        for ccw in (True, False):
            walks = [naive.walk(i, j, ccw=ccw) for i, j in zip(i_all.tolist(), j_all.tolist())]
            assert tree.first_disjoint(i_all, j_all, ccw=ccw).tolist() == walks
        runs = list(zip(*(a.tolist() for a in tree.dominated_runs)))
        assert runs == [dominated_run(naive, i) for i in range(n)]


def test_intersects_all_consistency():
    rng = random.Random(5)
    for _ in range(8):
        inst = rand_instance(rng, rng.randint(2, 25), big_fraction=0.6)
        if inst is None:
            continue
        idx = NaiveNeighborIndex(inst)
        n = inst.n
        for i in range(n):
            answers = [idx.walk(i, j, ccw=ccw) for ccw in (True, False) for j in range(n)]
            saturated = [a < 0 for a in answers]
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
        i_all, j_all = all_pairs(n)
        answers = idx.first_disjoint(i_all, j_all, ccw=True).tolist()
        for i, j, z in zip(i_all.tolist(), j_all.tolist(), answers):
            if z < 0:
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
            i_all, j_all = all_pairs(n)
            answers = build(inst).first_disjoint(i_all, j_all, ccw=True).tolist()
            for i, j, z in zip(i_all.tolist(), j_all.tolist(), answers):
                hits = [intersects(inst.disks[i], inst.disks[(j + s) % n]) for s in range(n)]
                expected = -1 if all(hits) else (j + hits.index(False)) % n
                assert z == expected, (strategy, i, j)


def _ring_with_giant(n):
    """n disks on a circle; input disk 0 is large enough to meet every other disk."""
    pts = []
    for k in range(n):
        a = 2 * math.pi * k / n
        pts.append((20 * math.cos(a), 20 * math.sin(a), 100.0 if k == 0 else 0.3 + k % 13 / 10))
    return mk_instance(pts)


def _first_in_row(avoids, j, *, ccw):
    """First z from each j (ccw or cw, cyclically) with avoids[z]; -1 when there is none."""
    (z,) = np.nonzero(avoids)
    if not len(z):
        return np.full(len(j), -1)
    if ccw:
        return z[np.searchsorted(z, j) % len(z)]
    return z[np.searchsorted(z, j, side="right") - 1]


def _row_answers(inst, i_all, j_all, *, ccw):
    """`first_disjoint` of each pair, read off whole `~intersects_row` rows."""
    arrays = inst.xs, inst.ys, inst.rs
    out = np.empty(len(i_all), np.int64)
    for i in np.unique(i_all):
        q = np.flatnonzero(i_all == i)
        out[q] = _first_in_row(~intersects_row(*arrays, i), j_all[q], ccw=ccw)
    return out


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 4097])
def test_batched_first_disjoint_matches_scalar_and_naive(n):
    """The tree index's batched queries against the disk-by-disk scalar walk.

    Every (i, j) pair up to n = 129; at n = 4097 (so the tree's last leaf
    holds one disk) 3000 sampled pairs, of which the disk-by-disk walk
    answers the first 200, and whole `intersects_row` rows stand in for it
    on the rest, the runs and the counting bound.
    """
    from diskdom import gen_random

    instances = [_ring_with_giant(n)]
    for law in ("uniform(0.3,1.2)", "uniform(1.0,3.0)", "uniform(4.0,9.0)"):
        instances.append(gen_random(n, 7 + n, "circle", law, "unit").to_instance())
    small = n <= 129
    if small:
        i_all, j_all = all_pairs(n)
    else:
        i_all, j_all = np.random.default_rng(n).integers(0, n, (2, 3000))
    walked = slice(None) if small else slice(200)
    for inst in instances:
        tree = _TreeNeighborIndex(inst)
        naive = NaiveNeighborIndex(inst)
        for ccw in (True, False):
            got = tree.first_disjoint(i_all, j_all, ccw=ccw).tolist()
            assert got == _row_answers(inst, i_all, j_all, ccw=ccw).tolist()
            walk = naive.first_disjoint(i_all[walked], j_all[walked], ccw=ccw)
            assert walk.tolist() == got[walked]
        runs = list(zip(*(a.tolist() for a in tree.dominated_runs)))
        if small:
            assert runs == [dominated_run(naive, i) for i in range(n)]
            assert runs == list(zip(*(a.tolist() for a in naive.dominated_runs)))
            assert tree.domination_lower_bound() == naive.domination_lower_bound()
        else:
            i = np.arange(n)
            after = _row_answers(inst, i, i, ccw=True).tolist()
            before = _row_answers(inst, i, i, ccw=False).tolist()
            assert runs == [(0, n) if a < 0 else ((b + 1) % n, (a - b - 1) % n)
                            for a, b in zip(after, before)]
            arrays = inst.xs, inst.ys, inst.rs
            largest = max(int(intersects_row(*arrays, i).sum()) for i in range(n))
            assert tree.domination_lower_bound() == -(-n // largest)
    # the giant disk meets every disk: each of its queries saturates
    (g,) = instances[0].to_canonical((0,))
    tree = _TreeNeighborIndex(instances[0])
    for ccw in (True, False):
        assert (tree.first_disjoint(np.full(n, g), np.arange(n), ccw=ccw) == -1).all()
    assert dominated(tree, g).is_full


def _ring_missing_one(n):
    """n disks on a circle; input disk 0 meets every disk but the one opposite it."""
    pts = []
    for k in range(n):
        a = 2 * math.pi * k / n
        r = 39.7 if k == 0 else 0.1 if k == n // 2 else 0.5
        pts.append((20 * math.cos(a), 20 * math.sin(a), r))
    return mk_instance(pts)


def _runs_past_cases(t4, big5):
    from diskdom import gen_random

    yield t4
    yield big5
    yield from (inst for _, inst in tangent_chain_instances(range(40)))
    for n in (1, 2, 63, 64, 65, 300):
        yield _ring_with_giant(n)
        yield _ring_missing_one(n)
        for law in ("uniform(0.3,1.2)", "uniform(1.0,3.0)", "uniform(4.0,9.0)"):
            yield gen_random(n, 11 + n, "circle", law, "unit").to_instance()


def test_runs_past_matches_the_disk_by_disk_walk(t4, big5):
    """`runs_past` of the tree index against the naive `run_after`/`run_before`, walked disk by disk.

    Every (i, z) pair up to 65 disks and 3000 sampled at 300, both ways
    round.  Each query is sorted by where its first disk j = z±1 lies
    against disk i's dominated run, and every kind must occur: inside the
    run on either side of i, in a full run, in a run of n - 1 disks, on a
    disk i misses (the exact empty tail), and outside the run on a disk i
    meets, which walks.
    """
    seen = Counter()
    for inst in _runs_past_cases(t4, big5):
        n = inst.n
        tree, naive = _TreeNeighborIndex(inst), NaiveNeighborIndex(inst)
        if n <= 65:
            i, z = np.divmod(np.arange(n * n), n)
        else:
            i, z = np.random.default_rng(n).integers(0, n, (2, 3000))
        dom_s, dom_k = (a[i] for a in naive.dominated_runs)
        for ccw in (True, False):
            starts, lengths = tree.runs_past(i, z, ccw=ccw)
            want_s, want_k = naive.runs_past(i, z, ccw=ccw)
            assert starts.dtype == lengths.dtype == np.int64
            assert starts.tolist() == want_s.tolist() and lengths.tolist() == want_k.tolist()
            j = (z + (1 if ccw else -1)) % n
            off = (j - dom_s) % n
            inside = off < dom_k
            misses = np.array([naive._avoids(a, b) for a, b in zip(i.tolist(), j.tolist())], bool)
            assert not (inside & misses).any()
            # the empty tail of a missed disk, exactly
            assert (starts[misses] == (j if ccw else (j + 1) % n)[misses]).all()
            assert (lengths[misses] == 0).all()
            mine = (i - dom_s) % n  # disk i's own place in its run
            kinds = {
                "full": inside & (dom_k == n),
                "n - 1": inside & (dom_k == n - 1),
                "ccw of i": inside & (dom_k < n) & (off > mine),
                "cw of i": inside & (dom_k < n) & (off < mine),
                "missed": misses,
                "walked": ~inside & ~misses,
            }
            for kind, hit in kinds.items():
                seen[kind, ccw] += int(hit.sum())
    assert all(seen[kind, ccw] for kind in ("full", "n - 1", "ccw of i", "cw of i", "missed", "walked")
               for ccw in (True, False)), seen


@pytest.mark.parametrize("n, seed, law", [(5000, 555, "uniform(4.5,7.5)"), (2000, 1001, "uniform(1.0,3.0)")])
def test_unweighted_solve_walks_only_the_dominated_runs_and_the_tails_outside_them(n, seed, law):
    """`first_disjoint` answers the 2n dominated-run walks and only the tails that need one.

    Every other tail query starts inside disk i's dominated run or on a
    disk i misses, and `runs_past` answers it without a walk.  The tails
    that must walk are counted from whole `intersects_row` rows
    (`query_reference.tail_walks`); on the wide law there are none, on the
    deep law some.
    """
    from diskdom import gen_random
    from diskdom.unweighted_greedy import solve_unweighted

    inst = gen_random(n, seed, "circle", law, "unit").to_instance(weighted=False)
    with counting_queries() as asked:
        solve_unweighted(inst)
    walks = tail_walks(inst, asked["tails"])
    assert asked["walked"] == 2 * n + walks
    assert (walks == 0) == (law == "uniform(4.5,7.5)")


def test_build_neighbor_index_builds_the_tree_at_every_n():
    """One index at every size: no cut, no n x n matrix below it."""
    for n in (1, 2, 60, 4096, 4097):
        assert type(build_neighbor_index(_ring_with_giant(n))) is _TreeNeighborIndex


@pytest.mark.parametrize("scale", [2.0**658, 1e-150])
def test_tree_answers_as_the_float_predicate_at_extreme_scales(scale):
    """A scaled wide-law instance: every tree answer is the one `~intersects_row` gives.

    At 2**658 every square overflows, so the predicate decides every pair
    again on operands scaled by 2**-600, exactly as the unscaled instance
    scaled by 2**58: it answers as the unscaled instance, and no node may
    be skipped; at 1e-150 the tree does skip nodes, and each skip must
    agree with the predicate.
    """
    from diskdom import gen_random

    base = gen_random(320, 5, "circle", "uniform(4.5,7.5)", "unit").to_instance(weighted=False)
    inst = replace(base, xs=base.xs * scale, ys=base.ys * scale, rs=base.rs * scale)
    n = inst.n
    arrays = inst.xs, inst.ys, inst.rs
    tree = _TreeNeighborIndex(inst)
    i_all, j_all = np.divmod(np.arange(n * n), n)
    rows = [~intersects_row(*arrays, i) for i in range(n)]
    for ccw in (True, False):
        want = np.concatenate([_first_in_row(row, np.arange(n), ccw=ccw) for row in rows])
        got = tree.first_disjoint(i_all, j_all, ccw=ccw)
        assert got.tolist() == want.tolist()
        if scale > 1:  # no overflowed square decides: the answers are the unscaled ones
            unscaled = _TreeNeighborIndex(base).first_disjoint(i_all, j_all, ccw=ccw)
            assert got.tolist() == unscaled.tolist() and (got >= 0).any()
    assert tree._skips(i_all, j_all >> 6).any() == (scale < 1)


def test_tree_does_not_skip_where_squares_are_subnormal():
    """Two disks that meet with 1% to spare in exact arithmetic, at a scale of 1e-162.

    Their squares are subnormal, and the predicate's roundings call them
    disjoint, as `verify` does.  The bounding circle of their leaf proves
    that they meet; only the range guard on r_i + r_min keeps the tree
    from skipping the leaf on that proof.
    """
    from fractions import Fraction

    a = WeightedDisk(Point(0.0, 0.0), 3.407285830449474e-162)
    b = WeightedDisk(Point(4.744700532046208e-162, 4.764597878845263e-162), 3.417353947513618e-162)
    x, y, r_a, r_b = map(Fraction, (b.center.x, b.center.y, a.radius, b.radius))
    assert x * x + y * y <= (r_a + r_b) ** 2 * Fraction(98, 100)
    assert not intersects(a, b)
    rows = [(d.center.x, d.center.y, d.radius, d.weight) for d in (a, b)]
    tree = _TreeNeighborIndex(Instance(*DiskColumns.from_rows(rows), (0, 1)))
    for ccw in (True, False):
        assert tree.first_disjoint([0, 1], [0, 1], ccw=ccw).tolist() == [1, 0]
