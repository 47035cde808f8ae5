import math

import pytest
from hypothesis import example, given, settings, strategies as st

from diskdom.geometry import (
    CyclicSublist,
    DuplicateCenter,
    NonFiniteValue,
    NonPositiveWeight,
    NotConsecutive,
    NotStrictlyConvex,
    Point,
    WeightedDisk,
    canonicalize,
    disk_arrays,
    intersects,
    intersects_row,
    offset_ccw,
    union_runs,
)
from conftest import T4_POINTS, mk_instance, tangent_chain_instances
from run_reference import union_extend


def disk(x, y, r, w=1.0):
    return WeightedDisk(Point(x, y), r, w)


# ---------------------------------------------------------------- predicates


def test_intersects_tangency_counts():
    assert intersects(disk(0, 0, 1.0), disk(2, 0, 1.0))


def test_intersects_false_beyond_reach():
    assert not intersects(disk(0, 0, 0.6), disk(1, 1, 0.6))


def test_intersects_matches_distance_sign_randomized():
    import random
    from fractions import Fraction

    def exact_meet(a, b):
        dx = Fraction(b.center.x) - Fraction(a.center.x)
        dy = Fraction(b.center.y) - Fraction(a.center.y)
        rr = Fraction(a.radius) + Fraction(b.radius)
        return dx * dx + dy * dy <= rr * rr

    rng = random.Random(1234)
    for _ in range(2000):
        a = disk(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 3))
        b = disk(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 3))
        assert intersects(a, b) == exact_meet(a, b)


# ------------------------------------------------------------- canonicalize


def test_canonicalize_square_order():
    inst = mk_instance([(1.0, 1.0, 0.6), (0.0, 0.0, 0.6), (0.0, 1.0, 0.6), (1.0, 0.0, 0.6)])
    centers = [(d.center.x, d.center.y) for d in inst.disks]
    assert centers == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    # original positions tracked
    assert inst.original_index == (1, 3, 0, 2)
    assert inst.to_original((0, 2)) == (1, 0)
    assert inst.to_canonical((1, 0)) == (0, 2)


def test_canonicalize_idempotent(t4):
    again = canonicalize(list(t4.disks))
    assert again.disks == t4.disks
    assert again.original_index == tuple(range(4))


def test_canonicalize_rejects_collinear():
    with pytest.raises(NotStrictlyConvex):
        mk_instance([(0, 0, 1), (1, 0, 1), (2, 0, 1)])


def test_canonicalize_rejects_interior_point():
    with pytest.raises(NotStrictlyConvex):
        mk_instance([(0, 0, 1), (4, 0, 1), (0, 4, 1), (1, 1, 1)])


def test_canonicalize_rejects_duplicate_center():
    with pytest.raises(DuplicateCenter):
        mk_instance([(0, 0, 1), (0, 0, 2), (1, 1, 1)])


def test_canonicalize_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        mk_instance([(0, 0, 1), (math.nan, 1, 1)])


def test_canonicalize_weight_validation():
    with pytest.raises(NonPositiveWeight):
        mk_instance([(0, 0, 1, 0.0), (1, 0, 1, 1.0)])
    # unweighted mode tolerates the same input
    inst = mk_instance([(0, 0, 1, 0.0), (1, 0, 1, 1.0)], weighted=False)
    assert inst.n == 2


def test_canonicalize_tiny_instances():
    assert mk_instance([(3, 4, 1)]).n == 1
    two = mk_instance([(5, 0, 1), (0, 0, 1)])
    assert (two.disks[0].center.x, two.disks[0].center.y) == (0.0, 0.0)


def test_canonicalize_random_circle_orders_ccw():
    import random

    rng = random.Random(7)
    for n in (3, 5, 9, 17):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        pts = [(10 * math.cos(a), 10 * math.sin(a), 1.0) for a in angles]
        shuffled = pts[:]
        rng.shuffle(shuffled)
        inst = mk_instance(shuffled)
        # counterclockwise: every consecutive triple turns left
        c = [d.center for d in inst.disks]
        for i in range(n):
            a, b, d = c[i], c[(i + 1) % n], c[(i + 2) % n]
            assert (b.x - a.x) * (d.y - a.y) - (b.y - a.y) * (d.x - a.x) > 0


def test_intersects_row_is_intersects_on_tangent_chains():
    # nominally tangent neighbours sit on the rounding edge of the predicate,
    # so any difference in operations or their order would show here
    rows = 0
    for _, inst in tangent_chain_instances(range(200)):
        arrays = disk_arrays(inst)
        for i in range(inst.n):
            row = intersects_row(*arrays, i)
            assert row.tolist() == [intersects(inst.disks[i], d) for d in inst.disks]
            rows += 1
    assert rows > 50


# ------------------------------------------------------------ cyclic runs


def run_set(r):
    return set(r.indices())


def test_sublist_wraparound_example():
    assert list(CyclicSublist(4, 4, 6).indices()) == [4, 5, 0, 1]


def test_sublist_singleton_and_full():
    assert list(CyclicSublist(2, 1, 5).indices()) == [2]
    assert CyclicSublist(3, 5, 5).is_full
    assert CyclicSublist(3, 0, 5) == CyclicSublist(0, 0, 5)


@given(st.integers(1, 9), st.data())
def test_sublist_matches_walk_enumeration(n, data):
    i = data.draw(st.integers(0, n - 1))
    length = data.draw(st.integers(0, n))
    got = list(CyclicSublist(i, length, n).indices())
    walk = [(i + step) % n for step in range(length)]
    if length == n:
        # a run covering everything canonicalizes its start to 0
        assert got == list(range(n))
    else:
        assert got == walk


def test_offset_ccw():
    assert offset_ccw(5, 2, 7) == 4
    assert offset_ccw(2, 2, 7) == 0


def test_contains_sub_cases():
    a = CyclicSublist(4, 4, 6)  # {4,5,0,1}
    assert a.contains_sub(CyclicSublist(5, 2, 6))
    assert not a.contains_sub(CyclicSublist(1, 2, 6))
    assert a.contains_sub(CyclicSublist(0, 0, 6))
    assert CyclicSublist(0, 6, 6).contains_sub(a)
    assert not a.contains_sub(CyclicSublist(0, 6, 6))


@given(st.integers(1, 8), st.data())
def test_contains_sub_matches_set_inclusion(n, data):
    def draw_run():
        return CyclicSublist(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n)), n)

    a, b = draw_run(), draw_run()
    assert a.contains_sub(b) == (run_set(b) <= run_set(a))


def test_union_extend_overlap():
    got = union_extend([CyclicSublist(0, 3, 6), CyclicSublist(2, 3, 6)])
    assert got == CyclicSublist(0, 5, 6)


def test_union_extend_saturates_to_full():
    got = union_extend([CyclicSublist(0, 4, 6), CyclicSublist(4, 2, 6), CyclicSublist(0, 2, 6)])
    assert got.is_full


def test_union_extend_gap_raises():
    with pytest.raises(NotConsecutive):
        union_extend([CyclicSublist(0, 2, 6), CyclicSublist(3, 2, 6)])


def test_union_extend_backward_overlap():
    # second run wraps around and meets the first from behind
    got = union_extend([CyclicSublist(9, 7, 10), CyclicSublist(7, 4, 10)])
    assert run_set(got) == {7, 8, 9, 0, 1, 2, 3, 4, 5}


def test_union_extend_skips_empty_parts():
    empty = CyclicSublist(0, 0, 5)
    got = union_extend([empty, CyclicSublist(1, 2, 5), empty])
    assert got == CyclicSublist(1, 2, 5)
    assert union_extend([empty]).is_empty


@given(st.integers(2, 9), st.data())
def test_union_extend_matches_set_union(n, data):
    parts = []
    for _ in range(data.draw(st.integers(1, 4))):
        parts.append(
            CyclicSublist(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n)), n)
        )
    expected = set()
    for p in parts:
        expected |= run_set(p)
    try:
        got = union_extend(parts)
    except NotConsecutive:
        return  # gap cases are exercised separately
    assert run_set(got) == expected


def test_singleton_full_n1():
    assert CyclicSublist(0, 1, 1).is_full
    assert CyclicSublist(0, 1, 1) == CyclicSublist(0, 1, 1)


def test_endpoints():
    r = CyclicSublist(4, 3, 6)
    assert r.cw_end == 4 and r.ccw_end == 0
    with pytest.raises(ValueError):
        _ = CyclicSublist(0, 4, 4).ccw_end
    with pytest.raises(ValueError):
        _ = CyclicSublist(0, 0, 4).cw_end


def test_t4_is_reference_instance(t4):
    assert t4.n == 4
    assert intersects(t4.disks[0], t4.disks[1])
    assert not intersects(t4.disks[0], t4.disks[2])


# --- union_runs against its reference twin union_extend ---------------------


def _union_both(n, runs):
    """(union_extend, union_runs) on the same runs; NotConsecutive as a value."""
    subs = [CyclicSublist(s, k, n) for s, k in runs]
    try:
        got = union_extend(subs)
        want = (got.start, got.length)
    except NotConsecutive:
        want = NotConsecutive
    try:
        got_ints = union_runs(n, [(p.start, p.length) for p in subs])
    except NotConsecutive:
        got_ints = NotConsecutive
    return want, got_ints


@st.composite
def run_lists(draw):
    """Four runs over a cycle of n: random, or chained so they stay consecutive.

    A chained run starts inside or just past the previous one, or starts
    behind it and reaches back into it (the wrap-behind case).
    """
    n = draw(st.integers(1, 12))
    runs = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n)))]
    chained = draw(st.booleans())
    for _ in range(3):
        ps, pk = runs[-1]
        if chained and 0 < pk < n:
            d = draw(st.integers(0, pk))
            if draw(st.booleans()):
                runs.append(((ps + d) % n, draw(st.integers(0, n))))
            else:
                back = draw(st.integers(1, n))
                runs.append(((ps - back) % n, draw(st.integers(min(back, n), n))))
        else:
            runs.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n))))
    return n, runs


@given(run_lists())
@settings(max_examples=400, deadline=None)
@example((10, [(2, 3), (4, 2), (8, 9), (0, 1)]))  # wraps behind the start
@example((6, [(0, 4), (4, 2), (5, 1), (1, 1)]))  # saturates, then a part is skipped
@example((6, [(0, 2), (3, 2), (0, 6), (0, 0)]))  # gap raises before the full part
@example((6, [(0, 2), (1, 2), (5, 1), (0, 6)]))  # wrap-behind, then a full tail
def test_union_runs_matches_union_extend(case):
    n, runs = case
    want, got = _union_both(n, runs)
    assert got == want


def test_union_runs_matches_union_extend_exhaustively():
    # every list of four runs over cycles of up to 4 indexes, with each
    # outcome union_extend can produce seen at least once
    seen = set()
    for n in range(1, 5):
        runs = sorted({(CyclicSublist(s, k, n).start, k) for s in range(n) for k in range(n + 1)})
        for a in runs:
            for b in runs:
                for c in runs:
                    for d in runs:
                        parts = [a, b, c, d]
                        want, got = _union_both(n, parts)
                        assert got == want, (n, parts)
                        nonempty = [p for p in parts if p[1]]
                        if want is NotConsecutive:
                            seen.add("gap")
                        elif want[1] == n and all(k < n for _, k in parts):
                            seen.add("saturated")
                        elif want[1] < n and nonempty and want[0] != nonempty[0][0]:
                            seen.add("wrapped behind")
    assert seen == {"gap", "saturated", "wrapped behind"}

