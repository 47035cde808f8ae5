import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diskdom.geometry import (
    DiskColumns,
    DuplicateCenter,
    GeometryError,
    NonFiniteValue,
    NonPositiveWeight,
    NotConsecutive,
    NotStrictlyConvex,
    Point,
    WeightedDisk,
    canonicalize,
    intersects,
    intersects_row,
    offset_ccw,
    union_columns,
)
from conftest import (
    FOUND_CONVEX_QUAD,
    OVERFLOW_TRIANGLE,
    T4_POINTS,
    mk_instance,
    nudged,
    tangent_chain_instances,
)
from exact_reference import exact_meets, exact_orientation
from hull_reference import chain_order
from run_reference import CyclicSublist, union_extend, union_runs


def disk(x, y, r, w=1.0):
    return WeightedDisk(Point(x, y), r, w)


# ---------------------------------------------------------------- predicates


def test_intersects_tangency_counts():
    assert intersects(disk(0, 0, 1.0), disk(2, 0, 1.0))


def test_intersects_false_beyond_reach():
    assert not intersects(disk(0, 0, 0.6), disk(1, 1, 0.6))


def test_intersects_matches_distance_sign_randomized():
    import random

    rng = random.Random(1234)
    for _ in range(2000):
        a = disk(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 3))
        b = disk(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 3))
        assert intersects(a, b) == exact_meets(a, b)


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


def test_canonicalize_rejects_interior_point_when_orientation_overflows():
    # the interior point must still fail
    a, b, c = OVERFLOW_TRIANGLE
    turns = {exact_orientation(p, q, (0.0, 0.0)) for p, q in ((a, b), (b, c), (c, a))}
    assert len(turns) == 1 and 0 not in turns  # (0, 0) is strictly inside, exactly
    with pytest.raises(NotStrictlyConvex):
        mk_instance([(x, y, 1) for x, y in OVERFLOW_TRIANGLE + [(0.0, 0.0)]])


@pytest.mark.parametrize("interior", [[], [(0.0, 0.0)]])
def test_canonicalize_warns_nothing_when_orientations_overflow(interior):
    # numpy reports overflow and inf - inf as RuntimeWarnings, which would
    # reach stderr; canonicalize must decide the input without them: the
    # lone triangle, which turns exactly, is accepted counterclockwise
    a, b, c = OVERFLOW_TRIANGLE
    assert min(OVERFLOW_TRIANGLE) == b and exact_orientation(b, c, a) == 1  # so b, c, a is ccw
    points = [(x, y, 1) for x, y in OVERFLOW_TRIANGLE + interior]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if interior:
            with pytest.raises(NotStrictlyConvex):
                mk_instance(points)
        else:
            assert mk_instance(points).original_index == (1, 2, 0)


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


@st.composite
def hull_inputs(draw):
    """Disks for `canonicalize`: mostly centers near or off a convex hull.

    Random centers (mostly not convex), centers on a circle (convex), the
    same with one center put on a chord and nudged a few floats off it
    (near-collinear), and small integer grids (shared x coordinates,
    collinear rows).  All of them scaled by 2**e with |e| up
    to 600, and one input in three with a radius or weight that may be invalid.
    """
    kind = draw(st.sampled_from(["random", "circle", "near-collinear", "grid"]))
    if kind == "random":
        coord = st.floats(-1e3, 1e3)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=9, unique=True))
    elif kind == "grid":
        cell = st.tuples(st.integers(-2, 2), st.integers(-3, 3))
        cells = draw(st.lists(cell, min_size=1, max_size=8, unique=True))
        pts = [(float(x), float(y)) for x, y in cells]
    else:
        steps = sorted(draw(st.lists(st.integers(0, 2**20 - 1), min_size=3, max_size=9, unique=True)))
        angles = [2 * math.pi * k / 2**20 for k in steps]
        pts = [(10 * math.cos(a), 10 * math.sin(a)) for a in angles]
        if kind == "near-collinear":
            k = draw(st.integers(0, len(pts) - 1))
            (px, py), (qx, qy) = pts[k], pts[(k + 1) % len(pts)]
            t = draw(st.floats(0.01, 0.99))
            x, y = px + t * (qx - px), py + t * (qy - py)
            x, y = nudged(x, draw(st.integers(-4, 4))), nudged(y, draw(st.integers(-4, 4)))
            pts.insert(k + 1, (x, y))
        pts = draw(st.permutations(pts))
    scale = 2.0 ** draw(st.one_of(st.just(0), st.integers(-600, 600)))
    disks = [disk(x * scale, y * scale, 1.0) for x, y in pts]
    spoiled = draw(st.sampled_from([None] * 4 + ["radius", "weight"]))
    if spoiled:
        bad = [0.0, -0.5, math.nan, math.inf] if spoiled == "radius" else [0.0, -1.0, math.nan]
        i = draw(st.integers(0, len(disks) - 1))
        disks[i] = replace(disks[i], **{spoiled: draw(st.sampled_from(bad))})
    return disks


def _outcome(order, disks, weighted):
    """("ok", canonical order) or (exception class, message) of one call."""
    try:
        return "ok", tuple(order(disks, weighted=weighted))
    except (GeometryError, ValueError) as exc:
        return type(exc), str(exc)


def _bulk_order(disks, *, weighted):
    return canonicalize(disks, weighted=weighted).original_index


@given(hull_inputs(), st.booleans())
@settings(max_examples=600, deadline=None)
@example([disk(x, y, 1.0) for x, y in OVERFLOW_TRIANGLE], True)
@example([disk(x * 2.0**-600, y * 2.0**-600, 1.0) for x, y, _ in T4_POINTS], True)
@example([disk(0.0, 1.0, 1.0), disk(-0.0, 1.0, 1.0), disk(1.0, 0.0, 1.0)], True)
@example(  # convex exactly; a float side test put the second point below the chord
    [disk(x, y, 1.0) for x, y in FOUND_CONVEX_QUAD],
    False,
)
def test_canonicalize_agrees_with_the_scalar_chain(disks, weighted):
    """The bulk hull accepts what the scalar monotone chain accepts, in the
    same order, and rejects the rest with the same exception and message.

    The two evaluate orientations from different base points, which the
    exact `orientation_row` makes irrelevant, so they agree on every input.
    """
    got, want = _outcome(_bulk_order, disks, weighted), _outcome(chain_order, disks, weighted)
    assert got == want


def test_intersects_row_is_intersects_on_tangent_chains():
    # nominally tangent neighbours sit on the rounding edge of a float
    # predicate, so any float verdict would show here
    rows = 0
    for _, inst in tangent_chain_instances(range(200)):
        arrays = inst.xs, inst.ys, inst.rs
        for i in range(inst.n):
            row = intersects_row(*arrays, i).tolist()
            assert row == [exact_meets(inst.disks[i], d) for d in inst.disks]
            assert row == [intersects(inst.disks[i], d) for d in inst.disks]
            rows += 1
    assert rows > 50


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_overflowing_squares_do_not_read_as_meeting(scale):
    """Three pairwise-disjoint disks whose squares overflow: each meets only itself.

    Both d² and (r_i + r_j)² overflow to inf, and inf <= inf says nothing,
    so the predicate decides such a pair in exact arithmetic.
    Both solvers and brute force then need all three centers, and `verify`
    rejects any fewer; a tangent pair at the same scale still meets.
    """
    from itertools import combinations

    from diskdom.oracle import brute_force_min, verify
    from diskdom.solution import Infeasible
    from diskdom.unweighted_greedy import solve_unweighted
    from diskdom.weighted_dp import solve_weighted

    inst = mk_instance([(x * scale, y * scale, scale) for x, y in ((0, 0), (3, 0), (1.5, 5))])
    arrays = inst.xs, inst.ys, inst.rs
    for i, d in enumerate(inst.disks):
        assert [intersects(d, e) for e in inst.disks] == [z == i for z in range(3)]
        assert intersects_row(*arrays, i).tolist() == [z == i for z in range(3)]
    assert intersects(disk(0, 0, scale), disk(2 * scale, 0, scale))
    assert solve_unweighted(inst).size == 3
    assert solve_weighted(inst, 3).size == 3
    with pytest.raises(Infeasible):
        solve_weighted(inst, 2)
    assert brute_force_min(inst, "unweighted").size == 3
    assert brute_force_min(inst, "weighted").size == 3
    assert not any(verify(inst, c) for k in (1, 2) for c in combinations(range(3), k))
    assert verify(inst, range(3))


@pytest.mark.parametrize("scale", [2.0**658, 2.0**-560])
def test_extreme_scales_leave_integer_arithmetic_the_pairs_scale_one_does(monkeypatch, scale):
    """Scaled by a power of two, every square overflows or underflows, and the float
    filter tries each pair again scaled back: integer arithmetic decides only the
    pairs it decides at scale 1, nominally tangent ones, and every answer is the same."""
    import diskdom.geometry as geometry
    from diskdom import gen_random

    exact, asked = geometry._exact_signs, []

    def counted(formula, *operands):
        asked.append(len(operands[0]))
        return exact(formula, *operands)

    monkeypatch.setattr(geometry, "_exact_signs", counted)
    wide = gen_random(64, 5, "circle", "uniform(4.5,7.5)", "unit").to_instance(weighted=False)
    instances = [wide] + [inst for _, inst in tangent_chain_instances(range(40))]
    counts = []
    for factor in (1.0, scale):
        asked.clear()
        rows = [
            intersects_row(inst.xs * factor, inst.ys * factor, inst.rs * factor, i).tolist()
            for inst in instances for i in range(inst.n)
        ]
        counts.append(sum(asked))
        if factor == 1.0:
            unscaled = rows
    assert rows == unscaled
    assert counts[1] == counts[0] > 0


@pytest.mark.parametrize("scale", [2.0**658, 2.0**-560])
def test_extreme_scales_leave_integer_arithmetic_the_turns_scale_one_does(monkeypatch, scale):
    """Scaled by a power of two, every hull turn of `canonicalize` overflows or underflows,
    and `orientation_row` tries each again scaled back: integer arithmetic decides only
    the turns it decides at scale 1, and the order is the same."""
    import diskdom.geometry as geometry
    from diskdom import gen_random

    exact, asked = geometry._exact_signs, []

    def counted(formula, *operands):
        asked.append(len(operands[0]))
        return exact(formula, *operands)

    monkeypatch.setattr(geometry, "_exact_signs", counted)
    docs = [gen_random(n, 5, "circle", "uniform(4.5,7.5)", "unit") for n in (64, 320, 4000)]
    docs += [gen_random(12, seed, family, "unit", "unit") for seed in range(20)
             for family in ("ellipse", "perturbed-polygon")]
    counts, orders = [], []
    for factor in (1.0, scale):
        asked.clear()
        scaled = (DiskColumns(c.xs * factor, c.ys * factor, c.rs * factor, c.ws)
                  for c in (doc.columns for doc in docs))
        orders.append([canonicalize(cols).original_index for cols in scaled])
        counts.append(sum(asked))
    assert orders[1] == orders[0]
    assert counts[1] == counts[0]


def test_overflowing_center_difference_does_not_read_as_meeting():
    # the centers' difference itself overflows, so the pair is decided in
    # exact arithmetic: 3.4e308 apart, radii summing to 2e308 (disjoint)
    # and to 3.4e308 (tangent)
    for r, meets in ((1e308, False), (1.7e308, True)):
        pair = [disk(-1.7e308, 0.0, r), disk(1.7e308, 0.0, r)]
        cols = [np.array(col) for col in zip(*((d.center.x, d.center.y, d.radius) for d in pair))]
        assert intersects(*pair) == meets
        assert intersects_row(*cols, 0).tolist() == [True, meets]


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


def _four_runs(draw, n, first=0):
    """Four runs over a cycle of n: random, or chained so they stay consecutive.

    A chained run starts inside or just past the previous one, or starts
    behind it and reaches back into it (the wrap-behind case).  The first
    run holds at least `first` indexes.
    """
    runs = [(draw(st.integers(0, n - 1)), draw(st.integers(first, n)))]
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
    return runs


@st.composite
def run_lists(draw):
    """One list of four runs over a cycle of n (`_four_runs`)."""
    n = draw(st.integers(1, 12))
    return n, _four_runs(draw, n)


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



# --- union_columns against union_runs, row by row ------------------------------


def _scalar_rows(n, rows):
    """`union_runs` of each row of runs; NotConsecutive as a value."""
    out = []
    for runs in rows:
        try:
            out.append(union_runs(n, runs))
        except NotConsecutive:
            out.append(NotConsecutive)
    return out


def _columnar(n, rows):
    """`union_columns` of the rows, or NotConsecutive if it raises."""
    parts = [
        (np.array([runs[p][0] for runs in rows]), np.array([runs[p][1] for runs in rows]))
        for p in range(len(rows[0]))
    ]
    try:
        starts, lengths = union_columns(n, parts)
    except NotConsecutive:
        return NotConsecutive
    return list(zip(starts.tolist(), lengths.tolist()))


def assert_columns_match_rows(n, rows):
    want = _scalar_rows(n, rows)
    # a gap in any row raises for the whole table; each row alone matches
    assert _columnar(n, rows) == (NotConsecutive if NotConsecutive in want else want)
    for runs, one in zip(rows, want):
        assert _columnar(n, [runs]) == (one if one is NotConsecutive else [one]), (n, runs)


@st.composite
def run_tables(draw):
    """Up to six rows of four runs (`_four_runs`) over one cycle of n, each row's first nonempty."""
    n = draw(st.integers(1, 12))
    return n, [_four_runs(draw, n, first=1) for _ in range(draw(st.integers(1, 6)))]


@given(run_tables())
@settings(max_examples=400, deadline=None)
@example((10, [[(2, 3), (4, 2), (8, 9), (0, 1)], [(0, 4), (4, 2), (5, 1), (1, 1)]]))
@example((6, [[(0, 2), (3, 2), (0, 6), (0, 0)], [(0, 2), (1, 2), (5, 1), (0, 6)]]))
def test_union_columns_matches_union_runs(case):
    assert_columns_match_rows(*case)


def test_union_columns_matches_union_runs_exhaustively():
    # every list of four runs, the first nonempty, over cycles of up to 4
    # indexes: the rows without a gap as one table, then each row with a gap alone
    for n in range(1, 5):
        runs = sorted({(CyclicSublist(s, k, n).start, k) for s in range(n) for k in range(n + 1)})
        rows = [[a, b, c, d] for a in runs if a[1] for b in runs for c in runs for d in runs]
        want = _scalar_rows(n, rows)
        assert (NotConsecutive in want) == (n == 4)  # no smaller cycle has room for a gap
        whole = [runs_ for runs_, w in zip(rows, want) if w is not NotConsecutive]
        assert _columnar(n, whole) == [w for w in want if w is not NotConsecutive]
        for runs_ in (runs_ for runs_, w in zip(rows, want) if w is NotConsecutive):
            assert _columnar(n, [runs_]) is NotConsecutive, (n, runs_)
