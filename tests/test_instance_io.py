import json
import math

import pytest

from conftest import mk_instance
from diskdom.geometry import intersects
from diskdom.instance_io import (
    BadParams,
    SplitMix64,
    gen_figure1,
    gen_random,
    instance_document,
    law_repr,
    load_instance_document,
    load_solution_document,
    parse_law,
    render_svg,
    solution_document,
)
from diskdom.oracle import brute_force_min
from diskdom.solution import Infeasible
from diskdom.unweighted_greedy import solve_unweighted
from diskdom.weighted_dp import solve_weighted

# Reference outputs for seed 0 from the published splitmix64 test vector.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Frozen at authoring time from brute_force_min on the generated documents.
W12_ARGS = (12, 42, "ellipse", "lognormal(0,0.5)", "uniform(1,10)")
W12_K = 6
W12_WEIGHT = 22.47054675657013
W12_CENTERS = (2, 4, 7, 8, 9, 11)
U14_ARGS = (14, 7, "circle", "uniform(0.5,4.0)", "unit")
U14_SIZE = 7


def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX64_SEED0


def test_splitmix64_uniform_bounds():
    rng = SplitMix64(99)
    vals = [rng.uniform(2.0, 5.0) for _ in range(500)]
    assert all(2.0 <= v < 5.0 for v in vals)
    assert len(set(vals)) > 490


def test_parse_law():
    assert parse_law("unit") == ("unit",)
    assert parse_law("uniform(0.5, 2)") == ("uniform", 0.5, 2.0)
    assert parse_law("LogNormal(0,0.5)") == ("lognormal", 0.0, 0.5)
    assert parse_law(("uniform", 1.0, 1.0)) == ("uniform", 1.0, 1.0)
    for bad in ("uniform(2,1)", "uniform(0,1)", "uniform(1)", "nope(1,2)", "uniform(a,b)", "uniform(1,2"):
        with pytest.raises(BadParams):
            parse_law(bad)
    assert parse_law(law_repr(("lognormal", 0.0, 0.5))) == ("lognormal", 0.0, 0.5)


def test_gen_random_deterministic_and_round_trip():
    a = gen_random(*W12_ARGS)
    b = gen_random(*W12_ARGS)
    assert a.to_json() == b.to_json()
    back = load_instance_document(a.to_json())
    assert back.to_json() == a.to_json()
    assert back.metadata["seed"] == "42"


def test_gen_random_degenerate_law():
    doc = gen_random(4, 1, "circle", "uniform(0.5,0.5)", "unit")
    assert [p["r"] for p in doc.points] == [0.5] * 4
    assert [p["w"] for p in doc.points] == [1.0] * 4
    assert all(
        math.isclose(math.hypot(p["x"], p["y"]), 10.0) for p in doc.points
    )


def test_gen_random_families_canonicalize():
    for fam in ("circle", "ellipse", "perturbed-polygon"):
        for seed in range(25):
            n = 1 + seed % 13
            inst = gen_random(n, seed, fam, "uniform(0.2,2.0)", "unit").to_instance()
            assert inst.n == n


def test_gen_random_bad_params():
    with pytest.raises(BadParams):
        gen_random(0, 1)
    with pytest.raises(BadParams):
        gen_random(5, 1, family="square")
    with pytest.raises(BadParams):
        gen_random(5, 1, radius_law="uniform(-1,2)")


def test_w12_pinned_optimum():
    inst = gen_random(*W12_ARGS).to_instance()
    got = solve_weighted(inst, W12_K)
    ref = brute_force_min(inst, "weighted", k_cap=W12_K)
    assert abs(got.weight - W12_WEIGHT) < 1e-9
    assert abs(ref.weight - W12_WEIGHT) < 1e-9
    assert got.centers == W12_CENTERS
    with pytest.raises(Infeasible):
        solve_weighted(inst, W12_K - 1)


def test_u14_pinned_optimum():
    inst = gen_random(*U14_ARGS).to_instance(weighted=False)
    assert solve_unweighted(inst).size == U14_SIZE
    assert brute_force_min(inst, "unweighted").size == U14_SIZE


def test_figure1_structure():
    for n in (5, 6, 9, 13):
        inst = gen_figure1(n).to_instance(weighted=False)
        assert inst.n == n
        disks = sorted(inst.disks, key=lambda d: -d.radius)
        big, smalls = disks[0], disks[1:]
        hits = [intersects(big, s) for s in sorted(smalls, key=lambda d: math.atan2(d.center.y, d.center.x))]
        assert hits == [j % 2 == 0 for j in range(n - 1)]
        for a in range(len(smalls)):
            for b in range(a + 1, len(smalls)):
                assert not intersects(smalls[a], smalls[b])
        assert all(d.weight == 1.0 for d in inst.disks)


def test_figure1_optimum_includes_big_disk():
    for n in (5, 9, 13):
        inst = gen_figure1(n).to_instance(weighted=False)
        ref = brute_force_min(inst, "unweighted")
        assert ref.size == (n - 1) // 2 + 1
        big = max(range(inst.n), key=lambda i: inst.disks[i].radius)
        assert big in inst.to_canonical(ref.centers)
        assert solve_unweighted(inst).size == ref.size


def test_figure1_bad_params():
    for bad in (4, -1, 2.5, 60):
        with pytest.raises(BadParams):
            gen_figure1(bad)


def test_instance_document_preserves_original_order():
    pts = [(1.0, 0.0, 0.6, 2.0), (0.0, 1.0, 0.6, 3.0), (0.0, 0.0, 0.6, 1.0), (1.0, 1.0, 0.6, 4.0)]
    inst = mk_instance(pts)
    doc = instance_document(inst, {"note": "shuffled"})
    assert [(p["x"], p["y"], p["w"]) for p in doc.points] == [
        (x, y, w) for x, y, _, w in pts
    ]
    again = doc.to_instance()
    assert again.disks == inst.disks
    assert again.original_index == inst.original_index


def test_document_round_trip_is_exact():
    doc = gen_random(9, 3, "perturbed-polygon", "lognormal(0.1,0.7)", "uniform(0.5,3)")
    inst = doc.to_instance()
    rebuilt = instance_document(inst, doc.metadata)
    assert rebuilt.to_json() == doc.to_json()


def test_load_instance_document_errors():
    good = gen_random(5, 1).to_json()
    cases = [
        "not json",
        "[1,2]",
        json.dumps({"schema_version": 2, "points": [], "metadata": {}}),
        json.dumps({"schema_version": 1, "points": [], "metadata": {}}),
        json.dumps({"schema_version": 1, "points": [{"x": 0, "y": 0}], "metadata": {}}),
        json.dumps({"schema_version": 1, "points": [{"x": 0, "y": 0, "r": "wide"}], "metadata": {}}),
        json.dumps({"schema_version": 1, "points": [{"x": 0, "y": 0, "r": 1}], "metadata": 3}),
        good.replace('"r": ', '"r": true, "q": '),
    ]
    for text in cases:
        with pytest.raises(BadParams):
            load_instance_document(text)
    # true and 1.0 compare equal to 1, but the version must be the integer 1
    for version in (True, 1.0):
        text = json.dumps(dict(json.loads(good), schema_version=version))
        with pytest.raises(BadParams) as info:
            load_instance_document(text)
        assert str(info.value) == f"unsupported schema_version {version!r}"
    # collinear centers parse fine but cannot canonicalize
    flat = json.dumps(
        {
            "schema_version": 1,
            "points": [{"x": float(i), "y": 0.0, "r": 1.0} for i in range(3)],
            "metadata": {},
        }
    )
    with pytest.raises(BadParams):
        load_instance_document(flat).to_instance()


P0 = {"x": 0, "y": 0, "r": 1}
P1 = {"x": 1, "y": 3, "r": 1}
P2 = {"x": 2, "y": 0, "r": 1}
MALFORMED = [  # (points, weighted, message): messages pinned from the record-by-record parser
    ([P0, [1, 2]], False, "points[1] is not an object"),
    ([{"y": 0, "r": 1}], False, "points[0] lacks 'x'"),
    ([P0, {"x": 0, "r": 1}], False, "points[1] lacks 'y'"),
    ([{"x": 0, "y": 1}], False, "points[0] lacks 'r'"),
    ([{"x": 0, "y": 0, "r": "s"}, {"y": 0, "r": 1}], False, "points[0].r is not a number"),
    ([{"x": True, "y": 0, "r": 1}], False, "points[0].x is not a number"),
    ([{"x": 0, "y": 0, "r": 1, "w": False}], True, "points[0].w is not a number"),
    ([P0, {"x": 0, "y": "1", "r": 1}], False, "points[1].y is not a number"),
    ([{"x": 0, "y": 0, "r": None}], False, "points[0].r is not a number"),
    ([P0, {"x": 10**400, "y": 0, "r": 1}], False, "points[1].x is beyond float range"),
    ([{"x": 0, "y": 0, "r": 1, "w": 10**400}], True, "points[0].w is beyond float range"),
    (
        [P0, {"x": 1, "y": math.nan, "r": 1}, P2], False,
        "document is not a valid instance: non-finite value in disk "
        "WeightedDisk(center=Point(x=1.0, y=nan), radius=1.0, weight=1.0)",
    ),
    (
        [P0, {"x": 1, "y": 3, "r": math.inf}, P2], True,
        "document is not a valid instance: non-finite value in disk "
        "WeightedDisk(center=Point(x=1.0, y=3.0), radius=inf, weight=1.0)",
    ),
    (
        [P0, {"x": 1, "y": 3, "r": -0.5}, P2], False,
        "document is not a valid instance: negative radius in disk "
        "WeightedDisk(center=Point(x=1.0, y=3.0), radius=-0.5, weight=1.0)",
    ),
    (
        [P0, dict(P1, w=0), P2], True,
        "document is not a valid instance: weight must be positive, got 0.0",
    ),
]


@pytest.mark.parametrize("points, weighted, message", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_documents_keep_their_messages(points, weighted, message):
    text = json.dumps({"schema_version": 1, "points": points})  # NaN, Infinity as literals
    with pytest.raises(BadParams) as info:
        load_instance_document(text).to_instance(weighted=weighted)
    assert type(info.value) is BadParams
    assert str(info.value) == message


def test_zero_weight_is_read_in_unweighted_mode():
    doc = load_instance_document(json.dumps({"schema_version": 1, "points": [P0, dict(P1, w=0), P2]}))
    assert doc.to_instance(weighted=False).n == 3


def test_solution_document_round_trip_and_recompute(t4):
    sol = solve_weighted(t4, 2)
    doc = solution_document(sol, t4, k=2, solver="dp")
    assert doc.verified
    text = doc.to_json()
    back = load_solution_document(text, t4)
    assert (back.mode, back.k, back.size, back.centers) == ("weighted", 2, sol.size, list(sol.centers))
    assert back.verified
    # a tampered flag is recomputed, not believed
    assert load_solution_document(text.replace("true", "false"), t4).verified
    # a non-dominating set is flagged even if the file claims otherwise
    lying = json.loads(text)
    lying["centers"], lying["size"] = [0], 1
    assert not load_solution_document(json.dumps(lying), t4).verified


def test_load_solution_document_checks_the_weight(t4):
    # the stated weight must be the centers' weight, as `diskdom verify` requires
    sol = solve_weighted(t4, 2)
    good = json.loads(solution_document(sol, t4, k=2, solver="dp").to_json())
    assert load_solution_document(json.dumps(good), t4).verified
    for weight in (float("nan"), sol.weight + 1.0, sol.weight - 1e-6):
        text = json.dumps(dict(good, weight=weight))
        assert not load_solution_document(text, t4).verified, weight


def test_load_solution_document_errors(t4):
    sol = solve_weighted(t4, 2)
    base = json.loads(solution_document(sol, t4, k=2, solver="dp").to_json())
    breakers = [
        {"mode": "fast"},
        {"solver": "magic"},
        {"k": True},
        {"k": "two"},
        {"k": 0},
        {"k": -3},
        {"centers": [0, 0], "size": 2},
        {"centers": [99], "size": 1},
        {"centers": "0,2"},
        {"size": 7},
    ]
    for patch in breakers:
        bad = dict(base, **patch)
        with pytest.raises(BadParams):
            load_solution_document(json.dumps(bad), t4)
    # true and 2.0 compare equal to 1 and 2, but a size must be an integer
    for patch in ({"centers": [base["centers"][0]], "size": True}, {"size": 2.0}):
        with pytest.raises(BadParams) as info:
            load_solution_document(json.dumps(dict(base, **patch)), t4)
        assert str(info.value) == f"size {patch['size']!r} does not match centers"
    with pytest.raises(BadParams):
        load_solution_document("{", t4)
    # a dominating set larger than its stated bound loads, but is not verified
    assert load_solution_document(json.dumps(base), t4).verified
    assert not load_solution_document(json.dumps(dict(base, k=1)), t4).verified
    assert load_solution_document(json.dumps(dict(base, k=None)), t4).verified


def test_render_svg_highlights_and_determinism(t4):
    plain = render_svg(t4)
    assert plain.count('class="disk"') == 4
    assert 'class="chosen"' not in plain
    marked = render_svg(t4, [0, 2])
    assert marked.count('class="chosen"') == 2
    assert marked.count('class="disk"') == 2
    assert marked == render_svg(t4, (2, 0))
    assert marked.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in marked


def test_render_svg_solution_object_and_viewport():
    inst = gen_figure1(9).to_instance(weighted=False)
    sol = solve_unweighted(inst)
    svg = render_svg(inst, sol)
    assert svg.count('class="chosen"') == sol.size
    header = svg.splitlines()[1]
    view = header.split('viewBox="')[1].split('"')[0]
    lo_x, lo_y, w, h = (float(v) for v in view.split())
    for d in inst.disks:
        assert lo_x <= d.center.x - d.radius and d.center.x + d.radius <= lo_x + w
