import math
import random

import numpy as np
import pytest

from conftest import mk_instance
from diskdom.neighbor_index import build_neighbor_index
from diskdom.oracle import brute_force_min, verify
from diskdom.solution import Infeasible, InvalidK, SolverInvariantError
from diskdom.unweighted_greedy import (
    GreedyCandidate,
    GreedyLevel,
    greedy_bidirectional_step,
    greedy_step,
    make_greedy_validator,
    solve_unweighted,
)
from query_reference import NEIGHBOR_INDEXES, NaiveNeighborIndex, solvers_using
from run_reference import run_of


def rand_instance(rng, n, rlo=0.3, rhi=3.0):
    gaps = [0.15 + rng.random() for _ in range(n)]
    total = sum(gaps)
    a = rng.uniform(0, 2 * math.pi)
    pts = []
    for g in gaps:
        pts.append((10 * math.cos(a), 10 * math.sin(a), rng.uniform(rlo, rhi)))
        a += 2 * math.pi * g / total
    return mk_instance(pts, weighted=False)


def build_levels(inst, upto, *, validator=None):
    nbr = NaiveNeighborIndex(inst)
    levels = [None]
    for t in range(1, upto + 1):
        tbl = GreedyLevel(inst, nbr, t, validator=validator)
        if t == 1:
            for i in range(inst.n):
                tbl.insert(
                    i, GreedyCandidate(*nbr.dominated_run(i), frozenset((i,)), i, 1)
                )
        else:
            for i in range(inst.n):
                c = greedy_step(levels, i, t, ccw=True)
                if c:
                    tbl.insert(i, c)
                c = greedy_step(levels, i, t, ccw=False)
                if c:
                    tbl.insert(i, c)
                for c in greedy_bidirectional_step(levels, i, t):
                    tbl.insert(i, c)
        tbl.freeze()
        levels.append(tbl)
    return levels


def test_greedy_ccw_step_t4(t4):
    levels = build_levels(t4, 1)
    cand = greedy_step(levels, 0, 2, ccw=True)
    assert cand is not None and cand.length == 4
    # the global step picks the run through 2 reaching farthest ccw (owner 3)
    assert cand.witnesses == {0, 3}
    assert verify(t4, cand.witnesses)


def test_greedy_cw_step_t4(t4):
    levels = build_levels(t4, 1)
    cand = greedy_step(levels, 0, 2, ccw=False)
    assert cand is not None and cand.length == 4
    assert verify(t4, cand.witnesses)


def test_greedy_step_big_disk_short_circuit(big5):
    levels = build_levels(big5, 1)
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    cand = greedy_step(levels, big, 2, ccw=True)
    assert cand.length == big5.n and cand.witnesses == {big}


def test_greedy_step_crawls_on_disjoint_disks():
    # disjoint disks: singleton runs everywhere, so a step can only splice
    # the owner's run with its neighbor's
    inst = mk_instance(
        [
            (10 * math.cos(a), 10 * math.sin(a), 0.01)
            for a in [k * 2 * math.pi / 5 for k in range(5)]
        ],
        weighted=False,
    )
    levels = build_levels(inst, 1)
    cand = greedy_step(levels, 0, 2, ccw=True)
    assert cand is not None
    assert sorted(run_of(cand, 5).indices()) == [0, 1]
    assert cand.witnesses == {0, 1}


def test_bidirectional_step_t2_empty(t4):
    levels = build_levels(t4, 1)
    assert greedy_bidirectional_step(levels, 0, 2) == []


def test_bidirectional_step_stitches_both_extremes():
    rng = random.Random(9)
    inst = rand_instance(rng, 10, 1.5, 3.5)
    levels = build_levels(inst, 2)
    n = inst.n
    for i in range(n):
        cands = greedy_bidirectional_step(levels, i, 3)
        assert len(cands) <= 1  # one per split level; t=3 has a single split
        for cand in cands:
            lx = levels[2].extreme(i, ccw=True)
            ly = levels[2].extreme(i, ccw=False)
            assert cand.witnesses == lx.witnesses | ly.witnesses
            assert i in run_of(cand, n)


def test_bucket_size_bound():
    rng = random.Random(10)
    for _ in range(15):
        inst = rand_instance(rng, rng.randint(3, 14), 0.2, 1.2)
        nbr = NaiveNeighborIndex(inst)
        levels = [None]
        t = 0
        while True:
            t += 1
            tbl = GreedyLevel(inst, nbr, t)
            if t == 1:
                for i in range(inst.n):
                    tbl.insert(
                        i, GreedyCandidate(*nbr.dominated_run(i), frozenset((i,)), i, 1)
                    )
            else:
                for i in range(inst.n):
                    for c in (
                        greedy_step(levels, i, t, ccw=True),
                        greedy_step(levels, i, t, ccw=False),
                    ):
                        if c:
                            tbl.insert(i, c)
                    for c in greedy_bidirectional_step(levels, i, t):
                        tbl.insert(i, c)
            for i in range(inst.n):
                assert len(tbl.buckets[i]) <= 2 + max(0, t - 2)
            tbl.freeze()
            levels.append(tbl)
            if tbl.full_candidate is not None or t >= inst.n:
                break


def scan_extreme(level, i, *, ccw):
    """The first candidate of bucket i reaching farthest from i, or None."""
    n = level.n
    best, best_reach = None, -1
    for c in level.buckets[i]:
        if c.length == n:
            reach = n
        else:
            reach = (c.start + c.length - 1 - i) % n if ccw else (i - c.start) % n
        if reach > best_reach:
            best, best_reach = c, reach
    return best


def assert_extremes_match_scans(level):
    for i in range(level.n):
        for ccw in (True, False):
            assert level.extreme(i, ccw=ccw) is scan_extreme(level, i, ccw=ccw), (i, ccw)


def test_cached_extremes_match_scans():
    # every extreme freeze() builds, on levels built with the validator
    # attached, is the bucket scan's first farthest-reaching candidate
    rng = random.Random(11)
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(3, 12))
        levels = build_levels(inst, min(4, inst.n), validator=make_greedy_validator(inst))
        for level in levels[1:]:
            assert_extremes_match_scans(level)


def test_frozen_extremes_match_scans_on_solved_instances(monkeypatch, t4):
    import diskdom.unweighted_greedy as ug
    from diskdom import gen_figure1, gen_random

    frozen = []

    class RecordingLevel(GreedyLevel):
        def freeze(self):
            super().freeze()
            frozen.append(self)

    monkeypatch.setattr(ug, "GreedyLevel", RecordingLevel)
    instances = [t4, gen_figure1(9).to_instance(weighted=False)]
    for n, seed in ((40, 1), (120, 2), (400, 3)):
        doc = gen_random(n, seed, "circle", "uniform(1.0,3.0)", "unit")
        instances.append(doc.to_instance(weighted=False))
    for inst in instances:
        frozen.clear()
        size = solve_unweighted(inst).size
        assert len(frozen) == size
        for level in frozen:
            assert_extremes_match_scans(level)
    assert size >= 4  # the n=400 solve has several levels


def test_extreme_reach_ties_go_to_the_earliest_insert(t4):
    tbl = GreedyLevel(t4, NaiveNeighborIndex(t4), 2)
    tbl.insert(0, GreedyCandidate(0, 2, frozenset((0, 1)), 0, 2))
    first = GreedyCandidate(1, 2, frozenset((1, 2)), 1, 2)  # [1, 2]
    later = GreedyCandidate(0, 3, frozenset((0, 1)), 1, 2)  # [0, 2]
    tbl.insert(1, first)
    tbl.insert(1, later)
    first_full = GreedyCandidate(1, 4, frozenset((2, 3)), 2, 2)
    tbl.insert(2, first_full)
    tbl.insert(2, GreedyCandidate(2, 4, frozenset((2, 0)), 2, 2))
    tbl.freeze()
    # both reach 1 ccw from point 1; the earlier insert wins
    assert tbl.extreme(1, ccw=True) is first
    assert tbl.extreme(1, ccw=False) is later  # cw reach 1 beats 0
    # full runs reach n both ways; the first full run wins the tie
    assert tbl.extreme(2, ccw=True) is first_full
    assert tbl.extreme(2, ccw=False) is first_full
    assert tbl.full_candidate is first_full
    assert tbl.extreme(3, ccw=True) is None and tbl.extreme(3, ccw=False) is None


def test_solve_big_disk(big5):
    sol = solve_unweighted(big5)
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    assert sol.size == 1
    assert big5.to_canonical(sol.centers) == (big,)


def test_solve_t4(t4):
    sol = solve_unweighted(t4)
    assert sol.size == 2
    assert verify(t4, t4.to_canonical(sol.centers))


def test_solve_single():
    inst = mk_instance([(0.0, 0.0, 1.0)], weighted=False)
    sol = solve_unweighted(inst)
    assert sol.size == 1 and sol.centers == (0,)


def test_matches_brute_force():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 13)
        inst = rand_instance(rng, n, 0.2, rng.choice([0.8, 2.0, 3.5]))
        got = solve_unweighted(inst, check_invariants=True)
        ref = brute_force_min(inst, "unweighted")
        assert got.size == ref.size
        assert verify(inst, inst.to_canonical(got.centers))
        assert len(set(got.centers)) == got.size


def test_k_cap():
    rng = random.Random(13)
    inst = rand_instance(rng, 9, 0.1, 0.5)
    opt = brute_force_min(inst, "unweighted").size
    assert opt > 1
    with pytest.raises(Infeasible):
        solve_unweighted(inst, k_cap=opt - 1)
    assert solve_unweighted(inst, k_cap=opt).size == opt
    assert solve_unweighted(inst, k_cap=opt + 50).size == opt


def test_invalid_k_cap(t4):
    for bad in (0, -3, 1.5, True):
        with pytest.raises(InvalidK):
            solve_unweighted(t4, k_cap=bad)


def test_determinism():
    rng = random.Random(5)
    inst = rand_instance(rng, 12)
    assert solve_unweighted(inst) == solve_unweighted(inst)


def test_strategies_and_index_modes_agree():
    rng = random.Random(21)
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(2, 12))
        results = set()
        for strategy in ("naive", "bitset"):
            for indexed in (True, False):
                with solvers_using(strategy, indexed):
                    sol = solve_unweighted(inst)
                results.add((sol.size, sol.centers))
        assert len(results) == 1


def test_without_bidirectional_still_reports_only_verified_sets(monkeypatch):
    # the stitched candidates never hurt; dropping them must at worst delay
    # the stop, never produce an invalid or smaller answer
    import diskdom.unweighted_greedy as ug

    rng = random.Random(31)
    for _ in range(25):
        inst = rand_instance(rng, rng.randint(3, 12))
        full = solve_unweighted(inst)
        with monkeypatch.context() as mp:
            mp.setattr(ug, "greedy_bidirectional_step", lambda levels, i, t: [])
            bare = solve_unweighted(inst)
        assert bare.size >= full.size
        assert verify(inst, inst.to_canonical(bare.centers))


def test_full_run_is_the_extreme_both_ways(t4):
    # a full run reaches n steps either way, past any partial run
    tbl = GreedyLevel(t4, NaiveNeighborIndex(t4), 2)
    partial = GreedyCandidate(3, 3, frozenset((0, 1)), 0, 2)
    full = GreedyCandidate(0, 4, frozenset((0, 2)), 0, 2)
    tbl.insert(0, partial)
    tbl.insert(0, full)
    tbl.freeze()
    assert tbl.extreme(0, ccw=True) is full and tbl.extreme(0, ccw=False) is full
    assert tbl.full_candidate is full


def test_frozen_level_rejects_insert(t4):
    nbr = NaiveNeighborIndex(t4)
    tbl = GreedyLevel(t4, nbr, 1)
    tbl.insert(0, GreedyCandidate(*nbr.dominated_run(0), frozenset((0,)), 0, 1))
    tbl.freeze()
    with pytest.raises(SolverInvariantError, match="frozen"):
        tbl.insert(1, GreedyCandidate(*nbr.dominated_run(1), frozenset((1,)), 1, 1))


def test_validator_rejects_bad_candidates(t4):
    validate = make_greedy_validator(t4)
    nbr = NaiveNeighborIndex(t4)
    validate(GreedyCandidate(*nbr.dominated_run(0), frozenset((0,)), 0, 1))
    with pytest.raises(SolverInvariantError):
        validate(GreedyCandidate(*nbr.dominated_run(0), frozenset((1,)), 1, 1))
    with pytest.raises(SolverInvariantError):
        validate(GreedyCandidate(0, 4, frozenset((0,)), 0, 1))
    with pytest.raises(SolverInvariantError):
        validate(GreedyCandidate(*nbr.dominated_run(0), frozenset((0, 1, 2)), 0, 2))
    with pytest.raises(SolverInvariantError):
        validate(GreedyCandidate(*nbr.dominated_run(2), frozenset((0,)), 0, 1))


# --- counting bound, typed invariant errors, integer steps ---------------------


def test_k_cap_below_counting_bound_stops_after_level_one(monkeypatch):
    from diskdom import gen_random
    import diskdom.unweighted_greedy as ug

    inst = gen_random(300, 300, "circle", "uniform(0.5,1.0)", "unit").to_instance(
        weighted=False
    )
    assert build_neighbor_index(inst).domination_lower_bound() == 15
    built = []

    class CountingLevel(GreedyLevel):
        def __init__(self, *args, **kwargs):
            built.append(args[2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ug, "GreedyLevel", CountingLevel)
    with pytest.raises(Infeasible):
        solve_unweighted(inst, k_cap=6)
    assert built == [1]


def test_counting_bound_agrees_across_strategies():
    rng = random.Random(41)
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(1, 14), 0.2, 2.5)
        bounds = {build(inst).domination_lower_bound() for build in NEIGHBOR_INDEXES.values()}
        assert len(bounds) == 1
        assert bounds.pop() <= brute_force_min(inst, "unweighted").size


def test_no_full_candidate_by_level_n_is_a_typed_error(monkeypatch, t4):
    import diskdom.unweighted_greedy as ug

    monkeypatch.setattr(ug, "greedy_step", lambda levels, i, t, *, ccw: None)
    monkeypatch.setattr(ug, "greedy_bidirectional_step", lambda levels, i, t: [])
    with pytest.raises(SolverInvariantError, match="no full candidate"):
        solve_unweighted(t4)


def test_first_full_candidate_of_wrong_size_is_a_typed_error(monkeypatch, t4):
    import diskdom.unweighted_greedy as ug

    def one_witness_full(levels, i, t, *, ccw):
        return GreedyCandidate(0, t4.n, frozenset((i,)), i, t)

    monkeypatch.setattr(ug, "greedy_step", one_witness_full)
    with pytest.raises(SolverInvariantError, match="witnesses"):
        solve_unweighted(t4)


def test_steps_build_only_the_winning_candidate(monkeypatch):
    import diskdom.unweighted_greedy as ug

    rng = random.Random(17)
    inst = rand_instance(rng, 14, 0.5, 2.0)
    levels = build_levels(inst, 3)
    built = []

    def counting(*args):
        built.append(args)
        return GreedyCandidate(*args)

    monkeypatch.setattr(ug, "GreedyCandidate", counting)
    for i in range(inst.n):
        for ccw in (True, False):
            built.clear()
            cand = greedy_step(levels, i, 4, ccw=ccw)
            assert len(built) == (cand is not None)


def test_freeze_builds_no_valued_sublists(monkeypatch):
    # the farthest answers of every level are built from two integer
    # arrays, never from per-candidate objects
    import diskdom.unweighted_greedy as ug

    builds = []
    sweep = ug.farthest_ids

    def arrays_only(starts, lengths, n):
        assert starts.dtype == lengths.dtype == np.int64
        builds.append(len(starts))
        return sweep(starts, lengths, n)

    monkeypatch.setattr(ug, "farthest_ids", arrays_only)
    rng = random.Random(3)
    inst = rand_instance(rng, 12, 0.3, 1.5)
    size = solve_unweighted(inst).size
    assert size == brute_force_min(inst, "unweighted").size
    assert len(builds) == size and builds[0] == inst.n


def test_strategies_and_index_modes_agree_beyond_brute_force():
    from diskdom import gen_random

    for n, seed in ((300, 1), (320, 2), (340, 3), (360, 4), (380, 5), (400, 6)):
        inst = gen_random(n, seed, "circle", "uniform(1.0,3.0)", "unit").to_instance(
            weighted=False
        )
        results = set()
        for strategy in ("bitset", "naive"):
            for indexed in (True, False):
                with solvers_using(strategy, indexed):
                    results.add(solve_unweighted(inst))
        assert len(results) == 1
        (sol,) = results
        assert verify(inst, inst.to_canonical(sol.centers))


def _run_optimized(lines):
    """Run `lines` under `python -O`, which strips every `assert`; return stdout."""
    import subprocess
    import sys
    from pathlib import Path

    import diskdom

    src = str(Path(diskdom.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-O", "-c", "\n".join(lines)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_invariant_errors_survive_optimized_mode():
    out = _run_optimized(
        [
            "import diskdom.unweighted_greedy as ug",
            "from diskdom import Point, WeightedDisk, canonicalize",
            "from diskdom.solution import SolverInvariantError",
            "ug.greedy_step = lambda levels, i, t, *, ccw: None",
            "ug.greedy_bidirectional_step = lambda levels, i, t: []",
            "pts = [(0, 0), (1, 0), (1, 1), (0, 1)]",
            "inst = canonicalize([WeightedDisk(Point(x, y), 0.6) for x, y in pts])",
            "try:",
            "    ug.solve_unweighted(inst)",
            "except SolverInvariantError:",
            "    print('raised')",
        ]
    )
    assert out.strip() == "raised"


def test_validators_raise_under_optimized_mode():
    # each case breaks exactly one check of one validator on the unit
    # square, where adjacent disks meet and diagonal ones do not
    cases = {
        "weighted owner": "wdp.Candidate(0, 2, 1.0, frozenset((1,)), 0, 1)",
        "weighted count": "wdp.Candidate(0, 2, 2.0, frozenset((0, 1)), 0, 1)",
        "weighted value": "wdp.Candidate(0, 2, 0.5, frozenset((0,)), 0, 1)",
        "weighted cover": "wdp.Candidate(0, 3, 1.0, frozenset((0,)), 0, 1)",
        "greedy owner": "ug.GreedyCandidate(0, 2, frozenset((1,)), 0, 1)",
        "greedy run": "ug.GreedyCandidate(1, 2, frozenset((0,)), 0, 1)",
        "greedy count": "ug.GreedyCandidate(0, 2, frozenset((0, 1)), 0, 1)",
        "greedy cover": "ug.GreedyCandidate(0, 3, frozenset((0,)), 0, 1)",
    }
    lines = [
        "import diskdom.unweighted_greedy as ug",
        "import diskdom.weighted_dp as wdp",
        "from diskdom import Point, WeightedDisk, canonicalize",
        "from diskdom import build_neighbor_index",
        "from diskdom.solution import SolverInvariantError",
        "pts = [(0, 0), (1, 0), (1, 1), (0, 1)]",
        "inst = canonicalize([WeightedDisk(Point(x, y), 0.6) for x, y in pts])",
        "validators = {",
        "    'weighted': wdp.make_validator(inst),",
        "    'greedy': ug.make_greedy_validator(inst),",
        "}",
        "def frozen_weighted():",
        "    table = wdp.init_level_one(inst, build_neighbor_index(inst))",
        "    table.insert(1, table.buckets[1][0])",
        "def frozen_greedy():",
        "    nbr = build_neighbor_index(inst)",
        "    level = ug.GreedyLevel(inst, nbr, 1)",
        "    level.insert(0, ug.GreedyCandidate(*nbr.dominated_run(0), frozenset((0,)), 0, 1))",
        "    level.freeze()",
        "    level.insert(1, ug.GreedyCandidate(*nbr.dominated_run(1), frozenset((1,)), 1, 1))",
        "def unfrozen_weighted():",
        "    return wdp.LevelTable(inst, build_neighbor_index(inst), 1)",
        "def unfrozen_greedy():",
        "    return ug.GreedyLevel(inst, build_neighbor_index(inst), 1)",
        "checks = {",
        "    'frozen weighted': frozen_weighted,",
        "    'frozen greedy': frozen_greedy,",
        "    'unfrozen weighted candidates': lambda: unfrozen_weighted().all_candidates(),",
        "    'unfrozen weighted bucket chain':",
        "        lambda: unfrozen_weighted().bucket_chain(0, ccw=True),",
        "    'unfrozen weighted global chain':",
        "        lambda: unfrozen_weighted().global_chain(0, ccw=False),",
        "    'unfrozen greedy candidates': lambda: unfrozen_greedy().all_candidates(),",
        "    'unfrozen greedy extreme': lambda: unfrozen_greedy().extreme(0, ccw=True),",
        "    'greedy step to level 1': lambda: ug.greedy_step([None], 0, 1, ccw=True),",
        "}",
    ]
    for name, cand in cases.items():
        lines.append(f"checks[{name!r}] = lambda: validators[{name.split()[0]!r}]({cand})")
    lines += [
        "for name, check in checks.items():",
        "    try:",
        "        check()",
        "    except SolverInvariantError:",
        "        print(name)",
    ]
    raised = _run_optimized(lines).splitlines()
    reads = [
        "unfrozen weighted candidates",
        "unfrozen weighted bucket chain",
        "unfrozen weighted global chain",
        "unfrozen greedy candidates",
        "unfrozen greedy extreme",
        "greedy step to level 1",
    ]
    expected = ["frozen weighted", "frozen greedy", *reads, *cases]
    assert sorted(raised) == sorted(expected)
