import math
import random
from pathlib import Path

import numpy as np
import pytest

import diskdom.unweighted_greedy as ug
from conftest import mk_instance, recording, subprocess_env
from diskdom.neighbor_index import _TreeNeighborIndex, build_neighbor_index
from diskdom.oracle import brute_force_min, verify
from diskdom.solution import Infeasible, InvalidK, SolverInvariantError, bidirectional_combos
from diskdom.unweighted_greedy import GreedyLevel, build_level, directional_steps, solve_unweighted
from greedy_reference import farthest_entry
from invariant_reference import Candidate, checked_levels, recording_checks
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


def build_levels(inst, upto, *, check_invariants=False):
    """The neighbor index and levels 1..upto that `solve_unweighted` builds."""
    nbr = NaiveNeighborIndex(inst)
    levels = [None]
    for t in range(1, upto + 1):
        levels.append(build_level(inst, nbr, levels, t, check_invariants=check_invariants))
    return nbr, levels


def step(nbr, levels, i, t, *, ccw):
    """Point i's ccw (or cw) step at level t from `directional_steps`, or None."""
    owners, starts, lengths, values, parents = directional_steps(nbr, levels, t, ccw=ccw)
    rows = np.flatnonzero(owners == i)
    if not len(rows):
        return None
    (row,) = rows
    t1, c1, t2, c2 = parents[row].tolist()
    witnesses = levels[t1].witnesses(c1) | (levels[t2].witnesses(c2) if c2 >= 0 else set())
    return Candidate(int(starts[row]), int(lengths[row]), float(values[row]), witnesses, i, t)


def level_of(inst, t, buckets):
    """A level holding `buckets[i]`, a list of (start, length) runs, for each point i."""
    rows = [(i, s, k) for i, bucket in enumerate(buckets) for s, k in bucket]
    owners, starts, lengths = (np.array([r[c] for r in rows], np.int64) for c in range(3))
    values, parents = np.full(len(rows), float(t)), np.full((len(rows), 4), -1)
    return GreedyLevel(inst, t, [None], starts, lengths, owners, values, parents)


def extreme(level, i, *, ccw):
    """Point i's own candidate reaching farthest from it, ccw or cw: its bucket chain's entry."""
    return farthest_entry(level, i, bucket=True, ccw=ccw)


def test_greedy_ccw_step_t4(t4):
    nbr, levels = build_levels(t4, 1)
    cand = step(nbr, levels, 0, 2, ccw=True)
    assert cand is not None and cand.length == 4 and cand.value == 2
    # the global step picks the run through 2 reaching farthest ccw (owner 3)
    assert cand.witnesses == {0, 3}
    assert verify(t4, cand.witnesses)


def test_greedy_cw_step_t4(t4):
    nbr, levels = build_levels(t4, 1)
    cand = step(nbr, levels, 0, 2, ccw=False)
    assert cand is not None and cand.length == 4
    assert verify(t4, cand.witnesses)


def test_greedy_step_big_disk_short_circuit(big5):
    # the big disk's level-1 run is already full, so the search ends there;
    # a level 2 built anyway holds no step of it, as a full l1 makes none
    nbr, levels = build_levels(big5, 1)
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    assert levels[1].lengths[big] == big5.n and levels[1].cheapest_full() == big
    assert step(nbr, levels, big, 2, ccw=True) is None


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
    nbr, levels = build_levels(inst, 1)
    cand = step(nbr, levels, 0, 2, ccw=True)
    assert cand is not None
    assert sorted(run_of(cand, 5).indices()) == [0, 1]
    assert cand.witnesses == {0, 1}


def test_bidirectional_step_t2_empty(t4):
    # level 2 has no stitched split: every row joins two level-1 rows
    _, levels = build_levels(t4, 2)
    t1, _, t2, _ = levels[2].parents.T
    assert len(t1) and ((t1 == 1) & (t2 == 1)).all()


def test_bidirectional_step_stitches_both_extremes():
    rng = random.Random(9)
    inst = rand_instance(rng, 10, 1.5, 3.5)
    nbr, levels = build_levels(inst, 3)
    n = inst.n
    block = bidirectional_combos(nbr, levels, 3, np.ones(n))  # t=3 has the single split 2
    assert len(block[0]) == n
    for i, s, k, value, parent in zip(*block):
        lx, ly = extreme(levels[2], i, ccw=True), extreme(levels[2], i, ccw=False)
        assert parent.tolist() == [2, lx, 2, ly]
        assert value == 3  # point i's unit weight counted once
        assert (i - s) % n < k  # the run passes through i
    # in level 3, each stitched candidate witnesses with both extremes' witnesses
    level = levels[3]
    stitched = np.flatnonzero((level.parents[:, 0] == 2) & (level.parents[:, 2] == 2))
    assert len(stitched) == n
    for c in stitched:
        i = level.owners[c]
        lx, ly = extreme(levels[2], i, ccw=True), extreme(levels[2], i, ccw=False)
        assert level.witnesses(c) == levels[2].witnesses(lx) | levels[2].witnesses(ly)


def test_bucket_size_bound():
    rng = random.Random(10)
    for _ in range(15):
        inst = rand_instance(rng, rng.randint(3, 14), 0.2, 1.2)
        with recording(ug, "GreedyLevel") as levels:
            solve_unweighted(inst)
        for level in levels:
            sizes = np.bincount(level.owners, minlength=level.n)
            assert sizes.max() <= 2 + max(0, level.level - 2)


def scan_extreme(level, i, *, ccw):
    """The id of the first candidate of point i reaching farthest from i, or -1."""
    n = level.n
    best, best_reach = -1, -1
    for c in np.flatnonzero(level.owners == i):
        s, k = level.starts[c], level.lengths[c]
        if k == n:
            reach = n
        else:
            reach = (s + k - 1 - i) % n if ccw else (i - s) % n
        if reach > best_reach:
            best, best_reach = c, reach
    return best


def assert_extremes_match_scans(level):
    for i in range(level.n):
        for ccw in (True, False):
            assert extreme(level, i, ccw=ccw) == scan_extreme(level, i, ccw=ccw), (i, ccw)


def test_cached_extremes_match_scans():
    # every extreme a level builds, on levels built with the invariant
    # check on, is the bucket scan's first farthest-reaching candidate
    rng = random.Random(11)
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(3, 12))
        _, levels = build_levels(inst, min(4, inst.n), check_invariants=True)
        for level in levels[1:]:
            assert_extremes_match_scans(level)


def test_frozen_extremes_match_scans_on_solved_instances(t4):
    from diskdom import gen_figure1, gen_random

    instances = [t4, gen_figure1(9).to_instance(weighted=False)]
    for n, seed in ((40, 1), (120, 2), (400, 3)):
        doc = gen_random(n, seed, "circle", "uniform(1.0,3.0)", "unit")
        instances.append(doc.to_instance(weighted=False))
    for inst in instances:
        with recording(ug, "GreedyLevel") as levels:
            size = solve_unweighted(inst).size
        assert len(levels) == size
        for level in levels:
            assert_extremes_match_scans(level)
    assert size >= 4  # the n=400 solve has several levels


def test_extreme_reach_ties_go_to_the_earliest_insert(t4):
    # ids: 0 [0, 1] of point 0; 1 [1, 2] and 2 [0, 2] of point 1; 3 and 4
    # full runs of point 2; point 3 has none
    tbl = level_of(t4, 2, [[(0, 2)], [(1, 2), (0, 3)], [(1, 4), (2, 4)], []])
    # both reach 1 ccw from point 1; the earlier candidate wins
    assert extreme(tbl, 1, ccw=True) == 1
    assert extreme(tbl, 1, ccw=False) == 2  # cw reach 1 beats 0
    # full runs reach n both ways; the first full run wins the tie
    assert extreme(tbl, 2, ccw=True) == 3
    assert extreme(tbl, 2, ccw=False) == 3
    assert tbl.cheapest_full() == 3
    assert extreme(tbl, 3, ccw=True) == -1 and extreme(tbl, 3, ccw=False) == -1


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
        for strategy in NEIGHBOR_INDEXES:
            for indexed in (True, False):
                with solvers_using(strategy, indexed):
                    sol = solve_unweighted(inst)
                results.add((sol.size, sol.centers))
        assert len(results) == 1


def test_without_bidirectional_still_reports_only_verified_sets(monkeypatch):
    # the stitched candidates never hurt; dropping them must at worst delay
    # the stop, never produce an invalid or smaller answer
    rng = random.Random(31)
    for _ in range(25):
        inst = rand_instance(rng, rng.randint(3, 12))
        full = solve_unweighted(inst)
        with monkeypatch.context() as mp:
            mp.setattr(ug, "bidirectional_combos", no_combos)
            bare = solve_unweighted(inst)
        assert bare.size >= full.size
        assert verify(inst, inst.to_canonical(bare.centers))


def test_full_run_is_the_extreme_both_ways(t4):
    # a full run reaches n steps either way, past any partial run
    tbl = level_of(t4, 2, [[(3, 3), (0, 4)], [], [], []])  # the full run is id 1
    assert extreme(tbl, 0, ccw=True) == 1 and extreme(tbl, 0, ccw=False) == 1
    assert tbl.cheapest_full() == 1


def test_check_invariants_validates_every_candidate():
    rng = random.Random(23)
    inst = rand_instance(rng, 14, 0.5, 2.0)
    with recording(ug, "GreedyLevel") as levels, recording_checks(ug) as checks:
        checked = solve_unweighted(inst, check_invariants=True)
    assert checked == solve_unweighted(inst)
    seen = [
        (rows.t, o, s, k)
        for rows in checks
        for o, s, k in zip(rows.owners.tolist(), rows.starts.tolist(), rows.lengths.tolist())
    ]
    want = [
        (level.level, o, s, k)
        for level in levels
        for o, s, k in zip(level.owners.tolist(), level.starts.tolist(), level.lengths.tolist())
    ]
    assert len(levels) >= 3 and seen == want


def test_validator_rejects_bad_candidates(t4):
    # the unit square's rows, each broken in one column: another disk's
    # dominated run, a run longer than the owner dominates, a level-2 row
    # joining a row of its own level, and a run that misses its owner
    level1, level2 = checked_levels(t4, ug, 2)
    cases = [
        (level1.broken("owners", 1), "dominated run"),
        (level1.broken("lengths", 4), "dominated run"),
        (level2.broken("parents", (2, 0, 1, 1)), "parent level"),
        (level1.broken("starts", int(level1.nbr.dominated_runs[0][2])), "owner outside its run"),
    ]
    for rows, words in cases:
        with pytest.raises(SolverInvariantError, match=words):
            rows.check()


# --- counting bound, typed invariant errors, integer steps ---------------------


def test_k_cap_is_decided_by_the_search_without_the_counting_bound(monkeypatch):
    """A capped solve stops after level k_cap and never counts neighborhoods (O(n²))."""
    from diskdom import gen_random

    inst = gen_random(300, 300, "circle", "uniform(0.5,1.0)", "unit").to_instance(
        weighted=False
    )
    assert build_neighbor_index(inst).domination_lower_bound() == 15
    opt = solve_unweighted(inst)

    def no_bound(self):
        raise AssertionError("the unweighted search asked for the counting bound")

    monkeypatch.setattr(_TreeNeighborIndex, "domination_lower_bound", no_bound)
    with recording(ug, "GreedyLevel") as built, pytest.raises(Infeasible) as caught:
        solve_unweighted(inst, k_cap=6)
    assert str(caught.value) == "no dominating set of size <= 6" and caught.value.k == 6
    assert [level.level for level in built] == [1, 2, 3, 4, 5, 6]
    with pytest.raises(Infeasible, match=rf"^no dominating set of size <= {opt.size - 1}$"):
        solve_unweighted(inst, k_cap=opt.size - 1)
    assert solve_unweighted(inst, k_cap=opt.size) == opt


def test_counting_bound_agrees_across_strategies():
    rng = random.Random(41)
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(1, 14), 0.2, 2.5)
        bounds = {build(inst).domination_lower_bound() for build in NEIGHBOR_INDEXES.values()}
        assert len(bounds) == 1
        assert bounds.pop() <= brute_force_min(inst, "unweighted").size


def no_steps(nbr, levels, t, *, ccw):
    none = np.empty(0, np.int64)
    return none, none, none, np.empty(0), np.empty((0, 4), np.int64)


def no_combos(nbr, levels, t, weights):
    return no_steps(nbr, levels, t, ccw=True)


def test_no_full_candidate_by_level_n_is_a_typed_error(monkeypatch, t4):
    monkeypatch.setattr(ug, "directional_steps", no_steps)
    monkeypatch.setattr(ug, "bidirectional_combos", no_combos)
    with pytest.raises(SolverInvariantError, match="no full candidate"):
        solve_unweighted(t4)


def test_first_full_candidate_of_wrong_size_is_a_typed_error(monkeypatch, t4):
    def one_witness_full(nbr, levels, t, *, ccw):
        # every point's own level-1 run as both parents, claiming the full circle
        i = np.arange(t4.n)
        parents = np.stack([np.ones_like(i), i, np.ones_like(i), i], axis=1)
        return i, np.zeros_like(i), np.full_like(i, t4.n), np.ones(t4.n), parents

    monkeypatch.setattr(ug, "directional_steps", one_witness_full)
    with pytest.raises(SolverInvariantError, match="witnesses"):
        solve_unweighted(t4)


def test_module_defines_no_candidate_type():
    # candidates stay rows of columns: the module has no candidate class,
    # no validator and no row-to-object method
    assert not [name for name in vars(ug) if "Candidate" in name or "validator" in name]
    assert not hasattr(ug.GreedyLevel, "candidate")


def test_freeze_builds_no_valued_sublists(monkeypatch):
    # the farthest answers of every level a later level reads (all but the
    # last, whose global chains are never asked) are built from two
    # integer arrays, never from per-candidate objects
    builds = []
    sweep = ug.farthest_ids

    def arrays_only(starts, lengths, n, *, ccw):
        assert starts.dtype == lengths.dtype == np.int64
        builds.append(len(starts))
        return sweep(starts, lengths, n, ccw=ccw)

    monkeypatch.setattr(ug, "farthest_ids", arrays_only)
    rng = random.Random(3)
    inst = rand_instance(rng, 12, 0.3, 1.5)
    size = solve_unweighted(inst).size
    assert size == brute_force_min(inst, "unweighted").size
    # one sweep per direction of each level a later level reads
    assert len(builds) == 2 * (size - 1) and builds[:2] == [inst.n] * 2


def test_strategies_and_index_modes_agree_beyond_brute_force():
    from diskdom import gen_random

    for n, seed in ((300, 1), (320, 2), (340, 3), (360, 4), (380, 5), (400, 6)):
        inst = gen_random(n, seed, "circle", "uniform(1.0,3.0)", "unit").to_instance(
            weighted=False
        )
        results = set()
        for strategy in NEIGHBOR_INDEXES:
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

    out = subprocess.run(
        [sys.executable, "-O", "-c", "\n".join(lines)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
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
            "import numpy as np",
            "none = np.empty(0, np.int64)",
            "rows = (none, none, none, np.empty(0), np.empty((0, 4), np.int64))",
            "ug.directional_steps = lambda nbr, levels, t, *, ccw: rows",
            "ug.bidirectional_combos = lambda nbr, levels, t, weights: rows",
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
    # every corruption of the column check, for both solvers, on the ring
    # the corruptions are written for
    from invariant_reference import CORRUPTIONS

    cases = [f"{weighted} {name}" for name in CORRUPTIONS for weighted in (True, False)]
    lines = [
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
        "import numpy as np",
        "import diskdom.unweighted_greedy as ug",
        "from diskdom.geometry import NotConsecutive, union_columns",
        "from diskdom.solution import SolverInvariantError",
        "from invariant_reference import CORRUPTIONS, corrupted",
        "try:",
        "    ug.directional_steps(None, [None], 1, ccw=True)",
        "except SolverInvariantError:",
        "    print('greedy step to level 1')",
        "gap = ((np.array([0, 0]), np.array([1, 1])), (np.array([1, 2]), np.array([1, 1])))",
        "try:",
        "    union_columns(4, *gap)",  # row 1 leaves index 1 uncovered
        "except NotConsecutive as exc:",
        "    print(f'columnar union gap in row {exc.row}')",
        "for name in CORRUPTIONS:",
        "    for weighted in (True, False):",
        "        rows, words = corrupted(name, weighted=weighted)",
        "        try:",
        "            rows.check()",
        "        except SolverInvariantError as exc:",
        "            if words in str(exc):",
        "                print(weighted, name)",
    ]
    raised = _run_optimized(lines).splitlines()
    other = ["columnar union gap in row 1", "greedy step to level 1"]
    assert sorted(raised) == sorted(other + cases)
