"""Acceptance gate: one test per headline guarantee.

Each test prints a single PASS line with its measured numbers (visible
with -s or in the captured-output section on failure); the assertions
enforce the stated tolerances.
"""

import csv
import random
import time
from pathlib import Path

import numpy as np

import diskdom.unweighted_greedy as ug
from conftest import recording
from diskdom import cli
from diskdom.instance_io import gen_figure1, gen_random
from diskdom.neighbor_index import _TreeNeighborIndex, build_neighbor_index
from diskdom.oracle import (
    brute_force_min,
    check_domination_of_assignment,
    check_line_separable,
    verify,
    voronoi_assignment,
)
from diskdom.solution import Infeasible
from diskdom.unweighted_greedy import farthest_ids, solve_unweighted
from diskdom.weighted_dp import solve_weighted, solve_weighted_all_k, solve_weighted_unbounded
from query_reference import NaiveNeighborIndex, counting_queries, scan_farthest_ids, tail_walks

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))

FAMILIES = ("circle", "ellipse", "perturbed-polygon")
RADIUS_LAWS = ("uniform(0.5,2.5)", "lognormal(0,0.6)", "uniform(2.0,5.0)")

WEIGHT_TOL = 1e-9


def load_corpus(path, *, weighted):
    from diskdom.instance_io import load_instance_document

    return load_instance_document(path.read_text()).to_instance(weighted=weighted)


def test_weighted_optimality_oracle_equivalence():
    instances = 0
    pairs = 0
    infeasible = 0
    for seed in range(300):
        n = 3 + seed % 10
        doc = gen_random(
            n,
            10_000 + seed,
            FAMILIES[seed % 3],
            RADIUS_LAWS[(seed // 3) % 3],
            "uniform(1,10)",
        )
        inst = doc.to_instance()
        instances += 1
        answers = solve_weighted_all_k(inst, n)  # every k from one level build
        for k in range(1, n + 1):
            mine = None if isinstance(answers[k], Infeasible) else answers[k].weight
            try:
                truth = brute_force_min(inst, "weighted", k_cap=k).weight
            except Infeasible:
                truth = None
            assert (mine is None) == (truth is None), (seed, k)
            if mine is None:
                infeasible += 1
            else:
                assert abs(mine - truth) <= WEIGHT_TOL, (seed, k, mine, truth)
            pairs += 1
    assert instances >= 300
    print(
        f"PASS weighted-optimality: {instances} instances, {pairs} (instance,k) "
        f"pairs, {infeasible} matching infeasible verdicts, weights within 1e-9"
    )


def test_tangent_chain_solves_match_brute_force():
    """Nominal tangencies: both solvers agree with brute force and verify."""
    from conftest import tangent_chain_instances

    instances = 0
    for seed, inst in tangent_chain_instances():
        got = solve_unweighted(inst)
        assert verify(inst, inst.to_canonical(got.centers)), seed
        assert got.size == brute_force_min(inst, "unweighted").size, seed
        got = solve_weighted_unbounded(inst)
        assert verify(inst, inst.to_canonical(got.centers)), seed
        truth = brute_force_min(inst, "weighted").weight
        assert abs(got.weight - truth) <= WEIGHT_TOL, (seed, got.weight, truth)
        instances += 1
    assert instances >= 30
    print(
        f"PASS tangent-chains: {instances} instances, unweighted sizes exact, "
        f"weights within 1e-9, every solution verified"
    )


def test_unweighted_optimality_oracle_equivalence():
    instances = 0
    figure_instances = 0
    for seed in range(280):
        n = 3 + seed % 12
        doc = gen_random(
            n, 20_000 + seed, FAMILIES[seed % 3], RADIUS_LAWS[(seed // 3) % 3], "unit"
        )
        inst = doc.to_instance(weighted=False)
        assert solve_unweighted(inst).size == brute_force_min(inst, "unweighted").size, seed
        instances += 1
    for i in range(20):
        n = 5 + i % 9
        inst = gen_figure1(n).to_instance(weighted=False)
        got = solve_unweighted(inst)
        ref = brute_force_min(inst, "unweighted")
        assert got.size == ref.size == (n - 1) // 2 + 1, n
        big = max(range(inst.n), key=lambda c: inst.disks[c].radius)
        assert big in inst.to_canonical(ref.centers)
        instances += 1
        figure_instances += 1
    assert instances >= 300 and figure_instances >= 20
    print(
        f"PASS unweighted-optimality: {instances} instances "
        f"({figure_instances} figure-style), sizes exact"
    )


def _random_runs(rng, n, count):
    """(start, length, value, owner) runs; coarse values force ties."""
    return [
        (rng.randrange(n), rng.randint(1, n), round(rng.uniform(1, 50), 1), rng.randrange(n))
        for _ in range(count)
    ]


CHAIN_KINDS = ((True, True), (True, False), (False, True), (False, False))  # (bucket, ccw)


def test_query_structure_equivalence():
    from weighted_reference import chain_of, level_of_runs, ring

    rng = random.Random(31337)
    min_trials = far_trials = 0
    for _ in range(100):
        n = rng.randint(3, 80)
        runs = _random_runs(rng, n, rng.randint(1, 60))
        # cheapest enclosing runs: staircase chains against scan-built chains
        inst = ring(n)
        fast_min = level_of_runs(inst, runs)
        slow_min = level_of_runs(inst, runs, indexed=False)  # the ScanLevelTable twin
        # farthest queries take partial runs: a full one is cut to n - 1 disks
        starts = np.array([s for s, _, _, _ in runs], np.int64)
        lengths = np.array([min(k, n - 1) for _, k, _, _ in runs], np.int64)
        fast_far = [farthest_ids(starts, lengths, n, ccw=ccw) for ccw in (True, False)]
        slow_far = [scan_farthest_ids(starts, lengths, n, ccw=ccw) for ccw in (True, False)]
        for _ in range(100):
            bucket, ccw = rng.choice(CHAIN_KINDS)
            anchor = rng.randrange(n)
            a = chain_of(fast_min, anchor, bucket=bucket, ccw=ccw)
            b = chain_of(slow_min, anchor, bucket=bucket, ccw=ccw)
            assert a.tolist() == b.tolist(), (n, bucket, ccw, anchor)
            min_trials += 1
        for _ in range(100):
            j = rng.randrange(n)
            assert fast_far[0][j] == slow_far[0][j], (n, j)  # ccw
            assert fast_far[1][j] == slow_far[1][j], (n, j)  # cw
            far_trials += 1
    assert min_trials >= 10_000 and far_trials >= 10_000

    sweeps = batched = 0
    sizes = (10, 25, 50, 100, 150, 200)
    laws = ("uniform(0.3,1.2)", "uniform(0.5,2.5)", "uniform(4.0,9.0)")
    for i in range(50):
        n = sizes[i % len(sizes)]
        law = laws[i % len(laws)] if n <= 50 else laws[i % 2]
        inst = gen_random(n, 30_000 + i, FAMILIES[i % 3], law, "unit").to_instance()
        tree = _TreeNeighborIndex(inst)
        naive = NaiveNeighborIndex(inst)
        expected = {True: [], False: []}  # naive answers by direction, -1 where i meets all
        for a_ in range(n):
            for b_ in range(n):
                for ccw in (True, False):
                    expected[ccw].append(naive.walk(a_, b_, ccw=ccw))
                    sweeps += 1
        # every (i, j) pair at once through the tree walk
        i_all, j_all = np.divmod(np.arange(n * n), n)
        for ccw, hits in expected.items():
            assert tree.first_disjoint(i_all, j_all, ccw=ccw).tolist() == hits, (i, ccw)
            batched += n * n
    print(
        f"PASS query-structures: {min_trials} min-enclosing and {far_trials} "
        f"farthest trials, {sweeps} swept and {batched} batched neighbor queries, "
        f"zero mismatches"
    )


def test_solver_invariant_suite():
    checked = 0
    for path in CORPUS:
        inst_u = load_corpus(path, weighted=False)
        # bucket growth bound, checked on every level the validated solve builds
        with recording(ug, "GreedyLevel") as levels:
            sol = solve_unweighted(inst_u, check_invariants=True)
        assert verify(inst_u, inst_u.to_canonical(sol.centers)), path.name
        for level in levels:
            sizes = np.bincount(level.owners, minlength=level.n)
            assert sizes.max() <= 2 + max(0, level.level - 2), (path.name, level.level)
        inst_w = load_corpus(path, weighted=True)
        for k in (sol.size, inst_w.n):
            got = solve_weighted(inst_w, k, check_invariants=True)
            assert verify(inst_w, inst_w.to_canonical(got.centers)), (path.name, k)
        unbounded = solve_weighted_unbounded(inst_w, check_invariants=True)
        assert verify(inst_w, inst_w.to_canonical(unbounded.centers)), path.name
        checked += 1
    assert checked == len(CORPUS) and checked >= 8
    print(
        f"PASS invariant-suite: {checked} corpus instances solved with "
        f"level checks on; all solutions verified; bucket bound 2+max(0,t-2) held"
    )


def test_structural_diagnostics():
    separable = 0
    for seed in range(200):
        n = 3 + seed % 10
        law = RADIUS_LAWS[seed % 3]
        inst = gen_random(n, 40_000 + seed, FAMILIES[seed % 3], law, "unit").to_instance(
            weighted=False
        )
        ref = brute_force_min(inst, "unweighted")
        chosen = inst.to_canonical(ref.centers)
        asg = voronoi_assignment(inst, chosen)
        assert check_domination_of_assignment(inst, asg), seed
        assert check_line_separable(inst, asg) == "separable", seed
        separable += 1
    print(
        f"PASS structural-diagnostics: 200 optima; domination always true; "
        f"{separable} separable, 0 crossed"
    )


def test_scaling_smoke(tmp_path):
    inst = gen_random(5000, 555, "circle", "uniform(4.5,7.5)", "unit").to_instance(
        weighted=False
    )
    t0 = time.perf_counter()
    sol = solve_unweighted(inst)
    big_elapsed = time.perf_counter() - t0
    assert sol.size <= 8 and big_elapsed < 10.0

    inst_w = gen_random(60, 556, "circle", "uniform(2.0,6.0)", "uniform(1,10)").to_instance()
    t0 = time.perf_counter()
    solve_weighted(inst_w, 6)
    med_elapsed = time.perf_counter() - t0
    assert med_elapsed < 60.0

    out = tmp_path / "bench.csv"
    code = cli.main(
        ["bench", "--sizes", "30,60,120", "--repeats", "3", "--k", "6",
         "--radius-law", "uniform(2.0,6.0)", "--csv", str(out)]
    )
    assert code == 0
    with out.open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["solver"] == "dp"]
    millis = {int(r["n"]): float(r["millis"]) for r in rows}
    ratios = [millis[60] / millis[30], millis[120] / millis[60]]
    assert all(r <= 12.0 for r in ratios), ratios
    print(
        f"PASS scaling: unweighted n=5000 in {big_elapsed:.2f}s (size {sol.size}); "
        f"weighted n=60 k=6 in {med_elapsed:.2f}s; doubling ratios "
        f"{ratios[0]:.1f}, {ratios[1]:.1f} (cap 12)"
    )


def test_unbounded_weighted_solve_stops_at_its_level_cap():
    """n=60 small disks, no size bound: the optimum has 26 disks, so the level
    cap stops the build long before level n."""
    inst = gen_random(60, 7, "circle", "uniform(0.3,1.0)", "uniform(1,10)").to_instance()
    t0 = time.perf_counter()
    sol = solve_weighted_unbounded(inst)
    elapsed = time.perf_counter() - t0
    assert verify(inst, inst.to_canonical(sol.centers))
    assert elapsed < 2.0
    print(f"PASS unbounded-weighted: n=60 in {elapsed:.2f}s, size {sol.size}, "
          f"weight {sol.weight:.6f}")


def test_large_unweighted_solve_builds_no_matrix():
    """n=20000 on the wide law: the tree walks only the 2n dominated-run queries.

    No n x n data is built; every tail query past the dominated runs is
    answered from them or from disk j itself, as the tails counted from
    whole `intersects_row` rows (`query_reference.tail_walks`) say.
    """
    inst = gen_random(20_000, 557, "circle", "uniform(4.5,7.5)", "unit").to_instance(
        weighted=False
    )
    t0 = time.perf_counter()
    with counting_queries() as asked:
        sol = solve_unweighted(inst)
    elapsed = time.perf_counter() - t0
    walks = tail_walks(inst, asked["tails"])
    assert asked["walked"] == 2 * inst.n + walks
    bound = build_neighbor_index(inst).domination_lower_bound()
    assert sol.size == bound and elapsed < 10.0
    assert verify(inst, inst.to_canonical(sol.centers))
    print(
        f"PASS large-unweighted: n=20000 in {elapsed:.2f}s, size {sol.size} = counting "
        f"bound, {asked['walked']} walked queries = 2n + {walks} tails"
    )


def test_cli_determinism(tmp_path, capsys):
    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    outputs = {}
    for round_dir in ("a", "b"):
        base = tmp_path / round_dir
        base.mkdir()
        inst = base / "inst.json"
        sol = base / "sol.json"
        pic = base / "pic.svg"
        bench = base / "bench.csv"
        transcripts = []
        transcripts.append(run(["gen", "--n", "11", "--seed", "9",
                                "--family", "ellipse",
                                "--radius-law", "uniform(1.0,4.0)",
                                "--weight-law", "uniform(1,10)",
                                "--out", str(inst)]))
        transcripts.append(run(["solve", "--in", str(inst), "--out", str(sol)]))
        transcripts.append(run(["verify", "--in", str(inst), "--solution", str(sol)]))
        transcripts.append(run(["oracle", "--in", str(inst), "--weighted",
                                "--k", "8", "--compare"]))
        transcripts.append(run(["plot", "--in", str(inst), "--solution", str(sol),
                                "--out", str(pic)]))
        transcripts.append(run(["bench", "--sizes", "8,16", "--repeats", "1",
                                "--csv", str(bench)]))
        # strip paths from transcripts and millis from the csv before comparing
        text = "\n".join(f"{c}|{o}" for c, o in transcripts).replace(str(base), "@")
        rows = [line.split(",") for line in bench.read_text().splitlines()]
        stripped_csv = [row[:3] + row[4:] for row in rows]
        outputs[round_dir] = (
            text,
            inst.read_bytes(),
            sol.read_bytes(),
            pic.read_bytes(),
            stripped_csv,
        )
    assert outputs["a"] == outputs["b"]
    print("PASS cli-determinism: gen/solve/verify/oracle/plot/bench byte-identical "
          "across runs (bench millis excluded)")
