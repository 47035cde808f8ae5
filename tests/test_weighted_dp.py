import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import diskdom.weighted_dp as wdp
from diskdom import gen_random
from conftest import T4_POINTS, mk_instance, recording
from diskdom.geometry import union_columns
from diskdom.neighbor_index import build_neighbor_index
from diskdom.oracle import brute_force_min, verify
from diskdom.solution import VALUE_SLACK, Infeasible, InvalidK, SolverInvariantError
from diskdom.weighted_dp import (
    build_level,
    keep_rows,
    run_keys,
    solve_weighted,
    solve_weighted_all_k,
    solve_weighted_unbounded,
)
from invariant_reference import candidate_of, checked_levels, recording_checks
from query_reference import NEIGHBOR_INDEXES, NaiveNeighborIndex, solvers_using
from run_reference import run_of
from weighted_reference import (
    bidirectional_processing,
    chain_of,
    cheapest_below,
    copying_full_l1,
    directional_processing,
    keep_runs,
    unpruned_answers,
)


def ccw_processing(nbr, levels, i, j, t):
    return directional_processing(nbr, levels, i, j, t, ccw=True)


def cw_processing(nbr, levels, i, j, t):
    return directional_processing(nbr, levels, i, j, t, ccw=False)


def rand_instance(rng, n, *, spread=(0.3, 3.0)):
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        if n == 1 or all(
            (angles[(i + 1) % n] - angles[i]) % (2 * math.pi) >= 1e-3 for i in range(n)
        ):
            break
    return mk_instance(
        [
            (
                10 * math.cos(a),
                10 * math.sin(a),
                rng.uniform(*spread),
                rng.uniform(0.1, 5.0),
            )
            for a in angles
        ]
    )


def bucket(level, i):
    """Point i's candidates in id order, as `Candidate`s."""
    return [candidate_of(level, c) for c in np.flatnonzero(level.owners == i).tolist()]


COLUMNS = ("starts", "lengths", "owners", "values", "parents")


def assert_same_level(a, b):
    """Same ids, runs, owners, values (bit for bit), parent rows and witness sets."""
    for column in COLUMNS:
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and np.array_equal(x, y), column
    assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
    assert [a.witnesses(c) for c in range(len(a.starts))] == [
        b.witnesses(c) for c in range(len(b.starts))
    ]


def build_levels(inst, upto=1, strategy="naive", indexed=True):
    """The neighbor index and levels 1..upto that `solve_weighted` builds.

    `indexed=False` builds the levels as the scan twin.
    """
    with solvers_using(strategy, indexed):
        nbr = wdp.build_neighbor_index(inst)
        levels = [None]
        for t in range(1, upto + 1):
            levels.append(build_level(inst, nbr, levels, t))
    return nbr, levels


CHAIN_KINDS = ((True, True), (True, False), (False, True), (False, False))  # (bucket, ccw)


def chain_instances():
    """Unit-weight instances (value ties everywhere), some with a giant disk."""
    rng = random.Random(4242)
    for trial in range(12):
        n = rng.randint(4, 11)
        inst = rand_instance(rng, n, spread=(0.8, 4.0))
        disks = [(d.center.x, d.center.y, d.radius, 1.0) for d in inst.disks]
        if trial % 3 == 0:
            # big5-style: one disk reaches everything, so level 1 already
            # holds a full run and every later level holds several
            x, y, _, w = disks[0]
            disks[0] = (x, y, 100.0, w)
        yield mk_instance(disks)


@pytest.mark.parametrize("inst", list(chain_instances()))
def test_staircase_chains_match_scan_chains(inst):
    k = min(inst.n, 5)
    _, fast = build_levels(inst, upto=k, strategy="tree")
    _, slow = build_levels(inst, upto=k, strategy="tree", indexed=False)
    for t in range(1, k + 1):
        assert_same_level(fast[t], slow[t])
        for anchor in range(inst.n):
            for bucket, ccw in CHAIN_KINDS:
                got = chain_of(fast[t], anchor, bucket=bucket, ccw=ccw)
                want = chain_of(slow[t], anchor, bucket=bucket, ccw=ccw)
                assert got.tolist() == want.tolist(), (t, anchor, bucket, ccw)


def test_big5_chains_end_in_full_runs(big5):
    _, levels = build_levels(big5, upto=3, strategy="tree")
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    n = big5.n
    chain = chain_of(levels[1], big, bucket=True, ccw=True)
    assert (levels[1].lengths[chain] == n).tolist() == [True]
    for t in (2, 3):
        # the big disk's full level-1 run makes no combination: its bucket stays empty
        assert big not in levels[t].owners.tolist()
        for anchor in range(n):
            for bucket, ccw in CHAIN_KINDS:
                if bucket and anchor == big:
                    continue
                # a full run ends the chain, at level t or, where level t's full
                # row is dropped as a lower level holds it, at a lower level >= 2
                ends = []
                for tp in range(2, t + 1):
                    full = levels[tp].lengths[chain_of(levels[tp], anchor, bucket=bucket,
                                                       ccw=ccw)] == n
                    assert not full[:-1].any()
                    ends.append(bool(len(full) and full[-1]))
                assert any(ends), (t, anchor, bucket, ccw)


def test_level_one_t4(t4):
    _, levels = build_levels(t4)
    table = levels[1]
    for i in range(4):
        (cand,) = bucket(table, i)
        assert cand.witnesses == {i}
        assert cand.value == 1.0
        assert cand.level == 1 and cand.owner == i
        assert sorted(run_of(cand, 4).indices()) == sorted({(i - 1) % 4, i, (i + 1) % 4})


def test_level_one_big_disk(big5):
    table = build_level(big5, NaiveNeighborIndex(big5), [None], 1)
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    (cand,) = bucket(table, big)
    assert (cand.start, cand.length) == (0, big5.n)


def test_level_one_single():
    inst = mk_instance([(0.0, 0.0, 1.0, 2.5)])
    table = build_level(inst, NaiveNeighborIndex(inst), [None], 1)
    (cand,) = bucket(table, 0)
    assert (cand.start, cand.length) == (0, 1) and cand.value == 2.5


def test_ccw_processing_t4_full(t4):
    nbr, levels = build_levels(t4)
    cand = ccw_processing(nbr, levels, 0, 2, 2)
    assert cand is not None
    assert cand.length == 4
    assert cand.value == 2.0
    assert cand.owner == 0 and 0 in cand.witnesses
    assert len(cand.witnesses) == 2
    assert verify(t4, cand.witnesses)


def test_cw_processing_t4_full(t4):
    nbr, levels = build_levels(t4)
    cand = cw_processing(nbr, levels, 0, 2, 2)
    assert cand is not None and cand.length == 4 and cand.value == 2.0
    assert verify(t4, cand.witnesses)


def test_ccw_processing_all_skipped():
    # six pairwise-disjoint disks: every level-1 run is a singleton, so the
    # global query past the first step never finds an enclosing run
    inst = mk_instance(
        [
            (10 * math.cos(a), 10 * math.sin(a), 0.01, 1.0)
            for a in [k * 2 * math.pi / 6 for k in range(6)]
        ]
    )
    nbr, levels = build_levels(inst)
    assert ccw_processing(nbr, levels, 0, 3, 2) is None
    assert cw_processing(nbr, levels, 0, 3, 2) is None
    # the immediate neighbour is reachable, though
    cand = ccw_processing(nbr, levels, 0, 1, 2)
    assert cand is not None and sorted(run_of(cand, 6).indices()) == [0, 1]


def test_ccw_processing_big_disk_short_circuit(big5):
    nbr, levels = build_levels(big5)
    big = max(range(big5.n), key=lambda i: big5.disks[i].radius)
    w_big = big5.disks[big].weight
    cand = ccw_processing(nbr, levels, big, (big + 2) % 5, 2)
    assert cand is not None and cand.length == 5
    assert cand.value == w_big and cand.witnesses == {big}


def test_bidirectional_t2_empty_range(t4):
    nbr, levels = build_levels(t4)
    assert bidirectional_processing(nbr, levels, 0, 1, 3, 2) is None


def test_bidirectional_counts_owner_once():
    rng = random.Random(77)
    inst = rand_instance(rng, 9, spread=(1.5, 4.0))
    nbr, levels = build_levels(inst, upto=2)
    n = inst.n
    for i in range(n):
        for x in range(n):
            for y in range(n):
                if x == i or y == i:
                    continue
                cand = bidirectional_processing(nbr, levels, i, x, y, 3)
                if cand is None:
                    continue
                assert i in cand.witnesses
                total = math.fsum(
                    inst.disks[w].weight for w in sorted(cand.witnesses)
                )
                assert total <= cand.value + 1e-9


def oracle_instances():
    """t4, big5 and the six disjoint disks of the tests above, plus random ones."""
    def ring(n):
        angles = [2 * math.pi * k / n for k in range(n)]
        return [(10 * math.cos(a), 10 * math.sin(a)) for a in angles]

    yield mk_instance(T4_POINTS)
    yield mk_instance([(x, y, 100.0 if k == 0 else 0.5) for k, (x, y) in enumerate(ring(5))])
    yield mk_instance([(x, y, 0.01) for x, y in ring(6)])
    rng = random.Random(77)
    yield rand_instance(rng, 9, spread=(1.5, 4.0))
    for n in (6, 7, 8):
        yield rand_instance(rng, n, spread=(0.5, 3.0))


def holds_as_good(levels, t, i, cand):
    """Bucket i of level t or of a lower level has a run containing cand's at no greater value.

    A lower level may hold it instead: the solver drops a level-t row whose
    run a lower level holds at a value no larger, and the literal step
    copies a full l1 up as a candidate by itself, which the solver leaves
    out, as that l1 is already a full row of i.
    """
    n = levels[1].n
    return any(
        run_of(c, n).contains_sub(run_of(cand, n)) and c.value <= cand.value
        for table in levels[1 : t + 1]
        for c in bucket(table, i)
    )


@pytest.mark.parametrize("inst", list(oracle_instances()))
def test_chain_tables_hold_every_processing_candidate(inst):
    n = inst.n
    k = min(n, 4)
    for indexed in (True, False):
        nbr, levels = build_levels(inst, upto=k, strategy="tree", indexed=indexed)
        checked = 0
        for t in range(2, k + 1):
            for i in range(n):
                for j in range(n):
                    for ccw in (True, False):
                        cand = directional_processing(nbr, levels, i, j, t, ccw=ccw)
                        if cand is not None:
                            assert holds_as_good(levels, t, i, cand), (t, i, j, ccw)
                            checked += 1
                for x in range(n):
                    for y in range(n):
                        if i in (x, y):
                            continue
                        cand = bidirectional_processing(nbr, levels, i, x, y, t)
                        if cand is not None:
                            assert holds_as_good(levels, t, i, cand), (t, i, x, y)
                            checked += 1
        assert checked > 0


def test_solve_t4_k2(t4):
    sol = solve_weighted(t4, 2)
    assert sol.weight == 2.0 and sol.size == 2
    assert verify(t4, t4.to_canonical(sol.centers))


def test_solve_t4_k1_infeasible(t4):
    with pytest.raises(Infeasible):
        solve_weighted(t4, 1)


def test_solve_single():
    inst = mk_instance([(0.0, 0.0, 1.0, 2.5)])
    sol = solve_weighted(inst, 1)
    assert sol.centers == (0,) and sol.weight == 2.5


def test_solve_unbounded(t4):
    sol = solve_weighted_unbounded(t4)
    assert sol.weight == 2.0
    inst = mk_instance([(0.0, 0.0, 1.0, 2.5)])
    assert solve_weighted_unbounded(inst).weight == 2.5


def test_invalid_k(t4):
    for bad in (0, -1, 5, 2.5, True, "2"):
        with pytest.raises(InvalidK):
            solve_weighted(t4, bad)


def test_matches_brute_force_all_k():
    rng = random.Random(501)
    for _ in range(20):
        n = rng.randint(1, 9)
        inst = rand_instance(rng, n)
        for k in range(1, n + 1):
            try:
                got = solve_weighted(inst, k, check_invariants=True).weight
            except Infeasible:
                got = None
            try:
                ref = brute_force_min(inst, "weighted", k_cap=k).weight
            except Infeasible:
                ref = None
            assert (got is None) == (ref is None)
            if got is not None:
                assert got == pytest.approx(ref, abs=1e-9)


def test_extraction_monotone_in_k():
    rng = random.Random(321)
    for _ in range(10):
        n = rng.randint(3, 9)
        inst = rand_instance(rng, n, spread=(1.0, 4.0))
        prev = None
        for k in range(1, n + 1):
            try:
                w = solve_weighted(inst, k).weight
            except Infeasible:
                assert prev is None
                continue
            if prev is not None:
                assert w <= prev + 1e-12
            prev = w


def test_solver_flags_do_not_change_weights():
    rng = random.Random(888)
    for _ in range(8):
        n = rng.randint(3, 8)
        inst = rand_instance(rng, n, spread=(1.0, 4.0))
        k = rng.randint(2, n)
        results = []
        for strategy in NEIGHBOR_INDEXES:
            for indexed in (True, False):
                try:
                    with solvers_using(strategy, indexed):
                        w = solve_weighted(inst, k).weight
                except Infeasible:
                    w = None
                results.append(w)
        first = results[0]
        for w in results[1:]:
            if first is None:
                assert w is None
            else:
                assert w == pytest.approx(first, abs=1e-12)


def test_determinism(t4):
    rng = random.Random(13)
    inst = rand_instance(rng, 10, spread=(1.0, 4.0))
    a = solve_weighted(inst, 5)
    b = solve_weighted(inst, 5)
    assert a == b


def test_solution_reports_original_indices():
    # shuffle the square's corners; centers must refer to input positions
    order = [2, 0, 3, 1]
    pts = [T4_POINTS[i] for i in order]
    inst = mk_instance(pts)
    sol = solve_weighted(inst, 2)
    assert sol.weight == 2.0
    assert all(0 <= c < 4 for c in sol.centers)
    assert verify(inst, inst.to_canonical(sol.centers))


def test_validator_rejects_bad_candidates(t4):
    # the unit square's rows, each broken in one column: a witness that is
    # not the owner, a run longer than the owner dominates, a value below
    # the owner's weight, and a level-1 row joining another row
    level1, level2 = checked_levels(t4, wdp, 2)
    level1.check()
    level2.check()
    cases = [
        (level2.broken("parents", (1, 1, 1, 0)), "does not own l1"),
        (level1.broken("lengths", 4), "dominated run"),
        (level1.broken("values", 0.5), "owner's weight"),
        (level1.broken("parents", (1, 1, -1, -1)), "has parents"),
    ]
    assert level2.owners[0] == 0
    for rows, words in cases:
        with pytest.raises(SolverInvariantError, match=words):
            rows.check()


NO_RUNS = np.zeros(0, np.int64), np.zeros(0)  # the run table below level 1


def test_insert_keeps_one_candidate_per_run():
    # rows of a ring of 8, tagged by arrival; values tell the copies apart
    n = 8

    def kept(rows):
        """Arrival tags of the rows `keep_rows` keeps, in id order, with nothing below."""
        owners, starts, lengths, values = (np.array(col) for col in zip(*rows))
        return keep_rows(n, owners, starts, lengths, values.astype(np.float64), NO_RUNS)[0].tolist()

    def row(start, length, value, owner=0):
        return owner, start, length, value

    # the second copy of run (1, 3) has an equal value: dropped
    rows = [row(1, 3, 5.0), row(4, 2, 1.0), row(1, 3, 5.0)]
    assert kept(rows) == [0, 1]
    rows.append(row(1, 3, 4.0))  # strictly cheaper: replaces it, in its own arrival place
    assert kept(rows) == [1, 3]
    # full runs from different merges all arrive as (0, n): one key
    merges = (([(6, 3), (0, 6)], 9.0), ([(2, 5), (7, 4)], 9.0), ([(3, 2), (5, 6)], 9.5))
    for parts, value in merges:
        s, k = union_columns(n, *((np.array([ps]), np.array([pk])) for ps, pk in parts))
        rows.append(row(int(s[0]), int(k[0]), value))
    assert kept(rows) == [1, 3, 4]
    rows.append(row(0, 8, 3.0))
    assert kept(rows) == [1, 3, 7]
    # another bucket holding the same run keeps its own copy; ids follow
    # bucket order, then the kept copies' arrival within the bucket
    rows.insert(0, row(1, 3, 0.5, owner=3))
    assert kept(rows) == [2, 4, 8, 0]
    none = np.zeros(0, np.int64)
    keep, runs = keep_rows(n, none, none, none, np.zeros(0), NO_RUNS)
    assert keep.tolist() == [] and all(len(col) == 0 for col in runs)


def run_table(n, runs):
    """A run table (`keep_rows`) as {(owner, start, length): value}, its keys checked sorted."""
    keys, values = runs
    assert (np.diff(keys) > 0).all()
    return {(key // (n + 1) // n, key // (n + 1) % n, key % (n + 1)): value
            for key, value in zip(keys.tolist(), values.tolist())}


@st.composite
def arrivals(draw):
    """A level's combination rows in arrival order, the run table below it and a
    ceiling, as (n, [(owner, start, length, value)], {(owner, start, length): value},
    ceiling).

    A few owners interleave, a few distinct runs (a full one as (0, n))
    arrive in many copies, and values are small integers, so equal-value
    copies are common.  The table holds keys of the same owners and runs,
    some that no row has, at small integer values, so ties with it are
    common too.  The ceiling is none (inf) or one of those integers, so
    some values lie above it and some exactly at it.
    """
    n = draw(st.integers(1, 9))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    run = st.tuples(st.integers(0, n - 1), st.integers(1, n))
    runs = draw(st.lists(run.map(lambda r: (0, n) if r[1] == n else r), min_size=1, max_size=4))
    rows = st.tuples(st.sampled_from(owners), st.sampled_from(runs), st.integers(0, 3))
    key = st.tuples(st.sampled_from(owners), st.sampled_from(runs)).map(lambda k: (k[0], *k[1]))
    below = draw(st.dictionaries(key, st.integers(0, 3).map(float), max_size=8))
    ceiling = draw(st.sampled_from((math.inf, 0.0, 1.0, 2.0)))
    rows = [(o, s, k, float(v)) for o, (s, k), v in draw(st.lists(rows, max_size=80))]
    return n, rows, below, ceiling


@settings(max_examples=300, deadline=None)
@given(arrivals())
def test_keep_rows_is_the_bucket_twin(case):
    # the rows `keep_rows` keeps are, owner by owner, the ones the dict twin
    # keeps of that owner's rows, by arrival tag, and the table it returns is
    # the one below merged with the rows at or below the ceiling, at the
    # lesser value per key
    n, rows, below, ceiling = case
    owners, starts, lengths = (np.array([row[c] for row in rows], np.int64) for c in range(3))
    values = np.array([row[3] for row in rows], np.float64)
    want = []
    for owner in sorted(set(owners.tolist())):
        combos = [(s, k, v, tag) for tag, (o, s, k, v) in enumerate(rows) if o == owner]
        want += [tag for *_, tag in keep_runs(owner, combos, below, ceiling)]
    merged = dict(below)
    for o, s, k, v in rows:
        if v <= ceiling:
            merged[o, s, k] = min(merged.get((o, s, k), math.inf), v)
    keys = sorted(below, key=lambda o_s_k: run_keys(n, *o_s_k))
    table = np.array([run_keys(n, *key) for key in keys], np.int64).reshape(-1)
    keep, runs = keep_rows(n, owners, starts, lengths, values,
                           (table, np.array([below[key] for key in keys], np.float64)), ceiling)
    assert keep.tolist() == want
    assert run_table(n, runs) == merged


class TiesReversed:
    """numpy as `weighted_dp` sees it, with every sort leaving equal keys latest first.

    `argsort` takes no `kind`, and `lexsort` is not there: only plain sorts,
    whose tie order numpy leaves open, may order a level.
    """

    def __init__(self):
        self.sorts = 0

    def __getattr__(self, name):
        if name == "lexsort":
            raise AttributeError(name)
        return getattr(np, name)

    def argsort(self, keys):
        self.sorts += 1
        keys = np.asarray(keys)
        return np.lexsort((-np.arange(len(keys)), keys))


def weighted_levels(inst):
    """Every level of the unbounded solve, its four chain tables, and the all-k answers
    (an Infeasible one as its k)."""
    nbr = build_neighbor_index(inst)
    levels = [None]
    for t in range(1, inst.n + 1):
        levels.append(build_level(inst, nbr, levels, t))
    chains = [level.chains(bucket=b, ccw=c) for level in levels[1:] for b, c in CHAIN_KINDS]
    answers = solve_weighted_all_k(inst, inst.n).values()
    return levels[1:], chains, [a.k if isinstance(a, Infeasible) else a for a in answers]


def test_no_level_depends_on_the_tie_order_of_a_sort(monkeypatch):
    from pathlib import Path

    from diskdom import gen_random
    from diskdom.instance_io import load_instance_document
    from test_level_builder import small_integer_weights

    corpus = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
    instances = [load_instance_document(p.read_text()).to_instance() for p in corpus]
    for seed in range(4):
        doc = gen_random(8 + 4 * seed, 90 + seed, "circle", "uniform(1.0,3.0)", "unit")
        instances.append(small_integer_weights(doc.to_instance(), seed))
    ties = TiesReversed()
    for inst in instances:
        levels, chains, answers = weighted_levels(inst)
        with monkeypatch.context() as mp:
            mp.setattr(wdp, "np", ties)
            got_levels, got_chains, got_answers = weighted_levels(inst)
        assert got_answers == answers
        for got, want in zip(got_levels, levels, strict=True):
            assert_same_level(got, want)
        for got, want in zip(got_chains, chains, strict=True):
            assert all(map(np.array_equal, got, want))
    assert len(instances) == 12 and ties.sorts > 0


def test_equal_value_copies_keep_the_first_witness_set():
    # a regular 7-gon of unit weights: every disk meets its two neighbours
    # only, so many triples dominate at weight 3 and the full run arrives in
    # several equal-value copies; the first copy's witnesses are returned
    n = 7
    angles = [2 * math.pi * k / n for k in range(n)]
    inst = mk_instance([(math.cos(a), math.sin(a), 0.5) for a in angles])
    sol = solve_weighted(inst, 3)
    assert sol.centers == (1, 4, 5) and sol.weight == 3.0
    # a later, equally cheap copy, which must not replace the first
    assert verify(inst, inst.to_canonical((0, 1, 4)))


def combination_count(levels, i, t):
    """How many combinations make point i's level-t bucket, read off the chains."""
    n = levels[1].n
    count = 0
    for ccw in (True, False):
        for tp in range(1, t):
            near = levels[tp]
            for l1 in chain_of(near, i, bucket=True, ccw=ccw).tolist():
                s1, k1 = int(near.starts[l1]), int(near.lengths[l1])
                if k1 < n:  # a full l1 makes no combination
                    anchor = (s1 + k1) % n if ccw else (s1 - 1) % n
                    count += len(chain_of(levels[t - tp], anchor, bucket=False, ccw=ccw))
    for tp in range(2, t):
        xs = chain_of(levels[tp], i, bucket=True, ccw=True)
        count += len(xs) * len(chain_of(levels[t + 1 - tp], i, bucket=True, ccw=False))
    return count


def invariant_instances():
    yield from oracle_instances()
    rng = random.Random(2024)
    for _ in range(8):
        yield rand_instance(rng, rng.randint(4, 12), spread=(0.5, 4.0))


def test_check_invariants_changes_nothing_and_sees_every_combination():
    repeats = 0
    for inst in invariant_instances():
        n = inst.n
        nbr = build_neighbor_index(inst)
        plain, checked = [None], [None]
        for t in range(1, min(n, 5) + 1):
            plain.append(build_level(inst, nbr, plain, t))
            with recording_checks(wdp) as seen:
                checked.append(build_level(inst, nbr, checked, t, check_invariants=True))
            # same ids (bucket order), runs, values, parent rows and witness sets
            assert_same_level(checked[t], plain[t])
            (rows,) = seen
            assert rows.t == t
            every = rows.level()
            for i in range(n):
                got = np.flatnonzero(rows.owners == i).tolist()
                want = 1 if t == 1 else combination_count(plain, i, t)
                assert len(got) == want, (n, t, i)
                assert set(bucket(plain[t], i)) <= {candidate_of(every, c) for c in got}
            # the check also sees the same-run copies the dedup drops
            runs = set(zip(rows.owners.tolist(), rows.starts.tolist(), rows.lengths.tolist()))
            repeats += len(rows.owners) - len(runs)
    assert repeats > 0


def test_module_defines_no_candidate_type():
    # combinations stay rows of columns: the module has no candidate class,
    # no validator and no row-to-object method
    assert not [name for name in vars(wdp) if "Candidate" in name or "validator" in name]
    assert not hasattr(wdp.LevelTable, "candidate")


def test_all_k_answers_match_single_solves():
    rng = random.Random(4040)
    infeasible = 0
    for _ in range(30):
        n = rng.randint(1, 12)
        inst = rand_instance(rng, n, spread=(0.5, 4.0))
        answers = solve_weighted_all_k(inst, n)
        assert sorted(answers) == list(range(1, n + 1))
        for k, answer in answers.items():
            if isinstance(answer, Infeasible):
                infeasible += 1
                with pytest.raises(Infeasible):
                    solve_weighted(inst, k)
            else:
                assert solve_weighted(inst, k) == answer
    assert infeasible > 0


def test_k_below_counting_bound_stops_after_level_one():
    from diskdom import gen_random

    inst = gen_random(300, 300, "circle", "uniform(0.5,1.0)", "unit").to_instance()
    assert build_neighbor_index(inst).domination_lower_bound() == 15
    with recording(wdp, "LevelTable") as built, pytest.raises(Infeasible):
        solve_weighted(inst, 6)
    assert [table.level for table in built] == [1]
    with recording(wdp, "LevelTable") as built:
        answers = solve_weighted_all_k(inst, 6)
    assert [table.level for table in built] == [1]
    assert all(isinstance(answers[k], Infeasible) for k in range(1, 7))


def hub_ring(n, hub_weight, ring_weight):
    """Disk 0 meets every disk; disks 1..n-1 are small, meeting only disk 0."""
    angles = [2 * math.pi * k / n for k in range(n)]
    return mk_instance([
        (10 * math.cos(a), 10 * math.sin(a), 100.0 if k == 0 else 0.5,
         hub_weight if k == 0 else ring_weight)
        for k, a in enumerate(angles)
    ])


def counting_builds(monkeypatch):
    """The level t of every `build_level` call made by the solver, in order."""
    built = []

    def counted(instance, nbr, levels, t, **kwargs):
        built.append(t)
        return build_level(instance, nbr, levels, t, **kwargs)

    monkeypatch.setattr(wdp, "build_level", counted)
    return built


def test_level_cap_stops_once_no_larger_set_can_be_cheaper(monkeypatch):
    # the weight-1 hub is a full row at level 1; every other disk weighs 5,
    # so no set of two or more disks is as cheap: K = 1 and one level is built
    built = counting_builds(monkeypatch)
    inst = hub_ring(6, 1.0, 5.0)
    answers = solve_weighted_all_k(inst, inst.n)
    assert built == [1]
    assert sorted(answers) == list(range(1, 7))
    assert all(answers[k] == answers[1] for k in answers)
    assert answers[1].centers == (0,) and answers[1].weight == 1.0


def test_level_cap_builds_every_level_up_to_it(monkeypatch):
    # the weight-10 hub is a full row at level 1, but the five ring disks
    # weigh 1 each, so K = 5: levels 1..k are built for k <= 5, then the
    # ring (weight 5, level 5) caps K at 5, so k = 6 builds no level 6
    built = counting_builds(monkeypatch)
    inst = hub_ring(6, 10.0, 1.0)
    for k in (3, 5):
        built.clear()
        answers = solve_weighted_all_k(inst, k)
        assert built == list(range(1, k + 1)), k
        assert answers[k].weight == (10.0 if k < 5 else 5.0)
    built.clear()
    answers = solve_weighted_all_k(inst, 6)
    assert built == [1, 2, 3, 4, 5]
    assert answers[6] == answers[5] and answers[5].size == 5


def test_the_carried_run_table_holds_each_run_of_the_levels_so_far_at_its_least_value():
    rng = random.Random(4141)
    for _ in range(6):
        inst = rand_instance(rng, rng.randint(5, 12), spread=(0.3, 2.0))
        nbr, levels = build_neighbor_index(inst), [None]
        for t in range(1, inst.n + 1):
            levels.append(build_level(inst, nbr, levels, t))
            assert run_table(inst.n, levels[t].run_table) == cheapest_below(levels, t + 1), t
            # level t took the table over: the level below holds none
            assert t == 1 or levels[t - 1].run_table is None, t


def answer_twin_instances():
    """The corpus, then 250 random instances: n 4-24, three families, four radius laws,
    unit, `uniform(1,10)` and small integer weights."""
    from pathlib import Path

    from diskdom.instance_io import load_instance_document

    corpus = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
    for path in corpus:
        yield load_instance_document(path.read_text()).to_instance()
    for seed in range(250):
        yield random_twin_instance(seed)


def random_twin_instance(seed):
    """Random answer twin `seed`: n 4-24, three families, four radius laws, unit,
    `uniform(1,10)` and small integer weights, each chosen by the seed."""
    from test_level_builder import small_integer_weights

    families = ("circle", "ellipse", "perturbed-polygon")
    laws = ("uniform(0.3,1.0)", "uniform(1.0,3.0)", "uniform(2.0,6.0)", "lognormal(0,0.6)")
    weights = ("unit", "uniform(1,10)", "small integers")[seed % 3]
    doc = gen_random(4 + seed % 21, 70_000 + seed, families[seed % 3], laws[seed // 3 % 4],
                     "uniform(1,10)" if weights == "uniform(1,10)" else "unit")
    inst = doc.to_instance()
    return small_integer_weights(inst, seed) if weights == "small integers" else inst


def answer_key(answer):
    """An answer's centers, weight bits and size, or an Infeasible one's k."""
    if isinstance(answer, Infeasible):
        return answer.k
    return answer.centers, answer.weight.hex(), answer.size


def test_answers_match_the_unpruned_build():
    # the cross-level prune and the level cap change no answer: centers and
    # weight bits equal those of every level 1..n built without either
    capped = 0
    for inst in answer_twin_instances():
        with recording(wdp, "LevelTable") as built:
            got = solve_weighted_all_k(inst, inst.n)
        want = unpruned_answers(inst, inst.n)
        assert got.keys() == want.keys()
        assert list(map(answer_key, got.values())) == list(map(answer_key, want.values())), inst.n
        capped += len(built) < inst.n
    assert capped > 200  # the cap stops most of these solves before level n




def test_solve_weighted_is_the_all_k_answer():
    # the ceiling changes no answer: for every k <= 8, `solve_weighted` (a
    # ceiling when the greedy cover fits in k disks) answers as the build
    # without one, centers and weight bits, or Infeasible alike
    # (`solve_weighted_all_k`'s answer for k is the same for every bound >= k)
    ceilings = {True: 0, False: 0}  # whether the solve had a ceiling
    for inst in answer_twin_instances():
        top = min(inst.n, 8)
        want = solve_weighted_all_k(inst, top)
        cover = len(wdp.greedy_cover(build_neighbor_index(inst)))
        for k in range(1, top + 1):
            try:
                got = solve_weighted(inst, k)
            except Infeasible as exc:
                got = exc
            assert answer_key(got) == answer_key(want[k]), (inst.n, k)
            ceilings[cover <= k] += 1
    assert min(ceilings.values()) > 300


def test_rows_below_the_cover_weight_are_the_same_with_the_ceiling():
    # the ceiling lemma level by level: each level's rows valued at most the
    # cover's weight U are the same with and without the ceiling, in the same
    # (owner, value, id) order, with the same witness sets.  On these answer
    # twins, placing a kept row at its run's first copy, which may lie above
    # the ceiling, instead of at the kept copy reorders such rows
    def rows(level, most):
        ids = np.flatnonzero(level.values <= most)
        ids = ids[np.lexsort((ids, level.values[ids], level.owners[ids]))]
        return [(int(level.owners[c]), int(level.starts[c]), int(level.lengths[c]),
                 level.values[c].hex(), level.witnesses(c)) for c in ids.tolist()]

    for seed in (248, 437, 545, 692, 752, 836):
        inst = random_twin_instance(seed)
        nbr = build_neighbor_index(inst)
        ceiling = wdp.greedy_ceiling(nbr, 8)
        assert ceiling < math.inf
        plain, capped = [None], [None]
        for t in range(1, 9):
            plain.append(build_level(inst, nbr, plain, t))
            capped.append(build_level(inst, nbr, capped, t, ceiling=ceiling))
            most = ceiling / (1 + VALUE_SLACK)
            assert rows(plain[t], most) == rows(capped[t], most), (seed, t)


def k6_family(count):
    """The `weighted_k6` benchmark's instances: n = 60 on a circle, radii 2-6, weights 1-10."""
    for i in range(count):
        yield gen_random(60, 1000 + i, "circle", "uniform(2.0,6.0)", "uniform(1,10)").to_instance()


def test_the_ceiling_halves_the_rows_kept_and_comes_from_a_cover():
    # on the k = 6 benchmark family, the rows kept at levels >= 2 with the
    # ceiling are at most half of those without it, and each ceiling comes
    # from a greedy set that dominates in at most k disks
    k, rows = 6, {True: 0, False: 0}
    for inst in k6_family(12):
        nbr = build_neighbor_index(inst)
        cover = wdp.greedy_cover(nbr)
        if wdp.greedy_ceiling(nbr, k) < math.inf:
            assert len(cover) <= k and verify(inst, cover.tolist())
            assert wdp.greedy_ceiling(nbr, k) == math.fsum(inst.ws[cover]) * (1 + VALUE_SLACK)
        else:
            assert len(cover) > k
        for ceiling in (True, False):
            with recording(wdp, "LevelTable") as built:
                (solve_weighted if ceiling else solve_weighted_all_k)(inst, k)
            rows[ceiling] += sum(len(level.owners) for level in built if level.level >= 2)
    assert rows[True] * 2 <= rows[False], rows


def test_a_cover_in_hand_skips_the_counting_bound(monkeypatch):
    # a greedy cover of at most k disks already shows a dominating set fits,
    # so the counting bound is not asked; without a ceiling it is
    asked, instances = [], list(k6_family(3))
    index = type(build_neighbor_index(instances[0]))
    bound = index.domination_lower_bound
    monkeypatch.setattr(index, "domination_lower_bound",
                        lambda self: asked.append(1) or bound(self))
    for inst in instances:
        nbr = build_neighbor_index(inst)
        assert wdp.greedy_ceiling(nbr, 6) < math.inf
        solve_weighted(inst, 6)
        assert asked == []
    solve_weighted_all_k(inst, 6)
    assert asked == [1]


def test_a_ceiling_below_the_optimum_raises_an_invariant_error(monkeypatch):
    # the ceiling lemma says the answer lies at or below the ceiling; a
    # ceiling under the optimum breaks it, which is an error, not Infeasible
    for inst in k6_family(3):
        optimum = solve_weighted(inst, 6).weight
        with monkeypatch.context() as mp:
            mp.setattr(wdp, "greedy_ceiling", lambda nbr, k: 0.99 * optimum)
            with pytest.raises(SolverInvariantError, match="ceiling"):
                solve_weighted(inst, 6)


def test_each_level_makes_one_pass_per_combination_step(monkeypatch):
    # level t >= 2 combines all of its splits t' + (t - t') at once: one
    # one-way pass each way and one stitched pass, in both solvers
    from collections import Counter

    import diskdom.unweighted_greedy as ug
    from diskdom import gen_figure1

    calls = []

    def counting(step, name):
        def counted(nbr, levels, t, *args, **kwargs):
            calls.append((t, name))
            return step(nbr, levels, t, *args, **kwargs)
        return counted

    for module in (wdp, ug):
        for name in ("directional_combos", "bidirectional_combos"):
            monkeypatch.setattr(module, name, counting(getattr(module, name), name))
    doc = gen_figure1(9)
    for solve, weighted in ((solve_weighted_unbounded, True), (ug.solve_unweighted, False)):
        calls.clear()
        size = solve(doc.to_instance(weighted=weighted)).size
        levels = Counter(t for t, _ in calls)
        assert size == 5 and max(levels) >= 4
        assert sorted(levels) == list(range(2, max(levels) + 1))
        for t in levels:
            counts = Counter(name for tt, name in calls if tt == t)
            assert counts == {"directional_combos": 2, "bidirectional_combos": 1}, (weighted, t)


def meeting_everywhere(n):
    """n disks on the circle of radius 10, each meeting every other: level 1 is all full."""
    return gen_random(n, 40 + n, "circle", "uniform(30,40)", "uniform(1,10)").to_instance()


def full_row_instances(big5):
    """The corpus, big5 and disks meeting every disk (n 1-8), then 300 random instances."""
    from pathlib import Path

    from diskdom.instance_io import load_instance_document

    corpus = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
    for path in corpus:
        yield load_instance_document(path.read_text()).to_instance(), False
    yield big5, False
    for n in range(1, 9):
        yield meeting_everywhere(n), False
    laws = ("uniform(2.0,6.0)", "uniform(4.0,9.0)", "uniform(1.0,3.0)", "lognormal(1,0.6)")
    for seed in range(300):
        doc = gen_random(3 + seed % 10, 61_000 + seed, "circle", laws[seed % 4], "uniform(1,10)")
        yield doc.to_instance(), True


def test_no_answer_depends_on_full_rows_copied_up_a_level(monkeypatch, big5):
    # the rule the DP once had: a full l1 also copied up one level by itself,
    # at value v1.  Dropping it changes no answer for any k: such a row is
    # full and no cheaper than its l1, already a full row a level lower
    random_with_full_below_k = 0
    for inst, random_ in full_row_instances(big5):
        n = inst.n
        without = solve_weighted_all_k(inst, n)
        with monkeypatch.context() as mp:
            mp.setattr(wdp, "directional_combos", copying_full_l1(wdp.directional_combos))
            copied = solve_weighted_all_k(inst, n)
        assert without.keys() == copied.keys()
        for k, answer in without.items():
            if isinstance(answer, Infeasible):
                assert isinstance(copied[k], Infeasible) and copied[k].k == k
            else:
                got = copied[k]
                assert (got.centers, got.weight, got.size) == (answer.centers, answer.weight,
                                                               answer.size), k
        random_with_full_below_k += random_ and not isinstance(without[n - 1], Infeasible)
    assert random_with_full_below_k >= 200


def test_disks_meeting_every_disk_leave_every_later_level_empty(monkeypatch):
    for n in range(1, 9):
        inst = meeting_everywhere(n)
        for copy in (False, True):
            with monkeypatch.context() as mp:
                if copy:
                    mp.setattr(wdp, "directional_combos", copying_full_l1(wdp.directional_combos))
                nbr, levels = build_neighbor_index(inst), [None]
                for t in range(1, n + 1):
                    levels.append(build_level(inst, nbr, levels, t, check_invariants=not copy))
            assert (levels[1].lengths == n).all()
            # the rule once copied each full l1 up a level: n rows at each level,
            # each a run level 1 holds at the same value, so the prune drops them
            sizes = [len(level.owners) for level in levels[2:]]
            assert sizes == [0] * (n - 1), (n, copy)
        copies = copying_full_l1(wdp.directional_combos)
        for t in range(2, n + 1):
            owners, starts, lengths, values, _ = copies(nbr, levels, t, ccw=True)
            assert len(owners) == n
            held = zip(levels[1].starts[owners], levels[1].values[owners], starts, values)
            assert all(s1 == s and v1 <= v for s1, v1, s, v in held), (n, t)
