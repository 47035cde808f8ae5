import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdom.geometry import offset_ccw
from diskdom.unweighted_greedy import farthest_ids
from query_reference import scan_farthest_ids
from run_reference import CyclicSublist
from weighted_reference import (
    bucket_min_enclosing,
    chain_answer,
    chain_of,
    global_min_enclosing,
    level_of_runs,
    ring,
)


def run(start, length, n):
    return CyclicSublist(start=start, length=length, n=n)


def position(table, ident):
    """Position in `level_of_runs`' input of candidate `ident`."""
    return table.positions[ident]


# --- cheapest enclosing run: level-table scans and staircase chains ---------
#
# `indexed` picks how the level builds its chains: from (value, id)-sorted
# staircases (`LevelTable`), or from the plain-scan queries one growing run
# at a time (the test-side `ScanLevelTable` twin).

MIN_RUNS = [
    (0, 3, 3.0, 0),  # [0..2]
    (0, 5, 1.0, 0),  # [0..4]
    (1, 3, 0.0, 0),  # [1..3]
]


def min_enclosing(table, q):
    return chain_answer(table, chain_of(table, q.start, bucket=False, ccw=True), q)


@pytest.mark.parametrize("indexed", [True, False])
def test_min_enclosing_pinned(indexed):
    table = level_of_runs(ring(6), MIN_RUNS, indexed=indexed)
    got = min_enclosing(table, run(1, 2, 6))  # [1..2]
    assert position(table, got) == 2 and table.values[got] == 0.0
    got = min_enclosing(table, run(0, 5, 6))  # [0..4]
    assert position(table, got) == 1 and table.values[got] == 1.0
    assert min_enclosing(table, run(5, 1, 6)) is None
    assert global_min_enclosing(table, run(5, 1, 6)) is None


@pytest.mark.parametrize("indexed", [True, False])
def test_min_enclosing_full_item_answers_everything(indexed):
    table = level_of_runs(ring(6), MIN_RUNS + [(0, 6, 7.0, 0)], indexed=indexed)
    for start in range(6):
        for length in range(1, 7):
            assert min_enclosing(table, run(start, length, 6)) is not None
    # the full run is the only one containing a full query
    assert position(table, min_enclosing(table, run(0, 6, 6))) == 3
    # ...and the fallback when nothing else contains the query
    assert position(table, min_enclosing(table, run(5, 1, 6))) == 3


@pytest.mark.parametrize("indexed", [True, False])
def test_min_enclosing_tie_breaks_to_smallest_id(indexed):
    runs = [(0, 4, 2.0, 0), (1, 5, 2.0, 0), (0, 6, 2.0, 0)]
    table = level_of_runs(ring(8), runs, indexed=indexed)
    assert position(table, min_enclosing(table, run(1, 3, 8))) == 0
    # runs 1 and 2 both reach 5 from index 1: the smaller id wins
    assert position(table, min_enclosing(table, run(1, 5, 8))) == 1
    assert position(table, global_min_enclosing(table, run(1, 5, 8))) == 1


def _random_runs(rng, n, m, *, buckets=1):
    return [
        (rng.randrange(n), rng.randint(1, n), rng.randint(0, 20) / 4, rng.randrange(buckets))
        for _ in range(m)
    ]


def test_min_enclosing_indexed_matches_naive():
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(1, 12)
        runs = _random_runs(rng, n, rng.randint(0, 10), buckets=n)
        inst = ring(n)
        fast = level_of_runs(inst, runs)
        slow = level_of_runs(inst, runs, indexed=False)
        for start in range(n):
            for length in range(1, n + 1):
                q = run(start, length, n)
                assert min_enclosing(fast, q) == global_min_enclosing(slow, q)
                cw_q = run(start - length + 1, length, n)
                cw_chain = chain_of(fast, start, bucket=False, ccw=False)
                assert chain_answer(fast, cw_chain, cw_q) == (
                    global_min_enclosing(slow, cw_q)
                )
            # bucket chains anchor at their owner
            for length in range(1, n + 1):
                q = run(start, length, n)
                got = chain_answer(fast, chain_of(fast, start, bucket=True, ccw=True), q)
                assert got == bucket_min_enclosing(slow, start, q)
                q = run(start - length + 1, length, n)
                got = chain_answer(fast, chain_of(fast, start, bucket=True, ccw=False), q)
                assert got == bucket_min_enclosing(slow, start, q)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_min_enclosing_monotone_in_query(data):
    n = data.draw(st.integers(2, 10))
    m = data.draw(st.integers(1, 8))
    runs = [
        (
            data.draw(st.integers(0, n - 1)),
            data.draw(st.integers(1, n)),
            data.draw(st.integers(0, 9)),
            0,
        )
        for _ in range(m)
    ]
    table = level_of_runs(ring(n), runs)
    start = data.draw(st.integers(0, n - 1))
    small = data.draw(st.integers(1, n))
    large = data.draw(st.integers(small, n))
    a = global_min_enclosing(table, run(start, small, n))
    b = global_min_enclosing(table, run(start, large, n))
    # growing the query can only lose candidates
    if b is not None:
        assert a is not None and table.values[a] <= table.values[b]


# --- farthest enclosing run -------------------------------------------------


def far(runs, n, indexed=True):
    """`farthest_ids` over `runs`, or its `scan_farthest_ids` twin, as a query."""
    answer = farthest_ids if indexed else scan_farthest_ids
    starts, lengths = [s for s, _ in runs], [k for _, k in runs]
    answers = {ccw: answer(starts, lengths, n, ccw=ccw) for ccw in (True, False)}

    def farthest(j, *, ccw):
        return answers[ccw][j]

    return farthest


FAR_SINGLE = [(2, 3)]  # [2..4]


@pytest.mark.parametrize("indexed", [True, False])
def test_farthest_single_item(indexed):
    farthest = far(FAR_SINGLE, 6, indexed)
    assert farthest(3, ccw=True) == 0
    assert offset_ccw(3, run(*FAR_SINGLE[0], 6).ccw_end, 6) == 1
    assert farthest(5, ccw=True) == -1
    assert farthest(5, ccw=False) == -1


@pytest.mark.parametrize("indexed", [True, False])
def test_farthest_prefers_longer_reach(indexed):
    farthest = far([(2, 3), (3, 4)], 6, indexed)  # [2..4], [3..0]
    assert farthest(3, ccw=True) == 1  # reach 3 beats reach 1
    assert farthest(3, ccw=False) == 0  # cw reach 1 beats 0
    assert farthest(4, ccw=False) == 0  # cw reach 2 beats 1


@pytest.mark.parametrize("indexed", [True, False])
def test_farthest_full_item_always_wins(indexed):
    farthest = far([(2, 3), (0, 6)], 6, indexed)
    for j in range(6):
        assert farthest(j, ccw=True) == 1
        assert farthest(j, ccw=False) == 1


@pytest.mark.parametrize("indexed", [True, False])
def test_farthest_tie_breaks_to_smallest_id(indexed):
    farthest = far([(2, 2), (1, 3)], 6, indexed)  # both ccw-end at 3
    assert farthest(2, ccw=True) == 0
    assert farthest(1, ccw=True) == 1  # only run 1 covers 1


def test_far_index_rejects_bad_input():
    for bad in ([(0, 0)], [(6, 2)], [(-1, 2)], [(0, 7)]):
        with pytest.raises(ValueError):
            far(bad, 6)
    with pytest.raises(ValueError):
        farthest_ids([0, 1], [2], 6, ccw=True)


def test_farthest_indexed_matches_naive():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 12)
        runs = [(s, k) for s, k, _, _ in _random_runs(rng, n, rng.randint(0, 10))]
        fast = far(runs, n, True)
        slow = far(runs, n, False)
        for j in range(n):
            assert fast(j, ccw=True) == slow(j, ccw=True)
            assert fast(j, ccw=False) == slow(j, ccw=False)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_farthest_reach_is_correct_and_maximal(data):
    n = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(1, 8))
    runs = [
        run(data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, n)), n)
        for _ in range(m)
    ]
    farthest = far([(r.start, r.length) for r in runs], n)
    j = data.draw(st.integers(0, n - 1))
    got = farthest(j, ccw=True)
    covering = [r for r in runs if j in r]
    if not covering:
        assert got == -1
    else:
        def reach(r):
            return n if r.is_full else offset_ccw(j, r.ccw_end, n)

        assert j in runs[got]
        assert reach(runs[got]) == max(reach(r) for r in covering)


def test_build_is_deterministic():
    rng = random.Random(7)
    runs = _random_runs(rng, 9, 8, buckets=9)
    a, b = level_of_runs(ring(9), runs), level_of_runs(ring(9), list(runs))
    for anchor in range(9):
        for bucket, ccw in ((False, True), (True, False)):
            assert np.array_equal(
                chain_of(a, anchor, bucket=bucket, ccw=ccw), chain_of(b, anchor, bucket=bucket, ccw=ccw)
            )
    starts = np.array([s for s, _, _, _ in runs])
    lengths = np.array([k for _, k, _, _ in runs])
    for ccw in (True, False):
        c = farthest_ids(starts, lengths, 9, ccw=ccw)
        assert np.array_equal(c, farthest_ids(starts.copy(), lengths.copy(), 9, ccw=ccw))
