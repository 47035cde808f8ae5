"""The sweep behind `farthest_ids` against its plain-scan twin."""

import random

import numpy as np

from diskdom.unweighted_greedy import farthest_ids
from query_reference import scan_farthest_ids


def _runs(rng, n, m, *, fulls=0, dupes=0):
    """m random runs (many wrapping), `fulls` full runs and `dupes` copies
    of earlier runs, shuffled, as (starts, lengths) arrays."""
    runs = [(rng.randrange(n), rng.randint(1, n)) for _ in range(m)]
    runs += [(0, n)] * fulls
    runs += [rng.choice(runs) for _ in range(dupes)] if runs else []
    rng.shuffle(runs)
    starts = np.array([s for s, _ in runs], dtype=np.int64)
    lengths = np.array([k for _, k in runs], dtype=np.int64)
    return starts, lengths


def _answers(ids, n):
    ccw_ids, cw_ids = ids
    return [(ccw_ids[j], cw_ids[j]) for j in range(n)]


def test_sweep_matches_scan_twin():
    rng = random.Random(2024)
    for trial in range(400):
        n = rng.randint(1, 14)
        starts, lengths = _runs(
            rng,
            n,
            rng.randint(0, 12),
            fulls=rng.choice([0, 0, 1, 2, 3]),
            dupes=rng.randint(0, 4),
        )
        fast = farthest_ids(starts, lengths, n)
        slow = scan_farthest_ids(starts, lengths, n)
        assert _answers(fast, n) == _answers(slow, n), trial


def test_from_runs_matches_scan_twin_with_positions_as_ids():
    rng = random.Random(77)
    for trial in range(400):
        n = rng.randint(1, 14)
        starts, lengths = _runs(
            rng, n, rng.randint(0, 12), fulls=rng.choice([0, 0, 2]), dupes=3
        )
        fast = farthest_ids(starts, lengths, n)
        slow = scan_farthest_ids(starts, lengths, n)
        assert _answers(fast, n) == _answers(slow, n), trial


def test_duplicate_runs_answer_with_the_smallest_id():
    n = 8
    wrap = (6, 4)  # 6, 7, 0, 1
    starts, lengths = zip((2, 1), wrap, wrap, wrap)
    for answer in (farthest_ids, scan_farthest_ids):
        ccw_ids, cw_ids = answer(starts, lengths, n)
        assert [ccw_ids[j] for j in range(n)] == [1, 1, 0, None, None, None, 1, 1]
        assert [cw_ids[j] for j in range(n)] == [1, 1, 0, None, None, None, 1, 1]


def test_several_full_runs_answer_with_the_smallest_full_id():
    n = 5
    starts, lengths = [2, 0, 0], [4, n, n]
    for answer in (farthest_ids, scan_farthest_ids):
        ccw_ids, cw_ids = answer(starts, lengths, n)
        assert {ccw_ids[j] for j in range(n)} == {1}
        assert {cw_ids[j] for j in range(n)} == {1}
