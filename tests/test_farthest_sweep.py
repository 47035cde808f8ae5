"""The sweep behind `farthest_ids` against its plain-scan twin."""

import random

import numpy as np

from diskdom.unweighted_greedy import farthest_ids
from query_reference import scan_farthest_ids


def _runs(rng, n, m, *, dupes=0):
    """m random partial runs (many wrapping) and `dupes` copies of them,
    shuffled, as (starts, lengths) int64 arrays."""
    runs = [(rng.randrange(n), rng.randint(1, n - 1)) for _ in range(m)]
    runs += [rng.choice(runs) for _ in range(dupes)]
    rng.shuffle(runs)
    starts = np.array([s for s, _ in runs], dtype=np.int64)
    lengths = np.array([k for _, k in runs], dtype=np.int64)
    return starts, lengths


def _answers(answer, starts, lengths, n):
    """`answer`'s ids at every index, one call per direction."""
    ccw_ids, cw_ids = (answer(starts, lengths, n, ccw=ccw) for ccw in (True, False))
    return [(ccw_ids[j], cw_ids[j]) for j in range(n)]


def test_sweep_matches_scan_twin():
    rng = random.Random(2024)
    for trial in range(400):
        n = rng.randint(2, 14)
        starts, lengths = _runs(rng, n, rng.randint(1, 12), dupes=rng.randint(0, 4))
        fast = _answers(farthest_ids, starts, lengths, n)
        assert fast == _answers(scan_farthest_ids, starts, lengths, n), trial


def test_from_runs_matches_scan_twin_with_positions_as_ids():
    rng = random.Random(77)
    for trial in range(400):
        n = rng.randint(2, 14)
        starts, lengths = _runs(rng, n, rng.randint(1, 12), dupes=3)
        fast = _answers(farthest_ids, starts, lengths, n)
        assert fast == _answers(scan_farthest_ids, starts, lengths, n), trial


def test_duplicate_runs_answer_with_the_smallest_id():
    n = 8
    wrap = (6, 4)  # 6, 7, 0, 1
    starts, lengths = (np.array(col, np.int64) for col in zip((2, 1), wrap, wrap, wrap))
    for answer in (farthest_ids, scan_farthest_ids):
        want = [1, 1, 0, -1, -1, -1, 1, 1]
        assert _answers(answer, starts, lengths, n) == list(zip(want, want))
