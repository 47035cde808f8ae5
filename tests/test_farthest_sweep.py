"""The sweep-backed FarthestEnclosingIndex against its plain-scan twin."""

import random

import numpy as np

from diskdom.geometry import CyclicSublist
from diskdom.sublist_queries import FarthestEnclosingIndex, ValuedSublist


def _items(rng, n, m, *, fulls=0, dupes=0):
    """m random runs (many wrapping), `fulls` full runs and `dupes` copies
    of earlier runs, under distinct shuffled ids with gaps between them."""
    runs = [CyclicSublist(rng.randrange(n), rng.randint(1, n), n) for _ in range(m)]
    runs += [CyclicSublist(0, n, n)] * fulls
    runs += [rng.choice(runs) for _ in range(dupes)] if runs else []
    ids = rng.sample(range(3 * len(runs) + 1), len(runs))
    return [ValuedSublist(sub=r, value=0.0, id=i) for r, i in zip(runs, ids)]


def _answers(idx, n):
    return [(idx.farthest_ccw_id(j), idx.farthest_cw_id(j)) for j in range(n)]


def test_sweep_matches_scan_twin():
    rng = random.Random(2024)
    for trial in range(400):
        n = rng.randint(1, 14)
        items = _items(
            rng,
            n,
            rng.randint(0, 12),
            fulls=rng.choice([0, 0, 1, 3]),
            dupes=rng.randint(0, 4),
        )
        fast = FarthestEnclosingIndex(items, n, indexed=True)
        slow = FarthestEnclosingIndex(items, n, indexed=False)
        assert _answers(fast, n) == _answers(slow, n), trial
        for j in range(n):
            assert fast.farthest_ccw(j) == slow.farthest_ccw(j)
            assert fast.farthest_cw(j) == slow.farthest_cw(j)


def test_from_runs_matches_scan_twin_with_positions_as_ids():
    rng = random.Random(77)
    for trial in range(400):
        n = rng.randint(1, 14)
        items = _items(rng, n, rng.randint(0, 12), fulls=rng.choice([0, 0, 2]), dupes=3)
        rng.shuffle(items)
        starts = np.array([it.sub.start for it in items], dtype=np.int64)
        lengths = np.array([it.sub.length for it in items], dtype=np.int64)
        fast = FarthestEnclosingIndex.from_runs(starts, lengths, n)
        slow = FarthestEnclosingIndex(
            [ValuedSublist(it.sub, 0.0, k) for k, it in enumerate(items)], n, indexed=False
        )
        assert _answers(fast, n) == _answers(slow, n), trial


def test_duplicate_runs_answer_with_the_smallest_id():
    n = 8
    wrap = CyclicSublist(6, 4, n)  # 6, 7, 0, 1
    items = [ValuedSublist(wrap, 0.0, 9), ValuedSublist(wrap, 0.0, 4), ValuedSublist(wrap, 0.0, 6)]
    idx = FarthestEnclosingIndex(items, n)
    assert [idx.farthest_ccw_id(j) for j in range(n)] == [4, 4, None, None, None, None, 4, 4]
    assert [idx.farthest_cw_id(j) for j in range(n)] == [4, 4, None, None, None, None, 4, 4]


def test_several_full_runs_answer_with_the_smallest_full_id():
    n = 5
    items = [
        ValuedSublist(CyclicSublist(0, n, n), 0.0, 8),
        ValuedSublist(CyclicSublist(2, 4, n), 0.0, 1),
        ValuedSublist(CyclicSublist(0, n, n), 0.0, 3),
    ]
    for idx in (FarthestEnclosingIndex(items, n), FarthestEnclosingIndex(items, n, indexed=False)):
        assert {idx.farthest_ccw_id(j) for j in range(n)} == {3}
        assert {idx.farthest_cw_id(j) for j in range(n)} == {3}
