"""
Farthest-enclosing runs: one sweep vs. a naive scan
===================================================

The unweighted search asks each frozen level, for an index j, which
stored run through j reaches farthest around the circle (counterclockwise
or clockwise). `FarthestEnclosingIndex` answers all n indexes of both
directions at build time with one numpy prefix/suffix-maximum sweep over
the runs' starts and ends; `indexed=False` is its plain-scan twin, used as
an oracle. This script races the two on a random level and shows the
answers are the same run ids, ties included.
"""

import random
import time

import numpy as np

from diskdom.sublist_queries import FarthestEnclosingIndex

rng = random.Random(2024)
n = 600
m = 1500
starts = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
lengths = np.array([rng.randint(1, n // 20) for _ in range(m)], dtype=np.int64)

t0 = time.perf_counter()
fast = FarthestEnclosingIndex(starts, lengths, n)
fast_reach = [(fast.farthest_ccw(j), fast.farthest_cw(j)) for j in range(n)]
t1 = time.perf_counter()
slow = FarthestEnclosingIndex(starts, lengths, n, indexed=False)
slow_reach = [(slow.farthest_ccw(j), slow.farthest_cw(j)) for j in range(n)]
t2 = time.perf_counter()
assert fast_reach == slow_reach
covered = sum(a is not None for a, _ in fast_reach)
print(f"{m} runs over n={n}: {covered} indexes covered, identical run ids both ways")
print(f"  build + {2 * n} queries: sweep {1000 * (t1 - t0):7.1f} ms   "
      f"naive scan {1000 * (t2 - t1):7.1f} ms")

# Ties matter: equal reaches must resolve to the same run id in both
# implementations, which the equality above already proved. Show one tie
# explicitly: runs 0 and 1 both end at index 4, so from index 2 they reach
# equally far counterclockwise.
tie = FarthestEnclosingIndex([1, 2], [4, 3], 8)
print(f"tie on reach resolves to run {tie.farthest_ccw(2)} (smallest id wins); "
      f"a full run beats all: {FarthestEnclosingIndex([1, 0], [4, 8], 8).farthest_ccw(2)}")
