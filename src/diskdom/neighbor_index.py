"""First-disjoint-disk queries along the cyclic order, asked in batches.

For a disk i and a scan origin j, `first_disjoint` returns the first
index z, counterclockwise or clockwise from j inclusive, whose disk does
*not* intersect disk i, and -1 when disk i meets every disk.  It answers
arrays of (i, j) pairs at once.  The index turns the answers into the
runs the solvers read, as start and length arrays (`dominated_runs`,
`runs_past`), and gives the counting bound on any dominating set
(`domination_lower_bound`), which the weighted DP asks after level 1.

Every answer is decided by the exact predicate `geometry.intersects_row`,
negated, the one `verify` uses.  One index answers them at every n,
`_TreeNeighborIndex`, and keeps no n² data: a static tree over blocks of
64 consecutive disks stores a center C of each node and its slack, the
least r_z - |c_z - C| over its disks; a query skips every node whose
slack proves it to meet disk i throughout, and evaluates the other
blocks exactly, as rows of 64-bit avoidance words read in the query's
direction: either way, the first disk that misses disk i is the lowest set bit.

The query flow is:

- `first_disjoint` answers an array of (i, j) pairs from j's leaf, cut
  at j, and then by walking the tree; it is asked directly only for the
  2n walks from disk i itself, whose first misses each way bound
  `dominated_runs`, read off with no merge;
- `runs_past` answers the tails the solvers ask past the far end z of a
  run, from j = z±1 on, each of which lengthens that run.  Most need no walk: when j lies in disk i's own
  dominated run, the answer is the rest of that run, which is maximal;
  when disk i misses disk j, it is the empty tail.  Only the rest, which
  start outside the run on a disk i meets, walk `first_disjoint`.

The counting bound is counted from blocks of `intersects_row` rows.  The
tests check the index against a disk-by-disk walk with a scalar
predicate, whose scalar runs are the reference for `runs_past`
(`tests/query_reference.py`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import Instance, intersects_row

_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_PAIRS_PER_BLOCK = 1 << 15  # pair tests per block: temporaries stay in cache


def _lowest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each nonzero uint64 word."""
    # x & -x is a power of two, which float64 holds exactly
    return np.frexp((x & (~x + np.uint64(1))).astype(np.float64))[1].astype(np.int64) - 1


class _TreeNeighborIndex:
    """Slack bounds over blocks of 64 disks; only unproven blocks are evaluated.

    Leaf w holds disks 64w..64w+63, and its avoidance word has bit b set
    when disk i misses disk 64w + lanes[b]: bit b is lane b of the read
    order, lanes 0..63 counterclockwise and 63..0 clockwise.
    Over the leaves, padded to 2**top, sits a dyadic tree: node m of level
    l covers leaves m * 2**l .. (m+1) * 2**l - 1 and stores a float point
    C, its slack S = min_z (r_z - |c_z - C|) and its size M = max_z (r_z + |c_z - C|).
    It is skipped when |c_i - C| + 1e-9 (r_i + M) <= r_i + S, with r_i + M
    in [2**-500, 2**500]: as |c_i - c_z| <= |c_i - C| + |C - c_z| exactly,
    disk i then meets every disk z of the node, and so does the exact
    `intersects_row`.  The margin covers the test's dozen roundings: each
    errs by 2**-53 of a term at most r_i + M in size (|c_i - C| <= r_i + S,
    |S| <= M), or by 2**-1075 where it underflows.  As S >= r_min - R, it
    proves each node its centers' circle (C, R) and least radius r_min would.
    """

    _SAFE = (2.0**-500, 2.0**500)

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n = n = instance.n
        self._arrays = xs, ys, rs = instance.xs, instance.ys, instance.rs
        self._leaves = leaves = -(-n // 64)
        self._top = top = (leaves - 1).bit_length()
        # leaves are rows of the columns padded to whole leaves with copies
        # of the last disk, which `_leaf_words` reads as met
        pad = leaves * 64 - n
        self._rows = tuple(np.append(c, np.full(pad, c[-1])).reshape(-1, 64) for c in self._arrays)
        # node m of level l is row offset[l] + m; the padding's nodes are
        # never visited, and hold NaN
        self._offset = np.cumsum([0] + [(1 << top) >> lvl for lvl in range(top)])
        stats = np.full((4, 2 << top), np.nan)
        for lvl in range(top + 1):
            firsts = np.arange(0, n, 64 << lvl)
            owner = np.arange(n) >> (6 + lvl)
            cx = np.minimum.reduceat(xs, firsts) / 2 + np.maximum.reduceat(xs, firsts) / 2
            cy = np.minimum.reduceat(ys, firsts) / 2 + np.maximum.reduceat(ys, firsts) / 2
            dist = np.hypot(xs - cx[owner], ys - cy[owner])
            nodes = self._offset[lvl] + np.arange(len(firsts))
            stats[:, nodes] = (cx, cy, np.minimum.reduceat(rs - dist, firsts),
                               np.maximum.reduceat(rs + dist, firsts))
        self._cx, self._cy, self._slack, self._size = stats

    def _leaf_words(self, i: np.ndarray, leaves: np.ndarray, ccw: bool) -> np.ndarray:
        """Avoidance word of disk i[q] against leaf leaves[q], a row of `_rows`, exactly."""
        order, kind = ("little", "<u8") if ccw else ("big", ">u8")  # bit b: lane b, or 63 - b
        last = self._leaves - 1  # its lanes past disk n - 1 are padding, read as met
        words = np.empty(len(i), np.uint64)
        chunk = _PAIRS_PER_BLOCK // 64
        for lo in range(0, len(i), chunk):
            part = slice(lo, lo + chunk)
            block = intersects_row(*self._rows, i[part, None], leaves[part])
            block[leaves[part] == last, self.n - 64 * last:] = True
            words[part] = np.packbits(~block, axis=1, bitorder=order).view(kind)[:, 0]
        return words

    def _skips(self, i: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Whether disk i[q] provably meets every disk of node nodes[q], by the exact predicate."""
        xs, ys, rs = self._arrays
        far = rs[i] + self._size[nodes]  # r_i + M
        lhs = np.hypot(self._cx[nodes] - xs[i], self._cy[nodes] - ys[i]) + 1e-9 * far
        return (lhs <= rs[i] + self._slack[nodes]) & (far >= self._SAFE[0]) & (far <= self._SAFE[1])

    def first_disjoint(self, i, j, *, ccw: bool) -> np.ndarray:
        """First disk from j[q] on, ccw or cw, that misses disk i[q]; -1 where i[q] meets all.

        Reads j's leaf word, cut to j's lane and the lanes after it, then
        walks the tree.  The walk runs in scan positions s, the leaf index
        counterclockwise and its mirror 2**top - 1 - leaf clockwise, so it
        always moves up: from the leaf after j's to the last one, then
        round from the first to j's leaf, which comes last, whole.  At
        position s it tests the largest node starting there, skips it when
        `_skips` proves it, and otherwise descends to its first child, or,
        at a leaf, evaluates the leaf's word.
        """
        i, j = np.asarray(i, np.int64), np.asarray(j, np.int64)
        out = np.full(len(i), -1, np.int64)
        if not len(i):  # an empty batch costs no numpy pass
            return out
        lanes = np.arange(64) if ccw else np.arange(63, -1, -1)  # the read order of leaf words
        x = np.zeros(len(i), np.uint64)
        open_ = np.flatnonzero(~self._skips(i, j >> 6))  # leaf w is node w of level 0
        cut = _ONES << lanes[j[open_] & 63].astype(np.uint64)  # j's lane and the ones after it
        x[open_] = self._leaf_words(i[open_], j[open_] >> 6, ccw) & cut
        hit = x != 0
        out[hit] = (j[hit] >> 6) * 64 + lanes[_lowest_bit(x[hit])]
        todo = np.flatnonzero(~hit)
        i, j = i[todo], j[todo]
        if not len(todo):
            return out

        top, leaves = self._top, self._leaves
        span = 1 << top
        mirror = 0 if ccw else span - 1  # scan position <-> leaf index: s ^ mirror
        first, end = (0, leaves) if ccw else (span - leaves, span)  # real leaves' positions
        last = (j >> 6) ^ mirror  # j's leaf, where the walk ends
        s = last + 1
        wrapped = s >= end
        s[wrapped] = first

        def climb(s):
            # level of the largest aligned node starting at s: trailing zeros, top at 0
            return np.frexp((s | span) & -(s | span))[1] - 1

        lvl = climb(s)
        while len(todo):
            leaf = s ^ mirror
            nodes = self._offset[lvl] + (leaf >> lvl)
            skip = self._skips(i, nodes)
            exact = np.flatnonzero(~skip & (lvl == 0))
            found = np.zeros(len(todo), bool)
            if len(exact):
                x = self._leaf_words(i[exact], leaf[exact], ccw)
                hit = x != 0
                found[exact[hit]] = True
                out[todo[exact[hit]]] = leaf[exact[hit]] * 64 + lanes[_lowest_bit(x[hit])]
            step = skip | ((lvl == 0) & ~found)
            lvl -= ~skip & (lvl > 0)  # descend to the first child
            s += step * (1 << lvl)
            wrap = step & (s >= end) & ~wrapped
            s[wrap], wrapped = first, wrapped | wrap
            lvl[step] = climb(s[step])
            keep = ~found & ~(wrapped & (s > last))
            todo, i, s, lvl, last, wrapped = (
                a[keep] for a in (todo, i, s, lvl, last, wrapped)
            )
        return out

    def runs_past(self, i, z, *, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """The run disk i[q] meets from z[q]+1 on ccw (z[q]-1 on cw), as start and length arrays.

        Disk i[q] must miss some disk, as no tail is asked of a disk meeting
        every disk (its rows are all full).  Each run stops just before the
        first disk disjoint from disk i.  It starts right past z (clockwise,
        ends right before z, an empty one starting at z), so a caller may
        lengthen the run ending at z by it, clockwise moving that run's start
        to its start.  With j = z+1 (z-1 clockwise) and
        disk i's dominated run (s, k):
        1. j in the run, at off = j - s: the run is maximal, so the answer
           is the rest of it, (j, k - off) counterclockwise and
           (s, off + 1) clockwise;
        2. otherwise, when disk i misses disk j (the only test of disk j):
           the empty tail, (j, 0) counterclockwise and (j + 1, 0) clockwise;
        3. otherwise `first_disjoint` walks from j to the first disk f
           missing disk i, which exists as the run is partial.
        """
        n = self.n
        i = np.asarray(i, np.int64)
        j = (np.asarray(z, np.int64) + (1 if ccw else -1)) % n
        dom_s, dom_k = self.dominated_runs
        s, k = dom_s[i], dom_k[i]
        off = (j - s) % n
        starts, lengths = (j, k - off) if ccw else (s, off + 1)
        past = np.flatnonzero(off >= k)
        starts[past] = j[past] if ccw else (j[past] + 1) % n
        lengths[past] = 0
        walk = past[intersects_row(*self._arrays, i[past], j[past])]
        f, j = self.first_disjoint(i[walk], j[walk], ccw=ccw), j[walk]
        starts[walk] = j if ccw else (f + 1) % n
        lengths[walk] = (f - j) % n if ccw else (j - f) % n
        return starts, lengths

    @cached_property
    def dominated_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each disk's dominated run, as start and length arrays.

        That is the maximal run around disk i whose disks all meet disk i,
        and (0, n) when disk i meets every disk.
        """
        n = self.n
        i = np.arange(n)
        # the first disks missed clockwise and counterclockwise bound the run
        f_cw, f_ccw = (self.first_disjoint(i, i, ccw=ccw) for ccw in (False, True))
        full = f_cw < 0
        return np.where(full, 0, (f_cw + 1) % n), np.where(full, n, (f_ccw - f_cw - 1) % n)

    def domination_lower_bound(self) -> int:
        """Fewest disks any dominating set needs.

        Each disk dominates only its closed neighborhood, so at least
        ceil(n / largest closed neighborhood) disks are needed.  The
        neighborhoods are counted in blocks of rows, and kept nowhere.
        """
        n = self.n
        block = max(1, _PAIRS_PER_BLOCK // n)
        rows = (np.arange(lo, min(n, lo + block))[:, None] for lo in range(0, n, block))
        largest = max(int(intersects_row(*self._arrays, r).sum(axis=1).max()) for r in rows)
        return -(-n // largest)


def build_neighbor_index(instance: Instance) -> _TreeNeighborIndex:
    """The neighbor index both solvers query: the slack-bound tree, at every n."""
    return _TreeNeighborIndex(instance)
