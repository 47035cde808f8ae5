"""Solver results, failure modes, and the level columns and steps both solvers share.

Both solvers build levels (`RunLevel`) with the same combination steps
(`directional_combos`, `bidirectional_combos`), one pass for all splits
of a level over the lower levels' scan chains; the unweighted search runs
them under unit weights, its chains cut to their farthest entry.
`check_level` checks either solver's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from .geometry import Instance, NotConsecutive, intersects_row, union_columns

WEIGHT_TOLERANCE = 1e-9  # how far a stated weight may be from its centers' sum
VALUE_SLACK = 1e-9  # relative slack of a row's value against its parents' (`check_level`)
CHECK_BLOCK = 1 << 16  # (row, disk) pairs per `intersects_row` pass of `check_level`


class Infeasible(Exception):
    """No dominating set exists within the requested size bound."""

    def __init__(self, k):
        super().__init__(f"no dominating set of size <= {k}")
        self.k = k


class InvalidK(ValueError):
    """Requested size bound is outside [1, n]."""


class TooLarge(ValueError):
    """Instance exceeds the hard cap of an exhaustive code path."""


class SolverInvariantError(RuntimeError):
    """A solver reached a state its correctness argument rules out.

    Raised explicitly rather than asserted, so the check survives `python -O`.
    """


def check_size_bound(name: str, k, hi: Optional[int] = None) -> None:
    """Raise InvalidK unless `k` is an integer of at least 1, and at most `hi` if given."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise InvalidK(f"{name} must be an integer, got {k!r}")
    if hi is None:
        if k < 1:
            raise InvalidK(f"{name} must be at least 1, got {k}")
    elif not 1 <= k <= hi:
        raise InvalidK(f"{name} must be in [1, {hi}], got {k}")


@dataclass(frozen=True)
class Solution:
    """A dominating set, reported in the caller's original disk order.

    `centers` are indices into the disk sequence as the user supplied it
    (before canonical reordering), sorted ascending.
    """

    centers: tuple[int, ...]
    weight: float
    size: int
    mode: Literal["weighted", "unweighted"]

    def __post_init__(self):
        if self.size != len(self.centers):
            raise ValueError("size disagrees with centers")
        if self.mode not in ("weighted", "unweighted"):
            raise ValueError(f"unknown mode {self.mode!r}")


def solution_of(
    instance: Instance, witnesses: Iterable[int], mode: Literal["weighted", "unweighted"]
) -> Solution:
    """The Solution of a witness set given in canonical indices.

    The weight is summed over the witnesses in ascending canonical order.
    """
    chosen = sorted(witnesses)
    weight = 0.0
    for w in instance.ws[chosen].tolist():
        weight += w
    return Solution(
        centers=tuple(sorted(instance.to_original(chosen))),
        weight=weight,
        size=len(chosen),
        mode=mode,
    )


def expand_runs(lo, count) -> tuple[np.ndarray, np.ndarray]:
    """Item q repeated count[q] times, and the indices lo[q], lo[q] + 1, ... beside it."""
    item = np.repeat(np.arange(len(lo)), count)
    return item, lo[item] + np.arange(len(item)) - (np.cumsum(count) - count)[item]


def run_reach(starts, lengths, anchors, n: int, *, ccw: bool) -> np.ndarray:
    """Steps each run extends past its anchor, ccw or cw: n when full, -1 when missing it."""
    off = (anchors - starts) % n
    reach = np.where(off < lengths, lengths - 1 - off if ccw else off, -1)
    return np.where(lengths == n, n, reach)


def _fail(t: int, bad: np.ndarray, rule: str) -> None:
    """Raise SolverInvariantError naming the first row of level t that `bad` marks."""
    if bad.any():
        raise SolverInvariantError(f"level {t}, row {int(np.argmax(bad))}: {rule}")


def _misses_owner(instance: Instance, owners, starts, lengths) -> np.ndarray:
    """Per run (start, length), whether a disk of it misses its owner; by blocks of CHECK_BLOCK."""
    n, bad = instance.n, np.zeros(len(owners), bool)
    # rows [lo, hi) end in one block of CHECK_BLOCK disks (leading empty rows test nothing)
    bounds = np.searchsorted(np.cumsum(lengths), np.arange(0, lengths.sum(), CHECK_BLOCK), "right")
    for lo, hi in zip(bounds.tolist(), [*bounds[1:].tolist(), len(owners)]):
        row, disk = expand_runs(starts[lo:hi], lengths[lo:hi])
        meets = intersects_row(instance.xs, instance.ys, instance.rs, owners[lo:hi][row], disk % n)
        bad[lo + row[~meets]] = True
    return bad


def check_level(nbr, levels, t: int, owners, starts, lengths, parents, values, weights) -> None:
    """Check level t's rows against their parents; a broken row raises SolverInvariantError.

    The rows are `RunLevel` columns with their `values`, sums of `weights`
    (the instance's in the weighted DP, ones in the unweighted search),
    over the checked `levels[1..t-1]` and their neighbor index `nbr`.
    Each rule is a whole-column test:

    * every row: the owner is in [0, n), the run is valid (start in
      [0, n), length in [1, n]) and holds the owner;
    * level 1: no parents (-1 throughout), the run is the owner's dominated
      run and its every disk meets the owner, the value is its weight;
    * t >= 2: parent levels t1, t2 in [1, t), ids in range (every row
      joins two parents); the owner owns l1.  With `shared` when it owns
      l2 too, t1 + t2 - shared <= t and value >= v1 + v2 - (w_i if shared)
      - VALUE_SLACK * max(1, |value|).  The owner's dominated run merges
      with run(l1), and that union with run(l2), into a consecutive union
      inside the run (two `union_columns` passes), and every
      disk of the run outside it (at most two arcs) meets the owner.

    By induction over levels this is the global check of each witness set
    W (the owners a row's parents lead to at level 1: {owner}, then
    W(l1) | W(l2), with the owner in W(l1)): |W| <= t1 + t2 - shared <= t,
    weight(W) <= v1 + v2 - (w_i if shared) <= value up to VALUE_SLACK, and
    W dominates the run, as W(l1) and W(l2) dominate theirs, the owner the rest.
    """
    instance = nbr.instance
    n, m = instance.n, len(owners)
    _fail(t, (owners < 0) | (owners >= n), "owner out of range")
    _fail(t, (starts < 0) | (starts >= n) | (lengths < 1) | (lengths > n), "invalid run")
    _fail(t, (owners - starts) % n >= lengths, "owner outside its run")
    dom_s, dom_k = nbr.dominated_runs
    if t == 1:
        _fail(t, (parents != -1).any(axis=1), "a level-1 row has parents")
        _fail(t, (starts != dom_s[owners]) | (lengths != dom_k[owners]), "not its dominated run")
        _fail(t, values != weights[owners], "value is not the owner's weight")
        us, uk = starts, np.zeros_like(lengths)  # no parts: every disk of the run is tested
    else:
        t1, c1, t2, c2 = parents.T
        _fail(t, (t1 < 1) | (t1 >= t) | (t2 < 1) | (t2 >= t), "parent level outside [1, t)")
        sizes = np.array([0, *(len(level.owners) for level in levels[1:t])])
        bad = (c1 < 0) | (c1 >= sizes[t1]) | (c2 < 0) | (c2 >= sizes[t2])
        _fail(t, bad, "parent id out of range")
        # the parents' columns, from levels 1..t-1 laid end to end
        offsets = np.cumsum(sizes) - sizes
        g1, g2 = offsets[t1] + c1, offsets[t2] + c2

        def parent_col(name):
            col = np.concatenate([getattr(level, name) for level in levels[1:t]])
            return col[g1], col[g2]
        (o1, o2), (s1, s2), (k1, k2) = (parent_col(col) for col in ("owners", "starts", "lengths"))
        _fail(t, o1 != owners, "the owner does not own l1")
        shared = o2 == owners
        _fail(t, t1 + t2 - shared > t, "more than t witnesses")
        v1, v2 = parent_col("values")
        slack = VALUE_SLACK * np.maximum(1.0, np.abs(values))
        low = ~(values >= v1 + v2 - shared * weights[owners] - slack)
        _fail(t, low, "value below its parents'")
        try:
            head = union_columns(n, (dom_s[owners], dom_k[owners]), (s1, k1))
            us, uk = union_columns(n, head, (s2, k2))
        except NotConsecutive as exc:
            raise SolverInvariantError(f"level {t}, row {exc.row}: gap between the parts") from None
    s = np.where(lengths == n, us, starts)  # a full run may start anywhere: at the union
    d = (us - s) % n
    _fail(t, d + uk > lengths, "the parts leave the run")
    arcs = np.concatenate((s, (us + uk) % n)), np.concatenate((d, lengths - d - uk))
    bad = _misses_owner(instance, np.tile(owners, 2), *arcs)
    _fail(t, bad[:m] | bad[m:], "a disk of the run outside the parts misses the owner")


class RunLevel:
    """One solver level's candidates as columns, in id order; never changed.

    Row c has the run (`starts[c]`, `lengths[c]`), the owner `owners[c]`
    and the value `values[c]`, a sum of the weights the solver reads.  Row
    c of `parents` is (level of l1, id of l1, level of l2, id of l2): the
    two lower-level candidates it joins, both named in every row of a
    level t >= 2, and -1 throughout level 1, where the owner is the
    witness.  `below` holds the lower levels by level.  A row holds its
    owner and the owner's dominated run: level 1 is that run, each later
    row a union from a row of its owner.  No candidate is an object: a witness set is
    rebuilt from the parents only when `witnesses` is asked for it.
    Later levels read a level through its scan chains (`chains`): for a
    query run grown from an anchor, the distinct cheapest runs containing
    it, a staircase of runs reaching ever farther (`run_reach`) in
    (value, id) order.  Each level type supplies them (`_chain_table`).
    """

    def __init__(self, instance: Instance, level: int, below, starts, lengths, owners, values,
                 parents):
        self.instance, self.level, self.below, self.n = instance, level, below, instance.n
        self.starts, self.lengths, self.owners = starts, lengths, owners
        self.values, self.parents = values, parents
        self._chains: dict[tuple[bool, bool], tuple[np.ndarray, np.ndarray]] = {}

    def chains(self, *, bucket: bool, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """Every chain of one kind, as (ptr, ids): anchor a's is ids[ptr[a]:ptr[a + 1]].

        Bucket chains read only bucket a, anchored at its owner a; global
        chains read the whole level.  Built once per kind.
        """
        table = self._chains.get((bucket, ccw))
        if table is None:
            table = self._chains[bucket, ccw] = self._chain_table(bucket, ccw=ccw)
        return table

    def _chain_table(self, bucket: bool, *, ccw: bool) -> tuple[np.ndarray, np.ndarray]:
        """The chains of one kind, all anchors at once, as `chains` returns them."""
        raise NotImplementedError

    def cheapest_full(self) -> int:
        """The id of the first full candidate of least value, or -1 when none is full."""
        full = np.flatnonzero(self.lengths == self.n)
        return int(full[np.argmin(self.values[full])]) if len(full) else -1

    def witnesses(self, ident: int) -> frozenset[int]:
        """Row `ident`'s witness set: the owners its parents lead to at level 1.

        Walks the parents down, keeping nothing: a level-t row (t >= 2)
        unfolds into at most 2t - 2 level-1 rows, its parents sitting at
        levels t' and t - t', or at t' and t + 1 - t', both >= 2.
        """
        found, todo = set(), [(self, ident)]
        while todo:
            level, c = todo.pop()
            if level.level == 1:
                found.add(level.owners[c].item())
            else:
                t1, c1, t2, c2 = level.parents[c].tolist()
                todo += (level.below[t1], c1), (level.below[t2], c2)
        return frozenset(found)


def _chain_batch(levels: Sequence[Optional[RunLevel]], tags: np.ndarray, n: int, *,
                 bucket: bool, ccw: bool) -> tuple:
    """One kind of chains of levels[tags[0]], levels[tags[1]], ... laid end to end.

    Returns the (len(tags), n + 1) pointer table, slot q's chain of anchor
    a being entries ptr[q, a]:ptr[q, a + 1], then per entry its slot, id,
    owner, start, length and value (chain entries only, never whole levels).
    """
    tables = [(levels[tp], *levels[tp].chains(bucket=bucket, ccw=ccw)) for tp in tags.tolist()]
    sizes = np.array([len(ids) for *_, ids in tables], np.int64)
    ptr = np.array([p for _, p, _ in tables], np.int64).reshape(len(tags), n + 1)
    ptr += (np.cumsum(sizes) - sizes)[:, None]
    none = np.empty(0, np.int64)  # leads each concatenation, so no tags still give columns
    cols = [np.concatenate([none, *(getattr(level, name)[ids] for level, _, ids in tables)])
            for name in ("owners", "starts", "lengths", "values")]
    ids = np.concatenate([none, *(ids for *_, ids in tables)])
    return (ptr, np.repeat(np.arange(len(tags)), sizes), ids, *cols)


def directional_combos(nbr, levels: Sequence[Optional[RunLevel]], t: int, *, ccw: bool) -> tuple:
    """Every point's one-way level-t combinations over all splits t' + (t - t'), ccw or cw.

    Each run l1 of a point's level-t' bucket chain is extended by each run
    l2 of the level-(t-t') global chain anchored just past l1's far end.
    A partial l2 is first lengthened by its tail, the stretch the point's
    disk meets just past l2's far end (`runs_past`): one run, at times
    longer than n.  The run is the union of l1 and that run, at value
    v1 + v2.  l1 is a row of the point, so the union holds the point's
    dominated run (`RunLevel`).  A full l1 has no far end to extend, so it
    makes no combination: it is already a full row at level t', and every
    row made from it would be full and no cheaper (`weighted_dp`).  Rows
    are split-major: by t' = 1..t-1, then point by point, then in l1 and
    l2 chain order.  Returns int64 columns owners, starts, lengths, the
    float64 values and (m, 4) parent rows.
    """
    n = nbr.n
    splits = np.arange(1, t)
    _, q, l1, i, s1, k1, v1 = _chain_batch(levels, splits, n, bucket=True, ccw=ccw)
    ptr, _, l2s, _, s2s, k2s, v2s = _chain_batch(levels, t - splits, n, bucket=False, ccw=ccw)
    anchor = (s1 + k1) % n if ccw else (s1 - 1) % n
    lo, hi = ptr[q, anchor], ptr[q, anchor + 1]
    row, at = expand_runs(lo, (hi - lo) * (k1 < n))  # a full l1 reads no chain entry
    # dropped once read, so they do not sit beside the row columns at the peak
    del anchor, lo, hi
    tp, i, l1, s1, k1, v1 = splits[q[row]], i[row], l1[row], s1[row], k1[row], v1[row]
    del q, row
    l2, s2, k2 = l2s[at], s2s[at], k2s[at]
    # l2 takes its tail where it is partial (a full l2 makes a full row)
    open_ = np.flatnonzero(k2 < n)
    end2 = (s2[open_] + k2[open_] - 1) % n if ccw else s2[open_]
    tail_s, tail_k = nbr.runs_past(i[open_], end2, ccw=ccw)
    k2[open_] += tail_k
    if not ccw:
        s2[open_] = tail_s
    parents = np.stack((tp, l1, t - tp, l2), axis=1)
    return (i, *union_columns(n, (s1, k1), (s2, k2)), v1 + v2s[at], parents)


def bidirectional_combos(nbr, levels: Sequence[Optional[RunLevel]], t: int,
                         weights: np.ndarray) -> tuple:
    """Every point's combinations of a ccw run lx of level t' and a cw run ly of level t+1-t'.

    lx and ly walk the point's two bucket chains, ly fastest; the run is
    the union of lx and ly, which both hold the point's dominated run
    (`RunLevel`), at value (vx + vy) - wi, the point's weight counted
    once.  Splits t' = 2..t-1, none at t = 2; rows and columns as
    `directional_combos`.
    """
    n = nbr.n
    splits = np.arange(2, t)
    _, q, lx, i, sx, kx, vx = _chain_batch(levels, splits, n, bucket=True, ccw=True)
    ptr, _, lys, _, sy, ky, vy = _chain_batch(levels, t + 1 - splits, n, bucket=True, ccw=False)
    lo = ptr[q, i]
    row, at = expand_runs(lo, ptr[q, i + 1] - lo)
    tp, i = splits[q[row]], i[row]
    values = (vx[row] + vy[at]) - weights[i]
    parents = np.stack((tp, lx[row], t + 1 - tp, lys[at]), axis=1)
    return (i, *union_columns(n, (sx[row], kx[row]), (sy[at], ky[at])), values, parents)
