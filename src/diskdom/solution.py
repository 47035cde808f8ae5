"""Solver results, failure modes, and the level columns and steps both solvers share.

Both solvers build levels (`RunLevel`) with the same combination steps
(`directional_combos`, `bidirectional_combos`) over lower levels' scan
chains; the unweighted search runs them under unit weights, its chains
cut to their farthest entry.  `check_level` checks either solver's rows.
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
    * t >= 2: parent levels t1, t2 in [1, t), ids in range, a missing l2
      reading (-1, -1); the owner owns l1.  With `shared` when it owns l2
      too, t1 + t2 - shared <= t and value >= v1 + v2 - (w_i if shared) -
      VALUE_SLACK * max(1, |value|).  The owner's dominated run, run(l1)
      and run(l2) merge into a consecutive union inside the run, and every
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
        has2 = t2 != -1
        bad = (t1 < 1) | (t1 >= t) | (has2 & ((t2 < 1) | (t2 >= t)))
        _fail(t, bad, "parent level outside [1, t)")
        sizes = np.array([0, *(len(level.owners) for level in levels[1:t])])
        t2 = has2 * t2
        bad2 = np.where(has2, (c2 < 0) | (c2 >= sizes[t2]), c2 != -1)  # a missing l2 is (-1, -1)
        _fail(t, (c1 < 0) | (c1 >= sizes[t1]) | bad2, "parent id out of range")
        # the parents' columns, from levels 1..t-1 laid end to end
        offsets = np.cumsum(sizes) - sizes
        g1, g2 = offsets[t1] + c1, offsets[t2] + has2 * c2

        def parent_col(name):
            col = np.concatenate([getattr(level, name) for level in levels[1:t]])
            return col[g1], has2 * col[g2]  # 0 for a missing l2
        (o1, o2), (s1, s2), (k1, k2) = (parent_col(col) for col in ("owners", "starts", "lengths"))
        _fail(t, o1 != owners, "the owner does not own l1")
        shared = has2 & (o2 == owners)
        _fail(t, t1 + t2 - shared > t, "more than t witnesses")
        v1, v2 = parent_col("values")
        slack = VALUE_SLACK * np.maximum(1.0, np.abs(values))
        low = ~(values >= v1 + v2 - shared * weights[owners] - slack)
        _fail(t, low, "value below its parents'")
        try:
            us, uk = union_columns(n, ((dom_s[owners], dom_k[owners]), (s1, k1), (s2, k2)))
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
    lower-level candidates it joins, -1 where there is no l2 and
    throughout level 1, where the owner is the witness.  `below` holds the
    lower levels by level.  No candidate is an object: a witness set is
    rebuilt from the parents only when `witnesses` is asked for it.  Later
    levels read a level through its scan chains (`chains`): for a query
    run grown from an anchor, the distinct cheapest runs containing it, a
    staircase of runs reaching ever farther (`run_reach`) in (value, id)
    order.  Each level type supplies them (`_chain_table`).
    """

    def __init__(self, instance: Instance, level: int, below, starts, lengths, owners, values,
                 parents):
        self.instance, self.level, self.below, self.n = instance, level, below, instance.n
        self.starts, self.lengths, self.owners = starts, lengths, owners
        self.values, self.parents = values, parents
        self._chains: dict[tuple[bool, bool], tuple[np.ndarray, np.ndarray]] = {}
        self._witnesses: dict[int, frozenset[int]] = {}  # by id, as `witnesses` rebuilds them

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

        Walks the parents down and keeps every set it rebuilds, so each
        candidate's set is the union of its parents' sets, built once.
        """
        todo = [(self, ident)]
        while todo:
            level, c = todo[-1]
            if c in level._witnesses:
                todo.pop()
            elif level.level == 1:
                level._witnesses[c] = frozenset((level.owners[c].item(),))
            else:
                t1, c1, t2, c2 = level.parents[c].tolist()
                parents = [(level.below[t1], c1)] + ([(level.below[t2], c2)] if c2 >= 0 else [])
                missing = [(p, pc) for p, pc in parents if pc not in p._witnesses]
                todo += missing  # built first; c is popped once its set is kept
                if not missing:
                    sets = (p._witnesses[pc] for p, pc in parents)
                    level._witnesses[c] = frozenset().union(*sets)
        return self._witnesses[ident]


def directional_combos(nbr, levels: Sequence[Optional[RunLevel]], t: int, tp: int, *,
                       ccw: bool) -> tuple:
    """Every point's one-way level-t combinations of split level t', ccw or cw.

    Each run l1 of a point's level-t' bucket chain is extended by each run
    l2 of the level-(t-t') global chain anchored just past l1's far end,
    then by the stretch the point's disk meets past l2's far end
    (`runs_past`); the run is the union of the point's dominated run, l1,
    l2 and that tail, at value v1 + v2.  A full l1 is a combination by
    itself, at v1.  Rows come point by point, then in l1 and l2 chain
    order.  Returns int64 columns owners, starts, lengths, the float64
    values and (m, 4) parent rows.
    """
    n = nbr.n
    near, other = levels[tp], levels[t - tp]
    _, l1 = near.chains(bucket=True, ccw=ccw)
    s1, k1 = near.starts[l1], near.lengths[l1]
    ptr, l2s = other.chains(bucket=False, ccw=ccw)
    anchor = (s1 + k1) % n if ccw else (s1 - 1) % n
    full1 = k1 == n
    lo = ptr[anchor]
    row, at = expand_runs(lo, np.where(full1, 1, ptr[anchor + 1] - lo))
    l1, s1, k1, has2 = l1[row], s1[row], k1[row], ~full1[row]
    i = near.owners[l1]
    l2 = np.full_like(l1, -1)
    s2, k2, tail_s, tail_k = (np.zeros_like(l1) for _ in range(4))  # empty parts
    j = l2s[at[has2]]
    l2[has2], s2[has2], k2[has2] = j, other.starts[j], other.lengths[j]
    # the tail only where l2 is partial: the union saturates on a full part
    open_ = has2 & (k2 < n)
    tail_s[open_], tail_k[open_] = nbr.runs_past(
        i[open_], ((s2 + k2 - 1) % n if ccw else s2)[open_], ccw=ccw
    )
    dom_s, dom_k = nbr.dominated_runs
    s, k = union_columns(n, ((dom_s[i], dom_k[i]), (s1, k1), (s2, k2), (tail_s, tail_k)))
    values = near.values[l1]
    values[has2] += other.values[j]
    parents = np.stack((np.full_like(l1, tp), l1, np.where(has2, t - tp, -1), l2), axis=1)
    return i, s, k, values, parents


def bidirectional_combos(nbr, levels: Sequence[Optional[RunLevel]], t: int, tp: int,
                         weights: np.ndarray) -> tuple:
    """Every point's combinations of a ccw run lx of level t' and a cw run ly of level t+1-t'.

    lx and ly walk the point's two bucket chains, ly fastest; the run is
    the union of the point's dominated run, lx and ly, at value
    (vx + vy) - wi, the point's weight counted once.  Columns as
    `directional_combos`.
    """
    n = nbr.n
    x, y = levels[tp], levels[t + 1 - tp]
    _, lx = x.chains(bucket=True, ccw=True)
    ptr, lys = y.chains(bucket=True, ccw=False)
    i = x.owners[lx]
    row, at = expand_runs(ptr[i], ptr[i + 1] - ptr[i])
    i, lx, ly = i[row], lx[row], lys[at]
    dom_s, dom_k = nbr.dominated_runs
    runs = ((dom_s[i], dom_k[i]), (x.starts[lx], x.lengths[lx]), (y.starts[ly], y.lengths[ly]))
    values = (x.values[lx] + y.values[ly]) - weights[i]
    parents = np.stack((np.full_like(i, tp), lx, np.full_like(i, t + 1 - tp), ly), axis=1)
    return (i, *union_columns(n, runs), values, parents)
