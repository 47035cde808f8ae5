"""Ground truth the solvers are tested against.

Exhaustive minimum dominating sets over domination bitmasks, solution
verification by numpy predicate rows, and the structural diagnostics:
additively-weighted nearest-center assignment, its contiguous groups, an
exact disk containment test, and a segment-crossing check of pairwise
line separability.

All index arguments and results here are canonical instance indices;
`Instance.to_original` / `to_canonical` translate to the caller's input
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from .geometry import Instance, gap_signs, intersects_row, offset_ccw, orientation
from .solution import Infeasible, Solution, TooLarge, check_size_bound

BRUTE_CAP = 22          # n cap for 2^n subset enumeration


@dataclass(frozen=True)
class DominationMasks:
    """Per-point bitsets of intersecting disks; bit i is always set in masks[i]."""

    masks: tuple[int, ...]
    universe: int


def build_masks(instance: Instance) -> DominationMasks:
    """Each disk's row of `intersects_row`, packed into an int: bit z for disk z (n <= BRUTE_CAP)."""
    n = instance.n
    cols = instance.xs, instance.ys, instance.rs
    rows = (np.packbits(intersects_row(*cols, i), bitorder="little").tobytes() for i in range(n))
    return DominationMasks(tuple(int.from_bytes(row, "little") for row in rows), (1 << n) - 1)


def verify_by_predicate(instance: Instance, centers: Iterable[int]) -> bool:
    covered = np.zeros(instance.n, dtype=bool)
    for c in centers:
        covered |= intersects_row(instance.xs, instance.ys, instance.rs, c)
    return bool(covered.all())


def verify(instance: Instance, centers: Iterable[int]) -> bool:
    """True iff `centers` (canonical indices) dominate every disk.

    Evaluates the exact closed predicate `geometry.intersects_row`, one
    row per center (`verify_by_predicate`), at any n.
    """
    centers = list(centers)
    if any(not 0 <= c < instance.n for c in centers):
        raise ValueError("center index out of range")
    return verify_by_predicate(instance, centers)


def brute_force_min(
    instance: Instance,
    mode: Literal["weighted", "unweighted"] = "unweighted",
    k_cap: Optional[int] = None,
) -> Solution:
    """Exhaustive optimum over all 2^n center subsets (n <= 22).

    Unweighted minimizes (size, weight); weighted minimizes (weight, size);
    remaining ties go to the lexicographically smallest canonical index
    tuple, so results are deterministic.  A k_cap that is not an integer
    of at least 1 raises InvalidK.
    """
    n = instance.n
    if n > BRUTE_CAP:
        raise TooLarge(f"brute force capped at n <= {BRUTE_CAP}, got {n}")
    if mode not in ("weighted", "unweighted"):
        raise ValueError(f"unknown mode {mode!r}")
    if k_cap is not None:
        check_size_bound("k_cap", k_cap)
    dm = build_masks(instance)
    total = 1 << n
    cover = np.zeros(total, dtype=np.int64)
    size = np.zeros(total, dtype=np.int8)
    wt = np.zeros(total, dtype=np.float64)
    for b in range(n):
        lo, hi = 1 << b, 1 << (b + 1)
        cover[lo:hi] = cover[:lo] | np.int64(dm.masks[b])
        size[lo:hi] = size[:lo] + 1
        wt[lo:hi] = wt[:lo] + instance.ws[b]
    ok = cover == np.int64(dm.universe)
    if k_cap is not None and k_cap < n:
        ok &= size <= k_cap
    subsets = np.flatnonzero(ok)
    if subsets.size == 0:
        raise Infeasible(k_cap)
    sz = size[subsets].astype(np.int64)
    w = wt[subsets]
    order = ("size", "weight") if mode == "unweighted" else ("weight", "size")
    for crit in order:
        key = sz if crit == "size" else w
        sel = key == key.min()
        subsets, sz, w = subsets[sel], sz[sel], w[sel]
    # lexicographically smallest index tuple = largest bit-reversed subset
    rev = np.zeros_like(subsets)
    for b in range(n):
        rev |= ((subsets >> b) & 1) << (n - 1 - b)
    pos = int(np.argmax(rev))
    picked = int(subsets[pos])
    chosen = [i for i in range(n) if picked >> i & 1]
    return Solution(
        centers=tuple(sorted(instance.to_original(chosen))),
        weight=float(w[pos]),
        size=len(chosen),
        mode=mode,
    )


# --- structural diagnostics --------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """Nearest-center assignment (by |p c| - r_c) and its contiguous groups.

    `groups` lists (center, (start, length)) pairs: the maximal cyclic runs
    of points sharing an assigned center, in order of run start.
    `dominating` and `containment_pairs` report whether the separability
    preconditions held; violations are flagged, never fatal.
    """

    centers: tuple[int, ...]
    assigned: tuple[int, ...]
    groups: tuple[tuple[int, tuple[int, int]], ...]
    dominating: bool
    containment_pairs: tuple[tuple[int, int], ...]


def disk_containment_pairs(
    instance: Instance, indices: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j) among `indices` with disk i inside disk j, closed, exactly.

    That is r_j >= r_i and |c_i c_j| <= r_j - r_i: the sign of
    (-r_i + r_j)² - |c_i c_j|², the closed intersection test's with -r_i.
    """
    idx = np.asarray(indices, np.int64)
    i, j = (a.ravel() for a in np.meshgrid(idx, idx, indexing="ij"))
    i, j = i[i != j], j[i != j]
    xs, ys, rs = instance.xs, instance.ys, instance.rs
    inside = (rs[j] >= rs[i]) & (gap_signs(xs[i], xs[j], ys[i], ys[j], -rs[i], rs[j]) >= 0)
    return tuple(zip(i[inside].tolist(), j[inside].tolist()))


def voronoi_assignment(instance: Instance, centers: Iterable[int]) -> Assignment:
    """Assign each point to the center minimizing |p c| - r_c (ties: smaller index)."""
    centers = sorted(set(centers))
    if not centers:
        raise ValueError("need at least one center")
    if any(not 0 <= c < instance.n for c in centers):
        raise ValueError("center index out of range")
    n = instance.n
    c = np.array(centers)
    dx, dy = instance.xs[:, None] - instance.xs[c], instance.ys[:, None] - instance.ys[c]
    val = np.hypot(dx, dy) - instance.rs[c]
    assigned = c[np.argmin(val, axis=1)].tolist()  # ties to the first, smallest center
    if len(set(assigned)) == 1:
        groups = ((assigned[0], (0, n)),)
    else:
        starts = [i for i in range(n) if assigned[i] != assigned[i - 1]]
        groups = tuple(
            (assigned[s], (s, offset_ccw(s, starts[(k + 1) % len(starts)], n)))
            for k, s in enumerate(starts)
        )
    return Assignment(
        centers=tuple(centers),
        assigned=tuple(assigned),
        groups=groups,
        dominating=verify(instance, centers),
        containment_pairs=disk_containment_pairs(instance, centers),
    )


def check_domination_of_assignment(instance: Instance, assignment: Assignment) -> bool:
    """Every point's disk must intersect its assigned center's disk."""
    points = np.arange(instance.n)
    centers = np.array(assignment.assigned)
    hit = intersects_row(instance.xs, instance.ys, instance.rs, points, centers)
    return bool(hit.all())


Separability = Literal["separable", "crossed"]


def check_line_separable(instance: Instance, assignment: Assignment) -> Separability:
    """Scan for proper crossings between segments of different groups.

    A segment joins each point to its assigned center.  Two groups admit a
    separating line exactly when no two of their segments properly cross:
    each segment's ends lie strictly on opposite sides of the other's line,
    by the exact `orientation`.  Shared endpoints and touching do not count.
    """
    disks = instance.disks
    segs = [(disks[c].center, disks[i].center, c) for i, c in enumerate(assignment.assigned)]
    crossed = any(
        ca != cb
        and orientation(a, b, c) * orientation(a, b, d) < 0
        and orientation(c, d, a) * orientation(c, d, b) < 0
        for (a, b, ca), (c, d, cb) in combinations(segs, 2)
    )
    return "crossed" if crossed else "separable"
