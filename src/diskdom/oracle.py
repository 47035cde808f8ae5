"""Ground truth the solvers are tested against.

Exhaustive minimum dominating sets over domination bitmasks, solution
verification by two independent routes (numpy predicate rows, which
`verify` uses at every n, vs. a bitmask union kept for brute force and
tests),
and the structural diagnostics: additively-weighted nearest-center
assignment, its contiguous groups, and a segment-crossing check of
pairwise line separability.

All index arguments and results here are canonical instance indices;
`Instance.to_original` / `to_canonical` translate to the caller's input
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from .geometry import (
    CyclicSublist,
    Instance,
    disk_arrays,
    intersects,
    intersects_row,
    offset_ccw,
    orientation,
)
from .solution import Infeasible, Solution, TooLarge, check_size_bound

MASK_CAP = 4096         # n cap for build_masks' materialized bitmask rows
BRUTE_CAP = 22          # n cap for 2^n subset enumeration
CONTAINMENT_SLACK = 1e-12
ORIENTATION_BAND = 1e-12


@dataclass(frozen=True)
class DominationMasks:
    """Per-point bitsets of intersecting disks; bit i is always set in masks[i]."""

    masks: tuple[int, ...]
    universe: int


def build_masks(instance: Instance) -> DominationMasks:
    n = instance.n
    if n > MASK_CAP:
        raise TooLarge(f"domination masks capped at n <= {MASK_CAP}, got {n}")
    disks = instance.disks
    masks = [1 << i for i in range(n)]
    for i in range(n):
        di = disks[i]
        for j in range(i + 1, n):
            if intersects(di, disks[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return DominationMasks(tuple(masks), (1 << n) - 1)


def verify_by_masks(instance: Instance, centers: Iterable[int]) -> bool:
    dm = build_masks(instance)
    got = 0
    for c in centers:
        got |= dm.masks[c]
    return got == dm.universe


def verify_by_predicate(instance: Instance, centers: Iterable[int]) -> bool:
    arrays = disk_arrays(instance)
    covered = np.zeros(instance.n, dtype=bool)
    for c in centers:
        covered |= intersects_row(*arrays, c)
    return bool(covered.all())


def verify(instance: Instance, centers: Iterable[int]) -> bool:
    """True iff `centers` (canonical indices) dominate every disk.

    Evaluates the closed predicate of `geometry.intersects` from numpy rows,
    one row per center (`verify_by_predicate`), at any n; the bitmask route
    (`verify_by_masks`) stays as its independent twin for tests.
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
        wt[lo:hi] = wt[:lo] + instance.disks[b].weight
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

    `groups` lists (center, run) pairs: the maximal cyclic runs of points
    sharing an assigned center, in order of run start.  `dominating` and
    `containment_pairs` report whether the separability preconditions held;
    violations are flagged, never fatal.
    """

    centers: tuple[int, ...]
    assigned: tuple[int, ...]
    groups: tuple[tuple[int, CyclicSublist], ...]
    dominating: bool
    containment_pairs: tuple[tuple[int, int], ...]


def disk_containment_pairs(
    instance: Instance, indices: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j) among `indices` with disk i inside disk j, up to slack."""
    out = []
    for i in indices:
        di = instance.disks[i]
        for j in indices:
            if i == j:
                continue
            dj = instance.disks[j]
            dx = dj.center.x - di.center.x
            dy = dj.center.y - di.center.y
            if math.sqrt(dx * dx + dy * dy) + di.radius <= dj.radius + CONTAINMENT_SLACK:
                out.append((i, j))
    return tuple(out)


def voronoi_assignment(instance: Instance, centers: Iterable[int]) -> Assignment:
    """Assign each point to the center minimizing |p c| - r_c (ties: smaller index)."""
    centers = sorted(set(centers))
    if not centers:
        raise ValueError("need at least one center")
    if any(not 0 <= c < instance.n for c in centers):
        raise ValueError("center index out of range")
    n = instance.n
    assigned = []
    for i in range(n):
        p = instance.disks[i].center
        best = None
        best_c = -1
        for c in centers:
            d = instance.disks[c]
            dx = p.x - d.center.x
            dy = p.y - d.center.y
            val = math.sqrt(dx * dx + dy * dy) - d.radius
            if best is None or val < best:
                best, best_c = val, c
        assigned.append(best_c)
    if len(set(assigned)) == 1:
        groups = ((assigned[0], CyclicSublist(0, n, n)),)
    else:
        starts = [i for i in range(n) if assigned[i] != assigned[i - 1]]
        groups = tuple(
            (assigned[s], CyclicSublist(s, offset_ccw(s, starts[(k + 1) % len(starts)], n), n))
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
    return all(
        intersects(instance.disks[i], instance.disks[c])
        for i, c in enumerate(assignment.assigned)
    )


Separability = Literal["separable", "crossed", "inconclusive"]


def _orient_banded(a, b, c):
    """Signed area sign, or None inside the degeneracy band."""
    det = orientation(a, b, c)
    mag = (abs(b.x - a.x) + abs(b.y - a.y)) * (abs(c.x - a.x) + abs(c.y - a.y))
    if abs(det) <= ORIENTATION_BAND * mag:
        return None
    return 1 if det > 0 else -1


def check_line_separable(instance: Instance, assignment: Assignment) -> Separability:
    """Scan for proper crossings between segments of different groups.

    A segment joins each point to its assigned center.  Two groups admit a
    separating line exactly when no two of their segments properly cross;
    shared endpoints and touching do not count.  Orientation tests falling
    inside a relative 1e-12 band make the verdict "inconclusive" instead
    of deciding either way.
    """
    disks = instance.disks
    segs = [
        (disks[c].center, disks[i].center, c)
        for i, c in enumerate(assignment.assigned)
        if i != c
    ]
    inconclusive = False
    for si in range(len(segs)):
        a, b, ca = segs[si]
        for sj in range(si + 1, len(segs)):
            c, d, cb = segs[sj]
            if ca == cb:
                continue
            if (a.x, a.y) in ((c.x, c.y), (d.x, d.y)) or (b.x, b.y) in (
                (c.x, c.y),
                (d.x, d.y),
            ):
                continue
            o1 = _orient_banded(a, b, c)
            o2 = _orient_banded(a, b, d)
            o3 = _orient_banded(c, d, a)
            o4 = _orient_banded(c, d, b)
            if (o1 and o2 and o1 == o2) or (o3 and o4 and o3 == o4):
                continue  # strictly same side: no proper crossing
            if o1 and o2 and o3 and o4:
                return "crossed"
            inconclusive = True
    return "inconclusive" if inconclusive else "separable"
