"""Correctness checks computed apart from the program under test.

Disks are read straight from the instance JSON and compared with the
closed squared-distance predicate dx^2 + dy^2 <= (r1 + r2)^2, so tangency
counts as intersecting. Optima come from an exact integer program (scipy's
HiGHS with zero relative gap), from its linear relaxation's rounded-up
bound when an answer meets it, or, for the wide workload, from the
counting lower bound ceil(n / largest closed neighbourhood).

scipy is imported lazily: the checks run after the timed loop and after
peak RSS is read, so neither its import nor its work shows in the
end-to-end metrics.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from functools import cache
from typing import Callable, Optional

import numpy as np

WEIGHT_RTOL = 1e-9
# HiGHS stops at an absolute gap of 1e-6; scaling the weights makes that
# gap far smaller than WEIGHT_RTOL of any optimum.
IP_WEIGHT_SCALE = 1e6
ROW_CHUNK = 128  # rows per vectorized pass over an n-column block

_SUMMARY = re.compile(r"size=(\d+) weight=(\S+) centers=\[([0-9, ]*)\]")


@dataclass(frozen=True)
class Disks:
    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class Reference:
    """The certified optimum of one instance: a size or a weight.

    With `exact_size`, `size` is only a lower bound: an answer of that size
    is optimal, and any other answer is judged by `exact_size()`.
    """

    size: Optional[int] = None
    weight: Optional[float] = None
    exact_size: Optional[Callable[[], int]] = None


def load_disks(path: Path) -> Disks:
    points = json.loads(path.read_text())["points"]
    cols = [np.array([p[key] for p in points], dtype=np.float64) for key in "xyrw"]
    return Disks(*cols)


def closed_hits(disks: Disks, rows, first_column: int = 0) -> np.ndarray:
    """hits[a, b]: disk rows[a] meets disk first_column + b under the
    closed predicate."""
    rows = np.asarray(rows)
    cols = slice(first_column, None)
    dx = disks.x[None, cols] - disks.x[rows, None]
    dy = disks.y[None, cols] - disks.y[rows, None]
    rr = disks.r[None, cols] + disks.r[rows, None]
    return dx * dx + dy * dy <= rr * rr


def dominates(disks: Disks, centers) -> bool:
    if not centers:
        return False
    return bool(closed_hits(disks, list(centers)).any(axis=0).all())


def largest_neighbourhood(disks: Disks) -> int:
    """Largest closed neighbourhood (the disk itself included).

    Each pair is tested once: a block of rows against the columns from its
    first row on, with the block's own pairs j <= i masked out.
    """
    counts = np.ones(disks.n, dtype=np.int64)
    for lo in range(0, disks.n, ROW_CHUNK):
        rows = np.arange(lo, min(lo + ROW_CHUNK, disks.n))
        hits = closed_hits(disks, rows, first_column=lo)
        hits[:, : len(rows)] &= np.triu(np.ones((len(rows), len(rows)), dtype=bool), 1)
        counts[rows] += hits.sum(axis=1)
        counts[lo:] += hits.sum(axis=0)
    return int(counts.max())


def counting_bound(disks: Disks) -> int:
    """Every disk dominates at most its closed neighbourhood."""
    return -(-disks.n // largest_neighbourhood(disks))


def cover_matrix(disks: Disks):
    """Sparse closed intersection matrix; row j lists j's dominators."""
    from scipy import sparse

    blocks = []
    for lo in range(0, disks.n, ROW_CHUNK):
        rows = np.arange(lo, min(lo + ROW_CHUNK, disks.n))
        blocks.append(sparse.csr_matrix(closed_hits(disks, rows), dtype=np.float64))
    return sparse.vstack(blocks).tocsr()


def lp_bound(disks: Disks) -> int:
    """Lower bound on the minimum dominating set size: the rounded-up
    optimum of the integer program's linear relaxation."""
    from scipy.optimize import linprog

    res = linprog(
        np.ones(disks.n), A_ub=-cover_matrix(disks), b_ub=-np.ones(disks.n),
        bounds=(0, 1), method="highs",
    )
    if not res.success:
        raise RuntimeError(f"linear relaxation failed: {res.message}")
    return math.ceil(res.fun - 1e-6)


def ip_optimum(disks: Disks, *, weighted: bool, max_size: Optional[int]) -> Reference:
    """Exact minimum dominating set by integer programming."""
    from scipy.optimize import LinearConstraint, milp

    n = disks.n
    constraints = [LinearConstraint(cover_matrix(disks), lb=1.0, ub=np.inf)]
    if max_size is not None:
        constraints.append(LinearConstraint(np.ones((1, n)), lb=0.0, ub=max_size))
    cost = disks.w * IP_WEIGHT_SCALE if weighted else np.ones(n)
    res = milp(
        cost,
        integrality=np.ones(n),
        bounds=(0, 1),
        constraints=constraints,
        options={"mip_rel_gap": 0.0},
    )
    if not res.success:
        raise RuntimeError(f"integer program failed: {res.message}")
    chosen = [int(i) for i in np.flatnonzero(res.x > 0.5)]
    if not dominates(disks, chosen):
        raise RuntimeError("integer program returned a non-dominating set")
    if weighted:
        return Reference(weight=math.fsum(disks.w[chosen]))
    return Reference(size=len(chosen))


def reference_optimum(workload, disks: Disks) -> Reference:
    if workload.reference == "counting":
        return Reference(size=counting_bound(disks))
    if workload.weighted:
        return ip_optimum(disks, weighted=True, max_size=workload.k)
    # the relaxation usually meets the optimum and costs a quarter of the
    # integer program, which then runs only for an answer above the bound
    exact = cache(lambda: ip_optimum(disks, weighted=False, max_size=workload.k).size)
    return Reference(size=lp_bound(disks), exact_size=exact)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= WEIGHT_RTOL * max(abs(a), abs(b))


def check_operation(workload, disks: Disks, ref: Reference, op) -> list[str]:
    """Problems with one operation's output; empty when it is correct.

    `op` carries the exit code, the captured stdout and the solution file.
    """
    if op.exit_code != 0:
        return [f"exit code {op.exit_code}"]
    m = _SUMMARY.fullmatch(op.stdout.strip())
    if m is None:
        return [f"unparsable stdout {op.stdout!r}"]
    size = int(m.group(1))
    weight = float(m.group(2))
    centers = [int(c) for c in m.group(3).split(",") if c.strip()]
    try:
        doc = json.loads(op.solution)
    except json.JSONDecodeError as exc:
        return [f"solution file is not JSON: {exc}"]
    problems = []
    if (doc.get("size"), doc.get("weight"), doc.get("centers")) != (size, weight, centers):
        problems.append("solution file disagrees with stdout")
    if doc.get("mode") != ("weighted" if workload.weighted else "unweighted"):
        problems.append(f"mode {doc.get('mode')!r}")
    if doc.get("k") != workload.k:
        problems.append(f"k {doc.get('k')!r}")
    if doc.get("verified") is not True:
        problems.append("solution file is not verified")
    if size != len(centers) or len(set(centers)) != size:
        return problems + [f"size {size} does not match centers {centers}"]
    if any(not 0 <= c < disks.n for c in centers):
        return problems + ["center index out of range"]
    if not dominates(disks, centers):
        problems.append("centers do not dominate under the closed predicate")
    if not _close(weight, math.fsum(disks.w[centers])):
        problems.append(f"weight {weight!r} is not the centers' total weight")
    if workload.k is not None and size > workload.k:
        problems.append(f"size {size} exceeds k={workload.k}")
    if ref.weight is not None and not _close(weight, ref.weight):
        problems.append(f"weight {weight!r}, optimum {ref.weight!r}")
    if ref.size is not None and size != ref.size:
        optimum = ref.size if ref.exact_size is None else ref.exact_size()
        if size != optimum:
            problems.append(f"size {size}, optimum {optimum}")
    return problems
