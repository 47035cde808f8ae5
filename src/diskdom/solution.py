"""Solver results and the failure modes shared by every solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .geometry import Instance, intersects

WEIGHT_TOLERANCE = 1e-9  # how far a stated weight may be from its centers' sum


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
    for c in chosen:
        weight += instance.disks[c].weight
    return Solution(
        centers=tuple(sorted(instance.to_original(chosen))),
        weight=weight,
        size=len(chosen),
        mode=mode,
    )


def check_dominated_run(instance: Instance, cand) -> None:
    """The validator checks both solvers share; failures raise SolverInvariantError.

    `cand` carries a run (`start`, `length`), `witnesses`, `owner` and
    `level`.  The owner must be a witness, there may be no more witnesses
    than the level, and every disk of the run must meet some witness.
    """
    if cand.owner not in cand.witnesses:
        raise SolverInvariantError(f"owner is not a witness: {cand}")
    if len(cand.witnesses) > cand.level:
        raise SolverInvariantError(f"more witnesses than the level: {cand}")
    disks = instance.disks
    n = len(disks)
    for k in range(cand.length):
        idx = (cand.start + k) % n
        if not any(intersects(disks[idx], disks[w]) for w in cand.witnesses):
            raise SolverInvariantError(f"disk {idx} undominated: {cand}")
