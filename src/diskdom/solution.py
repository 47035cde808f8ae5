"""Solver results and the failure modes shared by every solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal


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

    Raised instead of an `assert`, so the check survives `python -O`.
    """


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
