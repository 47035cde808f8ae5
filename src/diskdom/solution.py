"""Solver results, the failure modes and the level columns shared by every solver."""

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
    for w in instance.ws[chosen].tolist():
        weight += w
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


class RunLevel:
    """One solver level's candidates as int64 columns, in id order; never changed.

    Candidate c has the run (`starts[c]`, `lengths[c]`) and the owner
    `owners[c]`.  Row c of `parents` is (level of l1, id of l1, level of
    l2, id of l2): the lower-level candidates it joins, -1 where there is
    no l2 and throughout level 1, where the owner is the witness.  `below`
    holds the lower levels by level.  A candidate becomes an object
    (`candidate_type`) only when `candidate` is asked for it.
    """

    candidate_type: type

    def __init__(self, instance: Instance, level: int, below, starts, lengths, owners, parents):
        self.instance = instance
        self.level = level
        self.below = below
        self.n = instance.n
        self.starts, self.lengths, self.owners, self.parents = starts, lengths, owners, parents
        self._witnesses: dict[int, frozenset[int]] = {}  # by id, as `witnesses` rebuilds them

    def witnesses(self, ident: int) -> frozenset[int]:
        """Candidate `ident`'s witness set: the owners its parents lead to at level 1.

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
                if missing:
                    todo += missing
                else:
                    sets = (p._witnesses[pc] for p, pc in parents)
                    level._witnesses[c] = frozenset().union(*sets)
                    todo.pop()
        return self._witnesses[ident]

    def candidate(self, ident: int):
        """Candidate `ident` as a `candidate_type`, with its rebuilt witness set.

        Built from (start, length, *`_extra(ident)`, witnesses, owner, level).
        """
        columns = (self.starts, self.lengths, self.owners)
        start, length, owner = (col[ident].item() for col in columns)
        extra = self._extra(ident)
        return self.candidate_type(start, length, *extra, self.witnesses(ident), owner, self.level)

    def _extra(self, ident: int) -> tuple:
        """Fields of `candidate_type` between the run and the witnesses."""
        return ()
