"""The global invariant check, kept as the reference for `solution.check_level`.

The solvers never run this module.  `check_level` checks each row of a
level against its parents only, and reaches the whole witness set by
induction over the levels.  The reference rebuilds a row as an object
(`candidate_of`: a `Candidate` with its value) holding its whole witness
set, and checks that set against every disk of the run with one block
of `intersects_row` (`reference_check`): the owner is a witness and lies inside its run,
there are no more witnesses than the level, every disk of the run meets
one, and the witnesses weigh at most the value under the weights the
solver's values sum (the instance's in the weighted DP, ones in the
unweighted search).

`recording_checks` records the rows a solver module hands `check_level`.
`CORRUPTIONS` breaks one rule of `check_level` in one row of a built
level of `ring`, each.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

import diskdom.unweighted_greedy as ug
import diskdom.weighted_dp as wdp
from conftest import mk_instance
from diskdom.geometry import intersects_row
from diskdom.neighbor_index import build_neighbor_index
from diskdom.solution import VALUE_SLACK, RunLevel, SolverInvariantError, check_level

# -- the global check -------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """The run (start, length) through `owner`, dominated by `witnesses`, costing <= `value`."""

    start: int
    length: int
    value: float
    witnesses: frozenset[int]
    owner: int
    level: int


def candidate_of(level, ident: int) -> Candidate:
    """Row `ident` of a level as a `Candidate`, its witnesses rebuilt."""
    start, length, owner = (int(col[ident]) for col in (level.starts, level.lengths, level.owners))
    value = float(level.values[ident])
    return Candidate(start, length, value, level.witnesses(ident), owner, level.level)


def reference_check(instance, cand: Candidate, weights) -> None:
    """The global check of one candidate, its witnesses weighed by `weights`.

    The owner must be a witness inside the run, there may be no more
    witnesses than the level, every disk of the run must meet some
    witness, and the witnesses may weigh no more than the value.
    Failures raise SolverInvariantError.
    """
    n = instance.n
    if cand.owner not in cand.witnesses:
        raise SolverInvariantError(f"owner is not a witness: {cand}")
    if (cand.owner - cand.start) % n >= cand.length:
        raise SolverInvariantError(f"owner outside its run: {cand}")
    if len(cand.witnesses) > cand.level:
        raise SolverInvariantError(f"more witnesses than the level: {cand}")
    run = (cand.start + np.arange(cand.length)) % n
    witnesses = np.array(sorted(cand.witnesses))
    met = intersects_row(instance.xs, instance.ys, instance.rs, run[:, None], witnesses).any(axis=1)
    if not met.all():
        raise SolverInvariantError(f"disk {run[np.argmin(met)]} undominated: {cand}")
    total = math.fsum(weights[sorted(cand.witnesses)].tolist())
    if total > cand.value + VALUE_SLACK * max(1.0, abs(cand.value)):
        raise SolverInvariantError(f"witnesses weigh {total}: {cand}")


# -- the rows check_level receives ---------------------------------------------------


class CheckedRows(NamedTuple):
    """One `check_level` call's arguments, in its order."""

    nbr: object
    levels: list
    t: int
    owners: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    parents: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def check(self) -> None:
        check_level(*self)

    def level(self) -> RunLevel:
        """The rows as a level over `levels`."""
        runs = self.starts, self.lengths, self.owners
        return RunLevel(self.nbr.instance, self.t, self.levels, *runs, self.values, self.parents)

    def row(self, r: int) -> "CheckedRows":
        """Row r alone, its columns copied."""
        cols = (col[r : r + 1].copy() for col in self[3:8])
        return CheckedRows(self.nbr, self.levels, self.t, *cols, self.weights)

    def broken(self, column: str, value) -> "CheckedRows":
        """Row 0 alone, with `column` set to `value`."""
        rows = self.row(0)
        getattr(rows, column)[0] = value
        return rows


@contextmanager
def recording_checks(module):
    """Every `check_level` call `module` makes inside the block, as `CheckedRows`, still run."""
    seen = []

    def record(nbr, levels, t, *cols):
        rows = CheckedRows(nbr, list(levels[:t]), t, *cols)
        seen.append(rows)
        rows.check()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "check_level", record)
        yield seen


def checked_levels(instance, module, upto: int) -> list[CheckedRows]:
    """The rows `module.build_level` checks at levels 1..upto, built on the tree index."""
    nbr = build_neighbor_index(instance)
    levels = [None]
    with recording_checks(module) as seen:
        for t in range(1, upto + 1):
            levels.append(module.build_level(instance, nbr, levels, t, check_invariants=True))
    return seen


# -- one corruption per rule -----------------------------------------------------------


def ring(n: int = 8, *, weighted: bool = True):
    """n disks on a regular n-gon, each meeting its two neighbours only; weights 1 + k/n."""
    side = 20 * math.sin(math.pi / n)
    angles = [2 * math.pi * k / n for k in range(n)]
    disks = [
        (10 * math.cos(a), 10 * math.sin(a), 0.6 * side, 1 + k / n) for k, a in enumerate(angles)
    ]
    return mk_instance(disks, weighted=weighted)


def _first(mask) -> int:
    rows = np.flatnonzero(mask)
    if not len(rows):
        raise LookupError("no row to corrupt")
    return int(rows[0])


def _parent_owner(rows: CheckedRows, which: int) -> np.ndarray:
    """Per row, the owner of parent `which` (0: l1, 1: l2)."""
    t_, c = rows.parents[:, 2 * which], rows.parents[:, 2 * which + 1]
    return np.array([rows.levels[a].owners[b] for a, b in zip(t_, c)])


def _too_many_witnesses(rows: CheckedRows) -> None:
    # a level-1 l1 swapped for a level-2 row of the owner, beside a level-2
    # l2 of another owner: 2 + 2 witnesses at level 3
    p = rows.parents
    r = _first((p[:, 0] == 1) & (p[:, 2] == 2) & (_parent_owner(rows, 1) != rows.owners))
    p[r, :2] = 2, _first(rows.levels[2].owners == rows.owners[r])


def _gap(rows: CheckedRows) -> None:
    # l2 becomes the level-1 row of the opposite disk, far from the owner's runs
    r, n = 0, rows.nbr.n
    rows.parents[r, 3] = (rows.owners[r] + n // 2) % n
    rows.values[r] += 100.0  # no lower than the new parents allow


def _owner_outside(rows: CheckedRows) -> None:
    r = _first(rows.lengths < rows.nbr.n)
    rows.starts[r] = (rows.owners[r] + 1) % rows.nbr.n


def _undominated_tail(rows: CheckedRows) -> None:
    inst, n = rows.nbr.instance, rows.nbr.n
    ends = (rows.starts + rows.lengths) % n
    misses = ~intersects_row(inst.xs, inst.ys, inst.rs, rows.owners, ends)
    rows.lengths[_first((rows.lengths <= n - 2) & misses)] += 1


def _parts_leave_the_run(rows: CheckedRows) -> None:
    # the run cut back to the owner's dominated run, though l2 reaches past it
    r = _first(rows.lengths < rows.nbr.n)
    rows.starts[r], rows.lengths[r] = (x[rows.owners[r]] for x in rows.nbr.dominated_runs)


def _set(column: str, row_value):
    def corrupt(rows: CheckedRows) -> None:
        getattr(rows, column)[0] = row_value(rows)

    return corrupt


# name -> (level, corruption, words of the raised rule); each applies to both solvers
CORRUPTIONS = {
    "level-1 run is not the dominated run": (
        1, _set("lengths", lambda rows: rows.lengths[0] + 1), "dominated run"
    ),
    "lowered level-1 value": (1, _set("values", lambda rows: rows.values[0] - 0.25),
                              "owner's weight"),
    "parent level >= t": (2, _set("parents", lambda rows: (2, 0, 1, 0)), "parent level"),
    "missing l2": (2, _set("parents", lambda rows: (1, rows.owners[0], -1, -1)), "parent level"),
    "parent id out of range": (
        2, _set("parents", lambda rows: (1, rows.nbr.n, 1, rows.owners[0])), "parent id"
    ),
    "owner does not own l1": (
        2, _set("parents", lambda rows: (1, (rows.owners[0] + 1) % rows.nbr.n, 1, rows.owners[0])),
        "does not own l1",
    ),
    "too many witnesses": (3, _too_many_witnesses, "more than t witnesses"),
    "lowered value": (2, _set("values", lambda rows: 0.0), "value below"),
    "gap between the parts": (2, _gap, "gap between the parts"),
    "owner outside its run": (2, _owner_outside, "owner outside its run"),
    "undominated disk in the tail": (2, _undominated_tail, "misses the owner"),
    "parts leave the run": (2, _parts_leave_the_run, "parts leave the run"),
}


def corrupted(name: str, *, weighted: bool) -> tuple[CheckedRows, str]:
    """Ring rows one solver checks at the corruption's level, broken; and the rule's words."""
    t, corrupt, words = CORRUPTIONS[name]
    module = wdp if weighted else ug
    rows = checked_levels(ring(weighted=weighted), module, t)[t - 1]
    rows = CheckedRows(*rows[:3], *(col.copy() for col in rows[3:8]), rows.weights)
    corrupt(rows)
    return rows, words


def rejects(rows: CheckedRows, words: str) -> bool:
    """Whether `check_level` raises SolverInvariantError naming the rule `words` on the rows."""
    try:
        rows.check()
    except SolverInvariantError as exc:
        return words in str(exc)
    return False
