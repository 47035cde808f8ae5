"""`solution.check_level` against the global reference check (`invariant_reference.py`).

The column check looks at each row and its parents only.  Three things
hold it to the global check of whole witness sets: every row it accepts
from a real solve, the reference accepts too (the oracle test); every
row the reference rejects, it rejects too, over seeded random
corruptions of real rows (the soundness test); and each of its rules
raises on a row that breaks that rule alone.
"""

import random
from pathlib import Path

import numpy as np
import pytest

import diskdom.unweighted_greedy as ug
import diskdom.weighted_dp as wdp
from diskdom import gen_random
from diskdom.instance_io import load_instance_document
from diskdom.solution import SolverInvariantError
from invariant_reference import (
    CORRUPTIONS,
    CheckedRows,
    candidate_of,
    checked_levels,
    corrupted,
    recording_checks,
    reference_check,
    ring,
)

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
SOLVERS = {"weighted": True, "unweighted": False}


def oracle_instances():
    """The corpus, then 40 random instances of both kinds, as (instance, weighted) pairs."""
    for path in CORPUS:
        doc = load_instance_document(path.read_text())
        yield doc.to_instance(weighted=True), True
        yield doc.to_instance(weighted=False), False
    laws = ("uniform(0.5,2.5)", "uniform(1.0,3.0)", "uniform(2.0,6.0)", "lognormal(0,0.6)")
    families = ("circle", "ellipse", "perturbed-polygon")
    for seed in range(40):
        weighted = seed % 2 == 0
        doc = gen_random(
            6 + seed % 9, 70_000 + seed, families[seed % 3], laws[seed % 4],
            "uniform(1,10)" if weighted else "unit",
        )
        yield doc.to_instance(weighted=weighted), weighted


def test_reference_accepts_every_checked_row():
    rows = 0
    for inst, weighted in oracle_instances():
        with recording_checks(ug) as seen_u, recording_checks(wdp) as seen_w:
            if weighted:
                wdp.solve_weighted_all_k(inst, min(inst.n, 6), check_invariants=True)
            else:
                ug.solve_unweighted(inst, check_invariants=True)
        seen = seen_w if weighted else seen_u
        assert seen and not (seen_u if weighted else seen_w)
        for checked in seen:
            level = checked.level()
            for r in range(len(checked.owners)):
                reference_check(inst, candidate_of(level, r))
            rows += len(checked.owners)
    assert rows > 10_000


def _corrupt(rng, rows: CheckedRows) -> None:
    """Break row 0 of a one-row copy at random, as a bug might."""
    n, t = rows.nbr.n, rows.t
    kinds = ["start", "owner", "parent"] + (["longer"] if rows.lengths[0] < n else [])
    kinds += ["value"] if rows.values is not None else []
    kind = rng.choice(kinds)
    if kind == "start":
        rows.starts[0] = (rows.starts[0] + rng.choice((-2, -1, 1, 2))) % n
    elif kind == "longer":
        rows.lengths[0] = min(n, rows.lengths[0] + rng.randint(1, 3))
    elif kind == "owner":
        rows.owners[0] = (rows.owners[0] + rng.randint(1, n - 1)) % n
    elif kind == "value":
        rows.values[0] -= rng.uniform(0.05, 3.0)
    elif t == 1:
        rows.parents[0, :2] = 1, rng.randrange(n)
    else:
        a = rng.randrange(1, t)
        at = rng.choice((0, 2)) if rows.parents[0, 2] >= 0 else 0
        rows.parents[0, at : at + 2] = a, rng.randrange(len(rows.levels[a].owners))


def _raises(check, *args) -> bool:
    try:
        check(*args)
    except SolverInvariantError:
        return True
    return False


def test_no_row_the_reference_rejects_passes():
    rng = random.Random(1701)
    tried = rejected = misses = 0
    for seed in range(16):
        weighted = seed % 2 == 0
        law = ("uniform(0.5,2.5)", "uniform(1.0,3.0)")[seed % 2]
        doc = gen_random(
            6 + seed % 7, 71_000 + seed, "circle", law, "uniform(1,10)" if weighted else "unit"
        )
        inst = doc.to_instance(weighted=weighted)
        for checked in checked_levels(inst, wdp if weighted else ug, min(inst.n, 4)):
            for r in rng.sample(range(len(checked.owners)), min(25, len(checked.owners))):
                rows = checked.row(r)
                _corrupt(rng, rows)
                tried += 1
                if _raises(reference_check, inst, candidate_of(rows.level(), 0)):
                    rejected += 1
                    misses += not _raises(rows.check)
    assert misses == 0
    assert tried > 1000 and rejected > tried // 4, (tried, rejected)


def _cases():
    for name, (_, weighted_only, _, _) in CORRUPTIONS.items():
        for solver, weighted in SOLVERS.items():
            if weighted or not weighted_only:
                yield pytest.param(name, weighted, id=f"{solver}: {name}")


@pytest.mark.parametrize("name, weighted", list(_cases()))
def test_each_rule_raises(name, weighted):
    rows, words = corrupted(name, weighted=weighted)
    with pytest.raises(SolverInvariantError, match=words):
        rows.check()


@pytest.mark.parametrize("weighted", [True, False])
def test_uncorrupted_ring_rows_pass(weighted):
    # the rows every corruption starts from pass, and levels 2 and 3 join pairs
    seen = checked_levels(ring(weighted=weighted), wdp if weighted else ug, 3)
    assert [rows.t for rows in seen] == [1, 2, 3]
    for rows in seen:
        rows.check()
        assert np.any(rows.parents[:, 3] >= 0) or rows.t == 1
