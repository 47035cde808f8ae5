"""The benchmark's own tests: its correctness checks must catch wrong answers.

    python3 -m pytest -q perfbench/selftest.py

Each workload's first instance is set up and solved once (smoke mode);
the checks are then fed doctored copies of that output, made consistent
between stdout and the solution file so that only the check under test
can notice. Each doctored operation must be counted as failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def smoke():
    cli = run.import_diskdom()
    cache = {}

    def solve(name):
        if name not in cache:
            workload = WORKLOADS[name]
            run.setup(workload, SEED, runs=1)
            ops = run.solve_rounds(cli, workload, 0.0, smoke=True, clock=run.ReferenceClock())
            disks = checks.load_disks(workload.instance_path(run.workdir_for(workload), 0))
            cache[name] = (workload, ops[0], disks)
        return cache[name]

    return solve


def doctored(op, centers, weight):
    """`op` reporting `centers` and `weight`, in stdout and solution file alike."""
    centers = sorted(centers)
    doc = json.loads(op.solution)
    doc.update(size=len(centers), weight=weight, centers=centers)
    return dataclasses.replace(
        op,
        stdout=f"size={len(centers)} weight={weight!r} centers={centers}\n",
        solution=json.dumps(doc),
    )


def reported(op):
    doc = json.loads(op.solution)
    return doc["centers"], doc["weight"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_solver_output_passes(smoke, name):
    workload, op, _ = smoke(name)
    assert run.check_all(workload, [op]) == (0, True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_set_missing_a_disk_fails(smoke, name, capsys):
    # one center swapped for a disk that leaves some disk undominated, so
    # the unweighted size is still the optimum
    workload, op, disks = smoke(name)
    centers, _ = reported(op)
    rest = centers[1:]
    swapped = next(
        rest + [d] for d in range(disks.n)
        if d not in centers and not checks.dominates(disks, rest + [d])
    )
    bad = doctored(op, swapped, math.fsum(disks.w[swapped]))
    assert run.check_all(workload, [bad]) == (1, False)
    assert "do not dominate" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["unweighted_wide", "unweighted_deep"])
def test_size_above_optimum_fails(smoke, name, capsys):
    workload, op, disks = smoke(name)
    centers, _ = reported(op)
    extra = next(i for i in range(disks.n) if i not in centers)
    bigger = centers + [extra]
    assert checks.dominates(disks, bigger)
    bad = doctored(op, bigger, math.fsum(disks.w[bigger]))
    assert run.check_all(workload, [bad]) == (1, False)
    assert f"size {len(bigger)}, optimum {len(centers)}" in capsys.readouterr().err


def test_weight_off_by_a_millionth_fails(smoke, capsys):
    workload, op, disks = smoke("weighted_k6")
    centers, weight = reported(op)
    bad = doctored(op, centers, weight + 1e-6)
    assert run.check_all(workload, [bad]) == (1, False)
    err = capsys.readouterr().err
    assert "is not the centers' total weight" in err
    assert ", optimum " in err


def test_failed_exit_counts_as_failed_not_wrong(smoke):
    workload, op, _ = smoke("weighted_k6")
    bad = dataclasses.replace(op, exit_code=1, stdout="infeasible\n", solution="")
    assert run.check_all(workload, [bad]) == (1, True)
