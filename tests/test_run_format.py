"""Both solvers carry runs as (start, length) integers on every default path.

`CyclicSublist`, the run as a value, lives with the scalar merges
`union_runs` and `union_extend` in the tests' `run_reference`; the package
merges runs only row-wise (`geometry.union_columns`) and has no run type.
"""

import sys

import diskdom
import diskdom.geometry
from diskdom import gen_random
from diskdom.unweighted_greedy import solve_unweighted
from diskdom.weighted_dp import solve_weighted
from run_reference import CyclicSublist


def test_default_solves_build_no_cyclic_sublists(monkeypatch):
    built = []
    post_init = CyclicSublist.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CyclicSublist, "__post_init__", counting)
    weighted = gen_random(60, 1000, "circle", "uniform(2.0,6.0)", "uniform(1,10)")
    solve_weighted(weighted.to_instance(), 6)
    unweighted = gen_random(2000, 1001, "circle", "uniform(1.0,3.0)", "unit")
    solve_unweighted(unweighted.to_instance(weighted=False))
    assert built == []
    CyclicSublist(0, 1, 2)  # the counter sees constructions
    assert len(built) == 1
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "diskdom"]
    assert modules and not any(hasattr(m, "CyclicSublist") for m in modules)


def test_geometry_has_no_sublist_merge():
    for name in ("union_extend", "union_runs", "CyclicSublist"):
        assert not hasattr(diskdom.geometry, name)
    assert "CyclicSublist" not in diskdom.__all__
