"""Both solvers carry runs as (start, length) integers on every default path.

`CyclicSublist` stays the public run value (assignment groups, reference
queries), but a default solve builds none, and the `CyclicSublist` merge
lives only in the tests' `run_reference`.
"""

import diskdom.geometry
from diskdom import gen_random
from diskdom.geometry import CyclicSublist
from diskdom.unweighted_greedy import solve_unweighted
from diskdom.weighted_dp import solve_weighted


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


def test_geometry_has_no_sublist_merge():
    assert not hasattr(diskdom.geometry, "union_extend")
