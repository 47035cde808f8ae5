"""Both whole-level numpy builders against their point-by-point twins.

Each level is built twice from the same lower levels: by the solver's
`build_level` on the tree index, and by the scalar twin on the naive
index (`greedy_reference.py`, `weighted_reference.py`).  The two must hold
the same candidates under the same ids (run, owner, parent row, value bit
for bit, and the witness set rebuilt from the parents) and give the same
answers later levels read: every bucket and global chain, and for the
unweighted search the cheapest full id.  An unweighted level's values are
all its level, whatever the instance's weights, and each of its one-entry
chains is the weighted DP's staircase over the same rows cut to its last,
farthest entry.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

import greedy_reference
import weighted_reference
from conftest import tangent_chain_instances
from diskdom import gen_random
from diskdom.instance_io import load_instance_document
from diskdom.neighbor_index import build_neighbor_index
from diskdom.unweighted_greedy import build_level
from diskdom.weighted_dp import LevelTable
from diskdom.weighted_dp import build_level as build_weighted_level
from greedy_reference import farthest_entry
from query_reference import NaiveNeighborIndex
from test_weighted_dp import oracle_instances

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
FAMILIES = ("circle", "ellipse", "perturbed-polygon")
RADIUS_LAWS = (
    "uniform(0.7,1.8)",
    "uniform(0.5,2.5)",
    "uniform(1.0,3.0)",
    "lognormal(0,0.6)",
    "uniform(4.0,9.0)",
)


def assert_levels_agree(inst) -> int:
    """Build levels until the first full one, comparing both builders; return its level."""
    nbr, naive = build_neighbor_index(inst), NaiveNeighborIndex(inst)
    n = inst.n
    levels = [None]
    for t in range(1, n + 1):
        level = build_level(inst, nbr, levels, t)
        twin = greedy_reference.build_level(inst, naive, levels, t)
        for column in ("starts", "lengths", "owners", "parents"):
            assert np.array_equal(getattr(level, column), getattr(twin, column)), (t, column)
        assert np.array_equal(level.values.view(np.int64), twin.values.view(np.int64)), t
        assert (level.values == t).all(), t  # unit weights, not the instance's
        for c in range(len(level.starts)):
            assert level.witnesses(c) == twin.witnesses(c), (t, c)
        runs = level.starts, level.lengths, level.owners, level.values, level.parents
        staircases = LevelTable(inst, t, levels, *runs)
        for ccw in (True, False):
            for bucket in (True, False):
                got = level.chains(bucket=bucket, ccw=ccw)
                want = twin.chains(bucket=bucket, ccw=ccw)
                assert all(map(np.array_equal, got, want)), (t, ccw, bucket)
                assert (np.diff(got[0]) <= 1).all(), (t, ccw, bucket)  # one entry at most
                for anchor in range(n):
                    cut = farthest_entry(staircases, anchor, bucket=bucket, ccw=ccw)
                    assert farthest_entry(level, anchor, bucket=bucket, ccw=ccw) == cut
        assert level.cheapest_full() == twin.cheapest_full(), t
        levels.append(level)
        if level.cheapest_full() >= 0:
            return t
    raise AssertionError("no full candidate by level n")


def test_levels_agree_on_fixed_instances():
    fixed = list(oracle_instances())
    fixed += [load_instance_document(p.read_text()).to_instance(weighted=False) for p in CORPUS]
    chains = [inst for _, inst in tangent_chain_instances()]
    assert len(CORPUS) >= 8 and len(chains) == 34
    for inst in fixed + chains:
        assert_levels_agree(inst)


def test_levels_agree_on_random_instances():
    deepest = 0
    for seed in range(200):
        n = 3 + seed * 7 % 58  # every n in 3..60
        doc = gen_random(n, 50_000 + seed, FAMILIES[seed % 3], RADIUS_LAWS[seed % 5], "unit")
        inst = doc.to_instance(weighted=False)
        if seed % 2:
            inst = small_integer_weights(inst, seed)  # which the search must not read
        deepest = max(deepest, assert_levels_agree(inst))
    assert deepest >= 8  # some instances need many levels


# --- the weighted DP -----------------------------------------------------------

WEIGHTED_DEPTH = 4  # levels built per random instance: the scalar twin is slow


def small_integer_weights(inst, seed):
    """`inst` with weights 1, 2 or 3: many runs then arrive in equal-value copies."""
    weights = np.array([float(1 + (seed + 7 * i) % 3) for i in range(inst.n)])
    return replace(inst, ws=weights)


def assert_weighted_levels_agree(inst, depth) -> int:
    """Build levels 1..depth with both builders, comparing them; return the candidates kept."""
    nbr, naive = build_neighbor_index(inst), NaiveNeighborIndex(inst)
    n = inst.n
    levels = [None]
    for t in range(1, depth + 1):
        level = build_weighted_level(inst, nbr, levels, t)
        twin = weighted_reference.build_level(inst, naive, levels, t)
        for column in ("starts", "lengths", "owners", "parents"):
            assert np.array_equal(getattr(level, column), getattr(twin, column)), (t, column)
        assert np.array_equal(level.values.view(np.int64), twin.values.view(np.int64)), t
        for c in range(len(level.starts)):
            assert level.witnesses(c) == twin.witnesses(c), (t, c)
        for anchor in range(n):
            for ccw in (True, False):
                for bucket in (True, False):
                    got = weighted_reference.chain_of(level, anchor, bucket=bucket, ccw=ccw)
                    want = weighted_reference.chain_of(twin, anchor, bucket=bucket, ccw=ccw)
                    assert got.tolist() == want.tolist(), (t, anchor, ccw, bucket)
        levels.append(level)
    return sum(len(level.starts) for level in levels[1:])


def test_weighted_levels_agree_on_fixed_instances():
    fixed = list(oracle_instances())
    fixed += [load_instance_document(p.read_text()).to_instance() for p in CORPUS]
    chains = [inst for _, inst in tangent_chain_instances()]
    assert len(CORPUS) >= 8 and len(chains) == 34
    for inst in fixed + chains:
        assert_weighted_levels_agree(inst, min(inst.n, 6))


def test_weighted_levels_agree_on_random_instances():
    laws = ("uniform(1,10)", "lognormal(0,0.6)", "small integers")
    kept = 0
    for seed in range(200):
        n = 3 + seed * 7 % 58  # every n in 3..60
        law = laws[seed % 3]
        doc = gen_random(
            n, 60_000 + seed, FAMILIES[seed % 3], RADIUS_LAWS[seed % 5],
            "unit" if law == "small integers" else law,
        )
        inst = doc.to_instance()
        if law == "small integers":
            inst = small_integer_weights(inst, seed)
        kept += assert_weighted_levels_agree(inst, min(n, WEIGHTED_DEPTH))
    assert kept > 10_000
