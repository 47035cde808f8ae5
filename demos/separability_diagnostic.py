"""
Structure of optimal dominating sets
====================================

An optimal dominating set splits the points into groups: each point
joins its nearest chosen center, distance measured to the disk boundary
(an additively weighted nearest-center rule). Along the convex order
those groups appear as contiguous runs, and any two groups should be
separable by a line. This script computes the assignment for
brute-force optima and prints the diagnostic verdicts.
"""

from diskdom.instance_io import gen_figure1, gen_random
from diskdom.oracle import (
    brute_force_min,
    check_domination_of_assignment,
    check_line_separable,
    voronoi_assignment,
)

verdicts = {"separable": 0, "crossed": 0}

for seed in range(25):
    doc = gen_random(4 + seed % 9, 7000 + seed, "circle", "uniform(0.8,3.2)", "unit")
    instance = doc.to_instance(weighted=False)
    optimum = brute_force_min(instance, "unweighted")
    chosen = instance.to_canonical(optimum.centers)
    assignment = voronoi_assignment(instance, chosen)
    assert check_domination_of_assignment(instance, assignment)
    verdict = check_line_separable(instance, assignment)
    verdicts[verdict] += 1
    runs = [length for _, (_, length) in assignment.groups]
    print(f"seed {7000 + seed}: optimum size {optimum.size}, "
          f"group runs {runs}, separability: {verdict}")

# The figure-style instance shows why groups are runs, plural: the big
# disk's group is chopped into singleton runs by the isolated disks
# interleaved with it.
instance = gen_figure1(13).to_instance(weighted=False)
optimum = brute_force_min(instance, "unweighted")
chosen = instance.to_canonical(optimum.centers)
assignment = voronoi_assignment(instance, chosen)
big = max(range(instance.n), key=lambda i: instance.disks[i].radius)
big_runs = [run for owner, run in assignment.groups if owner == big]
print(f"\nfigure instance: the big disk's group spans {len(big_runs)} separate runs")
assert len(big_runs) >= 3

print(f"\nverdicts over all diagnostics: {verdicts} (never 'crossed')")
assert verdicts["crossed"] == 0
