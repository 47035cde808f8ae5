"""The benchmark's workloads: which instances each one solves, and how.

Every workload is a closed loop with one client. A round solves each of
the workload's instance files once through `diskdom solve`; a run repeats
whole rounds, so the mix of instances is the same however fast the
machine is.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    radius_law: str
    weight_law: str
    k: Optional[int]  # `solve --weighted --k`; None solves unweighted
    instances: int  # instance files per round
    reference: str  # how the optimum is certified: "ip" or "counting"

    @property
    def weighted(self) -> bool:
        return self.k is not None

    def instance_seed(self, seed: int, index: int) -> int:
        return seed * 1000 + index

    def instance_path(self, workdir: Path, index: int) -> Path:
        return workdir / f"inst{index}.json"

    def solution_path(self, workdir: Path, index: int) -> Path:
        return workdir / f"sol{index}.json"

    def solve_argv(self, workdir: Path, index: int) -> list[str]:
        argv = [
            "solve",
            "--in", str(self.instance_path(workdir, index)),
            "--out", str(self.solution_path(workdir, index)),
        ]
        if self.weighted:
            argv += ["--weighted", "--k", str(self.k)]
        return argv

    def write_instances(self, seed: int, workdir: Path) -> None:
        """Generate and write this workload's instance files (imports diskdom)."""
        from diskdom import gen_random

        for index in range(self.instances):
            doc = gen_random(
                self.n,
                self.instance_seed(seed, index),
                "circle",
                self.radius_law,
                self.weight_law,
            )
            self.instance_path(workdir, index).write_text(doc.to_json())


WORKLOADS = {
    w.name: w
    for w in (
        # Weighted level-building DP: MinEnclosingIndex builds, union_extend
        # and candidate inserts dominate; rows and verify cost next to nothing.
        # The DP's work varies by about 22% from instance to instance at any
        # n, so the round needs many instances: 36 at the size of the
        # repository's weighted gate fit the run where 16 at n=100 did.
        Workload(
            "weighted_k6", 60, "uniform(2.0,6.0)", "uniform(1,10)",
            k=6, instances=36, reference="ip",
        ),
        # Few levels over many disks: bitset neighbor rows (O(n^2/8) bytes),
        # parsing and canonicalizing; verify takes its numpy route (n > 4096).
        Workload(
            "unweighted_wide", 16000, "uniform(4.5,7.5)", "unit",
            k=None, instances=3, reference="counting",
        ),
        # Many levels: greedy steps, farthest queries and union_extend; verify
        # takes the O(n^2) pure-Python mask route (n <= 4096).
        Workload(
            "unweighted_deep", 2000, "uniform(1.0,3.0)", "unit",
            k=None, instances=5, reference="ip",
        ),
    )
}
