"""Spans around the calls into each layer of diskdom, recorded from outside.

`Tracer.install()` replaces each layer entry point listed in `SPANS` with
a wrapper, at every name its callers look up it by: functions are swapped
in every loaded diskdom module that imported them (`union_extend` lives in
both solvers' namespaces), methods on their class. A wrapper records one
span: name, start, end, parent span and operation id, plus an optional
integer probe taken from the call's arguments (index size, queried disk).

Spans stay in memory and are written out once, at the end of the run.
Self time is a span's duration minus the durations of its child spans,
accumulated as the spans close.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# module -> entry points wrapped in it; "Class.method" names a method.
SPANS = {
    "instance_io": [
        "load_instance_document",
        "InstanceDocument.to_instance",
        "solution_document",
        "SolutionDocument.to_json",
    ],
    "geometry": ["canonicalize", "union_extend"],
    "neighbor_index": [
        "build_neighbor_index",
        "_BitsetNeighborIndex.first_disjoint_ccw",
        "_BitsetNeighborIndex.first_disjoint_cw",
    ],
    "sublist_queries": [
        "MinEnclosingIndex.__init__",
        "MinEnclosingIndex.min_enclosing",
        "FarthestEnclosingIndex.__init__",
        "FarthestEnclosingIndex.farthest_ccw",
        "FarthestEnclosingIndex.farthest_cw",
    ],
    "weighted_dp": [
        "solve_weighted",
        "init_level_one",
        "LevelTable.insert",
        "LevelTable.freeze",
        "LevelTable.bucket_chain_ccw",
        "LevelTable.bucket_chain_cw",
        "LevelTable.global_chain_ccw",
        "LevelTable.global_chain_cw",
    ],
    "unweighted_greedy": [
        "solve_unweighted",
        "GreedyLevel.insert",
        "GreedyLevel.freeze",
        "greedy_ccw_step",
        "greedy_cw_step",
        "greedy_bidirectional_step",
    ],
    "oracle": ["verify", "build_masks", "verify_by_masks", "verify_by_predicate"],
}

# Integer recorded with a span, taken from the wrapped call's arguments.
PROBES = {
    "sublist_queries.MinEnclosingIndex.__init__": lambda args: len(args[1]),
    "weighted_dp.LevelTable.freeze": lambda args: sum(map(len, args[0].buckets)),
    "neighbor_index._BitsetNeighborIndex.first_disjoint_ccw": lambda args: args[1],
    "neighbor_index._BitsetNeighborIndex.first_disjoint_cw": lambda args: args[1],
}

OPERATION = "operation"  # root span the benchmark opens around each solve
FIELDS = ("name", "id", "parent", "op", "start", "end", "self", "probe")
SPAN_DTYPE = np.dtype([
    ("name", "u2"), ("id", "u4"), ("parent", "i4"), ("op", "u2"),
    ("start", "f8"), ("end", "f8"), ("probe", "i4"),
])


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [OPERATION]
        self.spans = array("d")  # len(FIELDS) values per closed span
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack = [[-1, 0.0]]  # [span id, child time] of each open span
        self._op = -1
        self._restore = []

    # -- installing the wrappers ----------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("diskdom")]
        for mod_name, entries in SPANS.items():
            mod = sys.modules.get(f"diskdom.{mod_name}")
            for entry in entries:
                owner = mod
                for part in entry.split(".")[:-1]:
                    owner = getattr(owner, part, None)
                attr = entry.split(".")[-1]
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{mod_name}.{entry}")
                    continue
                full = f"{mod_name}.{entry}"
                wrapper = self._wrap(original, full, PROBES.get(full))
                if owner is mod:
                    # every module namespace that imported the function by name
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._swap(m, key, wrapper)
                else:
                    self._swap(owner, attr, wrapper)

    def _swap(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, fn, name, probe):
        name_id = len(self.names)
        self.names.append(name)
        clock = self.clock
        stack = self._stack
        ids = self._ids
        extend = self.spans.extend
        tracer = self

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0]
            value = probe(args) if probe is not None else 0
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][1] += t1 - t0
                extend((name_id, frame[0], parent, tracer._op, t0, t1, t1 - t0 - frame[1], value))

        return traced

    # -- operations -------------------------------------------------------

    def run_operation(self, op_id: int, fn):
        """Call fn() inside the root span of operation op_id."""
        self._op = op_id
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            return fn()
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans.extend((0, frame[0], -1, op_id, t0, t1, t1 - t0 - frame[1], 0))
            self._op = -1

    # -- results ----------------------------------------------------------

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.float64).reshape(-1, len(FIELDS))

    def save(self, path: Path) -> None:
        """Write every span; self times are left out, they follow from the
        parent links."""
        t = self.table()
        spans = np.empty(len(t), dtype=SPAN_DTYPE)
        for column, field in enumerate(FIELDS):
            if field in spans.dtype.names:
                spans[field] = t[:, column]
        np.savez(path, names=np.array(self.names), spans=spans)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit).

        Counts and `*_s` self times are means per operation; a `share` is
        a self time divided by the operations' own time.
        """
        t = self.table()
        name_ids = t[:, 0].astype(np.int64)
        size = len(self.names)

        def by_name(weights=None):
            return dict(zip(self.names, np.bincount(name_ids, weights, size).tolist()))

        calls, self_s, probe = by_name(), by_name(t[:, 6]), by_name(t[:, 7])
        ops = calls[OPERATION]
        op_time = float((t[name_ids == 0, 5] - t[name_ids == 0, 4]).sum())

        def of(table, module, *entries):
            """Sum over a module's spans, or over the named ones only."""
            prefix = module + "."
            return sum(
                v for k, v in table.items()
                if k.startswith(prefix) and (not entries or k[len(prefix):] in entries)
            )

        queries = ("_BitsetNeighborIndex.first_disjoint_ccw", "_BitsetNeighborIndex.first_disjoint_cw")
        query_ids = [self.names.index(f"neighbor_index.{q}") for q in queries
                     if f"neighbor_index.{q}" in self.names]
        asked = t[np.isin(name_ids, query_ids)][:, [3, 7]]  # (operation, disk)
        rows = len(np.unique(asked, axis=0)) if len(asked) else 0
        min_query = ("MinEnclosingIndex.min_enclosing",)
        far_query = ("FarthestEnclosingIndex.farthest_ccw", "FarthestEnclosingIndex.farthest_cw")
        chains = tuple(f"LevelTable.{a}_chain_{b}" for a in ("bucket", "global") for b in ("ccw", "cw"))
        steps = ("greedy_ccw_step", "greedy_cw_step", "greedy_bidirectional_step")
        inserts = of(calls, "weighted_dp", "LevelTable.insert")
        kept = of(probe, "weighted_dp", "LevelTable.freeze")
        dp_insert_s = of(self_s, "weighted_dp", "LevelTable.insert")
        dp_chain_s = of(self_s, "weighted_dp", *chains)
        step_s = of(self_s, "unweighted_greedy", *steps)

        def per_op(value, unit="count"):
            return (value / ops, unit)

        def share(value):
            return (value / op_time, "share")

        m = {
            "instance_io.load_s": per_op(of(self_s, "instance_io", "load_instance_document", "InstanceDocument.to_instance"), "s"),
            "instance_io.write_s": per_op(of(self_s, "instance_io", "solution_document", "SolutionDocument.to_json"), "s"),
            "geometry.canonicalize_s": per_op(of(self_s, "geometry", "canonicalize"), "s"),
            "geometry.union_extend_calls": per_op(of(calls, "geometry", "union_extend")),
            "geometry.union_extend_s": per_op(of(self_s, "geometry", "union_extend"), "s"),
            "neighbor_index.rows": per_op(rows),
            "neighbor_index.queries": per_op(of(calls, "neighbor_index", *queries)),
            "neighbor_index.query_s": per_op(of(self_s, "neighbor_index", *queries), "s"),
            "sublist_queries.min_builds": per_op(of(calls, "sublist_queries", "MinEnclosingIndex.__init__")),
            "sublist_queries.min_items": per_op(of(probe, "sublist_queries", "MinEnclosingIndex.__init__")),
            "sublist_queries.min_build_share": share(of(self_s, "sublist_queries", "MinEnclosingIndex.__init__")),
            "sublist_queries.min_queries": per_op(of(calls, "sublist_queries", *min_query)),
            "sublist_queries.min_query_share": share(of(self_s, "sublist_queries", *min_query)),
            "sublist_queries.far_builds": per_op(of(calls, "sublist_queries", "FarthestEnclosingIndex.__init__")),
            "sublist_queries.far_build_share": share(of(self_s, "sublist_queries", "FarthestEnclosingIndex.__init__")),
            "sublist_queries.far_queries": per_op(of(calls, "sublist_queries", *far_query)),
            "sublist_queries.far_query_share": share(of(self_s, "sublist_queries", *far_query)),
            "weighted_dp.levels": per_op(of(calls, "weighted_dp", "LevelTable.freeze")),
            "weighted_dp.inserts": per_op(inserts),
            "weighted_dp.kept": per_op(kept),
            "weighted_dp.keep_ratio": (kept / inserts if inserts else 0.0, "ratio"),
            "weighted_dp.insert_share": share(dp_insert_s),
            "weighted_dp.chain_share": share(dp_chain_s),
            "weighted_dp.self_share": share(of(self_s, "weighted_dp") - dp_insert_s - dp_chain_s),
            "unweighted_greedy.levels": per_op(of(calls, "unweighted_greedy", "GreedyLevel.freeze")),
            "unweighted_greedy.inserts": per_op(of(calls, "unweighted_greedy", "GreedyLevel.insert")),
            "unweighted_greedy.steps": per_op(of(calls, "unweighted_greedy", *steps)),
            "unweighted_greedy.step_share": share(step_s),
            "unweighted_greedy.self_share": share(of(self_s, "unweighted_greedy") - step_s),
            "oracle.mask_builds": per_op(of(calls, "oracle", "build_masks")),
            "oracle.verify_s": per_op(of(self_s, "oracle"), "s"),
        }
        for module in SPANS:
            m[f"{module}.share"] = share(of(self_s, module))
        return m
