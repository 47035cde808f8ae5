"""Run the benchmark's workloads, each in its own process.

    python3 perfbench/suite.py all [--seed 1]
        every workload untraced, then traced: prints each metric of
        BENCHMARK.json by name and unit, the operations attempted and
        failed, and the tracing overhead.

    python3 perfbench/suite.py spread --workload unweighted_deep --runs 10 [--sets 2]
        runs one workload --runs times per set, each run on another seed,
        and prints every end-to-end metric's median and quartiles and the
        quartile spread as a share of the median. With --sets 2 the sets
        alternate which runs first and use disjoint seeds; the medians of
        the two sets are compared against each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    print(f"  {lines[-2]}")  # the run's summary line
    return json.loads(lines[-1])


def show(result: dict, specs: list[dict]) -> None:
    print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for spec in specs:
        got = result["metrics"][spec["name"]]
        print(f"  {spec['name']:40s} {got['value']!r} {got['unit']}")


def cmd_all(args) -> int:
    ok = True
    for w in SPEC["workloads"]:
        name = w["name"]
        print(f"== {name}: {w['why']}")
        plain = run_once(name, args.seed, args.seconds, trace=False)
        show(plain, SPEC["end_to_end"])
        traced = run_once(name, args.seed, args.seconds, trace=True)
        show(traced, SPEC["per_layer"])
        overhead = traced["metrics"]["trace.op_ref_p50"]["value"] / plain["metrics"]["solve_ref_p50"]["value"] - 1
        print(f"  tracing overhead: {overhead:+.1%} on solve_ref_p50")
        ok = ok and plain["correct"] and traced["correct"] and not plain["failed"] and not traced["failed"]
    return 0 if ok else 1


def spread_of(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def cmd_spread(args) -> int:
    sets: list[list[dict]] = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in order:
            seed = args.seed + s * args.runs + i
            result = run_once(args.workload, seed, args.seconds, trace=False)
            sets[s].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"set {s} seed {seed}: {values} attempted={result['attempted']} failed={result['failed']}")
    ok = True
    medians = []
    for s, results in enumerate(sets):
        print(f"set {s}: {len(results)} runs")
        row = {}
        for spec in SPEC["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            q1, q2, q3, share = spread_of(values)
            row[spec["name"]] = q2
            verdict = "" if spec["name"] == "setup_s" or share <= spec["bound"] else "  ABOVE BOUND"
            print(f"  {spec['name']:16s} median {q2:.5g} {spec['unit']}  quartiles {q1:.5g} .. {q3:.5g}"
                  f"  spread {share:.1%} of median (bound {spec['bound']:.0%}){verdict}")
            ok = ok and not verdict
        medians.append(row)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  failed {failed} of {attempted} operations")
    for spec in SPEC["end_to_end"]:
        for s in range(1, args.sets):
            a, b = medians[0][spec["name"]], medians[s][spec["name"]]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= spec["bound"] else "WORSE THAN BOUND"
            print(f"{spec['name']}: set {s} median vs set 0: {worse:+.1%} worse (bound {spec['bound']:.0%}) {verdict}")
            ok = ok and verdict == "ok"
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    every = sub.add_parser("all", help="every workload, untraced and traced")
    spread = sub.add_parser("spread", help="one workload, many seeds")
    spread.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    spread.add_argument("--runs", type=int, default=10)
    spread.add_argument("--sets", type=int, default=1, choices=(1, 2))
    for p in (every, spread):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    return cmd_all(args) if args.command == "all" else cmd_spread(args)


if __name__ == "__main__":
    sys.exit(main())
