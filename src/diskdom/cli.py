"""Command line for generating, solving, verifying, and benchmarking.

Exit codes: 0 success, 1 infeasible, 2 usage error, 3 I/O or validation
error, 4 oracle mismatch, 5 solver invariant violated (an internal
error, reported on stderr). Every subcommand's output (files and stdout)
is deterministic for fixed flags; only bench's millis column varies.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import statistics
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .instance_io import (
    BadParams,
    FAMILIES,
    gen_figure1,
    gen_random,
    load_instance_document,
    load_solution_document,
    render_svg,
    solution_document,
)
from .oracle import brute_force_min
from .solution import WEIGHT_TOLERANCE, Infeasible, InvalidK, SolverInvariantError, TooLarge
from .unweighted_greedy import solve_unweighted
from .weighted_dp import solve_weighted, solve_weighted_unbounded


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskdom",
        description="Minimum dominating sets of disks in convex position.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--family", choices=FAMILIES + ("figure1",), default="circle")
    gen.add_argument("--radius-law", default="uniform(0.5,2.0)")
    gen.add_argument("--weight-law", default="unit")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--in", dest="infile", required=True)
    _mode_flags(solve)
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument("--out", required=True)
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="check a solution file against its instance")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--solution", required=True)
    ver.set_defaults(func=_cmd_verify)

    orc = sub.add_parser("oracle", help="brute-force optimum (n <= 22)")
    orc.add_argument("--in", dest="infile", required=True)
    _mode_flags(orc)
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--compare", action="store_true")
    orc.set_defaults(func=_cmd_oracle)

    bench = sub.add_parser("bench", help="time both solvers across sizes")
    bench.add_argument("--family", choices=FAMILIES, default="circle")
    bench.add_argument("--sizes", required=True, help="comma-separated n values")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--k", type=int, default=6)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--radius-law", default="uniform(2.0,6.0)")
    bench.add_argument("--weight-law", default="unit")
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=_cmd_bench)

    plot = sub.add_parser("plot", help="render an instance (and solution) to SVG")
    plot.add_argument("--in", dest="infile", required=True)
    plot.add_argument("--solution", default=None)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plot)

    return parser


def _mode_flags(cmd: argparse.ArgumentParser) -> None:
    mode = cmd.add_mutually_exclusive_group()
    mode.add_argument("--weighted", action="store_true")
    mode.add_argument("--unweighted", action="store_false", dest="weighted")
    cmd.set_defaults(weighted=False)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BadParams(f"{path} is not UTF-8 text: {exc}") from None


def _read_instance(path: str, *, weighted: bool):
    return load_instance_document(_read_text(path)).to_instance(weighted=weighted)


def _cmd_gen(args) -> int:
    if args.family == "figure1":
        doc = gen_figure1(args.n)
    else:
        doc = gen_random(args.n, args.seed, args.family, args.radius_law, args.weight_law)
    Path(args.out).write_text(doc.to_json())
    print(f"wrote {args.out} (n={args.n}, family={args.family})")
    return 0


def _solve(inst, weighted: bool, k: Optional[int]):
    """Weighted DP (unbounded when k is None) or unweighted search with k as its cap."""
    if not weighted:
        return solve_unweighted(inst, k_cap=k)
    if k is None:
        return solve_weighted_unbounded(inst)
    return solve_weighted(inst, k)


def _cmd_solve(args) -> int:
    inst = _read_instance(args.infile, weighted=args.weighted)
    sol = _solve(inst, args.weighted, args.k)
    tag = "dp" if args.weighted else "greedy"
    doc = solution_document(sol, inst, k=args.k, solver=tag)
    Path(args.out).write_text(doc.to_json())
    print(f"size={sol.size} weight={sol.weight!r} centers={list(sol.centers)}")
    return 0


def _cmd_verify(args) -> int:
    inst = _read_instance(args.infile, weighted=False)
    if load_solution_document(_read_text(args.solution), inst).verified:
        print("verified")
        return 0
    print("not verified")
    return 3


def _cmd_oracle(args) -> int:
    mode = "weighted" if args.weighted else "unweighted"
    inst = _read_instance(args.infile, weighted=args.weighted)
    try:
        ref = brute_force_min(inst, mode, k_cap=args.k)
    except Infeasible:
        ref = None
    if ref is None:
        print("oracle: infeasible")
    else:
        print(f"oracle: size={ref.size} weight={ref.weight!r} centers={list(ref.centers)}")
    if not args.compare:
        if ref is None:
            return 1
        return 0
    try:
        got = _solve(inst, args.weighted, args.k)
    except Infeasible:
        got = None
    if (ref is None) != (got is None):
        print("MISMATCH: feasibility verdicts differ")
        return 4
    if ref is None:
        return 1
    if args.weighted:
        ok = abs(got.weight - ref.weight) <= WEIGHT_TOLERANCE
        shown = f"weight={got.weight!r}"
    else:
        ok = got.size == ref.size
        shown = f"size={got.size}"
    if not ok:
        print(f"MISMATCH: solver {shown}")
        return 4
    print(f"solver agrees ({shown})")
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = sorted(int(s) for s in args.sizes.split(","))
    except ValueError:
        print("error: --sizes must be comma-separated integers", file=sys.stderr)
        return 2
    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "k", "solver", "millis", "size_or_weight"])
    for n in sizes:
        doc = gen_random(n, args.seed + n, args.family, args.radius_law, args.weight_law)
        inst = doc.to_instance()
        for solver, weighted in (("greedy", False), ("dp", True)):
            # at most k disks is all n disks when k >= n
            k = min(args.k, n) if weighted else args.k
            times = []
            result = None
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                try:
                    sol = _solve(inst, weighted, k)
                except Infeasible:
                    result = "infeasible"
                else:
                    result = repr(sol.weight if weighted else sol.size)
                times.append((time.perf_counter() - t0) * 1000.0)
            writer.writerow([n, args.k, solver, f"{statistics.median(times):.3f}", result])
    Path(args.csv).write_text(buf.getvalue())
    print(f"wrote {args.csv} ({2 * len(sizes)} rows)")
    return 0


def _cmd_plot(args) -> int:
    inst = _read_instance(args.infile, weighted=False)
    solution = None
    if args.solution is not None:
        solution = load_solution_document(_read_text(args.solution), inst).centers
    out = Path(args.out)
    out.write_text(render_svg(inst, solution))
    print(f"wrote {out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except Infeasible:
        print("infeasible")
        return 1
    except InvalidK as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BadParams, TooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
