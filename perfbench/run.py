"""End-to-end and per-layer benchmark of `diskdom solve`.

    python3 perfbench/run.py --workload weighted_k6 --seed 1 --seconds 30 --trace 0

Runs one workload in this process: sets it up (median of several fresh
processes that import diskdom and write the instance files), then solves
whole rounds of the instance files through `diskdom.cli.main(["solve",
...])` for --seconds, checks every output against an independent
computation, and prints one JSON object as its last line. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones from a run
with spans around every layer entry point. --smoke sets up once, solves the
first instance file once and ignores --seconds.

The program is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60.0
KERNEL_ROWS = 1500  # about 2 ms
SAMPLE_PERIOD_S = 0.05


class BenchmarkError(Exception):
    """The benchmark could not set up or run; no result is printed."""


def import_diskdom():
    """Import diskdom from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import diskdom
        import diskdom.cli
    except ImportError as exc:
        raise BenchmarkError(f"cannot import diskdom from {src}: {exc}") from exc
    if src.resolve() not in Path(diskdom.__file__).resolve().parents:
        raise BenchmarkError(f"diskdom was imported from {diskdom.__file__}, not {src}")
    return diskdom.cli


# -- reference kernel ---------------------------------------------------------


def reference_kernel(rows: int = KERNEL_ROWS) -> int:
    """Fixed pure-Python work: dict updates, tuple building, a sort."""
    x = 12345
    counts: dict[int, int] = {}
    table = []
    for i in range(rows):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 4095
        counts[key] = counts.get(key, 0) + 1
        table.append((x >> 20, key, i))
    table.sort()
    return len(counts) + table[rows // 2][2]


class ReferenceClock:
    """A wall clock that also samples how fast the machine runs right now.

    `kernel()` times one reference kernel. While `sampling()` is active a
    timer signal runs it every SAMPLE_PERIOD_S as well, so the samples cover
    the whole operation, not only its two ends. `now()` leaves out the time
    the kernels took, so an operation is charged only for its own work, and
    its time divided by the mean kernel time around and inside it cancels
    the machine's speed, which on a shared host drifts within a second.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stolen = 0.0
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self._stolen

    def kernel(self) -> None:
        # paused collector: a collection of the solver's heap, triggered by
        # the kernel's allocations, would otherwise land in the sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self._stolen += dt

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that lands inside a kernel is dropped
            self._busy = True
            try:
                self.kernel()
            finally:
                self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# -- setup --------------------------------------------------------------------


def workdir_for(workload: Workload) -> Path:
    return OUT / workload.name


def setup_child(workload: Workload, seed: int) -> None:
    """One set-up, as a fresh process pays it: import diskdom, write inputs."""
    workdir = workdir_for(workload)
    t0 = time.perf_counter()
    import_diskdom()
    workload.write_instances(seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup(workload: Workload, seed: int, runs: int) -> list[float]:
    workdir = workdir_for(workload)
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.iterdir():
        old.unlink()
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# -- the timed loop -----------------------------------------------------------


@dataclass
class Operation:
    index: int  # instance file solved
    exit_code: int
    stdout: str
    solution: str
    seconds: float  # wall time without the sampled kernels
    kernel_s: float  # mean reference-kernel time around and inside it

    @property
    def ratio(self) -> float:
        return self.seconds / self.kernel_s


def solve_rounds(cli, workload: Workload, seconds: float, *, smoke: bool, clock, tracer=None):
    """Solve whole rounds of the instance files, another round only if it
    should end within `seconds` (one solve of the first file when smoke)."""
    workdir = workdir_for(workload)
    ops: list[Operation] = []
    indices = [0] if smoke else range(workload.instances)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (
        not smoke and (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds
    ):
        rounds += 1
        for index in indices:
            argv = workload.solve_argv(workdir, index)
            out = io.StringIO()
            gc.collect()  # every solve starts from a collected heap
            clock.samples = []
            clock.kernel()
            with clock.sampling(), contextlib.redirect_stdout(out):
                t0 = clock.now()
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.run_operation(len(ops), lambda: cli.main(argv))
                dt = clock.now() - t0
            clock.kernel()
            sol_path = workload.solution_path(workdir, index)
            solution = sol_path.read_text() if sol_path.exists() else ""
            kernel_s = statistics.fmean(clock.samples)
            ops.append(Operation(index, code, out.getvalue(), solution, dt, kernel_s))
    return ops


def check_all(workload: Workload, ops: list[Operation]) -> tuple[int, bool]:
    """(failed, correct): failed counts operations that exited non-zero or
    whose output is wrong; correct is false when any exit-0 output is wrong."""
    import checks  # not at the top: set-up processes must not load numpy early

    workdir = workdir_for(workload)
    refs = {}
    failed = 0
    correct = True
    for op in ops:
        if op.index not in refs:
            disks = checks.load_disks(workload.instance_path(workdir, op.index))
            refs[op.index] = (disks, checks.reference_optimum(workload, disks))
        disks, ref = refs[op.index]
        problems = checks.check_operation(workload, disks, ref, op)
        if problems:
            failed += 1
            correct = correct and op.exit_code != 0
            print(f"FAILED instance {op.index}: {'; '.join(problems)}", file=sys.stderr)
    return failed, correct


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload: Workload, seed: int, seconds: float, *, trace: bool, smoke: bool) -> dict:
    setup_times = setup(workload, seed, 1 if smoke else SETUP_RUNS)
    cli = import_diskdom()
    clock = ReferenceClock()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(clock.now)
        tracer.install()
        for name in tracer.missing:
            print(f"warning: no span for {name}: not found in diskdom", file=sys.stderr)
    ops = solve_rounds(cli, workload, seconds, smoke=smoke, clock=clock, tracer=tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    failed, correct = check_all(workload, ops)

    for op in ops:
        print(f"  solve of instance {op.index}: {op.seconds:.4f} s, kernel {op.kernel_s * 1e3:.4f} ms, "
              f"{op.ratio:.1f} ref")
    raw = quartiles([op.seconds for op in ops])
    ratios = [op.ratio for op in ops]
    print(
        f"{workload.name}: {len(ops)} solves; raw s p25/p50/p75 {raw[0]:.3f}/{raw[1]:.3f}/{raw[2]:.3f}; "
        f"kernel median {statistics.median(op.kernel_s for op in ops) * 1e3:.4f} ms; "
        f"set-up runs {', '.join(f'{t:.3f}' for t in setup_times)} s"
    )
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_ref_p50": (statistics.median(ratios), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics()
        metrics["trace.op_ref_p50"] = (statistics.median(ratios), "ref")
        tracer.save(workdir_for(workload) / "trace.npz")
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one set-up, one solve")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_child:
            setup_child(workload, args.seed)
            return 0
        result = run(workload, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (workdir_for(workload) / f"result-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
