"""susy-pt benchmark: one closed-loop client, one thread, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; susy_pt is imported from ./src.
The next operation starts when the previous one returns.  Every
operation is checked against an independent reference, and any failure
of a timed operation makes the run incorrect.  After the timed loop a
fixed census of the inputs where the seed is known to miss is run and
checked untimed; it is reported in the detail line and is not part of
`attempted`/`failed`.  The last line of stdout is the result as one JSON
object; the line before it carries details (sample counts, failure
reasons, the census, op_s.p90, environment).

--trace 0 reports the end-to-end metrics: setup_s, ops_per_s, op_s.p50,
peak_rss_mb.  Times are corrected for contention on the shared host by a
fixed probe loop run between operations (see contention_corrected); the
uncorrected figures are in the detail line.  --trace 1 runs the workload untraced for S/2 seconds, then
the same number of further operations traced, and reports per-layer
metrics, the tracing overhead, direct layer timings and per-suite verify
timings.  Spans are written to .perfbench_out/.
"""

import os

# pin numpy/BLAS threads before numpy is imported, here and in children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SUSY_PT_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# probe runs per gap between operations, about 0.13 ms each
PROBE_REPEATS = 5
# Times are reported at the host speed where one probe run takes this
# long: the probe's uncontended time on the development host (2-vCPU
# Intel Xeon), so that there corrected and raw times agree when quiet.
PROBE_REF_S = 125e-6
CHILD_TIMEOUT_S = 150
# op_s.p90 needs ten samples beyond it
P90_MIN_OPS = 100

SETUP_CHILD = """\
import pathlib, sys
sys.path.insert(0, {bench!r})
import susy_pt, susy_pt.cli
import workloads
workloads.Executor(susy_pt, pathlib.Path({tmp!r})).run(workloads.warm_up_op({workload!r}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "susy_pt" / "__init__.py").is_file():
        print(f"no susy_pt sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    tmp = OUT / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp: Path) -> int:
    setup, setup_gaps = ([], []) if args.trace else measure_setup(args.workload, tmp)

    import susy_pt
    import susy_pt.cli

    if not Path(susy_pt.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {susy_pt.__file__}, not the checkout's src/")
    executor = workloads.Executor(susy_pt, tmp)
    # untimed and uncounted; a failure shows again in the timed operations
    warm = executor.run(workloads.warm_up_op(args.workload))

    ops = workloads.operations(args.workload, args.seed)
    checker = workloads.ReferenceChecker(tmp)
    outcomes, gaps = closed_loop(executor, ops, checker, seconds=args.seconds / (2 if args.trace else 1))
    metrics = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(susy_pt)
        try:
            traced, traced_gaps = closed_loop(executor, ops, checker, count=len(outcomes), tracer=tracer)
        finally:
            tracer.uninstall()
        untraced = contention_corrected([o.seconds for o in outcomes], gaps)
        traced_latencies = contention_corrected([o.seconds for o in traced], traced_gaps)
        ups = len(untraced) / sum(untraced)
        tps = len(traced_latencies) / sum(traced_latencies)
        latencies = untraced + traced_latencies
        outcomes += traced
        gaps += traced_gaps
        metrics.update(tracer.layer_metrics())
        metrics["trace.ops_per_s.untraced"] = (ups, "1/s")
        metrics["trace.ops_per_s.traced"] = (tps, "1/s")
        metrics["trace.overhead_frac"] = (ups / tps - 1.0, "ratio")
        metrics.update(tracing.roadmap_timings(susy_pt))
        metrics.update(tracing.suite_timings(susy_pt, workloads.VERIFY_SUITES))
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        latencies = contention_corrected([o.seconds for o in outcomes], gaps)
        setup_corrected = contention_corrected(setup, setup_gaps)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    census = []
    for op in workloads.census(args.workload):
        out = executor.run(op)
        checker.queue(out)
        census.append(out)
    checker.finish()
    raw = [o.seconds for o in outcomes]
    failures = [o for o in outcomes if o.failure]
    census_failures = [o for o in census if o.failure]
    if args.trace:
        metrics["census.failed"] = (len(census_failures), "count")
    else:
        metrics["setup_s"] = (statistics.median(setup_corrected), "s")
        metrics["ops_per_s"] = (group_throughput(latencies, workloads.GROUP_SIZE[args.workload]), "1/s")
        metrics["op_s.p50"] = (statistics.median(latencies), "s")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(latencies),
        "op_s.p50": {"value": statistics.median(latencies), "samples": len(latencies)},
        "ops_per_s.mean": len(latencies) / sum(latencies),
        "uncorrected": {
            "ops_per_s": group_throughput(raw, workloads.GROUP_SIZE[args.workload]),
            "ops_per_s.mean": len(raw) / sum(raw),
            "op_s.p50": statistics.median(raw),
        },
        "probe_s": {"fastest": min(min(g) for g in gaps), "median": statistics.median(t for g in gaps for t in g)},
        "fail_frac": len(failures) / len(outcomes),
        "failures": [{"op": o.op, "failure": o.failure} for o in failures[:5]],
        "census": {
            "attempted": len(census),
            "failed": len(census_failures),
            "fail_frac": len(census_failures) / len(census) if census else 0.0,
            "failed_by_kind": dict(Counter(o.op["kind"] for o in census_failures)),
            "failure_examples": [o.failure for o in census_failures[:3]],
            "unexpected_failures": [
                {"op": o.op, "failure": o.failure} for o in census_failures if not o.known_defect][:5],
        },
        "warm_up_failure": warm.failure,
        "environment": environment(args.seed),
    }
    if setup:
        detail["setup_s.samples"] = setup_corrected
        detail["uncorrected"]["setup_s"] = statistics.median(setup)
    if len(latencies) >= P90_MIN_OPS:
        detail["op_s.p90"] = {"value": statistics.quantiles(latencies, n=10)[-1], "samples": len(latencies)}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures and all(o.known_defect for o in census_failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def group_throughput(latencies: list[float], size: int) -> float:
    """Median over consecutive complete groups of `size` operations of
    operations per second of busy time."""
    groups = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)] or [latencies]
    return statistics.median(len(g) / sum(g) for g in groups)


def measure_setup(workload: str, tmp: Path):
    """Wall times of fresh interpreters that import susy_pt and run the
    workload's warm-up operation, and the probe gaps around them."""
    code = SETUP_CHILD.format(bench=str(BENCH_DIR), tmp=str(tmp), workload=workload)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, gaps = [], [probe_gap()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        gaps.append(probe_gap())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return times, gaps


def closed_loop(executor, ops, checker, seconds=None, count=None, tracer=None):
    """Run operations back to back for `seconds` of wall time, or `count`
    operations.  Returns the outcomes and the probe times of the gaps
    before, between and after them (one more gap than outcomes)."""
    outcomes, gaps = [], [probe_gap()]
    deadline = None if seconds is None else time.perf_counter() + seconds
    while (time.perf_counter() < deadline) if count is None else (len(outcomes) < count):
        op = next(ops)
        if tracer is not None:
            tracer.op_index += 1
        out = executor.run(op)
        gaps.append(probe_gap())
        checker.queue(out)
        outcomes.append(out)
    return outcomes, gaps


def _probe() -> int:
    """Fixed pure-Python loop, independent of susy_pt: a Sturm-like
    recurrence that never converges."""
    d, negatives = 1.0, 0
    for _ in range(3000):
        d = 1.25 - 0.5 / d
        if d < 0.0:
            negatives += 1
    return negatives


def probe_gap() -> list[float]:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - t0)
    return times


def contention_corrected(latencies: list[float], gaps: list[list[float]]) -> list[float]:
    """Latencies rescaled to the host speed where a probe run takes
    PROBE_REF_S.

    The host is shared, and its speed drifts by tens of percent over
    seconds to minutes.  The probe runs in every gap between timed
    operations; an operation's host speed is taken from the median probe
    time of the gaps on either side.
    """
    level = [statistics.median(g) for g in gaps]
    return [lat * 2.0 * PROBE_REF_S / (level[i] + level[i + 1]) for i, lat in enumerate(latencies)]


def environment(seed: int) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "client": "closed loop, 1 client, 1 process",
    }


if __name__ == "__main__":
    sys.exit(main())
