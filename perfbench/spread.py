"""Run the benchmark over several seeds and summarise each metric by its
quartiles and relative spread (Q3 - Q1) / median.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds 20] [--trace 0] [--out FILE]

Run from the root of a checkout.  With --out, the per-run results, the
summaries and the environment (including the CPU model) are written as
one trajectory entry.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall, "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    metrics = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med and len(values) > 1 else None,
            "values": values,
        }
    return {
        "correct": all(r["result"]["correct"] for r in runs),
        "fail_frac": [r["detail"]["fail_frac"] for r in runs],
        "metrics": metrics,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    entry = {"cpu_model": cpu_model(), "nproc": os.cpu_count(), "seconds": args.seconds,
             "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in parse_seeds(args.seeds)]
        summary = summarise(runs)
        entry["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"{workload}: correct={summary['correct']} "
              f"fail_frac={[round(v, 4) for v in summary['fail_frac']]} "
              f"wall_s={[round(r['wall_s'], 1) for r in runs]}")
        for name, s in summary["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:45s} median {s['median']:.6g} {s['unit']:6s} spread {spread}")
        sys.stdout.flush()
    if args.out:
        entry["environment"] = runs[-1]["detail"]["environment"]
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
