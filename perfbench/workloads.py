"""Seeded operation lists, their execution against susy_pt, and the
per-operation checks.

Every operation is checked.  A check that needs scipy is deferred to
reference.py, which runs in its own process so that scipy never enters
the measured process (nor its peak resident memory).

The timed operations are drawn from inputs on which the program is
meant to meet its reference, so any failure there is a regression.  The
inputs where the seed is documented to miss (see README.md) are covered
instead by a fixed census, the same for every seed and run, that is
executed and checked after the timed loop.  A census failure is marked
`known_defect` when it falls in one of the documented defect classes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-default", "oracle-fd", "states-highn")
REFERENCE_SCRIPT = Path(__file__).resolve().parent / "reference.py"
REFERENCE_TIMEOUT_S = 150

# verify-default: suites the report must contain, each with status "pass"
VERIFY_SUITES = (
    "orthonormality",
    "eigen_residual",
    "partner_eigen_residual",
    "ladder",
    "shape_invariance",
    "factorization",
    "commutator",
    "build_up",
    "numeric_cross_check",
    "equidistance",
    "nonrel_limit",
)

# oracle-fd: contract tolerances of the numeric cross-check (scaled error
# |lam - exact| / (1 + exact)), and the bound on the scaled disagreement
# with scipy's eigenvalues of the same finite-difference matrix.  At the
# seed the two solvers agree to ~2e-9; a wrong eigenvalue index or
# bracket is off by > 1e-3.
FD_COUNT = 5
FD_TOL_PLAIN = 1e-3
FD_TOL_RICHARDSON = 1e-6
FD_SOLVER_TOL = 1e-7
# Stratified block: every ten calls hold this mix in seeded order, so the
# share of expensive calls (which sets throughput) does not vary by seed,
# and the median call is a plain N = 4096 solve.
FD_BLOCK = (
    (1024, False), (1024, False), (1024, True),
    (4096, False), (4096, False), (4096, False), (4096, False), (4096, True),
    (16384, False), (16384, False),
)
# k range [1.25, 100], narrowed per (N, Richardson) to where the grid
# meets the contract tolerance with a margin of 4 or more at the seed:
# N = 1024 plain misses from k ~ 40 (O(h^2 k^2) error), and Richardson
# misses near k = 1.25, where cos^k is not smooth enough at the walls for
# the h^2 expansion.  The census below covers the rest of the range.
FD_K_RANGE = (1.25, 100.0)
FD_K_RESOLVED = {(1024, False): (1.25, 20.0), (1024, True): (2.0, 100.0), (4096, True): (2.0, 100.0)}

# ops_per_s is the median throughput over consecutive groups of this many
# operations, so a slow spell of the machine that covers a minority of the
# groups does not move it.  An oracle-fd group is one stratified block.
GROUP_SIZE = {"verify-default": 1, "oracle-fd": len(FD_BLOCK), "states-highn": 25}

# states-highn
STATE_SAMPLES = 2001
STATE_TOL = 1e-8
STATE_K_RANGE = (1.25, 1.0e3)
MAX_LEVEL = 64
# The verify battery certifies levels up to n_max = 16; above it the
# monomial-basis drift is a documented seed defect.  Timed queries stay
# at or below it; the census covers 0..MAX_LEVEL.
VERIFIED_LEVEL = 16
RAISE_ROUNDING_MSG = "raise_ expects envelope exponent"
# Timed queries take k on a grid of 2^-10, on which k + n and
# (k + n - 1) + 1 are the same float, so the documented rounding
# ValueError of build_from_ground cannot occur; the census holds the
# documented off-grid example.
STATE_K_STEP = 2.0 ** -10

# Census: fixed inputs over the part of the documented range that the
# timed draw leaves out, where the seed misses; the same for every seed
# and run.  oracle-fd takes both ends of the k range for every narrowed
# (N, Richardson) pair; states-highn a grid over n = 0..64.
CENSUS_STATE_N = tuple(range(0, MAX_LEVEL + 1, 8))
CENSUS_STATE_K = (1.25, 31.6, 1.0e3)
# documented examples: the rounding ValueError, and final_norm = 555400
CENSUS_STATE_EXTRA = (
    {"kind": "hierarchy", "n": 61, "k": 3.340797161813536, "epsilon": 1.0},
    {"kind": "hierarchy", "n": 64, "k": 2.5, "epsilon": 1.0},
)


# ----------------------------------------------------------------------
# operation lists
# ----------------------------------------------------------------------

def operations(workload: str, seed: int):
    """Endless, seed-determined stream of operations (plain dicts)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-default":
        while True:
            yield {"kind": "verify"}
    elif workload == "oracle-fd":
        while True:
            block = list(FD_BLOCK)
            rng.shuffle(block)
            for n_points, richardson in block:
                k_lo, k_hi = FD_K_RESOLVED.get((n_points, richardson), FD_K_RANGE)
                yield {
                    "kind": "fd",
                    "k": _log_uniform(rng, k_lo, k_hi),
                    "pot": rng.choice(("minus", "plus")),
                    "n_points": n_points,
                    "richardson": richardson,
                }
    else:
        # One operation is an eigenfunction query and then a hierarchy
        # query, each with its own state.  An eigenfunction query takes
        # about three times as long as a hierarchy one, so the median of
        # single queries would fall in the gap between the two.
        while True:
            yield {"kind": "states", "queries": [
                _state_query(rng, "eigenfunction"), _state_query(rng, "hierarchy")]}


def _state_query(rng: random.Random, kind: str) -> dict:
    k = _log_uniform(rng, *STATE_K_RANGE)
    return {
        "kind": kind,
        "n": rng.randint(0, VERIFIED_LEVEL),
        "k": max(STATE_K_RANGE[0], round(k / STATE_K_STEP) * STATE_K_STEP),
        "epsilon": rng.choice((0.5, 1.0, 2.0)),
    }


def census(workload: str) -> list[dict]:
    """Fixed, seed-independent operations over the inputs the timed draw
    leaves out, where the seed is known to miss."""
    if workload == "oracle-fd":
        return [
            {"kind": "fd", "k": k, "pot": pot, "n_points": n_points, "richardson": richardson}
            for n_points, richardson in FD_K_RESOLVED
            for k in FD_K_RANGE
            for pot in ("minus", "plus")
        ]
    if workload == "states-highn":
        return [
            {"kind": kind, "n": n, "k": k, "epsilon": 1.0}
            for kind in ("eigenfunction", "hierarchy")
            for n in CENSUS_STATE_N
            for k in CENSUS_STATE_K
        ] + [dict(op) for op in CENSUS_STATE_EXTRA]
    return []


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def warm_up_op(workload: str) -> dict:
    """Fixed, seed-independent first operation (untimed), so that set-up
    time does not depend on the seed's draw."""
    return {
        "verify-default": {"kind": "verify"},
        "oracle-fd": {"kind": "fd", "k": 10.0, "pot": "minus", "n_points": 1024, "richardson": False},
        "states-highn": {"kind": "states", "queries": [
            {"kind": "eigenfunction", "n": 16, "k": 10.0, "epsilon": 1.0},
            {"kind": "hierarchy", "n": 16, "k": 10.0, "epsilon": 1.0}]},
    }[workload]


# ----------------------------------------------------------------------
# execution and in-process checks
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    op: dict
    seconds: float
    failure: str | None = None
    known_defect: bool = False
    # data for the scipy check in reference.py, or None
    reference: dict | None = None
    samples: np.ndarray | None = field(default=None, repr=False)

    def fail(self, why: str, known: bool = False):
        if self.failure is None:
            self.failure, self.known_defect = why, known
        else:
            self.known_defect = self.known_defect and known


class Executor:
    """Runs operations against an imported susy_pt package.  Module
    attributes are looked up on every call, so wrappers installed by the
    tracer are seen."""

    def __init__(self, susy_pt, out_dir):
        self.pkg = susy_pt
        self.out_dir = out_dir

    def run(self, op: dict) -> Outcome:
        kind = op["kind"]
        if kind == "fd":
            return self._fd(op)
        if kind == "states":
            return self._states(op)
        if kind == "verify":
            argv = ["verify", "--format", "json"]
        elif kind == "eigenfunction":
            argv = ["eigenfunction", *_params_argv(op), "--samples", str(STATE_SAMPLES)]
        else:
            argv = ["hierarchy", *_params_argv(op), "--format", "json"]
        path = self.out_dir / f"{kind}.out"
        argv += ["--output", str(path)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = self.pkg.cli.main(argv)
            except Exception as exc:  # a raising operation is a failed one
                out = Outcome(op, time.perf_counter() - t0)
                out.fail(f"raised {type(exc).__name__}: {exc}")
                return out
            seconds = time.perf_counter() - t0
        out = Outcome(op, seconds)
        if rc != 0:
            msg = stderr.getvalue().strip()
            known = kind == "hierarchy" and RAISE_ROUNDING_MSG in msg
            out.fail(f"exit {rc}: {msg[:120]}", known)
            return out
        text = path.read_text()
        {"verify": check_verify, "eigenfunction": check_eigenfunction,
         "hierarchy": check_hierarchy}[kind](out, text)
        return out

    def _states(self, op: dict) -> Outcome:
        """Queries in turn; the outcome carries their summed time, the
        first failure and the one scipy check (of the eigenfunction)."""
        out = Outcome(op, 0.0)
        for query in op["queries"]:
            part = self.run(query)
            out.seconds += part.seconds
            if part.failure:
                out.fail(part.failure, part.known_defect)
            if part.reference is not None:
                out.reference, out.samples = part.reference, part.samples
        return out

    def _fd(self, op: dict) -> Outcome:
        pkg = self.pkg
        t0 = time.perf_counter()
        try:
            lam = pkg.delta_eigenvalues_fd(
                pkg.ModelParams(1.0, 1.0, op["k"]), op["pot"], FD_COUNT,
                op["n_points"], richardson=op["richardson"],
            )
        except Exception as exc:
            out = Outcome(op, time.perf_counter() - t0)
            out.fail(f"raised {type(exc).__name__}: {exc}")
            return out
        out = Outcome(op, time.perf_counter() - t0)
        check_fd(out, lam)
        return out


def _params_argv(op: dict) -> list[str]:
    return ["--omega", "1", "--epsilon", repr(op["epsilon"]), "--k", repr(op["k"]), "--n", str(op["n"])]


def check_verify(out: Outcome, text: str):
    statuses = {s["name"]: s["status"] for s in json.loads(text)["suites"]}
    missing = [name for name in VERIFY_SUITES if name not in statuses]
    failing = [name for name, status in statuses.items() if status != "pass"]
    if missing:
        out.fail(f"suites missing from report: {missing}")
    if failing:
        out.fail(f"suites not passing: {failing}")


def check_fd(out: Outcome, lam):
    """Contract check against the exact spectrum; the same-matrix check
    against scipy is queued for reference.py."""
    op = out.op
    lam = [float(v) for v in lam]
    if len(lam) != FD_COUNT or not all(math.isfinite(v) for v in lam):
        out.fail(f"expected {FD_COUNT} finite eigenvalues, got {lam}")
        return
    k = op["k"]
    if op["pot"] == "minus":
        exact = [n * (n + 2.0 * k) for n in range(FD_COUNT)]
    else:
        exact = [(n + 1) * (n + 1 + 2.0 * k) for n in range(FD_COUNT)]
    err = max(abs(a - b) / (1.0 + b) for a, b in zip(lam, exact))
    tol = FD_TOL_RICHARDSON if op["richardson"] else FD_TOL_PLAIN
    if err > tol:
        # discretization error of the oracle at this N; stays known only if
        # the solver agrees with scipy on the same matrix (apply_reference)
        out.fail(f"contract miss {err:.3e} > {tol:g}", known=True)
    out.reference = {"type": "fd", "k": k, "pot": op["pot"], "n_points": op["n_points"],
                     "richardson": op["richardson"], "values": lam}


def check_eigenfunction(out: Outcome, text: str):
    op = out.op
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if rows[0] != "x,value" or len(rows) != STATE_SAMPLES + 1:
        out.fail("malformed eigenfunction CSV")
        return
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    half_width = math.pi / (2.0 * op["epsilon"])
    x_ref = np.linspace(-half_width, half_width, STATE_SAMPLES)
    if np.max(np.abs(data[:, 0] - x_ref)) > 1e-12 * half_width:
        out.fail("sample positions differ from the documented grid")
        return
    out.reference = {"type": "state", "n": op["n"], "k": op["k"], "epsilon": op["epsilon"]}
    out.samples = data[:, 1]


def check_hierarchy(out: Outcome, text: str):
    op = out.op
    n, k = op["n"], op["k"]
    doc = json.loads(text)
    expected = [(j, k + n - 1 - j) for j in range(n)]
    steps = doc["steps"]
    if [(s["step"], s["k_level"]) for s in steps] != expected:
        out.fail("hierarchy steps differ from j, k+n-1-j")
        return
    for s in steps:
        factor = math.sqrt((s["step"] + 1) * (s["step"] + 1 + 2.0 * s["k_level"]))
        if abs(s["factor"] - factor) > 1e-12 * factor:
            out.fail(f"step factor {s['factor']!r} != {factor!r}")
            return
    prefactor = math.exp(0.5 * (math.lgamma(n + 2.0 * k) - math.lgamma(2.0 * n + 2.0 * k)
                                - math.lgamma(n + 1.0)))
    if abs(doc["prefactor"] - prefactor) > 1e-8 * prefactor:
        out.fail(f"prefactor {doc['prefactor']!r} != {prefactor!r}")
    err = abs(doc["final_norm"] - 1.0)
    if not err <= STATE_TOL:
        out.fail(f"final_norm off by {err:.3e}", known=n > VERIFIED_LEVEL)


def apply_reference(out: Outcome, error: float):
    """Fold in the error reference.py measured for this outcome."""
    ref = out.reference
    if ref["type"] == "fd":
        if not error <= FD_SOLVER_TOL:
            # the solver itself disagrees: not explained by discretization
            out.fail(f"eigenvalues differ from scipy on the same matrix by {error:.3e}")
    elif not error <= STATE_TOL:
        out.fail(f"scaled error {error:.3e} vs Gegenbauer reference",
                 known=ref["n"] > VERIFIED_LEVEL)


class ReferenceChecker:
    """Collects the checks that need scipy and runs them in reference.py
    once the timed loop is over.  State samples are streamed to a file so
    that they do not accumulate in the measured process."""

    def __init__(self, tmp: Path):
        self.requests_path = tmp / "requests.json"
        self.samples_path = tmp / "samples.f64"
        self.samples = open(self.samples_path, "wb")
        self.pending: list[Outcome] = []

    def queue(self, out: Outcome):
        if out.reference is None:
            return
        if out.samples is not None:
            self.samples.write(out.samples.tobytes())
            out.samples = None
        self.pending.append(out)

    def finish(self):
        self.samples.close()
        if not self.pending:
            return
        with open(self.requests_path, "w") as fh:
            json.dump([o.reference for o in self.pending], fh)
        proc = subprocess.run(
            [sys.executable, str(REFERENCE_SCRIPT), str(self.requests_path), str(self.samples_path)],
            capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"reference check failed: {proc.stderr[-2000:]}")
        errors = json.loads(proc.stdout)
        if len(errors) != len(self.pending):
            raise RuntimeError("reference check returned the wrong number of results")
        for out, error in zip(self.pending, errors):
            apply_reference(out, error)
        self.pending.clear()
