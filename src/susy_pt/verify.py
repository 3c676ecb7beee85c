"""Property suites tying the closed-form results to the numerical oracle,
with a machine-readable report.

Each suite is a generator that yields its residuals; the contractual
tolerances live in the one table _SUITES.  run_all reduces each suite's
residuals to the worst one, and a suite passes iff worst residual <=
tolerance.  Suites are deterministic given their inputs (random test
polynomials use a fixed seed).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .ladder import (
    LadderContext,
    build_from_ground,
    commutator_check,
    factorization_residual,
    lower,
    raise_,
    apply_delta,
)
from .model import ModelParams, delta_eigenvalue, energy, mass_from_k, v_minus, v_plus
from .numeric import _GL_WEIGHTS, _gl_panels, delta_eigenvalues_fd, interior_grid
from .wavefun import Wavefunction, _panels, build_eigenfunction, evaluate, samples

__all__ = [
    "DEFAULT_BATTERY",
    "SUITE_NAMES",
    "VERIFIED_LEVEL",
    "SuiteResult",
    "VerificationReport",
    "run_all",
    "run_nonrel_limit",
]

# Test fixtures spanning sub/super anti-de Sitter deformations and
# non-integer k; not physics claims.
DEFAULT_BATTERY = tuple(
    ModelParams(1.0, eps, k) for eps in (0.5, 1.0, 2.0) for k in (1.5, 2.0, 3.7, 10.0)
)

# Highest level the suites certify; run_all rejects a larger n_max.
VERIFIED_LEVEL = 16

_TEST_FN_SEED = 20260809
_NONREL_KS = (1.0e2, 1.0e3, 1.0e4, 1.0e6)

# Points of the one interior grid on which the pointwise suites compare
# states and operator terms.
_GRID_POINTS = 2001


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str
    worst_residual: float
    tolerance: float


@dataclass(frozen=True)
class VerificationReport:
    suites: tuple[SuiteResult, ...]
    meta: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(s.status == "pass" for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "suites": [
                {
                    "name": s.name,
                    "status": s.status,
                    "worst_residual": s.worst_residual,
                    "tolerance": s.tolerance,
                }
                for s in self.suites
            ],
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"{'suite':<24} {'status':<6} {'worst residual':>14} {'tolerance':>10}"]
        for s in self.suites:
            lines.append(
                f"{s.name:<24} {s.status:<6} {s.worst_residual:>14.3e} {s.tolerance:>10.1e}"
            )
        lines.append("overall: " + ("all suites pass" if self.all_passed else "FAILURES present"))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# individual suites: each yields its residuals for one run
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Run:
    """The options of one run_all call, shared by every suite."""

    n_max: int
    grid_n: int
    richardson: bool
    k_corruption: float


def _grid(p):
    """A new Samples record of the pointwise suites' interior grid on p's
    domain.  Each suite builds its own for each model it runs on, so the
    record's memo of envelope powers lives no longer than that suite's
    pass over p."""
    return samples(p, interior_grid(p, _GRID_POINTS).points)


def _first_per_k(battery):
    """The battery's first model with each distinct k, in battery order."""
    first = {}
    for p in battery:
        first.setdefault(p.k, p)
    return tuple(first.values())


def _suite_orthonormality(battery, run):
    # one Gram matrix of levels 0..7 per model, on inner_product's nodes
    # for the top pair (7, 7): no pair gets fewer panels than it would there
    panels = _panels(2 * 7)
    for p in battery:
        nodes, half = _gl_panels(-p.half_width, p.half_width, panels)
        x = samples(p, nodes)
        u = np.array([evaluate(build_eigenfunction(p, n), x) for n in range(8)])
        gram = (u * np.tile(half * _GL_WEIGHTS, panels)) @ u.T
        yield from np.abs(gram - np.eye(8))[np.triu_indices(8)]


def _eigen_residual(p, kind, wf, lam, x):
    vals = apply_delta(kind, p.k, wf, x)
    ref = lam * evaluate(wf, x)
    return float(np.max(np.abs(vals - ref))) / (1.0 + lam)


def _suite_eigen_residual(battery, run):
    for p in battery:
        x = _grid(p)
        for n in range(run.n_max + 1):
            wf = build_eigenfunction(p, n)
            yield _eigen_residual(p, "minus", wf, delta_eigenvalue(p, n), x)


def _suite_partner_eigen_residual(battery, run):
    for p in battery:
        x = _grid(p)
        up = p.with_k(p.k + 1.0)
        for n in range(1, run.n_max + 1):
            wf = build_eigenfunction(up, n - 1)
            yield _eigen_residual(p, "plus", wf, delta_eigenvalue(p, n), x)


def _suite_ladder(battery, run):
    for p in battery:
        x = _grid(p)
        ctx = LadderContext(p, p.k)
        up = p.with_k(p.k + 1.0)
        expected = p.with_k(p.k + run.k_corruption)
        for n in range(1, run.n_max + 1):
            u_n = build_eigenfunction(p, n)
            u_down = build_eigenfunction(up, n - 1)
            factor = math.sqrt(delta_eigenvalue(expected, n))
            lowered = lower(ctx, u_n)
            res = np.abs(evaluate(lowered, x) - factor * evaluate(u_down, x))
            yield float(np.max(res))
            raised = raise_(ctx, u_down)
            res = np.abs(evaluate(raised, x) - factor * evaluate(u_n, x))
            yield float(np.max(res))


def _suite_shape_invariance(battery, run):
    """V_+(k) = V_-(k+1) + 2k + 1 for the dimensionless potentials, on a
    10^4-point grid.

    The grid is pi/w times a fixed set of points and the potentials read
    it only through tan(wx), so the residual depends on k alone: one model
    per distinct k covers the battery."""
    for p in _first_per_k(battery):
        x = interior_grid(p, 10_000).points
        ref = v_minus(p.with_k(p.k + 1.0), x)
        res = np.abs(v_plus(p, x) - ref - (2.0 * p.k + 1.0)) / (1.0 + np.abs(ref))
        yield float(np.max(res))


@functools.cache
def _random_test_fns(count=20, max_degree=8):
    """The coefficient arrays of the factorization and commutator suites:
    built once per process, read-only, the same for every model and run.
    Built on first use, not at import: numpy.random adds about 6 MB to
    every process that imports the package."""
    rng = np.random.default_rng(_TEST_FN_SEED)
    fns = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        coeffs = rng.uniform(-1.0, 1.0, deg + 1)
        coeffs[-1] = coeffs[-1] or 1.0
        coeffs.setflags(write=False)
        fns.append(coeffs)
    return tuple(fns)


def _suite_factorization(battery, run):
    """H_- = A^+A and H_+ = AA^+ on the test polynomials at levels k and
    k+1.

    The polynomials and the levels are the same for every model; the grid
    is pi/w times a fixed set of points and the operators read it only
    through wx.  So the residuals depend on k alone, and the suite runs on
    the first model of each distinct k.  Where w is a power of two, wx is
    exact and so are the residuals; elsewhere they move by rounding."""
    for p in _first_per_k(battery):
        x = _grid(p)
        for coeffs in _random_test_fns():
            for kappa in (p.k, p.k + 1.0):
                wf = Wavefunction(p, kappa, coeffs)
                scale = 1.0 + float(np.max(np.abs(evaluate(wf, x))))
                yield factorization_residual(p.k, wf, x) / scale


def _suite_commutator(battery, run):
    """[A, A^+] = 2k + (1/2k)(A + A^+)^2 on the test polynomials.

    As for factorization, the residuals depend on k alone, so the suite
    runs on the first model of each distinct k."""
    for p in _first_per_k(battery):
        x = _grid(p)
        for coeffs in _random_test_fns():
            wf = Wavefunction(p, p.k, coeffs)
            yield commutator_check(p.k, wf, x)


def _suite_build_up(battery, run):
    for p in battery:
        x = _grid(p)
        for n in range(run.n_max + 1):
            direct = build_eigenfunction(p, n)
            chained = build_from_ground(p, n)
            res = np.abs(evaluate(chained, x) - evaluate(direct, x))
            yield float(np.max(res))


def _suite_numeric_cross_check(battery, run):
    # eigenvalues n(n+2k) carry no omega/epsilon dependence, so one solve
    # per distinct k covers the battery
    for k in sorted({p.k for p in battery}):
        p = ModelParams(1.0, 1.0, k)
        lam = delta_eigenvalues_fd(p, "minus", 5, run.grid_n, richardson=run.richardson)
        for n, lam_hat in enumerate(lam):
            exact = delta_eigenvalue(p, n)
            yield abs(lam_hat - exact) / (1.0 + exact)


def _suite_equidistance(battery, run):
    for p in battery:
        q = p if p.epsilon == 1.0 else ModelParams(p.omega, 1.0, p.k)
        for n in range(VERIFIED_LEVEL + 1):
            yield abs(energy(q, n + 1) - energy(q, n) - q.omega)


def _suite_nonrel_limit(battery, run):
    rows = run_nonrel_limit(1.0, 1.0, _NONREL_KS)
    yield rows[-1].residuals[0]
    for n in range(6):
        seq = [row.residuals[n] for row in rows]
        if any(b >= a for a, b in zip(seq, seq[1:])):
            yield math.inf


# The one table of suites in report order, with their tolerances; a
# callable tolerance depends on the run.
_SUITES = (
    ("orthonormality", _suite_orthonormality, 1e-8),
    ("eigen_residual", _suite_eigen_residual, 1e-8),
    ("partner_eigen_residual", _suite_partner_eigen_residual, 1e-8),
    ("ladder", _suite_ladder, 1e-8),
    ("shape_invariance", _suite_shape_invariance, 1e-10),
    ("factorization", _suite_factorization, 1e-8),
    ("commutator", _suite_commutator, 1e-8),
    ("build_up", _suite_build_up, 1e-8),
    ("numeric_cross_check", _suite_numeric_cross_check, lambda run: 1e-6 if run.richardson else 1e-3),
    ("equidistance", _suite_equidistance, 1e-12),
    ("nonrel_limit", _suite_nonrel_limit, 1e-5),
)

SUITE_NAMES = tuple(name for name, _, _ in _SUITES)


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------

def run_all(
    params_set=None,
    n_max: int = VERIFIED_LEVEL,
    grid_n: int = 4096,
    suites=None,
    richardson: bool = False,
    k_corruption: float = 0.0,
) -> VerificationReport:
    """Run the property suites and assemble a VerificationReport.

    params_set defaults to the fixture battery.  suites optionally
    selects a subset by name.  richardson sharpens the numeric
    cross-check from 1e-3 to 1e-6 at roughly double cost.  k_corruption
    is a test hook: it shifts k inside the expected ladder factors so a
    deliberate error makes the ladder suite fail.  Each suite's worst
    residual is its largest, 0 if it yields none.  A failing suite is
    recorded, not raised.  A model whose partner level k+1 exceeds K_MAX,
    and a grid_n that is not an integer of at least 16, are rejected with
    a ValueError before any suite runs.
    """
    battery = tuple(params_set) if params_set is not None else DEFAULT_BATTERY
    if not battery:
        raise ValueError("params_set must not be empty")
    for p in battery:  # the partner, ladder and shape-invariance suites build level k+1
        if p.k + 1.0 > model.K_MAX:
            raise ValueError(f"partner level k+1 = {p.k + 1.0!r} exceeds K_MAX = {model.K_MAX:g}")
    n_max = model._check_level(n_max, VERIFIED_LEVEL)
    if model._check_int(grid_n, "grid_n", positive=True) < 16:  # discretize_delta's bound
        raise ValueError(f"grid_n must be at least 16, got {grid_n!r}")
    grid_n = int(grid_n)
    run = _Run(n_max, grid_n, richardson, k_corruption)
    results = []
    for name, suite, tol in _select_suites(suites):
        worst = float(max(suite(battery, run), default=0.0))
        tol = float(tol(run) if callable(tol) else tol)
        status = "pass" if worst <= tol else "fail"
        results.append(SuiteResult(name, status, worst, tol))

    meta = {
        "params_set": [{"omega": p.omega, "epsilon": p.epsilon, "k": p.k} for p in battery],
        "n_max": n_max,
        "grid_n": grid_n,
        "richardson": richardson,
    }
    return VerificationReport(tuple(results), meta)


def _select_suites(names):
    if names is None:
        return _SUITES
    names = [names] if isinstance(names, str) else list(names)
    unknown = set(names) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite name(s): {sorted(unknown)}")
    return tuple(item for item in _SUITES if item[0] in names)


# ----------------------------------------------------------------------
# nonrelativistic limit
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NonrelLimitRow:
    k: float
    mass: float
    residuals: tuple[float, ...]


def run_nonrel_limit(omega: float, epsilon: float, k_sequence) -> list[NonrelLimitRow]:
    """Residuals r_n(k) = |E_n - m - omega(n + 1/2)| / omega for n = 0..5.

    E_n - m is computed as (E_n^2 - m^2)/(E_n + m) with
    E_n^2 - m^2 = w^2 (n^2 + 2nk + k) to dodge the catastrophic
    cancellation at large k.  r_n(k) decays like 1/k toward the harmonic
    oscillator levels.
    """
    ks = list(k_sequence)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_sequence must be strictly increasing")
    rows = []
    for k in ks:
        p = ModelParams(omega, epsilon, k)
        m = mass_from_k(p)
        w2 = p.hat_omega ** 2
        residuals = []
        for n in range(6):
            gap_sq = w2 * (n * n + 2.0 * n * k + k)
            e_n = math.sqrt(m * m + gap_sq)
            r = abs(gap_sq / (e_n + m) - omega * (n + 0.5)) / omega
            residuals.append(r)
        rows.append(NonrelLimitRow(k, m, tuple(residuals)))
    return rows
