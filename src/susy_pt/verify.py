"""Property suites tying the closed-form results to the numerical oracle,
with a machine-readable report.

Each suite is a generator fn(p, record, run) that yields its residuals
for one model p.  record() is the model's grid record, built on the
first call and shared by every suite of the model; a suite builds each
state where it reads it.  The one table _SUITES gives each suite its
tolerance and its scope, and one rule places every suite: run_all makes
one pass over the battery and runs a suite on the first model of each
distinct value of its scope key.  The key is the model itself for
orthonormality and equidistance; its k for eigen_residual,
partner_eigen_residual, ladder, build_up, shape_invariance,
factorization, commutator and numeric_cross_check; and a constant for
nonrel_limit, so it runs once.  A model that repeats an earlier
model's k runs orthonormality and equidistance alone, and builds no
grid record.

The four state suites (eigen_residual, partner_eigen_residual, ladder,
build_up) report amplitude-relative residuals: each pointwise
difference is divided by max|U| of the compared state on the grid
record.  U_{k,n}(x; w) = sqrt(w) u_{k,n}(wx) and the grid is pi/w times
a fixed set of points, so difference and amplitude both scale by
sqrt(w) and their ratio depends on k alone, up to rounding; the w in
the normalization is what orthonormality checks, per model.

Each suite's residuals are reduced to the worst one, and a suite
passes iff worst residual <= tolerance.  Suites are deterministic given
their inputs (random test polynomials use a fixed seed).
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model
from .ladder import (
    LadderContext,
    _commutator_residuals,
    _delta_factors,
    _delta_rows,
    _derivative_rows,
    _factorization_residuals,
    _raising_chains,
    lower,
    raise_,
)
from .model import ModelParams, delta_eigenvalue, energy, mass_from_k, v_minus, v_plus
from .numeric import _GL_WEIGHTS, _MIN_POINTS, _gl_panels, delta_eigenvalues_fd, interior_grid
from .wavefun import _form_row, _make_state, _panels, _recurrence, build_eigenfunction, evaluate, samples

__all__ = [
    "DEFAULT_BATTERY",
    "MAX_GRID_N",
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

# Largest grid_n run_all admits: the largest grid the oracle-fd
# benchmark workload solves without Richardson.  The pure-Python Sturm
# bisection grows at least linearly in the grid, so a larger one runs
# for seconds to minutes with no output.
MAX_GRID_N = 16384

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
        return {"suites": [asdict(s) for s in self.suites], "meta": self.meta}

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


def _grid_record(p):
    """The model's pointwise grid record: a new Samples record of the
    interior grid, whose memo of envelope powers and Gegenbauer rows
    (wavefun._recurrence) every suite of the model reads.  Those rows
    are formed once per set and derivative order, and only to the order
    some suite asks for (values for build_up, P' for ladder, P'' for the
    eigen suites).  run_all builds it on a suite's first call and drops
    it before the next model's, so nothing in it outlives the model."""
    return samples(p, interior_grid(p, _GRID_POINTS).points)


def _relative(diff, u) -> float:
    """max|diff| in units of max|u|, the amplitude of the compared state
    on the grid record."""
    return float(np.max(np.abs(diff)) / np.max(np.abs(u)))


def _suite_orthonormality(p, record, run):
    """Per model: one Gram matrix of levels 0..7, on inner_product's
    nodes for the top pair (7, 7), so no pair gets fewer panels than it
    would there, in a node record of its own.  The one state suite that
    reads the w in the normalization."""
    panels = _panels(2 * 7)
    nodes, half = _gl_panels(-p.half_width, p.half_width, panels)
    x = samples(p, nodes)
    u = np.array([evaluate(build_eigenfunction(p, n), x) for n in range(8)])
    gram = (u * np.tile(half * _GL_WEIGHTS, panels)) @ u.T
    yield from np.abs(gram - np.eye(8))[np.triu_indices(8)]


def _suite_eigen_residual(p, record, run, partner=False):
    """Per distinct k: Delta_- U_{k,n} = n(n+2k) U_{k,n} for n <= n_max,
    or if partner Delta_+ U_{k+1,n-1} = n(n+2k) U_{k+1,n-1} for
    1 <= n <= n_max, from the record's Gegenbauer rows P, P' and P'' of
    the set through ladder's one Delta formula, whose factor rows are
    formed once per set.  The residual is max|Delta U - lam U| over
    (1 + lam) max|U|.

    Delta is dimensionless, -(1/w^2) d^2/dx^2 + V(wx), and U_{k,n}(x; w)
    = sqrt(w) u_{k,n}(wx) on a grid that is pi/w times a fixed set of
    points, so both maxima carry the factor sqrt(w) and the ratio
    depends on k alone."""
    kind, kappa = ("plus", p.k + 1.0) if partner else ("minus", p.k)
    rec = record()
    rows = _recurrence(rec, kappa, run.n_max - int(partner), 2)
    envelope = rec.power(kappa)
    factors = _delta_factors(kind, p.k, kappa, rec)
    for n in range(int(partner), run.n_max + 1):
        level = [r[n - int(partner)] for r in rows]
        lam = delta_eigenvalue(p, n)
        u = envelope * level[0]
        yield _relative(_delta_rows(factors, level) - lam * u, u) / (1.0 + lam)


def _suite_ladder(p, record, run):
    """Per distinct k: A_k U_{k,n} = f U_{k+1,n-1} and A_k^+ U_{k+1,n-1}
    = f U_{k,n} with f = sqrt(n(n+2k)): the public lower and raise_ act
    on the eigenstates, which read P_n' at parameter k (Q_m and Q_m' at
    k+1), and their images are compared with the values of the other
    level set, never with an index shift of the same rows; the k inside
    f is shifted by the k_corruption hook.  Each residual is in units of
    max|U| of the state on the right.

    A_k = (1/w) d/dx + k tan(wx) is dimensionless like Delta, so for
    the reason given at the eigen suites the ratio depends on k alone."""
    ctx = LadderContext(p, p.k)
    expected = p.with_k(p.k + run.k_corruption)
    partner = p.with_k(p.k + 1.0)
    x = record()
    for n in range(1, run.n_max + 1):
        factor = math.sqrt(delta_eigenvalue(expected, n))
        down = build_eigenfunction(partner, n - 1)
        up = build_eigenfunction(p, n)
        u_down, u_up = evaluate(down, x), evaluate(up, x)
        yield _relative(evaluate(lower(ctx, up), x) - factor * u_down, u_down)
        yield _relative(evaluate(raise_(ctx, down), x) - factor * u_up, u_up)


def _suite_shape_invariance(p, record, run):
    """Per distinct k: V_+(k) = V_-(k+1) + 2k + 1 for the dimensionless
    potentials, on a 10^4-point grid.

    The grid is pi/w times a fixed set of points and the potentials read
    it only through tan(wx), so the residual depends on k alone."""
    x = interior_grid(p, 10_000).points
    ref = v_minus(p.with_k(p.k + 1.0), x)
    res = np.abs(v_plus(p, x) - ref - (2.0 * p.k + 1.0)) / (1.0 + np.abs(ref))
    yield float(np.max(res))


@functools.cache
def _random_test_fns():
    """The coefficient arrays of the factorization and commutator suites,
    20 polynomials of degree 1..8: built once per process, read-only, the
    same for every model and run.  Built on first use, not at import:
    numpy.random adds about 6 MB to every process that imports the
    package."""
    rng = np.random.default_rng(_TEST_FN_SEED)
    fns = []
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1.0, 1.0, deg + 1)
        coeffs[-1] = coeffs[-1] or 1.0
        coeffs.setflags(write=False)
        fns.append(coeffs)
    return tuple(fns)


@functools.cache
def _test_fn_stacks():
    """The test polynomials grouped by coefficient length, shortest
    first: pairs of their indices in _random_test_fns and the unit-row
    state of their stacked coefficient columns (8 stacks, of 3, 2, 3,
    5, 1, 4, 1 and 1 columns; a lone polynomial keeps its 1-D
    coefficients, the one-column path, whose rows are not broadcast).
    Built once per process; each column evaluates and raises to the
    bits of its own polynomial (wavefun._make_state)."""
    fns = _random_test_fns()
    groups = {}
    for i, coeffs in enumerate(fns):
        groups.setdefault(coeffs.size, []).append(i)
    stacks = []
    for _, idx in sorted(groups.items()):
        coeffs = np.column_stack([fns[i] for i in idx]) if len(idx) > 1 else fns[idx[0]]
        stacks.append((idx, _make_state(None, 0, (coeffs,))))
    return tuple(stacks)


def _suite_factorization(p, record, run):
    """Per distinct k: H_- = A^+A and H_+ = AA^+ on the test polynomials
    at levels k and k+1, on the model's grid record, each residual over
    1 + max|U|.  Each stack of _test_fn_stacks gets its rows P, P' and
    P'' once (ladder._derivative_rows); both levels and both scales read
    them.  Delta's factor rows are formed once per level, as in the
    eigen suites.  The residuals come in the order of the test
    polynomials, with the bits of factorization_residual on each.

    The polynomials and the levels are the same for every model; the grid
    is pi/w times a fixed set of points and the operators read it only
    through wx.  So the residuals depend on k alone.  Where w is a power
    of two, wx is exact and so are the residuals; elsewhere they move by
    rounding."""
    rec = record()
    levels = [(kappa, _delta_factors(kind, p.k, kappa, rec))
              for kind, kappa in (("minus", p.k), ("plus", p.k + 1.0))]
    out = np.empty((len(_random_test_fns()), 2))
    for idx, state in _test_fn_stacks():
        rows = _derivative_rows(rec, state)
        for j, (kappa, factors) in enumerate(levels):
            scale = 1.0 + np.max(np.abs(rec.power(kappa) * rows[0]), axis=-1)
            out[idx, j] = _factorization_residuals(p.k, kappa, state, rows, factors, rec) / scale
    yield from out.ravel().tolist()


def _suite_commutator(p, record, run):
    """Per distinct k: [A, A^+] = 2k + (1/2k)(A + A^+)^2 on the test
    polynomials, on the model's grid record: one row P per stack of
    _test_fn_stacks, read by the right side.  The residuals come in the
    order of the test polynomials, with the bits of commutator_check on
    each.

    As for factorization, the residuals depend on k alone."""
    rec = record()
    out = np.empty(len(_random_test_fns()))
    for idx, state in _test_fn_stacks():
        out[idx] = _commutator_residuals(p.k, p.k, state, _form_row(rec, state), rec)
    yield from out.tolist()


def _suite_build_up(p, record, run):
    """Per distinct k: the raising chains of build_from_ground(p, n) for
    n <= n_max, raised together in one lock-step pass, against the
    eigenstates U_{k,n}, the coefficient side against the Gegenbauer
    rows, in units of max|U_{k,n}|.

    Both sides are sqrt(w) times a function of wx (the chain's w enters
    through its ground norm alone), so the ratio depends on k alone."""
    x = record()
    for n, wf in enumerate(_raising_chains(p, range(run.n_max + 1))):
        u = evaluate(build_eigenfunction(p, n), x)
        yield _relative(evaluate(wf, x) - u, u)


def _suite_numeric_cross_check(p, record, run):
    """Per distinct k: the FD oracle's lowest five eigenvalues against
    n(n+2k), solved at omega = epsilon = 1; the eigenvalues carry no
    omega/epsilon dependence."""
    q = ModelParams(1.0, 1.0, p.k)
    lam = delta_eigenvalues_fd(q, "minus", 5, run.grid_n, richardson=run.richardson)
    for n, lam_hat in enumerate(lam):
        exact = delta_eigenvalue(q, n)
        yield abs(lam_hat - exact) / (1.0 + exact)


def _suite_equidistance(p, record, run):
    """Per model: E_{n+1} - E_n = omega at epsilon = 1."""
    q = p if p.epsilon == 1.0 else ModelParams(p.omega, 1.0, p.k)
    for n in range(VERIFIED_LEVEL + 1):
        yield abs(energy(q, n + 1) - energy(q, n) - q.omega)


def _suite_nonrel_limit(p, record, run):
    """Once per run: the levels approach the oscillator's as k grows, on a
    fixed k sequence."""
    rows = run_nonrel_limit(1.0, 1.0, _NONREL_KS)
    yield rows[-1].residuals[0]
    for n in range(6):
        seq = [row.residuals[n] for row in rows]
        if any(b >= a for a, b in zip(seq, seq[1:])):
            yield math.inf


# A suite's scope is its key: run_all runs the suite on the first model
# of each distinct key, so per model, per distinct k or once per run.
_MODEL, _PER_K, _ONCE = (lambda p: p), (lambda p: p.k), (lambda p: None)

# The tolerance of the amplitude-relative state suites.  max|U| of the
# default battery's compared states lies in 0.58-1.95 (sqrt(w) of 0.71,
# 1 and 1.41 times that of w = 1), so 5e-9 admits no more than
# 5e-9 * 1.95 < 1e-8 of absolute error at any of its models, the bound
# these suites held while their residuals were absolute.
_STATE_TOL = 5e-9

# The one table of suites in report order, with their scopes and
# tolerances; a callable tolerance depends on the run.
_SUITES = (
    ("orthonormality", _MODEL, _suite_orthonormality, 1e-8),
    ("eigen_residual", _PER_K, _suite_eigen_residual, _STATE_TOL),
    ("partner_eigen_residual", _PER_K, functools.partial(_suite_eigen_residual, partner=True), _STATE_TOL),
    ("ladder", _PER_K, _suite_ladder, _STATE_TOL),
    ("shape_invariance", _PER_K, _suite_shape_invariance, 1e-10),
    ("factorization", _PER_K, _suite_factorization, 1e-8),
    ("commutator", _PER_K, _suite_commutator, 1e-8),
    ("build_up", _PER_K, _suite_build_up, _STATE_TOL),
    ("numeric_cross_check", _PER_K, _suite_numeric_cross_check, lambda run: 1e-6 if run.richardson else 1e-3),
    ("equidistance", _MODEL, _suite_equidistance, 1e-12),
    ("nonrel_limit", _ONCE, _suite_nonrel_limit, 1e-5),
)

SUITE_NAMES = tuple(name for name, *_ in _SUITES)


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
    selects a nonempty subset by name.  richardson sharpens the numeric
    cross-check from 1e-3 to 1e-6 at roughly double cost.  k_corruption
    is a test hook: it shifts k inside the expected ladder factors so a
    deliberate error makes the ladder suite fail.  Each suite's worst
    residual is its largest, 0 if it yields none.  A failing suite is
    recorded, not raised.  A params_set that is one ModelParams or not
    iterable, a battery entry that is not a ModelParams, a
    model whose partner level k+1 exceeds K_MAX, a k_corruption that is
    not finite or takes some model's k outside (1, K_MAX], a grid_n that
    is not an integer in 16..MAX_GRID_N and a richardson that is not a
    bool are rejected with a ValueError before any suite runs.
    """
    if params_set is None:
        battery = DEFAULT_BATTERY
    elif not isinstance(params_set, Iterable):  # one ModelParams too
        raise ValueError(f"params_set must be an iterable of ModelParams, got {params_set!r}")
    else:
        battery = tuple(params_set)
    if not battery:
        raise ValueError("params_set must not be empty")
    if not math.isfinite(k_corruption):
        raise ValueError(f"k_corruption must be finite, got {k_corruption!r}")
    for p in battery:  # the partner, ladder and shape-invariance suites build level k+1
        if not isinstance(p, ModelParams):
            raise ValueError(f"params_set entries must be ModelParams, got {p!r}")
        if p.k + 1.0 > model.K_MAX:
            raise ValueError(f"partner level k+1 = {p.k + 1.0!r} exceeds K_MAX = {model.K_MAX:g}")
        if not 1.0 < p.k + k_corruption <= model.K_MAX:  # the ladder suite's expected level
            raise ValueError(
                f"k + k_corruption = {p.k + k_corruption!r} lies outside (1, K_MAX = {model.K_MAX:g}]"
            )
    n_max = model._check_level(n_max, VERIFIED_LEVEL)
    grid = model._check_int(grid_n, "grid_n", positive=True)
    if not _MIN_POINTS <= grid <= MAX_GRID_N:  # from discretize_delta's bound to the cap
        raise ValueError(f"grid_n must be in {_MIN_POINTS}..MAX_GRID_N = {MAX_GRID_N}, got {grid_n!r}")
    richardson = model._check_bool(richardson, "richardson")
    run = _Run(n_max, grid, richardson, k_corruption)
    selected = _select_suites(suites)

    worst = dict.fromkeys(name for name, *_ in selected)
    seen = set()
    for p in battery:
        record = functools.cache(functools.partial(_grid_record, p))
        for name, scope, suite, _ in selected:
            key = (name, scope(p))
            if key not in seen:
                seen.add(key)
                worst[name] = _fold(worst[name], suite(p, record, run))

    results = []
    for name, _, _, tol in selected:
        res = float(0.0 if worst[name] is None else worst[name])
        tol = float(tol(run) if callable(tol) else tol)
        results.append(SuiteResult(name, "pass" if res <= tol else "fail", res, tol))

    meta = {
        "params_set": [{"omega": p.omega, "epsilon": p.epsilon, "k": p.k} for p in battery],
        "n_max": n_max,
        "grid_n": grid,
        "richardson": richardson,
    }
    return VerificationReport(tuple(results), meta)


def _fold(worst, residuals):
    """The worst so far after residuals, by max's rule continued across
    calls: the first residual stays until a strictly greater one comes,
    so a leading NaN is kept and a later one passed over, as in
    max(residuals, default=0.0).  worst is None before a suite's first
    residual."""
    for r in residuals:
        if worst is None or r > worst:
            worst = r
    return worst


def _select_suites(names):
    if names is None:
        return _SUITES
    names = [names] if isinstance(names, str) else list(names)
    if not names:  # a run that checks nothing must not pass
        raise ValueError("suites must name at least one suite")
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
