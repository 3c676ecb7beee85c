"""Acceptance criteria, one test per criterion at its contractual
tolerance.  Each test prints a single PASS/FAIL line; run with

    pytest tests/test_acceptance.py -s

to see the lines even when everything passes.
"""

import math

import numpy as np

from susy_pt import ModelParams, energy
from susy_pt.ladder import (
    LadderContext,
    build_from_ground,
    commutator_check,
    factorization_residual,
    lower,
    raise_,
)
from susy_pt.model import v_minus, v_plus
from susy_pt.numeric import discretize_delta, eigenvalues_lowest, interior_grid
from susy_pt.verify import run_nonrel_limit
from susy_pt.wavefun import Wavefunction, evaluate, inner_product

from conftest import BATTERY, FIXTURE_KS

N_MAX = 16


def _criterion(num, name, worst, tol, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {num:02d} {name}: worst {worst:.3e} vs tolerance {tol:.1e}{suffix}")
    assert worst <= tol, f"criterion {num} {name}: {worst:.3e} > {tol:.1e}"


def test_criterion_01_equidistance():
    worst = 0.0
    for k in FIXTURE_KS:
        p = ModelParams(1.0, 1.0, k)
        for n in range(N_MAX + 1):
            worst = max(worst, abs(energy(p, n + 1) - energy(p, n) - 1.0))
    _criterion(1, "equidistance at epsilon=1", worst, 1e-12)


def test_criterion_02_spectrum_oracle():
    p = ModelParams(1.0, 1.0, 2.0)
    exact = [n * (n + 4.0) for n in range(5)]
    lam_4096 = eigenvalues_lowest(discretize_delta(p, "minus", 4096), 5)
    worst_plain = max(abs(a - b) / (1.0 + b) for a, b in zip(lam_4096, exact))
    _criterion(2, "spectrum oracle N=4096", worst_plain, 1e-3, "target {0,5,12,21,32}")
    lam_8192 = eigenvalues_lowest(discretize_delta(p, "minus", 8192), 5)
    r2 = (8193.0 / 4097.0) ** 2
    lam_rich = [(r2 * b - a) / (r2 - 1.0) for a, b in zip(lam_4096, lam_8192)]
    worst_rich = max(abs(a - b) / (1.0 + b) for a, b in zip(lam_rich, exact))
    _criterion(2, "spectrum oracle Richardson {4096,8192}", worst_rich, 1e-6)


def test_criterion_03_partner_degeneracy():
    p = ModelParams(1.0, 1.0, 2.0)
    minus = eigenvalues_lowest(discretize_delta(p, "minus", 4096), 5)
    plus = eigenvalues_lowest(discretize_delta(p, "plus", 4096), 4)
    worst = max(
        abs(lp - lm) / (1.0 + abs(lm)) for lp, lm in zip(plus, minus[1:])
    )
    _criterion(3, "partner degeneracy", worst, 1e-3)


def test_criterion_04_ladder_relations(build_cached):
    worst = 0.0
    for p in BATTERY:
        x = interior_grid(p, 2001).points
        ctx = LadderContext(p, p.k)
        up = p.with_k(p.k + 1.0)
        for n in range(1, N_MAX + 1):
            u_n = build_cached(p, n)
            u_d = build_cached(up, n - 1)
            factor = math.sqrt(n * (n + 2.0 * p.k))
            worst = max(
                worst,
                float(np.max(np.abs(evaluate(lower(ctx, u_n), x) - factor * evaluate(u_d, x)))),
                float(np.max(np.abs(evaluate(raise_(ctx, u_d), x) - factor * evaluate(u_n, x)))),
            )
    _criterion(4, "ladder relations", worst, 1e-8)


def test_criterion_05_shape_invariance():
    worst = 0.0
    for p in BATTERY:
        x = interior_grid(p, 10_000).points
        ref = v_minus(p.with_k(p.k + 1.0), x)
        res = np.abs(v_plus(p, x) - ref - (2.0 * p.k + 1.0)) / (1.0 + np.abs(ref))
        worst = max(worst, float(np.max(res)))
    _criterion(5, "shape invariance", worst, 1e-10)


def test_criterion_06_factorization_and_commutator():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for p in BATTERY:
        x = interior_grid(p, 2001).points
        for _ in range(20):
            deg = int(rng.integers(1, 9))
            coeffs = rng.uniform(-1.0, 1.0, deg + 1)
            for kappa in (p.k, p.k + 1.0):
                wf = Wavefunction(p, kappa, coeffs)
                scale = 1.0 + float(np.max(np.abs(evaluate(wf, x))))
                worst = max(worst, factorization_residual(p.k, wf, x) / scale)
            worst = max(worst, commutator_check(p.k, Wavefunction(p, p.k, coeffs), x))
    _criterion(6, "factorization and commutator", worst, 1e-8)


def test_criterion_07_build_up_formula(build_cached):
    worst = 0.0
    for p in BATTERY:
        x = interior_grid(p, 2001).points
        for n in range(N_MAX + 1):
            got = build_from_ground(p, n)
            want = build_cached(p, n)
            worst = max(worst, float(np.max(np.abs(evaluate(got, x) - evaluate(want, x)))))
    _criterion(7, "build-up formula", worst, 1e-8)


def test_criterion_08_orthonormality(build_cached):
    worst = 0.0
    for p in BATTERY:
        fns = [build_cached(p, n) for n in range(8)]
        gram = np.array([[inner_product(f, g) for g in fns] for f in fns])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(8)))))
    _criterion(8, "orthonormality", worst, 1e-8)


def test_criterion_09_nonrelativistic_limit():
    rows = run_nonrel_limit(1.0, 1.0, (1e2, 1e3, 1e4, 1e6))
    r0 = [row.residuals[0] for row in rows]
    monotone = all(b < a for a, b in zip(r0, r0[1:]))
    worst = r0[-1] if monotone else math.inf
    _criterion(9, "nonrelativistic limit", worst, 1e-5, "r0 sequence " + ", ".join(f"{r:.2e}" for r in r0))


def test_criterion_10_finite_difference_order():
    p = ModelParams(1.0, 1.0, 2.0)
    err = {}
    for n_points in (2048, 4096):
        lam = eigenvalues_lowest(discretize_delta(p, "minus", n_points), 2)[1]
        err[n_points] = abs(lam - 5.0)
    ratio = err[2048] / err[4096]
    ok = 3.6 <= ratio <= 4.4
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion 10 finite-difference order: ratio {ratio:.3f} vs window [3.6, 4.4]")
    assert ok, f"criterion 10: error ratio {ratio} outside [3.6, 4.4]"
