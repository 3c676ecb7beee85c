import math
import os
import subprocess
import sys

import numpy as np
import pytest

import susy_pt

from susy_pt import ModelParams, numeric, verify
from susy_pt.numeric import (
    TridiagonalOperator,
    delta_eigenvalues_fd,
    discretize_delta,
    eigenvalues_lowest,
    _even_starts,
    _odd_starts,
    _parity_blocks,
    _pivot_count,
    _pivot_data,
    _pivot_sweep,
    interior_grid,
    log_gamma,
    log_gamma_ratio,
    quadrature,
    sturm_count,
)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
        # Gamma(2.5) = (3/4) sqrt(pi)
        assert log_gamma(2.5) == pytest.approx(math.log(0.75 * math.sqrt(math.pi)), abs=1e-14)

    def test_against_stdlib_reference(self):
        zs = np.concatenate(
            [np.geomspace(1e-9, 0.5, 3000), np.linspace(0.5, 30.0, 6000), np.geomspace(30.0, 1e4, 4000)]
        )
        worst = max(
            abs(log_gamma(float(z)) - math.lgamma(float(z))) / max(1.0, abs(math.lgamma(float(z))))
            for z in zs
        )
        assert worst <= 1e-13

    def test_recurrence_consistency(self):
        # ln Gamma(z+1) = ln Gamma(z) + ln z
        for z in (0.1, 0.9, 3.3, 17.0, 123.456):
            assert log_gamma(z + 1.0) == pytest.approx(log_gamma(z) + math.log(z), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, z):
        with pytest.raises(ValueError):
            log_gamma(z)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, z):
        # log_gamma(inf) returned nan; math.lgamma gives inf
        with pytest.raises(ValueError, match="finite"):
            log_gamma(z)


class TestLogGammaRatio:
    """ln Gamma(z+a) - ln Gamma(z+b) without either term: the difference
    of two log_gamma values carries their absolute error, about 1e-7 at
    z = 1e8, where the ratio itself is near 9."""

    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (16.0, 32.0), (64.0, 128.0), (1.0, 0.5)])
    def test_matches_mpmath(self, a, b):
        # worst measured 4.0e-16 of max(1, |ratio|) over the grid
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(50):
            for z in np.geomspace(1.01, 2e8, 300):
                z = float(z)
                ref = mp.loggamma(mp.mpf(z) + a) - mp.loggamma(mp.mpf(z) + b)
                err = abs(log_gamma_ratio(z, a, b) - ref) / max(1, abs(ref))
                worst = max(worst, float(err))
        assert worst <= 1e-15

    def test_equal_shifts_give_zero(self):
        for z in (1.01, 7.0, 1e8):
            assert log_gamma_ratio(z, 3.0, 3.0) == 0.0

    def test_steps_up_to_the_series(self):
        # below z + min(a, b) = 10 the recurrence steps z up; the result
        # must meet the one taken from there directly
        for z in (0.25, 1.5, 9.75):
            stepped = log_gamma_ratio(z, 1.0, 0.5)
            direct = log_gamma_ratio(z + 20.0, 1.0, 0.5) - sum(
                math.log((z + j + 1.0) / (z + j + 0.5)) for j in range(20))
            assert stepped == pytest.approx(direct, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("z, a, b", [(0.5, -0.5, 1.0), (1.0, 1.0, -2.0), (math.nan, 1.0, 0.5),
                                         (math.inf, 1.0, 0.5), (1.0, math.inf, 0.5)])
    def test_rejects_nonpositive_or_non_finite_arguments(self, z, a, b):
        with pytest.raises(ValueError, match="log_gamma_ratio requires finite"):
            log_gamma_ratio(z, a, b)


class TestQuadrature:
    def test_monomial(self):
        assert quadrature(lambda x: x**2, 0.0, 1.0, panels=4) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_odd_integrand_vanishes(self):
        p = ModelParams(1.0, 1.0, 2.0)
        d = p.half_width
        val = quadrature(lambda x: x**3 * np.cos(x), -d, d, panels=32)
        assert abs(val) <= 1e-14

    @pytest.mark.parametrize("k,m", [(2.0, 0), (1.25, 4), (3.7, 32), (10.0, 22)])
    def test_envelope_moments(self, k, m):
        # int over D of cos^2k(wx) sin^2m(wx) dx
        #   = Gamma(k+1/2) Gamma(m+1/2) / (w Gamma(k+m+1))
        w = 2.0
        d = math.pi / (2.0 * w)
        exact = math.exp(math.lgamma(k + 0.5) + math.lgamma(m + 0.5) - math.lgamma(k + m + 1.0)) / w
        got = quadrature(
            lambda x: np.cos(w * x) ** (2.0 * k) * np.sin(w * x) ** (2 * m),
            -d,
            d,
            panels=48 + 2 * m,
        )
        assert abs(got - exact) <= 1e-12

    def test_rejects_bad_panels(self):
        with pytest.raises(ValueError):
            quadrature(lambda x: x, 0.0, 1.0, panels=0)

    @pytest.mark.parametrize("panels", [-2, 2.5, math.nan, math.inf])
    def test_rejects_non_integral_panels(self, panels):
        with pytest.raises(ValueError, match="panels"):
            quadrature(lambda x: x, 0.0, 1.0, panels=panels)

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)])
    def test_rejects_non_finite_limits(self, a, b):
        # these returned nan
        with pytest.raises(ValueError, match="limits must be finite"):
            quadrature(lambda x: np.exp(-x * x), a, b, 4)

    def test_integral_float_panels(self):
        # 4.0 passes as 4; it used to fail with TypeError inside linspace
        f = lambda x: np.cos(x) ** 3
        assert quadrature(f, 0.0, 1.0, 4.0) == quadrature(f, 0.0, 1.0, 4)


class TestGridAndOperator:
    def test_grid_layout(self):
        p = ModelParams(1.0, 1.0, 2.0)
        g = interior_grid(p, 31)
        d = p.half_width
        assert g.spacing == pytest.approx(2.0 * d / 32.0, rel=1e-15)
        assert g.points[0] == pytest.approx(-d + g.spacing, rel=1e-15)
        assert -d < g.points[0] and g.points[-1] < d
        assert np.allclose(np.diff(g.points), g.spacing, rtol=1e-12)

    @pytest.mark.parametrize("n_points", [0, -3, 2.5, 1.5, 0.5, math.nan, math.inf, "4096", True, None])
    def test_grid_rejects_bad_point_count(self, n_points):
        # one integer rule before discretize_delta's bound: "4096" raised
        # TypeError from the bound and True got "must be at least 16"
        p = ModelParams(1.0, 1.0, 2.0)
        for solve in (
            lambda: interior_grid(p, n_points),
            lambda: discretize_delta(p, "minus", n_points),
            lambda: delta_eigenvalues_fd(p, "minus", 1, n_points),
        ):
            with pytest.raises(ValueError, match="^n_points must be a positive integer"):
                solve()

    def test_grid_integral_float_count(self):
        p = ModelParams(1.0, 1.0, 2.0)
        g = interior_grid(p, 31.0)
        assert type(g.n_points) is int and g.n_points == 31
        assert g.points.tobytes() == interior_grid(p, 31).points.tobytes()

    def test_discretize_rejects_fractional_grid(self):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="n_points"):
            discretize_delta(p, "minus", 16.5)
        op = discretize_delta(p, "minus", 16.0)
        assert op.size == 16 and op.offdiag.shape == (15,)

    def test_discretize_shape_and_symmetry(self):
        p = ModelParams(1.0, 1.0, 2.0)
        op = discretize_delta(p, "minus", 64)
        assert op.size == 64 and op.offdiag.shape == (63,)
        scale = 1.0 / (p.hat_omega * interior_grid(p, 64).spacing) ** 2
        assert np.allclose(op.offdiag, -scale, rtol=1e-15)
        # even potential, mirrored to the bit
        assert np.array_equal(op.diag, op.diag[::-1])

    @pytest.mark.parametrize("n_points,k", [(16, 1e3), (17, 3.7), (4097, 1e8)])
    def test_discretize_persymmetric_to_the_bit(self, n_points, k):
        # the grid -d + h*i alone is symmetric only to an ulp
        for kind in ("minus", "plus"):
            op = discretize_delta(ModelParams(1.0, 1.0, k), kind, n_points)
            assert op.diag.tobytes() == op.diag[::-1].tobytes()
            assert op.offdiag.tobytes() == op.offdiag[::-1].tobytes()

    @pytest.mark.parametrize(
        "diag,offdiag",
        [([2.0, math.nan, 2.0], [-1.0, -1.0]), ([2.0, 2.0, 2.0], [-1.0, math.inf]),
         ([-math.inf, 2.0], [-1.0])],
    )
    def test_operator_rejects_non_finite_entries(self, diag, offdiag):
        # these gave eigenvalues_lowest(op, 2) == [nan, nan] and a Sturm count of 0
        with pytest.raises(ValueError, match="entries must be finite"):
            TridiagonalOperator(np.array(diag), np.array(offdiag))

    def test_discretize_rejects_small_grid(self):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            discretize_delta(p, "minus", 15)
        with pytest.raises(ValueError):
            discretize_delta(p, "nonsense", 64)
        with pytest.raises(ValueError):
            discretize_delta(p, "zero", 64)


class TestEigenvaluesLowest:
    def test_two_by_two_exact(self):
        op = TridiagonalOperator(np.array([2.0, 2.0]), np.array([-1.0]))
        # bisection bracket width 1e-10*(1+|lam|) bounds the midpoint error
        assert eigenvalues_lowest(op, 2) == pytest.approx([1.0, 3.0], abs=5e-10)

    def test_free_laplacian_exact_discrete_eigenvalues(self):
        # with V = 0 (particle in a box) the discrete eigenvalues are
        # known in closed form: 4/(wh)^2 sin^2(j pi / (2(N+1)))
        p = ModelParams(1.0, 2.0, 2.0)
        n = 256
        wh = p.hat_omega * interior_grid(p, n).spacing
        scale = 1.0 / wh**2
        op = TridiagonalOperator(np.full(n, 2.0 * scale), np.full(n - 1, -scale))
        got = eigenvalues_lowest(op, 6)
        for j, lam in enumerate(got, start=1):
            exact = 4.0 / wh**2 * math.sin(j * math.pi / (2.0 * (n + 1))) ** 2
            assert abs(lam - exact) <= 2e-10 * (1.0 + exact)
            # and the continuum limit j^2 to discretization accuracy
            assert lam == pytest.approx(j * j, rel=5e-4)

    def test_pt_spectrum_cross_check(self):
        # eigenvalues of the discretized operator approach n(n+2k)
        for k in (1.5, 3.7):
            p = ModelParams(1.0, 1.0, k)
            got = eigenvalues_lowest(discretize_delta(p, "minus", 1024), 4)
            for n, lam in enumerate(got):
                exact = n * (n + 2.0 * k)
                assert abs(lam - exact) <= 1e-3 * (1.0 + exact)

    def test_lowest_minus_eigenvalue_tends_to_zero(self):
        p = ModelParams(1.0, 1.0, 2.0)
        lows = [
            eigenvalues_lowest(discretize_delta(p, "minus", n), 1)[0] for n in (128, 256, 512)
        ]
        assert all(abs(b) < abs(a) for a, b in zip(lows, lows[1:]))
        assert abs(lows[-1]) < 5e-5

    def test_sturm_count_matches_returned(self):
        p = ModelParams(1.0, 1.0, 2.0)
        op = discretize_delta(p, "minus", 256)
        lams = eigenvalues_lowest(op, 5)
        for probe in (-1.0, 2.5, 5.5, 20.0, 33.0):
            below = sum(1 for lam in lams if lam < probe)
            if below < 5:  # inside the computed range
                assert sturm_count(op, probe) == below

    def test_interlacing_and_partner_shift(self):
        # plus-potential eigenvalues interlace the minus ones and match
        # them shifted by one index
        # interlacing holds up to the discretization error of the
        # near-degenerate pair lam_plus[j] ~ lam_minus[j+1]
        p = ModelParams(1.0, 1.0, 2.0)
        minus = eigenvalues_lowest(discretize_delta(p, "minus", 1024), 5)
        plus = eigenvalues_lowest(discretize_delta(p, "plus", 1024), 4)
        for j, lam in enumerate(plus):
            gap = 1e-3 * (1.0 + minus[j + 1])
            assert minus[j] < lam < minus[j + 1] + gap
            assert abs(lam - minus[j + 1]) <= gap

    def test_second_order_convergence(self):
        # halving h divides the error of each of the lowest 4 levels by ~4
        p = ModelParams(1.0, 1.0, 2.0)
        errs = {}
        for n in (512, 1024):
            lams = eigenvalues_lowest(discretize_delta(p, "minus", n), 4)
            errs[n] = [abs(lam - j * (j + 4.0)) for j, lam in enumerate(lams)]
        for e_coarse, e_fine in zip(errs[512], errs[1024]):
            assert 3.6 <= e_coarse / e_fine <= 4.4

    def test_richardson_sharpens(self):
        p = ModelParams(1.0, 1.0, 2.0)
        plain = delta_eigenvalues_fd(p, "minus", 4, 1024)
        rich = delta_eigenvalues_fd(p, "minus", 4, 1024, richardson=True)
        for n, (a, b) in enumerate(zip(plain, rich)):
            exact = n * (n + 4.0)
            assert abs(b - exact) <= 1e-6 * (1.0 + exact)
            assert abs(b - exact) < abs(a - exact) or a == b

    @pytest.mark.parametrize("richardson", ["no", math.nan, 0, 1, None, "false"])
    def test_rejects_non_bool_richardson(self, richardson):
        # "no" and nan used to run Richardson, 0 and None the plain solve
        with pytest.raises(ValueError, match="richardson must be a bool"):
            delta_eigenvalues_fd(ModelParams(1.0, 1.0, 2.0), "minus", 3, 256, richardson=richardson)

    def test_numpy_bool_richardson(self):
        p = ModelParams(1.0, 1.0, 2.0)
        for flag in (True, False):
            assert delta_eigenvalues_fd(p, "minus", 3, 256, richardson=np.bool_(flag)) == (
                delta_eigenvalues_fd(p, "minus", 3, 256, richardson=flag)
            )

    def test_count_validation(self):
        op = TridiagonalOperator(np.array([2.0, 2.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            eigenvalues_lowest(op, 0)
        with pytest.raises(ValueError):
            eigenvalues_lowest(op, 3)

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf])
    def test_rejects_fractional_count(self, count):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="count"):
            eigenvalues_lowest(discretize_delta(p, "minus", 64), count)
        with pytest.raises(ValueError, match="count"):
            delta_eigenvalues_fd(p, "minus", count, 64)

    def test_integral_float_count(self):
        # 2.0 passes as 2, as interior_grid takes 31.0 points; it used to
        # fail with TypeError in [lo0] * count
        p = ModelParams(1.0, 1.0, 2.0)
        op = discretize_delta(p, "minus", 64)
        assert eigenvalues_lowest(op, 2.0) == eigenvalues_lowest(op, 2)
        assert delta_eigenvalues_fd(p, "minus", 3.0, 64) == delta_eigenvalues_fd(p, "minus", 3, 64)


def _dense(op):
    return np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)


def _random_tridiagonal(rng, n):
    return TridiagonalOperator(rng.normal(size=n), rng.normal(size=n - 1))


def _wilkinson_plus(n=21):
    m = (n - 1) // 2
    return TridiagonalOperator(np.abs(np.arange(n) - m).astype(float), np.ones(n - 1))


def _split_blocks():
    # identical blocks joined by 1e-300: exactly double eigenvalues
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=12), rng.normal(size=11)
    return TridiagonalOperator(np.concatenate((a, a)), np.concatenate((b, [1e-300], b)))


def _all_negative():
    rng = np.random.default_rng(11)
    return TridiagonalOperator(rng.uniform(-60.0, -20.0, 40), rng.uniform(-5.0, 5.0, 39))


def _plain_bisection(op, j):
    """Reference: independent bisection on sturm_count from Gershgorin
    bounds to the certified width, one eigenvalue at a time."""
    radius = 2.0 * float(np.max(np.abs(op.offdiag), initial=0.0))
    lo, hi = float(np.min(op.diag)) - radius - 1.0, float(np.max(op.diag)) + radius + 1.0
    while hi - lo > 1e-10 * (1.0 + 0.5 * abs(lo + hi)):
        mid = 0.5 * (lo + hi)
        if sturm_count(op, mid) > j:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _assert_certified(op, lams):
    for j, lam in enumerate(lams):
        delta = 1e-10 * (1.0 + abs(lam))
        assert sturm_count(op, lam - delta) <= j < sturm_count(op, lam + delta)


class TestEigensolverAgainstDense:
    """Sturm-count eigenvalues against LAPACK (numpy.linalg.eigvalsh) on
    the dense matrix, to the certified width 1e-10 * (1 + |lambda|)."""

    @staticmethod
    def _check(op, count):
        got = eigenvalues_lowest(op, count)
        ref = np.linalg.eigvalsh(_dense(op))[:count]
        for lam, exact in zip(got, ref):
            assert abs(lam - exact) <= 1e-10 * (1.0 + abs(exact))
        _assert_certified(op, got)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tridiagonal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 201))
        self._check(_random_tridiagonal(rng, n), min(n, 7))

    def test_wilkinson_near_degenerate_pairs(self):
        op = _wilkinson_plus()
        ref = np.linalg.eigvalsh(_dense(op))
        assert ref[-1] - ref[-2] < 1e-12  # the top pair is not resolvable
        self._check(op, op.size)

    def test_split_matrix_with_double_eigenvalues(self):
        self._check(_split_blocks(), 10)

    def test_all_negative_spectrum(self):
        op = _all_negative()
        assert np.linalg.eigvalsh(_dense(op))[-1] < 0.0
        self._check(op, 9)

    def test_count_equals_size(self):
        op = _random_tridiagonal(np.random.default_rng(3), 30)
        self._check(op, op.size)


class TestEigensolverCertification:
    @pytest.mark.parametrize("kind", ["minus", "plus"])
    @pytest.mark.parametrize("k", [1.25, 10.0, 100.0])
    def test_sturm_counts_straddle_each_eigenvalue(self, kind, k):
        op = discretize_delta(ModelParams(1.0, 1.0, k), kind, 1024)
        _assert_certified(op, eigenvalues_lowest(op, 5))

    @pytest.mark.parametrize("kind", ["minus", "plus"])
    def test_matches_plain_bisection(self, kind):
        op = discretize_delta(ModelParams(1.0, 1.0, 10.0), kind, 1024)
        for j, lam in enumerate(eigenvalues_lowest(op, 5)):
            ref = _plain_bisection(op, j)
            assert abs(lam - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_newton_roundoff_floor_case(self):
        # log-det Newton settles about 1e-9 off the Sturm root here, more
        # than the certified width; the counts must still straddle it
        k = 2.0
        op = discretize_delta(ModelParams(1.0, 1.0, k), "minus", 16384)
        lams = eigenvalues_lowest(op, 5)
        _assert_certified(op, lams)
        for n, lam in enumerate(lams):
            exact = n * (n + 2.0 * k)
            assert abs(lam - exact) <= 1e-3 * (1.0 + exact)


SPLIT_NS = (16, 17, 255, 1024, 4097)
SPLIT_KS = (1.01, 1.25, 3.7, 1e3, 1e5, 1e8)
SPLIT_EPSILONS = (0.5, 2.0)
SPLIT_COUNTS = (1, 2, 5, 6)


def _random_persymmetric(rng, n):
    diag = rng.normal(size=n)
    offdiag = rng.normal(size=n - 1)
    return TridiagonalOperator(
        np.where(np.arange(n) < n // 2, diag, diag[::-1]),
        np.where(np.arange(n - 1) < (n - 1) // 2, offdiag, offdiag[::-1]),
    )


class TestParityBlocks:
    """delta_eigenvalues_fd solves the even and odd parity blocks of the
    persymmetric operator; every result is checked on the full one."""

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 40, 41])
    def test_blocks_hold_the_full_spectrum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            op = _random_persymmetric(rng, n)
            assert np.array_equal(op.diag, op.diag[::-1])
            even, odd = _parity_blocks(op)
            assert (even.size, odd.size) == ((n + 1) // 2, n // 2)
            ref = np.linalg.eigvalsh(_dense(op))
            got = np.sort(np.concatenate([np.linalg.eigvalsh(_dense(b)) for b in (even, odd)]))
            assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(ref))))

    @pytest.mark.parametrize("kind", ["minus", "plus"])
    @pytest.mark.parametrize("n_points", SPLIT_NS)
    def test_sorted_and_certified_on_full_operator(self, n_points, kind):
        # unresolved grids (large k on few points) included: there even
        # and odd eigenvalues agree to rounding
        for k in SPLIT_KS:
            for eps in SPLIT_EPSILONS:
                p = ModelParams(1.0, eps, k)
                op = discretize_delta(p, kind, n_points)
                for count in SPLIT_COUNTS:
                    lams = delta_eigenvalues_fd(p, kind, count, n_points)
                    assert len(lams) == count
                    assert lams == sorted(lams)
                    _assert_certified(op, lams)

    @pytest.mark.parametrize("n_points", SPLIT_NS)
    def test_matches_full_solve_where_resolved(self, n_points):
        resolved = 0
        for k in SPLIT_KS:
            for kind in ("minus", "plus"):
                p = ModelParams(1.0, 1.0, k)
                full = eigenvalues_lowest(discretize_delta(p, kind, n_points), 6)
                # resolved: the lowest levels are well apart on this grid
                if min((b - a) / (1.0 + abs(b)) for a, b in zip(full, full[1:])) < 1e-2:
                    continue
                resolved += 1
                lams = delta_eigenvalues_fd(p, kind, 6, n_points)
                for lam, ref in zip(lams, full):
                    assert abs(lam - ref) <= 1e-10 * (1.0 + abs(ref))
        assert resolved >= 6

    @pytest.mark.parametrize("n_points", [16, 17])
    def test_count_validation(self, n_points):
        p = ModelParams(1.0, 1.0, 2.0)
        assert len(delta_eigenvalues_fd(p, "minus", n_points, n_points)) == n_points
        for count in (0, n_points + 1, n_points + 2):
            with pytest.raises(ValueError, match="count"):
                delta_eigenvalues_fd(p, "minus", count, n_points)


class TestSturmCount:
    def test_infinite_shifts(self):
        op = _random_tridiagonal(np.random.default_rng(5), 30)
        assert sturm_count(op, -math.inf) == 0
        assert sturm_count(op, math.inf) == op.size

    def test_rejects_nan_shift(self):
        # a NaN pivot is never negative, so this returned 0
        op = _random_tridiagonal(np.random.default_rng(5), 30)
        with pytest.raises(ValueError, match="NaN"):
            sturm_count(op, math.nan)

    @pytest.mark.parametrize(
        "op", [_random_tridiagonal(np.random.default_rng(s), 60) for s in range(3)]
        + [_wilkinson_plus(), _split_blocks(), _all_negative()],
    )
    def test_count_loop_matches_newton_loop(self, op):
        # shifts at the diagonal entries zero a pivot (the first one
        # exactly), which the pivmin floor clamps; shifts at eigenvalues
        # make some pivot tiny by design
        data = _pivot_data(op)
        ref = np.linalg.eigvalsh(_dense(op))
        rng = np.random.default_rng(op.size)
        shifts = np.concatenate((op.diag, ref, np.nextafter(ref, np.inf), rng.uniform(ref[0] - 1.0, ref[-1] + 1.0, 200)))
        for lam in shifts.tolist() + [-math.inf, math.inf]:
            assert _pivot_count(*data, lam) == _pivot_sweep(*data, lam)[0]


def _bad_starts(op, count):
    """Newton starts that must be ignored or survived: non-finite, far
    outside every bracket, and each on a neighbouring eigenvalue (count
    must be below op.size)."""
    ref = np.linalg.eigvalsh(_dense(op))[: count + 1].tolist()
    span = ref[-1] - ref[0] + 1.0
    return [
        [math.nan] * count,
        [math.inf] * count,
        [-math.inf] * count,
        [lam + 10.0 * span for lam in ref[:count]],
        [lam - 10.0 * span for lam in ref[:count]],
        ref[1:],
        [ref[0]] + ref[: count - 1],
    ]


def _count_rows(monkeypatch):
    """Rows walked by the Newton and the counting pivot loops from here
    on, by kind."""
    rows = {"newton": 0, "count": 0}

    def counted(kind, fn):
        def wrapper(diag, *args):
            rows[kind] += len(diag)
            return fn(diag, *args)
        return wrapper

    monkeypatch.setattr(numeric, "_pivot_sweep", counted("newton", _pivot_sweep))
    monkeypatch.setattr(numeric, "_pivot_count", counted("count", _pivot_count))
    return rows


class TestWarmStarts:
    """eigenvalues_lowest(op, count, starts=...) stays certified whatever
    the starts, and ignored starts leave the probe sequence unchanged."""

    @staticmethod
    def _check(op, count):
        plain = eigenvalues_lowest(op, count)
        dense = np.linalg.eigvalsh(_dense(op))[:count]
        for starts in _bad_starts(op, count) + [dense]:
            got = eigenvalues_lowest(op, count, starts=starts)
            for lam, ref, exact in zip(got, plain, dense):
                assert abs(lam - ref) <= 1e-10 * (1.0 + abs(ref))
                assert abs(lam - exact) <= 1e-10 * (1.0 + abs(exact))
            _assert_certified(op, got)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tridiagonal(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 201))
        self._check(_random_tridiagonal(rng, n), min(n - 1, 7))

    def test_wilkinson_near_degenerate_pairs(self):
        op = _wilkinson_plus()
        self._check(op, op.size - 1)

    def test_split_matrix_with_double_eigenvalues(self):
        self._check(_split_blocks(), 10)

    def test_ignored_starts_give_the_same_bits(self):
        op = discretize_delta(ModelParams(1.0, 1.0, 3.7), "plus", 1024)
        plain = eigenvalues_lowest(op, 5)
        assert eigenvalues_lowest(op, 5, starts=()) == plain
        for starts in ([math.nan] * 5, [math.inf, -math.inf], [1e300] * 9):
            assert eigenvalues_lowest(op, 5, starts=starts) == plain

    def test_odd_starts_are_exact_on_a_quadratic_spectrum(self):
        level = lambda n: n * (n + 2.0 * 3.7)
        even = [level(n) for n in (0, 2, 4, 6)]
        for count in (5, 6, 7, 8):
            starts = _odd_starts(even[: (count + 1) // 2], count)
            assert starts == pytest.approx([level(n) for n in range(1, count, 2)], rel=1e-14, abs=1e-13)
        # a line through two even levels; nothing from one
        assert _odd_starts(even[:2], 3) == pytest.approx([0.5 * (even[0] + even[1])])
        assert len(_odd_starts(even[:2], 4)) == 2
        assert _odd_starts(even[:1], 2) == [] and _odd_starts(even[:1], 1) == []

    @pytest.mark.parametrize("n_points", [1024, 4097])
    @pytest.mark.parametrize("kind", ["minus", "plus"])
    def test_fd_blocks(self, kind, n_points):
        # the even block starts from the even-block levels of the same
        # solve on the grids 8 and 64 times coarser (128 alone for 1024;
        # 512 and 64 for 4097, 512 itself from 64), extrapolated through
        # their h^2 term where they agree to 0.1 (1 + |lam|); the odd block
        # from the even levels; both to the bit, and within the certified
        # width of plain solves
        for k in (1.25, 3.7, 10.0, 1e6):
            p = ModelParams(1.0, 1.0, k)
            even, odd = _parity_blocks(discretize_delta(p, kind, n_points))
            lams = delta_eigenvalues_fd(p, kind, 5, n_points)
            na, nb = n_points // 8, n_points // 64
            even_a = _parity_blocks(discretize_delta(p, kind, na))[0]
            if nb >= 64:
                lb = eigenvalues_lowest(_parity_blocks(discretize_delta(p, kind, nb))[0], 3)
                la = eigenvalues_lowest(even_a, 3, starts=lb)
                h2 = [(2.0 * p.half_width / (n + 1)) ** 2 for n in (n_points, na, nb)]
                w = (h2[0] - h2[1]) / (h2[1] - h2[2])
                starts = [a if abs(a - b) > 0.1 * (1.0 + abs(a)) else a + (a - b) * w for a, b in zip(la, lb)]
            else:
                starts = eigenvalues_lowest(even_a, 3)
            evens = eigenvalues_lowest(even, 3, starts=starts)
            odds = eigenvalues_lowest(odd, 2, starts=_odd_starts(evens, 5))
            assert lams == sorted(evens + odds)
            if k < 1e6:
                # resolved: the parities alternate
                assert (lams[0::2], lams[1::2]) == (evens, odds)
            plain = eigenvalues_lowest(even, 3) + eigenvalues_lowest(odd, 2)
            for lam, ref in zip(evens + odds, plain):
                assert abs(lam - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_cross_check_sweep_counts(self, monkeypatch):
        # rows swept by a default numeric_cross_check run: 204800 Newton
        # and 163840 counting rows from bracket midpoints alone, 155648
        # and 159744 with the odd block started from the even levels,
        # 83712 and 125952 with the even block started from one grid 8
        # times coarser, 57376 and 90688 with the starts extrapolated
        # through two coarser grids; the bounds allow 10% over the last
        # pair
        rows = _count_rows(monkeypatch)
        report = verify.run_all(suites=["numeric_cross_check"])
        assert report.all_passed
        assert 0 < rows["newton"] <= 63113
        assert 0 < rows["count"] <= 99756

    def test_one_odd_block_solve(self, monkeypatch):
        # a 16384-point solve runs its odd block once, at 8192 rows; the
        # coarse solves at 2048 and 256 points stop after their even block
        p = ModelParams(1.0, 1.0, 3.7)
        blocks = {n: _parity_blocks(discretize_delta(p, "minus", n)) for n in (16384, 2048, 256)}
        calls = []

        def recorded(op, count, **kwargs):
            calls.append((op, count))
            return eigenvalues_lowest(op, count, **kwargs)

        monkeypatch.setattr(numeric, "eigenvalues_lowest", recorded)
        delta_eigenvalues_fd(p, "minus", 5, 16384)
        same = lambda a, b: a.diag.tobytes() == b.diag.tobytes() and a.offdiag.tobytes() == b.offdiag.tobytes()
        odd = [(op.size, count) for op, count in calls if same(op, blocks[16384][1])]
        assert odd == [(8192, 2)]
        assert sorted((op.size, count) for op, count in calls) == [(128, 3), (1024, 3), (8192, 2), (8192, 3)]
        for op, count in calls:
            assert any(same(op, b) for b in (blocks[16384][0], blocks[16384][1], blocks[2048][0], blocks[256][0]))

    @pytest.mark.parametrize(
        "n_points, sequence",
        [
            (4096, [(32, 3), (256, 3), (2048, 3), (2048, 2), (4096, 3), (4096, 2)]),
            (1024, [(64, 3), (512, 3), (512, 2), (1024, 3), (1024, 2)]),
        ],
    )
    def test_richardson_solve_sequence(self, monkeypatch, n_points, sequence):
        # (block rows, count) in call order: the coarse even blocks from
        # the bottom up, then even and odd at n_points and at 2 n_points
        calls = []

        def recorded(op, count, **kwargs):
            calls.append((op.size, count))
            return eigenvalues_lowest(op, count, **kwargs)

        monkeypatch.setattr(numeric, "eigenvalues_lowest", recorded)
        delta_eigenvalues_fd(ModelParams(1.0, 1.0, 3.7), "minus", 5, n_points, richardson=True)
        assert calls == sequence

    @pytest.mark.parametrize("kind", ["minus", "plus"])
    @pytest.mark.parametrize("k", [1.25, 3.7, 100.0])
    def test_start_on_a_neighbour_falls_back(self, monkeypatch, k, kind):
        # a start on eigenvalue j + 1 draws Newton to it; the iterate's
        # count trips the safeguard, so the level falls back at once
        # (1.0-1.7 times the sweeps without starts) instead of counting
        # outward from the wrong root, about 35 probes per level
        op = discretize_delta(ModelParams(1.0, 1.0, k), kind, 1024)
        ref = eigenvalues_lowest(op, 6)
        rows = _count_rows(monkeypatch)
        plain = eigenvalues_lowest(op, 5)
        without = rows["newton"] + rows["count"]
        got = eigenvalues_lowest(op, 5, starts=ref[1:])
        assert rows["newton"] + rows["count"] - without <= 2 * without
        _assert_certified(op, got)
        for lam, exact in zip(got, plain):
            assert abs(lam - exact) <= 1e-10 * (1.0 + abs(exact))

    def test_starts_read_once_from_any_iterable(self):
        op = discretize_delta(ModelParams(1.0, 1.0, 3.7), "minus", 1024)
        starts = eigenvalues_lowest(op, 5)
        ref = eigenvalues_lowest(op, 5, starts=starts)
        assert eigenvalues_lowest(op, 5, starts=iter(starts)) == ref
        assert eigenvalues_lowest(op, 5, starts=(s for s in starts)) == ref
        assert eigenvalues_lowest(op, 5, starts=np.array(starts)) == ref

    @pytest.mark.parametrize(
        "starts", [3.0, math.nan, 2, "12", b"12", [1.0, "2"], [None], [1.0, 2j], [np.array([1.0])]]
    )
    def test_rejects_scalar_or_non_numeric_starts(self, starts):
        # a scalar raised TypeError from len(), a string entry from '<'
        op = discretize_delta(ModelParams(1.0, 1.0, 3.7), "minus", 64)
        with pytest.raises(ValueError, match="starts"):
            eigenvalues_lowest(op, 2, starts=starts)


# oracle-fd census inputs of the benchmark (n_points, richardson, k, kind)
# at 5 levels: both ends of the k range for each narrowed grid
FD_CENSUS = [
    (n_points, richardson, k, kind)
    for n_points, richardson in ((1024, False), (1024, True), (4096, True))
    for k in (1.25, 100.0)
    for kind in ("minus", "plus")
]


# rows (Newton + counting) that each TestStartFirst input swept when its
# even block started from the unextrapolated levels of one grid 8 times
# coarser, with the coarse odd blocks solved too and no grid below 128
# points; the extrapolated starts must stay within 10% of these, above
# all on unresolved inputs, where the coarse levels are not extrapolated
FD_CENSUS_ROWS = {
    (1024, False, 1.25, "minus"): 11840, (1024, False, 1.25, "plus"): 11136,
    (1024, False, 100.0, "minus"): 13568, (1024, False, 100.0, "plus"): 13568,
    (1024, True, 1.25, "minus"): 30272, (1024, True, 1.25, "plus"): 27520,
    (1024, True, 100.0, "minus"): 32000, (1024, True, 100.0, "plus"): 32000,
    (4096, True, 1.25, "minus"): 157952, (4096, True, 1.25, "plus"): 112128,
    (4096, True, 100.0, "minus"): 152832, (4096, True, 100.0, "plus"): 117760,
}
# k = 1e8 - 1, by (n_points, count); the same for both kinds
TOP_OF_K_ROWS = {
    (1024, 1): 8640, (1024, 5): 24960, (1024, 12): 52288,
    (4097, 1): 28683, (4097, 5): 86805, (4097, 12): 242738,
}


class TestStartFirst:
    """Every level delta_eigenvalues_fd returns comes from solves whose
    Newton phase starts at coarse-grid or even-block levels; each stays
    certified on the full operator and agrees with eigenvalues_lowest on
    that operator without starts."""

    @staticmethod
    def _check(p, kind, count, n_points, lams):
        op = discretize_delta(p, kind, n_points)
        _assert_certified(op, lams)
        for lam, ref in zip(lams, eigenvalues_lowest(op, count)):
            assert abs(lam - ref) <= 1e-10 * (1.0 + abs(ref))

    @pytest.mark.parametrize("n_points, richardson, k, kind", FD_CENSUS)
    def test_fd_census(self, n_points, richardson, k, kind):
        p = ModelParams(1.0, 1.0, k)
        lam1 = delta_eigenvalues_fd(p, kind, 5, n_points)
        self._check(p, kind, 5, n_points, lam1)
        if richardson:
            # the solve at 2 n_points tops the chain of grids: each even
            # block starts from the two grids below it, so 2 n_points from
            # n_points // 8 and n_points, and its odd block from its even
            # levels
            solved = []
            for n in {1024: [128, 1024, 2048], 4096: [64, 512, 4096, 8192]}[n_points]:
                even_op, odd_op = _parity_blocks(discretize_delta(p, kind, n))
                solved.append((n, eigenvalues_lowest(even_op, 3, starts=_even_starts(p, n, solved[-2:]))))
            assert lam1[0::2] == solved[-2][1]
            even2 = solved[-1][1]
            lam2 = sorted(even2 + eigenvalues_lowest(odd_op, 2, starts=_odd_starts(even2, 5)))
            self._check(p, kind, 5, 2 * n_points, lam2)
            r2 = ((2 * n_points + 1) / (n_points + 1)) ** 2
            extrapolated = [(r2 * b - a) / (r2 - 1.0) for a, b in zip(lam1, lam2)]
            assert delta_eigenvalues_fd(p, kind, 5, n_points, richardson=True) == extrapolated

    @pytest.mark.parametrize("count", [1, 5, 12])
    @pytest.mark.parametrize("n_points", [1024, 4097])
    @pytest.mark.parametrize("kind", ["minus", "plus"])
    def test_top_of_k_range(self, kind, n_points, count):
        # unresolved: even and odd levels agree to rounding on these grids
        p = ModelParams(1.0, 1.0, 1e8 - 1.0)
        self._check(p, kind, count, n_points, delta_eigenvalues_fd(p, kind, count, n_points))

    @pytest.mark.parametrize(
        "n_points, richardson, k, kind, count",
        [key + (5,) for key in FD_CENSUS_ROWS]
        + [(n_points, False, 1e8 - 1.0, kind, count) for n_points, count in TOP_OF_K_ROWS for kind in ("minus", "plus")],
    )
    def test_rows_within_budget(self, monkeypatch, n_points, richardson, k, kind, count):
        if k == 1e8 - 1.0:
            budget = TOP_OF_K_ROWS[n_points, count]
        else:
            budget = FD_CENSUS_ROWS[n_points, richardson, k, kind]
        rows = _count_rows(monkeypatch)
        delta_eigenvalues_fd(ModelParams(1.0, 1.0, k), kind, count, n_points, richardson=richardson)
        assert 0 < rows["newton"] + rows["count"] <= 1.1 * budget

    def test_no_start_from_the_closed_forms(self, monkeypatch):
        # the oracle must not read n(n+2k): every closed-form spectrum
        # function raises, in susy_pt.model and wherever it is bound
        ref = {
            (kind, richardson): delta_eigenvalues_fd(ModelParams(1.0, 1.0, 3.7), kind, 5, 4096, richardson=richardson)
            for kind in ("minus", "plus")
            for richardson in (False, True)
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("the FD oracle called a closed form")

        names = ("energy_squared", "energy", "delta_eigenvalue", "spectrum")
        closed = {name: getattr(susy_pt.model, name) for name in names}
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "susy_pt" or mod_name.startswith("susy_pt."):
                for name in names:
                    if getattr(mod, name, None) is closed[name]:
                        monkeypatch.setattr(mod, name, forbidden)
                        patched += 1
        assert patched >= 8  # model, the package and verify at least
        with pytest.raises(AssertionError, match="closed form"):
            susy_pt.model.spectrum(ModelParams(1.0, 1.0, 3.7), 4)
        for (kind, richardson), lams in ref.items():
            assert delta_eigenvalues_fd(ModelParams(1.0, 1.0, 3.7), kind, 5, 4096, richardson=richardson) == lams


def test_import_footprint_of_cli_queries_and_fd_oracle():
    # scipy and mpmath are benchmark and test references only, never
    # dependencies; numpy.random (about 6 MB) loads only with verify's
    # test polynomials, so no query path or FD solve may pull it in
    code = (
        "import sys\n"
        "import susy_pt\n"
        "from susy_pt import ModelParams, cli\n"
        "from susy_pt.numeric import delta_eigenvalues_fd\n"
        "for argv in (['spectrum', '--k', '2'], ['eigenfunction', '--k', '3', '--n', '2'],\n"
        "             ['hierarchy', '--k', '2']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "delta_eigenvalues_fd(ModelParams(1.0, 1.0, 2.0), 'minus', 3, 256, richardson=True)\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] in ('scipy', 'mpmath') or m.startswith('numpy.random'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(susy_pt.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
