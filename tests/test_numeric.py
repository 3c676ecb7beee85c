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
    _odd_starts,
    _parity_blocks,
    _pivot_count,
    _pivot_data,
    _pivot_sweep,
    interior_grid,
    log_gamma,
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

    @pytest.mark.parametrize("n_points", [0, -3, 2.5, 1.5, 0.5, math.nan, math.inf])
    def test_grid_rejects_bad_point_count(self, n_points):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="n_points"):
            interior_grid(p, n_points)

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
        # the even block is solved without starts, to the bit; the odd
        # block from the even levels, within the certified width
        for k in (1.25, 3.7, 10.0):
            p = ModelParams(1.0, 1.0, k)
            even, odd = _parity_blocks(discretize_delta(p, kind, n_points))
            lams = delta_eigenvalues_fd(p, kind, 5, n_points)
            evens = eigenvalues_lowest(even, 3)
            assert lams[0::2] == evens
            assert lams[1::2] == eigenvalues_lowest(odd, 2, starts=_odd_starts(evens, 5))
            for lam, ref in zip(lams[1::2], eigenvalues_lowest(odd, 2)):
                assert abs(lam - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_cross_check_sweep_counts(self, monkeypatch):
        # a default numeric_cross_check run took 100 Newton sweeps and 80
        # counting sweeps from bracket midpoints alone
        sweeps = {"newton": 0, "count": 0}

        def counted(kind, fn):
            def wrapper(*args):
                sweeps[kind] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(numeric, "_pivot_sweep", counted("newton", _pivot_sweep))
        monkeypatch.setattr(numeric, "_pivot_count", counted("count", _pivot_count))
        report = verify.run_all(suites=["numeric_cross_check"])
        assert report.all_passed
        assert 0 < sweeps["newton"] <= 80
        assert 0 < sweeps["count"] <= 80


def test_fd_oracle_does_not_import_scipy():
    # scipy is a benchmark reference only, never a dependency of the oracle
    code = (
        "import sys\n"
        "from susy_pt import ModelParams\n"
        "from susy_pt.numeric import delta_eigenvalues_fd\n"
        "delta_eigenvalues_fd(ModelParams(1.0, 1.0, 2.0), 'minus', 3, 256, richardson=True)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(susy_pt.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
