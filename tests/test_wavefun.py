import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from susy_pt import ModelParams
from susy_pt.ladder import _der, apply_delta, chain_prefactor
from susy_pt.model import K_MAX
from susy_pt.numeric import interior_grid, quadrature
from susy_pt.wavefun import (
    MAX_LEVEL,
    Samples,
    Wavefunction,
    _envelope,
    _ground_norm,
    _horner,
    _recurrence,
    build_eigenfunction,
    evaluate,
    hypergeometric_coefficients,
    hypergeometric_terminating,
    inner_product,
    samples,
)

from conftest import BATTERY, oracle_coeffs


def _series_oracle(n_s, b, c, z):
    """Exact rational term-by-term summation of the terminating series.

    Returns (value, sum of |term|); the latter bounds the rounding noise
    of any double-precision summation of the same terms.
    """
    total = Fraction(0)
    magnitude = Fraction(0)
    term = Fraction(1)
    for j in range(n_s + 1):
        total += term
        magnitude += abs(term)
        term *= Fraction(j - n_s) * (Fraction(b) + j)
        term /= (Fraction(c) + j) * (j + 1)
        term *= Fraction(z)
    return total, magnitude


class TestHypergeometric:
    def test_order_zero_is_one(self):
        for b, c, z in [(4.0, 0.5, 0.3), (-2.5, 1.5, -7.0)]:
            assert hypergeometric_terminating(0, b, c, z) == 1.0

    def test_order_one_closed_form(self):
        # F(-1, b; c; z) = 1 - (b/c) z
        for b, c, z in [(3.5, 0.5, 0.25), (6.0, 1.5, -0.8)]:
            got = hypergeometric_terminating(1, b, c, z)
            assert got == pytest.approx(1.0 - (b / c) * z, rel=1e-15)

    def test_three_term_value(self):
        # F(-2, 4; 1/2; 1/4) = -4/3 by exact rational summation
        assert _series_oracle(2, 4, Fraction(1, 2), Fraction(1, 4))[0] == Fraction(-4, 3)
        got = hypergeometric_terminating(2, 4.0, 0.5, 0.25)
        assert got == pytest.approx(-4.0 / 3.0, rel=1e-14)

    def test_against_rational_oracle(self):
        # error must stay at the rounding level of the alternating sum,
        # i.e. a small multiple of eps * sum|term|
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_s = int(rng.integers(0, 13))
            b = float(np.round(rng.uniform(0.5, 20.0), 6))
            c = float(rng.choice([0.5, 1.5]))
            z = float(np.round(rng.uniform(0.0, 1.0), 6))
            expect, magnitude = _series_oracle(
                n_s, Fraction(str(b)), Fraction(str(c)), Fraction(str(z))
            )
            got = hypergeometric_terminating(n_s, b, c, z)
            assert abs(got - float(expect)) <= 1e-13 * (1.0 + float(magnitude))

    def test_vectorized_z(self):
        z = np.linspace(0.0, 1.0, 11)
        got = hypergeometric_terminating(3, 5.5, 0.5, z)
        assert got.shape == z.shape
        assert got[0] == 1.0

    @pytest.mark.parametrize("c", [0.0, -1.0, -3.0])
    def test_rejects_nonpositive_integer_c(self, c):
        with pytest.raises(ValueError):
            hypergeometric_terminating(2, 1.0, c, 0.5)
        with pytest.raises(ValueError):
            hypergeometric_coefficients(2, 1.0, c)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hypergeometric_terminating(-1, 1.0, 0.5, 0.5)

    def test_coefficients_reproduce_series(self):
        coeffs = hypergeometric_coefficients(4, 7.3, 1.5)
        z = 0.37
        direct = hypergeometric_terminating(4, 7.3, 1.5, z)
        horner = sum(a * z**j for j, a in enumerate(coeffs))
        assert horner == pytest.approx(direct, rel=1e-14)

    def test_integral_float_order(self):
        # 2.0 passes as the order 2, as the level validator admits it
        want = hypergeometric_terminating(2, 1.0, 0.5, 0.3)
        assert hypergeometric_terminating(2.0, 1.0, 0.5, 0.3) == want
        want = hypergeometric_coefficients(2, 1.0, 0.5)
        assert hypergeometric_coefficients(2.0, 1.0, 0.5).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="series order"):
            hypergeometric_coefficients(2.5, 1.0, 0.5)

    def test_series_order_capped(self):
        # the library's levels need n_s <= MAX_LEVEL // 2 = 32; at b = 2.5,
        # c = 0.5 the terms overflow to inf from n_s = 994, where the sum
        # came back NaN with only numpy warnings
        assert np.isfinite(hypergeometric_coefficients(MAX_LEVEL // 2, 2.5, 0.5)).all()
        assert math.isfinite(hypergeometric_terminating(MAX_LEVEL // 2, 2.5, 0.5, 1.0))
        for n_s in (MAX_LEVEL // 2 + 1, 994, 10**6):
            with pytest.raises(ValueError, match="^series order n_s must not exceed 32$"):
                hypergeometric_terminating(n_s, 2.5, 0.5, 1.0)
            with pytest.raises(ValueError, match="^series order n_s must not exceed 32$"):
                hypergeometric_coefficients(n_s, 2.5, 0.5)

    @pytest.mark.parametrize(
        "n_s,b,c",
        [
            (2, 1.0, math.nan),
            (2, math.nan, 0.5),
            (2, 1.0, -math.inf),
            (2, math.inf, 0.5),
            (math.nan, 1.0, 0.5),
            (math.inf, 1.0, 0.5),
        ],
    )
    def test_rejects_non_finite_arguments(self, n_s, b, c):
        # a NaN b or c used to give [1, nan, nan]; an infinite c or n_s
        # raised OverflowError, a NaN n_s numpy's conversion error
        with pytest.raises(ValueError, match="series"):
            hypergeometric_coefficients(n_s, b, c)
        with pytest.raises(ValueError, match="series"):
            hypergeometric_terminating(n_s, b, c, 0.5)


class TestWavefunctionType:
    def test_trailing_zeros_trimmed(self):
        p = ModelParams(1.0, 1.0, 2.0)
        wf = Wavefunction(p, 2.0, np.array([1.0, 0.0, 2.0, 0.0, 0.0]))
        assert wf.degree == 2
        assert wf.coeffs[-1] == 2.0

    def test_zero_function(self):
        p = ModelParams(1.0, 1.0, 2.0)
        wf = Wavefunction(p, 3.0, np.zeros(4))
        assert wf.is_zero and wf.degree == -1
        assert np.all(evaluate(wf, np.linspace(-1.0, 1.0, 5)) == 0.0)
        assert inner_product(wf, wf) == 0.0

    def test_rejects_small_kappa(self):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            Wavefunction(p, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_rejects_non_finite_kappa(self, kappa):
        # an infinite exponent gave evaluate(...) == [1, 0] on [0, 0.5]
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="kappa must exceed 1 and be finite"):
            Wavefunction(p, kappa, np.array([1.0]))

    @pytest.mark.parametrize(
        "coeffs",
        ["12", b"1", [True, False, True], np.array([True]), [1.0, True], [1 + 2j], np.array([1 + 0j]),
         None, [None], [1.0, "2"], [10 ** 400]],
    )
    def test_rejects_coefficients_that_are_not_real(self, coeffs):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="^coefficient must be a real number within float range"):
            Wavefunction(p, 2.0, coeffs)

    def test_admits_ints_floats_and_numpy_reals(self):
        p = ModelParams(1.0, 1.0, 2.0)
        want = np.array([1.0, 2.0]).tobytes()
        for coeffs in ([1, 2], (1.0, 2.0), [np.int64(1), np.float32(2.0)], np.array([1, 2]),
                       np.array([1.0, 2.0], dtype=np.float32), np.array([1, 2], dtype=np.uint8),
                       [Fraction(1), 2.0], np.array([1.0, 2.0, 0.0])):
            assert Wavefunction(p, 2.0, coeffs).coeffs.tobytes() == want

    def test_rejects_non_finite(self):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            Wavefunction(p, 2.0, np.array([1.0, math.inf]))

    def test_coeffs_read_only(self):
        p = ModelParams(1.0, 1.0, 2.0)
        wf = Wavefunction(p, 2.0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            wf.coeffs[0] = 5.0

    @pytest.mark.parametrize("given", [[1.0, 2.0], [1.0, 2.0, 0.0]])  # untrimmed, trimmed
    def test_owns_its_coefficients(self, given):
        p = ModelParams(1.0, 1.0, 2.0)
        c = np.array(given)
        wf = Wavefunction(p, 2.0, c)
        c[:] = 5.0
        assert wf.coeffs.tolist() == [1.0, 2.0]
        assert c.flags.writeable

    @pytest.mark.parametrize("coeffs", [[[1.0, 2.0], [3.0, 0.0]], [[1.0, 2.0, 3.0]], np.ones((2, 2, 2))])
    def test_rejects_coefficients_not_1d(self, coeffs):
        p = ModelParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="1-D"):
            Wavefunction(p, 2.0, coeffs)

    def test_scalar_coefficient_is_constant(self):
        p = ModelParams(1.0, 1.0, 2.0)
        wf = Wavefunction(p, 2.0, 0.5)
        assert wf.coeffs.tobytes() == np.array([0.5]).tobytes()
        x = np.array([-0.4, 0.0, 0.7])
        np.testing.assert_allclose(evaluate(wf, x), 0.5 * np.cos(x) ** 2, rtol=1e-15, atol=0.0)


class TestBuildEigenfunction:
    def test_ground_state_value_at_origin(self, build_cached):
        # (1/pi)^(1/4) sqrt(Gamma(3)/Gamma(5/2)), Gamma(5/2) = 3 sqrt(pi)/4
        p = ModelParams(1.0, 1.0, 2.0)
        expect = math.pi**-0.25 * math.exp(0.5 * (math.lgamma(3.0) - math.lgamma(2.5)))
        assert expect == pytest.approx(0.9213177319235608, rel=1e-12)
        wf = build_cached(p, 0)
        assert wf.degree == 0
        assert evaluate(wf, 0.0) == pytest.approx(expect, rel=1e-10)

    def test_odd_levels_vanish_at_origin(self, build_cached):
        p = ModelParams(1.0, 1.0, 2.0)
        for n in (1, 3, 5):
            assert evaluate(build_cached(p, n), 0.0) == 0.0

    def test_parity(self, build_cached):
        for p in (ModelParams(1.0, 1.0, 2.0), ModelParams(1.0, 2.0, 3.7)):
            x = interior_grid(p, 501).points
            for n in range(9):
                wf = build_cached(p, n)
                sign = (-1.0) ** n
                assert np.allclose(
                    evaluate(wf, -x), sign * evaluate(wf, x), rtol=0.0, atol=1e-13
                )

    def test_interior_node_count(self, build_cached):
        p = ModelParams(1.0, 1.0, 2.0)
        x = interior_grid(p, 10_000).points
        for n in range(11):
            vals = evaluate(build_cached(p, n), x)
            vals = vals[vals != 0.0]  # nodes exactly on grid points
            crossings = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
            assert crossings == n

    def test_level_two_structure(self, build_cached):
        # an eigenstate: no coefficients, degree 2, even to the bit
        p = ModelParams(1.0, 1.0, 2.0)
        wf = build_cached(p, 2)
        assert wf.coeffs is None and wf.degree == 2
        x = interior_grid(p, 101).points
        assert evaluate(wf, -x).tobytes() == evaluate(wf, x).tobytes()

    def test_unit_norm(self, build_cached):
        for p in BATTERY:
            for n in (0, 3, 8):
                wf = build_cached(p, n)
                assert abs(inner_product(wf, wf) - 1.0) <= 1e-10

    def test_gram_matrix_is_identity(self, build_cached):
        for p in BATTERY:
            fns = [build_cached(p, n) for n in range(8)]
            gram = np.array([[inner_product(f, g) for g in fns] for f in fns])
            assert np.max(np.abs(gram - np.eye(8))) <= 1e-8

    def test_sign_convention_leading_positive(self, build_cached):
        # documented choice: highest-order coefficient positive, which
        # puts sign (-1)^(n_s) on the lowest-order coefficient; read from
        # the values beyond the largest node (the leading term rules
        # there) and inside the smallest (the lowest-order term does)
        for p in BATTERY:
            near_wall = p.half_width * (1.0 - 1e-3)
            near_origin = 1e-3 / p.hat_omega
            for n in range(17):
                wf = build_cached(p, n)
                assert evaluate(wf, near_wall) > 0.0
                low = evaluate(wf, near_origin)
                assert math.copysign(1.0, low) == (-1.0) ** ((n - n % 2) // 2)

    def test_representation_invariant(self, build_cached):
        # the eigenstate's rows vs direct envelope * series evaluation,
        # the paper's form, up to one constant: the least-squares scale
        rng = np.random.default_rng(17)
        for p in BATTERY:
            x = rng.uniform(-0.9999 * p.half_width, 0.9999 * p.half_width, 1000)
            sn = np.sin(p.hat_omega * x)
            env = np.cos(p.hat_omega * x) ** p.k
            for n in range(17):
                wf = build_cached(p, n)
                s = n % 2
                n_s = (n - s) // 2
                shape = env * sn**s * hypergeometric_terminating(n_s, p.k + s + n_s, s + 0.5, sn * sn)
                u = evaluate(wf, x)
                direct = (np.dot(u, shape) / np.dot(shape, shape)) * shape
                rel = np.max(np.abs(evaluate(wf, x) - direct) / (1.0 + np.abs(direct)))
                # double-precision agreement degrades with level; 1e-12
                # holds through n=12, criteria-level 1e-8 beyond
                assert rel <= (1e-12 if n <= 12 else 1e-8)

    def test_level_cap(self):
        # rejection above the cap: test_ladder.py::test_rejects_bad_levels
        p = ModelParams(1.0, 1.0, 2.0)
        wf = build_eigenfunction(p, MAX_LEVEL)  # constructible, values finite
        assert wf.coeffs is None and wf.degree == MAX_LEVEL
        x = np.linspace(-p.half_width, p.half_width, 201)
        assert np.all(np.isfinite(evaluate(wf, x)))


def _mp_state(p, n, x):
    """mpmath's normalized Gegenbauer state sqrt(w/h_n) C_n^k(sin wx)
    cos^k(wx) at the positions x, h_n from DLMF Table 18.3.1 and C_n^k
    from its explicit sum (DLMF 18.5.10), which shares nothing with the
    three-term recurrence."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        k, w = mp.mpf(p.k), mp.mpf(p.hat_omega)
        h = mp.pi * mp.power(2, 1 - 2 * k) * mp.gamma(n + 2 * k) / ((n + k) * mp.gamma(k) ** 2 * mp.factorial(n))
        norm = mp.sqrt(w / h)
        terms = [(-1) ** m * mp.gammaprod([n - m + k], [k]) / (mp.factorial(m) * mp.factorial(n - 2 * m))
                 for m in range(n // 2 + 1)]
        out = []
        for xi in map(mp.mpf, x):
            s = mp.sin(w * xi)
            c_n = mp.fsum(a * (2 * s) ** (n - 2 * m) for m, a in enumerate(terms))
            out.append(float(norm * c_n * mp.cos(w * xi) ** k))
    return np.array(out)


class TestClosedFormNormalization:
    """The closed-form normalization against mpmath over the whole
    admitted k range: level 0's constant, read through the public API as
    the state's value at the origin (where the envelope is exactly 1),
    the raising chain's prefactor, and every eigenstate's values."""

    KS = (1.01, 1.5, 3.7, 10.0, 1e3, 1e5, K_MAX)

    @pytest.mark.parametrize("k", KS)
    def test_scale_matches_mpmath(self, k):
        # g0 = (w^2/pi)^(1/4) sqrt(Gamma(k+1)/Gamma(k+1/2)); the difference
        # of two log-gamma values cost 6.3e-8 of it at k = 1e8
        mp = pytest.importorskip("mpmath")
        p = ModelParams(1.3, 0.7, k)
        with mp.workdps(40):
            ref = mp.power(mp.mpf(p.hat_omega) ** 2 / mp.pi, 0.25) * mp.sqrt(
                mp.gammaprod([mp.mpf(k) + 1], [mp.mpf(k) + 0.5]))
        got = evaluate(build_eigenfunction(p, 0), 0.0)
        assert got == _ground_norm(p.hat_omega, k)
        assert abs(got / float(ref) - 1.0) <= 1e-14

    @pytest.mark.parametrize("k", KS)
    def test_level_zero_closed_form_to_1e_14(self, k):
        # (w^2/pi)^(1/4) sqrt(Gamma(k+1)/Gamma(k+1/2)) cos^k(wx), relative,
        # across the bulk: wherever the envelope is at least 1e-4
        # (|(k/2) ln cos^2| <= 9.2; the log-form envelope's error grows
        # with that exponent) and |wx| <= 1.4 (near the wall the rounding
        # of wx alone moves cos^k by k |wx tan wx| ulp, 1e-12 at c = 1e-4)
        mp = pytest.importorskip("mpmath")
        p = ModelParams(1.3, 0.7, k)
        y = np.linspace(-1.0, 1.0, 21) * min(1.4, math.acos(math.exp(-9.2 / k)))
        x = y / p.hat_omega
        got = evaluate(build_eigenfunction(p, 0), x)
        with mp.workdps(40):
            g0 = mp.power(mp.mpf(p.hat_omega) ** 2 / mp.pi, 0.25) * mp.sqrt(
                mp.gammaprod([mp.mpf(k) + 1], [mp.mpf(k) + 0.5]))
            want = np.array([float(g0 * mp.cos(mp.mpf(p.hat_omega) * mp.mpf(xi)) ** k) for xi in x])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("k", KS)
    def test_chain_prefactor_matches_mpmath(self, k):
        # exp turns an absolute error of its argument into a relative
        # one, and |ln prefactor| reaches 714 (k = 1e8, n = 64), where the
        # rounding of the argument alone is 1.1e-13: so 1e-14 plus 4 ulp
        # per unit of |ln prefactor| (the worst measured is 1.2 ulp);
        # the difference of two log-gamma values cost 1.7e-7 at k = 1e8
        mp = pytest.importorskip("mpmath")
        for n in (0, 1, 2, 15, 16, 63, 64):
            with mp.workdps(40):
                two_k = 2 * mp.mpf(k)
                ref = mp.sqrt(mp.gammaprod([n + two_k], [2 * n + two_k]) / mp.factorial(n))
                log_ref = abs(float(mp.log(ref)))
            tol = 1e-14 + 4.0 * 2.2e-16 * log_ref
            assert abs(chain_prefactor(k, n) / float(ref) - 1.0) <= tol, n

    @pytest.mark.parametrize("k", [1.01, 1.5, 2.5, 10.0, 1e3, 1e5, 1e8])
    def test_states_match_mpmath(self, k):
        # every eigenstate on the whole admitted range: 41 points across
        # the bulk, |wx| <= min(1.4, 9/sqrt(k)); the monomial states read
        # up to 4.4e6 here (k = 1.01, n = 64) and 6.3e-8 at every n at
        # k = 1e8
        p = ModelParams(1.0, 1.0, k)
        x = np.linspace(-1.0, 1.0, 41) * min(1.4, 9.0 / math.sqrt(k)) / p.hat_omega
        for n in (0, 1, 16, 32, 48, 64):
            want = _mp_state(p, n, x)
            got = evaluate(build_eigenfunction(p, n), x)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), n


class TestRecurrence:
    """The recurrence rows P_n, P'_n, P''_n (U_{k,n} = cos^k P_n) against
    Horner on the paper's series coefficients and their derivative
    coefficients, and against mpmath at the highest levels; and the
    record's memo of them."""

    # the series' own error at n = 16 reaches 1.5e-11 of max|U|
    # (k = 1.01), where the rows read 6e-15 against mpmath; the
    # derivative rows meet their Horner rows to 6.2e-13 of max|row|
    VALUES_TOL = 5e-11
    DERIVATIVE_TOL = 2e-12

    @staticmethod
    def _series_coeffs(p, n, row, rec):
        """The monomial coefficients of the level-n series, scaled to the
        row at the point where the series is largest."""
        s = n % 2
        n_s = (n - s) // 2
        c = np.zeros(n + 1)
        c[s::2] = hypergeometric_coefficients(n_s, p.k + s + n_s, s + 0.5)
        raw = _horner(rec.s, c)
        i = int(np.argmax(np.abs(raw)))
        return c * (row[i] / raw[i])

    @pytest.mark.parametrize(
        "p", list(BATTERY) + [ModelParams(1.0, 1.0, 1.01), ModelParams(1.3, 0.7, 300.0)], ids=repr
    )
    def test_rows_match_horner_on_the_monomial_states(self, p):
        rec = samples(p, interior_grid(p, 2001).points)
        rows = _recurrence(rec, p.k, 16, 2)
        assert len(rows) == 3 and all(len(level) == 17 for level in rows)
        for n in range(17):
            pv, dpv, ddpv = (level[n] for level in rows)
            c = self._series_coeffs(p, n, pv, rec)
            u = rec.power(p.k) * _horner(rec.s, c)
            got = rec.power(p.k) * pv
            assert np.max(np.abs(got - u)) <= self.VALUES_TOL * max(1.0, np.max(np.abs(u))), n
            for row, d in ((dpv, _der(c)), (ddpv, _der(_der(c)))):
                want = _horner(rec.s, d) if d.size else np.zeros(rec.size)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(row - want)) <= self.DERIVATIVE_TOL * scale, n

    def test_level_zero_is_the_ground_norm(self):
        p = ModelParams(1.0, 1.0, 2.0)
        rec = samples(p, [0.1, 0.4])
        values, slopes = _recurrence(rec, p.k, 0, 1)
        assert len(values) == len(slopes) == 1
        assert values[0].tolist() == [_ground_norm(p.hat_omega, p.k)] * 2
        assert slopes[0].tolist() == [0.0, 0.0]

    def test_high_levels_match_mpmath(self):
        # the accuracy the value rows carry where the monomial states
        # drifted (3e-6 of max|U| at n = 32, 1e6 at n = 64): at most
        # 2.7e-14 of max(1, max|U|) on 81 points through n = 64
        p = ModelParams(1.0, 1.0, 2.5)
        x = interior_grid(p, 81).points
        rec = samples(p, x)
        values = _recurrence(rec, p.k, 64)[0]
        for n in (16, 32, 48, 64):
            want = _mp_state(p, n, x)
            got = rec.power(p.k) * values[n]
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), n

    def test_values_only_pass_forms_no_derivative_rows(self):
        # evaluate and the orthonormality Gram ask for order 0 alone; the
        # pass formed P' and P'' at every level with the values
        p = ModelParams(1.0, 1.0, 2.0)
        rec = samples(p, interior_grid(p, 201).points)
        evaluate(build_eigenfunction(p, 16), rec)
        rows = rec._rows[p.k][-1]
        assert len(rows) == 1 and len(rows[0]) == 17
        assert len(_recurrence(rec, p.k, 16)) == 1
        # a ladder image asks for order 1, a Delta image for order 2
        assert len(_recurrence(rec, p.k, 16, 1)) == 2
        apply_delta("minus", p.k, build_eigenfunction(p, 16), rec)
        assert len(rec._rows[p.k][-1]) == 3

    def test_memo_resumes_and_keeps_the_bits(self):
        # one record never forms a level twice: a later call extends the
        # lists from their last two levels, and an order added later
        # reads the rows already formed; every row has the bits of one
        # fresh pass to the top
        p = ModelParams(1.0, 2.0, 3.7)
        points = interior_grid(p, 501).points
        rec = samples(p, points)
        first = [list(level) for level in _recurrence(rec, p.k, 5)]
        grown = _recurrence(rec, p.k, 12, 2)
        assert all(a is b for a, b in zip(first[0], grown[0]))
        fresh = _recurrence(samples(p, points), p.k, 12, 2)
        for mine, theirs in zip(grown, fresh):
            assert len(mine) == len(theirs) == 13
            for a, b in zip(mine, theirs):
                assert not a.flags.writeable
                assert a.tobytes() == b.tobytes()
        again = _recurrence(rec, p.k, 12, 2)
        assert all(a is b for mine, theirs in zip(grown, again) for a, b in zip(mine, theirs))


class TestEvaluate:
    def test_exact_zero_at_boundary(self, build_cached):
        for p in (ModelParams(1.0, 1.0, 2.0), ModelParams(1.0, 0.5, 1.5)):
            wf = build_cached(p, 4)
            d = p.half_width
            assert evaluate(wf, d) == 0.0
            assert evaluate(wf, -d) == 0.0
            vals = evaluate(wf, np.array([-d, 0.0, d]))
            assert vals[0] == 0.0 and vals[2] == 0.0

    def test_origin_returns_constant_coefficient(self, build_cached):
        # the envelope is exactly 1 at the origin, so the value is P_n(0),
        # the constant coefficient, as the level's row gives it
        p = ModelParams(1.0, 2.0, 3.7)
        rec = samples(p, [0.0])
        assert rec.power(p.k)[0] == 1.0
        for n in (0, 2, 6):
            wf = build_cached(p, n)
            assert evaluate(wf, 0.0) == _recurrence(rec, p.k, n)[0][n][0]

    def test_rejects_outside_domain(self, build_cached):
        p = ModelParams(1.0, 1.0, 2.0)
        wf = build_cached(p, 0)
        with pytest.raises(ValueError):
            evaluate(wf, p.half_width * 1.0000001)
        with pytest.raises(ValueError):
            evaluate(wf, np.array([0.0, -p.half_width * 1.01]))
        for x in (math.nan, np.array([0.0, math.nan, 0.3])):
            with pytest.raises(ValueError, match=r"\|x\| <= half_width"):
                evaluate(wf, x)

    def test_scalar_and_array_shapes(self, build_cached):
        wf = build_cached(ModelParams(1.0, 1.0, 2.0), 3)
        assert isinstance(evaluate(wf, 0.3), float)
        out = evaluate(wf, np.zeros((2, 5)))
        assert out.shape == (2, 5)


def _bytes(v):
    return np.asarray(v, dtype=float).tobytes()


class TestSamples:
    # the record path must give the array path's bits: both go through
    # the one constructor
    PARAMS = (ModelParams(1.0, 1.0, 2.0), ModelParams(1.0, 2.0, 3.7), ModelParams(1.0, 0.5, 1.5))

    def _positions(self, p):
        d = p.half_width
        return [
            0.3 * d,
            -d,
            d,
            interior_grid(p, 2001).points,
            np.array([-d, -np.nextafter(d, 0.0), 0.0, np.nextafter(d, 0.0), d]),
            np.linspace(-d, d, 12).reshape(3, 4),
        ]

    def test_evaluate_bitwise(self, build_cached):
        for p in self.PARAMS:
            for n in (0, 3, 8):
                wf = build_cached(p, n)
                for x in self._positions(p):
                    rec = samples(p, x)
                    got = evaluate(wf, rec)
                    assert type(got) is type(evaluate(wf, x))
                    assert _bytes(got) == _bytes(evaluate(wf, x))

    def test_record_fields(self):
        p = ModelParams(1.0, 2.0, 3.7)
        d = p.half_width
        x = np.array([[-d, 0.1], [0.2, d]])
        rec = samples(p, x)
        assert isinstance(rec, Samples)
        assert rec.shape == (2, 2) and rec.x.shape == (4,)
        assert rec.x.tobytes() == x.ravel().tobytes()
        w = p.hat_omega
        assert rec.s.tobytes() == np.sin(w * x.ravel()).tobytes()
        # clamped cos, and exactly 0 at the two boundary points
        want_c = np.maximum(np.cos(w * x.ravel()), 0.0)
        want_c[[0, 3]] = 0.0
        assert rec.c.tobytes() == want_c.tobytes()
        assert rec.in_domain and not rec.interior
        for a in (rec.x, rec.s, rec.c):
            assert not a.flags.writeable
        # the record owns its positions
        x[0, 1] = 0.5
        assert rec.x[1] == 0.1

    @pytest.mark.parametrize("x", [0.25, np.linspace(-1.0, 1.0, 7), np.zeros((3, 5)), np.empty(0)])
    def test_size_counts_points(self, x):
        rec = samples(ModelParams(1.0, 1.0, 2.0), x)
        assert np.size(rec) == rec.size == np.size(x)

    def test_rejects_record_of_another_domain(self, build_cached):
        p = ModelParams(1.0, 1.0, 2.0)
        rec = samples(ModelParams(1.0, 2.0, 2.0), np.array([0.0, 0.3]))
        with pytest.raises(ValueError, match="hat_omega"):
            evaluate(build_cached(p, 2), rec)
        # same domain, other k: accepted
        same = samples(p.with_k(7.0), np.array([0.0, 0.3]))
        assert evaluate(build_cached(p, 2), same).shape == (2,)

    def test_evaluate_rejects_record_outside_domain(self, build_cached):
        p = ModelParams(1.0, 1.0, 2.0)
        rec = samples(p, np.array([0.0, -p.half_width * 1.01]))
        assert not rec.in_domain
        with pytest.raises(ValueError, match=r"\|x\| <= half_width"):
            evaluate(build_cached(p, 0), rec)

    @pytest.mark.parametrize("x", [[math.nan], math.nan, [0.0, math.nan]])
    def test_nan_fails_both_flags(self, x):
        rec = samples(ModelParams(1.0, 1.0, 2.0), x)
        assert not rec.in_domain and not rec.interior

    def test_power_is_memoized_read_only(self):
        p = ModelParams(1.0, 2.0, 3.7)
        rec = samples(p, interior_grid(p, 2001).points)
        for kappa in (p.k, p.k + 1.0, p.k - 2.0, 2):
            got = rec.power(kappa)
            assert not got.flags.writeable
            assert got.tobytes() == np.exp((0.5 * kappa) * rec.log_c2).tobytes()
            np.testing.assert_allclose(got, rec.c ** kappa, rtol=1e-14, atol=0.0)
            assert rec.power(kappa) is got
        # an integral kappa and its float are one key with the same bits
        assert rec.power(2.0) is rec.power(2)

    def test_log_form_power_at_the_wall_and_inside(self):
        # exactly 0.0 at the wall with no numpy warning (an error under
        # this suite's filter); 2 ln c beside the wall, where 1 - s^2
        # keeps no digit: just inside it c ** k is the reference
        p = ModelParams(1.0, 1.0, 1.01)
        d = p.half_width
        inner = np.nextafter(d, 0.0)
        x = np.array([-d, -inner, -0.999 * d, 0.0, 0.3, 0.999 * d, inner, d])
        rec = samples(p, x)
        assert rec.log_c2[0] == rec.log_c2[-1] == -math.inf
        assert not rec.log_c2.flags.writeable
        eps = np.finfo(float).eps
        for kappa in (1.01, 7.5, 1e8):
            got = rec.power(kappa)
            assert got[0] == got[-1] == 0.0
            # exp turns the rounding of its argument y = (kappa/2) ln c^2
            # into a relative error of a few ulp of |y|; c ** kappa
            # carries kappa ulp of its own
            y = np.abs(0.5 * kappa * rec.log_c2[1:-1])
            tol = 4.0 * eps * (1.0 + y + kappa)
            inside = rec.c[1:-1] ** kappa
            assert np.all(np.abs(got[1:-1] - inside) <= tol * inside), kappa
        assert rec.power(1.01)[1] > 0.0  # 1 - s^2 is 0.0 there, c is not

    def test_tan_is_formed_once_read_only(self):
        p = ModelParams(1.0, 2.0, 3.7)
        rec = samples(p, interior_grid(p, 2001).points)
        got = rec.tan
        assert not got.flags.writeable
        assert got.tobytes() == np.tan(p.hat_omega * rec.x).tobytes()
        assert rec.tan is got

    def test_evaluate_bitwise_on_used_record(self, build_cached):
        # a record already used at other exponents gives a fresh record's bits
        for p in self.PARAMS:
            used = samples(p, interior_grid(p, 2001).points)
            for kappa in (p.k - 2.0, p.k - 1.0, p.k + 1.0):
                used.power(kappa)
            for n in (0, 3, 8):
                for wf in (build_cached(p, n), build_cached(p.with_k(p.k + 1.0), n)):
                    fresh = samples(p, interior_grid(p, 2001).points)
                    assert evaluate(wf, used).tobytes() == evaluate(wf, fresh).tobytes()
            assert {p.k, p.k + 1.0} <= set(used._powers)

    def test_nan_kappa_formed_every_time(self):
        # the raw envelope path admits any kappa; NaN gives NaN at every
        # point (exp(nan * ln cos^2)) and never enters the memo
        p = ModelParams(1.0, 1.0, 2.0)
        d = p.half_width
        rec = samples(p, np.array([-d, -0.3, 0.0, 0.4, d]))
        state = Wavefunction(p, 2.0, [0.5, -1.0, 2.0]).state
        for _ in range(2):
            got = _envelope(rec, math.nan, state)
            assert np.isnan(got).all()
        assert rec.power(math.nan) is not rec.power(math.nan)
        assert not rec._powers


class TestHorner:
    def test_matches_numpy_polyval_bitwise(self):
        # numpy.polynomial is the oracle: same products in the same order
        rng = np.random.default_rng(7)
        s = np.concatenate([rng.uniform(-1.0, 1.0, 257), [0.0, -0.0, 1.0, -1.0]])
        for c in oracle_coeffs():
            assert _horner(s, c).tobytes() == npoly.polyval(s, c).tobytes()
            scalar = s[-3]  # -0.0
            assert repr(_horner(scalar, c)) == repr(npoly.polyval(scalar, c))


class TestInnerProduct:
    def test_opposite_parity_orthogonal(self, build_cached):
        p = ModelParams(1.0, 1.0, 2.0)
        assert abs(inner_product(build_cached(p, 0), build_cached(p, 1))) <= 1e-14

    def test_same_parity_orthogonal(self, build_cached):
        p = ModelParams(1.0, 1.0, 2.0)
        assert abs(inner_product(build_cached(p, 0), build_cached(p, 2))) <= 1e-11
        assert abs(inner_product(build_cached(p, 1), build_cached(p, 3))) <= 1e-11

    def test_panel_override_consistent(self, build_cached):
        p = ModelParams(1.0, 1.0, 3.7)
        f, g = build_cached(p, 2), build_cached(p, 4)
        a = inner_product(f, g)
        d = p.half_width
        b = quadrature(lambda x: evaluate(f, x) * evaluate(g, x), -d, d, 400)
        assert abs(a - b) <= 1e-12

    def test_rejects_mismatched_domains(self, build_cached):
        f = build_cached(ModelParams(1.0, 1.0, 2.0), 0)
        g = build_cached(ModelParams(1.0, 2.0, 2.0), 0)
        with pytest.raises(ValueError):
            inner_product(f, g)

    @pytest.mark.parametrize("n", [0, 8, 16])
    def test_norm_resolved_at_documented_k_edge(self, n):
        # the top of the k range the docstring certifies; past it the
        # fixed panels no longer resolve states of width ~1/sqrt(k)
        wf = build_eigenfunction(ModelParams(1.0, 1.0, 1e3), n)
        assert abs(inner_product(wf, wf) - 1.0) <= 1e-12

    def test_hierarchy_levels_share_domain(self, build_cached):
        # different k, same hat_omega: must be accepted
        p = ModelParams(1.0, 1.0, 2.0)
        f = build_cached(p, 1)
        g = build_cached(p.with_k(3.0), 0)
        assert inner_product(f, g) == pytest.approx(inner_product(g, f), rel=1e-12)
