import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from susy_pt import ModelParams
from susy_pt.ladder import (
    LadderContext,
    _der,
    _first_order,
    _raising_chains,
    apply_delta,
    build_from_ground,
    chain_prefactor,
    commutator_check,
    factorization_residual,
    lower,
    raise_,
)
from susy_pt.model import superpotential, v_minus, v_plus
from susy_pt.numeric import interior_grid
from susy_pt.verify import DEFAULT_BATTERY, _random_test_fns
from susy_pt.wavefun import (
    MAX_LEVEL,
    Wavefunction,
    _ground_norm,
    build_eigenfunction,
    evaluate,
    hypergeometric_coefficients,
    inner_product,
    samples,
)

from conftest import BATTERY, oracle_coeffs

P_REF = ModelParams(1.0, 1.0, 2.0)


class TestSliceCalculusMatchesNumpyPolynomial:
    """The slice helpers must reproduce numpy.polynomial bit for bit,
    including the sign of zero coefficients; numpy.polynomial is the
    oracle."""

    @staticmethod
    def _first_order_oracle(a, p, sign):
        dp = npoly.polyder(p) if p.size > 1 else [0.0]
        combine = npoly.polyadd if sign > 0 else npoly.polysub
        return combine(npoly.polymul([0.0, a], p), npoly.polymul([1.0, 0.0, -1.0], dp))

    def test_der(self):
        for p in oracle_coeffs():
            if p.size > 1:
                assert _der(p).tobytes() == npoly.polyder(p).tobytes()

    def test_der_twice(self):
        for p in oracle_coeffs():
            if p.size > 2:
                assert _der(_der(p)).tobytes() == npoly.polyder(p, 2).tobytes()

    # a = 0 arises only with sign +1 (A_k at kappa = k); the raising rules
    # have a = k + kappa > 0
    @pytest.mark.parametrize(
        "a, sign",
        [(0.0, 1.0)] + [(a, sign) for a in (1.0, 2.7, -3.1, 7.0) for sign in (1.0, -1.0)],
    )
    def test_first_order(self, a, sign):
        signed_zeros = 0
        for p in oracle_coeffs():
            got = _first_order(a, p, sign)
            want = self._first_order_oracle(a, p, sign)
            assert got.tobytes() == want.tobytes(), (a, sign, p)
            signed_zeros += int(np.sum((want == 0.0) & ~np.signbit(want)))
        assert signed_zeros > 0  # the inputs exercise zero coefficients


def _fd_apply(params, k, wf, x, h, sign):
    """Centered-difference image of +-(1/w)d/dx + W, Richardson-extrapolated."""

    def once(step):
        deriv = (evaluate(wf, x + step) - evaluate(wf, x - step)) / (2.0 * step)
        return sign * deriv / params.hat_omega + superpotential(params.with_k(k), x) * evaluate(wf, x)

    return (4.0 * once(h / 2.0) - once(h)) / 3.0


class TestLadderContext:
    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            LadderContext(P_REF, 1.0)

    @pytest.mark.parametrize("k_level", [math.inf, math.nan])
    def test_rejects_non_finite_level(self, k_level):
        with pytest.raises(ValueError, match="k_level must exceed 1 and be finite"):
            LadderContext(P_REF, k_level)


class TestExponentRule:
    """LadderContext's k_level, apply_delta's k_pot and commutator_check's
    k follow one rule: a real number, finite and above 1."""

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 1.0, 0.5, "2", b"2", None, True, 2 + 0j])
    def test_rejected_by_every_operator(self, k):
        x = interior_grid(P_REF, 33).points
        for kappa, coeffs in ((2.0, [0.3, -0.7, 1.1]), (3.0, [])):  # the zero function too
            wf = Wavefunction(P_REF, kappa, coeffs)
            with pytest.raises(ValueError, match="^k_level must"):
                LadderContext(P_REF, k)
            for kind in ("minus", "plus"):
                with pytest.raises(ValueError, match="^k_pot must"):
                    apply_delta(kind, k, wf, x)
            with pytest.raises(ValueError, match="^k must"):
                commutator_check(k, wf, x)
            with pytest.raises(ValueError, match="^k_level must"):
                factorization_residual(k, wf, x)

    def test_admits_ints_and_numpy_reals(self):
        x = interior_grid(P_REF, 33).points
        wf = Wavefunction(P_REF, 2.0, [0.3, -0.7, 1.1])
        for k in (2, np.float64(2.0), np.int64(2), np.float32(2.0)):
            assert LadderContext(P_REF, k).k_level == 2.0
            assert apply_delta("minus", k, wf, x).tobytes() == apply_delta("minus", 2.0, wf, x).tobytes()
            assert commutator_check(k, wf, x) == commutator_check(2.0, wf, x)


class TestCoefficientPathBits:
    """A coefficient polynomial is the level-0 state on the unit row R = 1.
    The calculus of terms gives numpy.polynomial's bits on it, and every
    operator the bits of the separate monomial path it replaced: sha256
    of the results, recorded from that path on the same inputs."""

    DIGESTS = {
        1.5: {
            "apply_delta": "6859795154a71198670ea5235ace71e258e973e7f00c6c3d9002cf09ceb04435",
            "factorization_residual": "b1f94faa56b5a6870dbc87bd7d60df52f30444f80cfdd34bdf88ea9927e65f95",
            "commutator_check": "4dc1aabcce4d2cc6c552e97faaeb31a47fb595da6df8ae449f0e4df46543e405",
        },
        3.7: {
            "apply_delta": "ae889d9803e80c4e1ee8be1eb161a85e28fd0f1709a8c5db700484ea8668c2da",
            "factorization_residual": "db365c048fd289de01bbd4ec121c09dfc437218e503ce88e2cfae97528115499",
            "commutator_check": "7c8da5a96ef18c6fd1e5558f45b95537112dbf24a7cf7a19a791b254e0e244bb",
        },
    }

    @pytest.mark.parametrize("k", [1.5, 3.7])
    def test_lower_and_raise_are_numpy_compositions(self, k):
        p = ModelParams(1.0, 1.0, k)
        for c in _random_test_fns():
            for kappa in (k, k + 1.0):
                ctx = LadderContext(p, kappa)
                low = lower(ctx, Wavefunction(p, kappa, c))
                assert low.state.k is None and low.coeffs.tobytes() == npoly.polyder(c).tobytes()
                up = raise_(ctx, Wavefunction(p, kappa + 1.0, c))
                want = npoly.polysub(npoly.polymul([0.0, 2.0 * kappa + 1.0], c),
                                     npoly.polymul([1.0, 0.0, -1.0], npoly.polyder(c)))
                assert up.state.k is None and up.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1.5, 3.7])
    def test_operators_keep_the_monomial_path_bits(self, k):
        p = ModelParams(1.0, 1.0, k)
        x = interior_grid(p, 257).points
        h = {name: hashlib.sha256() for name in self.DIGESTS[k]}
        for c in _random_test_fns():
            for kappa in (k, k + 1.0):
                wf = Wavefunction(p, kappa, c)
                for kind in ("minus", "plus"):
                    h["apply_delta"].update(apply_delta(kind, k, wf, x).tobytes())
                h["factorization_residual"].update(np.float64(factorization_residual(k, wf, x)).tobytes())
                h["commutator_check"].update(np.float64(commutator_check(k, wf, x)).tobytes())
        assert {name: v.hexdigest() for name, v in h.items()} == self.DIGESTS[k]


class TestLoweringRaising:
    def test_ground_state_annihilated(self, build_cached):
        for p in (P_REF, ModelParams(1.0, 2.0, 3.7)):
            out = lower(LadderContext(p, p.k), build_cached(p, 0))
            assert out.is_zero
            assert out.kappa == p.k + 1.0
            assert inner_product(out, out) == 0.0

    def test_lower_maps_to_next_level(self, build_cached):
        # A_k U_{k,n} = sqrt(n(n+2k)) U_{k+1,n-1}
        for p in (P_REF, ModelParams(1.0, 0.5, 3.7)):
            ctx = LadderContext(p, p.k)
            up = p.with_k(p.k + 1.0)
            x = interior_grid(p, 2001).points
            for n in range(1, 9):
                got = lower(ctx, build_cached(p, n))
                factor = math.sqrt(n * (n + 2.0 * p.k))
                want = factor * evaluate(build_cached(up, n - 1), x)
                assert np.max(np.abs(evaluate(got, x) - want)) <= 1e-8

    def test_raise_maps_to_previous_level(self, build_cached):
        for p in (P_REF, ModelParams(1.0, 0.5, 3.7)):
            ctx = LadderContext(p, p.k)
            up = p.with_k(p.k + 1.0)
            x = interior_grid(p, 2001).points
            for n in range(1, 9):
                got = raise_(ctx, build_cached(up, n - 1))
                factor = math.sqrt(n * (n + 2.0 * p.k))
                want = factor * evaluate(build_cached(p, n), x)
                assert np.max(np.abs(evaluate(got, x) - want)) <= 1e-8

    def test_lowered_norm_sqrt_five(self, build_cached):
        # ||A_2 U_{2,1}|| = sqrt(1*(1+4))
        out = lower(LadderContext(P_REF, 2.0), build_cached(P_REF, 1))
        assert math.sqrt(inner_product(out, out)) == pytest.approx(math.sqrt(5.0), rel=1e-10)

    def test_zero_function_maps_to_zero(self):
        # the calculus alone carries the zero function: A_k 0 = 0 at
        # kappa = k+1 and A_k^+ 0 = 0 at kappa = k
        for p in (P_REF, ModelParams(1.0, 2.0, 3.7)):
            ctx = LadderContext(p, p.k)
            down = lower(ctx, Wavefunction(p, p.k, []))
            assert down.is_zero and down.kappa == p.k + 1.0
            up = raise_(ctx, Wavefunction(p, p.k + 1.0, []))
            assert up.is_zero and up.kappa == p.k

    def test_raise_increases_degree_by_one(self, build_cached):
        up = P_REF.with_k(3.0)
        for n in range(5):
            wf = build_cached(up, n)
            out = raise_(LadderContext(P_REF, 2.0), wf)
            assert out.degree == wf.degree + 1

    def test_index_sum_conserved(self, build_cached):
        # lower: (k, n) -> (k+1, n-1); raise: (k+1, n-1) -> (k, n)
        wf = build_cached(P_REF, 4)
        low = lower(LadderContext(P_REF, 2.0), wf)
        assert low.kappa == wf.kappa + 1.0 and low.degree == wf.degree - 1
        assert low.kappa + low.degree == wf.kappa + wf.degree
        back = raise_(LadderContext(P_REF, 2.0), low)
        assert back.kappa + back.degree == wf.kappa + wf.degree

    def test_envelope_mismatch_rejected(self, build_cached):
        wf = build_cached(P_REF, 2)  # kappa = 2
        with pytest.raises(ValueError, match=r"^lower expects envelope exponent 3\.0, got 2\.0$"):
            lower(LadderContext(P_REF, 3.0), wf)
        with pytest.raises(ValueError, match=r"^raise_ expects envelope exponent 3\.0, got 2\.0$"):
            raise_(LadderContext(P_REF, 2.0), wf)  # expects kappa = 3

    def test_matches_plain_finite_differences_on_dense_grid(self, build_cached):
        # plain centered differences (no extrapolation) evaluated at the
        # 1e4 interior grid points, with a step small enough that O(h^2)
        # truncation plus roundoff stays below 1e-6
        for p in (P_REF, ModelParams(1.0, 2.0, 3.7)):
            x = interior_grid(p, 10_000).points
            h = 1e-6 * 2.0 * p.half_width
            ctx = LadderContext(p, p.k)
            up = p.with_k(p.k + 1.0)
            w_vals = superpotential(p, x)
            for n in (0, 2, 5, 10):
                wf = build_cached(p, n)
                deriv = (evaluate(wf, x + h) - evaluate(wf, x - h)) / (2.0 * h)
                fd = deriv / p.hat_omega + w_vals * evaluate(wf, x)
                got = evaluate(lower(ctx, wf), x)
                assert np.max(np.abs(got - fd)) <= 1e-6
                wf_up = build_cached(up, n)
                deriv = (evaluate(wf_up, x + h) - evaluate(wf_up, x - h)) / (2.0 * h)
                fd = -deriv / p.hat_omega + w_vals * evaluate(wf_up, x)
                got = evaluate(raise_(ctx, wf_up), x)
                assert np.max(np.abs(got - fd)) <= 1e-6

    def test_matches_finite_difference_oracle(self, build_cached):
        # closed-form coefficient rules vs centered differences with
        # Richardson extrapolation
        for p in (P_REF, ModelParams(1.0, 2.0, 3.7)):
            d = p.half_width
            h = 2e-4 * d
            x = np.linspace(-d + 4 * h, d - 4 * h, 801)
            ctx = LadderContext(p, p.k)
            up = p.with_k(p.k + 1.0)
            for n in range(7):
                wf = build_cached(p, n)
                fd = _fd_apply(p, p.k, wf, x, h, +1.0)
                assert np.max(np.abs(evaluate(lower(ctx, wf), x) - fd)) <= 1e-8
                wf_up = build_cached(up, n)
                fd = _fd_apply(p, p.k, wf_up, x, h, -1.0)
                assert np.max(np.abs(evaluate(raise_(ctx, wf_up), x) - fd)) <= 1e-8

    def test_raise_then_lower_scales_eigenfunction(self, build_cached):
        # A_k^+ A_k U_{k,n} = n(n+2k) U_{k,n} and the partner identity
        ctx = LadderContext(P_REF, 2.0)
        x = interior_grid(P_REF, 1001).points
        up = P_REF.with_k(3.0)
        for n in range(1, 7):
            lam = n * (n + 4.0)
            wf = build_cached(P_REF, n)
            out = raise_(ctx, lower(ctx, wf))
            assert np.max(np.abs(evaluate(out, x) - lam * evaluate(wf, x))) <= 1e-8
            wf_up = build_cached(up, n - 1)
            out = lower(ctx, raise_(ctx, wf_up))
            assert np.max(np.abs(evaluate(out, x) - lam * evaluate(wf_up, x))) <= 1e-8


class TestApplyDelta:
    def test_minus_eigen_relation(self, build_cached):
        x = interior_grid(P_REF, 2001).points
        for n in (0, 3, 7):
            wf = build_cached(P_REF, n)
            lam = n * (n + 4.0)
            got = apply_delta("minus", 2.0, wf, x)
            assert np.max(np.abs(got - lam * evaluate(wf, x))) <= 1e-8 * (1.0 + lam)

    def test_plus_eigen_relation(self, build_cached):
        x = interior_grid(P_REF, 2001).points
        up = P_REF.with_k(3.0)
        for n in (1, 4, 8):
            wf = build_cached(up, n - 1)
            lam = n * (n + 4.0)
            got = apply_delta("plus", 2.0, wf, x)
            assert np.max(np.abs(got - lam * evaluate(wf, x))) <= 1e-8 * (1.0 + lam)

    def test_ground_state_in_kernel(self, build_cached):
        x = interior_grid(P_REF, 2001).points
        got = apply_delta("minus", 2.0, build_cached(P_REF, 0), x)
        assert np.max(np.abs(got)) <= 1e-12

    def test_matches_finite_difference_second_derivative(self, build_cached):
        # -(1/w^2) U'' + V U by raw centered differences, Richardson
        p = ModelParams(1.0, 2.0, 3.7)
        wf = build_cached(p, 5)
        d = p.half_width
        h = 2e-4 * d
        x = np.linspace(-d + 4 * h, d - 4 * h, 501)

        def fd_delta(step, v):
            upp = (evaluate(wf, x + step) - 2.0 * evaluate(wf, x) + evaluate(wf, x - step)) / step**2
            return -upp / p.hat_omega**2 + v * evaluate(wf, x)

        for kind, vfun in (("minus", v_minus), ("plus", v_plus)):
            v = vfun(p, x)
            fd = (4.0 * fd_delta(h / 2.0, v) - fd_delta(h, v)) / 3.0
            got = apply_delta(kind, p.k, wf, x)
            assert np.max(np.abs(got - fd)) <= 1e-6

    @staticmethod
    def _one_expression(kind, k_pot, wf, x):
        """The Delta formula as one expression with every term written
        out, on numpy.polynomial rows of P, P' and P'' and the record's
        envelope powers."""
        rec = samples(wf.params, x)
        kappa, coeffs = wf.kappa, wf.coeffs
        if kind == "minus":
            lead, mid = k_pot * (k_pot - 1.0), kappa - k_pot
        else:
            lead, mid = k_pot * (k_pot + 1.0), kappa + k_pot
        s, c = rec.s, rec.c
        pv, dpv, ddpv = (npoly.polyval(s, npoly.polyder(coeffs, m)) for m in (0, 1, 2))
        c_kappa = rec.power(kappa)
        return (
            (lead - kappa * (kappa - 1.0)) * rec.power(kappa - 2.0) * s * s * pv
            + mid * c_kappa * pv
            + (2.0 * kappa + 1.0) * s * c_kappa * dpv
            - c_kappa * (c * c) * ddpv
        )

    @pytest.mark.parametrize("k", [1.01, 1.5, 3.7, 10.0, 300.0])
    def test_two_steps_keep_the_bits_of_the_one_expression(self, k):
        # on coefficient polynomials (the level-n series of the paper,
        # unnormalized): skipping the wall term (bracket exactly 0.0) or
        # f1 (kappa - k exactly 0.0) may only leave -0.0 where the
        # written-out formula gives +0.0, so bytes are compared after
        # "+ 0.0"; where neither is skipped every term is formed and the
        # bytes are equal as they are
        p = ModelParams(1.0, 2.0, k)
        inner = np.nextafter(p.half_width, 0.0)
        x = np.concatenate([interior_grid(p, 2001).points, [-inner, -0.0, 0.0, inner]])
        for n in range(17):
            for kappa, matched in ((p.k, "minus"), (p.k + 1.0, "plus")):
                s = n % 2
                coeffs = np.zeros(n + 1)
                coeffs[s::2] = hypergeometric_coefficients((n - s) // 2, kappa + s + (n - s) // 2, s + 0.5)
                wf = Wavefunction(p, kappa, coeffs)
                for kind in ("minus", "plus"):
                    for env in (wf, Wavefunction(p, kappa + 0.5, wf.coeffs)):
                        got = apply_delta(kind, p.k, env, x)
                        want = self._one_expression(kind, p.k, env, x)
                        assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (n, kind, env.kappa)
                        if kind != matched or env is not wf:
                            assert got.tobytes() == want.tobytes(), (n, kind, env.kappa)

    def test_rejects_boundary_points(self, build_cached):
        wf = build_cached(P_REF, 1)
        with pytest.raises(ValueError):
            apply_delta("minus", 2.0, wf, np.array([0.0, P_REF.half_width]))
        with pytest.raises(ValueError):
            apply_delta("squiggle", 2.0, wf, np.array([0.0]))


class TestSamplesRecord:
    # the record path must give the array path's bits
    PARAMS = (P_REF, ModelParams(1.0, 2.0, 3.7), ModelParams(1.0, 0.5, 1.5))
    BOUNDARY_MSG = r"\|x\| < half_width \(potential singular at boundary\)"

    def _positions(self, p):
        points = interior_grid(p, 2001).points
        inner = np.nextafter(p.half_width, 0.0)
        return [
            0.25 * p.half_width,
            points,
            points[-2:],
            np.array([-inner, 0.0, inner]),
            points[:10].reshape(2, 5),
            points[-7:].reshape(7, 1),
        ]

    def test_apply_delta_bitwise(self, build_cached):
        for p in self.PARAMS:
            for n in (0, 1, 5):
                for kind, wf in (("minus", build_cached(p, n)), ("plus", build_cached(p.with_k(p.k + 1.0), n))):
                    for x in self._positions(p):
                        got = apply_delta(kind, p.k, wf, samples(p, x))
                        want = apply_delta(kind, p.k, wf, x)
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
            zero = Wavefunction(p, p.k, [])
            x = interior_grid(p, 5).points
            assert apply_delta("minus", p.k, zero, samples(p, x)).tobytes() == np.zeros(5).tobytes()

    def test_factorization_and_commutator_bitwise(self):
        rng = np.random.default_rng(41)
        for p in self.PARAMS:
            for x in self._positions(p):
                rec = samples(p, x)
                for _ in range(3):
                    coeffs = rng.uniform(-1.0, 1.0, 6)
                    for kappa in (p.k, p.k + 1.0):
                        wf = Wavefunction(p, kappa, coeffs)
                        a = factorization_residual(p.k, wf, rec)
                        assert a.hex() == factorization_residual(p.k, wf, x).hex()
                    wf = Wavefunction(p, p.k, coeffs)
                    a = commutator_check(p.k, wf, rec)
                    assert a.hex() == commutator_check(p.k, wf, x).hex()

    def test_shape_of_positions_is_kept(self, build_cached):
        # an n-D array of positions gives the flat array's values in its
        # shape, and residuals that do not depend on the shape
        rng = np.random.default_rng(43)
        for p in self.PARAMS:
            flat = interior_grid(p, 2001).points[-10:]
            wf = build_cached(p, 3)
            want = apply_delta("minus", p.k, wf, flat)
            for shape in ((2, 5), (10, 1)):
                x = flat.reshape(shape)
                for pos in (x, samples(p, x)):
                    got = apply_delta("minus", p.k, wf, pos)
                    assert got.shape == shape
                    assert got.tobytes() == want.tobytes()
            coeffs = rng.uniform(-1.0, 1.0, 6)
            test_fn = Wavefunction(p, p.k, coeffs)
            want_c = commutator_check(p.k, test_fn, flat)
            want_f = factorization_residual(p.k, test_fn, flat)
            for shape in ((2, 5), (10, 1)):
                for pos in (flat.reshape(shape), samples(p, flat.reshape(shape))):
                    assert commutator_check(p.k, test_fn, pos).hex() == want_c.hex()
                    assert factorization_residual(p.k, test_fn, pos).hex() == want_f.hex()

    def test_memo_keeps_bits(self, build_cached):
        # one record read at kappa - 2, kappa - 1, kappa and kappa + 1, the
        # exponents the factorization and commutator forms, gives the bits
        # of a fresh record per call
        rng = np.random.default_rng(47)
        for p in self.PARAMS:
            k = p.k
            points = interior_grid(p, 2001).points
            used = samples(p, points)
            for kappa in (k + 1.0, k - 1.0, k - 2.0):
                used.power(kappa)
            for n in (0, 1, 5):
                for kind, wf in (("minus", build_cached(p, n)), ("plus", build_cached(p.with_k(k + 1.0), n))):
                    want = apply_delta(kind, k, wf, samples(p, points))
                    assert apply_delta(kind, k, wf, used).tobytes() == want.tobytes()
            coeffs = rng.uniform(-1.0, 1.0, 7)
            for kappa in (k, k + 1.0):
                wf = Wavefunction(p, kappa, coeffs)
                want = factorization_residual(k, wf, samples(p, points))
                assert factorization_residual(k, wf, used).hex() == want.hex()
            test_fn = Wavefunction(p, k, coeffs)
            want = commutator_check(k, test_fn, samples(p, points))
            assert commutator_check(k, test_fn, used).hex() == want.hex()
            assert set(used._powers) == {k - 2.0, k - 1.0, k, k + 1.0}

    def test_operators_read_the_memo(self, build_cached):
        # each exponent is formed once on the record the caller passes
        p = ModelParams(1.0, 2.0, 3.7)
        k = p.k
        rec = samples(p, interior_grid(p, 2001).points)
        apply_delta("minus", k, build_cached(p, 4), rec)
        assert set(rec._powers) == {k}  # the matched wall term is skipped: no cos^(k-2)
        c_k = rec.power(k)
        commutator_check(k, Wavefunction(p, k, [0.3, -1.0, 0.5]), rec)
        assert set(rec._powers) == {k, k - 2.0} and rec.power(k) is c_k
        factorization_residual(k, Wavefunction(p, k + 1.0, [0.3, -1.0, 0.5]), rec)
        assert set(rec._powers) == {k - 2.0, k, k + 1.0}  # nor the matched "plus" one's

    def test_rejects_record_of_another_domain(self, build_cached):
        rec = samples(ModelParams(1.0, 2.0, 2.0), np.array([0.0, 0.3]))
        wf = build_cached(P_REF, 1)
        for check in (
            lambda: apply_delta("minus", 2.0, wf, rec),
            lambda: factorization_residual(2.0, wf, rec),
            lambda: commutator_check(2.0, wf, rec),
        ):
            with pytest.raises(ValueError, match="hat_omega"):
                check()

    def test_rejects_record_with_boundary_point(self, build_cached):
        rec = samples(P_REF, np.array([0.0, -P_REF.half_width]))
        assert rec.in_domain and not rec.interior
        wf = build_cached(P_REF, 1)
        with pytest.raises(ValueError, match=self.BOUNDARY_MSG):
            apply_delta("minus", 2.0, wf, rec)
        with pytest.raises(ValueError, match=self.BOUNDARY_MSG):
            commutator_check(2.0, wf, rec)
        with pytest.raises(ValueError, match=self.BOUNDARY_MSG):
            factorization_residual(2.0, wf, rec)

    @pytest.mark.parametrize("x", [math.nan, np.array([0.0, math.nan, 0.3])])
    def test_rejects_nan_positions(self, build_cached, x):
        wf = build_cached(P_REF, 1)
        for pos in (x, samples(P_REF, x)):
            with pytest.raises(ValueError, match=self.BOUNDARY_MSG):
                apply_delta("minus", 2.0, wf, pos)
            with pytest.raises(ValueError, match=self.BOUNDARY_MSG):
                commutator_check(2.0, wf, pos)
            with pytest.raises(ValueError, match=self.BOUNDARY_MSG):
                factorization_residual(2.0, wf, pos)


class TestFactorization:
    def test_eigenfunctions(self, build_cached):
        x = interior_grid(P_REF, 2001).points
        assert factorization_residual(2.0, build_cached(P_REF, 0), x) <= 1e-10
        assert factorization_residual(2.0, build_cached(P_REF, 3), x) <= 1e-8

    def test_random_polynomials_both_branches(self):
        rng = np.random.default_rng(23)
        x = interior_grid(P_REF, 2001).points
        for _ in range(10):
            coeffs = rng.uniform(-1.0, 1.0, 6)
            for kappa in (2.0, 3.0):  # k and k+1 select the two identities
                wf = Wavefunction(P_REF, kappa, coeffs)
                assert factorization_residual(2.0, wf, x) <= 1e-8

    def test_degree_32_within_contract(self):
        # the residual bound 1e-8*(1+sup|wf|) is contracted up to degree 32
        rng = np.random.default_rng(31)
        x = interior_grid(P_REF, 2001).points
        for kappa in (2.0, 3.0):
            wf = Wavefunction(P_REF, kappa, rng.uniform(-1.0, 1.0, 33))
            scale = 1.0 + float(np.max(np.abs(evaluate(wf, x))))
            assert factorization_residual(2.0, wf, x) <= 1e-8 * scale

    def test_rejects_unrelated_envelope(self):
        wf = Wavefunction(P_REF, 5.0, np.array([1.0]))
        with pytest.raises(ValueError):
            factorization_residual(2.0, wf, interior_grid(P_REF, 10_000).points)


class TestCommutator:
    def test_reduces_to_multiplication(self, build_cached):
        # [A_k, A_k^+] acts as 2k(1 + tan^2 wx): value 2k at the origin,
        # 2k(1+1) where tan(wx) = 1
        k = 2.0
        mult = lambda x: 2.0 * k * (1.0 + math.tan(P_REF.hat_omega * x) ** 2)
        assert mult(0.0) == 4.0
        assert mult(math.pi / 4.0) == pytest.approx(8.0, rel=1e-14)
        x = interior_grid(P_REF, 10_000).points
        assert commutator_check(k, build_cached(P_REF, 0), x) <= 1e-8

    def test_random_polynomials(self):
        rng = np.random.default_rng(29)
        x = interior_grid(P_REF, 2001).points
        for _ in range(10):
            wf = Wavefunction(P_REF, 2.0, rng.uniform(-1.0, 1.0, 9))
            assert commutator_check(2.0, wf, x) <= 1e-8

    def test_empty_positions(self):
        # no positions, no residual, as in factorization_residual
        wf = Wavefunction(P_REF, 2.0, np.array([1.0, 2.0]))
        assert commutator_check(2.0, wf, np.empty(0)) == 0.0
        assert factorization_residual(2.0, wf, np.empty(0)) == 0.0

    def test_low_envelope_exponent(self):
        # intermediate exponents drop below 1; the check must still hold
        p = ModelParams(1.0, 1.0, 1.5)
        wf = Wavefunction(p, 1.5, np.array([0.3, -0.7, 1.1]))
        assert commutator_check(1.5, wf, interior_grid(p, 10_000).points) <= 1e-8


class TestBuildFromGround:
    def test_level_zero_is_closed_form_ground(self):
        # the constant coefficient is the eigenstate's level-0 row, so the
        # values are the eigenstate's to the bit
        got = build_from_ground(P_REF, 0)
        want = build_eigenfunction(P_REF, 0)
        assert got.kappa == want.kappa
        assert got.coeffs.tolist() == [_ground_norm(P_REF.hat_omega, P_REF.k)]
        x = np.linspace(-P_REF.half_width, P_REF.half_width, 101)
        assert evaluate(got, x).tobytes() == evaluate(want, x).tobytes()

    def test_level_one_norm(self):
        # (1/sqrt(5)) A_2^+ U_{3,0} has unit norm
        wf = build_from_ground(P_REF, 1)
        assert inner_product(wf, wf) == pytest.approx(1.0, abs=1e-10)

    def test_matches_direct_construction(self, build_cached):
        x = interior_grid(P_REF, 2001).points
        for n in (1, 3, 9, 16):
            got = build_from_ground(P_REF, n)
            want = build_cached(P_REF, n)
            assert np.max(np.abs(evaluate(got, x) - evaluate(want, x))) <= 1e-8

    def test_battery_sweep(self, build_cached):
        for p in BATTERY:
            x = interior_grid(p, 1001).points
            for n in (2, 7, 16):
                got = build_from_ground(p, n)
                want = build_cached(p, n)
                assert np.max(np.abs(evaluate(got, x) - evaluate(want, x))) <= 1e-8

    def test_bytes_of_the_public_raise_chain(self):
        # the chain steps on bare coefficients and wraps the result once;
        # its bytes must be those of n public raise_ calls from the
        # closed-form ground state at level k + n, as a coefficient
        # polynomial
        for p in DEFAULT_BATTERY:
            for n in range(MAX_LEVEL + 1):
                levels = [p.k]
                for _ in range(n):
                    levels.append(levels[-1] + 1.0)
                wf = Wavefunction(p, levels[-1], [_ground_norm(p.hat_omega, levels[-1])])
                for k_j in reversed(levels[:-1]):
                    wf = raise_(LadderContext(p, k_j), wf)
                if n:
                    wf = Wavefunction(p, p.k, wf.coeffs * chain_prefactor(p.k, n))
                got = build_from_ground(p, n)
                assert got.kappa == wf.kappa == p.k
                assert got.coeffs.tobytes() == wf.coeffs.tobytes(), (p, n)

    CHAIN_KS = (1.01, 1.5, 3.7, 10.0, 1.0e3, 1.0e5, 1.0e6, 1.0e8 - 1.0)
    CHAIN_NS = tuple(range(17)) + (24, 36, 37, 48, 49, 57, 58, 64)
    # the first level whose unnormalized chain overflows, per k
    FIRST_OVERFLOW = {1.0e5: 58, 1.0e6: 49, 1.0e8 - 1.0: 37}

    @staticmethod
    def _raise_chain_hex(p, n):
        """float.hex of n public raise_ calls from the closed-form ground
        state at level k + n (levels by repeated +1.0), times
        chain_prefactor; None where a step overflows."""
        levels = [p.k]
        for _ in range(n):
            levels.append(levels[-1] + 1.0)
        # the top level may exceed K_MAX, where with_k refuses it
        wf = Wavefunction(p, levels[-1], [_ground_norm(p.hat_omega, levels[-1])])
        with np.errstate(over="ignore"):
            try:
                for k_j in reversed(levels[:-1]):
                    wf = raise_(LadderContext(p, k_j), wf)
            except ValueError as err:
                assert str(err) == "coefficients must be finite"
                return None
        c = wf.coeffs * chain_prefactor(p.k, n) if n else wf.coeffs
        return [float(v).hex() for v in c]

    @pytest.mark.parametrize("k", CHAIN_KS)
    def test_chain_routine_keeps_the_bits_of_the_raise_chain(self, k):
        # build_from_ground alone and the lock-step chains of every level
        # together must both give the raise_ chain's bits, and where that
        # chain overflows the same ValueError with no numpy warning
        p = ModelParams(1.0, 1.0, k)
        first = self.FIRST_OVERFLOW.get(k, MAX_LEVEL + 1)
        fits = [n for n in self.CHAIN_NS if n < first]
        together = _raising_chains(p, fits)
        for n in self.CHAIN_NS:
            want = self._raise_chain_hex(p, n)
            assert (want is None) == (n >= first), (k, n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if want is None:
                    with pytest.raises(ValueError, match="^coefficients must be finite$"):
                        build_from_ground(p, n)
                    with pytest.raises(ValueError, match="^coefficients must be finite$"):
                        _raising_chains(p, fits + [n])
                    continue
                got = build_from_ground(p, n)
            assert got.kappa == p.k
            assert [float(v).hex() for v in got.coeffs] == want, (k, n)
            assert [float(v).hex() for v in together[fits.index(n)].coeffs] == want, (k, n)

    def test_overflowing_chain_stops_with_wavefunction_error(self):
        # at k = 1e6 the unnormalized chain overflows before level 64; it
        # stops at the first step that does, as the raise_ chain did, and
        # with no numpy overflow warning (an error under this suite's filter)
        p = ModelParams(1.0, 1.0, 1.0e6)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            build_from_ground(p, MAX_LEVEL)

    def test_off_grid_k_chain_levels(self):
        # fl(fl(k+j)+1) != fl(k+j+1) for about 1% of such k; the chain
        # must still meet the envelope each raising step expects
        rng = np.random.default_rng(20261017)
        ks = np.exp(rng.uniform(math.log(1.25), math.log(1.0e3), 400))
        for k, n in zip(ks, rng.integers(0, 17, ks.size)):
            p = ModelParams(1.0, 1.0, float(k))
            assert k * 2.0**10 != round(k * 2.0**10)
            x = interior_grid(p, 1001).points
            got = evaluate(build_from_ground(p, int(n)), x)
            want = evaluate(build_eigenfunction(p, int(n)), x)
            assert np.max(np.abs(got - want)) <= 1e-8, (k, n)

    def test_rejects_bad_levels(self):
        # both builders share the one level validator in model
        for n in (-1, 2.5, MAX_LEVEL + 1):
            for build in (build_eigenfunction, build_from_ground):
                with pytest.raises(ValueError, match="^level index n must"):
                    build(P_REF, n)
