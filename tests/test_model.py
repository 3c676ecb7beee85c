import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import susy_pt
from susy_pt import (
    MAX_LEVEL,
    LadderContext,
    ModelParams,
    Wavefunction,
    build_eigenfunction,
    build_from_ground,
    chain_prefactor,
    delta_eigenvalue,
    energy,
    energy_squared,
    k_from_mass,
    mass_from_k,
    spectrum,
    superpotential,
    v_minus,
    v_plus,
    v_pt,
)
from susy_pt import wavefun
from susy_pt.numeric import interior_grid

from conftest import BATTERY


class TestModelParams:
    def test_derived_fields(self):
        p = ModelParams(1.5, 2.0, 3.0)
        assert p.hat_omega == 3.0
        assert p.half_width == math.pi / 6.0

    @pytest.mark.parametrize(
        "omega,epsilon,k",
        [(-1.0, 1.0, 2.0), (0.0, 1.0, 2.0), (1.0, -0.5, 2.0), (1.0, 0.0, 2.0),
         (1.0, 1.0, 1.0), (1.0, 1.0, 0.9), (1.0, 1.0, 2.0e8), (1.0, 1.0, float("nan")),
         (float("inf"), 1.0, 2.0), (1.0, float("inf"), 2.0),
         # hat_omega overflows, underflows to 0, or leaves half_width infinite
         (1e300, 1e300, 2.0), (1e-200, 1e-200, 2.0), (1e-170, 1e-170, 2.0),
         # a complex leaked TypeError and a numpy bool was accepted; the
         # int product 10**600 raised OverflowError in half_width and the
         # Fraction product, never 0, ZeroDivisionError
         (1.0, 1.0, 1 + 2j), pytest.param(1.0, np.True_, 2.0, id="numpy-bool"),
         pytest.param(10**300, 10**300, 2, id="int-product-overflows"),
         pytest.param(Fraction(1, 10**200), Fraction(1, 10**200), 2, id="fraction-product-underflows")],
    )
    def test_rejects_bad_params(self, omega, epsilon, k):
        with pytest.raises(ValueError):
            ModelParams(omega, epsilon, k)

    def test_every_real_input_shares_the_real_number_rule(self):
        p = ModelParams(1.0, 1.0, 2.0)
        for build, name in [
            (lambda v: ModelParams(v, 1.0, 2.0), "omega"),
            (lambda v: ModelParams(1.0, 1.0, v), "k"),
            (lambda v: k_from_mass(v, 1.0, 1.0), "mass"),
            (lambda v: k_from_mass(1.0, v, 1.0), "omega"),
            (lambda v: Wavefunction(p, v, [1.0]), "kappa"),
            (lambda v: LadderContext(p, v), "k_level"),
        ]:
            for value in ("1", None, True, 10**400):
                with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                    build(value)

    def test_real_params_stored_as_given(self):
        # numpy scalars and ints pass; the values are validated, not converted
        p = ModelParams(1, np.float64(1.0), np.int64(2))
        assert type(p.omega) is int and type(p.k) is np.int64
        assert k_from_mass(np.float32(math.sqrt(2.0)), 1, 1.0) == pytest.approx(2.0, rel=1e-7)

    def test_with_k(self):
        p = ModelParams(1.0, 2.0, 2.0)
        q = p.with_k(3.0)
        assert q.k == 3.0 and q.omega == p.omega and q.epsilon == p.epsilon


class TestMassConversions:
    def test_k_from_mass_sqrt2(self):
        # unique positive root of k(k-1) = 2
        assert k_from_mass(math.sqrt(2.0), 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_k_from_mass_root_confirmed(self):
        # m^2 = k(k-1) eps^2 w^2 with k=3, omega=1, eps=2 gives m = sqrt(96);
        # confirm both the inversion and the defining quadratic residual
        m = math.sqrt(96.0)
        k = k_from_mass(m, 1.0, 2.0)
        assert k == pytest.approx(3.0, rel=1e-14)
        hat_omega = 2.0
        assert k * (k - 1.0) == pytest.approx(m**2 / (2.0**2 * hat_omega**2), rel=1e-12)

    @pytest.mark.parametrize(
        "m, omega, epsilon",
        [
            (0.0, 1.0, 1.0),
            (-1.0, 1.0, 1.0),
            (math.inf, 1.0, 1.0),
            (math.nan, 1.0, 1.0),
            # k rounds to 1: a tiny mass, or eps^2 w huge against it
            (1e-300, 1.0, 1.0),
            (1.0, 1e300, 1e300),
            # eps^2 w underflows to 0, or m/(eps^2 w) overflows
            (1.0, 1.0, 1e-200),
            (1e300, 1e-300, 1e-300),
        ],
    )
    def test_k_from_mass_rejects_nonpositive(self, m, omega, epsilon):
        # k must be a finite float > 1, and the error names the mass
        with pytest.raises(ValueError, match="mass"):
            k_from_mass(m, omega, epsilon)

    def test_k_from_mass_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            k_from_mass(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            k_from_mass(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="omega"):
            k_from_mass(1.0, math.inf, 1.0)

    def test_mass_from_k_direct(self):
        assert mass_from_k(ModelParams(1.0, 1.0, 2.0)) ** 2 == pytest.approx(2.0, rel=1e-14)
        # k=2, omega=1, eps=2: m^2 = 2*1*4*4 = 32
        assert mass_from_k(ModelParams(1.0, 2.0, 2.0)) ** 2 == pytest.approx(32.0, rel=1e-14)

    def test_mass_vanishes_toward_k_one(self):
        m = mass_from_k(ModelParams(1.0, 1.0, 1.0 + 1e-12))
        assert 0.0 < m < 2e-6

    @pytest.mark.parametrize(
        "omega,epsilon",
        # the product overflows (hat_omega = 1e50, epsilon = 1e300), or
        # underflows to 0 (hat_omega = 1e-100, epsilon = 1e-300)
        [(1e-250, 1e300), (1e200, 1e-300)],
    )
    def test_rejects_mass_out_of_range(self, omega, epsilon):
        with pytest.raises(ValueError, match="mass"):
            mass_from_k(ModelParams(omega, epsilon, 2.0))

    def test_round_trip_k(self):
        rng = np.random.default_rng(42)
        log_k = rng.uniform(np.log10(1.0 + 1e-6), 6.0, 1000)
        omegas = 10.0 ** rng.uniform(-1, 1, 1000)
        epsilons = 10.0 ** rng.uniform(-1, 1, 1000)
        for lk, om, ep in zip(log_k, omegas, epsilons):
            k = 10.0 ** lk
            p = ModelParams(om, ep, k)
            assert k_from_mass(mass_from_k(p), om, ep) == pytest.approx(k, rel=1e-12)


class TestSpectrumFormulas:
    def test_ads_levels(self):
        # eps=1, k=2: E_n = n+2, equidistant with spacing omega
        p = ModelParams(1.0, 1.0, 2.0)
        assert energy_squared(p, 3) == pytest.approx(25.0, rel=1e-15)
        assert energy(p, 3) == pytest.approx(5.0, rel=1e-15)
        gaps = [energy(p, n + 1) - energy(p, n) for n in range(17)]
        assert max(abs(g - 1.0) for g in gaps) <= 1e-12

    def test_deformed_ground_level(self):
        # eps=2, omega=1, k=2: E_0^2 = 4*[4 + 3*2] = 40, and the
        # mass-form gives m^2 (1 - 1/eps^2) + w^2 (n+k)^2 = 24 + 16
        p = ModelParams(1.0, 2.0, 2.0)
        assert energy_squared(p, 0) == pytest.approx(40.0, rel=1e-14)
        m2 = mass_from_k(p) ** 2
        alt = m2 * (1.0 - 1.0 / p.epsilon**2) + p.hat_omega**2 * (0 + p.k) ** 2
        assert alt == pytest.approx(40.0, rel=1e-14)

    def test_two_energy_forms_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = ModelParams(
                10.0 ** rng.uniform(-1, 1),
                10.0 ** rng.uniform(-1, 1),
                10.0 ** rng.uniform(np.log10(1.0 + 1e-4), 3.0),
            )
            n = int(rng.integers(0, 40))
            m2 = mass_from_k(p) ** 2
            alt = m2 * (1.0 - 1.0 / p.epsilon**2) + p.hat_omega**2 * (n + p.k) ** 2
            assert energy_squared(p, n) == pytest.approx(alt, rel=1e-12)

    def test_delta_eigenvalue_values(self):
        p = ModelParams(1.0, 1.0, 2.0)
        assert delta_eigenvalue(p, 0) == 0.0
        assert delta_eigenvalue(p, 1) == pytest.approx(5.0, rel=1e-15)
        assert delta_eigenvalue(p, 2) == pytest.approx(12.0, rel=1e-15)

    def test_delta_matches_level_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = ModelParams(
                10.0 ** rng.uniform(-1, 1),
                10.0 ** rng.uniform(-1, 1),
                10.0 ** rng.uniform(np.log10(1.0 + 1e-4), 2.0),
            )
            n = int(rng.integers(0, 30))
            lhs = (energy_squared(p, n) - energy_squared(p, 0)) / p.hat_omega**2
            assert delta_eigenvalue(p, n) == pytest.approx(lhs, rel=1e-12, abs=1e-12)

    def test_rejects_negative_level(self):
        p = ModelParams(1.0, 1.0, 2.0)
        for fn in (energy_squared, delta_eigenvalue):
            with pytest.raises(ValueError):
                fn(p, -1)

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -math.inf])
    def test_rejects_non_integer_level(self, n):
        # one integer rule: an infinite level raised OverflowError, a NaN
        # one numpy's conversion error
        p = ModelParams(1.0, 1.0, 2.0)
        for fn in (energy_squared, delta_eigenvalue):
            with pytest.raises(ValueError, match="^level index n must be a nonnegative integer"):
                fn(p, n)
        assert delta_eigenvalue(p, 3.0) == delta_eigenvalue(p, 3)

    @pytest.mark.parametrize(
        "n", [2**1024, 10**400, int(sys.float_info.max) + 1, 10**5000], ids=["2**1024", "10**400", "max+1", "10**5000"]
    )
    def test_rejects_integer_no_float_holds(self, n):
        # float(n).is_integer() raised OverflowError from 2**1024; the
        # integers between the largest float and 2**1024 passed the rule;
        # the message of an int of more than 4300 digits failed to print it
        p = ModelParams(1.0, 1.0, 2.0)
        for fn in (energy_squared, delta_eigenvalue, spectrum):
            with pytest.raises(ValueError, match="^level index n must be a nonnegative integer"):
                fn(p, n)
        with pytest.raises(ValueError, match="^n_points must be a positive integer"):
            interior_grid(p, n)

    @pytest.mark.parametrize(
        "n", [MAX_LEVEL + 1, 10**200, int(sys.float_info.max)], ids=["MAX_LEVEL+1", "10**200", "max"]
    )
    def test_rejects_delta_eigenvalue_overflow(self, n):
        # the one level rule caps every level input, far below where
        # n(n+2k) overflows; energy_squared, energy, delta_eigenvalue and
        # spectrum took any level (spectrum(p, 10**5) ran for a second)
        assert MAX_LEVEL == 64 and susy_pt.MAX_LEVEL is wavefun.MAX_LEVEL is MAX_LEVEL
        p = ModelParams(1.0, 1.0, 2.0)
        for fn in (energy_squared, energy, delta_eigenvalue, spectrum, build_eigenfunction, build_from_ground):
            with pytest.raises(ValueError, match="^level index n must not exceed 64$"):
                fn(p, n)
        with pytest.raises(ValueError, match="^level index n must not exceed 64$"):
            chain_prefactor(p.k, n)
        assert [lvl.n for lvl in spectrum(p, MAX_LEVEL).levels] == list(range(MAX_LEVEL + 1))
        assert delta_eigenvalue(p, MAX_LEVEL) == MAX_LEVEL * (MAX_LEVEL + 4.0)

    @pytest.mark.parametrize("n", [True, False, np.True_, np.False_])
    def test_rejects_boolean_level(self, n):
        # a bool is not an integer to the one integer rule: spectrum(p, True)
        # returned two levels
        p = ModelParams(1.0, 1.0, 2.0)
        for fn in (energy_squared, delta_eigenvalue, spectrum):
            with pytest.raises(ValueError, match="^level index n must be a nonnegative integer"):
                fn(p, n)
        with pytest.raises(ValueError, match="^n_points must be a positive integer"):
            interior_grid(p, n)

    @pytest.mark.parametrize("n", ["3", None, 1 + 2j, [3], b"3"], ids=["str", "None", "complex", "list", "bytes"])
    def test_rejects_non_numeric_level(self, n):
        # these leaked TypeError from the comparison with 0
        p = ModelParams(1.0, 1.0, 2.0)
        for fn in (energy_squared, delta_eigenvalue, spectrum):
            with pytest.raises(ValueError, match="^level index n must be a nonnegative integer"):
                fn(p, n)
        with pytest.raises(ValueError, match="^n_points must be a positive integer"):
            interior_grid(p, n)

    @pytest.mark.parametrize(
        "omega,epsilon,k",
        # hat_omega ** 2 overflows; the product overflows; epsilon ** 2
        # overflows; hat_omega ** 2 underflows to 0
        [(1e200, 1.0, 2.0), (1e150, 1.0, 1e8), (1e-300, 1e300, 2.0), (1e-200, 1.0, 2.0)],
    )
    def test_rejects_energy_out_of_range(self, omega, epsilon, k):
        p = ModelParams(omega, epsilon, k)
        with pytest.raises(ValueError, match="E_n"):
            energy_squared(p, 0)
        with pytest.raises(ValueError, match="E_n"):
            spectrum(p, 2)

    def test_spectrum_builder(self):
        p = ModelParams(1.0, 2.0, 3.7)
        spec = spectrum(p, 12)
        assert [lvl.n for lvl in spec.levels] == list(range(13))
        e2 = [lvl.e_squared for lvl in spec.levels]
        assert all(b > a for a, b in zip(e2, e2[1:]))
        for lvl in spec.levels:
            assert lvl.delta_eig == pytest.approx(
                (lvl.e_squared - e2[0]) / p.hat_omega**2, rel=1e-12, abs=1e-12
            )


class TestPotentials:
    def test_values_at_origin(self):
        for p in BATTERY:
            assert v_minus(p, 0.0) == -p.k
            assert v_plus(p, 0.0) == p.k
            assert superpotential(p, 0.0) == 0.0
            assert v_pt(p, 0.0) == 0.0

    def test_v_minus_zero_crossing(self):
        # k=2, w=1: tan(pi/4)=1 so V_- = 2*1*1 - 2 = 0
        p = ModelParams(1.0, 1.0, 2.0)
        assert abs(v_minus(p, math.pi / 4.0)) <= 1e-12

    def test_v_pt_definition(self):
        p = ModelParams(1.0, 2.0, 3.7)
        x = interior_grid(p, 101).points
        expected = p.k * (p.k - 1.0) * p.hat_omega**2 * np.tan(p.hat_omega * x) ** 2
        assert np.allclose(v_pt(p, x), expected, rtol=1e-14, atol=0.0)

    def test_partner_identity(self):
        # V_+ + V_- = 2 W^2 pointwise
        for p in BATTERY:
            x = interior_grid(p, 2001).points
            lhs = v_plus(p, x) + v_minus(p, x)
            rhs = 2.0 * superpotential(p, x) ** 2
            assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-12

    def test_shape_invariance(self):
        # V_+(k,x) = V_-(k+1,x) + 2k + 1 on 1e4 interior points
        for p in BATTERY:
            x = interior_grid(p, 10_000).points
            ref = v_minus(p.with_k(p.k + 1.0), x)
            res = np.abs(v_plus(p, x) - ref - (2.0 * p.k + 1.0))
            assert np.max(res / (1.0 + np.abs(ref))) <= 1e-10

    def test_domain_rejection(self):
        p = ModelParams(1.0, 1.0, 2.0)
        d = p.half_width
        for fn in (v_pt, v_minus, v_plus, superpotential):
            with pytest.raises(ValueError):
                fn(p, d)
            with pytest.raises(ValueError):
                fn(p, -d)
            with pytest.raises(ValueError):
                fn(p, np.array([0.0, 1.1 * d]))
            for x in (math.nan, np.array([0.0, math.nan, 0.3])):
                with pytest.raises(ValueError, match=r"\|x\| < half_width \(potential singular"):
                    fn(p, x)

    def test_vectorized_matches_scalar(self):
        p = ModelParams(1.0, 0.5, 3.7)
        xs = np.linspace(-0.9, 0.9, 7) * p.half_width
        vec = v_minus(p, xs)
        assert vec.shape == xs.shape
        for xi, vi in zip(xs, vec):
            assert v_minus(p, float(xi)) == vi
