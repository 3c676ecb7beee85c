"""Parametrization, energy levels, and potentials of the deformed
trigonometric Poschl-Teller oscillator family.

Each member of the family lives on the open interval
D = (-pi/2w, pi/2w) with w = epsilon*omega, and is labelled by the
envelope exponent k > 1, the positive root of

    k(k-1) = m^2 / (epsilon^2 w^2).

All supersymmetry formulas are stated in k, so k is the stored
parameter and the mass m is derived.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "K_MAX",
    "MAX_LEVEL",
    "ModelParams",
    "Level",
    "Spectrum",
    "k_from_mass",
    "mass_from_k",
    "energy_squared",
    "energy",
    "delta_eigenvalue",
    "spectrum",
    "v_pt",
    "v_minus",
    "v_plus",
    "superpotential",
]

# Upper end of the admitted k range; values near 1 are allowed for limit
# studies even though they correspond to m -> 0.
K_MAX = 1.0e8

# Highest admitted level.  The eigenstates hold at every level up to it;
# the raising chain (build_from_ground) drifts from n of about 24 and
# overflows from n = 37 at large k.
MAX_LEVEL = 64


@dataclass(frozen=True)
class ModelParams:
    """The triple (omega, epsilon, k) fixing one member of the family.

    omega   -- oscillator frequency recovered in the large-k limit (> 0)
    epsilon -- metric deformation parameter (> 0); epsilon = 1 is the
               anti-de Sitter oscillator with equidistant spectrum
    k       -- envelope exponent (> 1); controls the cos^k boundary decay
    """

    omega: float
    epsilon: float
    k: float

    def __post_init__(self):
        for name in ("omega", "epsilon", "k"):
            _check_real(getattr(self, name), name)
        # the ranges are judged as floats, the form the formulas compute
        # in: an int or Fraction product neither overflows nor underflows
        omega, epsilon = float(self.omega), float(self.epsilon)
        if not 0.0 < omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if not 0.0 < epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        # the product can still overflow, or underflow to zero
        hat_omega = epsilon * omega
        if not (0.0 < hat_omega < math.inf and math.pi / (2.0 * hat_omega) < math.inf):
            raise ValueError("epsilon*omega must give a positive finite hat_omega and half_width")
        if not self.k > 1.0:
            raise ValueError("k must exceed 1")
        if self.k > K_MAX:
            raise ValueError(f"k must not exceed {K_MAX:g}")

    @property
    def hat_omega(self) -> float:
        """Scaled frequency w = epsilon*omega setting the domain size."""
        return self.epsilon * self.omega

    @property
    def half_width(self) -> float:
        """Half width pi/(2w) of the open domain D."""
        return math.pi / (2.0 * self.hat_omega)

    def with_k(self, k: float) -> "ModelParams":
        """Same (omega, epsilon) at another hierarchy level k."""
        return dataclasses.replace(self, k=k)


@dataclass(frozen=True)
class Level:
    n: int
    e_squared: float
    delta_eig: float


@dataclass(frozen=True)
class Spectrum:
    """Energy-squared levels E_n^2 with the matching dimensionless
    eigenvalues n(n+2k) of the rescaled operator."""

    params: ModelParams
    levels: tuple[Level, ...]


def k_from_mass(m: float, omega: float, epsilon: float) -> float:
    """Envelope exponent k = (1 + sqrt(1 + 4 m^2/(eps^2 w^2)))/2.

    The positive root of k(k-1) = m^2/(eps^2 w^2), always > 1: m, omega
    and epsilon must be positive and finite (k degenerates to 1 as
    m -> 0), and a ValueError naming the mass is raised where k is not
    a finite float > 1 (m/(eps^2 w) underflows, overflows or divides
    by an eps^2 w that underflows to 0).
    """
    for name, value in (("mass", m), ("omega", omega), ("epsilon", epsilon)):
        if not 0.0 < _check_real(value, name) < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    hat_omega = epsilon * omega
    scale = epsilon * hat_omega
    # hypot keeps full precision in sqrt(1 + 4 (m/scale)^2)
    k = 0.5 * (1.0 + math.hypot(1.0, 2.0 * (m / scale))) if scale else math.inf
    if not 1.0 < k < math.inf:
        raise ValueError(
            f"mass {m!r} gives k = {k!r} at omega = {omega!r}, epsilon = {epsilon!r}: not a finite float > 1"
        )
    return k


def mass_from_k(params: ModelParams) -> float:
    """Mass m = sqrt(k(k-1)) * epsilon * w of the model.

    Raises ValueError where m is not a positive finite float: the
    product can overflow, or underflow to 0, for admitted parameters.
    """
    m = math.sqrt(params.k * (params.k - 1.0)) * params.epsilon * params.hat_omega
    if not 0.0 < m < math.inf:
        raise ValueError(f"mass is {m!r}: not a positive finite float")
    return m


def energy_squared(params: ModelParams, n: int) -> float:
    """E_n^2 = w^2 [(n+k)^2 + (eps^2 - 1) k(k-1)] for level n >= 0.

    Raises ValueError where E_n^2 is not a positive finite float: a
    power or product that overflows, or w^2 that underflows to 0.
    """
    n = _check_level(n)
    k = params.k
    try:
        w2 = params.hat_omega ** 2
        e2 = w2 * ((n + k) ** 2 + (params.epsilon ** 2 - 1.0) * k * (k - 1.0))
    except OverflowError:
        e2 = math.inf
    if not 0.0 < e2 < math.inf:
        raise ValueError(f"E_n^2 at n={n} is {e2!r}: not a positive finite float")
    return e2


def energy(params: ModelParams, n: int) -> float:
    """Positive branch E_n = sqrt(E_n^2)."""
    return math.sqrt(energy_squared(params, n))


def delta_eigenvalue(params: ModelParams, n: int) -> float:
    """Eigenvalue n(n+2k) of the rescaled operator, = (E_n^2 - E_0^2)/w^2."""
    n = _check_level(n)
    return n * (n + 2.0 * params.k)


def spectrum(params: ModelParams, n_max: int) -> Spectrum:
    """Levels n = 0..n_max as a Spectrum record."""
    n_max = _check_level(n_max)
    levels = tuple(
        Level(n, energy_squared(params, n), delta_eigenvalue(params, n))
        for n in range(n_max + 1)
    )
    return Spectrum(params, levels)


def v_pt(params: ModelParams, x):
    """Trigonometric Poschl-Teller potential k(k-1) w^2 tan^2(wx)."""
    t2 = _tan_sq(params, x)
    k = params.k
    return k * (k - 1.0) * params.hat_omega ** 2 * t2


def v_minus(params: ModelParams, x):
    """Dimensionless potential V_-(k,x) = k(k-1) tan^2(wx) - k.

    The rescaled operator -(1/w^2) d^2/dx^2 + V_-(k) has spectrum n(n+2k).
    """
    t2 = _tan_sq(params, x)
    k = params.k
    return k * (k - 1.0) * t2 - k


def v_plus(params: ModelParams, x):
    """Supersymmetric partner V_+(k,x) = k(k+1) tan^2(wx) + k.

    Satisfies V_+ = -V_- + 2 W^2 pointwise and the shape-invariance
    relation V_+(k,x) = V_-(k+1,x) + 2k + 1.
    """
    t2 = _tan_sq(params, x)
    k = params.k
    return k * (k + 1.0) * t2 + k


def superpotential(params: ModelParams, x):
    """Superpotential W(k,x) = k tan(wx), the negative log-derivative of
    the ground state in units of w."""
    x = _check_interior(params, x)
    w = params.hat_omega
    out = params.k * np.tan(w * x)
    return out if out.ndim else float(out)


def _check_int(value, name: str, positive: bool = False) -> int:
    """The one integer rule: an integral real number (2.0 passes as 2)
    that is nonnegative, or positive if asked, and no larger than the
    largest float comes back as an int; anything else, NaN, the
    infinities, the booleans and values that are not real numbers ("3",
    None, 1+2j) included, raises ValueError.  The value is judged by
    comparisons alone, never through float(value), which overflows from
    2**1024."""
    if isinstance(value, (bool, np.bool_)) or not (
        isinstance(value, numbers.Real)
        and (1 if positive else 0) <= value <= sys.float_info.max
        and int(value) == value
    ):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {_shown(value)}")
    return int(value)


def _check_real(value, name: str):
    """The one real-number rule: a real number that a float can hold
    (numpy floats and ints, NaN and the infinities included) comes back
    as given, for the caller's range check to judge; a bool, a value
    that is not a numbers.Real ("1", None, 1+2j) and an int beyond the
    largest float raise ValueError."""
    if isinstance(value, float):  # skips the ABC check: 2% of run_all()
        return value
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            float(value)  # an int beyond the largest float overflows
            return value
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a real number within float range, got {_shown(value)}")


def _check_exponent(value, name: str):
    """The exponent rule of the operators: a real number (_check_real),
    finite and above 1, comes back as given: an envelope exponent kappa,
    a ladder level k and a potential's k.  NaN and the infinities raise
    ValueError, as every other value does."""
    if not 1.0 < _check_real(value, name) < math.inf:
        raise ValueError(f"{name} must exceed 1 and be finite, got {value!r}")
    return value


def _shown(value) -> str:
    """repr(value) for an error message, or the bit length of an int too
    long for Python to print (more than 4300 digits by default)."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {int(value).bit_length()} bits"


def _check_bool(value, name: str) -> bool:
    """The one flag rule: a bool or numpy bool comes back as a bool;
    anything else (0, 1, None, "no", NaN) raises ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {_shown(value)}")
    return bool(value)


def _check_level(n, cap=MAX_LEVEL) -> int:
    """The one level validator: n a nonnegative integer, at most cap."""
    n = _check_int(n, "level index n")
    if n > cap:
        raise ValueError(f"level index n must not exceed {cap}")
    return n


def _check_interior(params: ModelParams, x) -> np.ndarray:
    """Positions must stay strictly inside D; the potentials are singular
    at the boundary."""
    x = np.asarray(x, dtype=float)
    _require_interior(_domain_flags(params, x)[1])
    return x


def _domain_flags(params: ModelParams, x) -> tuple[bool, bool]:
    """The one domain rule: (every |x| <= half_width, every |x| <
    half_width).  Written as all(...) so that a NaN position fails both."""
    ax = np.abs(x)
    d = params.half_width
    return bool(np.all(ax <= d)), bool(np.all(ax < d))


def _require_interior(interior: bool):
    """The one home of the interior rule's message; interior says that
    every position lies strictly inside D."""
    if not interior:
        raise ValueError("x must satisfy |x| < half_width (potential singular at boundary)")


def _tan_sq(params: ModelParams, x):
    x = _check_interior(params, x)
    t = np.tan(params.hat_omega * x)
    out = t * t
    return out if out.ndim else float(out)
