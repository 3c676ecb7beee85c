"""Exact bound-state wavefunctions: envelope-times-polynomial form.

Every bound state of the family is

    U(x) = cos^kappa(wx) * P(sin wx),

with kappa > 1 and P a real polynomial of definite parity.  Level n
(n = 2*n_s + s, s in {0,1}) has kappa = k and P of degree n obtained
from the terminating Gauss series

    sin^s(wx) * F(-n_s, k+s+n_s; s+1/2; sin^2 wx).

Coefficients are extracted exactly from the term recurrence (never by
sampling and fitting); the normalization is closed-form, from the
Gegenbauer norms (_scale).

Sign convention: the highest-order coefficient of P is positive.  The
series itself fixes degree and parity but not the overall sign; this
choice makes the lowering/raising maps hold with positive square-root
factors along the whole hierarchy, so ladder identities are sign-free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, _check_int, _check_level, _domain_flags
from .numeric import log_gamma, quadrature

__all__ = [
    "MAX_LEVEL",
    "Wavefunction",
    "hypergeometric_terminating",
    "hypergeometric_coefficients",
    "build_eigenfunction",
    "Samples",
    "samples",
    "evaluate",
    "inner_product",
]

# Above this level the exact coefficients risk double-precision overflow;
# rejected rather than silently degraded.
MAX_LEVEL = 64


@dataclass(frozen=True)
class Wavefunction:
    """Immutable envelope-times-polynomial wavefunction.

    coeffs holds c_0..c_d of P(s) = sum c_j s^j ascending, s = sin(wx);
    trailing zeros are trimmed so c_d != 0.  An empty coeffs array is the
    zero function (the result of annihilating a ground state).
    """

    params: ModelParams
    kappa: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not 1.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must exceed 1 and be finite, got {self.kappa!r}")
        # owned (np.array copies): the caller may go on writing to its array
        c = np.array(self.coeffs, dtype=float, ndmin=1)
        if c.ndim != 1:  # the polynomial calculus reads coefficients by slices
            raise ValueError(f"coefficients must be a 1-D array, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        if c.size and c[-1] == 0.0:
            nz = np.flatnonzero(c)
            c = c[: nz[-1] + 1] if nz.size else np.empty(0)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def degree(self) -> int:
        """Polynomial degree; -1 for the zero function."""
        return self.coeffs.size - 1


def hypergeometric_terminating(n_s: int, b: float, c: float, z):
    """Terminating series F(-n_s, b; c; z) = sum_{j<=n_s} of
    (-n_s)_j (b)_j / ((c)_j j!) * z^j, summed by the term recurrence.

    Exact polynomial in z, no truncation beyond rounding.  c must not be
    a nonpositive integer.  z may be a scalar or ndarray.
    """
    n_s = _check_series_args(n_s, b, c)
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    for j in range(n_s):
        term = term * ((j - n_s) * (b + j)) / ((c + j) * (j + 1.0)) * z
        total = total + term
    return total if total.ndim else float(total)


def hypergeometric_coefficients(n_s: int, b: float, c: float) -> np.ndarray:
    """Coefficients a_0..a_{n_s} of F(-n_s, b; c; z) as a polynomial in z."""
    n_s = _check_series_args(n_s, b, c)
    a = np.empty(n_s + 1)
    a[0] = 1.0
    for j in range(n_s):
        a[j + 1] = a[j] * ((j - n_s) * (b + j)) / ((c + j) * (j + 1.0))
    return a


def _check_series_args(n_s, b: float, c: float) -> int:
    """Reject a non-finite b or c, a c that is a nonpositive integer and
    an n_s that is not a nonnegative integer; n_s comes back as an int
    (2.0 passes as 2)."""
    if not (math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"series parameters b and c must be finite, got b={b!r}, c={c!r}")
    n_s = _check_int(n_s, "series order n_s")
    if c <= 0.0 and c == int(c):
        raise ValueError("lower parameter c must not be a nonpositive integer")
    return n_s


def build_eigenfunction(params: ModelParams, n: int) -> Wavefunction:
    """Normalized level-n eigenfunction U_{k,n} with kappa = params.k.

    Parity s = n mod 2, series order n_s = (n - s)/2; the polynomial part
    is sin^s * F(-n_s, k+s+n_s; s+1/2; sin^2), expanded exactly into
    monomial coefficients and scaled by the closed-form _scale: unit L2
    norm, highest-order coefficient positive.
    """
    n = _check_level(n, MAX_LEVEL)
    s = n % 2
    n_s = (n - s) // 2
    series = hypergeometric_coefficients(n_s, params.k + s + n_s, s + 0.5)
    coeffs = np.zeros(n + 1)
    coeffs[s::2] = series * _scale(params.hat_omega, params.k, n)
    return Wavefunction(params, params.k, coeffs)


def _scale(hat_omega: float, k: float, n: int) -> float:
    """(-1)^n_s g0 sqrt(r_n), the closed-form factor that makes the raw
    level-n series of build_eigenfunction unit-norm with its highest
    coefficient positive.  g0 normalizes level 0 (gamma ratio in log
    space); r_n, the raw squared norm of level 0 over that of level n,
    steps up two levels at a time from r_0 = 1, r_1 = 2(k+1) by O(1)
    ratios, so it neither under- nor overflows at large k.  The ratios
    follow from the Gegenbauer Gauss series and the norms h_n of DLMF
    Table 18.3.1."""
    s = n % 2
    r = 2.0 * (k + 1.0) if s else 1.0
    for i in range(1, n // 2 + 1):
        j = 2 * i + s
        r *= (j + k) / (j - 2 + k) * (j * (j - 1)) / ((2.0 * k + j - 2) * (2.0 * k + j - 1))
        r *= ((k + i + s - 1) / i) ** 2
    g0 = (hat_omega ** 2 / math.pi) ** 0.25 * math.exp(0.5 * (log_gamma(k + 1.0) - log_gamma(k + 0.5)))
    return (-1.0) ** (n // 2) * g0 * math.sqrt(r)


@dataclass(frozen=True)
class Samples:
    """Positions x with what evaluation reads from them, computed once
    for the domain of hat_omega: s = sin(wx), c = max(cos(wx), 0) with
    c exactly 0 at the boundary |x| = half_width, and the two domain
    flags.  Built by samples() alone.  Every evaluator accepts a
    record or an array, and turns an array into a record through that
    one constructor; shape is the shape of the positions given.

    The record is also the one place envelope powers c ** kappa are
    formed: power(kappa) memoizes them, so states and operator terms
    that share an exponent on one grid pay for it once.  The memo lives
    exactly as long as the record; the calls on one record mostly differ
    in the polynomial alone, so nearly every read finds its power.  tan
    is kept the same way, for the operator checks that read tan(wx)."""

    hat_omega: float
    shape: tuple
    x: np.ndarray
    s: np.ndarray
    c: np.ndarray
    in_domain: bool  # every |x| <= half_width
    interior: bool  # every |x| < half_width
    _powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        """Number of positions (what np.size reports for a record)."""
        return self.x.size

    def power(self, kappa: float) -> np.ndarray:
        """c ** kappa, flat and read-only: formed on first use, the same
        array after that.  A NaN kappa is formed every time, since it
        equals no key."""
        out = self._powers.get(kappa)
        if out is None:
            out = self.c ** kappa
            out.setflags(write=False)
            if kappa == kappa:
                self._powers[kappa] = out
        return out

    @functools.cached_property
    def tan(self) -> np.ndarray:
        """tan(wx), flat and read-only: formed on first use, the same
        array after that."""
        out = np.tan(self.hat_omega * self.x)
        out.setflags(write=False)
        return out


def samples(params: ModelParams, x) -> Samples:
    """The Samples record of positions x on the domain of params."""
    x = np.array(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    w = params.hat_omega
    in_domain, interior = _domain_flags(params, x)
    # clamp: w*x can round a hair past pi/2 just inside the boundary
    c = np.maximum(np.cos(w * x), 0.0)
    if not interior:  # the wall itself: cos(w * half_width) rounds to ~6e-17, not 0
        c[np.abs(x) == params.half_width] = 0.0
    s = np.sin(w * x)
    for a in (x, s, c):
        a.setflags(write=False)
    return Samples(w, shape, x, s, c, in_domain, interior)


def _as_samples(params: ModelParams, x) -> Samples:
    """x as a record for the domain of params: a record is checked to be
    built for that domain, an array goes through samples()."""
    if not isinstance(x, Samples):
        return samples(params, x)
    if x.hat_omega != params.hat_omega:
        raise ValueError("samples were built for another domain (hat_omega differs)")
    return x


def evaluate(wf: Wavefunction, x):
    """U(x) = cos^kappa(wx) * P(sin wx); Horner for P.  x is an array of
    positions or their Samples record.

    Defined on the closed domain: |x| <= half_width, exactly 0 at the
    endpoints (kappa > 1 beats the polynomial there).
    """
    rec = _as_samples(wf.params, x)
    if not rec.in_domain:
        raise ValueError("x must satisfy |x| <= half_width")
    out = _envelope(rec, wf.kappa, wf.coeffs)
    return out if out.ndim else float(out)


def _envelope(rec: Samples, kappa: float, p: np.ndarray) -> np.ndarray:
    """cos^kappa(wx) * P(sin wx) on a record, in its shape, for any real
    kappa and trimmed 1-D coefficients p (zeros when p is empty); no
    domain or kappa checks.  The one place envelope values are formed:
    evaluate and the operator residuals, whose intermediate terms carry
    exponents below the bound-state range, all call it.  The power is
    the record's (rec.power).  At a boundary point the envelope is
    0.0 ** kappa (samples() sets c to exactly 0).
    """
    if p.size == 0:
        return np.zeros(rec.shape)
    return (rec.power(kappa) * _horner(rec.s, p)).reshape(rec.shape)


def _recurrence(rec: Samples, k: float, n_max: int):
    """Yield, for n = 0..n_max, the flat rows P_n, P'_n and P''_n on the
    record's s (derivatives in s), where U_{k,n} = rec.power(k) * P_n.

    P_n is the orthonormal Gegenbauer polynomial of the weight
    (1 - s^2)^(k - 1/2), from its three-term recurrence (DLMF 18.9.1
    with the norms of Table 18.3.1) and that recurrence differentiated
    once and twice:

        s P_j       = a_{j+1} P_{j+1}   + a_j P_{j-1}
        a_{j+1} P'_{j+1}  = P_j   + s P'_j  - a_j P'_{j-1}
        a_{j+1} P''_{j+1} = 2 P'_j + s P''_j - a_j P''_{j-1}

    with a_j = sqrt(j (j + 2k - 1) / ((j + k)(j + k - 1))) / 2, P_{-1} = 0
    and P_0 the level-0 constant _scale(w, k, 0).  No hypergeometric
    coefficient enters, so the rows are an independent reference for
    the monomial states of build_eigenfunction, which share only level
    0's norm with them.  Only the rows of levels j - 1 and j are held
    at a time.
    """
    s = rec.s
    zero = np.zeros(s.shape)
    rows = (np.full(s.shape, _scale(rec.hat_omega, k, 0)), zero, zero)
    prev, a_j = (zero, zero, zero), 0.0
    for j in range(n_max + 1):
        yield rows
        if j == n_max:
            return
        a_next = 0.5 * math.sqrt((j + 1) * (j + 2.0 * k) / ((j + 1 + k) * (j + k)))
        p, dp, ddp = rows
        nxt = [s * p, s * dp, s * ddp]
        nxt[1] += p
        nxt[2] += 2.0 * dp
        for row, below in zip(nxt, prev):
            row -= a_j * below
            row /= a_next
        prev, rows, a_j = rows, nxt, a_next


def _horner(s, c: np.ndarray):
    """P(s) for ascending 1-D coefficients c (size >= 1) at finite s:
    numpy's polyval loop without its wrappers, same products in the same
    order.

    The loop runs in place on one accumulator, acc *= s; acc += c_j,
    where polyval forms c_j + acc * s in new arrays.  The product is the
    same, and IEEE addition is exactly commutative, signed zeros
    included, so the bits are polyval's.  polyval starts from
    c_d + s * 0, which is c_d itself for a nonzero c_d, so the first
    product is formed as c_d * s directly; a trimmed leading coefficient
    is nonzero, and a constant keeps polyval's start, which gives the
    row its shape."""
    if c.size == 1:
        return c[-1] + s * 0
    acc = c[-1] * s
    acc += c[-2]
    for c_j in c[-3::-1]:
        acc *= s
        acc += c_j
    return acc


def inner_product(f: Wavefunction, g: Wavefunction) -> float:
    """L2 scalar product over D by composite Gauss-Legendre quadrature.

    Both functions must live on the same domain (equal hat_omega).  The
    panels (_panels) grow with the combined degree but not with k, so
    |<U_n, U_n> - 1| <= 3.1e-13 holds only for n <= 16 and 1.5 <= k <=
    1e3 (README, "Quadrature range"); hierarchy's final_norm and verify's
    orthonormality suite share that range.
    """
    if f.params.hat_omega != g.params.hat_omega:
        raise ValueError("wavefunctions live on different domains (hat_omega differs)")
    if f.is_zero or g.is_zero:
        return 0.0
    d = f.params.half_width

    def integrand(x):
        rec = samples(f.params, x)
        return evaluate(f, rec) * evaluate(g, rec)

    return quadrature(integrand, -d, d, _panels(f.degree + g.degree))


def _panels(degree: int) -> int:
    """inner_product's panel count for a product of combined polynomial degree."""
    return 48 + degree // 2
