"""Exact bound-state wavefunctions: envelope times polynomial.

Every bound state of the family is

    U(x) = cos^kappa(wx) * P(sin wx),

with kappa > 1 and P a real polynomial of definite parity.  Level n has
kappa = k and P = P_n, the orthonormal Gegenbauer polynomial of degree
n for the weight (1 - s^2)^(k - 1/2), up to the domain factor in the
level-0 norm.  P_n is never expanded into monomials: its values, and
those of its derivatives in s, come from the three-term recurrence
(_recurrence), kept on the Samples record they are formed on.  In the
paper's series form P_n is proportional to

    sin^s(wx) * F(-n_s, k+s+n_s; s+1/2; sin^2 wx),    n = 2*n_s + s,

which hypergeometric_terminating and hypergeometric_coefficients sum
and expand, as the test oracle of that form.

Every Wavefunction holds its P in one form, a _State: the source of its
rows R, a level n and the polynomials t_d of P = sum_d t_d(s) R_n^(d)(s).
The Gegenbauer rows of parameter k give the eigenstates of
build_eigenfunction (level n is t = (1,), coeffs is None), which the
ladder operators map to other states on the same rows.  The unit row
R = 1 (k is None, level 0) gives the coefficient polynomials, t_0 =
coeffs = P: the factorization and commutator test functions and
build_from_ground's raising chain.  As R' = 0, the calculus of terms
reduces there to the monomial rules.

Sign convention: the highest-order coefficient of P_n is positive.  This
choice makes the lowering/raising maps hold with positive square-root
factors along the whole hierarchy, so ladder identities are sign-free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# MAX_LEVEL lives in model; imported so that wavefun.MAX_LEVEL resolves too
from .model import MAX_LEVEL, ModelParams, _check_exponent, _check_int, _check_level, _check_real, _domain_flags
from .numeric import log_gamma_ratio, quadrature

__all__ = [
    "Wavefunction",
    "hypergeometric_terminating",
    "hypergeometric_coefficients",
    "build_eigenfunction",
    "Samples",
    "samples",
    "evaluate",
    "inner_product",
]


def _coeff_array(coeffs) -> np.ndarray:
    """coeffs as an owned 1-D float array, each coefficient a real number
    by the one rule (model._check_real: "12", b"1", True, 1+2j and None
    fail it) and finite, or a ValueError.  _make_state trims it."""
    if not (isinstance(coeffs, np.ndarray) and coeffs.dtype.kind in "fiu"):  # numpy reals pass whole
        for v in np.array(coeffs, dtype=object, ndmin=1).flat:
            _check_real(v, "coefficient")
    # owned (np.array copies): the caller may go on writing to its array
    c = np.array(coeffs, dtype=float, ndmin=1)
    if c.ndim != 1:  # the polynomial calculus reads coefficients by slices
        raise ValueError(f"coefficients must be a 1-D array, got shape {c.shape}")
    if np.count_nonzero(np.isfinite(c)) < c.size:
        raise ValueError("coefficients must be finite")
    return c


_ONE, _EMPTY = np.ones(1), np.empty(0)
_ONE.setflags(write=False)
_EMPTY.setflags(write=False)


class _State(NamedTuple):
    """The polynomial part sum_d terms[d](s) R_n^(d)(s) of a
    Wavefunction, terms[d] ascending coefficients: R_n^(d) is the d-th
    s-derivative of the level-n row of _recurrence at parameter k, or of
    the unit row R_0 = 1 where k is None (n = 0, one term, the
    coefficients of P)."""

    k: float | None
    n: int
    terms: tuple


def _make_state(k: float | None, n: int, terms):
    """The _State of these 1-D float arrays, the terms of derivative
    order 0..(at most) n: each is trimmed of its trailing zeros, the one
    trim rule of terms and coefficients, and trailing empty terms are
    dropped; None where no term is left (the zero function).  Every term
    is read-only."""
    out = []
    for t in terms:
        size = t.size
        while size and t[size - 1] == 0.0:
            size -= 1
        t = t[:size]
        t.setflags(write=False)
        out.append(t)
    while out and not out[-1].size:
        out.pop()
    return _State(k, n, tuple(out)) if out else None


@dataclass(frozen=True)
class Wavefunction:
    """Immutable envelope-times-polynomial wavefunction cos^kappa P, P
    held as a _State (_make_state), None for the zero function (the
    result of annihilating a ground state).

    Wavefunction(params, kappa, coeffs) takes c_0..c_d of P(s) =
    sum c_j s^j ascending, s = sin(wx), as the level-0 state on the
    unit row; coeffs keeps them trimmed so c_d != 0, empty for the zero
    function.  A state on the Gegenbauer rows (an eigenstate, P read
    from the rows of the record it is evaluated on) is given as
    Wavefunction(params, kappa, None, state), and its coeffs is None.
    """

    params: ModelParams
    kappa: float
    coeffs: np.ndarray | None
    state: _State | None = None

    def __post_init__(self):
        _check_exponent(self.kappa, "kappa")
        state = self.state
        if state is None:
            state = _make_state(None, 0, (_coeff_array(self.coeffs),))
            object.__setattr__(self, "state", state)
        elif self.coeffs is not None or not isinstance(state, _State):
            raise ValueError("a Wavefunction given a _State (from _make_state) holds no coefficients")
        if state is None or state.k is None:
            object.__setattr__(self, "coeffs", state.terms[0] if state else _EMPTY)

    @property
    def is_zero(self) -> bool:
        return self.state is None

    @property
    def degree(self) -> int:
        """Degree of P, max over d of deg t_d + n - d; -1 for the zero
        function."""
        if self.state is None:
            return -1
        k, n, terms = self.state
        return max(t.size - 1 + n - d for d, t in enumerate(terms) if t.size)


def hypergeometric_terminating(n_s: int, b: float, c: float, z):
    """Terminating series F(-n_s, b; c; z) = sum_{j<=n_s} of
    (-n_s)_j (b)_j / ((c)_j j!) * z^j, summed by the term recurrence.

    Exact polynomial in z, no truncation beyond rounding.  c must not be
    a nonpositive integer, and n_s must not exceed MAX_LEVEL // 2 = 32.
    z may be a scalar or ndarray.
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
    """Coefficients a_0..a_{n_s} of F(-n_s, b; c; z) as a polynomial in
    z, for n_s <= MAX_LEVEL // 2 = 32."""
    n_s = _check_series_args(n_s, b, c)
    a = np.empty(n_s + 1)
    a[0] = 1.0
    for j in range(n_s):
        a[j + 1] = a[j] * ((j - n_s) * (b + j)) / ((c + j) * (j + 1.0))
    return a


# The highest series order: level n = 2 n_s + s <= MAX_LEVEL needs no
# more.  The terms overflow to inf from n_s = 994 at b = 2.5, c = 0.5.
_MAX_SERIES_ORDER = MAX_LEVEL // 2


def _check_series_args(n_s, b: float, c: float) -> int:
    """Reject a non-finite b or c, a c that is a nonpositive integer and
    an n_s that is not a nonnegative integer of at most
    _MAX_SERIES_ORDER; n_s comes back as an int (2.0 passes as 2)."""
    if not (math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"series parameters b and c must be finite, got b={b!r}, c={c!r}")
    n_s = _check_int(n_s, "series order n_s")
    if n_s > _MAX_SERIES_ORDER:
        raise ValueError(f"series order n_s must not exceed {_MAX_SERIES_ORDER}")
    if c <= 0.0 and c == int(c):
        raise ValueError("lower parameter c must not be a nonpositive integer")
    return n_s


def build_eigenfunction(params: ModelParams, n: int) -> Wavefunction:
    """Normalized level-n eigenfunction U_{k,n} = cos^k P_n with kappa =
    params.k: an eigenstate, whose P_n its evaluators read from the
    Gegenbauer rows of _recurrence.  Unit L2 norm, highest-order
    coefficient of P_n positive."""
    n = _check_level(n)
    return Wavefunction(params, params.k, None, _State(params.k, n, (_ONE,)))


def _ground_norm(hat_omega: float, k: float) -> float:
    """The level-0 constant g0 = (w^2/pi)^(1/4) sqrt(Gamma(k+1)/Gamma(k+1/2))
    that makes cos^k(wx) g0 unit-norm on the domain; the gamma ratio by
    log_gamma_ratio, which forms neither term."""
    return (hat_omega ** 2 / math.pi) ** 0.25 * math.exp(0.5 * log_gamma_ratio(k, 1.0, 0.5))


@dataclass(frozen=True)
class Samples:
    """Positions x with what evaluation reads from them, computed once
    for the domain of hat_omega: s = sin(wx), c = max(cos(wx), 0) with
    c exactly 0 at the boundary |x| = half_width, and the two domain
    flags.  Built by samples() alone.  Every evaluator accepts a
    record or an array, and turns an array into a record through that
    one constructor; shape is the shape of the positions given.

    The record is also the one place the rows that evaluation reads are
    formed, each once, for as long as the record lives: the envelope
    powers (power), tan(wx) (tan), the Gegenbauer rows of the
    eigenstates (_recurrence, which keeps them in _rows) and the rows of
    their term polynomials (polynomial).  The calls on
    one record mostly differ in the polynomial alone, so nearly every
    read finds its row."""

    hat_omega: float
    shape: tuple
    x: np.ndarray
    s: np.ndarray
    c: np.ndarray
    in_domain: bool  # every |x| <= half_width
    interior: bool  # every |x| < half_width
    _powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _polynomials: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        """Number of positions (what np.size reports for a record)."""
        return self.x.size

    @functools.cached_property
    def log_c2(self) -> np.ndarray:
        """ln cos^2(wx), flat and read-only, formed on first use: log1p(-s^2)
        where s^2 <= 1/2, and 2 ln c nearer the wall, where 1 - s^2 has
        lost the digits that c keeps.  -inf where c is 0 (the wall),
        with no warning."""
        ss = self.s * self.s
        with np.errstate(divide="ignore"):
            out = np.log(self.c)
        out *= 2.0
        np.log1p(-ss, out=out, where=ss <= 0.5)
        out.setflags(write=False)
        return out

    def power(self, kappa: float) -> np.ndarray:
        """cos^kappa(wx) as exp((kappa/2) ln cos^2(wx)), flat and
        read-only: formed on first use, the same array after that.  The
        log form keeps its relative error at a few ulp times the
        exponent, where c ** kappa multiplies c's own rounding by kappa
        (2e-7 at k = 1e8); at the wall it is exactly 0.0 for kappa > 0.
        A NaN kappa is formed every time, since it equals no key."""
        out = self._powers.get(kappa)
        if out is None:
            out = np.exp((0.5 * kappa) * self.log_c2)
            out.setflags(write=False)
            if kappa == kappa:
                self._powers[kappa] = out
        return out

    def polynomial(self, t: np.ndarray) -> np.ndarray:
        """t(s), flat and read-only, for the nonempty ascending
        coefficients t of an eigenstate's term (a few small polynomials
        per record, such as the (2k+1) s and -(1 - s^2) of a raised
        state): Horner's row, formed on first use, the same array after
        that."""
        key = t.tobytes()
        out = self._polynomials.get(key)
        if out is None:
            out = self._polynomials[key] = _horner(self.s, t)
            out.setflags(write=False)
        return out

    @functools.cached_property
    def _zero(self) -> np.ndarray:
        """A read-only row of zeros, the rows P^(d)_j for j < d share it."""
        out = np.zeros(self.s.shape)
        out.setflags(write=False)
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
    """U(x) = cos^kappa(wx) * P(sin wx), P formed by _form_row.  x is an
    array of positions or their Samples record.

    Defined on the closed domain: |x| <= half_width, exactly 0 at the
    endpoints (kappa > 1 beats the polynomial there).
    """
    rec = _as_samples(wf.params, x)
    if not rec.in_domain:
        raise ValueError("x must satisfy |x| <= half_width")
    out = _envelope(rec, wf.kappa, wf.state)
    return out if out.ndim else float(out)


def _envelope(rec: Samples, kappa: float, state) -> np.ndarray:
    """cos^kappa(wx) * P(sin wx) on a record, in its shape, for any real
    kappa and the _State of P (zeros for None); no domain or kappa
    checks.  The one place envelope values are formed: evaluate and the
    operator residuals, whose intermediate terms carry exponents below
    the bound-state range, all call it.  The power is the record's
    (rec.power), 0.0 at a boundary point for kappa > 0.
    """
    if state is None:
        return np.zeros(rec.shape)
    return (rec.power(kappa) * _form_row(rec, state)).reshape(rec.shape)


def _form_row(rec: Samples, state: _State) -> np.ndarray:
    """sum_d t_d(s) R_n^(d)(s), flat, for a state from _make_state (its
    last term nonzero).  The rows are where the state takes them from:
    on the unit row P is t_0 itself, Horner's row; on the Gegenbauer
    rows at parameter k, a term t_d = 1 is the record's row itself (the
    memo's read-only array, for a lone term), any other nonzero one is
    the record's row of t_d times the row."""
    k, n, terms = state
    if k is None:
        return _horner(rec.s, terms[0])
    rows = _recurrence(rec, k, n, len(terms) - 1)
    out = None
    for d, t in enumerate(terms):
        if not t.size:
            continue
        term = rows[d][n] if t.size == 1 and t[0] == 1.0 else rec.polynomial(t) * rows[d][n]
        out = term if out is None else out + term
    return out


def _recurrence(rec: Samples, k: float, n_max: int, order: int = 0) -> list:
    """The Gegenbauer rows of parameter k on the record: a list, by
    derivative order d (for d <= order at least), of the lists of flat
    read-only rows P_n^(d) (derivatives in s) for n = 0..n_max at least,
    where U_{k,n} = rec.power(k) * P_n.

    P_n is the orthonormal Gegenbauer polynomial of the weight
    (1 - s^2)^(k - 1/2), from its three-term recurrence (DLMF 18.9.1
    with the norms of Table 18.3.1), and P_n^(d) from that recurrence
    differentiated d times:

        a_{j+1} P^(d)_{j+1} = d P^(d-1)_j + s P^(d)_j - a_j P^(d)_{j-1}

    with a_j = sqrt(j (j + 2k - 1) / ((j + k)(j + k - 1))) / 2,
    P_{-1} = 0, P_0 the constant _ground_norm(w, k) and P^(d)_j = 0 for
    j < d; the division by a_{j+1} is a product with its reciprocal,
    formed as its own square root.  No hypergeometric coefficient
    enters.

    The rows live in the record's memo (rec._rows, per k), which a later
    call extends: each order resumes from its last two levels, and an
    order is formed only when asked for, so the record forms no row
    twice and a values-only caller no derivative row.  The lists are
    the memo's own; callers read them and never write.
    """
    memo = rec._rows.get(k)
    if memo is None:
        memo = rec._rows[k] = ([0.0], [0.0], [])
    a, inv, rows = memo
    if len(rows) > order and len(rows[order]) > n_max:  # a lower order is never shorter
        return rows
    while len(a) <= n_max:
        j = len(a) - 1
        num, den = (j + 1) * (j + 2.0 * k), (j + 1 + k) * (j + k)
        a.append(0.5 * math.sqrt(num / den))
        inv.append(2.0 * math.sqrt(den / num))
    s = rec.s
    tmp = np.empty(s.shape)
    for d in range(len(rows), order + 1):
        if d:
            rows.append([rec._zero])
        else:
            first = np.full(s.shape, _ground_norm(rec.hat_omega, k))
            first.setflags(write=False)
            rows.append([first])
    for d in range(order + 1):
        level = rows[d]
        for j in range(len(level) - 1, n_max):
            if j + 1 < d:
                level.append(rec._zero)
                continue
            nxt = s * level[j]
            if d:
                nxt += rows[d - 1][j] if d == 1 else np.multiply(d, rows[d - 1][j], out=tmp)
            if j:
                nxt -= np.multiply(a[j], level[j - 1], out=tmp)
            nxt *= inv[j + 1]
            nxt.setflags(write=False)
            level.append(nxt)
    return rows


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
