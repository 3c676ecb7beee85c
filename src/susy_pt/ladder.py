"""Lowering/raising operators, the rescaled second-order operator, and
the shape-invariance hierarchy.

On envelope-times-polynomial functions U = cos^kappa(wx) P(sin wx) the
first-order operators

    A_k   = (1/w) d/dx + k tan(wx)
    A_k^+ = -(1/w) d/dx + k tan(wx)

act exactly as polynomial maps.  With s = sin(wx):

    A_k   (cos^kappa P) = cos^(kappa-1) [ (k-kappa) s P + (1-s^2) P' ]
    A_k^+ (cos^kappa P) = cos^(kappa-1) [ (k+kappa) s P - (1-s^2) P' ]

For the matched envelope kappa = k the lowering rule collapses to
cos^(k+1) P', and for kappa = k+1 the raising rule gives
cos^k [ (2k+1) s P - (1-s^2) P' ].  The public lower/raise_ operations
implement those matched rules; the general forms back the commutator
check.  Operators act exactly on the polynomial part (polynomial
calculus); finite differences exist only as a test oracle.

The polynomial part of every Wavefunction is one form (wavefun._State),
P = sum_d t_d R_n^(d), a combination of the derivative rows of one
level n, and the rules act on the t_d: P' has the terms t_d' + t_(d-1),
and a s P + sign (1 - s^2) P' the terms
_first_order(a, t_d, sign) + sign (1 - s^2) t_(d-1), for d <= n
(_state_terms).  The rows come from one of two sources.  On the
Gegenbauer rows of an eigenstate, lower(U_{k,n}) is cos^(k+1) P_n' and
raise_(U_{k+1,m}) is cos^k [ (2k+1) s Q_m - (1-s^2) Q_m' ], read from
the rows at the state's own parameter, never by an index shift to the
neighbouring level.  On the unit row R = 1 of a coefficient polynomial
n = 0, so the one term t_0 is P itself, P' is t_0' and a s P +
sign (1 - s^2) P' is _first_order(a, t_0, sign).

On coefficients the calculus works on slices and forms the same
floating-point products in the same order as numpy.polynomial, so the
results are bit-identical to polyder/polymul/polyadd/polysub:

- P' is p[1:] * (1, 2, ..., d); P'' applies that twice, two roundings,
  as polyder(p, 2) does.
- Every first-order rule is a s P + sign (1 - s^2) P' (_first_order).
  Each term is formed on its own, (1 - s^2) P' as t[:d] += P',
  t[2:] -= P', and the two terms are then summed once.
- The shifted term a s P gets "+ 0.0": np.convolve accumulates from
  +0.0, so a product a * (-0.0) lands as +0.0 there, and the slice form
  must turn -0.0 into +0.0 too, or zero coefficients change sign.
- Trailing zeros are trimmed as numpy's trimseq trims them, down to one
  coefficient.

The second-order operator Delta has one formula in two steps:
_delta_factors forms its factor rows from kappa and the grid alone,
_delta_rows applies them to the rows of P, P' and P''.  apply_delta runs
both per call; the verify eigen and factorization suites form the
factors once per level set.  The wall term and the cos^kappa P term are
skipped only where their coefficient is exactly 0.0 (the matched
envelopes); the other products and sums keep their order, so only a
zero's sign can differ from the written-out formula.

The factorization and commutator identities split the same way:
_derivative_rows forms the rows P, P' and P'' once, and
_factorization_residuals and _commutator_residuals read them.
factorization_residual and commutator_check are the one-column call of
the two steps; verify runs them on stacks of test polynomials, one
maximum per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _check_exponent, _check_level, _require_interior
from .numeric import log_gamma, log_gamma_ratio
from .wavefun import (
    Wavefunction,
    _as_samples,
    _envelope,
    _form_row,
    _ground_norm,
    _ONE,
    _EMPTY,
    _make_state,
)

__all__ = [
    "LadderContext",
    "lower",
    "raise_",
    "apply_delta",
    "factorization_residual",
    "commutator_check",
    "build_from_ground",
    "chain_prefactor",
]


def _der(p: np.ndarray) -> np.ndarray:
    """Coefficients of P' for ascending coefficients p along the first
    axis (empty there for size 0 or 1)."""
    return (p[1:].T * np.arange(1.0, len(p))).T


def _first_order(a: float, p: np.ndarray, sign: float) -> np.ndarray:
    """Coefficients of a s P + sign (1 - s^2) P' for a trimmed 1-D p
    (empty for the zero function), or for each column of a 2-D stack p
    whose columns are coefficient arrays; sign is +1 or -1.  The result
    is trimmed down to one coefficient, a row of the stack only where
    every column ends in zero, so the zero function gives [0.0], which
    _make_state trims back to the zero function.

    Bit-identical to the numpy.polynomial composition except for a = 0
    with sign -1, which no operator here forms (the raising rules have
    a = k + kappa > 0): there numpy trims a s P to one coefficient and
    leaves -0.0 where this gives +0.0.  A column padded with zeros gives
    the bits of its trimmed form followed by +0.0, so the columns of a
    stack are those of its columns raised one at a time.
    """
    m = len(p) + 1
    shape = (m,) + p.shape[1:]
    shifted = np.zeros(shape)
    shifted[1:] = a * p
    shifted += 0.0
    dp = _der(p)
    t = np.zeros(shape)
    t[: m - 2] += dp
    t[2:] -= dp
    out = shifted + t if sign > 0 else shifted - t
    if not np.count_nonzero(out[-1]):
        nz = np.flatnonzero(out.reshape(m, -1).any(axis=1))
        out = out[: nz[-1] + 1] if nz.size else out[:1]
    return out


@dataclass(frozen=True)
class LadderContext:
    """Operator pair (A_k, A_k^+) at hierarchy level k_level; the level
    runs over k0, k0+1, k0+2, ... along a hierarchy."""

    params: ModelParams
    k_level: float

    def __post_init__(self):
        _check_exponent(self.k_level, "k_level")


def lower(ctx: LadderContext, wf: Wavefunction) -> Wavefunction:
    """A_k applied to a matched-envelope function: cos^k P -> cos^(k+1) P'.

    Annihilates the ground state (constant P).  On a normalized level-n
    eigenfunction the result is sqrt(n(n+2k)) * U_{k+1,n-1}.
    """
    _check_envelope(wf, ctx.k_level, "lower")
    return _wrap(wf.params, ctx.k_level + 1.0, _lowered(wf.state))


def raise_(ctx: LadderContext, wf: Wavefunction) -> Wavefunction:
    """A_k^+ applied to a kappa = k+1 function:
    cos^(k+1) Q -> cos^k [ (2k+1) s Q - (1-s^2) Q' ].

    Degree goes up by exactly one; the zero function stays zero.  On a
    normalized U_{k+1,n-1} the result is sqrt(n(n+2k)) * U_{k,n}.
    """
    _check_envelope(wf, ctx.k_level + 1.0, "raise_")
    return _wrap(wf.params, ctx.k_level, _first_order_part(2.0 * ctx.k_level + 1.0, wf.state, -1.0))


# sign (1 - s^2), the next-order factor of a first-order rule, by sign
_LIFTS = {1.0: np.array([1.0, 0.0, -1.0]), -1.0: np.array([-1.0, -0.0, 1.0])}


def _wrap(params: ModelParams, kappa: float, state) -> Wavefunction:
    """The Wavefunction of an operator's result: of a _State, the zero
    function for None (a state with no term left), and Wavefunction's
    error where a term overflowed."""
    if _finite(state) is None:
        return Wavefunction(params, kappa, _EMPTY)
    return Wavefunction(params, kappa, None, state)


def _finite(state):
    """state, or Wavefunction's error where one of its terms overflowed."""
    if state is not None and any(np.count_nonzero(np.isfinite(t)) < t.size for t in state.terms):
        raise ValueError("coefficients must be finite")
    return state


def _lowered(state):
    """The _State of P' for the _State of P: the terms t_d' + t_(d-1);
    None for the zero function (None)."""
    if state is None:
        return None
    return _make_state(state.k, state.n, _state_terms(state, _der, _ONE))


def _first_order_part(a: float, state, sign: float):
    """The _State of a s P + sign (1 - s^2) P' for the _State of P: the
    terms _first_order(a, t_d, sign) + sign (1 - s^2) t_(d-1); None for
    the zero function (None)."""
    if state is None:
        return None
    return _make_state(
        state.k, state.n, _state_terms(state, lambda t: _first_order(a, t, sign), _LIFTS[sign])
    )


def _state_terms(state, same, lift) -> list:
    """The terms of a state's polynomial part after a first-order rule:
    same(t_d) + lift * t_(d-1) for d up to the state's level n, lift a
    coefficient array multiplying the next-order row (1 for P'); no term
    of order above n is formed, as R_n^(d) = 0 there.  Sums of padded
    arrays; trimming is _make_state's."""
    terms, n = state.terms, state.n
    out = [same(t) if t.size else t for t in terms]
    if len(terms) <= n:
        out.append(_EMPTY)
    for d, t in enumerate(terms[:n]):
        if t.size:
            up = t if lift is _ONE else np.convolve(lift, t)
            low = out[d + 1]
            if low.size > up.size:
                low, up = up, low
            out[d + 1] = up if not low.size else np.concatenate((up[: low.size] + low, up[low.size :]))
    return out


def _check_envelope(wf: Wavefunction, expected: float, op: str):
    if wf.kappa != expected:
        raise ValueError(
            f"{op} expects envelope exponent {expected!r}, got {wf.kappa!r}"
        )


def apply_delta(kind: str, k_pot: float, wf: Wavefunction, x) -> np.ndarray:
    """Samples of (-(1/w^2) d^2/dx^2 + V) U at interior points x of
    wf's domain (an array or its Samples record), with V = V_-(k_pot)
    ("minus") or V_+(k_pot) ("plus") and k_pot real, finite and above 1:
    the rows of P, P' and P'' (_derivative_rows) put through _delta_rows
    with the factor rows of _delta_factors.  On a level-n eigenstate
    these are the record's Gegenbauer rows P_n, P_n' and P_n''
    themselves.
    """
    _check_exponent(k_pot, "k_pot")
    rec = _as_samples(wf.params, x)
    _require_interior(rec.interior)
    factors = _delta_factors(kind, k_pot, wf.kappa, rec)
    if wf.is_zero:
        return np.zeros(rec.shape)
    return _delta_rows(factors, _derivative_rows(rec, wf.state)).reshape(rec.shape)


def _derivative_rows(rec, state) -> tuple:
    """The rows (P, P', P'') of a nonzero _State on the record, flat, one
    row per column of a stack: _form_row of the state and of its two
    lowered states, a zero row where one of those is zero.  The step of
    apply_delta and of the factorization identities that reads the
    polynomial: formed once, then read by _factorization_residuals at
    both levels.  _commutator_residuals reads P alone, which its callers
    form by _form_row."""
    dp = _lowered(state)
    rows = [_form_row(rec, state)]
    for q in (dp, _lowered(dp)):
        rows.append(_form_row(rec, q) if q else np.broadcast_to(rec._zero, rows[0].shape))
    return tuple(rows)


def _delta_factors(kind: str, k_pot: float, kappa: float, rec) -> tuple:
    """The factor rows (wall, f1, f2, f3), flat, of the one Delta
    formula (-(1/w^2) d^2/dx^2 + V) U for U = cos^kappa(wx) P(sin wx)
    on the interior record rec, V = V_-(k_pot) ("minus") or V_+(k_pot)
    ("plus"): the step that does not depend on P (_delta_rows is the
    other).  Each row broadcasts over the rows of a stack's columns.

    The second derivative is taken analytically on the representation.
    Collecting powers of cos, with P evaluated at s = sin(wx):

        [kp(kp-+1) - kappa(kappa-1)] cos^(kappa-2) s^2 P
        + (kappa -+ kp) cos^kappa P
        + (2 kappa + 1) s cos^kappa P' - cos^(kappa+2) P''

    (upper signs for "minus", lower for "plus"), so wall = [..]
    cos^(kappa-2) s^2, f1 = (kappa -+ kp) cos^kappa, f2 = (2 kappa + 1)
    s cos^kappa and f3 = cos^(kappa+2).  The bracket vanishes
    identically for the matched envelope, which avoids the
    near-boundary cancellation of the raw -U''/w^2 + V U form; where it
    is exactly 0.0 the wall row is None and cos^(kappa-2) is not formed.
    Likewise f1 is None where kappa -+ kp is exactly 0.0 (the matched
    "minus" envelope).
    """
    if kind == "minus":
        lead = k_pot * (k_pot - 1.0)
        mid = kappa - k_pot
    elif kind == "plus":
        lead = k_pot * (k_pot + 1.0)
        mid = kappa + k_pot
    else:
        raise ValueError(f"unknown potential kind {kind!r}")
    s, c = rec.s, rec.c  # inside D the record's max(cos, 0) is cos itself
    c_kappa = rec.power(kappa)
    bracket = lead - kappa * (kappa - 1.0)
    wall = bracket * rec.power(kappa - 2.0) * s * s if bracket != 0.0 else None
    f1 = mid * c_kappa if mid != 0.0 else None
    return wall, f1, (2.0 * kappa + 1.0) * s * c_kappa, c_kappa * (c * c)


def _delta_rows(factors, rows) -> np.ndarray:
    """The step of the one Delta formula that reads P: ((wall P + f1 P)
    + f2 P') - f3 P'', flat, in that order, from the factor rows of
    _delta_factors and rows = (P, P', P'') at the record's s (from
    apply_delta, or the record's Gegenbauer rows for an eigenstate).  A
    skipped term (None) adds no +-0.0, so where the rest sums to -0.0
    the result can stay -0.0 where the written-out formula gives +0.0.
    """
    wall, f1, f2, f3 = factors
    pv, dpv, ddpv = rows
    out = f2 * dpv
    tmp = np.empty_like(out)
    if wall is not None or f1 is not None:
        low = [np.multiply(f, pv) for f in (wall, f1) if f is not None]
        if len(low) == 2:
            low[0] += low[1]
        out += low[0]
    out -= np.multiply(f3, ddpv, out=tmp)
    return out


def factorization_residual(k: float, wf: Wavefunction, x) -> float:
    """Sup-norm residual of the factorization identities on a grid.

    For kappa = k checks (A_k^+ A_k) wf against the "minus" operator
    samples; for kappa = k+1 checks (A_k A_k^+) wf against "plus".  Both
    sides are exact, so the residual is rounding noise for polynomial
    inputs of moderate degree.  x is an array of interior positions of
    wf's domain or their Samples record.
    """
    rec = _as_samples(wf.params, x)
    _check_exponent(k, "k_level")
    if wf.kappa != k and wf.kappa != k + 1.0:
        raise ValueError("wf.kappa must equal k or k+1")
    _require_interior(rec.interior)
    if wf.is_zero:
        return 0.0
    rows = _derivative_rows(rec, wf.state)
    factors = _delta_factors("minus" if wf.kappa == k else "plus", k, wf.kappa, rec)
    return float(_factorization_residuals(k, wf.kappa, wf.state, rows, factors, rec))


def _factorization_residuals(k: float, kappa: float, state, rows, factors, rec) -> np.ndarray:
    """The step of the factorization identities that reads the rows
    (P, P', P'') of _derivative_rows, for kappa = k or k+1 (checked by
    the caller) and the factor rows of its Delta, _delta_factors of
    "minus" at kappa = k and of "plus" at k+1 (they do not depend on
    P): max|raise_(lower(U)) - Delta_- U| or
    max|lower(raise_(U)) - Delta_+ U| over the positions, one maximum
    per column of a stack (a 0-d array for one column).  The composed
    side is the two rules on the state's terms, as lower and raise_
    form it, with their error where a term overflowed."""
    if kappa == k:
        composed = _first_order_part(2.0 * k + 1.0, _lowered(state), -1.0)
    else:
        composed = _lowered(_first_order_part(2.0 * k + 1.0, state, -1.0))
    lhs = _envelope(rec, kappa, _finite(composed))
    return np.max(np.abs(lhs - _delta_rows(factors, rows)), axis=-1, initial=0.0)


def commutator_check(k: float, test_fn: Wavefunction, x) -> float:
    """Scale-relative residual of [A_k, A_k^+] = 2k + (1/2k)(A_k + A_k^+)^2.

    A_k + A_k^+ multiplies by 2 W = 2k tan(wx), so the right side is
    multiplication by 2k (1 + tan^2 wx), k real, finite and above 1.  The
    left side is built from the general-envelope operator rules;
    intermediate exponents fall below the bound-state range, so raw
    (kappa, _State) pairs are used.  x is an array of interior positions
    of test_fn's domain or their Samples record.
    """
    _check_exponent(k, "k")
    rec = _as_samples(test_fn.params, x)
    _require_interior(rec.interior)
    if test_fn.is_zero:
        return 0.0
    state = test_fn.state
    return float(_commutator_residuals(k, test_fn.kappa, state, _form_row(rec, state), rec))


def _commutator_residuals(k: float, kappa: float, state, pv, rec) -> np.ndarray:
    """The step of the commutator identity that reads the row P (pv,
    _form_row of the state, one row per column of a stack): the
    scale-relative residual of commutator_check over the positions, one
    maximum per column (a 0-d array for one column)."""
    up_down = _general_lower(k, *_general_raise(k, kappa, state))
    down_up = _general_raise(k, *_general_lower(k, kappa, state))
    lhs = _envelope(rec, *up_down) - _envelope(rec, *down_up)
    t = rec.tan
    rhs = 2.0 * k * (1.0 + t * t) * (rec.power(kappa) * pv)
    return np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)), axis=-1, initial=0.0)


def _general_lower(k: float, kappa: float, p):
    """A_k on cos^kappa P for arbitrary kappa: exponent drops by one."""
    return kappa - 1.0, _first_order_part(k - kappa, p, 1.0)


def _general_raise(k: float, kappa: float, p):
    """A_k^+ on cos^kappa P for arbitrary kappa: exponent drops by one."""
    return kappa - 1.0, _first_order_part(k + kappa, p, -1.0)


def build_from_ground(params: ModelParams, n: int) -> Wavefunction:
    """Level-n eigenfunction assembled by n raising steps from the
    closed-form ground state at level k+n, where k = params.k, as a
    coefficient polynomial:

        U_{k,n} = chain_prefactor(k, n) A_k^+ A_{k+1}^+ ... A_{k+n-1}^+ U_{k+n,0}.

    The chain levels are built by repeated +1.0 from k, so each raising
    step finds exactly the envelope exponent the previous one produced
    (fl(fl(k+j)+1) and fl(k+j+1) can differ by one ulp).  Result matches
    build_eigenfunction up to rounding.  The bits are those of the chain
    of raise_ calls (_raising_chains); a step that overflows stops the
    chain where raise_ would, with Wavefunction's error and no numpy
    warning.
    """
    (wf,) = _raising_chains(params, [_check_level(n)])
    return wf


def _raising_chains(params: ModelParams, ns) -> list:
    """build_from_ground(params, n) for each level n of ns (checked
    levels), raised together: one stack of coefficient columns steps
    down the levels k+top-1, ..., k+1, k, and the chain of level n
    joins it, as the closed-form ground state at level k+n, just before
    the step at level k+n-1.  Each step is raise_'s rule on the bare
    coefficients, and a result is wrapped in a Wavefunction once, so
    each chain keeps the bits of its own chain of raise_ calls (see
    _first_order).  The first step at which some coefficient is not
    finite raises Wavefunction's error, with no numpy warning.
    """
    k = params.k
    top = max(ns)
    levels = [k]
    for _ in range(top):
        levels.append(levels[-1] + 1.0)
    stack, joined = np.zeros((1, 0)), []
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        for i in range(top, -1, -1):
            if i in ns:
                # the top level may exceed K_MAX, so not build_eigenfunction(params.with_k(top), 0)
                ground = np.zeros((len(stack), 1))
                ground[0] = _ground_norm(params.hat_omega, levels[i])
                stack = np.hstack((stack, ground))
                joined.append(i)
            if i:
                stack = _first_order(2.0 * levels[i - 1] + 1.0, stack, -1.0)
                if not np.isfinite(stack).all():
                    raise ValueError("coefficients must be finite")
    chains = dict(zip(joined, stack.T))
    return [Wavefunction(params, k, chains[n] * chain_prefactor(k, n) if n else chains[n]) for n in ns]


def chain_prefactor(k: float, n: int) -> float:
    """(1/sqrt(n!)) sqrt(Gamma(n+2k)/Gamma(2n+2k)), the normalization of
    the n-step raising chain down to level k.  Evaluated in log space so
    levels up to the supported maximum cannot overflow, the gamma ratio
    by log_gamma_ratio, which forms neither term."""
    n = _check_level(n)
    return math.exp(0.5 * (log_gamma_ratio(2.0 * k, n, 2.0 * n) - log_gamma(n + 1.0)))
