"""Independent numerical machinery: composite Gauss-Legendre quadrature,
log-gamma, and a Sturm-count eigensolver for the finite-difference
image of the rescaled operator -(1/w^2) d^2/dx^2 + V.

Everything here is deliberately kept free of the exact polynomial
representation used elsewhere, so it can serve as an oracle for the
closed-form results.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _check_bool, _check_int, v_minus, v_plus

__all__ = [
    "Grid",
    "TridiagonalOperator",
    "interior_grid",
    "discretize_delta",
    "sturm_count",
    "eigenvalues_lowest",
    "delta_eigenvalues_fd",
    "quadrature",
    "log_gamma",
    "log_gamma_ratio",
]


# ----------------------------------------------------------------------
# grid and discretization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform interior grid x_i = -half_width + i*h, i = 1..n_points,
    with spacing h = 2*half_width/(n_points+1).  Endpoints are excluded;
    Dirichlet conditions live there implicitly."""

    n_points: int
    spacing: float
    points: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)


def interior_grid(params: ModelParams, n_points: int) -> Grid:
    n_points = _check_int(n_points, "n_points", positive=True)
    d = params.half_width
    h = 2.0 * d / (n_points + 1)
    points = -d + h * np.arange(1, n_points + 1, dtype=float)
    return Grid(n_points, h, points)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix: diag_i = 2/(wh)^2 + V(x_i),
    offdiag_i = -1/(wh)^2 (second-order central differences, Dirichlet)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if self.offdiag.shape[0] != self.diag.shape[0] - 1:
            raise ValueError("offdiag must have length len(diag) - 1")
        if not (np.isfinite(self.diag).all() and np.isfinite(self.offdiag).all()):
            raise ValueError("operator entries must be finite")
        self.diag.setflags(write=False)
        self.offdiag.setflags(write=False)

    @property
    def size(self) -> int:
        return self.diag.shape[0]


_MIN_POINTS = 16  # the fewest interior points discretize_delta accepts


def discretize_delta(params: ModelParams, kind: str, n_points: int) -> TridiagonalOperator:
    """Finite-difference image of -(1/w^2) d^2/dx^2 + V on the interior grid.

    kind selects V: "minus" -> V_-(k), "plus" -> V_+(k).  Eigenfunctions
    vanish like cos^k at the boundary (k > 1), so Dirichlet conditions
    are exact in the continuum limit.  The potential is evaluated only at
    interior nodes and never touches the tan^2 singularity.

    V is even, so the operator is persymmetric; it is made so to the bit
    by evaluating V on the left half of the grid (and the centre node for
    odd n_points) and mirroring it, since the grid -d + h*i is symmetric
    only to an ulp.
    """
    n_points = _check_int(n_points, "n_points", positive=True)
    if n_points < _MIN_POINTS:
        raise ValueError(f"n_points must be at least {_MIN_POINTS}")
    grid = interior_grid(params, n_points)
    if kind == "minus":
        pot = v_minus
    elif kind == "plus":
        pot = v_plus
    else:
        raise ValueError(f"unknown potential kind {kind!r}")
    scale = 1.0 / (params.hat_omega * grid.spacing) ** 2
    left = 2.0 * scale + pot(params, grid.points[: (n_points + 1) // 2])
    diag = np.concatenate((left, left[: n_points // 2][::-1]))
    offdiag = np.full(n_points - 1, -scale)
    return TridiagonalOperator(diag, offdiag)


def _parity_blocks(op: TridiagonalOperator) -> tuple[TridiagonalOperator, TridiagonalOperator]:
    """(even, odd) blocks of a persymmetric tridiagonal operator.

    A palindromic eigenvector v_i = v_{N+1-i} solves the leading block
    with the centre coupling b folded in; an anti-palindromic one solves
    it with the coupling folded out.  For N = 2m both blocks are the
    first m rows, with last diagonal a_m + b (even) or a_m - b (odd).
    For N = 2m+1 the even block is rows 1..m+1 with last off-diagonal
    sqrt(2)*b (symmetrized from 2b), and the odd block is rows 1..m,
    since odd vectors vanish at the centre (Cantoni & Butler, Linear
    Algebra Appl. 13 (1976) 275).
    """
    n = op.size
    m = n // 2
    b = float(op.offdiag[m - 1])
    if n % 2 == 0:
        even = op.diag[:m].copy()
        odd = op.diag[:m].copy()
        even[-1] += b
        odd[-1] -= b
        off = op.offdiag[: m - 1]
        return TridiagonalOperator(even, off), TridiagonalOperator(odd, off)
    even_off = op.offdiag[:m].copy()
    even_off[-1] = math.sqrt(2.0) * b
    return (
        TridiagonalOperator(op.diag[: m + 1], even_off),
        TridiagonalOperator(op.diag[:m], op.offdiag[: m - 1]),
    )


# ----------------------------------------------------------------------
# Sturm-sequence eigensolver
# ----------------------------------------------------------------------

def sturm_count(op: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues strictly below lam.

    Counts negative pivots of the LDL^T factorization of T - lam*I; the
    pivot recurrence d_i = (a_i - lam) - b_{i-1}^2 / d_{i-1} is the
    classical Sturm sequence.  A tiny pivot is replaced by -pivmin so the
    count stays well defined (LAPACK-style safeguard).  lam = -inf and
    +inf give 0 and n; a NaN lam is a ValueError.
    """
    if math.isnan(lam):
        raise ValueError("sturm_count requires a shift that is not NaN")
    return _pivot_count(*_pivot_data(op), lam)


def eigenvalues_lowest(
    op: TridiagonalOperator, count: int, *, starts: Iterable[float] = ()
) -> list[float]:
    """The count smallest eigenvalues by shared-bracket Sturm counting.

    Each eigenvalue is bracketed to width <= 1e-10 * (1 + |lambda|) and
    returned as the bracket midpoint.  As in LAPACK dstebz, every pivot
    sweep updates the brackets of all requested eigenvalues.  Eigenvalue
    j is approached by one safeguarded Newton loop on det(T - lam*I),
    stopped at |dx| <= 1e-6 * (1 + |x|); counts either side of the
    converged iterate shrink the bracket, and plain bisection finishes
    it.  The Newton loop runs from
    - starts[j], when it lies strictly inside j's current bracket, which
      need not isolate j yet: no doubling or isolating probe comes first
      (the start-first path);
    - otherwise, or once the safeguard trips on that path, the midpoint
      of an isolating bracket: the upper end is found by doubling up
      from the Gershgorin lower end, bisection isolates j, and Newton
      restarts from the midpoint whenever the safeguard trips.
    The safeguard trips on a step that leaves j's bracket, is not finite
    or fails to halve, and on an iterate whose count shows Newton
    heading for another eigenvalue.
    The result is certified by Sturm counts alone, deterministic, and
    needs no convergence tuning.  Counting sweeps skip the Newton sums
    (_pivot_count).

    starts is any iterable of real numbers, read once; a scalar or an
    entry that is not a real number is a ValueError.  Starts that are
    NaN, +-inf or outside the bracket are ignored, so a start can save
    sweeps but never changes what is certified.
    """
    n = op.size
    count = _check_int(count, "count", positive=True)
    if count > n:
        raise ValueError("count must be in 1..n_points")
    starts = _read_starts(starts)
    radius = np.concatenate(([0.0], np.abs(op.offdiag))) + np.concatenate(
        (np.abs(op.offdiag), [0.0])
    )
    lo0 = float(np.min(op.diag - radius))
    hi0 = float(np.max(op.diag + radius))
    pad = 1e-12 * (abs(lo0) + abs(hi0) + 1.0)
    lo0 -= pad
    hi0 += pad

    data = _pivot_data(op)
    # invariant: count(lo[i]) == below_lo[i] <= i < below_hi[i] == count(hi[i])
    lo = [lo0] * count
    hi = [hi0] * count
    below_lo = [0] * count
    below_hi = [n] * count

    def probe(lam: float, newton: bool = False):
        if newton:
            below, step = _pivot_sweep(*data, lam)
        else:
            below, step = _pivot_count(*data, lam), None
        for i in range(min(below, count)):
            if lam < hi[i]:
                hi[i], below_hi[i] = lam, below
        for i in range(below, count):
            if lam > lo[i]:
                lo[i], below_lo[i] = lam, below
        return below, step

    def newton(j: int, x: float) -> bool:
        """Safeguarded Newton (as in rtsafe) for eigenvalue j from x:
        False as soon as an iterate has a count other than j or j + 1
        (it is heading for another eigenvalue) or a step leaves j's
        bracket, is not finite or fails to halve; True once the bracket
        is settled or the step has converged and x has been counted
        either side.  Inside an isolating bracket every count is j or
        j + 1."""
        last = hi[j] - lo[j]
        while not _settled(lo[j], hi[j]):
            below, dx = probe(x, newton=True)
            if not (
                j <= below <= j + 1
                and math.isfinite(dx)
                and lo[j] < x + dx < hi[j]
                and abs(dx) <= 0.5 * last
            ):
                return False
            x += dx
            last = abs(dx)
            if last <= 1e-6 * (1.0 + abs(x)):
                # count either side of x, from within the certified width
                # outward: log-det Newton can settle off the Sturm root by
                # a roundoff floor larger than that width
                delta = 4e-11 * (1.0 + abs(x))
                for sign in (-1.0, 1.0):
                    t = delta
                    while lo[j] < x + sign * t < hi[j]:
                        probe(x + sign * t)
                        t *= 2.0
                break
        return True

    # the lowest eigenvalues of a discretized second-order operator are
    # spaced about (Gershgorin width) / n^2 apart
    reach = (hi0 - lo0) / (n * n)
    out = []
    for j in range(count):
        if not (j < len(starts) and lo[j] < starts[j] < hi[j] and newton(j, starts[j])):
            while hi[-1] == hi0 and lo0 + reach < hi0:
                probe(lo0 + reach)
                reach *= 2.0
            # bisect until the bracket holds eigenvalue j alone, then
            # Newton from its midpoint, again from the midpoint whenever
            # the safeguard trips
            while (below_lo[j] != j or below_hi[j] != j + 1) and not _settled(lo[j], hi[j]):
                probe(0.5 * (lo[j] + hi[j]))
            while not newton(j, 0.5 * (lo[j] + hi[j])):
                pass
        while not _settled(lo[j], hi[j]):
            probe(0.5 * (lo[j] + hi[j]))
        out.append(0.5 * (lo[j] + hi[j]))
    return out


def _read_starts(starts) -> list[float]:
    """starts read once, as floats; a scalar, a str or bytes, or an
    entry that is not a real number is a ValueError."""
    values = None
    if isinstance(starts, Iterable) and not isinstance(starts, (str, bytes)):
        values = list(starts)
    if values is None or not all(isinstance(s, numbers.Real) for s in values):
        raise ValueError(f"starts must be an iterable of real numbers, got {starts!r}")
    return [float(s) for s in values]


def _settled(lo: float, hi: float) -> bool:
    """Bracket at the certified width, or at the rounding limit."""
    mid = 0.5 * (lo + hi)
    return hi - lo <= 1e-10 * (1.0 + abs(mid)) or not lo < mid < hi


def _pivot_data(op: TridiagonalOperator):
    """Rows for the pivot sweeps: diagonal, squared off-diagonal (0
    before the first row), and the LAPACK pivot floor pivmin."""
    offsq = np.square(op.offdiag)
    pivmin = 2.2250738585072014e-308 * float(np.max(offsq, initial=1.0))
    return op.diag.tolist(), np.concatenate(([0.0], offsq)).tolist(), pivmin


def _pivot_count(diag, offsq, pivmin: float, lam: float) -> int:
    """_pivot_sweep's count without the Newton sums: the same pivots,
    formed in the same order, so the counts agree to the bit."""
    below = 0
    d = 1.0
    for a, bsq in zip(diag, offsq):
        d = (a - lam) - bsq / d
        if d < pivmin:
            below += 1
            if d > -pivmin:
                d = -pivmin
    return below


def _pivot_sweep(diag, offsq, pivmin: float, lam: float):
    """One LDL^T pivot sweep of T - lam*I: (number of negative pivots,
    Newton step for det(T - lam*I)).

    det = prod d_i, so the step is -1 / sum(d_i'/d_i) with
    d_i' = -1 + (b_{i-1}^2 / d_{i-1}) d_{i-1}'/d_{i-1}; the loop carries
    g = d_i'/d_i.  |d| < pivmin counts as the negative pivot -pivmin.
    """
    below = 0
    d = 1.0
    g = 0.0
    total = 0.0
    for a, bsq in zip(diag, offsq):
        q = bsq / d
        d = (a - lam) - q
        if d < pivmin:
            below += 1
            if d > -pivmin:
                d = -pivmin
        g = (q * g - 1.0) / d
        total += g
    return below, (-1.0 / total if total else math.inf)


# The FD oracle's grid chain (delta_eigenvalues_fd): step ratio, fewest
# points of a coarse grid, and the agreement that allows extrapolation.
_COARSE_RATIO = 8
_COARSE_FLOOR = 64
_COARSE_RESOLVED = 0.1


def delta_eigenvalues_fd(
    params: ModelParams,
    kind: str,
    count: int,
    n_points: int,
    richardson: bool = False,
) -> list[float]:
    """Lowest eigenvalues of the discretized operator, optionally sharpened
    by Richardson extrapolation over the pair (n_points, 2*n_points).

    The operator is persymmetric (V is even), so it is solved as its even
    and odd parity blocks of half the size (_parity_blocks).  By the
    Sturm oscillation theorem for Jacobi matrices, eigenvector j has j
    sign changes; a palindrome has an even number of them and an
    anti-palindrome an odd number, so the parities alternate from the
    ground state up: ceil(count/2) eigenvalues come from the even block
    and floor(count/2) from the odd one.  The merged list is sorted,
    because where the grid cannot resolve the state an even and an odd
    eigenvalue agree to rounding and may come out in either order.

    Every Newton start comes from the operator itself, never from a
    closed form (eigenvalues_lowest's start-first path).  The grids form
    one ascending chain (nested iteration, Brandt, Math. Comp. 31 (1977)
    333): n_points // 8, // 64, ... while a grid has at least 64 points
    and at least count, then n_points, then 2*n_points if richardson.
    Each grid's even block starts from the even levels of the two grids
    solved below it, extrapolated through their O(h^2) error, or from
    the finer one alone where only one lies below or the two differ by
    more than 0.1 (1 + |lam|) (unresolved); so 2*n_points starts from
    n_points and n_points // 8.  Only n_points and 2*n_points solve
    their odd block, from their even levels (_odd_starts): the
    continuum levels n(n+2k) are quadratic in n.

    Central differences converge at O(h^2); combining grids with step
    ratio r eliminates the h^2 term, (r^2 L2 - L1)/(r^2 - 1).  It leaves
    the wall term h^(2k-1) of eigenfunctions that vanish like cos^k,
    which dominates for k < 1.5: `susy-pt verify --k 1.01 --richardson`
    fails, 1.394e-06 against 1e-6.  richardson must be a bool.
    """
    count = _check_int(count, "count", positive=True)
    n_points = _check_int(n_points, "n_points", positive=True)
    richardson = _check_bool(richardson, "richardson")
    if count > n_points:
        raise ValueError("count must be in 1..n_points")
    grids = [n_points]
    while grids[0] // _COARSE_RATIO >= max(_COARSE_FLOOR, count):
        grids.insert(0, grids[0] // _COARSE_RATIO)
    if richardson:
        grids.append(2 * n_points)
    solved, lams = [], []
    for n in grids:
        even_op, odd_op = _parity_blocks(discretize_delta(params, kind, n))
        even = eigenvalues_lowest(even_op, (count + 1) // 2, starts=_even_starts(params, n, solved[-2:]))
        solved.append((n, even))
        if n >= n_points:
            odd = eigenvalues_lowest(odd_op, count // 2, starts=_odd_starts(even, count)) if count > 1 else []
            lams.append(sorted(even + odd))
    if not richardson:
        return lams[0]
    r = (2 * n_points + 1) / (n_points + 1)  # h1/h2
    r2 = r * r
    return [(r2 * l2 - l1) / (r2 - 1.0) for l1, l2 in zip(*lams)]


def _even_starts(params: ModelParams, n_points: int, below: list[tuple[int, list[float]]]) -> list[float]:
    """Even-block starts at n_points from the (points, even-block levels)
    of at most two grids below it, ascending, b then a:
    la + (la - lb) (h^2 - ha^2) / (ha^2 - hb^2), which removes the h^2
    term of the error, with h = 2 d / (N + 1) as in interior_grid; la
    alone where the two differ by more than _COARSE_RESOLVED (1 + |la|)
    or only one grid lies below."""
    if len(below) < 2:
        return below[0][1] if below else []
    (nb, lb), (na, la) = below
    h2 = [(2.0 * params.half_width / (n + 1)) ** 2 for n in (n_points, na, nb)]
    w = (h2[0] - h2[1]) / (h2[1] - h2[2])
    return [
        a if abs(a - b) > _COARSE_RESOLVED * (1.0 + abs(a)) else a + (a - b) * w
        for a, b in zip(la, lb)
    ]


def _odd_starts(even: list[float], count: int) -> list[float]:
    """Estimates of the odd levels n = 1, 3, ... < count: the Lagrange
    quadratic in n through the three nearest of the even levels
    0, 2, 4, ..., the line through two of them, or none from one."""
    starts = []
    for n in range(1, count, 2):
        if len(even) >= 3:
            s = min(max(n // 2 - 1, 0), len(even) - 3)
            e0, e1, e2 = even[s : s + 3]
            t = 0.5 * n - s  # n in units of the node spacing 2, from node s
            starts.append(0.5 * (t - 1.0) * (t - 2.0) * e0 - t * (t - 2.0) * e1 + 0.5 * t * (t - 1.0) * e2)
        elif len(even) == 2:
            starts.append(even[0] + 0.5 * n * (even[1] - even[0]))
    return starts


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def quadrature(f, a: float, b: float, panels: int) -> float:
    """Composite Gauss-Legendre integral of f over [a, b], 16 nodes per
    equal panel.  f must accept an ndarray of positions.

    All nodes are interior, so integrands singular exactly at the panel
    edges (e.g. at the domain boundary) are never evaluated there.
    """
    panels = _check_int(panels, "panels", positive=True)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got a={a!r}, b={b!r}")
    nodes, half = _gl_panels(a, b, panels)
    vals = np.asarray(f(nodes), dtype=float).reshape(panels, 16)
    return float(half * np.sum(vals @ _GL_WEIGHTS))


def _gl_panels(a: float, b: float, panels: int) -> tuple[np.ndarray, float]:
    """Nodes of the composite rule on [a, b], 16 per panel in panel order,
    and the half panel width that scales _GL_WEIGHTS."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (b - a) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    return (mids[:, None] + half * _GL_NODES[None, :]).ravel(), half


# ----------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients (Godfrey's set).  Checked
# against an independent reference to < 5e-15 scaled error on (0, 1e4].
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def log_gamma(z: float) -> float:
    """ln Gamma(z) for finite z > 0 by the Lanczos approximation.

    For z < 0.5 the recurrence ln Gamma(z) = ln Gamma(z+1) - ln z keeps
    the series argument in its well-conditioned range.  Exact zeros are
    returned at z = 1 and z = 2.  Any other z (0, negative, NaN, +inf)
    is a ValueError, as non-finite input is for quadrature.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("log_gamma requires finite z > 0")
    if z == 1.0 or z == 2.0:
        return 0.0
    if z < 0.5:
        return _lanczos(z + 1.0) - math.log(z)
    return _lanczos(z)


def _lanczos(z: float) -> float:
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (w + 0.5) * math.log(t) - t + math.log(acc)


# Stirling's series ln Gamma(x) ~ (x - 1/2) ln x - x + ln(2 pi)/2 +
# sum_m B_2m / (2m (2m - 1) x^(2m - 1)) (DLMF 5.11.1): the coefficients
# B_2m / (2m (2m - 1)) for m = 1..9.  From x >= 10 on the tenth term is
# below 2e-19, so nine leave the series exact to rounding.
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0,
)
_STIRLING_FROM = 10.0


def log_gamma_ratio(z: float, a: float, b: float) -> float:
    """ln Gamma(z + a) - ln Gamma(z + b) without forming either term.

    The two terms reach 2e9 at z = 1e8, where one rounding of either
    exceeds the ratio's own error budget; here nothing of their size is
    formed.  While z + min(a, b) < 10 the recurrence Gamma(x + 1) =
    x Gamma(x) steps z up by one, each step adding
    -log1p((a - b) / (z + b)).  From there, with d = a - b and y = z + b,
    Stirling's series (DLMF 5.11.1) gives

        d ln y + (z + a - 1/2) log1p(d / y) - d

    plus the difference of the two Bernoulli tails.
    z + a and z + b must be finite and positive; anything else is a
    ValueError.
    """
    if not (0.0 < z + a < math.inf and 0.0 < z + b < math.inf):
        raise ValueError(f"log_gamma_ratio requires finite z + a > 0 and z + b > 0, got z={z!r}, a={a!r}, b={b!r}")
    d = a - b
    out = 0.0
    lo = min(a, b)
    while z + lo < _STIRLING_FROM:
        out -= math.log1p(d / (z + b))
        z += 1.0
    x, y = z + a, z + b
    out += d * math.log(y) + (x - 0.5) * math.log1p(d / y) - d
    return out + (_stirling_tail(x) - _stirling_tail(y))


def _stirling_tail(x: float) -> float:
    """The Bernoulli tail of Stirling's series at x >= 10, by Horner in
    1/x^2."""
    u = 1.0 / (x * x)
    acc = _STIRLING[-1]
    for coeff in _STIRLING[-2::-1]:
        acc = acc * u + coeff
    return acc / x
