"""The forward moment map, its truncation and pseudoinverse.

The truncated pseudoinverse is applied through the exact inverse factor,
whose part M has int rows: the data are put over one common denominator
(a float is an exact dyadic rational), each inner product (M y)_i is one
int dot product of a row of M with the numerators, and the result is
rounded to a double only once at the output.  That keeps the
reconstruction usable where a floating Cholesky of the Hilbert segment
fails (around n = 13).
"""

from fractions import Fraction
from math import fsum, inf, isfinite, lcm, sqrt
from operator import mul

from ._lazy import numpy as np, quadpack
from .exact_core import _Record, _common_den, _inner_products, _picard_sum
from .functions import TestFunction, _at
from .legendre import LegendreExpansion, project

_NORM_KINDS = ("H1", "H1-seminorm", "H2")  # the norms a SobolevBudget can bound


class MomentSequence(_Record):
    """First n moments y_j = integral of t^(j-1) x(t); zeros beyond n."""

    __slots__ = ("values",)

    def __init__(self, values):
        self._bind(tuple(values))

    @property
    def n(self):
        return len(self.values)

    def to_array(self):
        return np.array([float(v) for v in self.values])


class SobolevBudget(_Record):
    """A priori smoothness bound: E bounds the norm selected by kind."""

    __slots__ = ("E", "kind")

    def __init__(self, E, kind="H1"):  # kind: H1 | H1-seminorm | H2
        if not 0 < E < inf:
            raise ValueError("E must be finite and positive")
        if kind not in _NORM_KINDS:
            raise ValueError(f"unknown budget kind {kind!r}")
        self._bind(E, kind)


def _break_points(points, a, b):
    """The break points QUADPACK's QAGPE reads for (a, b): those strictly
    inside, sorted and once each, then 0.0, 0.0, as a float64 array; None
    when none lies inside."""
    inside = sorted({float(p) for p in points if a < p < b})
    return np.array(inside + [0.0, 0.0]) if inside else None


def _quad(func, a, b, tol, limit, points=None):
    """(v, err, ier): QUADPACK's integral of func over [a, b] to absolute and
    relative tolerance tol, in at most limit subintervals; ier is 0 on success.

    This is ``scipy.integrate.quad``'s own dispatch for a finite interval,
    without its warning: QAGPE on a ``_break_points`` array, else QAGSE.
    """
    if points is None:
        return quadpack()._qagse(func, a, b, (), 0, tol, tol, limit)
    return quadpack()._qagpe(func, a, b, points, (), 0, tol, tol, limit)


def forward_moments(f, n):
    """First n moments as floats: exact for polynomials, without loading
    scipy; else by QUADPACK (``_quad``) to absolute and relative tolerance
    1e-12, on f's breakpoints.  A moment whose integral is not finite,
    whose error estimate exceeds ten times the tolerance, or for which
    QUADPACK reports a nonzero ier is refused.

    QUADPACK calls each integrand at one Python float t at a time, and
    the built-ins of ``functions`` evaluate a float in floats.  The n
    integrals share most of their Gauss-Kronrod nodes, so f is evaluated
    once per distinct node of the call, its float(f(t)) kept in a dict
    for the call.  Moment k + 1's integrand binds the dict's get and
    the power k as a float, and returns float(f(t)) * t ** k: t ** k.0
    is the same libm pow call as t ** k, without converting k, and the
    product is the one a quad evaluating f afresh at each node forms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.poly_coeffs is not None:
        exact = exact_polynomial_moments(f.poly_coeffs, n)
        return MomentSequence([float(v) for v in exact.values])
    tol = 1e-12
    pts = _break_points(f.breakpoints, 0.0, 1.0)
    f_at = {}  # node -> float(f(node)), for this call only
    get = f_at.get

    def integrand(k):
        def t_k_f(t):
            v = get(t)
            if v is None:
                v = f_at[t] = float(f(t))
            return v * t ** k
        return t_k_f

    vals = []
    for j in range(1, n + 1):
        v, err, ier = _quad(integrand(float(j - 1)), 0.0, 1.0, tol, 200, pts)
        if ier or not (isfinite(v) and err <= 10 * max(tol, abs(v) * tol) + 1e-15):
            raise RuntimeError(f"quadrature for moment {j} did not converge (v={v!r}, err={err:.2e}, ier={ier})")
        vals.append(v)
    return MomentSequence(vals)


def exact_polynomial_moments(coeffs, n):
    """Moments y_j = sum c_k / (k + j), j = 1..n, of sum c_k t^k as Fractions.

    With c = a / D over one common denominator and d = lcm(1..n+len(c)-1),
    y_j = sum a_k (d // (k + j)) / (d D): one int dot product per moment.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, den = _common_den(tuple(coeffs) or (0,))  # no coefficients: the zero polynomial
    d = lcm(*range(1, n + len(a)))
    h = [d // i for i in range(1, n + len(a))]  # d // (k + j) is h[k + j - 1]
    return MomentSequence(Fraction(sum(map(mul, a, h[j:])), d * den) for j in range(n))


def pseudoinverse(y):
    """Minimum-norm solution of the truncated problem: lambda = Ln^{-1} y.

    y is put over one common denominator by ``_common_den``, the one rule
    for exact input (float and Decimal values exactly, other reals via float,
    non-finite values refused), so the inner products (M y)_i are exact ints over it;
    rounding happens once when each coefficient is emitted (int true
    division rounds correctly, so the unreduced denominator gives the
    same double).
    """
    a, den = _common_den(y.values)
    return LegendreExpansion([x / den * sqrt(2 * i + 1) for i, x in enumerate(_inner_products(a, den))])


def reconstruction_norm_sq_exact(y):
    """||A_n^+ P_n y||^2 = sum (2i-1) (M y)_i^2, an exact Fraction."""
    return _picard_sum(*_common_den(y.values))


def _reference(f, n):
    """f's Legendre expansion cut at max(4n, 96) coefficients, which ``_tail`` reads at levels up to n."""
    return project(f, max(4 * n, 96))


def _tail(ref, n):
    """The l2 norm of ref's coefficients from n on; nothing past ref's cut is read."""
    return float(np.linalg.norm(ref.coefficients[n:]))


def projection_error(f, n):
    """||(A_n^+ A - I) f||, the Legendre tail from n on, read by ``_tail`` from the max(4n, 96)
    cut: as nothing past it is read, it is 0.75 % low for ``abs_kink`` at n = 24 and 0.78 % from
    n = 100, and 35 % low for ``g_alpha(-0.4)``, whose coefficients decay slowly, from n = 24."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _tail(_reference(f, n), n)


def sobolev_norm(f, kind="H1"):
    """The norm a SobolevBudget names, H1, H1-seminorm or H2; each squared L2 norm by ``forward_moments``."""
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    if f.derivative is None:
        raise ValueError(f"{f.label}: derivative required for {kind} norm")
    if kind == "H2" and f.second_derivative is None:
        raise ValueError(f"{f.label}: second derivative required for H2 norm")

    def _l2sq(g):  # moment 1 of g^2, on f's breakpoints
        def g_sq(t):
            v = _at(g(t))
            return v * v

        return forward_moments(TestFunction(g_sq, breakpoints=f.breakpoints), 1).values[0]

    parts = {"H1-seminorm": (f.derivative,), "H1": (f.value, f.derivative),
             "H2": (f.value, f.derivative, f.second_derivative)}[kind]
    return sqrt(fsum(map(_l2sq, parts)))


def h1_rate_check(f, budget, n_list):
    """Projection-error decay against the smoothness-rate bound.

    Rows (n, error, bound) with bound = E/(2n) for H1 budgets (full norm
    or seminorm) and E/(2 sqrt(2) n^2) for H2; the errors are ``_tail``s of
    the max(4n, 96) cut at the largest level, at most as low as
    ``projection_error``'s.  The norm the budget names is measured and
    checked against E before the run; an empty level list or a level below
    1 is refused first.
    """
    n_list = tuple(n_list)
    if not n_list or min(n_list) < 1:
        raise ValueError("levels must be a nonempty list of n >= 1")
    measured = sobolev_norm(f, budget.kind)
    if measured > budget.E * (1 + 1e-9):
        raise ValueError(f"budget violated: measured {budget.kind} norm "
                         f"{measured:.6g} exceeds E={budget.E:.6g}")
    ref = _reference(f, max(n_list))
    rows = []
    for n in n_list:
        err = _tail(ref, n)
        bound = budget.E / (2 * sqrt(2) * n * n) if budget.kind == "H2" else budget.E / (2 * n)
        rows.append({"n": n, "error": err, "bound": bound, "ok": err <= bound})
    return rows
