"""The forward moment map, its truncation, adjoint and pseudoinverse.

The truncated pseudoinverse is applied through the exact inverse factor,
whose part M has int rows: the data are put over one common denominator
(a float is an exact dyadic rational), each inner product (M y)_i is one
int dot product of a row of M with the numerators, and the result is
rounded to a double only once at the output.  That keeps the
reconstruction usable where a floating Cholesky of the Hilbert segment
fails (around n = 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, lcm, sqrt
from operator import mul

from ._lazy import numpy as np
from .exact_core import _common_den, _inner_products, _picard_sum, cholesky_factor_L
from .functions import TestFunction, _horner
from .legendre import LegendreExpansion, _unit_points, project

_NORM_KINDS = ("H1", "H1-seminorm", "H2")  # the norms a SobolevBudget can bound


@dataclass(frozen=True)
class MomentSequence:
    """First n moments y_j = integral of t^(j-1) x(t); zeros beyond n."""

    values: tuple

    @property
    def n(self):
        return len(self.values)

    @classmethod
    def from_values(cls, values):
        return cls(tuple(values))

    def to_array(self):
        return np.array([float(v) for v in self.values])


@dataclass(frozen=True)
class SobolevBudget:
    """A priori smoothness bound: E bounds the norm selected by kind."""

    E: float
    kind: str = "H1"  # H1 | H1-seminorm | H2

    def __post_init__(self):
        if not 0 < self.E < inf:
            raise ValueError("E must be finite and positive")
        if self.kind not in _NORM_KINDS:
            raise ValueError(f"unknown budget kind {self.kind!r}")


def forward_moments(f, n):
    """First n moments as floats: exact for polynomials, without loading
    scipy; else by scipy quad to absolute and relative tolerance 1e-12,
    with f evaluated once per distinct node of the call, as the n integrals
    share most of their Gauss-Kronrod nodes.  Each moment's integrand
    binds its power k and multiplies the cached float(f(t)) by t ** k,
    the same IEEE product the float64 value gave."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.poly_coeffs is not None:
        exact = exact_polynomial_moments(f.poly_coeffs, n)
        return MomentSequence.from_values([float(v) for v in exact.values])
    from scipy.integrate import quad
    tol = 1e-12
    pts = sorted(set(f.breakpoints)) or None
    f_at = {}  # node -> float(f(node)), for this call only

    def integrand(k):
        def t_k_f(t):
            v = f_at.get(t)
            if v is None:
                v = f_at[t] = float(f(t))
            return v * t ** k
        return t_k_f

    vals = []
    for j in range(1, n + 1):
        v, err = quad(integrand(j - 1), 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200, points=pts)
        if not (isfinite(v) and err <= 10 * max(tol, abs(v) * tol) + 1e-15):
            raise RuntimeError(f"quadrature for moment {j} did not converge (v={v!r}, err={err:.2e})")
        vals.append(v)
    return MomentSequence.from_values(vals)


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
    return MomentSequence.from_values(Fraction(sum(map(mul, a, h[j:])), d * den) for j in range(n))


def forward_from_expansion(e, n):
    """First n moments of the expansion via the exact factored Ln.

    y = Ln lambda = Ltilde diag(sqrt(2k-1)) lambda, lambda read by ``_common_den`` (NaN and infinities
    refused); the rational products are exact, the irrational column weights enter once per term at 40
    digits, and the sum is rounded to a double at the end.
    """
    import mpmath as mp
    lfac = cholesky_factor_L(n)
    part = lfac.rational_part
    a, den = _common_den(e.coefficients[:min(e.m, n)])
    with mp.workdps(40):
        roots = [mp.sqrt(w) for w in lfac.diag_weights]
        return MomentSequence.from_values([float(mp.fsum(mp.mpf(x * c) / mp.mpf(part.den * den) * r
                                                          for x, c, r in zip(row, a, roots) if x and c))
                                           for row in part.num])


def adjoint_apply(y, t):
    """[A* y](t) = sum_j y_j t^(j-1), by Horner."""
    out = _horner(y.to_array(), _unit_points(t))
    return out if out.shape else float(out)


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


def _reference_coefficients(f, n):
    """f's first max(4n, 96) Legendre coefficients, from which every tail at
    levels up to n is read; the cut reads ``abs_kink``'s tail 0.8 % low."""
    return project(f, max(4 * n, 96)).coefficients


def projection_error(f, n):
    """||(A_n^+ A - I) f|| = l2 tail of the Legendre coefficients from n on,
    up to ``_reference_coefficients``' cut."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.linalg.norm(_reference_coefficients(f, n)[n:]))


def sobolev_norm(f, kind="H1"):
    """The norm a SobolevBudget names, H1, H1-seminorm or H2; each squared L2 norm by ``forward_moments``."""
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    if f.derivative is None:
        raise ValueError(f"{f.label}: derivative required for {kind} norm")
    if kind == "H2" and f.second_derivative is None:
        raise ValueError(f"{f.label}: second derivative required for H2 norm")

    def _l2sq(g):  # moment 1 of g^2, on f's breakpoints
        g_sq = TestFunction(lambda t: np.asarray(g(t), dtype=float) ** 2, breakpoints=f.breakpoints)
        return forward_moments(g_sq, 1).values[0]

    parts = {"H1-seminorm": (f.derivative,), "H1": (f.value, f.derivative),
             "H2": (f.value, f.derivative, f.second_derivative)}[kind]
    return sqrt(sum(map(_l2sq, parts)))


def h1_rate_check(f, budget, n_list):
    """Projection-error decay against the smoothness-rate bound.

    Rows (n, error, bound) with bound = E/(2n) for H1 budgets (full norm
    or seminorm) and E/(2 sqrt(2) n^2) for H2; the errors are tails of
    ``_reference_coefficients`` at the largest level.  The norm the budget
    names is measured and checked against E before the run; an empty level
    list or a level below 1 is refused first.
    """
    if not n_list or min(n_list) < 1:
        raise ValueError("levels must be a nonempty list of n >= 1")
    measured = sobolev_norm(f, budget.kind)
    if measured > budget.E * (1 + 1e-9):
        raise ValueError(f"budget violated: measured {budget.kind} norm "
                         f"{measured:.6g} exceeds E={budget.E:.6g}")
    coeffs = _reference_coefficients(f, max(n_list))
    rows = []
    for n in n_list:
        err = float(np.linalg.norm(coeffs[n:]))
        if budget.kind == "H2":
            bound = budget.E / (2 * sqrt(2) * n * n)
        else:
            bound = budget.E / (2 * n)
        rows.append({"n": n, "error": err, "bound": bound, "ok": err <= bound})
    return rows
