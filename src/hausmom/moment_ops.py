"""The forward moment map, its truncation, adjoint and pseudoinverse.

The truncated pseudoinverse is applied through the exact inverse factor,
an integer ``RationalMatrix`` (int rows over denominator 1): its inner
products with the data, taken exactly as ``Fraction``, are rounded to
doubles only once at the output.  That keeps the reconstruction usable
where a floating Cholesky of the Hilbert segment fails (around n = 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from .exact_core import cholesky_factor_L, inverse_factor_Linv
from .legendre import LegendreExpansion, project

__all__ = [
    "MomentSequence",
    "SobolevBudget",
    "forward_moments",
    "exact_polynomial_moments",
    "forward_from_expansion",
    "adjoint_apply",
    "pseudoinverse",
    "pseudoinverse_exact",
    "reconstruction_norm_sq_exact",
    "projection_error",
    "h1_rate_check",
    "sobolev_norm",
]


@dataclass(frozen=True)
class MomentSequence:
    """First n moments y_j = integral of t^(j-1) x(t); zeros beyond n."""

    values: tuple
    n: int

    @classmethod
    def from_values(cls, values):
        vals = tuple(values)
        return cls(vals, len(vals))

    def to_array(self):
        return np.array([float(v) for v in self.values])

    def to_fractions(self):
        """Exact values: int and Fraction kept, anything else via float."""
        return [v if isinstance(v, (int, Fraction)) else Fraction(float(v)) for v in self.values]


@dataclass(frozen=True)
class SobolevBudget:
    """A priori smoothness bound: E bounds the norm selected by kind."""

    E: float
    kind: str = "H1"  # H1 | H1-seminorm | W1inf | H2

    def __post_init__(self):
        if self.E <= 0:
            raise ValueError("E must be positive")
        if self.kind not in ("H1", "H1-seminorm", "W1inf", "H2"):
            raise ValueError(f"unknown budget kind {self.kind!r}")


def forward_moments(f, n, tol=1e-12):
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.poly_coeffs is not None:
        exact = exact_polynomial_moments(f.poly_coeffs, n)
        return MomentSequence.from_values([float(v) for v in exact.values])
    pts = sorted(set(f.breakpoints)) or None
    vals = []
    for j in range(1, n + 1):
        v, err = quad(lambda t: f(t) * t ** (j - 1), 0.0, 1.0,
                      epsabs=tol, epsrel=tol, limit=200, points=pts)
        if err > 10 * max(tol, abs(v) * tol) + 1e-15:
            raise RuntimeError(f"quadrature for moment {j} did not converge (err={err:.2e})")
        vals.append(v)
    return MomentSequence.from_values(vals)


def exact_polynomial_moments(coeffs, n):
    """Moments of sum c_k t^k: y_j = sum c_k / (k + j), exact."""
    cs = [Fraction(c) for c in coeffs]
    vals = [sum(c / (k + j) for k, c in enumerate(cs)) for j in range(1, n + 1)]
    return MomentSequence.from_values(vals)


def forward_from_expansion(e, n):
    """First n moments of the expansion via the exact factored Ln.

    y = Ln lambda = Ltilde diag(sqrt(2k-1)) lambda; the rational products
    are exact, the irrational column weights enter once per term at 40
    digits, and the sum is rounded to a double at the end.
    """
    lfac = cholesky_factor_L(n)
    m = min(e.m, n)
    lam = [Fraction(float(c)) for c in e.coefficients[:m]]
    part = lfac.rational_part
    out = []
    with mp.workdps(40):
        roots = [mp.sqrt(w) for w in lfac.diag_weights]
        for j in range(n):
            terms = [part[j, k] * lam[k] for k in range(min(j + 1, m))]
            out.append(float(mp.fsum(
                mp.mpf(t.numerator) / mp.mpf(t.denominator) * roots[k]
                for k, t in enumerate(terms) if t != 0
            )))
    return MomentSequence.from_values(out)


def adjoint_apply(y, t):
    """[A* y](t) = sum_j y_j t^(j-1), by Horner."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > 1):
        raise ValueError("t must lie in [0, 1]")
    out = np.zeros_like(t_arr)
    for v in y.to_array()[::-1]:
        out = out * t_arr + v
    return out if out.shape else float(out)


def _exact_inner_products(y):
    """Inner products M y (exact int or Fraction) for Ln^{-1} = diag(sqrt(w)) M."""
    n = y.n
    m = inverse_factor_Linv(n).rational_part
    yy = y.to_fractions()
    return [sum(m[i, j] * yy[j] for j in range(i + 1)) for i in range(n)]


def pseudoinverse(y):
    """Minimum-norm solution of the truncated problem: lambda = Ln^{-1} y.

    The rational inner products are exact; rounding happens once when each
    coefficient is emitted.
    """
    inners = _exact_inner_products(y)
    return LegendreExpansion([float(v) * sqrt(2 * i + 1) for i, v in enumerate(inners)])


def pseudoinverse_exact(y):
    """(inner products, weights): lambda_i = sqrt(w_i) * inner_i, all exact."""
    inners = _exact_inner_products(y)
    return inners, tuple(2 * i + 1 for i in range(y.n))


def reconstruction_norm_sq_exact(y):
    """||A_n^+ P_n y||^2 = sum w_i inner_i^2, exact (int or Fraction)."""
    inners, weights = pseudoinverse_exact(y)
    return sum(w * v * v for w, v in zip(weights, inners))


def projection_error(f, n, i_max=None, tail_tol=None):
    """||(A_n^+ A - I) f|| = l2 tail of the Legendre coefficients from n on.

    The tail is truncated at i_max (default max(4n, 64)); the magnitude of
    the last computed coefficient serves as the tail proxy and trips
    ``tail_tol`` when the decay is too slow to trust the truncation.
    """
    i_max = i_max or max(4 * n, 64)
    e = project(f, i_max, tail_tol=tail_tol)
    return float(np.linalg.norm(e.coefficients[n:]))


def sobolev_norm(f, kind="H1", grid=20001):
    """Sobolev norms by quadrature; W1inf by dense sampling on `grid` points."""
    pts = sorted(set(f.breakpoints)) or None

    def _l2sq(g):
        v, _ = quad(lambda t: np.asarray(g(t), dtype=float) ** 2, 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200, points=pts)
        return v

    if kind == "L2":
        return sqrt(_l2sq(f.value))
    if f.derivative is None:
        raise ValueError(f"{f.label}: derivative required for {kind} norm")
    if kind == "H1-seminorm":
        return sqrt(_l2sq(f.derivative))
    if kind == "H1":
        return sqrt(_l2sq(f.value) + _l2sq(f.derivative))
    if kind == "W1inf":
        t = np.linspace(0.0, 1.0, grid)
        return float(np.max(np.abs(np.asarray(f.derivative(t)))))
    if kind == "H2":
        if f.second_derivative is None:
            raise ValueError(f"{f.label}: second derivative required for H2 norm")
        return sqrt(_l2sq(f.value) + _l2sq(f.derivative) + _l2sq(f.second_derivative))
    raise ValueError(f"unknown norm kind {kind!r}")


def h1_rate_check(f, budget, n_list, i_max=None):
    """Projection-error decay against the smoothness-rate bound.

    Rows (n, error, bound) with bound = E/(2n) for H1 budgets and
    E/(2 sqrt(2) n^2) for H2.  The measured norm is checked against the
    budget before the run.
    """
    if budget.kind in ("H1", "H1-seminorm"):
        measured = sobolev_norm(f, "H1")
    elif budget.kind == "H2":
        measured = sobolev_norm(f, "H2")
    else:
        raise ValueError("rate bounds exist for H1/H2 budgets only")
    if measured > budget.E * (1 + 1e-9):
        raise ValueError(f"budget violated: measured {budget.kind}-type norm "
                         f"{measured:.6g} exceeds E={budget.E:.6g}")
    i_cap = i_max or max(4 * max(n_list), 96)
    coeffs = project(f, i_cap).coefficients
    rows = []
    for n in n_list:
        err = float(np.linalg.norm(coeffs[n:]))
        if budget.kind == "H2":
            bound = budget.E / (2 * sqrt(2) * n * n)
        else:
            bound = budget.E / (2 * n)
        rows.append({"n": n, "error": err, "bound": bound, "ok": err <= bound})
    return rows
