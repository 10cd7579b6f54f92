"""Independent reference implementations that the tests compare the library against.

None of these is used by the library: each recomputes something the
library does another way (a closed form, an exact product, an analytic
derivative) so that the two can be checked against each other.
"""

import numbers
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np

from hausmom.exact_core import FactoredTriangular, RationalMatrix


def back_substitution_inverse(lfac):
    """Invert a scale-columns factored triangular by back substitution.

    Returns a scale-rows factored triangular with the same weight layout
    as :func:`hausmom.exact_core.inverse_factor_Linv`; the independent
    oracle for the closed-form inverse.  Writing Ln = Ltilde S with
    S = diag(sqrt(w)), Ln^{-1} = S^{-1} Ltilde^{-1} = S (S^{-2} Ltilde^{-1});
    the rational part returned is diag(1/w) @ Ltilde^{-1}.
    """
    if lfac.scale_rows:
        raise ValueError("expected a scale-columns factor")
    n = lfac.n
    a = lfac.rational_part.entries
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = Fraction(1) / a[j][j]
        for i in range(j + 1, n):
            s = sum(a[i][k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -s / a[i][i]
    w = lfac.diag_weights
    part = [[inv[i][j] / w[i] for j in range(n)] for i in range(n)]
    return FactoredTriangular(RationalMatrix(part), scale_rows=True)


def inverse_factor_rows(n):
    """Rows of M in Ln^{-1} = diag(sqrt(2i-1)) M, entry by entry from the
    closed form (-1)^(i+j) C(i-1,j-1) C(i+j-2,j-1), zero above the diagonal."""
    return [
        [(-1) ** (i + j) * comb(i - 1, j - 1) * comb(i + j - 2, j - 1) if j <= i else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def binomial(a, k):
    """Generalized binomial coefficient C(a, k) via the running product.

    Exact Fraction for integer or rational a; mpmath float (at the current
    working precision) for real a.  The product form avoids the Gamma-pole
    bookkeeping that quotients of Gamma values would need for a in (-1, 0).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    kind = Fraction if isinstance(a, (numbers.Integral, Fraction)) else mp.mpf
    out = kind(1)
    a = kind(a)
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def check_derivative(f, rng=None, npoints=20, h=1e-6, rtol=1e-4):
    """Finite-difference consistency check of f.derivative at interior points."""
    if f.derivative is None:
        raise ValueError(f"{f.label}: no derivative available")
    rng = rng or np.random.default_rng(0)
    bad = set(f.breakpoints)
    pts = [t for t in rng.uniform(0.05, 0.95, npoints) if all(abs(t - b) > 10 * h for b in bad)]
    t = np.array(pts)
    fd = (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2 * h)
    return np.allclose(fd, np.asarray(f.derivative(t)), rtol=rtol, atol=1e-8)


def quad_moments(f, n):
    """Moments 1..n of f by one scipy quad per moment, each evaluating f
    afresh at its own nodes, with forward_moments' tolerances and limit."""
    from scipy.integrate import quad
    tol = 1e-12
    pts = sorted(set(f.breakpoints)) or None
    return [quad(lambda t: f(t) * t ** (j - 1), 0.0, 1.0,
                 epsabs=tol, epsrel=tol, limit=200, points=pts)[0]
            for j in range(1, n + 1)]
