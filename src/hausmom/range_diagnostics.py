"""Range tests for moment sequences.

Two characterizations of the range of the moment map are implemented side
by side: the classical forward-difference criterion (bounded weighted sums
of the lambda_{N,m}) and the Picard-type condition through the inverse
triangular factor.  The bridge between them is the matrix identity
V_N^T V_N = T_N, which is verified here in exact rational arithmetic.

The (1-t)^alpha family lies in the stable part of the range: it is A* c for
positive, slowly decaying Taylor coefficients c (not its moments), whose
Hardy norm stays bounded as long as alpha stays away from -1/2.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import comb, fsum, isfinite
from operator import index, mul

from ._lazy import numpy as np
from .exact_core import RationalMatrix, _common_den, _picard_sum, cholesky_factor_L


@dataclass(frozen=True)
class HausdorffStats:
    """One level of the forward-difference range criterion."""

    N: int
    lam: tuple  # lambda_{N,m}, m = 0..N
    criterion_value: object  # (N+1) sum of lambda^2; Fraction in exact mode
    picard_partial: object  # ||P_{N+1} Linv y||^2 over the same data window


@dataclass(frozen=True)
class StableFamilyMember:
    """g_alpha(t) = (1-t)^alpha with the Taylor coefficients c, A* c = g_alpha, and norms."""

    alpha: float
    coeffs: np.ndarray
    l2_function_norm_sq: float
    hardy_norm_sq: float


def _window(y, stop, start=0):
    """Moments start..stop-1 of y, read once: ``(ints, den)`` over one
    common denominator when every moment of y is rational (an int, numpy
    integer or Fraction), else ``(floats, None)``, refused unless all
    finite."""
    values = y.values[start:stop]
    if all(isinstance(v, numbers.Rational) for v in y.values):
        return _common_den(values)
    floats = [float(v) for v in values]
    if not all(map(isfinite, floats)):
        raise ValueError("moments must be finite")
    return floats, None


def _diagonal(values):
    return RationalMatrix([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])


def _stencil(n):
    """(-1)^l C(n, l), l = 0..n: the n-th forward difference, and row N-1-n of R_N."""
    return [(-1) ** l * comb(n, l) for l in range(n + 1)]


def forward_differences(y, m, n):
    """mu_{m,n} = sum_l (-1)^l C(n,l) y_{m+l+1}; exact for rational data."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if m + n + 1 > y.n:
        raise ValueError(f"mu_({m},{n}) needs {m + n + 1} moments, have {y.n}")
    a, den = _window(y, m + n + 1, m)
    if den is not None:
        return Fraction(sum(map(mul, _stencil(n), a)), den)
    # the alternating sum loses ~n bits naively; fsum keeps one rounding
    return fsum(map(mul, _stencil(n), a))


def hausdorff_criterion(y, N):
    """lambda_{N,m} = C(N,m) mu_{m,N-m} and the level-N criterion value.

    For rational data lambda = diag(C(N,m)) R_{N+1} y (first N+1 moments)
    and the value (N+1) sum lambda^2 = ||D_{N+1} R_{N+1} y||^2, exact
    Fractions: with the data over one common denominator, mu_{m,N-m} is
    the last entry of row N-m of the numerators' int difference table.
    Float data take compensated sums and must be finite.  The Picard
    partial sum over the same N+1 entries is reported alongside for
    comparison.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if N + 1 > y.n:
        raise ValueError(f"level {N} needs {N + 1} moments, have {y.n}")
    window, den = _window(y, N + 1)
    if den is not None:
        a, mu = window, []  # mu_{N-k,k}, k = 0..N: the last entry of row k of the table, a
        while a:
            mu.append(a[-1])
            a = [u - v for u, v in zip(a, a[1:])]
        xs = [comb(N, m) * x for m, x in enumerate(reversed(mu))]
        lam = tuple(Fraction(x, den) for x in xs)
        crit = Fraction((N + 1) * sum(x * x for x in xs), den * den)
    else:
        # the alternating sums lose ~N bits naively; fsum keeps one rounding
        lam = tuple(comb(N, m) * fsum(map(mul, _stencil(N - m), window[m:])) for m in range(N + 1))
        crit = (N + 1) * fsum(v * v for v in lam)
    picard = _picard_sum(window, den)
    return HausdorffStats(N=N, lam=lam, criterion_value=crit, picard_partial=picard)


def build_RN(N):
    """Upper-triangular difference matrix, (R_N)_{i,j} = (-1)^(j-i) C(N-i, j-i).

    Row i (from 0) is the stencil of order N-1-i from column i on, so
    (R_N y)_i = mu_{i,N-1-i} and D_N R_N y = sqrt(N) lambda_{N-1}.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return RationalMatrix([[0] * i + _stencil(N - 1 - i) for i in range(N)])


def build_DN(N):
    """Diagonal sqrt(N) diag(C(N-1,i-1)), returned as (weight N, integer diagonal).

    The sqrt(N) stays symbolic so that squared identities remain rational.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return N, _diagonal([comb(N - 1, i) for i in range(N)])


def tn_diagonal(N):
    """Exact diagonal of T_N: t_k = C(N-1,k-1)/C(N-1+k,k-1)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return [Fraction(comb(N - 1, k - 1), comb(N - 1 + k, k - 1)) for k in range(1, N + 1)]


def verify_TN_identity(N):
    """Check V_N^T V_N = T_N exactly, with V_N = D_N R_N L_N.

    Writing L_N = Ltilde diag(sqrt(2j-1)) and D_N = sqrt(N) diag(C(N-1,i-1)),
    the identity is equivalent to the fully rational statement

        W^T W = diag(t_k / (N (2k-1))),  W = diag(C) R_N Ltilde,

    which is what gets evaluated; returns (holds, residual matrix).
    """
    weight, dmat = build_DN(N)
    w = dmat @ build_RN(N) @ cholesky_factor_L(N).rational_part
    target = _diagonal([t / (weight * (2 * k + 1)) for k, t in enumerate(tn_diagonal(N))])
    residual = w.transpose() @ w - target
    return residual.is_zero(), residual


def picard_partial_sums(y, N_list):
    """Rows (N, ||P_N Linv y||^2); monotone non-decreasing in N."""
    if not N_list:
        raise ValueError("N_list must not be empty")
    if min(N_list) < 1:
        raise ValueError("levels must be >= 1")
    if max(N_list) > y.n:
        raise ValueError("largest level exceeds the available moments")
    a, den = _window(y, max(N_list))
    return [{"N": N, "partial": _picard_sum(a[:N], den)} for N in N_list]


def stable_family(alpha, J):
    """The first J Taylor coefficients of (1-t)^alpha, with its norms.

    coeffs holds c_j = C(alpha, j-1) (-1)^(j-1) for j <= J, all positive:
    A* c = sum_j c_j t^(j-1) = (1-t)^alpha.  These are not the moments of
    (1-t)^alpha, which are B(j, alpha+1), with y_1 = 1/(1+alpha).
    hardy_norm_sq is the sum of c_j^2 over all j, Gamma(1+2 alpha) /
    Gamma(1+alpha)^2 by Gauss's summation of 2F1(-alpha, -alpha; 1; 1),
    evaluated at 80 bits and rounded once.  J must be an integer.
    """
    if not -0.5 < alpha < 0:
        raise ValueError("alpha must lie strictly inside (-1/2, 0)")
    J = index(J)
    if J < 1:
        raise ValueError("J must be >= 1")
    import mpmath as mp
    k = np.arange(1, J, dtype=float)
    # |C(alpha,k)| via the ratio |c_k/c_{k-1}| = (k-1-alpha)/k, c_0 = 1
    coeffs = np.concatenate(([1.0], np.cumprod((k - 1.0 - alpha) / k)))
    with mp.workprec(80):
        a = mp.mpf(alpha)
        hardy = float(mp.gamma(1 + 2 * a) / mp.gamma(1 + a) ** 2)
    return StableFamilyMember(
        alpha=float(alpha),
        coeffs=coeffs,
        l2_function_norm_sq=1.0 / (1.0 + 2.0 * alpha),
        hardy_norm_sq=hardy,
    )


_LN2_UPPER = Fraction(6931472, 10**7)  # ln 2 = 0.69314718..., rounded up


def lacunary_stability_bound(q):
    """Exact lower bound on ||Ax||^2 / ||x||^2 over the closed span of the
    witnesses x_i = sqrt(i) t^i, i = q^(2a), a >= 1 (q an integer >= 2).

    A is not compact: the unit vectors u_i = sqrt(2i+1) t^i tend weakly to
    0, yet ||A u_i||^2 = (2i+1) psi'(i+1) > (2i+1)/(i+1) >= 3/2, with psi'
    the trigamma function.  Its range is not closed either, yet on this
    infinite-dimensional subspace A has a bounded inverse.  With
    sqrt(ik) = q^(a+b) the Gram matrices are

        G_x: <x_i, x_k> = sqrt(ik)/(i+k+1),
        G_A: <A x_i, A x_k> = sqrt(ik) (H_k - H_i)/(k - i) for i < k,
             ||A x_i||^2 = i psi'(i+1),

    H the harmonic numbers.  Gershgorin bounds both, with r = 1/q: the
    diagonal of G_x is below 1/2 and its entry at distance d below r^d, so
    lambda_max(G_x) <= 1/2 + 2/(q-1); the diagonal of G_A exceeds
    q^2/(q^2+1), and as H_k - H_i <= ln(k/i) = 2d ln q its entry at distance
    d is at most 2d ln q r^d / (1 - r^2), so its off-diagonal row sum is at
    most 4 ln q r / ((1 - r)^2 (1 - r^2)).  Writing q = 2^k x with
    1 <= x < 2, ln q <= k ln 2 + (x - 1/x)/2, with a rational upper bound
    on ln 2.  The result is lambda_min(G_A) / lambda_max(G_x) as a
    Fraction: 1.3755 at q = 64.  A q whose G_A rows are not diagonally
    dominant (q <= 12) is refused.
    """
    q = index(q)
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    r = Fraction(1, q)
    gx_max = Fraction(1, 2) + 2 * r / (1 - r)
    k = q.bit_length() - 1
    x = Fraction(q, 1 << k)
    ln_q = k * _LN2_UPPER + (x - 1 / x) / 2
    ga_min = Fraction(q * q, q * q + 1) - 4 * ln_q * r / ((1 - r) ** 2 * (1 - r * r))
    if ga_min <= 0:
        raise ValueError(f"the rows of G_A are not diagonally dominant at q = {q}")
    return ga_min / gx_max
