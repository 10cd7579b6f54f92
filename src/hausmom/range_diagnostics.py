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

import numbers
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import comb, factorial, fsum, isfinite, prod
from operator import index, mul, sub

from ._lazy import numpy as np
from .exact_core import _LN2, RationalMatrix, _Record, _common_den, _picard_sum, cholesky_factor_L
from .legendre import _frozen


class HausdorffStats(_Record):
    """One level of the forward-difference range criterion: ``lam`` holds lambda_{N,m},
    m = 0..N; ``criterion_value`` is (N+1) sum of lambda^2, a Fraction in exact mode; and
    ``picard_partial`` is ||P_{N+1} Linv y||^2 over the same data window."""

    __slots__ = ("N", "lam", "criterion_value", "picard_partial")

    def __init__(self, N, lam, criterion_value, picard_partial):
        self._bind(N, lam, criterion_value, picard_partial)


class StableFamilyMember(_Record):
    """g_alpha(t) = (1-t)^alpha with the Taylor coefficients c, A* c = g_alpha, and norms."""

    __slots__ = ("alpha", "coeffs", "l2_function_norm_sq", "hardy_norm_sq")

    def __init__(self, alpha, coeffs, l2_function_norm_sq, hardy_norm_sq):
        self._bind(alpha, _frozen(coeffs), l2_function_norm_sq, hardy_norm_sq)


def _window(y, stop, start=0):
    """Moments start..stop-1 of y, read once: ``(ints, den)`` over one
    common denominator when every moment of y is exact (an int, numpy
    integer, Fraction or Decimal, each read as written by ``_common_den``,
    which refuses a NaN or infinite Decimal), else ``(floats, None)``,
    refused unless all finite."""
    values = y.values[start:stop]
    if all(isinstance(v, (numbers.Rational, Decimal)) for v in y.values):
        return _common_den(values)
    floats = [float(v) for v in values]
    if not all(map(isfinite, floats)):
        raise ValueError("moments must be finite")
    return floats, None


def _diagonal(values):
    return RationalMatrix([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])


# Row k holds (-1)^l C(k, l), l = 0..k.  It grows by rebinding to a longer
# tuple, as exact_core._M_ROWS does, so a tuple a reader holds never changes.
_STENCILS = ((1,),)


def _stencil(n):
    """(-1)^l C(n, l), l = 0..n, as a tuple: the n-th forward difference of
    float data, and row N-1-n of R_N.

    Rows come from one table grown by the signed Pascal rule
    row_{k+1}[l] = row_k[l] - row_k[l-1] to the largest n requested so far,
    so each row is computed once per process.  Its footprint: |C(k, l)| <=
    |M_{k+1,l+1}| = C(k, l) C(k+l, l) entry by entry, and a float
    ``hausdorff_criterion`` at level n grows ``exact_core._M_ROWS`` to n + 1
    rows through its Picard sum, so the table never holds more int bits
    than the triangle of M that the same call already keeps.
    """
    global _STENCILS
    rows = _STENCILS
    while len(rows) <= n:
        last = rows[-1]
        rows += (tuple(map(sub, last + (0,), (0,) + last)),)
    _STENCILS = rows
    return rows[n]


def _last_differences(a):
    """mu_{len(a)-1-k,k} of the window a, k = 0..len(a)-1, in a's units: the
    last entry of row k of a's int difference table, row k + 1 holding the
    differences u - v of neighbours in row k."""
    mu = []
    while a:
        mu.append(a[-1])
        a = [u - v for u, v in zip(a, a[1:])]
    return mu


def forward_differences(y, m, n):
    """mu_{m,n} = sum_l (-1)^l C(n,l) y_{m+l+1}; exact for rational data.

    Rational data give entry n of the difference table of moments
    m+1..m+n+1 over their common denominator, O(n^2) int subtractions.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if m + n + 1 > y.n:
        raise ValueError(f"mu_({m},{n}) needs {m + n + 1} moments, have {y.n}")
    a, den = _window(y, m + n + 1, m)
    if den is not None:
        return Fraction(_last_differences(a)[n], den)
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
        xs = [comb(N, m) * x for m, x in enumerate(reversed(_last_differences(window)))]
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
    return RationalMatrix([(0,) * i + _stencil(N - 1 - i) for i in range(N)])


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


def stable_family(alpha, J):
    """The first J Taylor coefficients of (1-t)^alpha, with its norms.

    coeffs holds c_j = C(alpha, j-1) (-1)^(j-1) for j <= J, all positive:
    A* c = sum_j c_j t^(j-1) = (1-t)^alpha.  These are not the moments of
    (1-t)^alpha, which are B(j, alpha+1), with y_1 = 1/(1+alpha).
    hardy_norm_sq is the sum of c_j^2 over all j, Gamma(1+2 alpha) /
    Gamma(1+alpha)^2 by Gauss's summation of 2F1(-alpha, -alpha; 1; 1), from
    alpha read exactly: a product and Stirling tail rounded once (``_hardy_norm_sq``).
    J must be an integer.
    """
    if not -0.5 < alpha < 0:
        raise ValueError("alpha must lie strictly inside (-1/2, 0)")
    J = index(J)
    if J < 1:
        raise ValueError("J must be >= 1")
    k = np.arange(1, J, dtype=float)
    # |C(alpha,k)| via the ratio |c_k/c_{k-1}| = (k-1-alpha)/k, c_0 = 1
    coeffs = np.concatenate(([1.0], np.cumprod((k - 1.0 - alpha) / k)))
    (p,), q = _common_den([alpha])
    return StableFamilyMember(
        alpha=float(alpha),
        coeffs=coeffs,
        l2_function_norm_sq=1.0 / (1.0 + 2.0 * alpha),
        hardy_norm_sq=_hardy_norm_sq(Fraction(p, q)),
    )


@cache
def _stirling_tail():
    """``_hardy_norm_sq``'s S as sum_i d_i a^i, built at the first call: the d_i."""
    b = [Fraction(1)]
    for m in range(1, 22):  # sum_{j<=m} C(m+1, j) B_j = 0, so B_1 = -1/2
        b.append(-sum(comb(m + 1, j) * x for j, x in enumerate(b)) / (m + 1))
    d = [0] * 22
    for k, j in ((k, j) for k in range(2, 22) for j in range(k - 1)):
        d[k - j] += (-1) ** k * comb(k, j) * b[j] * ((1 << (k - j)) - 2) / (k * (k - 1) * 21 ** (k - 1))
    return tuple(d)


def _hardy_norm_sq(a):
    """Gamma(1+2a) / Gamma(1+a)^2 for a Fraction a in (-1/2, 0), rounded once: the Weierstrass
    product prod_k (k+a)^2 / (k (k+2a)), k >= 1, its first 20 factors exactly, times the rest,
    Gamma(z) Gamma(z+2a) / Gamma(z+a)^2 at z = 21, which is exp(S).  In the shifted Stirling
    series of ln Gamma(z+h) (DLMF 5.11.8) the ln z, z and ln 2pi terms cancel, leaving
    S = sum_k (-1)^k [B_k(0) + B_k(2a) - 2 B_k(a)] / (k (k-1) z^(k-1)), k = 2..21, with
    B_k(x) = sum_j C(k,j) B_j x^(k-j): S < 0.013, within 2^-86; exp(S) by Taylor's series."""
    head = prod((k + a) ** 2 / (k * (k + 2 * a)) for k in range(1, 21))
    s = Fraction(round(sum(d * a ** i for i, d in enumerate(_stirling_tail())) * 2 ** 200), 2 ** 200)
    return float(head * sum(s ** j / factorial(j) for j in range(16)))


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
    ln_q = k * Fraction(_LN2 + 1, 1 << 128) + (x - 1 / x) / 2  # ln 2 rounded up
    ga_min = Fraction(q * q, q * q + 1) - 4 * ln_q * r / ((1 - r) ** 2 * (1 - r * r))
    if ga_min <= 0:
        raise ValueError(f"the rows of G_A are not diagonally dominant at q = {q}")
    return ga_min / gx_max
