"""Independent reference implementations that the tests compare the library against.

None of these is used by the library: each recomputes something the
library does another way (a closed form, an exact product, an analytic
derivative) so that the two can be checked against each other.
"""

import numbers
from fractions import Fraction
from math import comb, factorial, fsum, isqrt, log, sqrt
from operator import mul

import mpmath as mp
import numpy as np

from hausmom.exact_core import (
    FactoredTriangular,
    RationalMatrix,
    _GUARD_BITS,
    _common_den,
    _power_iteration,
    cholesky_factor_L,
    hilbert_matrix,
    inverse_factor_Linv,
    spectral_norm,
)
from hausmom.moment_ops import MomentSequence
from hausmom.range_diagnostics import build_DN, build_RN


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


def matrix_inner_products(values):
    """M y for Ln^{-1} = diag(sqrt(2i-1)) M as one RationalMatrix product,
    returned as ``(ints, den)`` in lowest terms; int, Fraction and float
    values enter exactly, any other real via float."""
    col = [[v if isinstance(v, (int, Fraction, float)) else float(v)] for v in values]
    p = inverse_factor_Linv(len(col)).rational_part @ RationalMatrix(col)
    return [x for (x,) in p.num], p.den


def exact_mpf(x):
    """A dyadic Fraction m / 2^k, such as ``spectral_norm``'s value, as the
    exact mpmath float, whatever the working precision."""
    m, q = x.as_integer_ratio()
    assert q & (q - 1) == 0, x
    with mp.workprec(max(53, m.bit_length())):
        return mp.mpf((m, 1 - q.bit_length()))


def all_ones_spectral_norm(m, precision):
    """``spectral_norm(m, precision)`` by a power iteration from the
    all-ones vector that computes every product H v, the first included.
    It keeps the library's fixed-point scale 2^(precision + 32) and its
    stopping rule (the Rayleigh quotient l moves by less than 1e-20 l and
    ||H v - l v||^2 < (1e-20 l ||v||)^2, decided on Fractions), and rounds
    l = a/b as ``mpf(a) / (b den)`` at ``precision`` bits, which the
    library's int rounding reproduces, so its value should agree to the
    bit."""
    shift = precision + 32
    tol = Fraction(1e-20)
    v, prev = [1 << shift] * m.rows, None
    for _ in range(1000):
        w = [sum(a * b for a, b in zip(row, v)) for row in m.num]
        vv, vw, ww = (sum(a * b for a, b in zip(x, y)) for x, y in ((v, v), (v, w), (w, w)))
        lam = Fraction(vw, vv)
        if m.rows == 1 or (prev is not None and lam > 0 and abs(lam - prev) < tol * lam
                           and Fraction(ww, vv) - lam * lam < (tol * lam) ** 2):
            with mp.workprec(precision):
                return mp.mpf(lam.numerator) / (lam.denominator * m.den)
        nw = isqrt(ww)
        v, prev = [(y << shift) // nw for y in w], lam
    raise AssertionError("no convergence in 1000 steps")


def factored_gram_norm(n, precision):
    """lambda_max of Linv Linv^T by power iteration on the factored form.

    Linv = S M is the level-``n`` inverse factor, M read from
    ``inverse_factor_Linv(n)``; the map is z -> S M M^T S z,
    S = diag(sqrt(2i-1)) as isqrt((2i-1) << 2 * shift), from the all-ones
    vector.  Linv Linv^T has the eigenvalues of H_n^-1 = Linv^T Linv but
    is another matrix, formed another way: it reads M only, never the Gram
    matrix.  Tolerance 10^-(precision // 8) leaves an error of about
    10^-(precision // 4).  The value, an int pair from the library's
    kernel, is returned as an mpmath float at ``precision`` bits.
    """
    num = inverse_factor_Linv(n).rational_part.num
    shift = precision + _GUARD_BITS
    m_rows = [row[: i + 1] for i, row in enumerate(num)]
    m_cols = [col[j:] for j, col in enumerate(zip(*num))]
    s = [isqrt((2 * i + 1) << (2 * shift)) for i in range(n)]

    def matvec(z):
        u = [(si * zi) >> shift for si, zi in zip(s, z)]
        # w = M^T u, then S M w
        w = [sum(map(mul, col, u[j:])) for j, col in enumerate(m_cols)]
        return [(si * sum(map(mul, row, w))) >> shift for si, row in zip(s, m_rows)]

    value = _power_iteration(matvec, [1 << shift] * n, precision, Fraction(10) ** -(precision // 8))[0]
    with mp.workprec(precision):
        return mp.mpf(value)


def all_ones_growth_rel_errs(n_max, precision):
    """``norm_sq_rel_err`` of ``linv_growth_study(n_max, precision)`` from
    two independent computations: level i compares ``spectral_norm`` of
    the Gram product H_i^-1 = ``inverse_factor_Linv(i).gram()`` with
    :func:`factored_gram_norm` at level i.
    This reference and the study's are both accurate to about
    10^-(precision // 4), far below the value's error of about 1e-40, so
    from 256 bits on the float should be the study's to the bit."""
    rel = []
    for i in range(1, n_max + 1):
        lam = exact_mpf(spectral_norm(inverse_factor_Linv(i).gram(), precision))
        indep = factored_gram_norm(i, precision)
        rel.append(float(abs(lam - indep) / lam))
    return rel


def same(a, b):
    """Equal values of the same type, the comparison the per-entry loops are checked with:
    Fractions stay Fractions and floats match bit for bit."""
    return type(a) is type(b) and a == b and (not isinstance(a, float) or a.hex() == b.hex())


def comb_stencil(n):
    """(-1)^l C(n, l), l = 0..n, entry by entry from math.comb."""
    return [(-1) ** l * comb(n, l) for l in range(n + 1)]


def loop_forward_difference(values, m, n):
    """mu_{m,n} = sum_l (-1)^l C(n,l) y_{m+l+1} term by term: Fractions for rational data, else one fsum."""
    if all(isinstance(v, numbers.Rational) for v in values):
        return sum((-1) ** l * comb(n, l) * Fraction(values[m + l]) for l in range(n + 1))
    return fsum((-1) ** l * comb(n, l) * float(values[m + l]) for l in range(n + 1))


def loop_criterion(values, N):
    """lambda_{N,m} = C(N,m) mu_{m,N-m} and (N+1) sum lambda^2, from :func:`loop_forward_difference`."""
    lam = tuple(comb(N, m) * loop_forward_difference(values, m, N - m) for m in range(N + 1))
    if all(isinstance(v, numbers.Rational) for v in values):
        return lam, (N + 1) * sum(v * v for v in lam)
    return lam, (N + 1) * fsum(v * v for v in lam)


def forward_from_expansion(e, n):
    """The first n moments of the Legendre expansion e through the exact
    factored L_n, a route to A e that shares no code with ``forward_moments``.

    y = L_n lambda = Ltilde diag(sqrt(2k-1)) lambda, lambda read by
    ``_common_den``; the rational products are exact, the irrational column
    weights enter once per term at 40 digits, and each sum is rounded to a
    double at the end.
    """
    lfac = cholesky_factor_L(n)
    part = lfac.rational_part
    a, den = _common_den(e.coefficients[:min(e.m, n)])
    with mp.workdps(40):
        roots = [mp.sqrt(w) for w in lfac.diag_weights]
        return MomentSequence([float(mp.fsum(mp.mpf(x * c) / mp.mpf(part.den * den) * r
                                                          for x, c, r in zip(row, a, roots) if x and c))
                                           for row in part.num])


def adjoint_apply(y, t):
    """[A* y](t) = sum_j y_j t^(j-1) at one point t, by Horner on the floats of y."""
    out = 0.0
    for v in reversed(y.values):
        out = out * t + float(v)
    return out


def closed_form_RN(N):
    """Entries of R_N from the closed form (-1)^(j-i) C(N-i, j-i), zero below the diagonal."""
    return [[(-1) ** (N - i) * (-1) ** (N - j) * comb(N - i, j - i) if j >= i else 0
             for j in range(1, N + 1)] for i in range(1, N + 1)]


def matrix_criterion(values, N):
    """lambda = diag(C(N,m)) R_{N+1} y and the criterion value
    ||D_{N+1} R_{N+1} y||^2 as RationalMatrix products, for rational data."""
    weight, diag = build_DN(N + 1)
    col = diag @ (build_RN(N + 1) @ RationalMatrix([[v] for v in values[:N + 1]]))
    lam = tuple(Fraction(x, col.den) for (x,) in col.num)
    return lam, Fraction(weight * sum(x * x for (x,) in col.num), col.den ** 2)


def hilbert_polynomial_moments(coeffs, n):
    """The first n entries of H c, H the first len(c) columns of the Hilbert
    matrix H_max(n, len(c)), as one RationalMatrix product."""
    cs = tuple(coeffs) or (0,)
    h = hilbert_matrix(max(n, len(cs)))
    block = RationalMatrix([row[:len(cs)] for row in h.num], h.den)
    y = block @ RationalMatrix([[c] for c in cs])
    return [Fraction(x, y.den) for (x,) in y.num[:n]]


def loop_polynomial_moments(coeffs, n):
    """y_j = sum_k c_k / (k + j) for j = 1..n, one Fraction term at a time."""
    cs = [Fraction(c) for c in coeffs]
    return [sum((c / (k + j) for k, c in enumerate(cs)), Fraction(0)) for j in range(1, n + 1)]


def fraction_inner_products(values):
    """M y for Ln^{-1} = diag(sqrt(2i-1)) M as per-entry Fraction sums, floats taken as exact dyadics."""
    n = len(values)
    m = inverse_factor_Linv(n).rational_part
    yy = [v if isinstance(v, (int, Fraction)) else Fraction(float(v)) for v in values]
    return [sum(m[i, j] * yy[j] for j in range(i + 1)) for i in range(n)]


def float_picard_partial(values):
    """sum (2i-1) inner_i^2 with each inner product an fsum of float(M_ij) * float(y_j)."""
    vals = [float(v) for v in values]
    inners = [fsum(float(x) * v for x, v in zip(row[:i + 1], vals))
              for i, row in enumerate(inverse_factor_Linv(len(vals)).rational_part.num)]
    return fsum((2 * i + 1) * v * v for i, v in enumerate(inners))


def choi_trace_inverse_hilbert(n):
    """trace H_n^-1 as an exact int, from Choi's closed-form diagonal
    (H_n^-1)_ii = (2i-1) C(n+i-1, n-i)^2 C(2i-2, i-1)^2 (Choi, "Tricks or
    treats with the Hilbert matrix", 1983)."""
    return sum((2 * i - 1) * (comb(n + i - 1, n - i) * comb(2 * i - 2, i - 1)) ** 2 for i in range(1, n + 1))


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


def loop_choose_m(mu, p):
    """The bump order of the Hoelder counterexample by counting m up from 1
    until m > (2p+1)(1-mu)/mu - 1/2 and (1+2m) mu - (2p+1)(1-mu) >= 2 both
    hold, in the same float arithmetic: about 2(2p+1)/mu steps."""
    m = 1
    while not (m > (2 * p + 1) * (1 - mu) / mu - 0.5 and (1 + 2 * m) * mu - (2 * p + 1) * (1 - mu) >= 2):
        m += 1
    return m


def string_namespace_bump_derivative(m):
    """The m-th derivative of exp(-1/(s(1-s))) lambdified with modules="numpy",
    the string form that runs ``from numpy import *``; defined on (0, 1) only."""
    import sympy as sp

    s = sp.symbols("s")
    return sp.lambdify(s, sp.diff(sp.exp(-1 / (s * (1 - s))), s, m), modules="numpy")


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


def fresh_gauss(npts, interval):
    """numpy's Gauss-Legendre rule of npts nodes, computed afresh and mapped to interval."""
    x, w = np.polynomial.legendre.leggauss(npts)
    a, b = interval
    return (b - a) / 2 * x + (a + b) / 2, (b - a) / 2 * w


def fresh_composite(npts, breakpoints):
    """fresh_gauss on each piece between consecutive breakpoints, one
    piece at a time, concatenated in order."""
    pieces = [fresh_gauss(npts, ab) for ab in zip(breakpoints[:-1], breakpoints[1:])]
    return np.concatenate([x for x, _ in pieces]), np.concatenate([w for _, w in pieces])


def quad_moments(f, n):
    """Moments 1..n of f by one scipy quad per moment, each evaluating f
    afresh at its own nodes, with forward_moments' tolerances and limit."""
    from scipy.integrate import quad
    tol = 1e-12
    pts = sorted(set(f.breakpoints)) or None
    return [quad(lambda t: f(t) * t ** (j - 1), 0.0, 1.0,
                 epsabs=tol, epsrel=tol, limit=200, points=pts)[0]
            for j in range(1, n + 1)]


def shared_node_moments(f, n):
    """Moments 1..n of f by one integrand shared by the n quads, with the
    power passed as ``args=(j-1,)`` and f's value kept as f returns it
    (a float64), f evaluated once per node; forward_moments' per-moment
    closures over ``float(f(t))`` must give the same doubles."""
    from scipy.integrate import quad
    tol = 1e-12
    pts = sorted(set(f.breakpoints)) or None
    f_at = {}

    def integrand(t, k):
        v = f_at.get(t)
        if v is None:
            v = f_at[t] = f(t)
        return v * t ** k

    return [quad(integrand, 0.0, 1.0, args=(j - 1,), epsabs=tol, epsrel=tol, limit=200, points=pts)[0]
            for j in range(1, n + 1)]


def point_value_bound(dx_norm, delta, N):
    """The Hoelder-1/2 bound on the point-value estimate at level N.

    For x in H^1 with ||x'|| = ``dx_norm`` and data off the exact moments
    by e with ||e|| <= ``delta``: integration by parts against
    K_N(t) = t + ... + t^N gives sum_{j<=N} j y_j = N x(1) - int K_N x',
    so the bias is at most ||x'|| ||K_N|| / N with ||K_N||^2 =
    sum_{j,k<=N} 1/(j+k+1) <= (2N+1) ln 2, and by Cauchy-Schwarz the noise
    moves the estimate by at most delta sqrt(sum_{j<=N} j^2) / N.
    """
    return dx_norm * sqrt((2 * N + 1) * log(2)) / N + delta * sqrt((N + 1) * (2 * N + 1) / (6 * N))


def kernel_norm_sq(N):
    """||K_N||^2 = sum_{j,k=1..N} 1/(j+k+1) as a Fraction, one term per
    s = j + k, which min(s - 1, 2N + 1 - s) of the pairs share."""
    return sum(Fraction(min(s - 1, 2 * N + 1 - s), s + 1) for s in range(2, 2 * N + 1))


def witness_grams(exponents):
    """The Gram matrices G_x and G_A of the witnesses x_i = sqrt(i) t^i, i in
    ``exponents``, as mpmath matrices at the working precision:
    <x_i, x_k> = sqrt(ik)/(i+k+1) and <A x_i, A x_k> = sqrt(ik) sum_{j>=1}
    1/((i+j)(k+j)), which is sqrt(ik) (psi(k+1) - psi(i+1))/(k-i) for i != k
    and i psi'(i+1) for i = k."""
    n = len(exponents)
    gx, ga = mp.matrix(n), mp.matrix(n)
    for a, i in enumerate(exponents):
        for b, k in enumerate(exponents):
            s = mp.sqrt(mp.mpf(i) * k)
            gx[a, b] = s / (i + k + 1)
            ga[a, b] = s * (mp.psi(1, i + 1) if i == k else (mp.digamma(k + 1) - mp.digamma(i + 1)) / (k - i))
    return gx, ga


def witness_section_eigenvalues(exponents, dps=80):
    """The generalised eigenvalues of (G_A, G_x), ascending: mp.eigsy of
    C^-1 G_A C^-T with G_x = C C^T.  The smallest is the squared infimum of
    ||Ax|| / ||x|| over the span of the witnesses x_i, i in ``exponents``."""
    with mp.workdps(dps):
        gx, ga = witness_grams(list(exponents))
        cinv = mp.cholesky(gx) ** -1
        return sorted(mp.eigsy(cinv * ga * cinv.T, eigvals_only=True))


def abs_kink_moments(n):
    """The moments y_j = int_0^1 t^(j-1) |t - 1/2| dt, j = 1..n, as exact
    Fractions: F(1) - 2 F(1/2) for F(t) = t^(j+1)/(j+1) - t^j/(2j), the
    antiderivative of (t - 1/2) t^(j-1) that vanishes at 0."""
    h = Fraction(1, 2)
    return [Fraction(1, j + 1) - Fraction(1, 2 * j) - 2 * (h ** (j + 1) / (j + 1) - h**j / (2 * j))
            for j in range(1, n + 1)]


def abs_kink_tail_sq(n):
    """The exact squared L2 tail sum_{k>=n} lambda_k^2 of |t - 1/2| in the
    orthonormal Legendre basis sqrt(2k+1) P_k(2t-1) of [0, 1], as a Fraction:
    1/12 less the first n squares.  With x = 2t - 1, lambda_k =
    sqrt(2k+1)/2 int_0^1 x P_k(x) dx for even k (0 for odd k), and the
    integral is 1/2 at k = 0 and (-1)^(k/2+1) (k-2)! / (2^k (k/2-1)! (k/2+1)!)
    from k = 2 on."""
    def moment(k):
        if k == 0:
            return Fraction(1, 2)
        h = k // 2
        return Fraction((-1) ** (h + 1) * factorial(k - 2), 2**k * factorial(h - 1) * factorial(h + 1))

    return Fraction(1, 12) - sum(Fraction(2 * k + 1, 4) * moment(k) ** 2 for k in range(0, n, 2))


def closed_form_inverse_hilbert(n):
    """H_n^-1 as an mpmath matrix of the exact closed-form entries
    (-1)^(i+j) (i+j-1) C(n+i-1, n-j) C(n+j-1, n-i) C(i+j-2, i-1)^2."""
    return mp.matrix([[(-1) ** (i + j) * (i + j - 1) * comb(n + i - 1, n - j) * comb(n + j - 1, n - i)
                       * comb(i + j - 2, i - 1) ** 2 for j in range(1, n + 1)] for i in range(1, n + 1)])


def worst_case_total(coefficients, norm_sq, n, delta):
    """L2 error of the level-n pseudoinverse on exact moments plus the worst
    noise of norm delta, the top eigenvector of H_n^-1: the reconstruction
    is f's first n Legendre coefficients plus Linv e, with ||Linv e||^2 =
    delta^2 lambda_max(H_n^-1), orthogonal to f's tail beyond n, so the
    error is sqrt(tail_n^2 + delta^2 lambda_max).  tail_n^2 is ||f||^2 =
    ``norm_sq`` less the squares of ``coefficients[:n]``, which keeps the
    part of the tail beyond the given coefficients; lambda_max is the
    largest of mp.eigsy's eigenvalues at 20 digits."""
    with mp.workdps(20):
        lam = max(mp.eigsy(closed_form_inverse_hilbert(n), eigvals_only=True))
    return sqrt(norm_sq - fsum(c * c for c in coefficients[:n]) + delta**2 * float(lam))
