"""Exact rational kernels for the Hilbert matrix and its triangular factors.

Everything in this module is exact: matrix entries are ``int`` where
they are integers (the inverse factor and the inverse Hilbert segment)
and ``fractions.Fraction`` otherwise, and the irrational square-root
factors of the triangular operators are never materialized.  A factored
triangular matrix keeps its integer weights ``2k-1`` separate from the
rational part, so all product identities (Cholesky, inversion, Gram) can
be verified with zero residual even where the condition number grows
like exp(3.5 n).

Only ``spectral_norm`` leaves the rational world: it runs power iteration
on the exact integer-scaled matrix with the vector in fixed point, Python
ints carrying a configurable precision (default 256 bits), and returns an
mpmath float.  That precision is required because the entries of the
inverse Hilbert matrix grow roughly like exp(3.5 n) and double precision
is useless long before n = 65.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm
from operator import mul

import mpmath as mp
import numpy as np

# Fixed-point vectors in the power iterations carry this many bits beyond
# the requested precision.
_GUARD_BITS = 32


class SpectralNormError(RuntimeError):
    """Power iteration failed to certify the requested tolerance."""

    def __init__(self, message, last_estimate=None, iterations=0):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.iterations = iterations


class RationalMatrix:
    """Dense matrix with exact entries, each an ``int`` or a ``Fraction``.

    ``int`` entries stay ``int``, so integer matrices multiply in native
    integer arithmetic; anything else is converted exactly by ``Fraction``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [[x if type(x) is int else Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other.entries))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        )

    def __sub__(self, other):
        return RationalMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def transpose(self):
        return RationalMatrix(list(zip(*self.entries)))

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def is_identity(self):
        return self == RationalMatrix.identity(self.rows)

    def abs_row_sums(self):
        """Exact maximum absolute row sum (the matrix infinity-norm)."""
        return max(sum(abs(x) for x in row) for row in self.entries)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class FactoredTriangular:
    """Lower-triangular matrix split as rational part times sqrt-weights.

    With ``scale_rows`` false it represents ``rational_part @ diag(sqrt(w))``
    (the forward Cholesky factor of the Hilbert matrix), with ``scale_rows``
    true ``diag(sqrt(w)) @ rational_part`` (its inverse).  The weights are
    the odd integers 2k-1, kept as integers so that Gram products fold them
    back exactly.
    """

    rational_part: RationalMatrix
    diag_weights: tuple
    scale_rows: bool

    @property
    def n(self):
        return self.rational_part.rows

    def entry(self, i, j):
        """Float value of entry (i, j), 1-based, including the sqrt-weight."""
        r = self.rational_part[i - 1, j - 1]
        w = self.diag_weights[i - 1] if self.scale_rows else self.diag_weights[j - 1]
        return float(r) * np.sqrt(w)

    def gram(self):
        """Exact Gram product with the weights folded in.

        For Ln (scale-columns) this is Ln Ln^T = Ltilde diag(w) Ltilde^T,
        which equals the Hilbert segment. For Ln^{-1} (scale-rows) it is
        (Ln^{-1})^T Ln^{-1} = M^T diag(w) M, the inverse Hilbert segment.
        """
        a = self.rational_part.entries
        vecs = list(zip(*a)) if self.scale_rows else a
        w = self.diag_weights
        return RationalMatrix(
            [[sum(wk * x * y for wk, x, y in zip(w, u, v)) for v in vecs] for u in vecs]
        )


def hilbert_matrix(n):
    """Hilbert segment H_n with entries 1/(i+j-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return RationalMatrix(
        [[Fraction(1, i + j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def cholesky_factor_L(n):
    """Triangular factor Ln of the Hilbert segment, H_n = Ln Ln^T.

    Entry (i,j) is sqrt(2(j-1)+1)/(i+j-1) * C(i-1,j-1)/C(i+j-2,j-1) for
    j <= i; the sqrt is kept factored as the column weight 2j-1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    part = [
        [
            Fraction(comb(i - 1, j - 1), (i + j - 1) * comb(i + j - 2, j - 1)) if j <= i else Fraction(0)
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return FactoredTriangular(RationalMatrix(part), tuple(2 * j - 1 for j in range(1, n + 1)), scale_rows=False)


def inverse_factor_Linv(n):
    """Closed-form inverse factor, Ln^{-1} = diag(sqrt(2i-1)) @ M.

    M has the integer entries (-1)^(i+j) C(i-1,j-1) C(i+j-2,j-1); the
    row weight sqrt(2(i-1)+1) stays factored.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    part = [
        [(-1) ** (i + j) * comb(i - 1, j - 1) * comb(i + j - 2, j - 1) if j <= i else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return FactoredTriangular(RationalMatrix(part), tuple(2 * i - 1 for i in range(1, n + 1)), scale_rows=True)


def inverse_hilbert(n):
    """Exact inverse Hilbert segment, H_n^{-1} = M^T diag(2j-1) M."""
    return inverse_factor_Linv(n).gram()


def back_substitution_inverse(lfac):
    """Invert a scale-columns factored triangular by back substitution.

    Returns a scale-rows factored triangular with the same weight layout
    as :func:`inverse_factor_Linv`; used as the independent oracle for the
    closed-form inverse.  Writing Ln = Ltilde S with S = diag(sqrt(w)),
    Ln^{-1} = S^{-1} Ltilde^{-1} = S (S^{-2} Ltilde^{-1}); the rational
    part returned is diag(1/w) @ Ltilde^{-1}.
    """
    if lfac.scale_rows:
        raise ValueError("expected a scale-columns factor")
    n = lfac.n
    a = lfac.rational_part
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1 / a[j, j]
        for i in range(j + 1, n):
            s = sum(a[i, k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -s / a[i, i]
    w = lfac.diag_weights
    part = [[inv[i][j] / w[i] for j in range(n)] for i in range(n)]
    return FactoredTriangular(RationalMatrix(part), w, scale_rows=True)


def binomial(a, k):
    """Generalized binomial coefficient C(a, k) via the running product.

    Exact Fraction for integer or rational a; mpmath float (at the current
    working precision) for real a.  The product form avoids the Gamma-pole
    bookkeeping that quotients of Gamma values would need for a in (-1, 0).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(a, numbers.Integral) or isinstance(a, Fraction):
        out = Fraction(1)
        a = Fraction(a)
        for j in range(k):
            out *= (a - j) / (j + 1)
        return out
    out = mp.mpf(1)
    a = mp.mpf(a)
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def spectral_norm(m, precision=256, tol=1e-20, max_iter=1000):
    """Power-iteration eigenvalue of a symmetric PSD RationalMatrix.

    Started from the all-ones vector.  The matrix is scaled to integers by
    the lcm ``d`` of its denominators and the vector is held in fixed
    point, as ints scaled by 2^(precision + _GUARD_BITS), so each product
    A v is exact.  The Rayleigh quotient and both stopping tests are exact
    rationals; the quotient, divided by ``d``, is returned as an mpf at
    ``precision`` bits (at least 64).  Converged when the Rayleigh
    quotient's relative change and the relative residual
    ||Av - lv|| / (l ||v||) both drop below ``tol``.  For a symmetric
    matrix the residual proves that the result is within relative ``tol``
    of *an* eigenvalue, not that it is the largest: if the start vector
    has no component along the top eigenvector, the iteration settles on
    a lower one.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    if tol <= 0:
        raise ValueError("tol must be positive")
    prec = max(int(precision), 64)
    d = lcm(*(x.denominator for row in m.entries for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.entries]

    def value(lam):
        with mp.workprec(prec):
            return mp.mpf(lam.numerator) / (lam.denominator * d)

    if m.rows == 1:
        return value(Fraction(a[0][0]))
    shift = prec + _GUARD_BITS
    q = Fraction(tol)
    v = [1 << shift] * m.rows
    lam_prev = None
    for _ in range(max_iter):
        w = [sum(map(mul, row, v)) for row in a]
        vv = sum(x * x for x in v)
        vw = sum(map(mul, v, w))
        ww = sum(y * y for y in w)
        if ww == 0:
            return mp.mpf(0)
        lam = Fraction(vw, vv)
        # ||w - lam v||^2 ||v||^2 = ww vv - vw^2, so the residual test is exact
        if (lam_prev is not None and lam > 0 and abs(lam - lam_prev) < q * lam
                and ww * vv - vw * vw < q * q * vw * vw):
            return value(lam)
        nw = isqrt(ww)
        v = [(y << shift) // nw for y in w]
        lam_prev = lam
    raise SpectralNormError(
        f"power iteration did not certify tol={tol} in {max_iter} iterations",
        last_estimate=None if lam_prev is None else value(lam_prev),
        iterations=max_iter,
    )
