"""Exact rational kernels for the Hilbert matrix and its triangular factors.

Everything in this module is exact: a matrix is a list of ``int`` rows
over one common denominator (1 for the inverse factor and the inverse
Hilbert segment, lcm(1..2n-1) for H_n), and the irrational square-root
factors of the triangular operators are never materialized.  A factored
triangular matrix keeps its integer weights ``2k-1`` separate from the
rational part, so all product identities (Cholesky, inversion, Gram) can
be verified with zero residual even where the condition number grows
like exp(3.5 n).

The Picard kernel ``_picard_sum`` (with ``_inner_products``, the M a
it sums) is exact for ints over a common denominator and also takes
floats, summed with ``fsum``: one kernel for exact and float moments.

Only the power iteration leaves the rational world, in one fixed-point
kernel, ``_power_iteration``, called by ``spectral_norm`` and
``spectral_norm_with_reference``: Python ints carry a configurable
precision (default 256 bits, at least 64) and the result is an mpmath
float.  That precision is required because the entries of the inverse
Hilbert matrix grow roughly like exp(3.5 n) and double precision is
useless long before n = 65.  mpmath is imported there, at the first
call, so importing this module (or the package) does not load it.

The value's iteration starts from the all-ones vector, whose product is
the matrix's row sums, so its first step computes no product.  If its
iterate has mixed signs in D, the signs of row 1, it is restarted once
from D times the all-ones vector and the larger Rayleigh quotient is
kept.  The reference continues the iteration that gave the value from
the iterate and product it stopped at, to a tighter tolerance, so at 256
bits and above the gap between the two is the value's own error.

The paper's growth table, ``linv_growth_study``, is built here from
those two pieces alone: each level's H_i^{-1} from the rank-one
recurrence ``_inverse_hilbert_levels`` and its norm and reference from
``spectral_norm_with_reference``.  Like the rest of the module it needs
only the standard library and, at call time, mpmath, so the package can
run it without loading numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from math import comb, exp, fsum, gcd, isqrt, lcm, log, sqrt
from operator import index, mul

# Fixed-point vectors in the power iterations carry this many bits beyond
# the requested precision.
_GUARD_BITS = 32
# A power iteration that has not met its tolerance after this many steps fails.
_MAX_ITER = 1000


class SpectralNormError(RuntimeError):
    """Power iteration failed to converge to the requested tolerance."""

    def __init__(self, message, last_estimate=None, iterations=0):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.iterations = iterations


class RationalMatrix:
    """Dense exact matrix: int rows ``num`` over one positive ``den``.

    Kept in lowest terms, so ``==`` compares ``(den, num)``: the sign of a
    negative ``den`` moves into ``num``, and ``den`` 0 is refused.  Entries
    that are not all ``int`` are read by ``_common_den``, the package's one
    rule for exact input, and put over the lcm of their denominators.  A
    matrix with no rows or no columns is refused, since its shape could
    not be kept.  ``entries`` and ``m[i, j]`` are exact views: ``int``
    where ``den`` divides the entry, ``Fraction`` otherwise.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries, den=1):
        num = list(map(list, entries))
        if not num or not num[0]:
            raise ValueError("a matrix needs at least one row and one column")
        den = index(den)  # numpy integers, here or in num, would wrap in products
        if den == 0:
            raise ValueError("den must be nonzero")
        if not {int}.issuperset(map(type, chain.from_iterable(num))):  # any other number: _common_den's rule
            flat, d = _common_den(chain.from_iterable(num))
            flat = iter(flat)
            num, den = [list(islice(flat, len(row))) for row in num], den * d
        if den < 0:
            num, den = [[-x for x in row] for row in num], -den
        g = gcd(den, *(x for row in num for x in row)) if den != 1 else 1
        self.num = [[x // g for x in row] for row in num] if g != 1 else num
        self.den = den // g
        self.rows = len(num)
        self.cols = len(num[0])
        if any(len(row) != self.cols for row in num):
            raise ValueError("ragged rows")

    @classmethod
    def _from_int_rows(cls, num):
        """A matrix over den 1 that takes ``num`` as it is: no copy, no type
        scan, no gcd.  ``num`` must be a fresh nonempty list of equal-length
        lists of Python ints that no one else writes to."""
        self = object.__new__(cls)
        self.num, self.den, self.rows, self.cols = num, 1, len(num), len(num[0])
        return self

    def _view(self, x):
        return x // self.den if x % self.den == 0 else Fraction(x, self.den)

    @property
    def entries(self):
        return [[self._view(x) for x in row] for row in self.num]

    def __getitem__(self, ij):
        i, j = ij
        return self._view(self.num[i][j])

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.den, self.num) == (other.den, other.num)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other.num))
        return RationalMatrix([[sum(map(mul, row, col)) for col in ot] for row in self.num],
                              self.den * other.den)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return RationalMatrix([[x * other.den - y * self.den for x, y in zip(r1, r2)]
                               for r1, r2 in zip(self.num, other.num)], self.den * other.den)

    def transpose(self):
        return RationalMatrix(zip(*self.num), self.den)

    def is_zero(self):
        return not any(map(any, self.num))

    def is_identity(self):
        return self.den == 1 and self.num == [[int(i == j) for j in range(self.rows)] for i in range(self.rows)]

    def abs_row_sums(self):
        """Exact maximum absolute row sum (the matrix infinity-norm)."""
        return self._view(max(sum(map(abs, row)) for row in self.num))

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
    scale_rows: bool

    @property
    def n(self):
        return self.rational_part.rows

    @property
    def diag_weights(self):
        """The weights w = (1, 3, ..., 2n-1)."""
        return tuple(range(1, 2 * self.n, 2))

    def entry(self, i, j):
        """Float value of entry (i, j), 1-based, including the sqrt-weight."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i}, {j}) is outside 1..{self.n}")
        r = self.rational_part[i - 1, j - 1]
        return float(r) * sqrt(2 * (i if self.scale_rows else j) - 1)

    def gram(self):
        """Exact Gram product with the weights folded in.

        For Ln (scale-columns) this is Ln Ln^T = Ltilde diag(w) Ltilde^T,
        which equals the Hilbert segment. For Ln^{-1} (scale-rows) it is
        (Ln^{-1})^T Ln^{-1} = M^T diag(w) M, the inverse Hilbert segment.
        """
        a, d = self.rational_part.num, self.rational_part.den
        vecs = list(zip(*a)) if self.scale_rows else a
        w = self.diag_weights
        return RationalMatrix(
            [[sum(wk * x * y for wk, x, y in zip(w, u, v)) for v in vecs] for u in vecs], d * d
        )


def _common_den(values):
    """Exact values as ``(ints, den)``: value i is ``ints[i] / den``, den > 0.

    The package's one rule for exact input: ints (bool, numpy's), any Rational, floats (numpy's float64 and
    float32, each its dyadic rational) and Decimal (as written) enter exactly; any other real (an mpf) and
    text go through float().  NaN, infinities and unreadable text are refused with ``ValueError``.
    ``den`` is the lcm of the denominators, not reduced against the ints.
    """
    try:
        ratios = [(v if isinstance(v, (int, Fraction, float, Decimal))
                   else index(v) if isinstance(v, numbers.Integral) else Fraction(v) if isinstance(v, numbers.Rational)
                   else float(v)).as_integer_ratio() for v in values]
    except (ValueError, OverflowError):
        raise ValueError("values must be finite real numbers") from None
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def hilbert_matrix(n):
    """Hilbert segment H_n with entries 1/(i+j-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = lcm(*range(1, 2 * n))
    return RationalMatrix([[d // (i + j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)], d)


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
    return FactoredTriangular(RationalMatrix(part), scale_rows=False)


# The rows of M in inverse_factor_Linv, row i its i entries j <= i.  It grows
# by rebinding to a longer tuple, so a tuple a reader holds never changes.
_M_ROWS = ()


def _m_row(i):
    """Row i of M, grown from M_i1 = (-1)^(i+1) by the ratio of consecutive
    entries, M_i,j+1 = -M_ij (i-j)(i+j-1) / j^2, which divides exactly."""
    row = [(-1) ** (i + 1)]
    for j in range(1, i):
        row.append(-row[-1] * (i - j) * (i + j - 1) // (j * j))
    return tuple(row)


def inverse_factor_Linv(n):
    """Closed-form inverse factor, Ln^{-1} = diag(sqrt(2i-1)) @ M.

    M has the integer entries (-1)^(i+j) C(i-1,j-1) C(i+j-2,j-1), row by
    row from ``_m_row``; the row weight sqrt(2(i-1)+1) stays factored.
    Row i of M does not depend on n, so one triangle of int rows, grown to
    the largest n requested so far, serves every size: each row is
    computed once per process, and it holds n(n+1)/2 ints for that
    largest n.  Each call returns a fresh
    zero-padded copy of the leading n x n block: new int lists, which the
    matrix takes over den 1 without a second copy, type scan or gcd pass.
    """
    global _M_ROWS
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = _M_ROWS
    if len(rows) < n:
        rows += tuple(map(_m_row, range(len(rows) + 1, n + 1)))
        _M_ROWS = rows
    zeros = (0,) * n
    part = RationalMatrix._from_int_rows([[*row, *zeros[len(row):]] for row in rows[:n]])
    return FactoredTriangular(part, scale_rows=True)


def _inner_products(a, den):
    """M a, (M a)_i one dot product of row i of M with the values a: int
    sums for ints over ``den`` (as ``_common_den`` returns them), ``fsum``
    for floats (``den`` None), where int * float rounds the int as float() does.
    """
    add = fsum if den is None else sum
    return [add(map(mul, row[:i + 1], a)) for i, row in enumerate(inverse_factor_Linv(len(a)).rational_part.num)]


def _picard_sum(a, den):
    """||Linv y||^2 = sum_i (2i-1) (M a)_i^2 for y = a / den: an exact
    Fraction for ints over ``den``; for floats (``den`` None) the entries of
    M and the products round, and past n of about 12 the value is wrong.
    """
    xs = _inner_products(a, den)
    if den is None:
        return fsum((2 * i + 1) * x * x for i, x in enumerate(xs))
    return Fraction(sum((2 * i + 1) * x * x for i, x in enumerate(xs)), den * den)


def _inverse_hilbert_levels(n):
    """(r, H_i^{-1}) for i = 1..n from one M, r the first i entries of row i:
    H_i^{-1} is H_{i-1}^{-1} padded with a zero row and column plus
    ((2i-1) r) r^T, O(i^2) exact work, in new int rows never written again."""
    m = inverse_factor_Linv(n).rational_part.num
    h = []
    for i in range(1, n + 1):
        r = m[i - 1][:i]
        h = [[a + wrj * rk for a, rk in zip(row + [0], r)]
             for row, wrj in zip(h + [[0] * (i - 1)], [(2 * i - 1) * rj for rj in r])]
        yield r, RationalMatrix._from_int_rows(h)


def inverse_hilbert(n):
    """Exact inverse Hilbert segment, H_n^{-1} = M^T diag(2j-1) M."""
    for _, hinv in _inverse_hilbert_levels(n):
        pass
    return hinv


def _power_iteration(matvec, v, precision, tol, d=1, w=None):
    """Power iteration on a symmetric PSD map, from the start vector ``v``.

    Vectors are ints scaled by about 2^(precision + _GUARD_BITS), the
    start ``v`` included; ``matvec`` maps one to ``d`` times the matrix
    applied to it, at the same scale.  ``w``, if given, must be exactly
    ``matvec(v)``: the first step then takes it instead of calling the
    map.  Stops when the Rayleigh quotient l changes by less than relative
    ``tol`` and the relative residual ||w - l v|| / (l ||v||) is below
    ``tol``, both decided exactly; then l is within relative ``tol`` of
    *an* eigenvalue (not certainly the largest) and, as a Rayleigh
    quotient, off by about tol^2.  Returns l / ``d`` as an mpf at
    ``precision`` bits (>= 64), the iterate v that l is the Rayleigh
    quotient of, and its product w = ``matvec(v)``.
    """
    if precision < 64:
        raise ValueError("precision must be >= 64 bits")
    import mpmath as mp

    def value(lam):
        with mp.workprec(precision):
            return mp.mpf(lam.numerator) / (lam.denominator * d)

    n = len(v)
    shift = precision + _GUARD_BITS
    qn, qd = Fraction(tol).as_integer_ratio()
    prev = None  # (v.w, v.v) of the previous step
    for _ in range(_MAX_ITER):
        if w is None:
            w = matvec(v)
        vv = sum(map(mul, v, v))
        vw = sum(map(mul, v, w))
        ww = sum(map(mul, w, w))
        if ww == 0:
            return mp.mpf(0), v, w
        # l = vw/vv; the tests with denominators cleared, using
        # ||w - l v||^2 ||v||^2 = ww vv - vw^2.  A 1x1 quotient is exact.
        if n == 1 or (prev is not None and vw > 0
                      and abs(vw * prev[1] - prev[0] * vv) * qd < qn * vw * prev[1]
                      and (ww * vv - vw * vw) * qd * qd < qn * qn * vw * vw):
            return value(Fraction(vw, vv)), v, w
        nw = isqrt(ww)
        v, w = [(y << shift) // nw for y in w], None
        prev = vw, vv
    raise SpectralNormError(
        f"power iteration did not converge to tol={float(tol):g} in {_MAX_ITER} iterations",
        last_estimate=value(Fraction(*prev)),
        iterations=_MAX_ITER,
    )


def spectral_norm(m, precision=256):
    """Power-iteration eigenvalue of a symmetric PSD RationalMatrix.

    Exact products on the int rows ``m.num``, divided by ``m.den``; stops at
    relative tolerance 1e-20.  The iteration starts from the all-ones
    vector and is restarted once from D 1 when its iterate has components
    of both signs in D, the signs of row 1 (see ``_signed_iteration``).
    Where D m D > 0, as for H_n and H_n^-1, the value therefore comes from
    an iterate with no mixed signs in D, so from the Perron direction.
    That is not a bracket: the value is not certified to be the largest
    eigenvalue.
    """
    return _signed_iteration(m, precision)[0]


def spectral_norm_with_reference(m, precision):
    """``spectral_norm(m, precision)`` and a reference value for it.

    The reference continues the same iteration from the iterate v it
    stopped at and its product ``m.num`` v, until the Rayleigh quotient
    also meets relative tolerance 10^-(precision // 8), which leaves an
    error of about 10^-(precision // 4): at 256 bits and above it is far
    more accurate than the value, so their gap is the value's own error.
    """
    value, v, w = _signed_iteration(m, precision)
    tol = Fraction(10) ** -(precision // 8)
    return value, _power_iteration(partial(_times, m.num), v, precision, tol, m.den, w)[0]


def _times(rows, v):
    return [sum(map(mul, row, v)) for row in rows]


def _signed_iteration(m, precision):
    """``_power_iteration`` on ``m`` from the all-ones vector at tolerance
    1e-20, restarted once when its iterate v has components of both signs
    in D = diag(signs of row 1 of ``m.num``, 0 counted as +): from D 1,
    which is positive in the flipped basis, so not orthogonal to the Perron
    vector of a D m D > 0.  The larger Rayleigh quotient is kept with its
    own iterate v and product w = ``m.num`` v.  The all-ones start's
    product is the row sums of ``m.num`` shifted to the start's scale, so
    its first step computes no product."""
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    shift = precision + _GUARD_BITS
    times = partial(_times, m.num)
    found = _power_iteration(times, [1 << shift] * m.rows, precision, 1e-20, m.den,
                             w=[sum(row) << shift for row in m.num])
    signs = [-1 if x < 0 else 1 for x in m.num[0]]
    dv = list(map(mul, signs, found[1]))
    if min(dv) < 0 < max(dv):
        again = _power_iteration(times, [s << shift for s in signs], precision, 1e-20, m.den)
        found = max(found, again, key=lambda r: r[0])
    return found


def linv_growth_study(n_max, precision=256):
    """Growth table of the inverse factor for i = 1..n_max.

    Per level: the spectral norm of the inverse factor (squared it equals
    the spectral norm of the inverse Hilbert segment) with the relative
    error of that square, the row-wise absolute maximum and its column,
    the last diagonal entry, the reference curve exp(1.763 i), and the
    exact infinity-norm of the inverse Hilbert segment with its
    logarithmic rate.  n_max is at most 402: from i = 403 exp(1.763 i) is
    beyond the double range, and precision is at least 64 bits.  Both are
    refused before any work.

    Each level makes one ``spectral_norm_with_reference`` call on
    H_i^{-1}: the power iteration from the all-ones vector gives the
    value, and its continuation to tolerance 10^-(precision // 8) gives
    the reference that ``norm_sq_rel_err`` compares it with.  At 256 bits
    and above that is the value's own error (about 1e-40); below, it is
    at the rounding level of ``precision`` bits and may change between
    versions.  It can read exactly 0 where the value is not exact: of the
    40 levels of ``linv_growth_study(40)`` it reads 0 at 34 at 64 bits,
    35 at 128 and 9 at 144, and from 152 bits on only at level 1, which
    is exact.  Both come from the one H_i^{-1}, so the column does not
    check that H_i^{-1} was built right; the tests compare it with an
    independent power iteration on the factored form.

    H_i^{-1} and row i of M come from exact_core's rank-one recurrence,
    O(i^2) exact work per level, so the exact part is O(n_max^3).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > 402:
        raise ValueError("n_max must be <= 402: exp(1.763 i) overflows a double from i = 403")
    if precision < 64:
        raise ValueError("precision must be >= 64 bits")
    import mpmath as mp
    rows = []
    for i, (r, hinv) in enumerate(_inverse_hilbert_levels(n_max), 1):
        lam, ref = spectral_norm_with_reference(hinv, precision)
        rel = abs(lam - ref) / lam
        norm = float(mp.sqrt(lam))
        # row maxima of |Linv|: the sqrt-weight is constant along a row,
        # so the argmax over j is that of the integer rational part
        scaled = [sqrt(2 * i - 1) * abs(float(x)) for x in r]
        best = max(scaled)
        diag = sqrt(2 * i - 1) * r[-1]
        inf_norm = hinv.abs_row_sums()
        rows.append({
            "i": i,
            "norm": norm,
            "norm_sq_rel_err": float(rel),
            "row_max": best,
            "row_max_col": scaled.index(best) + 1,
            "diag": diag,
            "bound": exp(1.763 * i),
            "ln_spectral_over_i": float(mp.log(lam)) / i,
            "ln_inf_over_i": log(inf_norm) / i,
        })
    return rows
