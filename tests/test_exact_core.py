import math
import re
from fractions import Fraction
from operator import mul

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hausmom import exact_core
from hausmom.exact_core import (
    RationalMatrix,
    SpectralNormError,
    cholesky_factor_L,
    hilbert_matrix,
    inverse_factor_Linv,
    inverse_hilbert,
    spectral_norm,
    spectral_norm_with_reference,
)
from oracles import all_ones_spectral_norm, back_substitution_inverse, binomial, factored_gram_norm, inverse_factor_rows
from strategies import FRACTION


def _rows(r, c):
    return st.lists(st.lists(FRACTION, min_size=c, max_size=c), min_size=r, max_size=r)


def _in_lowest_terms(m):
    return m.den > 0 and math.gcd(m.den, *(x for row in m.num for x in row)) == 1


class TestRationalMatrix:
    # A (r x k), B (k x c) and C (r x k), as Fraction rows
    @given(st.tuples(*[st.integers(1, 4)] * 3).flatmap(
        lambda d: st.tuples(_rows(d[0], d[1]), _rows(d[1], d[2]), _rows(d[0], d[1]))))
    def test_matches_fraction_reference(self, abc):
        a, b, c = abc
        ma, mb, mc = (RationalMatrix(x) for x in abc)
        assert (ma @ mb).entries == [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        assert (ma - mc).entries == [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, c)]
        assert ma.transpose().entries == [list(col) for col in zip(*a)]
        assert ma.abs_row_sums() == max(sum(abs(x) for x in row) for row in a)
        assert all(_in_lowest_terms(m) for m in (ma, ma @ mb, ma - mc, ma.transpose()))

    def test_lowest_terms(self):
        assert RationalMatrix([[Fraction(2, 4)]]) == RationalMatrix([[1]], 2)
        m = RationalMatrix([[2, 3]], 2)
        assert (m.num, m.den) == ([[2, 3]], 2)
        assert m.entries == [[1, Fraction(3, 2)]] and type(m[0, 0]) is int

    def test_negative_den(self):
        m = RationalMatrix([[2, -4]], -6)
        assert (m.num, m.den) == ([[-1, 2]], 3)
        assert RationalMatrix([[1]], -2) == RationalMatrix([[-1]], 2)
        # entries that are not all int are read first, then the sign moves
        assert RationalMatrix([[0.5, Fraction(-1, 3)]], -1).entries == [[Fraction(-1, 2), Fraction(1, 3)]]

    def test_zero_den(self):
        with pytest.raises(ValueError, match="den must be nonzero"):
            RationalMatrix([[1]], 0)

    @pytest.mark.parametrize("entries", [[], [[]], [[], []]])
    def test_refuses_no_rows_or_no_columns(self, entries):
        # its shape could not be kept: [] @ [[1, 2]] and [[]].transpose() went wrong
        with pytest.raises(ValueError, match="at least one row and one column"):
            RationalMatrix(entries)

    def test_sub_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hilbert_matrix(3) - hilbert_matrix(2)

    def test_numpy_integer_entries_do_not_wrap(self):
        a = RationalMatrix([[np.int64(2**40)]])
        assert type(a.num[0][0]) is int
        assert (a @ a).num == [[2**80]]
        b = RationalMatrix([[np.int64(3), np.int32(1)]], 6)
        assert all(type(x) is int for x in b.num[0])
        assert (b @ b.transpose()) == RationalMatrix([[5]], 18)

    def test_numpy_integer_den_does_not_wrap(self):
        a = RationalMatrix([[1]], np.int64(2**40))
        assert type(a.den) is int
        assert (a @ a) == RationalMatrix([[1]], 2**80)


class TestHilbertMatrix:
    def test_entries_n1(self):
        assert hilbert_matrix(1).entries == [[Fraction(1)]]

    def test_entries_n2(self):
        h = hilbert_matrix(2)
        assert h.entries == [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]

    def test_symmetry(self):
        h = hilbert_matrix(5)
        assert h == h.transpose()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_matrix(0)


class TestCholeskyFactor:
    def test_first_entry(self):
        assert cholesky_factor_L(3).entry(1, 1) == 1.0

    def test_entry_22(self):
        fac = cholesky_factor_L(3)
        assert fac.rational_part[1, 1] == Fraction(1, 6)
        assert fac.diag_weights[1] == 3
        assert fac.entry(2, 2) == pytest.approx(math.sqrt(3) / 6)

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (4, 1), (-1, 1)])
    def test_entry_refuses_index_outside(self, i, j):
        # entry(0, 0) read entry (n, n) through the negative index
        with pytest.raises(IndexError, match="outside 1..3"):
            cholesky_factor_L(3).entry(i, j)

    def test_strictly_lower(self):
        fac = cholesky_factor_L(4)
        assert fac.rational_part[0, 1] == 0

    def test_gram_is_hilbert(self):
        for n in (1, 3, 7, 12):
            assert cholesky_factor_L(n).gram() == hilbert_matrix(n)


class TestInverseFactor:
    def test_entry_22(self):
        fac = inverse_factor_Linv(2)
        assert fac.rational_part[1, 1] == 2
        assert fac.diag_weights[1] == 3
        assert fac.entry(2, 2) == pytest.approx(2 * math.sqrt(3))

    def test_entry_21(self):
        fac = inverse_factor_Linv(2)
        assert fac.rational_part[1, 0] == -1
        assert fac.entry(2, 1) == pytest.approx(-math.sqrt(3))

    def test_product_is_identity(self):
        # combine the sqrt weights: Linv @ Ln = diag(1/w) folded against diag(w)
        n = 10
        lfac = cholesky_factor_L(n)
        ifac = inverse_factor_Linv(n)
        prod = ifac.rational_part @ lfac.rational_part
        # (S M)(Ltilde S) = I  <=>  M Ltilde = S^{-2} = diag(1/(2i-1))
        expect = RationalMatrix(
            [[Fraction(1, 2 * i + 1) if i == j else 0 for j in range(n)] for i in range(n)]
        )
        assert prod == expect

    def test_sign_alternation(self):
        fac = inverse_factor_Linv(8)
        for i in range(8):
            for j in range(i + 1):
                assert (fac.rational_part[i, j] > 0) == ((i + j) % 2 == 0)

    def test_matches_back_substitution(self):
        for n in (2, 5, 9):
            closed = inverse_factor_Linv(n)
            solved = back_substitution_inverse(cholesky_factor_L(n))
            assert closed.rational_part == solved.rational_part
            assert closed.diag_weights == solved.diag_weights

    def test_triangle_matches_oracle_in_any_order(self, monkeypatch):
        monkeypatch.setattr(exact_core, "_M_ROWS", ())
        for n in (7, 40, 3, 41, 1, 130, 40):
            part = inverse_factor_Linv(n).rational_part
            assert part.den == 1
            assert part.num == inverse_factor_rows(n)

    def test_writes_into_a_result_leave_the_next_one_correct(self, monkeypatch):
        monkeypatch.setattr(exact_core, "_M_ROWS", ())
        part = inverse_factor_Linv(9).rational_part
        part.num[4][2] += 1
        part.num[0][8] = 5
        part.num[8].append(0)
        for n in (9, 4, 12):
            assert inverse_factor_Linv(n).rational_part.num == inverse_factor_rows(n)

    def test_each_row_is_computed_once(self, monkeypatch):
        calls = []
        real = exact_core._m_row

        def counting_m_row(i):
            calls.append(i)
            return real(i)

        monkeypatch.setattr(exact_core, "_m_row", counting_m_row)
        monkeypatch.setattr(exact_core, "_M_ROWS", ())
        inverse_factor_Linv(20)
        assert calls == list(range(1, 21))
        for n in (20, 5, 1, 20):
            inverse_factor_Linv(n)
        assert calls == list(range(1, 21))
        inverse_factor_Linv(22)  # rows 21 and 22 only
        assert calls == list(range(1, 23))

    def test_row_recurrence_matches_the_two_binomial_oracle(self, monkeypatch):
        monkeypatch.setattr(exact_core, "_M_ROWS", ())
        oracle = inverse_factor_rows(130)
        assert inverse_factor_Linv(130).rational_part.num == oracle
        for i, row in enumerate(oracle, 1):
            assert list(exact_core._m_row(i)) == row[:i]


class TestInverseHilbert:
    def test_n1(self):
        assert inverse_hilbert(1).entries == [[Fraction(1)]]

    def test_n2(self):
        assert inverse_hilbert(2).entries == [
            [Fraction(4), Fraction(-6)],
            [Fraction(-6), Fraction(12)],
        ]

    def test_product_identity(self):
        for n in (2, 5, 8):
            assert (hilbert_matrix(n) @ inverse_hilbert(n)).is_identity()

    @pytest.mark.parametrize("n", [*range(1, 41), 65, 130])
    def test_recurrence_matches_gram_product(self, n):
        # the rank-one recurrence against M^T diag(2j-1) M formed directly
        assert inverse_hilbert(n) == inverse_factor_Linv(n).gram()

    def test_integer_entries(self):
        hinv = inverse_hilbert(6)
        assert all(x.denominator == 1 for row in hinv.entries for x in row)
        # stored as native ints, not as Fractions with denominator 1
        for m in (hinv, inverse_factor_Linv(6).rational_part):
            assert all(type(x) is int for row in m.entries for x in row)


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm(RationalMatrix([[1]])) == 1

    def test_h2_inverse_closed_form(self):
        # eigenvalues of [[4,-6],[-6,12]]: 8 +/- sqrt(52)
        lam = spectral_norm(inverse_hilbert(2))
        assert abs(lam - (8 + math.sqrt(52))) < 1e-12

    def test_h5_inverse(self):
        # oracle value from 256-bit power iteration, cross-checked by
        # numpy eigh on the exact integer entries
        lam = spectral_norm(inverse_hilbert(5))
        assert abs(lam - 304142.8417) < 0.5
        assert 2.5 < mp.log(lam) / 5 < 2.6

    def test_iteration_cap(self):
        # eigenvalue ratio 999/1000: the Rayleigh quotient creeps up by about
        # 1e-3 (0.999)^(2k) per step, still above 1e-20 after 1000 steps
        with pytest.raises(SpectralNormError, match="did not converge") as exc:
            spectral_norm(RationalMatrix([[1000, 0], [0, 999]]))
        assert exc.value.iterations == 1000
        assert 999 < exc.value.last_estimate < 1000

    @pytest.mark.parametrize("n", [1, 3])
    def test_precision_floor(self, n):
        # refused, not silently raised to 64 bits
        with pytest.raises(ValueError, match="precision must be >= 64 bits"):
            spectral_norm(inverse_hilbert(n), precision=63)
        with pytest.raises(ValueError, match="precision must be >= 64 bits"):
            factored_gram_norm(n, 63)

    def test_value_is_rayleigh_quotient_of_iterate(self):
        h = inverse_hilbert(6)
        lam, v, _ = exact_core._signed_iteration(h, 256)
        assert lam == spectral_norm(h)
        hv = [sum(a * b for a, b in zip(row, v)) for row in h.num]
        q = Fraction(sum(a * b for a, b in zip(v, hv)), sum(a * a for a in v))
        with mp.workprec(256):
            assert lam == mp.mpf(q.numerator) / q.denominator

    @pytest.mark.parametrize("m, restarts", [(hilbert_matrix(6), False),
                                             *((inverse_hilbert(n), False) for n in range(1, 13)),
                                             (RationalMatrix([[3, -1], [-1, 3]], 2), True)],
                             ids=["hilbert_6", *(f"inverse_hilbert_{n}" for n in range(1, 13)), "orthogonal_start"])
    def test_product_of_iterate_and_all_ones_value(self, m, restarts):
        # the returned product is H v to the int, and taking the start's
        # product from H's row sums leaves the all-ones value unchanged to
        # the bit; the value is that one unless the restart from D 1 fires
        lam, v, w = exact_core._signed_iteration(m, 256)
        assert w == [sum(map(mul, row, v)) for row in m.num]
        assert spectral_norm(m) == lam
        assert (lam == all_ones_spectral_norm(m, 256)) is not restarts

    def test_monotone_in_n(self):
        lams = [spectral_norm(inverse_hilbert(n)) for n in range(2, 9)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("m", [inverse_hilbert(12), hilbert_matrix(6)], ids=["inverse_hilbert", "hilbert"])
    def test_matches_eigsy(self, m):
        # hilbert_matrix has den > 1, so this also covers the division by
        # den; tol 1e-20 leaves a Rayleigh quotient error ~1e-40
        lam = spectral_norm(m)
        with mp.workprec(256):
            ref = max(mp.eigsy(mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row] for row in m.entries]),
                               eigvals_only=True))
            assert abs(lam - ref) / ref < mp.mpf("1e-35")

    def test_largest_eigenvalue_of_orthogonal_start(self):
        # the all-ones start is the eigenvector for 1; its iterate has mixed
        # signs in D = diag(1, -1), so the restart from D 1 reaches 2
        m = RationalMatrix([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]])
        assert spectral_norm(m) == 2
        assert spectral_norm_with_reference(m, 256) == (2, 2)

    def test_restart_that_does_not_converge_raises(self):
        # eigenvalue 1 on the all-ones vector, 1000 and 999 on (1,-1,0) and
        # (1,1,-2): row 1 gives D = diag(1, -1, -1), and from D 1 the
        # quotient creeps toward 1000 as slowly as in test_iteration_cap
        j = [[2] * 3] * 3
        p2 = [[3000, -3000, 0], [-3000, 3000, 0], [0, 0, 0]]
        p3 = [[999, 999, -1998], [999, 999, -1998], [-1998, -1998, 3996]]
        m = RationalMatrix([[a + b + c for a, b, c in zip(*rows)] for rows in zip(j, p2, p3)], 6)
        assert all_ones_spectral_norm(m, 256) == 1
        with pytest.raises(SpectralNormError, match="did not converge") as exc:
            exact_core._signed_iteration(m, 256)
        assert 999 < exc.value.last_estimate < 1000


class TestEdgeBranches:
    @pytest.mark.parametrize("call, expected", [
        (lambda: RationalMatrix([[1, 2], [3]]), "ragged rows"),
        (lambda: RationalMatrix([[0.5, 2], [Fraction(1, 3)]]), "ragged rows"),
        (lambda: RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]]), "dimension mismatch"),
        (lambda: spectral_norm(RationalMatrix([[0, 0], [0, 0]])), 0),
        (lambda: spectral_norm(RationalMatrix([[1, 2]])), "matrix must be square"),
        (lambda: cholesky_factor_L(0), "n must be >= 1"),
        (lambda: inverse_factor_Linv(0), "n must be >= 1"),
    ], ids=["ragged", "ragged-non-int", "matmul-mismatch", "zero-spectral-norm", "non-square-spectral-norm",
            "cholesky-n0", "linv-n0"])
    def test_refusals_and_zero_norm(self, call, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(expected)):
                call()
        else:
            assert call() == expected


class TestBinomial:
    def test_integer(self):
        assert binomial(4, 2) == 6

    def test_zero_order(self):
        assert binomial(Fraction(-1, 3), 0) == 1

    def test_rational(self):
        assert binomial(Fraction(-1, 4), 2) == Fraction(5, 32)

    def test_real(self):
        v = binomial(-0.25, 2)
        assert abs(float(v) - 5 / 32) < 1e-15

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=10))
    def test_pascal_rule(self, a, k):
        assert binomial(a, k) + binomial(a, k + 1) == binomial(a + 1, k + 1)
