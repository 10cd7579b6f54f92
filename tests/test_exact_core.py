import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from hausmom.exact_core import (
    RationalMatrix,
    SpectralNormError,
    back_substitution_inverse,
    binomial,
    cholesky_factor_L,
    hilbert_matrix,
    inverse_factor_Linv,
    inverse_hilbert,
    spectral_norm,
)


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
        with pytest.raises(SpectralNormError) as exc:
            spectral_norm(inverse_hilbert(8), max_iter=2)
        assert exc.value.iterations == 2

    def test_monotone_in_n(self):
        lams = [spectral_norm(inverse_hilbert(n)) for n in range(2, 9)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("m", [inverse_hilbert(12), hilbert_matrix(6)], ids=["inverse_hilbert", "hilbert"])
    def test_matches_eigsy(self, m):
        # hilbert_matrix has Fraction entries, so this also covers the
        # lcm-scaled path; tol 1e-20 leaves a Rayleigh quotient error ~1e-40
        lam = spectral_norm(m)
        with mp.workprec(256):
            ref = max(mp.eigsy(mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row] for row in m.entries]),
                               eigvals_only=True))
            assert abs(lam - ref) / ref < mp.mpf("1e-35")

    @pytest.mark.xfail(strict=True, reason="the all-ones start vector is the eigenvector for 1; "
                                           "a start vector that reaches the top eigenvalue is ROADMAP item 3")
    def test_largest_eigenvalue_of_orthogonal_start(self):
        m = RationalMatrix([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]])
        assert spectral_norm(m) == 2


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
