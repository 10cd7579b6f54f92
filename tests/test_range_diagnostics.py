import math
import random
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hausmom import range_diagnostics
from hausmom.functions import abs_kink, peak
from hausmom.moment_ops import MomentSequence, exact_polynomial_moments, forward_moments, reconstruction_norm_sq_exact
from hausmom.range_diagnostics import (
    build_DN,
    build_RN,
    forward_differences,
    hausdorff_criterion,
    lacunary_stability_bound,
    stable_family,
    tn_diagonal,
    verify_TN_identity,
)
from hausmom.stability_lab import NoiseModel, noisy_data
from oracles import (
    closed_form_RN,
    comb_stencil,
    hilbert_polynomial_moments,
    loop_criterion,
    loop_forward_difference,
    loop_polynomial_moments,
    same,
    witness_section_eigenvalues,
)
from strategies import EXACT_COEFFS, EXACT_DATA, FLOAT_DATA


def _unit_sequence(n):
    return MomentSequence([Fraction(1)] + [Fraction(0)] * (n - 1))


class TestLoopOracles:
    @settings(max_examples=200, deadline=None)
    @given(EXACT_DATA, FLOAT_DATA, st.data())
    def test_matches_per_entry_loops(self, exact, floating, data):
        # forward_differences at a drawn (m, n) on rational data and on data holding a float;
        # TestCriterion in test_moment_ints.py checks hausdorff_criterion against the loops
        for values in (exact, floating):
            m = data.draw(st.integers(0, len(values) - 1))
            n = data.draw(st.integers(0, len(values) - 1 - m))
            got = forward_differences(MomentSequence(values), m, n)
            assert same(got, loop_forward_difference(values, m, n))

    @settings(max_examples=200, deadline=None)
    @given(EXACT_COEFFS, st.integers(0, 40))
    def test_polynomial_moments_match_loop(self, coeffs, n):
        # rational coefficients, against the per-entry loop and the RationalMatrix product H c;
        # TestPolynomialMoments in test_moment_ints.py takes coefficients holding a float
        got = exact_polynomial_moments(coeffs, n).values
        assert len(got) == n and all(type(v) is Fraction for v in got)
        assert list(got) == loop_polynomial_moments(coeffs, n) == hilbert_polynomial_moments(coeffs, n)

    def test_RN_matches_closed_form(self):
        for N in range(1, 31):
            assert build_RN(N).entries == closed_form_RN(N)


class TestStencilTable:
    def test_rows_grow_out_of_order(self, monkeypatch):
        # from a fresh one-row table: a held row survives the table's growth unchanged
        monkeypatch.setattr(range_diagnostics, "_STENCILS", ((1,),))
        held = range_diagnostics._stencil(50)
        assert range_diagnostics._stencil(10) == tuple(comb_stencil(10))
        range_diagnostics._stencil(120)
        assert range_diagnostics._stencil(50) is held == tuple(comb_stencil(50))
        for n in range(201):
            row = range_diagnostics._stencil(n)
            assert type(row) is tuple and list(row) == comb_stencil(n)
        assert len(range_diagnostics._STENCILS) == 201

    @pytest.mark.parametrize("kind", ["quadrature", "noisy"])
    def test_float_arms_match_comb_formula(self, kind):
        # hex for hex against the per-entry loops over math.comb, every level N <= 60
        y = forward_moments(peak(), 61)
        if kind == "noisy":
            y = noisy_data(y, NoiseModel(1e-8, seed=5))
        values = list(y.values)
        for N in range(61):
            stats = hausdorff_criterion(y, N)
            lam, crit = loop_criterion(values, N)
            assert [v.hex() for v in stats.lam] == [v.hex() for v in lam]
            assert stats.criterion_value.hex() == crit.hex()
            for m in range(N + 1):
                assert forward_differences(y, m, N - m).hex() == loop_forward_difference(values, m, N - m).hex()


class TestForwardDifferences:
    def test_beta_integral_identity(self):
        # for moments of 1, mu_{m,n} = integral of t^m (1-t)^n = m! n! / (m+n+1)!
        y = exact_polynomial_moments((1,), 14)
        for m in range(6):
            for n in range(6):
                expect = Fraction(math.factorial(m) * math.factorial(n),
                                  math.factorial(m + n + 1))
                assert forward_differences(y, m, n) == expect

    def test_order_zero(self):
        y = exact_polynomial_moments((0, 1), 5)
        assert forward_differences(y, 2, 0) == Fraction(1, 4)

    def test_unit_sequence(self):
        y = _unit_sequence(8)
        for n in range(7):
            assert forward_differences(y, 0, n) == 1

    def test_index_overflow(self):
        with pytest.raises(ValueError):
            forward_differences(exact_polynomial_moments((1,), 3), 2, 2)

    def test_float_mode_matches_exact(self):
        y_exact = exact_polynomial_moments((1, -2, 3), 12)
        y_float = MomentSequence([float(v) for v in y_exact.values])
        for m, n in ((0, 5), (3, 4), (2, 8)):
            assert forward_differences(y_float, m, n) == pytest.approx(
                float(forward_differences(y_exact, m, n)), abs=1e-13)


class TestHausdorffCriterion:
    def test_moments_of_one_telescopes(self):
        y = exact_polynomial_moments((1,), 25)
        for N in range(1, 21):
            st = hausdorff_criterion(y, N)
            assert st.criterion_value == 1
            assert all(v == Fraction(1, N + 1) for v in st.lam)

    def test_moments_of_t_bounded(self):
        y = exact_polynomial_moments((0, 1), 25)
        vals = [hausdorff_criterion(y, N).criterion_value for N in range(1, 21)]
        assert all(v <= Fraction(1, 2) for v in vals)

    def test_unit_sequence_diverges(self):
        # only lambda_{N,0} survives, so the criterion grows like N+1:
        # unbounded, hence not the moment sequence of an L2 function
        y = _unit_sequence(30)
        for N in (5, 10, 20):
            st = hausdorff_criterion(y, N)
            assert st.criterion_value == N + 1
            assert st.picard_partial == (N + 1) ** 2


class TestStructuredMatrices:
    def test_RN_n2(self):
        assert build_RN(2).entries == [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]

    def test_RN_unit_diagonal(self):
        for N in (1, 7, 20):
            r = build_RN(N)
            assert all(r[i, i] == 1 for i in range(N))

    def test_DN_entries(self):
        weight, diag = build_DN(3)
        assert weight == 3
        assert diag[1, 1] == 2
        assert diag[2, 2] == 1

    def test_TN_small_values(self):
        assert tn_diagonal(1) == [Fraction(1)]
        assert tn_diagonal(2) == [Fraction(1), Fraction(1, 3)]
        assert tn_diagonal(3) == [Fraction(1), Fraction(1, 2), Fraction(1, 10)]

    def test_TN_monotone_in_k_and_N(self):
        for N in (5, 20, 60):
            d = tn_diagonal(N)
            assert all(a > b for a, b in zip(d, d[1:]))
        # t_1 = 1 identically; for k >= 2 the entries climb toward 1 with N
        for k in range(1, 5):
            col = [tn_diagonal(N)[k] for N in (10, 20, 40, 60)]
            assert all(b > a for a, b in zip(col, col[1:]))
            assert col[-1] < 1

    def test_VN_identity(self):
        for N in (1, 2, 3, 8):
            holds, residual = verify_TN_identity(N)
            assert holds
            assert residual.is_zero()


def _picard(y, n):
    """||P_n Linv y||^2, the Picard partial sum over the first n moments, as
    the level n - 1 criterion reports it."""
    return hausdorff_criterion(y, n - 1).picard_partial


class TestPicard:
    def test_moments_of_one(self):
        y = exact_polynomial_moments((1,), 12)
        assert all(_picard(y, n) == 1 for n in (1, 4, 8, 12))

    def test_moments_of_t_parseval(self):
        y = exact_polynomial_moments((0, 1), 10)
        assert all(_picard(y, n) == Fraction(1, 3) for n in (2, 6, 10))

    def test_unit_sequence_square_law(self):
        y = _unit_sequence(16)
        assert all(_picard(y, n) == n**2 for n in range(1, 16))

    @pytest.mark.parametrize("levels", [[-1], [0, 2]])
    def test_refuses_level_below_one(self, levels):
        # Picard level n is criterion level n - 1, refused below 0
        with pytest.raises(ValueError, match="N must be >= 0"):
            _picard(_unit_sequence(4), min(levels))

    @pytest.mark.xfail(strict=True, reason="the float Picard branch rounds M's entries and products; "
                       "moving float data onto the exact path re-pins the moment_data golden")
    def test_float_data_matches_exact_sum(self):
        y = forward_moments(abs_kink(), 24)
        partial = _picard(y, 24)
        assert partial == pytest.approx(float(reconstruction_norm_sq_exact(y)), rel=1e-9)

    def test_statistic_equivalence(self):
        # ||D_N R_N P_N y||^2 = ||T_N^(1/2) P_N Linv y||^2, exactly, on range members;
        # the left side is also the level N-1 criterion value
        from hausmom.exact_core import inverse_factor_Linv

        for coeffs in ((1,), (0, 1), (2, -1, 3), (Fraction(1, 3), 0, Fraction(-5, 7))):
            y = exact_polynomial_moments(coeffs, 16)
            for N in (1, 3, 8, 15, 16):
                vals = [Fraction(v) for v in y.values[:N]]
                r = build_RN(N)
                weight, diag = build_DN(N)
                ry = [sum(r[i, j] * vals[j] for j in range(N)) for i in range(N)]
                lhs = weight * sum((diag[i, i] * ry[i]) ** 2 for i in range(N))
                crit = hausdorff_criterion(y, N - 1).criterion_value
                assert type(crit) is Fraction and crit == lhs
                part = inverse_factor_Linv(N).rational_part
                inners = [sum(part[i, j] * vals[j] for j in range(i + 1)) for i in range(N)]
                tn = tn_diagonal(N)
                rhs = sum(tn[i] * (2 * i + 1) * inners[i] ** 2 for i in range(N))
                assert lhs == rhs


class TestStableFamily:
    def test_l2_norm_closed_form(self):
        assert stable_family(-0.25, 10).l2_function_norm_sq == pytest.approx(2.0)

    def test_hardy_norm(self):
        target = float(mp.sqrt(mp.pi) / mp.gamma(mp.mpf(3) / 4) ** 2)
        got = stable_family(-0.25, 10).hardy_norm_sq
        assert got == pytest.approx(target, abs=1e-8)

    def test_hardy_norm_gamma_identity(self):
        # sum of C(alpha,k)^2 = Gamma(1+2a)/Gamma(1+a)^2 at 40 digits, across the family
        for alpha in [-0.5 * i / 51 for i in range(1, 51)] + [-0.45, -0.49]:
            with mp.workdps(40):
                a = mp.mpf(alpha)
                target = mp.gamma(1 + 2 * a) / mp.gamma(1 + a) ** 2
                err = abs(stable_family(alpha, 10).hardy_norm_sq - target)
            assert err <= 4 * math.ulp(float(target)), alpha

    def test_hardy_norm_matches_mpmath_on_grid(self):
        # the Weierstrass product and Stirling tail give the 300-bit Gamma ratio rounded once:
        # the 52 alpha above, the ends of (-1/2, 0) and a fixed random set
        rng = random.Random(46)
        alphas = ([-0.5 * i / 51 for i in range(1, 51)] + [-0.45, -0.49, -0.4999999, -1e-9, -5e-324,
                  math.nextafter(-0.5, 0)] + [-0.5 * rng.random() for _ in range(40)])
        for alpha in alphas:
            with mp.workprec(300):
                a = mp.mpf(alpha)
                target = float(mp.gamma(1 + 2 * a) / mp.gamma(1 + a) ** 2)
            assert stable_family(alpha, 1).hardy_norm_sq == target, alpha

    def test_positive_and_monotone(self):
        for alpha in (-0.1, -0.25, -0.4):
            c = stable_family(alpha, 10_000).coeffs
            assert np.all(c > 0)
            assert np.all(np.diff(c) < 0)

    def test_power_law_envelope(self):
        alpha = -0.3
        c = stable_family(alpha, 10_000).coeffs
        j = np.arange(1, len(c) + 1, dtype=float)
        ratio = c * j ** (1 + alpha)
        assert ratio.max() / ratio.min() < 5.0

    def test_domain_validation(self):
        for bad in (-0.5, 0.0, 0.2, -1.0):
            with pytest.raises(ValueError):
                stable_family(bad, 10)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="J must be >= 1"):
                stable_family(-0.25, bad)
        with pytest.raises(TypeError):
            stable_family(-0.25, 10.5)


class TestTypeOneIllPosedness:
    """A is not compact, and bounded below on the span of the lacunary
    witnesses x_i = sqrt(i) t^i, i = q^(2a); consecutive i are not."""

    def test_non_compactness_bound(self):
        # ||A u_i||^2 for the weakly null unit vectors u_i = sqrt(2i+1) t^i
        with mp.workdps(30):
            norms_sq = [(2 * i + 1) * mp.psi(1, i + 1) for i in range(1, 1001)]
        assert min(norms_sq) > 1.5
        assert [round(float(norms_sq[i - 1]), 5) for i in (1, 2, 10, 100)] == [1.9348, 1.97467, 1.99849, 1.99998]

    def test_certificate_at_q_64(self):
        bound = lacunary_stability_bound(64)
        assert isinstance(bound, Fraction) and bound > Fraction(13, 10)
        assert float(bound) == pytest.approx(1.3755, abs=1e-4)

    @pytest.mark.parametrize("q", [13, 16, 64, 1000])
    def test_certificate_below_every_finite_section(self, q):
        bound = lacunary_stability_bound(q)
        infima = []
        for K in range(2, 6):
            lam_min = witness_section_eigenvalues([q ** (2 * a) for a in range(1, K + 1)])[0]
            assert mp.mpf(bound.numerator) / bound.denominator <= lam_min, K
            infima.append(round(float(mp.sqrt(lam_min)), 3))
        if q == 64:
            assert infima == [1.340, 1.308, 1.292, 1.283]

    def test_consecutive_sections_collapse(self):
        infima = [mp.sqrt(witness_section_eigenvalues(range(1, K + 1))[0]) for K in (4, 8, 16)]
        assert [float(mp.nstr(v, 2)) for v in infima] == [0.13, 0.0027, 6.6e-7]
        assert infima[-1] < 1e-6

    def test_refusals(self):
        assert lacunary_stability_bound(13) > 0
        with pytest.raises(ValueError, match="q must be an integer >= 2"):
            lacunary_stability_bound(1)
        for q in (8, 12):
            with pytest.raises(ValueError, match=f"not diagonally dominant at q = {q}"):
                lacunary_stability_bound(q)
        with pytest.raises(TypeError):
            lacunary_stability_bound(64.0)


class TestEdgeBranches:
    Y3 = exact_polynomial_moments((1,), 3)

    @pytest.mark.parametrize("call, message", [
        (lambda: forward_differences(TestEdgeBranches.Y3, -1, 0), "m and n must be >= 0"),
        (lambda: forward_differences(TestEdgeBranches.Y3, 0, -1), "m and n must be >= 0"),
        (lambda: hausdorff_criterion(TestEdgeBranches.Y3, 3), "level 3 needs 4 moments, have 3"),
        (lambda: build_RN(0), "N must be >= 1"),
        (lambda: build_DN(0), "N must be >= 1"),
        (lambda: tn_diagonal(0), "N must be >= 1"),  # N < 1 returned [], as if T_N had an empty diagonal
        (lambda: tn_diagonal(-1), "N must be >= 1"),
    ], ids=["differences-m-below-0", "differences-n-below-0", "criterion-too-few-moments",
            "RN-0", "DN-0", "TN-0", "TN-negative"])
    def test_refusals(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
