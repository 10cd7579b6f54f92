"""The moment statistics on int dot products over one common denominator,
against every oracle in tests/oracles.py that computes them another way."""

import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hausmom import exact_core, range_diagnostics
from hausmom.exact_core import RationalMatrix
from hausmom.functions import polynomial
from hausmom.moment_ops import MomentSequence, exact_polynomial_moments, pseudoinverse, reconstruction_norm_sq_exact
from hausmom.range_diagnostics import forward_differences, hausdorff_criterion, picard_partial_sums
from oracles import float_picard_partial, fraction_inner_products, hilbert_polynomial_moments, loop_criterion
from oracles import loop_polynomial_moments, matrix_criterion, matrix_inner_products, same
from strategies import DATA, EXACT_DATA, FLOAT_COEFFS, FLOAT_DATA


def _hex(values):
    return [float(v).hex() for v in values]


def _criterion_matches_loops(values, data):
    """hausdorff_criterion at a drawn N against the per-entry loops."""
    y = MomentSequence.from_values(values)
    N = data.draw(st.integers(0, len(values) - 1))
    stats = hausdorff_criterion(y, N)
    lam, crit = loop_criterion(values, N)
    assert len(stats.lam) == len(lam) and all(map(same, stats.lam, lam))
    assert same(stats.criterion_value, crit)
    return y, N, stats


class TestInnerProducts:
    @settings(max_examples=150, deadline=None)
    @given(DATA)
    def test_match_matrix_product(self, values):
        # reconstruction_norm_sq_exact from M y as one RationalMatrix product and as per-entry
        # Fraction sums; TestPseudoinverse in test_moment_ops.py checks pseudoinverse against both
        xs, den = matrix_inner_products(values)
        norm = reconstruction_norm_sq_exact(MomentSequence.from_values(values))
        assert type(norm) is Fraction
        assert norm == Fraction(sum((2 * i + 1) * x * x for i, x in enumerate(xs)), den * den)
        assert norm == sum((2 * i + 1) * v * v for i, v in enumerate(fraction_inner_products(values)))

    def test_one_pseudoinverse_builds_one_matrix(self, monkeypatch):
        # the only RationalMatrix is the one inverse_factor_Linv returns,
        # by either constructor
        depth, builds = [0], []
        init, from_rows, linv = RationalMatrix.__init__, RationalMatrix._from_int_rows, exact_core.inverse_factor_Linv

        def counting_init(self, *args, **kwargs):
            builds.append(depth[0])
            init(self, *args, **kwargs)

        def counting_from_rows(cls, num):
            builds.append(depth[0])
            return from_rows(num)

        def counting_linv(n):
            depth[0] += 1
            try:
                return linv(n)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(RationalMatrix, "__init__", counting_init)
        monkeypatch.setattr(RationalMatrix, "_from_int_rows", classmethod(counting_from_rows))
        monkeypatch.setattr(exact_core, "inverse_factor_Linv", counting_linv)
        y = MomentSequence.from_values([Fraction(1, 3), 0.25, 7, np.float32(0.5)] * 10)
        pseudoinverse(y)
        assert builds == [1]
        builds.clear()
        exact_polynomial_moments((1, Fraction(-2, 3), 0.5), 40)
        assert builds == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf)])
    def test_refuses_non_finite(self, bad):
        y = MomentSequence.from_values([1.0, bad, Fraction(1, 3)])
        for fn in (pseudoinverse, reconstruction_norm_sq_exact):
            with pytest.raises(ValueError, match="values must be finite"):
                fn(y)

    def test_numpy_integers_enter_exactly(self):
        big = 2**60 + 1  # no double holds it
        got = reconstruction_norm_sq_exact(MomentSequence.from_values(np.array([big], dtype=np.int64)))
        assert got == big * big
        # the range statistics take the exact path for numpy integers too
        y = MomentSequence.from_values(np.array([big, 3], dtype=np.int64))
        stats = hausdorff_criterion(y, 1)
        assert all(type(v) is Fraction for v in stats.lam) and stats.lam == (big - 3, 3)
        assert stats.picard_partial == reconstruction_norm_sq_exact(y)
        assert forward_differences(y, 0, 1) == big - 3 and type(forward_differences(y, 0, 1)) is Fraction


class TestCriterion:
    @settings(max_examples=200, deadline=None)
    @given(EXACT_DATA, st.data())
    def test_exact_matches_matrix_product(self, values, data):
        # against the per-entry loops and the RationalMatrix products; TestLoopOracles in
        # test_range_diagnostics.py checks forward_differences against its loop
        _, N, stats = _criterion_matches_loops(values, data)
        lam, crit = matrix_criterion(values, N)
        assert all(type(v) is Fraction for v in stats.lam) and stats.lam == lam
        assert type(stats.criterion_value) is Fraction and stats.criterion_value == crit
        assert stats.picard_partial == reconstruction_norm_sq_exact(MomentSequence.from_values(values[:N + 1]))

    @settings(max_examples=100, deadline=None)
    @given(FLOAT_DATA, st.data())
    def test_float_path_bit_for_bit(self, values, data):
        # the per-entry loops, the per-m forward differences and the float Picard sum
        y, N, stats = _criterion_matches_loops(values, data)
        lam = [math.comb(N, m) * forward_differences(y, m, N - m) for m in range(N + 1)]
        assert _hex(stats.lam) == _hex(lam)
        assert _hex([stats.criterion_value]) == _hex([(N + 1) * math.fsum(v * v for v in lam)])
        assert _hex([stats.picard_partial]) == _hex([float_picard_partial(values[:N + 1])])
        rows = picard_partial_sums(y, [N + 1])
        assert _hex([rows[0]["partial"]]) == _hex([stats.picard_partial])

    def test_exactness_decided_once(self, monkeypatch):
        # one window read per call, whether the data are exact or float
        calls = []
        window = range_diagnostics._window
        monkeypatch.setattr(range_diagnostics, "_window", lambda *args: calls.append(1) or window(*args))
        for values in ([Fraction(1, k) for k in range(1, 21)], [1 / k for k in range(1, 21)]):
            y = MomentSequence.from_values(values)
            for call in (lambda: hausdorff_criterion(y, 19), lambda: forward_differences(y, 3, 12),
                         lambda: picard_partial_sums(y, [1, 10, 20])):
                call()
                assert len(calls) == 1
                calls.clear()

    @pytest.mark.parametrize("values", [[1, Fraction(1, 2), 3], [1.0, 0.5, 0.25]])
    def test_refuses_negative_level_before_any_work(self, values, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(exact_core, "inverse_factor_Linv", no_work)
        with pytest.raises(ValueError, match="N must be >= 0"):
            hausdorff_criterion(MomentSequence.from_values(values), -1)

    @pytest.mark.parametrize("values", [[math.inf, 1.0], [0.5, math.nan, 0.25], [1, Fraction(1, 2), -math.inf]])
    def test_refuses_non_finite(self, values):
        y = MomentSequence.from_values(values)
        with pytest.raises(ValueError, match="moments must be finite"):
            hausdorff_criterion(y, len(values) - 1)
        with pytest.raises(ValueError, match="moments must be finite"):
            picard_partial_sums(y, [len(values)])
        with pytest.raises(ValueError, match="moments must be finite"):
            forward_differences(y, 0, len(values) - 1)


class TestPolynomialMoments:
    @settings(max_examples=150, deadline=None)
    @given(FLOAT_COEFFS, st.integers(0, 40))
    def test_match_hilbert_product(self, coeffs, n):
        # coefficients holding a float, against the RationalMatrix product H c and the per-entry
        # loop; TestLoopOracles in test_range_diagnostics.py takes rational coefficients
        got = exact_polynomial_moments(coeffs, n).values
        assert len(got) == n and all(type(v) is Fraction for v in got)
        assert list(got) == hilbert_polynomial_moments(coeffs, n) == loop_polynomial_moments(coeffs, n)

    def test_refuses_negative_n(self):
        # a negative n used to slice from the end: (3, 23/12) for n = -1
        with pytest.raises(ValueError, match="n must be >= 0"):
            exact_polynomial_moments((1, 2, 3), -1)

    def test_zero_n_is_empty(self):
        assert exact_polynomial_moments((1, 2, 3), 0).values == ()

    def test_refuses_non_finite_coefficient(self):
        with pytest.raises(ValueError, match="values must be finite"):
            exact_polynomial_moments((1, math.nan), 3)


class TestOneInputRule:
    """Every exact reader takes an outside number by ``_common_den``'s one rule:
    the same exact value everywhere, or the same exception everywhere."""

    @pytest.mark.parametrize("v, want", [
        (np.float32(0.5), Fraction(1, 2)),
        (Decimal("0.1"), Fraction(1, 10)),
        (mp.mpf("0.1"), Fraction(0.1)),  # any other real is rounded to a double
        ("1/3", ValueError),  # text is read by float(); RationalMatrix took it as 1/3
        (math.inf, ValueError),
        (math.nan, ValueError),
        (np.int64(2**60 + 1), 2**60 + 1),  # no double holds it
        ("0.5", Fraction(1, 2)),
    ], ids=["float32", "Decimal", "mpf", "str-ratio", "inf", "nan", "int64", "str-float"])
    def test_same_value_or_refusal_everywhere(self, v, want):
        readers = {
            "matrix": lambda: RationalMatrix([[v]]).entries[0][0],
            "polynomial": lambda: polynomial((v,)).poly_coeffs[0],
            "moments": lambda: exact_polynomial_moments((v,), 1).values,
            "moments of poly_coeffs": lambda: exact_polynomial_moments(polynomial((v,)).poly_coeffs, 1).values,
            "norm": lambda: reconstruction_norm_sq_exact(MomentSequence((v,))),  # (M y)_1 = y_1, squared
        }
        if isinstance(want, type):
            for read in readers.values():
                with pytest.raises(want):
                    read()
            return
        got = {name: read() for name, read in readers.items()}
        assert got == {"matrix": want, "polynomial": want, "moments": (want,), "moments of poly_coeffs": (want,),
                       "norm": want * want}
        assert type(got["polynomial"]) is Fraction and type(got["norm"]) is Fraction
