import dataclasses
import importlib.util
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings

from hausmom import functions
from hausmom.functions import (
    abs_kink,
    constant,
    cubic_exp,
    g_alpha,
    monomial_witness,
    peak,
    polynomial,
)
from hausmom.legendre import LegendreExpansion, project
from hausmom.moment_ops import (
    MomentSequence,
    SobolevBudget,
    adjoint_apply,
    exact_polynomial_moments,
    forward_from_expansion,
    forward_moments,
    h1_rate_check,
    projection_error,
    pseudoinverse,
    reconstruction_norm_sq_exact,
    sobolev_norm,
)
from oracles import (
    abs_kink_tail_sq,
    fraction_inner_products,
    matrix_inner_products,
    quad_moments,
    shared_node_moments,
)
from strategies import DATA


BENCH = Path(__file__).resolve().parents[1] / "bench"


class TestMomentSequence:
    def test_n_is_the_length(self):
        assert MomentSequence.from_values([1, Fraction(1, 2), 0.25]).n == 3
        assert MomentSequence((1, 2)).n == 2

    def test_no_separate_n(self):
        with pytest.raises(TypeError):
            MomentSequence((1, 2), 5)


class TestForwardMoments:
    def test_constant(self):
        y = forward_moments(constant(1.0), 3)
        assert np.allclose(y.to_array(), [1.0, 0.5, 1 / 3])

    def test_monomial_witness(self):
        # moments of sqrt(i) t^i are sqrt(i)/(i+j)
        y = forward_moments(monomial_witness(4), 2)
        assert y.values[1] == pytest.approx(math.sqrt(4) / 6)

    def test_linear(self):
        y = forward_moments(polynomial((0, 1)), 2)
        assert np.allclose(y.to_array(), [0.5, 1 / 3])

    def test_polynomials_are_exact(self):
        y = exact_polynomial_moments((Fraction(1, 3), 0, Fraction(2)), 4)
        assert y.values[0] == Fraction(1, 3) + Fraction(2, 3)

    def test_operator_norm_witness(self):
        # ||A f|| <= sqrt(pi) ||f|| for every test function
        for f, norm in ((constant(1.0), 1.0), (polynomial((0, 1)), math.sqrt(1 / 3)),
                        (abs_kink(), math.sqrt(1 / 12))):
            y = forward_moments(f, 200)
            assert np.linalg.norm(y.to_array()) <= math.sqrt(math.pi) * norm + 1e-9

    def test_noncompactness_witness(self):
        # ||A x_i||^2 = i * psi'(i+1) exceeds i/(i+1) and increases to 1,
        # while each fixed component sqrt(i)/(i+j) goes to 0 with i
        norms = []
        for i in (10, 100, 1000):
            nsq = float(i * mp.polygamma(1, i + 1))
            assert nsq > i / (i + 1)
            norms.append(nsq)
        assert norms[0] < norms[1] < norms[2] < 1.0
        assert math.sqrt(1000) / (1000 + 1) < math.sqrt(10) / (10 + 1)

    @pytest.mark.parametrize("n", [1, 8, 40])
    @pytest.mark.parametrize("f", [peak(), cubic_exp(), abs_kink(), g_alpha(-0.25), monomial_witness(3)],
                             ids=["peak", "cubic_exp", "abs_kink", "g_alpha", "monomial_witness"])
    def test_equals_one_quadrature_per_moment(self, f, n):
        assert list(forward_moments(f, n).values) == quad_moments(f, n)

    def test_one_evaluation_per_node(self):
        p = peak()
        nodes = []
        f = functions.TestFunction(value=lambda t: nodes.append(t) or p(t))
        forward_moments(f, 40)
        assert nodes and len(nodes) == len(set(nodes))

    @pytest.mark.parametrize("f", [peak(), cubic_exp(), abs_kink()], ids=["peak", "cubic_exp", "abs_kink"])
    def test_equals_shared_integrand_with_args(self, f):
        # the per-moment closures over float(f(t)) give the moments, hex for
        # hex, of one integrand taking k by args=(k,) over f's float64 values
        want = [float(v).hex() for v in shared_node_moments(f, 40)]
        nodes = []
        counted = dataclasses.replace(f, value=lambda t: nodes.append(t) or f(t))
        assert [v.hex() for v in forward_moments(counted, 40).values] == want
        assert nodes and len(nodes) == len(set(nodes))

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_non_convergence_is_refused(self):
        f = functions.TestFunction(value=lambda t: np.sin(1 / (np.asarray(t) + 1e-9)))
        with pytest.raises(RuntimeError, match="quadrature for moment 1 did not converge"):
            forward_moments(f, 3)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("value", [
        lambda t: np.where(np.asarray(t) > 0.5, np.nan, 1.0),
        lambda t: np.full_like(np.asarray(t, dtype=float), np.inf),
    ], ids=["nan-on-upper-half", "infinite"])
    def test_non_finite_moment_is_refused(self, value):
        # err > bound is False for a NaN err, and for v and err both inf, so the bound alone passes these
        with pytest.raises(RuntimeError, match="quadrature for moment 1 did not converge"):
            forward_moments(functions.TestFunction(value=value), 3)


class TestForwardFromExpansion:
    def test_first_column(self):
        y = forward_from_expansion(LegendreExpansion([1.0]), 5)
        assert np.allclose(y.to_array(), [1 / j for j in range(1, 6)])

    def test_second_column(self):
        y = forward_from_expansion(LegendreExpansion([0.0, 1.0]), 2)
        assert y.values[0] == pytest.approx(0.0)
        assert y.values[1] == pytest.approx(math.sqrt(3) / 6)

    def test_agrees_with_quadrature_path(self):
        f = polynomial((0, 0, 1))
        a = forward_moments(f, 6).to_array()
        b = forward_from_expansion(project(f, 8), 6).to_array()
        assert np.allclose(a, b, atol=1e-9)


class TestAdjoint:
    def test_constant_sequence(self):
        y = MomentSequence.from_values([1.0, 0.0, 0.0])
        assert adjoint_apply(y, 0.4) == 1.0

    def test_two_terms(self):
        y = MomentSequence.from_values([1.0, 1.0])
        assert adjoint_apply(y, 0.5) == pytest.approx(1.5)

    def test_binomial_series(self):
        from oracles import binomial

        alpha = Fraction(-1, 4)
        vals = [float(binomial(alpha, j)) * (-1) ** j for j in range(200)]
        y = MomentSequence.from_values(vals)
        assert adjoint_apply(y, 0.5) == pytest.approx(0.5**-0.25, rel=1e-6)


class TestPseudoinverse:
    def test_recovers_constant(self):
        lam = pseudoinverse(exact_polynomial_moments((1,), 3))
        assert np.allclose(lam.coefficients, [1.0, 0.0, 0.0], atol=1e-14)

    def test_recovers_identity_map(self):
        lam = pseudoinverse(exact_polynomial_moments((0, 1), 2))
        assert np.allclose(lam.coefficients, [0.5, math.sqrt(3) / 6])

    def test_minimum_norm_quadratic_form(self):
        from hausmom.exact_core import inverse_hilbert

        rng = np.random.default_rng(3)
        for n in (2, 5, 8):
            v = [Fraction(x) for x in rng.uniform(-1, 1, n)]
            y = MomentSequence.from_values(v)
            hinv = inverse_hilbert(n)
            expect = sum(hinv[i, j] * v[i] * v[j] for i in range(n) for j in range(n))
            assert reconstruction_norm_sq_exact(y) == expect
            got = float(np.sum(pseudoinverse(y).coefficients ** 2))
            assert got == pytest.approx(float(expect), rel=1e-9)

    def test_large_int_moments_stay_exact(self):
        # 2**53 + 1 has no double; routing it through float drops the 1
        from hausmom.range_diagnostics import picard_partial_sums

        y = MomentSequence.from_values([2**53 + 1])
        assert reconstruction_norm_sq_exact(y) == (2**53 + 1) ** 2
        assert picard_partial_sums(y, [1])[0]["partial"] == (2**53 + 1) ** 2

    def test_deep_truncation_stays_exact(self):
        # double-precision Cholesky of the Hilbert segment dies near n=13;
        # the rational route does not
        n = 20
        lam = pseudoinverse(exact_polynomial_moments((1,), n))
        assert np.allclose(lam.coefficients, [1.0] + [0.0] * (n - 1), atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(DATA)
    def test_matches_fraction_oracle(self, values):
        # against M y as per-entry Fraction sums and as one RationalMatrix product, bit for bit;
        # TestInnerProducts in test_moment_ints.py checks reconstruction_norm_sq_exact against both
        coeffs = pseudoinverse(MomentSequence.from_values(values)).coefficients.tolist()
        xs, den = matrix_inner_products(values)
        assert [c.hex() for c in coeffs] == [(x / den * math.sqrt(2 * i + 1)).hex() for i, x in enumerate(xs)]
        assert coeffs == [float(v) * math.sqrt(2 * i + 1) for i, v in enumerate(fraction_inner_products(values))]

    def test_other_reals_enter_via_float(self):
        # float32 is a dyadic rational; an mpf is rounded to a double, as before
        want = pseudoinverse(MomentSequence.from_values([0.5, 0.25, 0.1])).coefficients
        got32 = pseudoinverse(MomentSequence.from_values(np.array([0.5, 0.25], dtype=np.float32)))
        assert got32.coefficients.tolist() == want[:2].tolist()
        gotmp = pseudoinverse(MomentSequence.from_values([mp.mpf(0.5), mp.mpf(0.25), mp.mpf(0.1)]))
        assert gotmp.coefficients.tolist() == want.tolist()
        ints = [2**40, -(2**40), 2**40]
        got64 = reconstruction_norm_sq_exact(MomentSequence.from_values(np.array(ints, dtype=np.int64)))
        assert got64 == reconstruction_norm_sq_exact(MomentSequence.from_values(ints))


class TestMomentDataGolden:
    def test_reference_round_matches_golden(self, monkeypatch):
        # round 0 of the benchmark's default seed: 36 moment_data operations
        monkeypatch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        oks = child.MomentData(child.DEFAULT_SEED).reference()
        assert len(oks) == 36
        assert all(oks)


class TestProjectionError:
    def test_polynomial_below_truncation(self):
        assert projection_error(polynomial((1, 2, 3)), 5) < 1e-10

    def test_linear_at_n1(self):
        assert projection_error(polynomial((0, 1)), 1) == pytest.approx(1 / math.sqrt(12))

    def test_nested_decay(self):
        f = cubic_exp()
        errs = [projection_error(f, n) for n in (2, 4, 8)]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("n", [40, 80, 120, 150])
    def test_kink_tail_near_exact(self, n):
        # the 4n-coefficient cut reads |t - 1/2|'s tail 0.8 % low at each level
        exact = math.sqrt(abs_kink_tail_sq(n))
        assert abs(projection_error(abs_kink(), n) / exact - 1) < 0.01


class TestSobolevNorm:
    def test_constant(self):
        assert sobolev_norm(constant(1.0), "H1") == pytest.approx(1.0)

    def test_linear_h1(self):
        assert sobolev_norm(polynomial((0, 1)), "H1") == pytest.approx(2 / math.sqrt(3))

    @pytest.mark.parametrize("kind", ["L2", "W1inf", "H3"])
    def test_kinds_are_the_budgets(self, kind):
        # the three kinds a SobolevBudget accepts, no others
        with pytest.raises(ValueError, match="unknown norm kind"):
            sobolev_norm(polynomial((0, 1)), kind)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("kind", ["H1", "H1-seminorm"])
    def test_non_convergence_is_refused(self, kind):
        # each squared norm is a forward_moments integral, which refuses a NaN
        f = functions.TestFunction(value=lambda t: 1.0, derivative=lambda t: math.nan)
        with pytest.raises(RuntimeError, match="did not converge"):
            sobolev_norm(f, kind)

    def test_squared_norms_on_the_breakpoints(self, monkeypatch):
        import hausmom.moment_ops as mo

        calls = []
        monkeypatch.setattr(mo, "forward_moments", lambda g, n: calls.append((g.breakpoints, n)) or forward_moments(g, n))
        assert sobolev_norm(abs_kink(), "H1") == pytest.approx(math.sqrt(1 / 12 + 1))
        assert calls == [((0.5,), 1), ((0.5,), 1)]

    def test_missing_derivative(self):
        from hausmom.functions import g_alpha

        with pytest.raises(ValueError):
            sobolev_norm(g_alpha(-0.25), "H1")


class TestRateCheck:
    def test_linear_is_exact(self):
        rows = h1_rate_check(polynomial((0, 1)), SobolevBudget(E=1.2, kind="H1"), [2, 4])
        assert all(r["ok"] for r in rows)
        assert all(r["error"] < 1e-10 for r in rows)

    def test_kink_bound(self):
        f = abs_kink()
        e = sobolev_norm(f, "H1")
        rows = h1_rate_check(f, SobolevBudget(E=e * 1.001, kind="H1"), [4])
        assert rows[0]["error"] <= rows[0]["bound"]

    @pytest.mark.parametrize("make", [abs_kink, peak])
    def test_errors_are_projection_errors(self, make):
        # one tail rule: at levels up to 24 both read the same 96 coefficients
        f = make()
        rows = h1_rate_check(f, SobolevBudget(E=sobolev_norm(f, "H1") * 1.001, kind="H1"), range(2, 21))
        assert [r["error"] for r in rows] == [projection_error(f, n) for n in range(2, 21)]

    def test_budget_violation(self):
        with pytest.raises(ValueError, match="budget violated"):
            h1_rate_check(polynomial((0, 1)), SobolevBudget(E=0.1, kind="H1"), [2])

    def test_seminorm_budget_measures_the_seminorm(self):
        # |t|_{H1} = 1 although ||t||_{H1} = 2/sqrt(3); a constant has seminorm 0
        rows = h1_rate_check(polynomial((0, 1)), SobolevBudget(E=1.0, kind="H1-seminorm"), [2, 4])
        assert all(r["ok"] for r in rows)
        rows = h1_rate_check(constant(1.0), SobolevBudget(E=0.5, kind="H1-seminorm"), [1, 3])
        assert all(r["ok"] and r["bound"] == 0.5 / (2 * r["n"]) for r in rows)
        with pytest.raises(ValueError, match="budget violated"):
            h1_rate_check(polynomial((0, 2)), SobolevBudget(E=1.0, kind="H1-seminorm"), [2])

    def test_seminorm_rate_bound(self):
        for f in (peak(), cubic_exp(), abs_kink(), polynomial((0, 1))):
            e = sobolev_norm(f, "H1-seminorm")
            rows = h1_rate_check(f, SobolevBudget(E=e * (1 + 1e-12), kind="H1-seminorm"), [1, 2, 4, 8, 16, 24])
            assert all(r["ok"] for r in rows)

    def test_levels_refused_before_quadrature(self, monkeypatch):
        import hausmom.moment_ops as mo

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before the levels were checked")

        monkeypatch.setattr(mo, "sobolev_norm", no_quadrature)
        monkeypatch.setattr(mo, "project", no_quadrature)
        budget = SobolevBudget(E=1.2, kind="H1")
        for levels in ([], [0], [-3], [2, 0], ()):
            with pytest.raises(ValueError, match="levels"):
                mo.h1_rate_check(polynomial((0, 1)), budget, levels)
        for n in (0, -2):
            with pytest.raises(ValueError, match="n must be"):
                mo.projection_error(polynomial((0, 1)), n)

    def test_budget_kind_validation(self):
        with pytest.raises(ValueError):
            SobolevBudget(E=1.0, kind="H3")
        with pytest.raises(ValueError):
            SobolevBudget(E=1.0, kind="W1inf")
        with pytest.raises(ValueError):
            SobolevBudget(E=-1.0)

    @pytest.mark.parametrize("E", [math.nan, math.inf])
    def test_budget_refuses_non_finite_E(self, E):
        # E = inf made the budget check vacuous: polynomial((0, 5)) passed it
        with pytest.raises(ValueError, match="E must be finite and positive"):
            SobolevBudget(E=E)


class TestEdgeBranches:
    @pytest.mark.parametrize("call, message", [
        (lambda: forward_moments(peak(), 0), "n must be >= 1"),
        (lambda: adjoint_apply(MomentSequence.from_values([1.0, 0.5]), 1.5), "t must lie in [0, 1]"),
        (lambda: adjoint_apply(MomentSequence.from_values([1.0, 0.5]), [0.5, -0.5]), "t must lie in [0, 1]"),
        (lambda: adjoint_apply(MomentSequence.from_values([1.0, 0.5]), [0.2, math.nan]), "t must lie in [0, 1]"),
        (lambda: sobolev_norm(abs_kink(), "H2"), "second derivative required for H2 norm"),
        # NaN raised "cannot convert NaN to integer ratio", an infinity an OverflowError
        (lambda: forward_from_expansion(LegendreExpansion([1.0, math.nan]), 3), "values must be finite real numbers"),
        (lambda: forward_from_expansion(LegendreExpansion([1.0, math.inf]), 3), "values must be finite real numbers"),
        (lambda: forward_from_expansion(LegendreExpansion([-math.inf]), 3), "values must be finite real numbers"),
    ], ids=["forward-moments-n0", "adjoint-above-one", "adjoint-below-zero", "adjoint-nan",
            "h2-without-second-derivative", "expansion-nan", "expansion-inf", "expansion-minus-inf"])
    def test_refusals(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
