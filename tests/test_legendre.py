import math
import re

import numpy as np
import pytest

from hausmom import legendre
from hausmom.functions import abs_kink, constant, g_alpha, peak, polynomial
from hausmom.legendre import (
    LegendreExpansion,
    QuadratureRule,
    basis_matrix,
    expansion_eval,
    l2_distance,
    project,
)
from hausmom.moment_ops import projection_error
from oracles import fresh_composite, fresh_gauss


def _unit(k):
    """The expansion whose only coefficient is 1 on L_k."""
    return LegendreExpansion([0.0] * k + [1.0])


class TestLegendreEval:
    # L_k(t) is row k of basis_matrix; expansion_eval of the unit vector on L_k is the public route
    def test_degree_zero(self):
        assert np.array_equal(basis_matrix(1, [0.0, 0.3, 1.0]), [[1.0, 1.0, 1.0]])

    def test_degree_one_midpoint(self):
        assert basis_matrix(2, [0.5])[1, 0] == 0.0 == expansion_eval(_unit(1), 0.5)

    def test_degree_one_endpoint(self):
        assert basis_matrix(2, [1.0])[1, 0] == pytest.approx(math.sqrt(3))

    def test_domain_check(self):
        with pytest.raises(ValueError, match=re.escape("t must lie in [0, 1]")):
            expansion_eval(_unit(3), 1.5)

    def test_amplitude_bound(self):
        # |P_k| <= 1 on the interval, so |L_k| <= sqrt(2k+1)
        t = np.linspace(0.0, 1.0, 1001)
        rows = basis_matrix(201, t)
        for k in (5, 50, 200):
            assert np.max(np.abs(rows[k])) <= math.sqrt(2 * k + 1) + 1e-9
            assert np.array_equal(expansion_eval(_unit(k), t), _unit(k).coefficients @ rows[:k + 1])


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for rule in (QuadratureRule.gauss(12), QuadratureRule.composite(8, [0.0, 0.3, 1.0]),
                     QuadratureRule.endpoint_graded(10)):
            assert np.sum(rule.weights) == pytest.approx(1.0)

    def test_orthonormality(self):
        rule = QuadratureRule.gauss(30)
        from hausmom.legendre import basis_matrix

        b = basis_matrix(13, rule.nodes)
        gram = (b * rule.weights) @ b.T
        assert np.allclose(gram, np.eye(13), atol=1e-12)
        assert basis_matrix(0, rule.nodes).shape == (0, 30)

    def test_gauss_is_bit_equal_to_fresh_leggauss(self):
        graded = [0.0] + [1.0 - 2.0 ** -l for l in range(1, 41)] + [1.0]
        cases = ((12, (0.0, 1.0)), (48, (0.25, 0.5)), (12, (0.5, 1.0)), (1, (0.0, 1.0)),
                 (8, (0, 0.5, 1)), (48, (0.0, 0.3, 0.7, 1.0)), (154, graded))
        for _ in range(2):
            for npts, bps in cases:
                rule = QuadratureRule.composite(npts, bps)
                x, w = fresh_composite(npts, bps)
                assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)
        for npts in (1, 12, 48):
            rule = QuadratureRule.gauss(npts)
            x, w = fresh_gauss(npts, (0.0, 1.0))
            assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)
        # the graded rule is the fresh composite with nodes at 1.0 moved below it
        for npts in (10, 154, 168):
            x, w = fresh_composite(npts, graded)
            x[x >= 1.0] = np.nextafter(1.0, 0.0)
            for rule in (QuadratureRule.endpoint_graded(npts),
                         legendre._projector(*legendre._rule_key(g_alpha(-0.25), npts - 8))[0]):
                assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)
        for f, bps in ((peak(), (0.0, 1.0)), (abs_kink(), (0.0, 0.5, 1.0))):
            x, w = fresh_composite(48, bps)
            rule = legendre._projector(*legendre._rule_key(f, 40))[0]
            assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)
        # a write into one rule's arrays raises, so it reaches no later rule
        rule = QuadratureRule.gauss(12)
        for a in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                a[:] = 0.0
        for interval in ((0.0, 1.0), (-1.0, 1.0)):
            again = QuadratureRule.composite(12, interval)
            x, w = fresh_gauss(12, interval)
            assert np.array_equal(again.nodes, x) and np.array_equal(again.weights, w)

    def test_endpoint_graded_runs_leggauss_once(self, monkeypatch):
        # _leggauss reads numpy's leggauss at call time, so the patch goes on numpy's module
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting_leggauss(npts):
            calls.append(npts)
            return real(npts)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
        legendre._leggauss.cache_clear()
        rule = QuadratureRule.endpoint_graded(48)
        assert calls == [48]
        assert len(rule.nodes) == 41 * 48
        QuadratureRule.composite(48, [0.0, 0.5, 1.0])
        QuadratureRule.gauss(10)
        assert calls == [48, 10]

    @pytest.mark.parametrize("m", [145, 146, 160, 200])
    def test_endpoint_graded_nodes_stay_below_one(self, m):
        rule = legendre._projector(*legendre._rule_key(g_alpha(-0.25), m))[0]
        assert rule.nodes.max() < 1
        assert np.all(np.isfinite(project(g_alpha(-0.25), m).coefficients))


class TestProject:
    def test_constant(self):
        e = project(constant(1.0), 3)
        assert np.allclose(e.coefficients, [1.0, 0.0, 0.0], atol=1e-14)

    def test_linear(self):
        e = project(polynomial((0, 1)), 2)
        assert e.coefficients[0] == pytest.approx(0.5)
        assert e.coefficients[1] == pytest.approx(math.sqrt(3) / 6)

    def test_parseval_linear(self):
        e = project(polynomial((0, 1)), 8)
        assert sum(e.coefficients**2) == pytest.approx(1 / 3)

    def test_round_trip_polynomial(self):
        f = polynomial((1, -2, 0, 3))
        e = project(f, 6)
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 1, 50)
        assert np.allclose(expansion_eval(e, t), f(t), rtol=1e-10, atol=1e-12)

    def test_refuses_negative_m_before_the_cache(self):
        # numpy raised "negative dimensions are not allowed"
        misses = legendre._cached_projector.cache_info().misses
        with pytest.raises(ValueError, match=re.escape("m must be >= 0")):
            project(peak(), -1)
        assert legendre._cached_projector.cache_info().misses == misses

    def test_refuses_non_integer_m(self):
        # numpy raised "deg must be an integer, received 10.5" from leggauss(m + 8)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            project(peak(), 2.5)
        assert project(peak(), np.int64(3)).m == 3
        assert project(peak(), 0).m == 0

    def test_graded_projection_error_finite_and_non_increasing(self):
        errs = [projection_error(g_alpha(-0.25), n) for n in range(30, 51)]
        assert all(map(math.isfinite, errs))
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("m", [10, 64, 100, 145])
    def test_graded_projection_unchanged_below_moved_nodes(self, m):
        f = g_alpha(-0.25)
        rule = QuadratureRule.composite(m + 8, [0.0] + [1.0 - 2.0 ** -l for l in range(1, 41)] + [1.0])
        unfixed = basis_matrix(m, rule.nodes) @ (f(rule.nodes) * rule.weights)
        assert [x.hex() for x in project(f, m).coefficients] == [x.hex() for x in unfixed]


class TestProjectorCache:
    FUNCTIONS = [peak(), abs_kink(), g_alpha(-0.25), polynomial((1, -2, 0, 3))]
    IDS = ["peak", "abs_kink", "g_alpha", "polynomial"]

    def test_one_basis_per_key(self, monkeypatch):
        calls = []
        real = legendre.basis_matrix

        def counting_basis(m, t):
            calls.append(m)
            return real(m, t)

        monkeypatch.setattr(legendre, "basis_matrix", counting_basis)
        legendre._cached_projector.cache_clear()
        try:
            for _ in range(3):
                for f in (peak(), polynomial((0, 1)), abs_kink(), g_alpha(-0.25)):
                    project(f, 8)
                project(peak(), 12)
            # peak and the polynomial share the key (8, (), False)
            assert sorted(calls) == [8, 8, 8, 12]
        finally:
            legendre._cached_projector.cache_clear()

    def test_cached_arrays_are_read_only(self):
        project(abs_kink(), 8)
        rule, basis = legendre._cached_projector(*legendre._rule_key(abs_kink(), 8))
        for a in (rule.nodes, rule.weights, basis):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_cache_is_bounded(self):
        maxsize = legendre._cached_projector.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 16
        for m in range(1, maxsize + 4):
            project(peak(), m)
        assert legendre._cached_projector.cache_info().currsize == maxsize
        # above the cap the tables are built per call and never kept
        before = legendre._cached_projector.cache_info()
        project(abs_kink(), legendre._CACHED_M_MAX + 1)
        assert legendre._cached_projector.cache_info() == before

    @pytest.mark.parametrize("m", [1, 8, 40])
    @pytest.mark.parametrize("f", FUNCTIONS, ids=IDS)
    def test_matches_uncached_projection(self, f, m):
        rule = legendre._projector(*legendre._rule_key(f, m))[0]
        want = basis_matrix(m, rule.nodes) @ (f(rule.nodes) * rule.weights)
        for _ in range(2):  # a cache miss, then a hit
            assert [x.hex() for x in project(f, m).coefficients] == [x.hex() for x in want]


class TestExpansionEval:
    def test_constant_expansion(self):
        e = LegendreExpansion([1.0, 0.0, 0.0])
        assert expansion_eval(e, 0.7) == pytest.approx(1.0)

    def test_reconstructs_identity(self):
        e = LegendreExpansion([0.5, math.sqrt(3) / 6])
        assert expansion_eval(e, 0.3) == pytest.approx(0.3)

    def test_zero(self):
        e = LegendreExpansion([0.0] * 4)
        assert expansion_eval(e, 0.2) == 0.0

    def test_grid_entries_are_scalar_calls(self):
        # a 2-D t gives values of its shape: bit for bit those of its raveled entries and of
        # scalar calls, since each point's terms are added in one fixed order
        e = LegendreExpansion([0.3, -1.1, 0.7, 2.5, -0.4])
        t = np.array([[0.0, 0.125, 0.3], [0.5, 0.77, 1.0]])
        vals = expansion_eval(e, t)
        assert vals.shape == (2, 3)
        assert [v.hex() for v in vals.ravel()] == [v.hex() for v in expansion_eval(e, t.ravel())]
        assert [v.hex() for v in vals.ravel()] == [expansion_eval(e, float(x)).hex() for x in t.ravel()]
        assert type(expansion_eval(e, np.float64(0.3))) is float == type(expansion_eval(e, np.array(0.3)))
        with pytest.raises(ValueError, match=re.escape("t must lie in [0, 1]")):
            expansion_eval(e, t + 0.5)


class TestL2Distance:
    def test_identical(self):
        e = LegendreExpansion([1.0, 2.0])
        assert l2_distance(e, e) == 0.0

    def test_orthogonal_units(self):
        a = LegendreExpansion([1.0, 0.0])
        b = LegendreExpansion([0.0, 1.0])
        assert l2_distance(a, b) == pytest.approx(math.sqrt(2))

    def test_zero_padding(self):
        a = LegendreExpansion([0.5, math.sqrt(3) / 6])
        b = LegendreExpansion([0.5])
        assert l2_distance(a, b) == pytest.approx(math.sqrt(3) / 6)


class TestEdgeBranches:
    @pytest.mark.parametrize("call, expected", [
        # f returns one float for all nodes; project broadcasts it
        (lambda: project(lambda t: 2.0, 3).coefficients, project(constant(2.0), 3).coefficients),
        (lambda: expansion_eval(LegendreExpansion([1.0]), [0.5, 1.5]), "t must lie in [0, 1]"),
        (lambda: expansion_eval(LegendreExpansion([1.0]), -0.1), "t must lie in [0, 1]"),
        # NaN passes both t < 0 and t > 1 as False; the check asks 0 <= t <= 1
        (lambda: expansion_eval(LegendreExpansion([1.0, 2.0]), math.nan), "t must lie in [0, 1]"),
        (lambda: expansion_eval(_unit(2), math.nan), "t must lie in [0, 1]"),
        (lambda: expansion_eval(_unit(2), [0.5, math.nan]), "t must lie in [0, 1]"),
    ], ids=["project-scalar-f", "expansion-eval-above-one", "expansion-eval-below-zero",
            "expansion-eval-nan", "legendre-eval-nan", "legendre-eval-nan-in-array"])
    def test_broadcast_and_refusals(self, call, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(expected)):
                call()
        else:
            assert np.array_equal(call(), expected)
