import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import hausmom.stability_lab as lab

from hausmom.exact_core import factored_gram_norm, inverse_factor_Linv, inverse_hilbert, spectral_norm
from hausmom.functions import constant, peak, polynomial
from hausmom.moment_ops import MomentSequence, exact_polynomial_moments, forward_moments
from hausmom.stability_lab import (
    NoiseModel,
    amplification_experiment,
    bump_family,
    eit_forward,
    error_split_study,
    holder_counterexample,
    lambert_w,
    laplace_consistency,
    linv_growth_study,
    log_ratio,
    noisy_data,
    point_value_estimator,
    point_value_noise_study,
    stability_bound,
)

GROWTH_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "growth.json"


class TestLambertW:
    def test_origin(self):
        assert lambert_w(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_omega_constant(self):
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_defining_relation_large(self):
        for z in (10.0, 875000.0, 1e30):
            w = lambert_w(z)
            assert abs(w * math.exp(w) - z) <= 1e-13 * z

    @pytest.mark.parametrize("z", [5.2119471110506184e57, 8.75e99, 8.75e149, 8.75e199, 1.0913767146512737e-05, 0.3, -0.2])
    def test_accurate_across_scales(self, z):
        # a double w within an ulp of W(z) leaves |w e^w - z| near
        # eps (1 + w) |z|: the relation's condition number is 1 + w
        w = lambert_w(z)
        with mp.workdps(50):
            assert abs(mp.mpf(w) * mp.exp(w) - z) <= 2.0**-52 * (1 + abs(w)) * abs(z)
            assert abs(w - mp.lambertw(z)) <= 4e-16 * abs(w)

    def test_branch_point(self):
        assert lambert_w(-1 / math.e) == -1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w(-1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite(self, z):
        with pytest.raises(ValueError, match="finite"):
            lambert_w(z)


class TestStabilityBound:
    def test_terms_balance(self):
        b = stability_bound(1e-6, 1.0, 1.0)
        assert abs(b.term_smoothness - b.term_noise) / b.term_smoothness < 1e-10

    def test_decreasing_in_delta(self):
        bounds = [stability_bound(d, 1.0, 1.0).bound for d in (1e-3, 1e-6, 1e-9)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_asymptotic_flag(self):
        assert stability_bound(1e-6, 1.0, 1.0).asymptotic_ok
        assert not stability_bound(0.5, 1.0, 1.0).asymptotic_ok

    @pytest.mark.parametrize("delta", [1e-100, 1e-158, 1e-300])
    def test_tiny_delta(self, delta):
        b = stability_bound(delta, 1.0, 1.0)
        assert all(math.isfinite(v) for v in (b.N_star, b.bound, b.term_smoothness, b.term_noise))
        assert abs(b.term_smoothness - b.term_noise) / b.term_smoothness < 1e-10

    def test_n_star_matches_w(self):
        b = stability_bound(1e-6, 1.0, 1.0)
        assert b.N_star == pytest.approx(4 / 7 * lambert_w(7 / (8 * 1e-6)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_refuses_non_finite(self, position, bad):
        args = [1e-3, 1.0, 1.0]
        args[position] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            stability_bound(*args)

    def test_refuses_overflowing_argument(self):
        # finite inputs whose W argument 7 E / (8 sqrt(C_hat) delta) overflows to inf
        with pytest.raises(ValueError, match="finite"):
            stability_bound(1e-300, 1e300, 1.0)


class TestNoise:
    def test_zero_delta(self):
        y = exact_polynomial_moments((1,), 4)
        out = noisy_data(y, NoiseModel(delta=0.0))
        assert np.array_equal(out.to_array(), y.to_array())

    def test_exact_norm(self):
        y = exact_polynomial_moments((1,), 6)
        out = noisy_data(y, NoiseModel(delta=1e-3, seed=5))
        assert np.linalg.norm(out.to_array() - y.to_array()) == pytest.approx(1e-3, abs=1e-15)

    def test_bitwise_reproducible(self):
        y = exact_polynomial_moments((0, 1), 6)
        a = noisy_data(y, NoiseModel(delta=1e-2, seed=7)).to_array()
        b = noisy_data(y, NoiseModel(delta=1e-2, seed=7)).to_array()
        assert np.array_equal(a, b)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(delta=-1.0)
        with pytest.raises(TypeError):
            NoiseModel(delta=1.0, mode="uniform")

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_model_refuses_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(delta=delta)


class TestAmplification:
    def test_n1_is_unity(self):
        est = amplification_experiment(peak(), 1, R=5)
        assert est.f_n == pytest.approx(1.0, rel=1e-12)

    def test_reproducible(self):
        a = amplification_experiment(peak(), 3, R=4, seed=11)
        b = amplification_experiment(peak(), 3, R=4, seed=11)
        assert a.f_n == b.f_n

    def test_tracks_operator_norm(self):
        from hausmom.exact_core import inverse_hilbert, spectral_norm

        for n in (2, 4, 6):
            est = amplification_experiment(peak(), n)
            spec = math.sqrt(float(spectral_norm(inverse_hilbert(n))))
            assert spec / 2 <= est.f_n <= 2 * spec

    def test_accepts_moment_sequence(self):
        y = exact_polynomial_moments((1,), 3)
        est = amplification_experiment(y, 3, R=3)
        assert est.f_n > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            amplification_experiment(peak(), 2, R=0)
        with pytest.raises(ValueError):
            amplification_experiment(peak(), 2, deltas=[0.0, 1e-3])

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_refuses_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="deltas must be finite and positive"):
            amplification_experiment(peak(), 2, deltas=[1e-3, delta], R=1)


class TestGrowthStudy:
    def test_first_levels(self):
        rows = linv_growth_study(4)
        assert rows[0]["norm"] == pytest.approx(1.0)
        assert rows[1]["norm"] == pytest.approx(math.sqrt(8 + math.sqrt(52)))

    def test_independent_norm_agreement(self):
        rows = linv_growth_study(10)
        assert all(r["norm_sq_rel_err"] < 1e-20 for r in rows)

    def test_diagonal_formula(self):
        rows = linv_growth_study(5)
        assert rows[4]["diag"] == pytest.approx(math.sqrt(9) * math.comb(8, 4))

    def test_matches_golden(self):
        # every float of the benchmark's growth table, bit for bit
        rows = linv_growth_study(24, precision=256)
        assert json.loads(json.dumps(rows)) == json.loads(GROWTH_GOLDEN.read_text())

    def test_rank_one_update_matches_closed_form(self):
        # every level of the updated H_i^{-1} against the Gram of the closed
        # form, through the two columns that read it, bit for bit
        for i, row in enumerate(linv_growth_study(40), 1):
            hinv = inverse_hilbert(i)
            assert row["ln_inf_over_i"] == math.log(float(hinv.abs_row_sums())) / i
            assert row["norm"] == float(mp.sqrt(spectral_norm(hinv)))

    @pytest.mark.parametrize("precision,bound", [(256, "1e-60"), (512, "1e-120")])
    def test_factored_norm_matches_eigsy(self, precision, bound):
        # tolerance 10^-(precision // 8) leaves a Rayleigh quotient error ~10^-(precision // 4)
        lam = factored_gram_norm(inverse_factor_Linv(12).rational_part, precision)
        with mp.workprec(precision):
            ref = max(mp.eigsy(mp.matrix(inverse_hilbert(12).entries), eigvals_only=True))
            assert abs(lam - ref) / ref < mp.mpf(bound)


class TestPointValue:
    def test_constant_exact(self):
        y = MomentSequence.from_values([1.0 / j for j in range(1, 501)])
        for N in (1, 10, 100, 500):
            assert point_value_estimator(y, N) == pytest.approx(1.0, abs=1e-12)

    def test_linear_partial_sum(self):
        y = MomentSequence.from_values([1.0 / (j + 1) for j in range(1, 101)])
        assert point_value_estimator(y, 1) == 0.5
        # (1/100) sum j/(j+1) = 1 - (H_101 - 1)/100
        h101 = sum(1.0 / j for j in range(1, 102))
        assert point_value_estimator(y, 100) == pytest.approx(1 - (h101 - 1) / 100, abs=1e-12)

    def test_log_over_n_envelope(self):
        y = [1.0 / (j + 1) for j in range(1, 10_001)]
        seq = MomentSequence.from_values(y)
        for N in (10, 100, 1000, 10_000):
            err = abs(point_value_estimator(seq, N) - 1.0)
            assert err <= (math.log(N) + 1) / N

    def test_noise_study_structure(self):
        y = [1.0 / (j + 1) for j in range(1, 2**12 + 1)]
        rows = point_value_noise_study(y, 1.0, [1e-2, 1e-3], max_level_exp=12)
        assert rows[0]["error"] > rows[1]["error"]

    @pytest.mark.parametrize("deltas", [[-0.1], [1e-3, math.nan], [math.inf]])
    def test_noise_study_refuses_bad_deltas(self, deltas):
        with pytest.raises(ValueError, match="deltas must be finite and >= 0"):
            point_value_noise_study([0.5, 1 / 3], 1.0, deltas, max_level_exp=1)

    def test_noise_study_refuses_negative_level_exponent(self):
        with pytest.raises(ValueError, match="max_level_exp must be >= 0"):
            point_value_noise_study([0.5], 1.0, [1e-2], max_level_exp=-1)

    def test_noise_study_refuses_empty_data(self):
        with pytest.raises(ValueError, match="y_values must not be empty"):
            point_value_noise_study([], 1.0, [1e-2])


class TestCounterexample:
    def test_bump_moments_vanish(self):
        fam = bump_family(1, 3)
        assert np.all(np.abs(fam.moments[:3]) < 1e-10)
        assert abs(fam.moments[3]) > 1e-8

    def test_scaling_of_l2_norm(self):
        # ||x_r||_L2 = r^(p+1/2) ||g||_L2, checked by quadrature at r=1/4
        from hausmom.legendre import QuadratureRule

        fam = bump_family(1, 3)
        r = 0.25
        rule = QuadratureRule.gauss(400, (0.0, r))
        vals = r**fam.p * np.asarray(fam.value(rule.nodes / r))
        got = math.sqrt(float(np.sum(rule.weights * vals**2)))
        assert got == pytest.approx(r ** (fam.p + 0.5) * fam.l2_norm, rel=1e-6)

    def test_witness_found(self):
        r, m, ratio = holder_counterexample(0.5, 1, 100.0)
        assert ratio > 100.0
        assert m == 3

    def test_ratio_monotone_in_r(self):
        for mu in (0.5, 0.25):
            _, m, _ = holder_counterexample(mu, 1, 2.0)
            fam = bump_family(1, m)
            lrs = [log_ratio(fam, mu, 2.0**-q) for q in range(2, 9)]
            assert all(b > a for a, b in zip(lrs, lrs[1:]))

    def test_unreachable_target_reports_best(self):
        with pytest.raises(RuntimeError) as exc:
            holder_counterexample(0.5, 1, 1e300, r_min=2.0**-6)
        assert exc.value.best_ratio > 0

    @pytest.mark.parametrize("C", [math.nan, math.inf])
    def test_refuses_non_finite_target_before_building(self, monkeypatch, C):
        monkeypatch.setattr(lab, "bump_family", lambda k, m: pytest.fail("built the bump family"))
        with pytest.raises(ValueError, match="C must be finite and positive"):
            holder_counterexample(0.5, 1, C)


class TestCrossChecks:
    def test_laplace_constant(self):
        rows = laplace_consistency(constant(1.0), [1, 2, 3])
        for row in rows:
            assert row["laplace"] == pytest.approx(1.0 / row["j"],
                                                   abs=1e-9 + row["tail_bound"])

    def test_laplace_linear(self):
        rows = laplace_consistency(polynomial((0, 1)), [1, 2, 5])
        for row in rows:
            assert row["laplace"] == pytest.approx(1.0 / (row["j"] + 1), abs=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_laplace_refuses_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            laplace_consistency(constant(1.0), [1, 2], tol=tol)

    def test_laplace_refuses_no_moments(self):
        with pytest.raises(ValueError, match="j_list must not be empty"):
            laplace_consistency(constant(1.0), [])

    @pytest.mark.parametrize("levels", [[0, 3], [3, 0], [-1, 3]])
    def test_laplace_refuses_level_below_one(self, monkeypatch, levels):
        monkeypatch.setattr(lab, "forward_moments", lambda f, n: pytest.fail("quadrature ran"))
        with pytest.raises(ValueError, match="levels must be >= 1"):
            laplace_consistency(peak(), levels)

    def test_eit_constant(self):
        vals = eit_forward(constant(1.0), [1, 2, 3, 4])
        assert np.allclose(vals, [(n + 1) / (2 * n) for n in (1, 2, 3, 4)])

    def test_eit_linearity(self):
        s1, s2 = constant(1.0), polynomial((0, 0, 1))
        combo = lambda t: 2.0 * s1(t) + 3.0 * s2(t)
        lhs = eit_forward(combo, [1, 3, 5])
        rhs = 2 * eit_forward(s1, [1, 3, 5]) + 3 * eit_forward(s2, [1, 3, 5])
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestErrorSplit:
    def test_envelope_holds(self):
        rows = error_split_study(peak(), [2, 5], deltas=[1e-2, 1e-4], R=5)
        assert all(r["ok"] for r in rows)

    def test_rows_equal_the_quadrature_route(self, monkeypatch):
        # the amplification estimate from the level's moments, or from f by
        # its own quadrature as before, gives the same rows
        rows = error_split_study(peak(), [2, 5], deltas=[1e-2, 1e-4], R=3)
        real = lab.amplification_experiment
        monkeypatch.setattr(lab, "amplification_experiment", lambda y, n, *a: real(peak(), n, *a))
        assert error_split_study(peak(), [2, 5], deltas=[1e-2, 1e-4], R=3) == rows

    def test_refuses_level_above_reference(self):
        with pytest.raises(ValueError, match="level 200 exceeds the 160-coefficient reference"):
            error_split_study(peak(), [2, 200], deltas=[1e-2], R=2)

    @pytest.mark.parametrize("levels", [[], (), [0, 4], [4, -1]])
    def test_refuses_no_levels_or_level_below_one(self, monkeypatch, levels):
        monkeypatch.setattr(lab, "project", lambda f, m: pytest.fail("built the reference expansion"))
        with pytest.raises(ValueError, match="levels must be a nonempty list of n >= 1"):
            error_split_study(peak(), levels, deltas=[1e-2], R=2)

    def test_one_quadrature_per_level(self, monkeypatch):
        levels = []
        monkeypatch.setattr(lab, "forward_moments", lambda f, n: levels.append(n) or forward_moments(f, n))
        error_split_study(peak(), [2, 5], deltas=[1e-2], R=2)
        assert levels == [2, 5]
