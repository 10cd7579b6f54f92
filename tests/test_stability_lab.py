import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hausmom.exact_core import inverse_factor_Linv, inverse_hilbert
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
from hausmom.stability_lab import _factored_gram_norm

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

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w(-1.0)


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

    def test_n_star_matches_w(self):
        b = stability_bound(1e-6, 1.0, 1.0)
        assert b.N_star == pytest.approx(4 / 7 * lambert_w(7 / (8 * 1e-6)))


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
        with pytest.raises(ValueError):
            NoiseModel(delta=1.0, mode="uniform")


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

    def test_factored_norm_matches_eigsy(self):
        lam = _factored_gram_norm(inverse_factor_Linv(12).rational_part, 256)
        with mp.workprec(256):
            ref = max(mp.eigsy(mp.matrix(inverse_hilbert(12).entries), eigvals_only=True))
            assert abs(lam - ref) / ref < mp.mpf("1e-60")


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
