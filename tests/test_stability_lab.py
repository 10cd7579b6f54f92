import itertools
import json
import math
import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hausmom.exact_core as exact_core
import hausmom.stability_lab as lab

from hausmom._bump_derivatives import DERIVATIVES
from hausmom.exact_core import (
    RationalMatrix,
    inverse_hilbert,
    linv_growth_study,
    spectral_norm,
    spectral_norm_with_reference,
)
from hausmom.functions import abs_kink, constant, g_alpha, peak, polynomial
from hausmom.legendre import QuadratureRule, project
from hausmom.moment_ops import (
    MomentSequence,
    SobolevBudget,
    _reference,
    exact_polynomial_moments,
    forward_moments,
    h1_rate_check,
    pseudoinverse,
)
from hausmom.stability_lab import (
    NoiseModel,
    amplification_experiment,
    bump_family,
    eit_forward,
    error_split_study,
    holder_counterexample,
    lambert_w,
    laplace_consistency,
    log_ratio,
    noisy_data,
    point_value_estimator,
    point_value_noise_study,
    stability_bound,
)
from oracles import (
    abs_kink_moments,
    all_ones_growth_rel_errs,
    choi_trace_inverse_hilbert,
    closed_form_inverse_hilbert,
    exact_mpf,
    factored_gram_norm,
    kernel_norm_sq,
    loop_choose_m,
    point_value_bound,
    string_namespace_bump_derivative,
    worst_case_total,
)
from strategies import EXACT

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

    def test_matches_mpmath_on_grid(self):
        # Newton's iteration on exact_core's int logarithm gives mpmath's 300-bit W rounded
        # once: log-uniform z over the double range, uniform z in (-1/e, 0), the 50 doubles
        # just above -1/e, the ends of the double range and both sides of the start switches
        rng = random.Random(46)
        zs = [10 ** rng.uniform(-300, 308) for _ in range(150)] + [-rng.random() / math.e for _ in range(100)]
        z = -1 / math.e
        for _ in range(50):
            z = math.nextafter(z, 0)
            zs.append(z)
        zs += [5e-324, -5e-324, sys.float_info.min, sys.float_info.max, 1e-300, 1e300]
        zs += [math.nextafter(x, d) for x in (-0.25, 3.0) for d in (-1, 1)] + [-0.25, 3.0]
        for z in zs:
            with mp.workprec(300):
                target = float(mp.lambertw(z))
            assert lambert_w(z) == target, z

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

    def test_worst_case_reconstruction_within_bound(self):
        """abs_kink (E = ||f'|| = 1, C_hat = 1) from its exact moments plus the
        worst noise of norm delta, reconstructed at N = floor(N*), for delta =
        1e-3, 1e-6, ..., 1e-33: N* runs from 2.9 to 40.9, so N from 2 to 40.
        The total error sqrt(tail_N^2 + delta^2 lambda_max(H_N^-1)) stays
        below ``bound``; at N <= 10 the pseudoinverse of y + e, e the top
        eigenvector scaled to norm delta, has exactly that error."""
        c = project(abs_kink(), 160).coefficients
        y = abs_kink_moments(40)
        norm_sq = 1 / 12  # ||f||^2 = int_0^1 (t - 1/2)^2 dt
        for k in range(3, 34, 3):
            delta = 10.0**-k
            b = stability_bound(delta, 1.0, 1.0)
            n = math.floor(b.N_star)
            total = worst_case_total(c, norm_sq, n, delta)
            assert total <= b.bound
            if n <= 10:
                with mp.workdps(20):
                    vals, vecs = mp.eigsy(closed_form_inverse_hilbert(n))
                    top = max(range(n), key=lambda i: vals[i])
                    e = [float(delta * vecs[i, top]) for i in range(n)]
                lam = pseudoinverse(MomentSequence([a + Fraction(x) for a, x in zip(y, e)])).coefficients
                # ||p - f||^2 = ||f||^2 - 2 <p, f> + ||p||^2, p in the span of the first n
                measured = math.sqrt(norm_sq - 2 * np.dot(lam, c[:n]) + np.dot(lam, lam))
                assert measured == pytest.approx(total, rel=1e-12)
        assert n == 40


class TestNoise:
    def test_zero_delta(self):
        y = exact_polynomial_moments((1,), 4)
        out = noisy_data(y, NoiseModel(delta=0.0))
        assert np.array_equal(out.to_array(), y.to_array())

    def test_exact_norm(self):
        y = exact_polynomial_moments((1,), 6)
        out = noisy_data(y, NoiseModel(delta=1e-3, seed=5))
        assert np.linalg.norm(out.to_array() - y.to_array()) == pytest.approx(1e-3, abs=1e-15)
        # e has norm delta, but y + e rounds: the perturbation applied is
        # delta only within 2^-53 ||y + e||, relative 1e-7 at delta = 1e-10
        y, delta = forward_moments(peak(), 12), 1e-10
        for seed in range(20):
            out = noisy_data(y, NoiseModel(delta=delta, seed=seed)).to_array()
            applied = np.linalg.norm(out - y.to_array())
            assert abs(applied - delta) <= 2.0**-53 * np.linalg.norm(out) + 1e-15 * delta

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
        assert est.f_exact == 1.0

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

    @pytest.mark.parametrize("n", [2, 4])
    def test_estimates_trace_of_inverse_hilbert(self, n):
        h = inverse_hilbert(n)
        trace = sum(h[i, i] for i in range(n))
        est = amplification_experiment(peak(), n, R=2000, seed=42)
        assert abs(est.f_n ** 2 / trace - 1) <= 0.1
        assert est.f_exact ** 2 == pytest.approx(trace, rel=1e-15)

    def test_f_exact_is_the_root_of_the_exact_trace(self):
        for n in range(1, 13):
            h = inverse_hilbert(n)
            assert choi_trace_inverse_hilbert(n) == sum(h[i, i] for i in range(n))
        # every level with a finite root: the 300-bit root rounded once to a double
        with mp.workprec(300):
            for n in range(1, 410):
                assert lab._f_exact(n) == float(mp.sqrt(choi_trace_inverse_hilbert(n))), n
        assert lab._f_exact(2) == 4.0
        assert lab._f_exact(410) == math.inf

    def test_frobenius_target_is_near_operator_norm(self):
        for n in range(2, 41):
            h = inverse_hilbert(n)
            ratio = math.sqrt(sum(h[i, i] for i in range(n)) / spectral_norm(h))
            assert 1 <= ratio <= 1.026, n

    def test_accepts_moment_sequence(self):
        y = exact_polynomial_moments((1,), 3)
        est = amplification_experiment(y, 3, R=3)
        assert est.f_n > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            amplification_experiment(peak(), 2, R=0)
        with pytest.raises(ValueError):
            amplification_experiment(peak(), 2, deltas=[0.0, 1e-3])
        with pytest.raises(ValueError, match="deltas must not be empty"):
            amplification_experiment(peak(), 2, deltas=())

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
        # every level of the updated H_i^{-1} against the Gram product of the
        # closed-form factor, through the two columns that read it, bit for bit
        for i, row in enumerate(linv_growth_study(40), 1):
            hinv = exact_core.inverse_factor_Linv(i).gram()
            assert row["ln_inf_over_i"] == math.log(float(max(sum(map(abs, r)) for r in hinv.num))) / i
            assert row["norm"] == float(mp.sqrt(exact_mpf(spectral_norm(hinv))))

    def test_rows_ignore_mpmath_working_precision(self):
        # the doubles come from int pairs, so mpmath's context at the call does not reach them;
        # with mpmath's 53-bit arithmetic, 39 of 40 levels moved at 24 bits and 10 at 300
        rows = linv_growth_study(40)
        for prec in (24, 300):
            with mp.workprec(prec):
                assert linv_growth_study(40) == rows, prec

    def test_norm_matches_classical_asymptotics(self):
        # lambda_max(H_n^-1) ~ (1+sqrt 2)^(4n) / (2^(15/4) pi^(3/2) sqrt n), the classical
        # asymptotic form (Todd, 1954; whether its exponent is 4n or 4n + 4 in that
        # convention is not checked here): within 1 % from n = 60 (0.93 % there), and
        # n (ratio - 1) falls strictly on 10..65 (0.59 to 0.56), a 1/n correction
        ratio = {n: r["norm"] ** 2 * 2 ** 3.75 * math.pi ** 1.5 * math.sqrt(n) / (1 + math.sqrt(2)) ** (4 * n)
                 for n, r in enumerate(linv_growth_study(65), 1)}
        assert all(abs(ratio[n] - 1) < 0.01 for n in range(60, 66))
        excess = [n * (ratio[n] - 1) for n in range(10, 66)]
        assert all(b < a for a, b in zip(excess, excess[1:]))

    def test_levels_build_no_matrix(self, monkeypatch):
        # each level's H_i^-1 stays int rows: the one RationalMatrix, by either
        # constructor, is the padded M that inverse_factor_Linv returns
        builds = []
        init, from_rows = RationalMatrix.__init__, RationalMatrix._from_int_rows.__func__
        monkeypatch.setattr(RationalMatrix, "__init__",
                            lambda self, *args: builds.append(sys._getframe(1).f_code.co_name) or init(self, *args))
        monkeypatch.setattr(RationalMatrix, "_from_int_rows", classmethod(
            lambda cls, num: builds.append(sys._getframe(1).f_code.co_name) or from_rows(cls, num)))
        linv_growth_study(24, 256)
        assert builds == ["inverse_factor_Linv"]

    @pytest.mark.parametrize("precision,bound", [(256, "1e-60"), (512, "1e-120")])
    def test_factored_norm_matches_eigsy(self, precision, bound):
        # tolerance 10^-(precision // 8) leaves a Rayleigh quotient error
        # ~10^-(precision // 4), in the factored oracle and in the study's
        # reference; the value, at tolerance 1e-20, is off by far more
        h = inverse_hilbert(12)
        indep = factored_gram_norm(12, precision)
        lam, ref = spectral_norm_with_reference(h.num, h.den, precision)
        with mp.workprec(precision):
            lam, ref = mp.mpf(lam), mp.mpf(ref)
            assert lam == exact_mpf(spectral_norm(h, precision))
            top = max(mp.eigsy(mp.matrix(h.entries), eigvals_only=True))
            assert max(abs(indep - top), abs(ref - top)) / top < mp.mpf(bound) < abs(lam - top) / top

    @pytest.mark.parametrize("precision", [256, 512])
    def test_rel_err_matches_all_ones_start(self, precision):
        # the study's reference (the continued spectral iteration on H) and
        # the factored oracle (on Linv Linv^T, from M) are each accurate to
        # ~10^-(precision // 4), so their gaps to the ~1e-40 spectral value
        # are the same float
        rel = [row["norm_sq_rel_err"] for row in linv_growth_study(40, precision)]
        assert rel == all_ones_growth_rel_errs(40, precision)

    def test_seeded_cross_check_steps(self, monkeypatch):
        # steps counted as calls of the map; per level the study runs the
        # spectral iteration, whose first product is H's row sums, then its
        # continuation to the reference, whose first step reuses the last
        # product of the spectral iteration; M is built once per study
        steps, builds = [], []
        kernel, linv = exact_core._power_iteration, exact_core.inverse_factor_Linv

        def counted(matvec, *args, **kwargs):
            calls = 0

            def counting(v):
                nonlocal calls
                calls += 1
                return matvec(v)

            try:
                return kernel(counting, *args, **kwargs)
            finally:
                steps.append(calls)

        monkeypatch.setattr(exact_core, "_power_iteration", counted)
        monkeypatch.setattr(exact_core, "inverse_factor_Linv", lambda n: builds.append(n) or linv(n))
        linv_growth_study(24)
        spectral, reference = steps[::2], steps[1::2]
        assert builds == [24] and len(reference) == 24
        assert sum(spectral) == 226 and sum(reference) == 121 and reference[-1] == 5

    def test_refuses_level_past_double_range_before_work(self, monkeypatch):
        # exp(1.763 i) overflows a double from i = 403
        monkeypatch.setattr(exact_core, "inverse_factor_Linv", lambda n: pytest.fail("built M"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="n_max must be <= 402"):
            linv_growth_study(403)
        assert time.perf_counter() - start < 0.5

    def test_refuses_low_precision_before_work(self, monkeypatch):
        monkeypatch.setattr(exact_core, "inverse_factor_Linv", lambda n: pytest.fail("built M"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="precision must be >= 64 bits"):
            linv_growth_study(402, precision=63)
        assert time.perf_counter() - start < 0.5


class TestPointValue:
    def test_constant_exact(self):
        y = MomentSequence([1.0 / j for j in range(1, 501)])
        for N in (1, 10, 100, 500):
            assert point_value_estimator(y, N) == pytest.approx(1.0, abs=1e-12)

    def test_linear_partial_sum(self):
        y = MomentSequence([1.0 / (j + 1) for j in range(1, 101)])
        assert point_value_estimator(y, 1) == 0.5
        # (1/100) sum j/(j+1) = 1 - (H_101 - 1)/100
        h101 = sum(1.0 / j for j in range(1, 102))
        assert point_value_estimator(y, 100) == pytest.approx(1 - (h101 - 1) / 100, abs=1e-12)

    def test_log_over_n_envelope(self):
        y = [1.0 / (j + 1) for j in range(1, 10_001)]
        seq = MomentSequence(y)
        for N in (10, 100, 1000, 10_000):
            err = abs(point_value_estimator(seq, N) - 1.0)
            assert err <= (math.log(N) + 1) / N

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(EXACT, min_size=1, max_size=8), N=st.integers(1, 50))
    def test_averaged_identity_is_exact(self, coeffs, N):
        # x = sum c_k t^k, K_N = t + ... + t^N: sum_{j<=N} j y_j = N x(1) - int K_N x'
        # in Fractions, and the bias (1/N) int K_N x' is within ||x'|| ||K_N|| / N,
        # ||K_N||^2 <= (2N+1) ln 2, the bias term of point_value_bound
        y = exact_polynomial_moments(coeffs, N)
        weighted = sum(j * v for j, v in enumerate(y.values, 1))
        kx = sum(Fraction(k * c, j + k) for j in range(1, N + 1) for k, c in enumerate(coeffs) if k)
        assert weighted == N * sum(coeffs) - kx
        dx_sq = sum(Fraction(k * l * a * b, k + l - 1)
                    for k, a in enumerate(coeffs) for l, b in enumerate(coeffs) if k and l)
        assert kx * kx <= dx_sq * kernel_norm_sq(N) and kernel_norm_sq(N) <= (2 * N + 1) * math.log(2)
        # the estimator rounds each y_j and each j y_j once, then sums them with fsum
        scale = float(sum(abs(j * v) for j, v in enumerate(y.values, 1))) / N
        assert abs(point_value_estimator(y, N) - float(weighted / N)) <= 2.0**-50 * scale

    @pytest.mark.parametrize("x1, dx_norm, moments", [
        (1.0, 1.0, lambda n: [1.0 / (j + 1) for j in range(1, n + 1)]),
        # (1-t)^0.75: moments B(j, 1.75), by y_{j+1} = y_j j / (j + 1.75); ||x'||^2 = 9/8
        (0.0, math.sqrt(9 / 8), lambda n: list(itertools.accumulate(range(1, n), lambda y, j: y * j / (j + 1.75),
                                                                    initial=1 / 1.75))),
    ], ids=["t", "(1-t)^0.75"])
    def test_noise_study_within_holder_bound(self, x1, dx_norm, moments):
        deltas = [10.0**-k for k in range(2, 7)]
        rows = point_value_noise_study(moments(2**17), x1, deltas)
        for row, delta in zip(rows, deltas):
            assert row["error"] <= point_value_bound(dx_norm, delta, row["best_N"])

    def test_noise_study_structure(self):
        y = [1.0 / (j + 1) for j in range(1, 2**12 + 1)]
        rows = point_value_noise_study(y, 1.0, [1e-2, 1e-3])
        assert rows[0]["error"] > rows[1]["error"]
        # the levels are the dyadic N <= len(y); noise-free, the bias
        # (H_(N+1) - 1)/N falls with N, so the largest level wins
        assert [point_value_noise_study(y[:n], 1.0, [0.0])[0]["best_N"] for n in (1, 5, 2**12)] == [1, 4, 2**12]

    @pytest.mark.parametrize("y", [[0.0] * 8, [1.0 / (j + 1) for j in range(1, 1001)],
                                   list(np.random.default_rng(7).standard_normal(300)),
                                   [0.25 / (j + 1) for j in range(1, 2**19 + 1)]],
                             ids=["zeros", "t", "normal", "t/4-2^19"])
    def test_noise_study_is_the_loop_over_levels(self, y):
        # reference: each dyadic N in turn, the first strict minimum kept; bit for bit.  For x = t/4
        # with 2^19 moments, delta = 1e-8 picks N = 2^19, where the sum of j^2 has passed 2^53, so
        # a float running sum of it would have rounded; the study takes it in closed form
        partial = np.cumsum(np.arange(1.0, len(y) + 1) * np.asarray(y))
        deltas = [0.0, 1e-8, 1e-3, 0.5]
        expected = []
        for delta in deltas:
            best = None
            for N in (2**q for q in range(len(y).bit_length())):
                err = abs(partial[N - 1] / N - 0.25) + delta * math.sqrt(N * (N + 1) * (2 * N + 1) // 6) / N
                if best is None or err < best[1]:
                    best = (N, err)
            expected.append({"delta": delta, "best_N": best[0], "error": best[1]})
        assert point_value_noise_study(y, 0.25, deltas) == expected

    def test_noise_study_picks_a_nan_error_first(self):
        # finite moments whose weighted running sum overflows to inf - inf: as np.argmin does,
        # the first NaN error is the minimum
        y = [1e308, -1e308, 1e308, 0.0]
        [row] = point_value_noise_study(y, 0.0, [1e-3])
        assert row["best_N"] == 4 and math.isnan(row["error"])

    def test_noise_study_reads_the_sum_of_squares_in_closed_form(self):
        # one nonzero moment, at j = 2^20: the bias is 0 there and 1 below, so N = 2^20 wins with the
        # noise term alone; a float running sum of j^2 has rounded there (from 2^19 on)
        N = 2**20
        [row] = point_value_noise_study([0.0] * (N - 1) + [1.0], 1.0, [1e-9])
        assert row["best_N"] == N
        assert row["error"] == 1e-9 * math.sqrt(N * (N + 1) * (2 * N + 1) // 6) / N

    @pytest.mark.parametrize("deltas", [[-0.1], [1e-3, math.nan], [math.inf]])
    def test_noise_study_refuses_bad_deltas(self, deltas):
        with pytest.raises(ValueError, match="deltas must be finite and >= 0"):
            point_value_noise_study([0.5, 1 / 3], 1.0, deltas)

    def test_noise_study_refuses_empty_data(self):
        with pytest.raises(ValueError, match="y_values must not be empty"):
            point_value_noise_study([], 1.0, [1e-2])

    @pytest.mark.parametrize("y_values, true_value, message", [
        ([math.nan, 0.5, 0.3, 0.2], 1.0, "moments must be finite"),
        ([1.0, 0.5, math.inf], 1.0, "moments must be finite"),
        ([1.0, 0.5, 0.3, 0.2], math.nan, "true_value must be finite"),
        ([1.0, 0.5], -math.inf, "true_value must be finite"),
    ], ids=["nan-moment", "inf-moment", "nan-true-value", "inf-true-value"])
    def test_noise_study_refuses_non_finite(self, y_values, true_value, message):
        with pytest.raises(ValueError, match=message):
            point_value_noise_study(y_values, true_value, [0.1])

    @pytest.mark.parametrize("values", [
        [Fraction(1, j + 1) for j in range(1, 41)],
        [1.0 / (j + 1) for j in range(1, 41)],
        list(np.random.default_rng(3).standard_normal(40)),
        [Decimal(1) / Decimal(j + 1) for j in range(1, 41)],
    ], ids=["exact", "float", "float64", "decimal"])
    def test_estimator_keeps_the_array_formula_bits(self, values):
        y = MomentSequence(values)
        for N in (1, 7, 40):
            expected = math.fsum((j + 1) * v for j, v in enumerate(y.to_array()[:N])) / N
            assert point_value_estimator(y, N).hex() == expected.hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_estimator_refuses_non_finite(self, bad):
        # like range_diagnostics, only the moments read are checked
        y = MomentSequence([1.0, bad, 1 / 3])
        with pytest.raises(ValueError, match="moments must be finite"):
            point_value_estimator(y, 2)
        assert point_value_estimator(y, 1) == 1.0


class TestCounterexample:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_bump_moments_vanish(self, m):
        # by parts the first m moments are exactly 0; measured at most 5.6e-17,
        # and moment m+1 at least 7.7e11 times the largest of them
        fam = bump_family(1, m)
        low = np.abs(fam.moments[:m])
        assert np.all(low < 1e-15)
        assert abs(fam.moments[m]) > 1e9 * low.max()

    @pytest.mark.parametrize("m", sorted(DERIVATIVES))
    def test_derivative_matches_string_namespace(self, m):
        # every entry of the frozen table is sympy's lambdified source run on
        # numpy's exp, so it equals sympy's own lambdified function bit for bit
        nodes = QuadratureRule.gauss(400).nodes
        got = lab._mother_bump_derivative(m)(nodes)
        assert got.tobytes() == string_namespace_bump_derivative(m)(nodes).tobytes()

    def test_scaling_of_l2_norm(self):
        # ||x_r||_L2 = r^(p+1/2) ||g||_L2, checked by quadrature at r=1/4
        fam = bump_family(1, 3)
        r = 0.25
        rule = QuadratureRule.composite(400, (0.0, r))
        vals = r**fam.p * np.asarray(fam.value(rule.nodes / r))
        got = math.sqrt(float(np.sum(rule.weights * vals**2)))
        assert got == pytest.approx(r ** (fam.p + 0.5) * fam.l2_norm, rel=1e-6)

    def test_witness_found(self):
        r, m, ratio = holder_counterexample(0.5, 1, 100.0)
        assert ratio > 100.0
        assert m == 3

    def test_choose_m_matches_loop(self):
        # the float tests near their thresholds decide, so the search must
        # land on the loop's m exactly, including at mu = 1/j
        assert [lab._choose_m(mu, 0.5) for mu in (0.5, 0.25, 0.1)] == [3, 7, 19]
        grid = [*map(float, np.geomspace(1e-3, 1, 300, endpoint=False)), *(1 / j for j in range(2, 101))]
        for k in (1, 2, 3):
            assert [lab._choose_m(mu, k - 0.5) for mu in grid] == [loop_choose_m(mu, k - 0.5) for mu in grid]

    def test_ratio_monotone_in_r(self):
        for mu in (0.5, 0.25):
            _, m, _ = holder_counterexample(mu, 1, 2.0)
            fam = bump_family(1, m)
            lrs = [log_ratio(fam, mu, 2.0**-q) for q in range(2, 9)]
            assert all(b > a for a, b in zip(lrs, lrs[1:]))

    def test_log_ratio_accepts_r_one(self):
        assert math.isfinite(log_ratio(bump_family(1, 3), 0.5, 1.0))

    def test_unreachable_target_reports_best(self):
        with pytest.raises(RuntimeError) as exc:
            holder_counterexample(0.5, 1, 1e300)
        assert exc.value.best_ratio > 0

    @pytest.mark.parametrize("C", [math.nan, math.inf])
    def test_refuses_non_finite_target_before_building(self, monkeypatch, C):
        monkeypatch.setattr(lab, "bump_family", lambda k, m: pytest.fail("built the bump family"))
        with pytest.raises(ValueError, match="C must be finite and positive"):
            holder_counterexample(0.5, 1, C)

    def test_bump_order_cap(self, monkeypatch):
        orders = []

        def stub(order):
            orders.append(order)
            return lambda t: np.sin(np.pi * np.asarray(t, dtype=float))

        monkeypatch.setattr(lab, "_mother_bump_derivative", stub)
        assert bump_family(1, 7).m == 7  # the counterexample-mu-0.25 golden's orders
        assert orders == [7, 8]
        for k, m in ((1, 8), (2, 7), (1, 12), (1, 19)):
            with pytest.raises(RuntimeError, match=f"order m \\+ k = {k + m} exceeds 8, the largest"):
                bump_family(k, m)
        assert orders == [7, 8]


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

    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.parametrize("f", [g_alpha(-0.25), lambda t: np.full(np.shape(t), math.nan)],
                             ids=["pole-at-one", "nan"])
    def test_laplace_refuses_non_finite_f(self, monkeypatch, f):
        # g_alpha(-0.25) is inf at t = 1; its moments and Laplace integrals
        # agree, but the tail bound would be inf * 0
        monkeypatch.setattr(lab, "forward_moments", lambda f, n: pytest.fail("quadrature ran"))
        with pytest.raises(ValueError, match=r"f must be finite on \[0, 1\]"):
            laplace_consistency(f, [1, 2])

    def test_laplace_refuses_quadpack_flag(self, monkeypatch):
        # ier = 2 (roundoff) with an error estimate far inside tol: the flag alone refuses;
        # a polynomial's moments are exact, so only the Laplace integral runs QUADPACK
        monkeypatch.setattr(lab, "_quad", lambda func, a, b, tol, limit, points=None: (0.5, 1e-16, 2))
        with pytest.raises(RuntimeError, match=re.escape("Laplace integral for j=1 did not converge "
                                                         "(v=0.5, err=1.00e-16, ier=2)")):
            laplace_consistency(polynomial((0, 1)), [1, 2])

    def test_eit_constant(self):
        vals = eit_forward(constant(1.0), [1, 2, 3, 4])
        assert np.allclose(vals, [(n + 1) / (2 * n) for n in (1, 2, 3, 4)])

    @pytest.mark.parametrize("modes", [[], [1, 2, 0], [-1]])
    def test_eit_refuses_bad_modes_before_quadrature(self, monkeypatch, modes):
        import hausmom.moment_ops as mo

        monkeypatch.setattr(mo, "_quad", lambda *a, **k: pytest.fail("quadrature ran"))
        with pytest.raises(ValueError, match="mode numbers must be a nonempty list of n >= 1"):
            eit_forward(constant(1.0), modes)

    def test_eit_refuses_non_convergence(self):
        # the moments come from forward_moments, which refuses a NaN integral
        with pytest.raises(RuntimeError, match="did not converge"):
            eit_forward(lambda r: math.nan, [1, 2])

    def test_eit_one_quadrature_for_all_modes(self, monkeypatch):
        levels = []
        monkeypatch.setattr(lab, "forward_moments", lambda f, n: levels.append(n) or forward_moments(f, n))
        vals = eit_forward(constant(1.0), [5, 1, 3])
        assert levels == [5]
        assert np.allclose(vals, [(n + 1) / (2 * n) for n in (5, 1, 3)])

    def test_eit_linearity(self):
        s1, s2 = constant(1.0), polynomial((0, 0, 1))
        combo = lambda t: 2.0 * s1(t) + 3.0 * s2(t)
        lhs = eit_forward(combo, [1, 3, 5])
        rhs = 2 * eit_forward(s1, [1, 3, 5]) + 3 * eit_forward(s2, [1, 3, 5])
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestErrorSplit:
    def test_envelope_holds(self, monkeypatch):
        # the envelope is the exact sqrt(trace H_n^-1): no Monte Carlo estimate is run
        monkeypatch.setattr(lab, "amplification_experiment", pytest.fail)
        rows = error_split_study(peak(), [2, 5])
        assert [(r["n"], r["delta"]) for r in rows] == [(n, 10.0 ** -k) for n in (2, 5) for k in range(2, 8)]
        assert all(r["ok"] for r in rows)

    def test_any_level_reads_the_shared_tail(self, monkeypatch):
        # a level of 161 runs; its tails come from the shared max(4n, 96) cut at the largest level
        levels = []
        monkeypatch.setattr(lab, "_reference", lambda f, n: levels.append(n) or _reference(f, n))
        rows = error_split_study(peak(), [161])
        assert levels == [161]
        assert len(rows) == 6 and all(math.isfinite(r["total"]) and r["ok"] for r in rows)

    def test_envelope_past_the_square_of_f_exact(self):
        # f_exact(205) is finite but its square is not: hypot keeps the envelope finite, and no
        # numpy operation overflows on the way to the totals
        with np.errstate(all="raise"):
            rows = error_split_study(polynomial((0, 1)), [205])
        assert len(rows) == 6 and all(math.isfinite(r["total"]) and math.isfinite(r["envelope"]) for r in rows)

    @pytest.mark.parametrize("levels", [[], (), [0, 4], [4, -1]])
    def test_refuses_no_levels_or_level_below_one(self, monkeypatch, levels):
        monkeypatch.setattr(lab, "_reference", lambda f, n: pytest.fail("built the reference expansion"))
        with pytest.raises(ValueError, match="levels must be a nonempty list of n >= 1"):
            error_split_study(peak(), levels)

    def test_one_quadrature_per_level(self, monkeypatch):
        levels = []
        monkeypatch.setattr(lab, "forward_moments", lambda f, n: levels.append(n) or forward_moments(f, n))
        error_split_study(peak(), [2, 5])
        assert levels == [2, 5]

    def test_draws_are_the_amplification_stream(self, monkeypatch):
        # both studies read one generator with the same protocol: deltas 1e-2 .. 1e-7, R = 20, seed 42
        calls = []
        draws = lab._noisy_reconstructions
        monkeypatch.setattr(lab, "_noisy_reconstructions",
                            lambda y, *protocol: calls.append((y.n, *protocol)) or draws(y, *protocol))
        error_split_study(peak(), [3])
        amplification_experiment(peak(), 3)
        assert calls == [(3, lab._DELTAS, 20, 42)] * 2


class TestEdgeBranches:
    Y3 = MomentSequence([1.0, 0.5, 1 / 3])

    @pytest.mark.parametrize("call, message", [
        (lambda: amplification_experiment(TestEdgeBranches.Y3, 4), "need 4 moments, data has 3"),
        (lambda: linv_growth_study(0), "n_max must be >= 1"),
        (lambda: point_value_estimator(TestEdgeBranches.Y3, 0), "N must satisfy 1 <= N <= y.n"),
        (lambda: point_value_estimator(TestEdgeBranches.Y3, 4), "N must satisfy 1 <= N <= y.n"),
        (lambda: bump_family(0, 3), "k and m must be >= 1"),
        (lambda: bump_family(1, 0), "k and m must be >= 1"),
        (lambda: holder_counterexample(0.0, 1, 2.0), "mu must lie in (0, 1)"),
        (lambda: holder_counterexample(1.0, 1, 2.0), "mu must lie in (0, 1)"),
        # r = -0.1 failed with a math domain error; r = 1.5 returned -8.17, though
        # x_r is then supported on [0, 1.5], where the moment formula does not hold
        (lambda: log_ratio(bump_family(1, 3), 0.5, -0.1), "r must lie in (0, 1]"),
        (lambda: log_ratio(bump_family(1, 3), 0.5, 0.0), "r must lie in (0, 1]"),
        (lambda: log_ratio(bump_family(1, 3), 0.5, 1.5), "r must lie in (0, 1]"),
        (lambda: log_ratio(bump_family(1, 3), 0.5, math.nan), "r must lie in (0, 1]"),
        # mu = 1.5 returned 16.21 and mu = -0.5 returned -11.19, ratios of no Hoelder estimate
        (lambda: log_ratio(bump_family(1, 3), 1.5, 0.25), "mu must lie in (0, 1)"),
        (lambda: log_ratio(bump_family(1, 3), -0.5, 0.25), "mu must lie in (0, 1)"),
        (lambda: log_ratio(bump_family(1, 3), 1.0, 0.25), "mu must lie in (0, 1)"),
        (lambda: log_ratio(bump_family(1, 3), math.nan, 0.25), "mu must lie in (0, 1)"),
    ], ids=["amplification-short-data", "growth-n0", "point-value-N0", "point-value-past-data",
            "bump-k0", "bump-m0", "holder-mu0", "holder-mu1", "log-ratio-r-negative", "log-ratio-r0",
            "log-ratio-r-above-one", "log-ratio-r-nan", "log-ratio-mu-above-one", "log-ratio-mu-negative",
            "log-ratio-mu1", "log-ratio-mu-nan"])
    def test_refusals(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("study, levels", [
        (lambda levels: point_value_noise_study([1.0 / (j + 1) for j in range(1, 65)], 1.0, levels), [1e-2, 1e-3]),
        (lambda levels: h1_rate_check(polynomial((0, 1)), SobolevBudget(E=1.2, kind="H1"), levels), [2, 4]),
        (lambda levels: error_split_study(polynomial((0, 1)), levels), [2, 3]),
        (lambda levels: laplace_consistency(constant(1.0), levels), [1, 2]),
        (lambda levels: eit_forward(polynomial((0, 0, 1)), levels).tolist(), [1, 3]),
    ], ids=["point_value_noise_study", "h1_rate_check", "error_split_study", "laplace_consistency", "eit_forward"])
    def test_level_generator_is_read_once(self, study, levels):
        # the checks and the work read one copy: a generator of the levels (or noise
        # levels) gives what their list gives, where it was used up by min, max or all
        assert study(d for d in levels) == study(levels)
