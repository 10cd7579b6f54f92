"""Acceptance suite: one test per release criterion.

Each test pins the tolerances the package is required to meet; the unit
test files cover the same code paths at finer granularity.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import hausmom as hm
from oracles import back_substitution_inverse


def test_criterion_1_exact_algebra():
    """Zero-residual identities of the rational kernel.

    (i) Ltilde diag(2j-1) Ltilde^T equals the Hilbert segment, (ii) the
    inverse Hilbert segment inverts it, (iii) the closed-form inverse
    factor equals back substitution, all for n <= 30; (iv) V_N^T V_N is
    the stated diagonal for N <= 20.  All checks are exact.
    """
    for n in range(1, 31):
        lfac = hm.cholesky_factor_L(n)
        assert lfac.gram() == hm.hilbert_matrix(n)
        assert (hm.hilbert_matrix(n) @ hm.inverse_hilbert(n)).is_identity()
        closed = hm.inverse_factor_Linv(n)
        solved = back_substitution_inverse(lfac)
        assert closed.rational_part == solved.rational_part
        assert closed.diag_weights == solved.diag_weights
    for N in range(1, 21):
        holds, residual = hm.verify_TN_identity(N)
        assert holds and residual.is_zero()


def test_criterion_2_norm_growth():
    """Growth of the inverse factor up to level 65 at 256-bit precision.

    The spectral norm of the inverse Hilbert segment (the squared norm of
    the inverse factor) must agree to 1e-10 relative with the reference
    its power iteration reaches when continued to a tighter tolerance;
    the independent check against the factored form Linv Linv^T is
    ``test_rel_err_matches_all_ones_start`` in test_stability_lab.py.
    The infinity-norm log-rate sits in [3.0, 3.526] from level 10 on and
    climbs monotonically toward the upper end; row maxima sit strictly
    inside the (ceil((i+1)/2), i) column window.
    """
    rows = hm.linv_growth_study(65, precision=256)
    for r in rows:
        assert r["norm_sq_rel_err"] <= 1e-10
    rates = [r["ln_inf_over_i"] for r in rows if r["i"] >= 10]
    assert all(3.0 <= v <= 3.526 for v in rates)
    assert all(b > a for a, b in zip(rates, rates[1:]))
    for r in rows:
        if r["i"] >= 10:
            assert math.ceil((r["i"] + 1) / 2) < r["row_max_col"] < r["i"]


def test_criterion_3_reconstruction():
    """Exact polynomial recovery and the quadratic-form norm identity."""
    rng = np.random.default_rng(0)
    for n in range(2, 13):
        k = min(n - 1, 10)
        coeffs = [Fraction(x).limit_denominator(100) for x in rng.uniform(-2, 2, k + 1)]
        f = hm.polynomial(coeffs)
        lam = hm.pseudoinverse(hm.exact_polynomial_moments(coeffs, n))
        assert hm.l2_distance(lam, hm.project(f, n)) < 1e-9
    for n in (2, 5, 8):
        v = [Fraction(x) for x in rng.uniform(-1, 1, n)]
        y = hm.MomentSequence(v)
        hinv = hm.inverse_hilbert(n)
        quad_form = float(sum(hinv[i, j] * v[i] * v[j] for i in range(n) for j in range(n)))
        norm_sq = float(np.sum(hm.pseudoinverse(y).coefficients ** 2))
        assert norm_sq == pytest.approx(quad_form, rel=1e-9)


def test_criterion_4_convergence_rates():
    """Projection errors against the H1 and H2 smoothness-rate bounds,
    tails of 96 coefficients, each budget the measured norm."""
    for f, kind in ((hm.abs_kink(), "H1"), (hm.cubic_exp(), "H2")):
        budget = hm.SobolevBudget(hm.sobolev_norm(f, kind), kind)
        rows = hm.h1_rate_check(f, budget, range(2, 21))
        assert [r["n"] for r in rows] == list(range(2, 21))
        assert all(r["ok"] for r in rows)


def test_criterion_5_amplification():
    """Noise-amplification regression at desk scale (n <= 12, seed 42)."""
    f = hm.peak()
    deltas = tuple(10.0**-k for k in range(2, 8))
    estimates = {n: hm.amplification_experiment(f, n, deltas, R=20, seed=42)
                 for n in range(1, 13)}
    assert 0.8 <= estimates[1].f_n <= 1.25
    assert abs(estimates[2].f_n - estimates[2].f_exact) <= 0.19 * estimates[2].f_exact
    for n in range(4, 13):
        assert 1.0 <= estimates[n].rate <= 1.87
    rows = hm.error_split_study(f, [2, 4, 6, 8, 10, 12])
    assert all(r["ok"] for r in rows)


def test_criterion_6_hausdorff_criterion():
    """Exact criterion values for a range member and a divergent control."""
    y = hm.exact_polynomial_moments((1,), 25)
    for N in range(1, 21):
        assert hm.hausdorff_criterion(y, N).criterion_value == 1
    unit = hm.MomentSequence([Fraction(1)] + [Fraction(0)] * 20)
    assert all(hm.hausdorff_criterion(unit, N).picard_partial == (N + 1) ** 2 for N in range(20))


def test_criterion_7_stable_family():
    """Hardy norm and shape of the (1-t)^alpha Taylor coefficients."""
    target = float(mp.sqrt(mp.pi) / mp.gamma(mp.mpf(3) / 4) ** 2)
    member = hm.stable_family(-0.25, 10_000)
    assert abs(member.hardy_norm_sq - target) < 1e-4
    for alpha in (-0.1, -0.25, -0.4):
        c = hm.stable_family(alpha, 10_000).coeffs
        assert np.all(c > 0)
        assert np.all(np.diff(c) < 0)


def test_criterion_8_point_value():
    """Recovery of x(1) from averaged weighted moments."""
    n_max = 2**17
    ones = hm.MomentSequence([1.0 / j for j in range(1, 1001)])
    for N in (1, 7, 100, 1000):
        assert hm.point_value_estimator(ones, N) == pytest.approx(1.0, abs=1e-12)
    y = [1.0 / (j + 1) for j in range(1, n_max + 1)]
    seq = hm.MomentSequence(y[:200])
    assert 0.03 <= abs(hm.point_value_estimator(seq, 100) - 1.0) <= 0.07
    deltas = [10.0**-k for k in range(2, 7)]
    rows = hm.point_value_noise_study(y, 1.0, deltas)
    errs = [r["error"] for r in rows]
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 0.35 <= slope <= 0.65


def test_criterion_9_holder_counterexample():
    """The scaled-bump ratio doubles per halving of r once m fits the proof."""
    r, m, ratio = hm.holder_counterexample(0.5, 1, 2.0)
    fam = hm.bump_family(1, m)
    lrs = [hm.log_ratio(fam, 0.5, 2.0**-q) for q in range(2, 9)]
    for a, b in zip(lrs, lrs[1:]):
        assert b - a >= math.log(2.0)
    assert ratio > 2.0


def test_criterion_10_cross_checks():
    """Laplace sampling and the layered-disc forward map."""
    rows = hm.laplace_consistency(hm.peak(), list(range(1, 11)), tol=1e-8)
    assert all(r["diff"] <= 1e-8 for r in rows)
    vals = hm.eit_forward(hm.polynomial((0, 0, 1)), list(range(1, 11)))
    assert np.allclose(vals, 0.5, atol=1e-12)
