"""Noise experiments and conditional-stability estimators.

This module reproduces the numerical case studies: the growth of the
inverse triangular factor, the noise-amplification regression, the
Lambert-W balancing of the logarithmic stability bound, point-value
recovery at t = 1, the Hoelder-rate counterexample built from scaled
bumps with vanishing moments, and the Laplace / layered-conductivity
cross-checks of the forward map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, exp, fsum, log, sqrt

import mpmath as mp
import numpy as np

from .exact_core import RationalMatrix, factored_gram_norm, inverse_factor_Linv, spectral_norm
from .legendre import QuadratureRule, l2_distance, project
from .moment_ops import MomentSequence, forward_moments, pseudoinverse

__all__ = [
    "NoiseModel",
    "AmplificationEstimate",
    "StabilityBound",
    "BumpFamily",
    "lambert_w",
    "stability_bound",
    "noisy_data",
    "amplification_experiment",
    "error_split_study",
    "linv_growth_study",
    "point_value_estimator",
    "point_value_noise_study",
    "bump_family",
    "log_ratio",
    "holder_counterexample",
    "laplace_consistency",
    "eit_forward",
]


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian direction scaled so that the l2 perturbation is exactly delta."""

    delta: float
    seed: int = 42

    def __post_init__(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and >= 0")


@dataclass(frozen=True)
class AmplificationEstimate:
    n: int
    f_n: float
    rate: float  # ln(f_n) / n
    realizations: int
    delta_grid: tuple


@dataclass(frozen=True)
class StabilityBound:
    N_star: float
    bound: float
    term_smoothness: float  # E^2 / (4 N*^2)
    term_noise: float  # C_hat exp(3.5 N*) delta^2
    w_arg: float
    asymptotic_ok: bool  # w_arg >= e; below it the balancing is unreliable


@dataclass(frozen=True)
class BumpFamily:
    """m-th derivative of the mother bump, normalized to unit H^k norm.

    The first m moments of ``value`` vanish identically (integration by
    parts kills them); ``moments[j-1]`` holds the j-th moment of the
    normalized profile.
    """

    k: int
    p: float
    m: int
    value: object  # vectorized callable on [0, 1]
    moments: np.ndarray
    l2_norm: float  # L2 norm of the normalized profile (<= 1)
    hk_norm: float  # H^k norm of the unnormalized profile, kept for reference


def lambert_w(z):
    """Principal branch W(z) for finite z >= -1/e, from ``scipy.special.lambertw``.

    W(-1/e) = -1 is returned directly: scipy gives nan at that double.
    """
    if not -1.0 / math.e <= z < math.inf:
        raise ValueError("lambert_w needs a finite z >= -1/e")
    if z == -1.0 / math.e:
        return -1.0
    from scipy.special import lambertw
    return float(lambertw(z).real)


def stability_bound(delta, E, C_hat):
    """Balanced truncation level and error bound for an H1 budget.

    N* = (4/7) W(7 E / (8 sqrt(C_hat) delta)) equalizes the smoothness
    term E^2/(4N^2) against the noise term C_hat exp(3.5 N) delta^2; the
    returned bound is (7/sqrt(8)) E / W(arg).
    """
    if not all(0 < v < math.inf for v in (delta, E, C_hat)):
        raise ValueError("delta, E and C_hat must be finite and positive")
    arg = 7.0 * E / (8.0 * sqrt(C_hat) * delta)
    w = lambert_w(arg)
    n_star = 4.0 * w / 7.0
    return StabilityBound(
        N_star=n_star,
        bound=7.0 / sqrt(8.0) * E / w,
        term_smoothness=E * E / (4.0 * n_star * n_star),
        term_noise=C_hat * exp(3.5 * n_star + 2.0 * log(delta)),
        w_arg=arg,
        asymptotic_ok=arg >= math.e,
    )


def _perturbed(y, delta, rng):
    """y plus a Gaussian direction drawn from rng, scaled to l2 size exactly delta."""
    e = rng.standard_normal(y.n)
    e *= delta / np.linalg.norm(e)
    return MomentSequence.from_values(y.to_array() + e)


def noisy_data(y, model):
    """y plus a normalized Gaussian perturbation of l2 size exactly delta."""
    if model.delta == 0.0:
        return MomentSequence.from_values([float(v) for v in y.values])
    return _perturbed(y, model.delta, np.random.default_rng(model.seed))


def _as_moments(data, n):
    if isinstance(data, MomentSequence):
        if data.n < n:
            raise ValueError(f"need {n} moments, data has {data.n}")
        return MomentSequence.from_values(data.values[:n])
    return forward_moments(data, n)


def amplification_experiment(f, n, deltas=None, R=20, seed=42):
    """Fitted noise-amplification factor f_n at truncation level n.

    Each realization r draws an independent stream from (seed, n, r); for
    every delta the reconstruction error against the clean reconstruction
    is recorded, a least-squares line of squared error against squared
    delta through the origin is fitted per realization, and the factor is
    f_n = sqrt(n * mean slope).  Squared-error regression makes the
    estimator unbiased for the Frobenius norm of the inverse factor,
    which tracks the operator norm within a few percent here.
    """
    deltas = tuple(deltas) if deltas is not None else tuple(10.0 ** -k for k in range(2, 8))
    if R < 1:
        raise ValueError("R must be >= 1")
    if not all(0 < d < math.inf for d in deltas):
        raise ValueError("deltas must be finite and positive")
    y = _as_moments(f, n)
    clean = pseudoinverse(y)
    d2 = np.array(deltas) ** 2
    slopes = []
    for r in range(R):
        rng = np.random.default_rng([seed, n, r])
        err2 = np.empty(len(deltas))
        for i, delta in enumerate(deltas):
            err2[i] = l2_distance(pseudoinverse(_perturbed(y, delta, rng)), clean) ** 2
        if np.all(err2 < 1e-30):
            raise RuntimeError(f"degenerate fit at n={n}: all errors below float noise")
        slopes.append(float(np.dot(err2, d2) / np.dot(d2, d2)))
    f_n = sqrt(n * fsum(slopes) / R)
    return AmplificationEstimate(
        n=n, f_n=f_n, rate=log(f_n) / n, realizations=R, delta_grid=deltas
    )


def error_split_study(f, n_list, deltas=None, R=20, seed=42, slack=1.2):
    """Measured total error against the split envelope sqrt(f_n^2 d^2 + tail^2).

    Returns rows (n, delta, total, envelope, ok); the reference expansion
    has 160 coefficients, so its own truncation is negligible against the
    levels in n_list; an empty level list, a level below 1 or above 160
    is refused before it is built.
    """
    if not n_list or min(n_list) < 1:
        raise ValueError("levels must be a nonempty list of n >= 1")
    deltas = tuple(deltas) if deltas is not None else tuple(10.0 ** -k for k in range(2, 8))
    m_ref = 160
    for n in n_list:
        if n > m_ref:
            raise ValueError(f"level {n} exceeds the {m_ref}-coefficient reference")
    ref = project(f, m_ref).coefficients
    rows = []
    for n in n_list:
        y = _as_moments(f, n)
        est = amplification_experiment(y, n, deltas, R, seed)
        tail_sq = float(np.sum(ref[n:] ** 2))
        for k, delta in enumerate(deltas):
            tots = []
            for r in range(R):
                rng = np.random.default_rng([seed, n, r, k])
                lam = pseudoinverse(_perturbed(y, delta, rng)).coefficients
                tots.append(sqrt(float(np.sum((lam - ref[:n]) ** 2)) + tail_sq))
            total = fsum(tots) / R
            envelope = sqrt(est.f_n**2 * delta**2 + tail_sq)
            rows.append({
                "n": n, "delta": delta, "total": total,
                "envelope": envelope, "ok": total <= slack * envelope,
            })
    return rows


def linv_growth_study(n_max, precision=256):
    """Growth table of the inverse factor for i = 1..n_max.

    Per level: the spectral norm of the inverse factor (squared it equals
    the spectral norm of the inverse Hilbert segment, cross-checked by an
    independent factored power iteration), the row-wise absolute maximum
    and its column, the last diagonal entry, the reference curve
    exp(1.763 i), and the exact infinity-norm of the inverse Hilbert
    segment with its logarithmic rate.

    The integer factor M of Linv_{n_max} = diag(sqrt(2k-1)) M is built
    once; level i reads its leading i x i block M_i.  H_i^{-1} =
    M_i^T diag(2k-1) M_i is kept as int rows and grown by a rank-one
    update: pad H_{i-1}^{-1} with a zero row and column and add
    (2i-1) r r^T, r the first i entries of row i of M.  That is O(i^2)
    exact work per level, so the exact part of the study is O(n_max^3).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m = inverse_factor_Linv(n_max).rational_part.num
    h = []  # int rows of H_i^{-1}
    rows = []
    for i in range(1, n_max + 1):
        r = m[i - 1][:i]
        h = [[a + (2 * i - 1) * rj * rk for a, rk in zip(row + [0], r)]
             for row, rj in zip(h + [[0] * (i - 1)], r)]
        hinv = RationalMatrix(h)
        lam = spectral_norm(hinv, precision=precision)
        lam_indep = factored_gram_norm(RationalMatrix([row[:i] for row in m[:i]]), precision)
        rel = abs(lam - lam_indep) / lam
        norm = float(mp.sqrt(lam))
        # row maxima of |Linv|: the sqrt-weight is constant along a row,
        # so the argmax over j is that of the integer rational part
        scaled = [sqrt(2 * i - 1) * abs(float(x)) for x in r]
        best = max(scaled)
        diag = sqrt(2 * i - 1) * comb(2 * i - 2, i - 1)
        inf_norm = hinv.abs_row_sums()
        rows.append({
            "i": i,
            "norm": norm,
            "norm_sq_rel_err": float(rel),
            "row_max": best,
            "row_max_col": scaled.index(best) + 1,
            "diag": diag,
            "bound": exp(1.763 * i),
            "ln_spectral_over_i": float(mp.log(lam)) / i,
            "ln_inf_over_i": log(float(inf_norm)) / i,
        })
    return rows


def point_value_estimator(y, N):
    """(1/N) sum_{j<=N} j y_j, the data part of the averaged t=1 identity."""
    if N < 1 or N > y.n:
        raise ValueError("N must satisfy 1 <= N <= y.n")
    vals = y.to_array()[:N]
    return fsum((j + 1) * v for j, v in enumerate(vals)) / N


def point_value_noise_study(y_values, true_value, deltas, max_level_exp=17):
    """Worst-case point-value errors over dyadic averaging lengths.

    For each delta the perturbation is the one that saturates the
    Cauchy-Schwarz step of the estimator's noise term, e = -delta j/|j|,
    so the measured error is bias(N) + delta sqrt(sum j^2)/N with no
    sampling noise.  Returns rows (delta, best_N, error) where the error
    is minimized over N in {2^0 .. 2^max_level_exp}.
    """
    if max_level_exp < 0:
        raise ValueError("max_level_exp must be >= 0")
    if not all(0 <= d < math.inf for d in deltas):
        raise ValueError("deltas must be finite and >= 0")
    y = np.asarray(y_values, dtype=float)
    if not y.size:
        raise ValueError("y_values must not be empty")
    levels = [2**q for q in range(max_level_exp + 1) if 2**q <= len(y)]
    j = np.arange(1, len(y) + 1, dtype=float)
    partial = np.cumsum(j * y)
    partial_j2 = np.cumsum(j * j)
    rows = []
    for delta in deltas:
        best = None
        for N in levels:
            bias = abs(partial[N - 1] / N - true_value)
            noise = delta * sqrt(partial_j2[N - 1]) / N
            err = bias + noise
            if best is None or err < best[1]:
                best = (N, err)
        rows.append({"delta": delta, "best_N": best[0], "error": best[1]})
    return rows


def _mother_bump_derivative(m):
    """Vectorized m-th derivative of exp(-1/(s(1-s))) on (0,1), zero outside."""
    import sympy as sp  # the only user; importing it at module level costs every import about 0.4 s

    s = sp.symbols("s")
    expr = sp.diff(sp.exp(-1 / (s * (1 - s))), s, m)
    core = sp.lambdify(s, expr, modules="numpy")

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = (t > 1e-12) & (t < 1.0 - 1e-12)
        if np.any(inside):
            out[inside] = core(t[inside])
        return out

    return g


def bump_family(k, m):
    """Scaled-bump building block for the Hoelder counterexample.

    The profile is the m-th derivative of the mother bump, normalized to
    unit H^k norm; its first m moments vanish by integration by parts and
    the stored ``moments`` are the first 60 of the normalized profile, all
    integrals by 400-node Gauss-Legendre.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    rule = QuadratureRule.gauss(400)
    derivs = [_mother_bump_derivative(m + order) for order in range(k + 1)]
    hk_sq = fsum(
        float(np.sum(rule.weights * np.asarray(d(rule.nodes)) ** 2)) for d in derivs
    )
    hk = sqrt(hk_sq)
    base = derivs[0]

    def value(t):
        return np.asarray(base(t)) / hk

    vals = np.asarray(base(rule.nodes)) / hk
    moments = np.array([
        float(np.sum(rule.weights * rule.nodes ** (j - 1) * vals))
        for j in range(1, 61)
    ])
    l2 = sqrt(float(np.sum(rule.weights * vals**2)))
    return BumpFamily(k=k, p=k - 0.5, m=m, value=value, moments=moments,
                      l2_norm=l2, hk_norm=hk)


def _choose_m(mu, p):
    """Smallest m beyond the proof inequality that also gives squared-ratio
    growth of at least 2^2 per halving of r."""
    m = 1
    while not (m > (2 * p + 1) * (1 - mu) / mu - 0.5 and (1 + 2 * m) * mu - (2 * p + 1) * (1 - mu) >= 2):
        m += 1
    return m


def log_ratio(family, mu, r):
    """ln of ||x_r|| / ||A x_r||^mu for x_r(t) = r^p g(t/r), in log space.

    The moment sum is factored through its leading power of r so that no
    underflow occurs however small r gets.
    """
    p = family.p
    m = family.m
    g2 = family.moments[m:] ** 2  # moments m+1, m+2, ... of g
    js = np.arange(m + 1, m + 1 + len(g2), dtype=float)
    # ||A x_r||^2 = sum_j r^(2p+2j) g_j^2 = r^(2(p+m+1)) sum g_j^2 r^(2(j-m-1))
    powers = g2 * np.exp(2.0 * (js - (m + 1)) * log(r))
    log_ax = (p + m + 1) * log(r) + 0.5 * log(float(np.sum(powers)))
    log_x = (p + 0.5) * log(r) + log(family.l2_norm)
    return log_x - mu * log_ax


def holder_counterexample(mu, k, C, r_min=2.0**-40):
    """Witness against a Hoelder stability estimate with exponent mu.

    Builds the scaled bump family with p = k - 1/2 and m chosen from the
    proof inequality, then halves r from 1/4 until the ratio
    ||x_r||/||Ax_r||^mu exceeds C.  Returns (r, m, ratio); raises
    RuntimeError carrying the best achieved ratio if r_min is reached
    first.
    """
    if not 0 < mu < 1:
        raise ValueError("mu must lie in (0, 1)")
    if not 0 < C < math.inf:
        raise ValueError("C must be finite and positive")
    p = k - 0.5
    m = _choose_m(mu, p)
    family = bump_family(k, m)
    r = 0.25
    best = -math.inf
    while r >= r_min:
        lr = log_ratio(family, mu, r)
        best = max(best, lr)
        if lr > log(C):
            return r, m, exp(lr)
        r /= 2.0
    err = RuntimeError(f"ratio target {C} not reached above r={r_min}; best ratio {exp(best):.6g}")
    err.best_ratio = exp(best)
    raise err


def laplace_consistency(f, j_list, tol=1e-8):
    """Moments against the exponentially substituted integral.

    The substitution t = exp(-tau) turns the j-th moment into an integral
    of exp(-j tau) f(exp(-tau)) over (0, inf), truncated at T_j with the
    exp(-j T)/j tail bound kept below tol/10.  An empty level list or a
    level below 1 is refused before any quadrature runs.
    """
    if not j_list:
        raise ValueError("j_list must not be empty")
    if min(j_list) < 1:
        raise ValueError("levels must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    from scipy.integrate import quad
    y = forward_moments(f, max(j_list))
    t_grid = np.linspace(0.0, 1.0, 2001)
    mf = float(np.max(np.abs(np.asarray(f(t_grid))))) or 1.0
    rows = []
    for j in j_list:
        T = max(1.0, log(10.0 * mf / (j * tol)) / j)
        tail = mf * exp(-j * T) / j
        val, _ = quad(lambda tau: exp(-j * tau) * float(f(exp(-tau))), 0.0, T,
                      epsabs=tol / 10, epsrel=tol / 10, limit=400)
        diff = abs(val - float(y.values[j - 1]))
        rows.append({
            "j": j, "moment": float(y.values[j - 1]), "laplace": val,
            "diff": diff, "tail_bound": tail, "ok": diff <= tol + tail,
        })
    return rows


def eit_forward(sigma, n_list):
    """Linearized layered-disc forward map: ((n+1)/2) moment_n of sigma(sqrt(t))."""
    from scipy.integrate import quad
    out = []
    for n in n_list:
        if n < 1:
            raise ValueError("mode numbers must be >= 1")
        out.append((n + 1) / 2.0 * quad(lambda t: float(sigma(sqrt(t))) * t ** (n - 1), 0.0, 1.0,
                                        epsabs=1e-13, epsrel=1e-13, limit=200)[0])
    return np.array(out)
