"""Noise experiments and conditional-stability estimators.

This module reproduces the numerical case studies: the noise-amplification
regression, the Lambert-W balancing of the logarithmic stability bound,
point-value recovery at t = 1, the Hoelder-rate counterexample built from
scaled bumps with vanishing moments, and the Laplace / layered-conductivity
cross-checks of the forward map.  The growth table of the inverse factor,
``linv_growth_study``, needs only exact kernels and lives in exact_core.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import count, islice
from math import exp, fsum, hypot, log, sqrt
from operator import add, mul

from ._lazy import numpy as np
from .exact_core import _fraction, _ln_pair, _Record, _round, _sqrt, inverse_factor_Linv
from .functions import TestFunction
from .legendre import QuadratureRule, _frozen, l2_distance
from .moment_ops import MomentSequence, _quad, _reference, _tail, forward_moments, pseudoinverse

# The noise levels of the amplification regression: the decades 1e-2 .. 1e-7.
_DELTAS = tuple(10.0 ** -k for k in range(2, 8))


class NoiseModel(_Record):
    """Gaussian direction e scaled to l2 norm delta.

    The perturbation applied, (y + e) - y, is delta only up to the
    rounding of y + e, within about 2^-53 ||y + e||: on ``peak``'s first
    12 moments, up to 1.03e-7 relative at delta = 1e-10.
    """

    __slots__ = ("delta", "seed")

    def __init__(self, delta, seed=42):
        if not 0 <= delta < math.inf:
            raise ValueError("delta must be finite and >= 0")
        self._bind(delta, seed)


class AmplificationEstimate(_Record):
    """``rate`` is ln(f_n) / n; ``f_exact`` is sqrt(trace H_n^-1), the target f_n estimates."""

    __slots__ = ("n", "f_n", "rate", "realizations", "f_exact")

    def __init__(self, n, f_n, rate, realizations, f_exact):
        self._bind(n, f_n, rate, realizations, f_exact)


class StabilityBound(_Record):
    """``term_smoothness`` is E^2 / (4 N*^2), ``term_noise`` C_hat exp(3.5 N*) delta^2, and
    ``asymptotic_ok`` w_arg >= e, below which the balancing is unreliable."""

    __slots__ = ("N_star", "bound", "term_smoothness", "term_noise", "w_arg", "asymptotic_ok")

    def __init__(self, N_star, bound, term_smoothness, term_noise, w_arg, asymptotic_ok):
        self._bind(N_star, bound, term_smoothness, term_noise, w_arg, asymptotic_ok)


class BumpFamily(_Record):
    """m-th derivative of the mother bump, normalized to unit H^k norm.

    The first m moments of ``value`` vanish identically (integration by
    parts kills them); ``moments[j-1]`` holds the j-th moment of the
    normalized profile.  ``value`` is a vectorized callable on [0, 1], ``l2_norm`` the
    L2 norm of the normalized profile (<= 1), and ``hk_norm`` the H^k norm of the
    unnormalized profile, kept for reference.
    """

    __slots__ = ("k", "p", "m", "value", "moments", "l2_norm", "hk_norm")

    def __init__(self, k, p, m, value, moments, l2_norm, hk_norm):
        self._bind(k, p, m, value, _frozen(moments), l2_norm, hk_norm)


def lambert_w(z):
    """Principal branch W(z) for finite z >= -1/e, rounded once to a double: Newton's steps
    w (w + ln|w| - ln|z|) / (w + 1) on w + ln|w| = ln|z|, either sign, on Fractions rounded to
    220 bits with exact_core's fixed-point log, until a step is below 2^-100 |w|, from log1p(z)
    on [-0.25, 3), ln z - ln ln z above, and below from the branch-point series in
    p = sqrt(2 (e z + 1)), e z + 1 = -expm1(1 + ln|z|).  W(-1/e) = -1: that double is below -1/e."""
    if not -1.0 / math.e <= z < math.inf:
        raise ValueError("lambert_w needs a finite z >= -1/e")
    if z == -1.0 / math.e or not z:
        return -1.0 if z else 0.0
    ln = lambda x: _fraction(_ln_pair((x.numerator, 1 - x.denominator.bit_length())))  # of a dyadic x > 0
    ln_z = ln(abs(Fraction(z)))
    if z < -0.25:
        p = sqrt(-2.0 * math.expm1(1 + ln_z))
        w = Fraction(-1 + p - p * p / 3 + 11 * p ** 3 / 72)
    else:
        w = Fraction(math.log1p(z) if z < 3 else log(z) - log(log(z)))
    for _ in range(50):  # no double takes more than 7 steps
        step = w * (w + ln(abs(w)) - ln_z) / (w + 1)
        w -= step
        w = _fraction(_round(abs(w.numerator), w.denominator, 220)) * (1 if w > 0 else -1)
        if abs(step) <= abs(w) / 2 ** 100:
            break
    return float(w)


def stability_bound(delta, E, C_hat):
    """Balanced truncation level and error bound for an H1 budget.

    N* = (4/7) W(7 E / (8 sqrt(C_hat) delta)) equalizes the smoothness
    term E^2/(4N^2) against the noise term C_hat exp(3.5 N) delta^2; the
    returned bound is (7/sqrt(8)) E / W(arg).  It is checked at the
    integer level floor(N*), not at ceil(N*), for delta from 1e-3 to 1e-33
    (floor(N*) from 2 to 40): there the exact worst-case reconstruction
    error of ``abs_kink`` (E = 1, C_hat = 1) stays below it.

    At C_hat = 1 the model exp(3.5 N) bounds lambda_max(H_N^-1) from above
    only up to N = 280.  ln lambda_max / N rises towards 4 ln(1+sqrt 2) =
    3.5255; it is 3.4736 at N = 130 (``linv_growth_study(130)``), where
    the asymptotic (1+sqrt 2)^(4N) / (2^(15/4) pi^(3/2) sqrt N) (1 + c/N)
    gives c = 0.555.  That fitted form crosses exp(3.5 N) at N = 279.7,
    which is N* at delta = 4.6e-216 for E = C_hat = 1; below about that
    delta, ``term_noise`` is no longer an upper bound.
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
    """y + e, e a Gaussian direction drawn from rng with l2 norm delta (see NoiseModel)."""
    e = rng.standard_normal(y.n)
    e *= delta / np.linalg.norm(e)
    return MomentSequence(y.to_array() + e)


def noisy_data(y, model):
    """y plus a Gaussian perturbation of l2 norm delta, up to rounding (see NoiseModel)."""
    return _perturbed(y, model.delta, np.random.default_rng(model.seed))


def _noisy_reconstructions(y, deltas, R, seed):
    """For each realization r < R, the reconstructions pseudoinverse(y + e)
    for every delta in turn, the e drawn from the stream (seed, y.n, r)."""
    for r in range(R):
        rng = np.random.default_rng([seed, y.n, r])
        yield [pseudoinverse(_perturbed(y, delta, rng)) for delta in deltas]


def _as_moments(data, n):
    if isinstance(data, MomentSequence):
        if data.n < n:
            raise ValueError(f"need {n} moments, data has {data.n}")
        return MomentSequence(data.values[:n])
    return forward_moments(data, n)


def _f_exact(n):
    """sqrt(trace H_n^-1) correctly rounded, or math.inf past the double range."""
    # trace H_n^-1 = ||Linv_n||_F^2 = sum_i (2i-1) sum_j M_ij^2, an exact int
    t = sum((2 * i + 1) * sum(x * x for x in row)
            for i, row in enumerate(inverse_factor_Linv(n).rational_part.num))
    try:
        return _sqrt((t, 0))
    except OverflowError:
        return math.inf


def amplification_experiment(f, n, deltas=_DELTAS, R=20, seed=42):
    """Fitted noise-amplification factor f_n at truncation level n.

    Each realization r draws an independent stream from (seed, n, r); for
    every delta the reconstruction error against the clean reconstruction
    is recorded, a least-squares line of squared error against squared
    delta through the origin is fitted per realization, and the factor is
    f_n = sqrt(n * mean slope).  f_n estimates ``f_exact`` = sqrt(trace
    H_n^-1), reported alongside: the Frobenius norm of the inverse factor
    (f_n^2 is unbiased for the trace), not its operator norm; the two are
    close, sqrt(trace / lambda_max) being 1.0256 at n = 2 and 1.0020 at
    n = 12.  At R = 20 one estimate is off by up to +-35 % (peak, n <= 12).
    """
    deltas = tuple(deltas)
    if R < 1:
        raise ValueError("R must be >= 1")
    if not deltas:
        raise ValueError("deltas must not be empty")
    if not all(0 < d < math.inf for d in deltas):
        raise ValueError("deltas must be finite and positive")
    y = _as_moments(f, n)
    clean = pseudoinverse(y)
    d2 = np.array(deltas) ** 2
    slopes = []
    for lams in _noisy_reconstructions(y, deltas, R, seed):
        err2 = np.array([l2_distance(lam, clean) ** 2 for lam in lams])
        if np.all(err2 < 1e-30):
            raise RuntimeError(f"degenerate fit at n={n}: all errors below float noise")
        slopes.append(float(np.dot(err2, d2) / np.dot(d2, d2)))
    f_n = sqrt(n * fsum(slopes) / R)
    return AmplificationEstimate(
        n=n, f_n=f_n, rate=log(f_n) / n, realizations=R, f_exact=_f_exact(n)
    )


def error_split_study(f, n_list):
    """Measured total error against the split envelope hypot(f delta, tail).

    Rows (n, delta, total, envelope, ok) for delta in 1e-2 .. 1e-7, f the
    exact f_exact = sqrt(trace H_n^-1), each total the mean ``l2_distance``
    to the reference of 20 realizations from seed 42, drawn as
    ``amplification_experiment`` draws them, ok when it is at most 1.2
    envelopes.  The reference is the max(4n, 96) cut at the largest level,
    each tail its ``_tail``, at most as low as ``projection_error``'s.  An
    empty level list or a level below 1 is refused before it is built.
    """
    n_list = tuple(n_list)
    if not n_list or min(n_list) < 1:
        raise ValueError("levels must be a nonempty list of n >= 1")
    R, seed = 20, 42
    ref = _reference(f, max(n_list))
    rows = []
    for n in n_list:
        y = _as_moments(f, n)
        f_exact = _f_exact(n)
        tail = _tail(ref, n)
        for delta, lams in zip(_DELTAS, zip(*_noisy_reconstructions(y, _DELTAS, R, seed))):
            total = fsum(l2_distance(lam, ref) for lam in lams) / R
            envelope = hypot(f_exact * delta, tail)
            rows.append({"n": n, "delta": delta, "total": total, "envelope": envelope, "ok": total <= 1.2 * envelope})
    return rows


def point_value_estimator(y, N):
    """(1/N) sum_{j<=N} j y_j, the data part of the averaged t=1 identity.

    With K_N(t) = t + ... + t^N, integration by parts gives
    sum_{j<=N} j y_j = N x(1) - int K_N x', so the estimate is x(1) minus
    (1/N) int K_N x'.  As ||K_N||^2 = sum_{j,k<=N} 1/(j+k+1) <= (2N+1) ln 2,
    for x in H^1 and data off the exact moments by at most delta in l2,

        |estimate - x(1)| <= ||x'|| sqrt((2N+1) ln 2) / N
                             + delta sqrt((N+1)(2N+1) / (6N)),

    and N near sqrt(6 ln 2) ||x'|| / delta makes this about
    1.65 sqrt(||x'|| delta): the value at t = 1 is Hoelder-1/2 stable.
    A non-finite moment among the N it reads is refused.
    """
    if N < 1 or N > y.n:
        raise ValueError("N must satisfy 1 <= N <= y.n")
    vals = [float(v) for v in y.values[:N]]
    if not all(map(math.isfinite, vals)):
        raise ValueError("moments must be finite")
    return fsum((j + 1) * v for j, v in enumerate(vals)) / N


def point_value_noise_study(y_values, true_value, deltas):
    """Worst-case point-value errors over dyadic averaging lengths.

    For each delta the perturbation is the one that saturates the
    Cauchy-Schwarz step of the estimator's noise term, e = -delta j/|j|,
    so the measured error is bias(N) + delta sqrt(sum j^2)/N with no
    sampling noise, the sum in closed form, N(N+1)(2N+1)/6.  Returns rows
    (delta, best_N, error) where the error is minimized over the dyadic
    N = 2^q <= len(y_values), so the data's length sets the largest level.
    For the exact moments of an x in H^1 and true_value = x(1), each row's
    error is at most the bound of ``point_value_estimator`` at its best_N,
    whose noise term is this one:
    ||x'|| sqrt((2N+1) ln 2) / N + delta sqrt((N+1)(2N+1) / (6N)).
    The data part is the running float sums in np.cumsum's order (added
    one by one from the left, segment by segment onto the last sum; not
    builtin sum(), which compensates from Python 3.12 on), not the
    estimator's ``fsum``: for x = t with 2^17 moments the two differ at 13
    of the 18 levels, by up to 7.7e-15 relative.  Non-finite moments or
    true_value are refused.
    """
    deltas = tuple(deltas)
    if not all(0 <= d < math.inf for d in deltas):
        raise ValueError("deltas must be finite and >= 0")
    if not math.isfinite(true_value):
        raise ValueError("true_value must be finite")
    y = list(map(float, y_values))
    if not y:
        raise ValueError("y_values must not be empty")
    if not all(map(math.isfinite, y)):
        raise ValueError("moments must be finite")
    levels = [1 << q for q in range(len(y).bit_length())]
    terms = map(mul, count(1.0), y)
    sums = [next(terms)]
    for N in levels[:-1]:  # terms N+1..2N onto the sum of the first N
        sums.append(reduce(add, islice(terms, N), sums[-1]))
    bias = [abs(s / N - true_value) for s, N in zip(sums, levels)]
    root = [sqrt(N * (N + 1) * (2 * N + 1) // 6) for N in levels]
    rows = []
    for delta in deltas:
        err = [b + delta * r / N for b, r, N in zip(bias, root, levels)]
        # np.argmin's choice: the first NaN, else the first of equal minima, the smallest N
        best = min(range(len(err)), key=lambda i: (err[i] == err[i], err[i]))
        rows.append({"delta": delta, "best_N": levels[best], "error": float(err[best])})
    return rows


def _mother_bump_derivative(m):
    """Vectorized m-th derivative of exp(-1/(s(1-s))) on (0,1), zero outside.

    The values come from entry m of the ``_bump_derivatives`` table,
    sympy's own lambdified expressions frozen as source, so no sympy runs.
    The table is imported here, not at module level, so that ``import
    hausmom.cli`` does not compile it; its first use runs numpy's import.
    """
    from ._bump_derivatives import DERIVATIVES

    core = DERIVATIVES[m]

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
    integrals by 400-node Gauss-Legendre.  The derivatives come from a
    table of orders 1..8, the orders whose moments stay accurate (see
    ``_bump_derivatives``); a derivative order m + k beyond it raises
    RuntimeError before any bump is evaluated.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    from ._bump_derivatives import DERIVATIVES

    if m + k > len(DERIVATIVES):
        raise RuntimeError(f"bump derivative order m + k = {m + k} exceeds {len(DERIVATIVES)}, "
                           "the largest whose moments are accurate to 1e-8")
    rule = QuadratureRule.gauss(400)
    derivs = [_mother_bump_derivative(m + order) for order in range(k + 1)]
    at_nodes = [np.asarray(d(rule.nodes)) for d in derivs]
    hk = sqrt(fsum(float(np.sum(rule.weights * a**2)) for a in at_nodes))
    base = derivs[0]

    def value(t):
        return np.asarray(base(t)) / hk

    vals = at_nodes[0] / hk
    moments = np.array([
        float(np.sum(rule.weights * rule.nodes ** (j - 1) * vals))
        for j in range(1, 61)
    ])
    l2 = sqrt(float(np.sum(rule.weights * vals**2)))
    return BumpFamily(k=k, p=k - 0.5, m=m, value=value, moments=moments,
                      l2_norm=l2, hk_norm=hk)


def _choose_m(mu, p):
    """Smallest m >= 1 beyond the proof inequality, m > (2p+1)(1-mu)/mu - 1/2,
    that also gives squared-ratio growth of at least 2^2 per halving of r,
    (1+2m) mu - (2p+1)(1-mu) >= 2.

    Each test, in floats, fails below some m and holds from it on, so m is
    found by doubling and then bisection: about 2 log2(m) tests instead of
    m, whatever the float rounding near the thresholds.  A mu so small
    that 1 + 2m could pass the double range in the search is refused.
    """
    c = (2 * p + 1) * (1 - mu)
    bound = c / mu - 0.5
    if not bound + (2 + c) / mu < 2.0**1020:
        raise RuntimeError(f"mu = {mu:g} needs a bump order m beyond any limit")

    def holds(m):
        return m > bound and (1 + 2 * m) * mu - c >= 2

    hi = 1
    while not holds(hi):
        hi *= 2
    lo = hi // 2  # 0, or an m that fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def log_ratio(family, mu, r):
    """ln of ||x_r|| / ||A x_r||^mu for x_r(t) = r^p g(t/r), in log space.

    The moment sum is factored through its leading power of r so that no
    underflow occurs however small r gets; mu outside (0, 1) and r outside
    (0, 1] are refused.
    """
    if not 0 < mu < 1:
        raise ValueError("mu must lie in (0, 1)")
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    p = family.p
    m = family.m
    g2 = family.moments[m:] ** 2  # moments m+1, m+2, ... of g
    js = np.arange(m + 1, m + 1 + len(g2), dtype=float)
    # ||A x_r||^2 = sum_j r^(2p+2j) g_j^2 = r^(2(p+m+1)) sum g_j^2 r^(2(j-m-1))
    powers = g2 * np.exp(2.0 * (js - (m + 1)) * log(r))
    log_ax = (p + m + 1) * log(r) + 0.5 * log(float(np.sum(powers)))
    log_x = (p + 0.5) * log(r) + log(family.l2_norm)
    return log_x - mu * log_ax


def holder_counterexample(mu, k, C):
    """Witness against a Hoelder stability estimate with exponent mu.

    Builds the scaled bump family with p = k - 1/2 and m chosen from the
    proof inequality, then halves r from 1/4 until the ratio
    ||x_r||/||Ax_r||^mu exceeds C.  Returns (r, m, ratio); raises
    RuntimeError carrying the best achieved ratio if r falls below 2^-40
    first.
    """
    if not 0 < mu < 1:
        raise ValueError("mu must lie in (0, 1)")
    if not 0 < C < math.inf:
        raise ValueError("C must be finite and positive")
    p = k - 0.5
    m = _choose_m(mu, p)
    family = bump_family(k, m)
    r_min = 2.0**-40
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
    exp(-j T)/j tail bound kept below tol/10.  An empty level list, a
    level below 1, or an f that is not finite on its 2001-point grid of
    [0, 1] is refused before any quadrature runs.  Each integral is one
    QUADPACK call (``_quad``); one that is not finite, or for which
    QUADPACK reports a nonzero ier, is refused.
    """
    j_list = tuple(j_list)
    if not j_list:
        raise ValueError("j_list must not be empty")
    if min(j_list) < 1:
        raise ValueError("levels must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    mf = float(np.max(np.abs(np.asarray(f(np.linspace(0.0, 1.0, 2001)))))) or 1.0
    if not math.isfinite(mf):
        raise ValueError("f must be finite on [0, 1]")
    y = forward_moments(f, max(j_list))
    rows = []
    for j in j_list:
        T = max(1.0, log(10.0 * mf / (j * tol)) / j)
        tail = mf * exp(-j * T) / j
        val, err, ier = _quad(lambda tau: exp(-j * tau) * float(f(exp(-tau))), 0.0, T, tol / 10, 400)
        if ier or not math.isfinite(val):
            raise RuntimeError(f"Laplace integral for j={j} did not converge (v={val!r}, err={err:.2e}, ier={ier})")
        diff = abs(val - float(y.values[j - 1]))
        rows.append({
            "j": j, "moment": float(y.values[j - 1]), "laplace": val,
            "diff": diff, "tail_bound": tail, "ok": diff <= tol + tail,
        })
    return rows


def eit_forward(sigma, n_list):
    """Linearized layered-disc forward map: ((n+1)/2) moment_n of sigma(sqrt(t)), by ``forward_moments``."""
    n_list = tuple(n_list)
    if not n_list or min(n_list) < 1:
        raise ValueError("mode numbers must be a nonempty list of n >= 1")
    y = forward_moments(TestFunction(lambda t: sigma(sqrt(t))), max(n_list)).values
    return np.array([(n + 1) / 2.0 * y[n - 1] for n in n_list])
