"""Shifted, normalized Legendre polynomials on [0, 1].

L_k(t) = sqrt(2k+1) P_k(2t - 1) form an orthonormal basis of L^2(0, 1);
coefficient vectors are 1-based in the sense that entry i holds the
coefficient of L_{i-1}, matching the row/column indexing of the
triangular moment factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from math import sqrt

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class LegendreExpansion:
    """Coefficients (lambda_1 .. lambda_m) of L_0 .. L_{m-1}."""

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    @property
    def m(self):
        return len(self.coefficients)


@cache
def _leggauss(npts):
    """numpy's leggauss(npts), made read-only; only QuadratureRule.composite reads it."""
    x, w = leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def gauss(cls, npts):
        """Gauss-Legendre with npts nodes on [0, 1]; exact to degree 2*npts-1."""
        return cls.composite(npts, (0.0, 1.0))

    @classmethod
    def composite(cls, npts, breakpoints):
        """Gauss-Legendre with npts nodes on each piece between consecutive
        breakpoints, pieces in order; the constructor behind every rule.

        numpy's leggauss runs once per node count in a process; one
        broadcast maps that read-only [-1, 1] rule onto all pieces, into
        new arrays for each rule.
        """
        x, w = _leggauss(npts)
        bps = np.asarray(breakpoints, dtype=float)
        a, b = bps[:-1, None], bps[1:, None]
        return cls(((b - a) / 2 * x + (a + b) / 2).ravel(), ((b - a) / 2 * w).ravel())

    @classmethod
    def endpoint_graded(cls, npts):
        """Composite rule geometrically refined toward t = 1.

        For integrands whose derivative blows up at 1 (the (1-t)^alpha
        family) plain Gauss stalls; this splits [0,1] at 1 - 2^-l,
        l = 1..40.  A node that rounds to 1.0 (from 154 per piece), where
        such f are infinite, moves to the double below 1 with its weight.
        """
        bps = [0.0] + [1.0 - 2.0 ** -l for l in range(1, 41)] + [1.0]
        rule = cls.composite(npts, bps)
        rule.nodes[rule.nodes >= 1.0] = np.nextafter(1.0, 0.0)
        return rule


def _unit_points(t):
    """t as a float array, refused unless every entry lies in [0, 1] (NaN does not)."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0) & (t_arr <= 1)):
        raise ValueError("t must lie in [0, 1]")
    return t_arr


def legendre_eval(k, t):
    """L_k(t) for scalar or array t, the last row of :func:`basis_matrix`."""
    if k < 0:
        raise ValueError("k must be >= 0")
    t_arr = _unit_points(t)
    out = basis_matrix(k + 1, t_arr.ravel())[k].reshape(t_arr.shape)
    return out if out.shape else float(out)


def basis_matrix(m, t):
    """Rows L_0(t) .. L_{m-1}(t); one recurrence pass for all degrees."""
    t = np.asarray(t, dtype=float)
    x = 2 * t - 1
    out = np.empty((m, len(t)))
    out[:1] = 1.0
    out[1:2] = sqrt(3) * x
    pkm1, pk = np.ones_like(x), x
    for k in range(2, m):
        pkm1, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pkm1) / k
        out[k] = sqrt(2 * k + 1) * pk
    return out


def _rule_key(f, m):
    """The inputs default_rule reads from f, with m: a hashable key."""
    return m, tuple(getattr(f, "breakpoints", ()) or ()), bool(getattr(f, "singular_at_one", False))


def _rule(m, breakpoints, singular_at_one):
    npts = m + 8
    if singular_at_one:
        return QuadratureRule.endpoint_graded(npts)
    return QuadratureRule.composite(npts, sorted({0.0, 1.0, *breakpoints}))


def default_rule(f, m):
    """Quadrature rule with m + 8 nodes per piece, matched to f: honours
    breakpoints and the t=1 grading."""
    return _rule(*_rule_key(f, m))


# The 8 cached entries hold at most about 70 MB (8.8 MB each for the
# 41-piece graded rule at m = 160); one graded basis at m = 800 alone is
# 212 MB, so larger m build their tables per call.
_CACHED_M_MAX = 160


def _projector(m, breakpoints, singular_at_one):
    """The rule default_rule gives for the key and basis_matrix(m, rule.nodes),
    made read-only: m + 2 doubles per node."""
    rule = _rule(m, breakpoints, singular_at_one)
    basis = basis_matrix(m, rule.nodes)
    for a in (rule.nodes, rule.weights, basis):
        a.flags.writeable = False
    return rule, basis


_cached_projector = lru_cache(maxsize=8)(_projector)


def project(f, m):
    """First m Legendre coefficients of f by quadrature.

    Exact (to roundoff) for polynomial f of degree < m with
    :func:`default_rule`.  For m up to 160 the rule and its basis matrix
    come from a process-wide cache of 8 read-only entries, least recently
    used dropping out, keyed on m, f's breakpoints and its t=1 flag, so a
    repeated projection evaluates only f.  The largest entry, the
    41-piece graded rule at m = 160, holds an 8.8 MB basis.
    """
    key = _rule_key(f, m)
    quad, basis = (_cached_projector if m <= _CACHED_M_MAX else _projector)(*key)
    fv = np.asarray(f(quad.nodes), dtype=float)
    if fv.shape != quad.nodes.shape:
        fv = np.broadcast_to(fv, quad.nodes.shape)
    return LegendreExpansion(basis @ (fv * quad.weights))


def expansion_eval(e, t):
    """Evaluate sum_i lambda_i L_{i-1}(t)."""
    t_arr = np.atleast_1d(_unit_points(t))
    vals = e.coefficients @ basis_matrix(e.m, t_arr)
    return vals if np.ndim(t) else float(vals[0])


def l2_distance(e1, e2):
    """Parseval distance; the shorter coefficient vector is zero-padded."""
    m = max(e1.m, e2.m)
    a = np.zeros(m)
    b = np.zeros(m)
    a[: e1.m] = e1.coefficients
    b[: e2.m] = e2.coefficients
    return float(np.linalg.norm(a - b))
