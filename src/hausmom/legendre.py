"""Shifted, normalized Legendre polynomials on [0, 1].

L_k(t) = sqrt(2k+1) P_k(2t - 1) form an orthonormal basis of L^2(0, 1);
coefficient vectors are 1-based in the sense that entry i holds the
coefficient of L_{i-1}, matching the row/column indexing of the
triangular moment factor.
"""

from functools import cache, lru_cache
from math import sqrt
from operator import index

from ._lazy import numpy as np
from .exact_core import _Record


def _frozen(a):
    """a as a new read-only float array: the one form of a record's array field."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class LegendreExpansion(_Record):
    """Coefficients (lambda_1 .. lambda_m) of L_0 .. L_{m-1}."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self._bind(_frozen(coefficients))

    @property
    def m(self):
        return len(self.coefficients)


@cache
def _leggauss(npts):
    """numpy's leggauss(npts), made read-only; only QuadratureRule.composite reads it.

    leggauss is read from the lazy ``np`` here, at call time, so that
    importing this module does not execute numpy.
    """
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


class QuadratureRule(_Record):
    __slots__ = ("nodes", "weights")

    def __init__(self, nodes, weights):
        self._bind(_frozen(nodes), _frozen(weights))

    def __repr__(self):
        return f"{type(self).__qualname__}()"  # the node and weight arrays are left out

    @classmethod
    def gauss(cls, npts):
        """Gauss-Legendre with npts nodes on [0, 1].

        In exact arithmetic the rule is exact to degree 2*npts-1; numpy's
        double nodes and weights are not, off by up to 1.1e-11 relative on
        t^k (k < 2*npts) at 400 nodes.
        """
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
        return cls(np.minimum(rule.nodes, np.nextafter(1.0, 0.0)), rule.weights)


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
    """The inputs _projector reads from f, with m: a hashable key."""
    return m, tuple(getattr(f, "breakpoints", ()) or ()), bool(getattr(f, "singular_at_one", False))


# The 8 cached entries hold at most about 70 MB (8.8 MB each for the
# 41-piece graded rule at m = 160); one graded basis at m = 800 alone is
# 212 MB, so larger m build their tables per call.
_CACHED_M_MAX = 160


def _projector(m, breakpoints, singular_at_one):
    """The rule for the key, m + 8 nodes on each piece between f's breakpoints
    or graded toward a singular t = 1, and basis_matrix(m, rule.nodes), made
    read-only as the rule's arrays are: m + 2 doubles per node."""
    if singular_at_one:
        rule = QuadratureRule.endpoint_graded(m + 8)
    else:
        rule = QuadratureRule.composite(m + 8, sorted({0.0, 1.0, *breakpoints}))
    basis = basis_matrix(m, rule.nodes)
    basis.flags.writeable = False
    return rule, basis


_cached_projector = lru_cache(maxsize=8)(_projector)


def project(f, m):
    """First m Legendre coefficients of f by quadrature.

    Exact (to roundoff) for polynomial f of degree < m with
    ``_projector``'s rule.  For m up to 160 the rule and its basis matrix
    come from a process-wide cache of 8 read-only entries, least recently
    used dropping out, keyed on m, f's breakpoints and its t=1 flag, so a
    repeated projection evaluates only f.  The largest entry, the
    41-piece graded rule at m = 160, holds an 8.8 MB basis.  m is read
    by ``operator.index`` and refused below 0 before the cache is read.
    """
    m = index(m)
    if m < 0:
        raise ValueError("m must be >= 0")
    key = _rule_key(f, m)
    quad, basis = (_cached_projector if m <= _CACHED_M_MAX else _projector)(*key)
    fv = np.asarray(f(quad.nodes), dtype=float)
    if fv.shape != quad.nodes.shape:
        fv = np.broadcast_to(fv, quad.nodes.shape)
    return LegendreExpansion(basis @ (fv * quad.weights))


def expansion_eval(e, t):
    """Evaluate sum_i lambda_i L_{i-1}(t): a float for a scalar t, else an
    array of t's shape; t is refused unless every entry lies in [0, 1]
    (NaN does not).  The terms are added degree by degree, elementwise,
    so a point's value does not depend on the other points evaluated with
    it (a matrix product would sum in an order that BLAS picks by size)."""
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    if not np.all((flat >= 0) & (flat <= 1)):
        raise ValueError("t must lie in [0, 1]")
    vals = np.zeros(len(flat))
    for c, row in zip(e.coefficients, basis_matrix(e.m, flat)):
        vals += c * row
    return vals.reshape(t_arr.shape) if t_arr.ndim else float(vals[0])


def l2_distance(e1, e2):
    """Parseval distance; the shorter coefficient vector is zero-padded."""
    m = max(e1.m, e2.m)
    a = np.zeros(m)
    b = np.zeros(m)
    a[: e1.m] = e1.coefficients
    b[: e2.m] = e2.coefficients
    return float(np.linalg.norm(a - b))
