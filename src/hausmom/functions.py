"""Analytically defined test functions on [0, 1] with derivative access.

Every built-in evaluates a Python float t in floats, and any other t
(array, list, numpy scalar) as a float array, through ``_at``.  QUADPACK,
behind ``forward_moments``, asks for f at one Python float at a time, and
a ufunc on a 0-d array costs about ten times the same IEEE operation on
floats.  The float path keeps every bit of the array path: on a float,
only +, -, *, abs, squares written u * u and / by a denominator that is
never 0 run as Python operators, each one correctly rounded IEEE
operation either way.  Powers, exponentials and signs stay numpy ufuncs
(np.power, np.exp, np.sign), so a value whose last step is one is a numpy
float64: numpy's power is not libm's pow, which Python's ** calls (on an
AVX-512 host t ** 3 and numpy's t ** 3 differ at about 5 % of uniform t
in [0, 1]), and Python's ** and / raise OverflowError and
ZeroDivisionError where numpy returns inf.
"""

from fractions import Fraction
from numbers import Real

from ._lazy import numpy as np
from .exact_core import _Record, _common_den


class TestFunction(_Record):
    """f on [0, 1], called as f(t).  ``singular_at_one`` is set for the (1-t)^alpha family
    and steers quadrature toward a graded rule; ``poly_coeffs`` holds the exact rational
    coefficients (c_0, c_1, ...) when f is a polynomial."""

    __slots__ = ("value", "derivative", "second_derivative", "label", "breakpoints", "singular_at_one", "poly_coeffs")

    def __init__(self, value, derivative=None, second_derivative=None, label="", breakpoints=(),
                 singular_at_one=False, poly_coeffs=None):
        # project integrates piecewise between 0, 1 and the breakpoints, so
        # one outside [0, 1] (or NaN) would silently widen or poison the rule;
        # a tuple, checked once, is what every rule then reads
        breakpoints = tuple(breakpoints)
        if not all(isinstance(b, Real) and 0 <= b <= 1 for b in breakpoints):
            raise ValueError("breakpoints must be finite numbers in [0, 1]")
        self._bind(value, derivative, second_derivative, label, breakpoints, singular_at_one, poly_coeffs)

    def __call__(self, t):
        return self.value(t)


def _at(t):
    """t itself when it is a Python float, else t as a float array (see the module docstring)."""
    return t if type(t) is float else np.asarray(t, dtype=float)


def _horner(cs, t):
    t = _at(t)
    out = 0.0 if type(t) is float else np.zeros_like(t)
    for c in cs[::-1]:
        out = out * t + c
    return out


def constant(c=1.0):
    return polynomial((float(c),), label=f"const({float(c)})")


def polynomial(coeffs, label=None):
    """Polynomial sum c_k t^k; ``poly_coeffs`` are the c_k read by ``_common_den``, the one rule for exact input."""
    a, den = _common_den(coeffs)
    fc = tuple(float(c) for c in coeffs)  # Python floats, so that a float t stays one
    d1 = tuple(k * float(c) for k, c in enumerate(coeffs))[1:] or (0.0,)
    d2 = tuple(k * (k - 1) * float(c) for k, c in enumerate(coeffs))[2:] or (0.0,)

    return TestFunction(
        value=lambda t: _horner(fc, t),
        derivative=lambda t: _horner(d1, t),
        second_derivative=lambda t: _horner(d2, t),
        label=label or "poly" + str(tuple(float(c) for c in coeffs)),
        poly_coeffs=tuple(Fraction(x, den) for x in a),
    )


def monomial_witness(i):
    """x_i(t) = sqrt(i) t^i, i >= 1, the non-compactness witness family."""
    if i < 1:
        raise ValueError("i must be >= 1")
    s, k = float(np.sqrt(i)), float(i)  # a float exponent: the same power loop, without promoting an int
    return TestFunction(
        value=lambda t: s * np.power(_at(t), k),
        derivative=lambda t: s * i * np.power(_at(t), k - 1.0),
        label=f"sqrt({i})*t^{i}",
    )


def abs_kink():
    """f(t) = |t - 1/2|; in H^1 but not H^2."""
    return TestFunction(
        value=lambda t: abs(_at(t) - 0.5),
        derivative=lambda t: np.sign(_at(t) - 0.5),
        label="|t-1/2|",
        breakpoints=(0.5,),
    )


def cubic_exp():
    """f(t) = t^3 e^t, a smooth H^2 test case."""

    def v(t):
        t = _at(t)
        return np.power(t, 3.0) * np.exp(t)

    def dv(t):
        t = _at(t)
        return (3 * (t * t) + np.power(t, 3.0)) * np.exp(t)

    def d2v(t):
        t = _at(t)
        return (6 * t + 6 * (t * t) + np.power(t, 3.0)) * np.exp(t)

    return TestFunction(value=v, derivative=dv, second_derivative=d2v, label="t^3*e^t")


def peak():
    """The narrow-peak amplification test case 0.2 + 0.36/(1 + 100(2.05t - 0.2)^2)."""

    def v(t):
        u = 2.05 * _at(t) - 0.2
        return 0.2 + 0.36 / (1.0 + 100.0 * (u * u))

    def dv(t):
        u = 2.05 * _at(t) - 0.2
        d = 1.0 + 100.0 * (u * u)
        return -0.36 * 200.0 * u * 2.05 / (d * d)

    return TestFunction(value=v, derivative=dv, label="peak")


def g_alpha(alpha):
    """g_alpha(t) = (1-t)^alpha for alpha in (-1/2, 0); L^2 but not H^1."""
    if not -0.5 < alpha < 0:
        raise ValueError("alpha must lie strictly inside (-1/2, 0)")

    return TestFunction(
        value=lambda t: np.power(1.0 - _at(t), alpha),
        label=f"(1-t)^{alpha}",
        singular_at_one=True,
    )

