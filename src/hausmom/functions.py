"""Analytically defined test functions on [0, 1] with derivative access."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Callable, Optional

from ._lazy import numpy as np
from .exact_core import _common_den


@dataclass(frozen=True)
class TestFunction:
    value: Callable
    derivative: Optional[Callable] = None
    second_derivative: Optional[Callable] = None
    label: str = ""
    breakpoints: tuple = ()
    # set for the (1-t)^alpha family; steers quadrature toward a graded rule
    singular_at_one: bool = False
    # exact rational coefficients (c_0, c_1, ...) when f is a polynomial
    poly_coeffs: Optional[tuple] = None

    def __post_init__(self):
        # project integrates piecewise between 0, 1 and the breakpoints, so
        # one outside [0, 1] (or NaN) would silently widen or poison the rule
        if not all(isinstance(b, Real) and 0 <= b <= 1 for b in self.breakpoints):
            raise ValueError("breakpoints must be finite numbers in [0, 1]")

    def __call__(self, t):
        return self.value(t)


def _horner(cs, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for c in cs[::-1]:
        out = out * t + c
    return out


def constant(c=1.0):
    return polynomial((float(c),), label=f"const({float(c)})")


def polynomial(coeffs, label=None):
    """Polynomial sum c_k t^k; ``poly_coeffs`` are the c_k read by ``_common_den``, the one rule for exact input."""
    a, den = _common_den(coeffs)
    fc = np.array([float(c) for c in coeffs])
    d1 = np.array([k * float(c) for k, c in enumerate(coeffs)][1:] or [0.0])
    d2 = np.array([k * (k - 1) * float(c) for k, c in enumerate(coeffs)][2:] or [0.0])

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
    s = float(np.sqrt(i))
    return TestFunction(
        value=lambda t: s * np.asarray(t, dtype=float) ** i,
        derivative=lambda t: s * i * np.asarray(t, dtype=float) ** (i - 1),
        label=f"sqrt({i})*t^{i}",
    )


def abs_kink():
    """f(t) = |t - 1/2|; in H^1 but not H^2."""
    return TestFunction(
        value=lambda t: np.abs(np.asarray(t, dtype=float) - 0.5),
        derivative=lambda t: np.sign(np.asarray(t, dtype=float) - 0.5),
        label="|t-1/2|",
        breakpoints=(0.5,),
    )


def cubic_exp():
    """f(t) = t^3 e^t, a smooth H^2 test case."""
    return TestFunction(
        value=lambda t: np.asarray(t, dtype=float) ** 3 * np.exp(t),
        derivative=lambda t: (3 * np.asarray(t, dtype=float) ** 2 + np.asarray(t, dtype=float) ** 3) * np.exp(t),
        second_derivative=lambda t: (
            (6 * np.asarray(t, dtype=float) + 6 * np.asarray(t, dtype=float) ** 2 + np.asarray(t, dtype=float) ** 3)
            * np.exp(t)
        ),
        label="t^3*e^t",
    )


def peak():
    """The narrow-peak amplification test case 0.2 + 0.36/(1 + 100(2.05t - 0.2)^2)."""

    def v(t):
        t = np.asarray(t, dtype=float)
        return 0.2 + 0.36 / (1.0 + 100.0 * (2.05 * t - 0.2) ** 2)

    def dv(t):
        t = np.asarray(t, dtype=float)
        u = 2.05 * t - 0.2
        return -0.36 * 200.0 * u * 2.05 / (1.0 + 100.0 * u**2) ** 2

    return TestFunction(value=v, derivative=dv, label="peak")


def g_alpha(alpha):
    """g_alpha(t) = (1-t)^alpha for alpha in (-1/2, 0); L^2 but not H^1."""
    if not -0.5 < alpha < 0:
        raise ValueError("alpha must lie strictly inside (-1/2, 0)")

    return TestFunction(
        value=lambda t: (1.0 - np.asarray(t, dtype=float)) ** alpha,
        label=f"(1-t)^{alpha}",
        singular_at_one=True,
    )

