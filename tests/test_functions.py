import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hausmom import functions
from hausmom.functions import (
    abs_kink,
    constant,
    cubic_exp,
    g_alpha,
    monomial_witness,
    peak,
    polynomial,
)
from hausmom.legendre import project
from oracles import check_derivative


def test_derivatives_consistent():
    for f in (constant(2.0), polynomial((1, -2, 3)), monomial_witness(5),
              abs_kink(), cubic_exp(), peak()):
        assert check_derivative(f), f.label


def test_polynomial_exact_coefficients():
    f = polynomial((1, 0, -2))
    assert f.poly_coeffs is not None
    assert f(0.5) == pytest.approx(0.5)


def test_kink_breakpoint_recorded():
    assert abs_kink().breakpoints == (0.5,)


@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan, math.inf, -math.inf, "0.5", None])
def test_breakpoints_outside_unit_interval_refused(bad):
    # project integrates between 0, 1 and the breakpoints: 1.5 made it
    # integrate a constant 1 over [0, 1.5] and NaN gave NaN coefficients
    with pytest.raises(ValueError, match=re.escape("breakpoints must be finite numbers in [0, 1]")):
        functions.TestFunction(np.ones_like, breakpoints=(0.5, bad))


def test_breakpoints_in_unit_interval_accepted():
    # the endpoints are harmless: the rule's piece boundaries are a set
    for bps in ((0.0,), (1.0,), (0, 1), (Fraction(1, 3), np.float64(0.25), np.float32(0.75))):
        f = functions.TestFunction(np.ones_like, breakpoints=bps)
        assert f.breakpoints == bps
        assert np.allclose(project(f, 3).coefficients, [1.0, 0.0, 0.0], atol=1e-14)


def test_g_alpha_domain():
    with pytest.raises(ValueError):
        g_alpha(-0.6)
    with pytest.raises(ValueError):
        g_alpha(0.1)


def test_g_alpha_singularity_flag():
    f = g_alpha(-0.25)
    assert f.singular_at_one
    assert np.isfinite(f(0.999))


def test_peak_shape():
    f = peak()
    # the bump is centred near t = 0.2/2.05
    t = np.linspace(0, 1, 2001)
    assert abs(t[np.argmax(f(t))] - 0.2 / 2.05) < 1e-2
