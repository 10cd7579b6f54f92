import numpy as np
import pytest

from hausmom.functions import (
    abs_kink,
    constant,
    cubic_exp,
    g_alpha,
    monomial_witness,
    peak,
    polynomial,
)
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
