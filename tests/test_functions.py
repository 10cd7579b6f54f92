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


@pytest.mark.parametrize("i", [0, -1])
def test_monomial_witness_refuses_i_below_one(i):
    # i = -1 gave a function that is NaN everywhere, with numpy's sqrt warning; i = 0 the zero function
    with pytest.raises(ValueError, match="i must be >= 1"):
        monomial_witness(i)


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


def test_breakpoints_kept_as_a_tuple():
    # a generator was consumed by the [0, 1] check and stored exhausted, so
    # the kink at 1/2 dropped out of every rule; a list made f unhashable
    f = functions.TestFunction(abs_kink().value, breakpoints=(b for b in (0.5,)))
    assert f.breakpoints == (0.5,)
    assert project(f, 8).coefficients.tolist() == project(abs_kink(), 8).coefficients.tolist()
    listed = functions.TestFunction(np.ones_like, breakpoints=[0.5])
    assert hash(listed) == hash(functions.TestFunction(np.ones_like, breakpoints=(0.5,)))


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


BUILT_INS = {"constant": constant(2.0), "polynomial": polynomial((1, -2, Fraction(1, 3), 3)),
             "monomial_witness-1": monomial_witness(1), "monomial_witness-2": monomial_witness(2),
             "monomial_witness-5": monomial_witness(5), "abs_kink": abs_kink(), "cubic_exp": cubic_exp(),
             "peak": peak(), "g_alpha": g_alpha(-0.25)}


def _quadpack_nodes(f):
    """Every node forward_moments(f, 40) evaluates f at, collected by wrapping f."""
    from hausmom.moment_ops import forward_moments

    nodes = []
    forward_moments(functions.TestFunction(lambda t: nodes.append(t) or f(t), breakpoints=f.breakpoints), 40)
    return nodes


@pytest.mark.parametrize("name", BUILT_INS)
def test_float_path_is_bit_identical_to_array_path(name):
    # a Python float is evaluated in floats, any other t as a float array: the same doubles
    f = BUILT_INS[name]
    rng = np.random.default_rng(7)
    points = rng.random(10_000).tolist() + _quadpack_nodes(f)
    for g in (f.value, f.derivative, f.second_derivative):
        if g is None:
            continue
        got = [float(g(t)).hex() for t in points]
        assert got == [float(g(np.asarray(t))).hex() for t in points]
        assert got == [v.hex() for v in np.asarray(g(np.array(points)), dtype=float).tolist()]


@pytest.mark.parametrize("name", ["constant", "polynomial", "abs_kink", "peak"])
def test_float_in_float_out(name, monkeypatch):
    # no 0-d array on the quadrature's path: these values take no numpy call at all on a float
    f = BUILT_INS[name]
    monkeypatch.setattr(functions, "np", None)
    assert type(f(0.3)) is float
    if name in ("constant", "polynomial", "peak"):
        assert type(f.derivative(0.3)) is float
