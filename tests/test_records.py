"""The package's twelve immutable records behave as frozen value records:
equal by their fields and only within one class, hashed by them, shown
as ``Name(field=value, ...)``, refusing assignment and deletion, and
surviving ``pickle`` and ``copy``.  An array field is a read-only copy,
compared and hashed by shape, dtype and bytes."""

import copy
import inspect
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

import hausmom
from hausmom import RationalMatrix
from hausmom.exact_core import _Record

# Field values of one record per class.
RECORDS = {
    "FactoredTriangular": dict(rational_part=RationalMatrix([[1, 0], [1, 1]], 2), scale_rows=True),
    "TestFunction": dict(value=abs, derivative=None, second_derivative=None, label="abs", breakpoints=(0.5,),
                         singular_at_one=False, poly_coeffs=None),
    "LegendreExpansion": dict(coefficients=np.array([1.0, -0.5])),
    "QuadratureRule": dict(nodes=np.array([0.25, 0.75]), weights=np.array([0.5, 0.5])),
    "MomentSequence": dict(values=(1, Fraction(1, 2), 0.25)),
    "SobolevBudget": dict(E=2.0, kind="H2"),
    "HausdorffStats": dict(N=1, lam=(Fraction(1, 2), Fraction(1, 6)), criterion_value=Fraction(5, 9),
                           picard_partial=Fraction(4, 3)),
    "StableFamilyMember": dict(alpha=-0.25, coeffs=np.array([1.0, 0.25]), l2_function_norm_sq=2.0,
                               hardy_norm_sq=1.2),
    "NoiseModel": dict(delta=1e-3, seed=7),
    "AmplificationEstimate": dict(n=8, f_n=1.5e6, rate=1.78, realizations=20, f_exact=1.4e6),
    "StabilityBound": dict(N_star=3.2, bound=0.4, term_smoothness=0.02, term_noise=0.01, w_arg=9.5,
                           asymptotic_ok=True),
    "BumpFamily": dict(k=1, p=2.0, m=3, value=abs, moments=np.array([0.0, 0.0, 0.0, 1e-3]), l2_norm=0.5,
                       hk_norm=40.0),
}
# The array fields of the records that have them.
ARRAY_FIELDS = {"LegendreExpansion": ("coefficients",), "QuadratureRule": ("nodes", "weights"),
                "StableFamilyMember": ("coeffs",), "BumpFamily": ("moments",)}


def _same(x, y):
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


def _same_fields(a, b, fields):
    return type(a) is type(b) and all(_same(getattr(a, k), getattr(b, k)) for k in fields)


@pytest.mark.parametrize("name", RECORDS)
def test_record_parity(name):
    cls, fields = getattr(hausmom, name), RECORDS[name]
    assert list(inspect.signature(cls).parameters) == list(fields)
    a, b = cls(**fields), cls(*fields.values())
    for k, v in fields.items():
        if k in ARRAY_FIELDS.get(name, ()):  # a read-only float copy, one per record
            assert getattr(a, k) is not v and getattr(a, k) is not getattr(b, k)
            assert getattr(a, k).dtype == float and not getattr(a, k).flags.writeable
        else:
            assert getattr(a, k) is v  # stored as given: each test value is already in its stored type

    assert (a == b) is True and (a != b) is False
    if name in ARRAY_FIELDS:
        assert hash(a) == hash(b)
    else:
        assert hash(a) == hash(b) == hash(tuple(fields.values()))

    # equal only within one class: not to a subclass with the same fields, nor to the tuple of fields
    assert a != type("Derived", (cls,), {})(**fields)
    assert a != tuple(fields.values())

    shown = "" if name == "QuadratureRule" else ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(a) == f"{name}({shown})"

    for attr in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 0)
    for attr in fields:
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert _same_fields(a, b, fields)

    assert _same_fields(copy.copy(a), a, fields)
    assert _same_fields(copy.deepcopy(a), a, fields)
    assert _same_fields(pickle.loads(pickle.dumps(a)), a, fields)


@pytest.mark.parametrize("name", [*RECORDS, "RationalMatrix"])
def test_equality_and_hash_come_from_the_base(name):
    cls = getattr(hausmom, name)
    assert issubclass(cls, _Record) and (cls.__eq__, cls.__hash__) == (_Record.__eq__, _Record.__hash__)


@pytest.mark.parametrize("name", ARRAY_FIELDS)
def test_array_fields_are_frozen_copies(name):
    cls, fields = getattr(hausmom, name), RECORDS[name]
    given = {k: v.copy() if k in ARRAY_FIELDS[name] else v for k, v in fields.items()}
    a = cls(**given)
    for k in ARRAY_FIELDS[name]:
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, k)[0] = 9.0
        given[k][0] = 9.0  # the caller's later write to its own array
    # neither write reached the record, which equals one built from other, equal arrays
    twin = cls(**fields)
    assert (a == twin) is True and hash(a) == hash(twin)
    assert all(np.array_equal(getattr(a, k), fields[k]) for k in ARRAY_FIELDS[name])


def test_arrays_compare_by_shape_dtype_and_bytes():
    E = hausmom.LegendreExpansion
    assert E([1.0, np.nan]) == E(np.array([1.0, np.nan]))
    assert E([-0.0]) != E([0.0])
    assert E([1.0, 2.0]) != E([1.0, 2.0, 0.0])
    assert E([[1.0], [2.0]]) != E([1.0, 2.0])
    assert hash(E([1.0, np.nan])) == hash(E([1.0, np.nan]))


def test_unpicklable_fields_still_copy():
    # a local function cannot be pickled, but the record copies through its fields
    f = hausmom.peak()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(f)
    g = copy.copy(f)
    assert g == f and g.value is f.value


@pytest.mark.parametrize("call, message", [
    (lambda: hausmom.TestFunction(abs, breakpoints=(2.0,)), "breakpoints must be finite numbers in [0, 1]"),
    (lambda: hausmom.SobolevBudget(0.0), "E must be finite and positive"),
    (lambda: hausmom.SobolevBudget(1.0, "L2"), "unknown budget kind 'L2'"),
    (lambda: hausmom.NoiseModel(-1e-3), "delta must be finite and >= 0"),
], ids=["TestFunction", "SobolevBudget-E", "SobolevBudget-kind", "NoiseModel"])
def test_refusal_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
