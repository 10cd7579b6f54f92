"""Inventory of the settable values of the public API.

Every parameter with a default, and every dataclass field with a default,
of each function and class that ``hausmom`` exports (with the public
methods of those classes) and of ``hausmom.cli.__all__``.  A value added
or removed changes this table, so a new option shows up in review.
"""

import inspect
import types

import hausmom
import hausmom.cli

EXPECTED = {
    "NoiseModel(seed)": 42,
    "RationalMatrix(den)": 1,
    "SobolevBudget(kind)": "H1",
    "SpectralNormError(last_estimate)": None,
    "SpectralNormError(iterations)": 0,
    "TestFunction(derivative)": None,
    "TestFunction(second_derivative)": None,
    "TestFunction(label)": "",
    "TestFunction(breakpoints)": (),
    "TestFunction(singular_at_one)": False,
    "TestFunction(poly_coeffs)": None,
    "amplification_experiment(deltas)": (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7),
    "amplification_experiment(R)": 20,
    "amplification_experiment(seed)": 42,
    "cli.emit_plotdata(outdir)": ".",
    "cli.run(argv)": None,
    "constant(c)": 1.0,
    "laplace_consistency(tol)": 1e-8,
    "linv_growth_study(precision)": 256,
    "point_value_noise_study(max_level_exp)": 17,
    "polynomial(label)": None,
    "sobolev_norm(kind)": "H1",
    "spectral_norm(precision)": 256,
}


def _exports():
    objs = [(n, o) for n, o in vars(hausmom).items()
            if not n.startswith("_") and not isinstance(o, types.ModuleType)]
    objs += [(f"cli.{n}", getattr(hausmom.cli, n)) for n in hausmom.cli.__all__]
    for name, obj in objs:
        yield name, obj
        if inspect.isclass(obj):
            for m, v in vars(obj).items():
                if not m.startswith("_") and isinstance(v, (types.FunctionType, classmethod, staticmethod)):
                    yield f"{name}.{m}", getattr(obj, m)


def test_settable_values_are_the_expected_table():
    found = {}
    for name, obj in _exports():
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # no Python signature, as for an exception class without __init__
            continue
        for p in params:
            if p.default is not inspect.Parameter.empty:
                found[f"{name}({p.name})"] = p.default
    assert found == EXPECTED
