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
    "polynomial(label)": None,
    "sobolev_norm(kind)": "H1",
    "spectral_norm(precision)": 256,
}


# The package's exports.  The float layers load lazily, so the package
# dict holds only the names already read; ``__all__`` lists them all.
EXPORTS = [
    "AmplificationEstimate", "BumpFamily", "FactoredTriangular", "HausdorffStats", "LegendreExpansion",
    "MomentSequence", "NoiseModel", "QuadratureRule", "RationalMatrix", "SobolevBudget", "SpectralNormError",
    "StabilityBound", "StableFamilyMember", "TestFunction", "abs_kink", "adjoint_apply",
    "amplification_experiment", "build_DN", "build_RN", "bump_family", "cholesky_factor_L", "constant",
    "cubic_exp", "eit_forward", "error_split_study", "exact_polynomial_moments", "expansion_eval",
    "forward_differences", "forward_from_expansion", "forward_moments", "g_alpha", "h1_rate_check",
    "hausdorff_criterion", "hilbert_matrix", "holder_counterexample", "inverse_factor_Linv",
    "inverse_hilbert", "l2_distance", "lambert_w", "laplace_consistency", "legendre_eval",
    "linv_growth_study", "log_ratio", "monomial_witness", "noisy_data", "peak", "picard_partial_sums",
    "point_value_estimator", "point_value_noise_study", "polynomial", "project", "projection_error",
    "pseudoinverse", "reconstruction_norm_sq_exact", "sobolev_norm", "spectral_norm", "stability_bound",
    "stable_family", "verify_TN_identity",
]


def _exports():
    objs = [(n, getattr(hausmom, n)) for n in hausmom.__all__]
    objs += [(f"cli.{n}", getattr(hausmom.cli, n)) for n in hausmom.cli.__all__]
    for name, obj in objs:
        yield name, obj
        if inspect.isclass(obj):
            for m, v in vars(obj).items():
                if not m.startswith("_") and isinstance(v, (types.FunctionType, classmethod, staticmethod)):
                    yield f"{name}.{m}", getattr(obj, m)


def test_exports_are_the_expected_names():
    assert sorted(hausmom.__all__) == EXPORTS


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
