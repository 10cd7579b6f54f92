"""Hausdorff moment problem toolbox.

Exact rational construction and inversion of the Hilbert-matrix and
Legendre-triangular operators, truncated pseudoinverse reconstruction,
range diagnostics, and conditional-stability experiments for the moment
problem on [0, 1].

``import hausmom`` loads the exact core, which needs only the standard
library.  ``_HOME`` lists every public name with its module.  The float
layers (``functions``, ``legendre``, ``moment_ops``, ``range_diagnostics``,
``stability_lab``) load when one of their names is first read from the
package; each name is then stored here, so later reads, and code that
rebinds it, see an ordinary module attribute.  The layers bind numpy
through ``hausmom._lazy``, so importing them, as ``hausmom.cli`` does,
leaves numpy's import to the first numpy operation: the ``hilbert``,
``linv``, ``hausdorff``, ``growth`` and ``pointvalue`` commands never
execute it.  The records are plain ``__slots__`` classes, so
``import hausmom.cli`` generates no methods and loads no ``inspect``, and
``json`` and ``ast`` load only for ``--format json``/``--out`` and
``reconstruct``.
"""

__version__ = "0.1.0"

import importlib

from . import exact_core  # loaded with the package; the float layers load at first use

# The module each public name is imported from at its first use.
_HOME = {name: module for module, names in {
    "exact_core": ("FactoredTriangular", "RationalMatrix", "SpectralNormError", "cholesky_factor_L", "hilbert_matrix",
                   "inverse_factor_Linv", "inverse_hilbert", "linv_growth_study", "spectral_norm"),
    "functions": ("TestFunction", "abs_kink", "constant", "cubic_exp", "g_alpha", "monomial_witness", "peak",
                  "polynomial"),
    "legendre": ("LegendreExpansion", "QuadratureRule", "expansion_eval", "l2_distance", "project"),
    "moment_ops": ("MomentSequence", "SobolevBudget", "exact_polynomial_moments", "forward_moments",
                   "h1_rate_check", "projection_error", "pseudoinverse", "reconstruction_norm_sq_exact",
                   "sobolev_norm"),
    "range_diagnostics": ("HausdorffStats", "StableFamilyMember", "build_DN", "build_RN", "forward_differences",
                          "hausdorff_criterion", "lacunary_stability_bound", "stable_family", "tn_diagonal",
                          "verify_TN_identity"),
    "stability_lab": ("AmplificationEstimate", "BumpFamily", "NoiseModel", "StabilityBound",
                      "amplification_experiment", "bump_family", "eit_forward", "error_split_study",
                      "holder_counterexample", "lambert_w", "laplace_consistency", "log_ratio", "noisy_data",
                      "point_value_estimator", "point_value_noise_study", "stability_bound"),
}.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
