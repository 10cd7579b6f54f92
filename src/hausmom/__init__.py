"""Hausdorff moment problem toolbox.

Exact rational construction and inversion of the Hilbert-matrix and
Legendre-triangular operators, truncated pseudoinverse reconstruction,
range diagnostics, and conditional-stability experiments for the moment
problem on [0, 1].
"""

__version__ = "0.1.0"

from .exact_core import (
    FactoredTriangular,
    RationalMatrix,
    SpectralNormError,
    cholesky_factor_L,
    hilbert_matrix,
    inverse_factor_Linv,
    inverse_hilbert,
    spectral_norm,
)
from .functions import TestFunction, abs_kink, constant, cubic_exp, g_alpha, monomial_witness, peak, polynomial
from .legendre import (
    LegendreExpansion,
    QuadratureRule,
    expansion_eval,
    l2_distance,
    legendre_eval,
    project,
)
from .moment_ops import (
    MomentSequence,
    SobolevBudget,
    adjoint_apply,
    exact_polynomial_moments,
    forward_from_expansion,
    forward_moments,
    h1_rate_check,
    projection_error,
    pseudoinverse,
    reconstruction_norm_sq_exact,
    sobolev_norm,
)
from .range_diagnostics import (
    HausdorffStats,
    StableFamilyMember,
    build_DN,
    build_RN,
    forward_differences,
    hausdorff_criterion,
    picard_partial_sums,
    stable_family,
    verify_TN_identity,
)
from .stability_lab import (
    AmplificationEstimate,
    BumpFamily,
    NoiseModel,
    StabilityBound,
    amplification_experiment,
    bump_family,
    eit_forward,
    error_split_study,
    holder_counterexample,
    lambert_w,
    laplace_consistency,
    linv_growth_study,
    log_ratio,
    noisy_data,
    point_value_estimator,
    point_value_noise_study,
    stability_bound,
)
