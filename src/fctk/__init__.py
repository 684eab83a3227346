"""fctk: exact and asymptotic tools for products of Ginibre matrices.

Average characteristic polynomials of Hermitized products of rectangular
complex Ginibre matrices, their oscillatory large-degree asymptotics,
certified isolation of their zeros, and the limiting Fuss-Catalan
distributions of general order, with independent contour-quadrature and
Monte Carlo oracles for every formula.
"""

from .asymptotics import (
    PRValue,
    cosine_approximant,
    fig1_dataset,
    normalized_poly,
    pr_approx,
    pr_prefactor_log,
)
from .contour import QuadratureGrid, contour_eval, msp_value, verify_h_max
from .errors import (
    AsymmetryWarning,
    BranchAmbiguity,
    ConvergenceFailure,
    DecompositionFailure,
    DomainError,
    FctkError,
    GuardExceeded,
    IsolationFailure,
    NotSquareFree,
    QuadratureFailure,
)
from .fuss_catalan import FussCatalanDist, identity_check
from .geometry import (
    PhiCoordinate,
    rho_inv,
    solve_trinomial,
    x_star,
)
from .poly import (
    ExactPolynomial,
    ModelParams,
    build_f,
    build_p,
    eval_exact,
    poly_to_json,
    rescale_arg,
)
from .rmt import aggregate_measure, mean_moment, sample_spectrum
from .zeros import (
    EmpiricalMeasure,
    ZeroEnclosure,
    isolate_zeros,
    ks_distance,
    rescaled_zero_measure,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryWarning",
    "BranchAmbiguity",
    "ConvergenceFailure",
    "DecompositionFailure",
    "DomainError",
    "EmpiricalMeasure",
    "ExactPolynomial",
    "FctkError",
    "FussCatalanDist",
    "GuardExceeded",
    "IsolationFailure",
    "ModelParams",
    "NotSquareFree",
    "PRValue",
    "PhiCoordinate",
    "QuadratureFailure",
    "QuadratureGrid",
    "ZeroEnclosure",
    "aggregate_measure",
    "build_f",
    "build_p",
    "contour_eval",
    "cosine_approximant",
    "eval_exact",
    "fig1_dataset",
    "identity_check",
    "isolate_zeros",
    "ks_distance",
    "mean_moment",
    "msp_value",
    "normalized_poly",
    "poly_to_json",
    "pr_approx",
    "pr_prefactor_log",
    "rescale_arg",
    "rescaled_zero_measure",
    "rho_inv",
    "sample_spectrum",
    "solve_trinomial",
    "verify_h_max",
    "x_star",
]
