"""Shifted-system Krylov solvers with a shared pivoted Hessenberg basis.

The package solves families ``(A - sigma_i I) x_i = b`` for many shifts
at the cost of one Krylov basis, offers restarted FOM as the orthogonal
reference, predicts process costs in flops, and applies matrix functions
(exponential, Mittag-Leffler) through rational approximations whose
poles become one shifted family.
"""

from .errors import (
    DimensionMismatch,
    DuplicateNodes,
    IllConditionedEigenbasis,
    IndexOutOfRange,
    InvalidDimensions,
    InvalidGrid,
    NonFiniteInput,
    NotConverged,
    ParseError,
    ShiftKrylovError,
    SingularReducedSystem,
    UnsupportedFormat,
    ZeroStartVector,
)
from .sparse import CsrMatrix, MvpCounter, identity
from .mmio import load_matrix_market, save_matrix_market
from .reduced import collinearity_scalar, solve_hessenberg, solve_shifted_hessenberg
from .processes import (
    HessenbergDecomposition,
    run_arnoldi,
    run_hessenberg,
    thick_restart,
    verify_decomposition,
)
from .solvers import (
    CycleInfo,
    ShiftHistory,
    SolveReport,
    SolverConfig,
    solve_hessen,
    solve_shifted_fom,
    solve_shifted_hessen,
    true_relative_residual,
)
from .costs import PROCESS_NAMES, attach_costs, predicted_flops
from .problems import gen_convdiff3d, gen_laplace2d, gen_shifts, u0_bump3d, u0_sine2d
from .matfunc import (
    QuadratureRule,
    dense_matfunc_oracle,
    eval_rational_action,
    load_quadrature,
    mittag_leffler,
    packaged_rule_path,
)

__version__ = "0.1.0"

__all__ = [
    "CsrMatrix",
    "CycleInfo",
    "DimensionMismatch",
    "DuplicateNodes",
    "HessenbergDecomposition",
    "IllConditionedEigenbasis",
    "IndexOutOfRange",
    "InvalidDimensions",
    "InvalidGrid",
    "MvpCounter",
    "NonFiniteInput",
    "NotConverged",
    "ParseError",
    "QuadratureRule",
    "ShiftHistory",
    "ShiftKrylovError",
    "SingularReducedSystem",
    "SolveReport",
    "SolverConfig",
    "UnsupportedFormat",
    "ZeroStartVector",
    "PROCESS_NAMES",
    "attach_costs",
    "collinearity_scalar",
    "dense_matfunc_oracle",
    "eval_rational_action",
    "gen_convdiff3d",
    "gen_laplace2d",
    "gen_shifts",
    "identity",
    "load_matrix_market",
    "load_quadrature",
    "mittag_leffler",
    "packaged_rule_path",
    "predicted_flops",
    "run_arnoldi",
    "run_hessenberg",
    "thick_restart",
    "save_matrix_market",
    "solve_hessen",
    "solve_hessenberg",
    "solve_shifted_fom",
    "solve_shifted_hessen",
    "solve_shifted_hessenberg",
    "true_relative_residual",
    "u0_bump3d",
    "u0_sine2d",
    "verify_decomposition",
    "__version__",
]
