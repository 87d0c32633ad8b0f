"""Collective decay rates of a linear qubit chain coupled to a 1D waveguide.

The library locates complex decay poles of the chain's scattering problem
(Gamma = 2i Delta), finds the super-superradiant operating point
(Gamma_SSR, L_c) where the collective rate beats Dicke superradiance, and
validates the large-N scaling laws Gamma_SSR = alpha N gamma_0,
L_c = beta / N^2 against the asymptotic theory.
"""

from .asymptotic import (
    BranchPair,
    critical_pair,
    g_eval,
    solve_branches,
    trace_contour,
)
from .charfn import CharFn, ClosedFormResidual, closed_form_residual, markovian_polynomial
from .core import (
    ChainParams,
    Mat2c,
    matrix_power,
    propagation_matrix,
    qubit_matrix,
    scattering,
    unit_cell,
)
from .errors import (
    BoundaryDegeneracyError,
    BracketError,
    ContinuationBreakdownError,
    ContractViolationError,
    OnResonancePoleError,
    RefinementFailureError,
    SingularDetuningError,
    SSRChainError,
    WindowExhaustedError,
)
from .rootfind import (
    Pole,
    SearchWindow,
    coalescent_pair,
    continue_pole,
    count_zeros,
    default_window,
    find_collective_rates,
    localize_zeros,
    refine,
)
from .ssr import (
    SSRResult,
    degenerate_pair_probe,
    fit_scaling,
    maximize_over_separation,
    scaling_sweep,
    superradiant_pole,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPair",
    "BoundaryDegeneracyError",
    "BracketError",
    "ChainParams",
    "CharFn",
    "ClosedFormResidual",
    "ContinuationBreakdownError",
    "ContractViolationError",
    "Mat2c",
    "OnResonancePoleError",
    "Pole",
    "RefinementFailureError",
    "SSRChainError",
    "SSRResult",
    "SearchWindow",
    "SingularDetuningError",
    "WindowExhaustedError",
    "closed_form_residual",
    "coalescent_pair",
    "continue_pole",
    "count_zeros",
    "critical_pair",
    "default_window",
    "degenerate_pair_probe",
    "find_collective_rates",
    "fit_scaling",
    "g_eval",
    "localize_zeros",
    "markovian_polynomial",
    "matrix_power",
    "maximize_over_separation",
    "propagation_matrix",
    "qubit_matrix",
    "refine",
    "scaling_sweep",
    "scattering",
    "solve_branches",
    "superradiant_pole",
    "trace_contour",
    "unit_cell",
]
