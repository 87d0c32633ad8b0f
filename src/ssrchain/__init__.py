"""Collective decay rates of a linear qubit chain coupled to a 1D waveguide.

The library locates complex decay poles of the chain's scattering problem
(Gamma = 2i Delta), finds the super-superradiant operating point
(Gamma_SSR, L_c) where the collective rate beats Dicke superradiance, and
validates the large-N scaling laws Gamma_SSR = alpha N gamma_0,
L_c = beta / N^2 against the asymptotic theory.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining module; each module is imported on the first
# access to one of its names, so importing the package (and the CLI's
# --version, --help, asym and fit) loads no numpy
_SOURCES = {
    "asymptotic": ("BranchPair", "critical_pair", "g_eval", "solve_branches", "trace_contour"),
    "charfn": ("CharFn", "ClosedFormResidual", "closed_form_residual", "markovian_polynomial"),
    "core": (
        "ChainParams", "Mat2c", "matrix_power", "propagation_matrix", "qubit_matrix",
        "scattering", "unit_cell",
    ),
    "errors": (
        "BoundaryDegeneracyError", "BracketError", "ContinuationBreakdownError",
        "ContractViolationError", "OnResonancePoleError", "RefinementFailureError",
        "SingularDetuningError", "SSRChainError", "WindowExhaustedError",
    ),
    "rootfind": (
        "Pole", "SearchWindow", "coalescent_pair", "continue_pole", "count_zeros",
        "default_window", "find_collective_rates", "localize_zeros", "refine",
    ),
    "scaling": ("SSRResult", "fit_scaling"),
    "ssr": (
        "degenerate_pair_probe", "maximize_over_separation", "scaling_sweep",
        "superradiant_pole",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str):
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # looked up on every access and never cached here, so a name is always
    # the object its defining module holds
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = sorted(_MODULE_OF)
