"""SSR results and the large-N scaling-law fit, in pure Python.

ssr re-exports these names, so ssr.SSRResult and ssr.fit_scaling are the
objects defined here; the CLI's fit command reads a sweep file and fits it
without loading numpy or the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError


@dataclass(frozen=True)
class SSRResult:
    """Optimized super-superradiant point at fixed qubit number: the fold
    itself, where the two poles coalesce.

    evaluations is the number of scalar f evaluations the solve made, a
    value or a jet (f, f') counting one each: 2 at every N, the jet and the
    value of the local quadratic model of f that checks the pair resolves
    at the fold, whose f is also the residual.  The closed form of
    Im f(-iy) evaluates no f, so neither the fold Newton steps on it
    (_axis_jet) nor the axis row that checks the fold (_axis_im) count.
    """

    n_qubits: int
    l_critical: float
    gamma_ssr: complex
    evaluations: int
    residual: float


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares laws Re Gamma_SSR = alpha N and L_c = beta / N^2.

    Both fits go through the origin (the asymptotic laws carry no constant
    term); per-point relative deviations are reported for every input point
    so small-N departures stay visible instead of polluting the fit.
    """

    alpha: float
    beta: float
    alpha_stderr: float
    beta_stderr: float
    n_values: list[int]
    gamma_deviations: list[float]
    lc_deviations: list[float]


def fit_scaling(results: list[SSRResult], n_min_fit: int = 20) -> ScalingFit:
    """Fit Re Gamma_SSR = alpha N and L_c = beta N^-2 over N >= n_min_fit.

    Deviations |fit - data| / |data| are evaluated for every supplied point,
    including those below the fit threshold.
    """
    results = list(results)
    sel = [r for r in results if r.n_qubits >= n_min_fit]
    if len(sel) < 3:
        raise ContractViolationError(
            f"need at least 3 results with N >= {n_min_fit}, got {len(sel)}"
        )
    sn2 = sum(float(r.n_qubits) ** 2 for r in sel)
    alpha = sum(r.n_qubits * r.gamma_ssr.real for r in sel) / sn2
    rss_a = sum((r.gamma_ssr.real - alpha * r.n_qubits) ** 2 for r in sel)
    alpha_stderr = math.sqrt(rss_a / (len(sel) - 1) / sn2)
    sb2 = sum(float(r.n_qubits) ** -4 for r in sel)
    beta = sum(r.l_critical / r.n_qubits**2 for r in sel) / sb2
    rss_b = sum((r.l_critical - beta / r.n_qubits**2) ** 2 for r in sel)
    beta_stderr = math.sqrt(rss_b / (len(sel) - 1) / sb2)
    gamma_dev = [
        abs(alpha * r.n_qubits - r.gamma_ssr.real) / abs(r.gamma_ssr.real) for r in results
    ]
    lc_dev = [abs(beta / r.n_qubits**2 - r.l_critical) / abs(r.l_critical) for r in results]
    return ScalingFit(
        alpha=alpha,
        beta=beta,
        alpha_stderr=alpha_stderr,
        beta_stderr=beta_stderr,
        n_values=[r.n_qubits for r in results],
        gamma_deviations=gamma_dev,
        lc_deviations=lc_dev,
    )
