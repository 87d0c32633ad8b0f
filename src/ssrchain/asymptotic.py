"""Large-N theory of the SSR scaling laws.

Writing the near-origin pole as Gamma = alpha N and the separation as
L = beta / N^2 and dropping O(1/N) terms reduces the pole condition to

    g(alpha, beta) = 2 alpha tau cosh(tau) - (2 + alpha^2 beta) sinh(tau),
    tau = 0.5 sqrt(beta (4 + alpha^2 beta)).

For beta below a critical value the contour g = 0 carries two branches
alpha_s < alpha_l (the Markovian-like and first exclusively non-Markovian
rates); they merge at the turning point (beta_c, alpha_c) where
d g / d alpha = 0, which reduces exactly to alpha_c beta_c = 4.

Substituting alpha = 4 / beta gives tau = sqrt(beta + 4) and turns g = 0
into the scalar equation 4 tau cosh(tau) = (tau^2 + 4) sinh(tau), solved by
bisection for its single nontrivial root (the tau -> 0 root is the
unphysical beta = -4 continuation and is excluded by the bracket).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError

BRANCH_SMALL = "small"
BRANCH_LARGE = "large"
BRANCH_CRITICAL = "critical"

_ALPHA_MAX = 50.0


def g_eval(alpha: float, beta: float) -> float:
    """The reduced pole function g(alpha, beta); beta must be >= 0.

    Above tau = 300 the hyperbolic factors overflow; the sign of the
    dominant e^tau coefficient is returned as a signed infinity, which is
    what the bracketing callers consume.
    """
    if beta < 0:
        raise ContractViolationError("g is defined for beta >= 0 (tau real)")
    a2b = alpha * alpha * beta
    tau = 0.5 * math.sqrt(beta * (4.0 + a2b))
    if tau > 300.0:
        lead = 2.0 * alpha * tau - (2.0 + a2b)
        return math.copysign(math.inf, lead if lead != 0 else -1.0)
    return 2.0 * alpha * tau * math.cosh(tau) - (2.0 + a2b) * math.sinh(tau)


@dataclass(frozen=True)
class CriticalPair:
    """Turning point of the g = 0 contour; alpha_c * beta_c = 4 exactly."""

    alpha_c: float
    beta_c: float
    tau_c: float
    residual: float


@dataclass(frozen=True)
class BranchPair:
    """Roots of g(., beta): two below beta_c, one at the fold, none above."""

    beta: float
    alpha_small: float | None
    alpha_large: float | None


def critical_pair() -> CriticalPair:
    """Solve the reduced scalar equation for (alpha_c, beta_c, tau_c)."""
    r = lambda t: 4.0 * t * math.cosh(t) - (t * t + 4.0) * math.sinh(t)
    lo, hi = 0.1, 20.0
    flo = r(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = r(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    tau_c = 0.5 * (lo + hi)
    beta_c = tau_c * tau_c - 4.0
    alpha_c = 4.0 / beta_c
    return CriticalPair(
        alpha_c=alpha_c, beta_c=beta_c, tau_c=tau_c, residual=abs(g_eval(alpha_c, beta_c))
    )


def _bisect_root(beta: float, lo: float, hi: float, flo: float, fhi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = g_eval(mid, beta)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@lru_cache(maxsize=8)
def _log_grid(alpha_max: float) -> np.ndarray:
    """The 2000-point log grid on [1e-3, alpha_max] (read-only, shared)."""
    grid = np.array([1e-3 * (alpha_max / 1e-3) ** (i / 1999.0) for i in range(2000)])
    grid.setflags(write=False)
    return grid


def _g_many(alpha: np.ndarray, beta: float) -> np.ndarray:
    """g_eval on an array of alphas, term for term and with its tau > 300 rule.

    np.cosh and np.sinh may differ from math.cosh and math.sinh in the last
    ulp, so values can differ from g_eval by rounding; callers use the signs.
    """
    a2b = alpha * alpha * beta
    tau = 0.5 * np.sqrt(beta * (4.0 + a2b))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = 2.0 * alpha * tau * np.cosh(tau) - (2.0 + a2b) * np.sinh(tau)
        lead = 2.0 * alpha * tau - (2.0 + a2b)
    return np.where(tau > 300.0, np.copysign(np.inf, np.where(lead != 0, lead, -1.0)), vals)


def solve_branches(beta: float, alpha_max: float = _ALPHA_MAX) -> BranchPair:
    """All real roots of g(., beta) on (0, alpha_max].

    Sign-change bracketing on a 2000-point log grid plus bisection; a
    tangency (the two branches within 1e-6) is reported as a single root.
    The grid is scanned in one numpy pass; the roots are bisected on the
    scalar g_eval.
    """
    if not 0 < beta < math.inf:
        raise ContractViolationError(f"solve_branches needs a finite beta > 0, got {beta!r}")
    if not 1e-3 < alpha_max < math.inf:
        raise ContractViolationError(
            f"solve_branches needs a finite alpha_max > 1e-3, got {alpha_max!r}"
        )
    grid = _log_grid(alpha_max)
    vals = _g_many(grid, beta)
    neg = vals < 0.0
    exact = vals[:-1] == 0.0
    change = (neg[:-1] != neg[1:]) & ~exact
    roots = [float(grid[i]) for i in np.flatnonzero(exact)]
    roots += [
        _bisect_root(beta, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1])
        for i in np.flatnonzero(change)
    ]
    if not roots:
        # g <= 0 with a tangency leaves no sign change; inspect the maximum
        imax = int(np.argmax(vals))
        if 0 < imax < 1999:
            a_lo, a_hi = float(grid[imax - 1]), float(grid[imax + 1])
            for _ in range(200):
                m1 = a_lo + (a_hi - a_lo) / 3.0
                m2 = a_hi - (a_hi - a_lo) / 3.0
                if g_eval(m1, beta) < g_eval(m2, beta):
                    a_lo = m1
                else:
                    a_hi = m2
                if a_hi - a_lo < 1e-13 * max(1.0, a_hi):
                    break
            a_star = 0.5 * (a_lo + a_hi)
            if abs(g_eval(a_star, beta)) < 1e-9:
                return BranchPair(beta=beta, alpha_small=a_star, alpha_large=a_star)
        return BranchPair(beta=beta, alpha_small=None, alpha_large=None)
    roots.sort()
    if len(roots) == 1 or roots[-1] - roots[0] < 1e-6:
        return BranchPair(beta=beta, alpha_small=roots[0], alpha_large=roots[0])
    return BranchPair(beta=beta, alpha_small=roots[0], alpha_large=roots[-1])


def trace_contour(beta_range: tuple[float, float], steps: int) -> list[tuple[float, float, str]]:
    """Polyline of the g = 0 contour over a beta range.

    Emits the small branch left to right, the turning point from the
    critical-pair solve (when it falls inside the range), then the large
    branch right to left; each point carries its branch label.
    """
    if steps < 2:
        raise ContractViolationError("contour tracing needs at least 2 steps")
    b0, b1 = beta_range
    if not 0 < b0 <= b1 < math.inf:
        raise ContractViolationError(f"bad beta range {beta_range}")
    if b0 == b1:
        betas = [b0]
    else:
        betas = [b0 + (b1 - b0) * i / (steps - 1) for i in range(steps)]
    pairs = [solve_branches(b) for b in betas]
    crit = critical_pair()
    out: list[tuple[float, float, str]] = []
    for b, p in zip(betas, pairs):
        if p.alpha_small is not None:
            out.append((b, p.alpha_small, BRANCH_SMALL))
    if b0 <= crit.beta_c <= b1:
        out.append((crit.beta_c, crit.alpha_c, BRANCH_CRITICAL))
    for b, p in zip(reversed(betas), reversed(pairs)):
        if p.alpha_large is not None and p.alpha_large != p.alpha_small:
            out.append((b, p.alpha_large, BRANCH_LARGE))
    return out
