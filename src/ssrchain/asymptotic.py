"""Large-N theory of the SSR scaling laws.

Writing the near-origin pole as Gamma = alpha N and the separation as
L = beta / N^2 and dropping O(1/N) terms reduces the pole condition to

    g(alpha, beta) = 2 alpha tau cosh(tau) - (2 + alpha^2 beta) sinh(tau),
    tau = 0.5 sqrt(beta (4 + alpha^2 beta)).

The contour g = 0 is solved in closed form.  With p = alpha beta / 2,
tau^2 = beta + p^2, and -beta g / 2 = 0 is the quadratic

    p^2 sinh(tau) - 2 p tau cosh(tau) + tau^2 sinh(tau) = 0

with roots p = tau tanh(tau/2) and p = tau coth(tau/2).  The second gives
beta = tau^2 - p^2 < 0, so for beta > 0 the contour is exactly the curve

    alpha(tau) = sinh(tau) / tau,   beta(tau) = (tau / cosh(tau/2))^2,   tau > 0.

alpha rises monotonically from the Dicke value 1; beta rises from 0 to its
maximum beta_c where d log beta / d tau = 2 / tau - tanh(tau/2) = 0, i.e.
tau_c tanh(tau_c/2) = 2, and falls back to 0.  tau < tau_c is the small
(Markovian-like) branch and tau > tau_c the large (first exclusively
non-Markovian) branch; they merge at the turning point (beta_c, alpha_c),
where alpha_c beta_c = 2 tau_c tanh(tau_c/2) = 4 exactly.  ln beta(tau) is
strictly concave and its slope convex, so monotone Newton gives tau_c and both roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError

BRANCH_SMALL = "small"
BRANCH_LARGE = "large"
BRANCH_CRITICAL = "critical"


def g_eval(alpha: float, beta: float) -> float:
    """The reduced pole function g(alpha, beta); beta must be >= 0.

    Above tau = 300 the hyperbolic factors overflow; the sign of the
    dominant e^tau coefficient is returned as a signed infinity.
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


def _alpha(tau: float) -> float:
    """alpha on the contour, sinh(tau) / tau; inf where sinh overflows."""
    try:
        return math.sinh(tau) / tau
    except OverflowError:
        return math.inf


def _beta(tau: float) -> float:
    """beta on the contour, (tau / cosh(tau/2))^2 = 4 tau^2 e^-tau / (1 + e^-tau)^2,
    written in the exp form, which cannot overflow."""
    e = math.exp(-tau)
    return 4.0 * tau * (tau * e) / ((1.0 + e) * (1.0 + e))


def _log_beta(tau: float) -> tuple[float, float]:
    """ln beta(tau) = 2 ln(2 tau) - tau - 2 log1p(e^-tau) and its slope
    2/tau - tanh(tau/2); finite for every tau > 0 that a root can have."""
    e = math.exp(-tau)
    return 2.0 * (math.log(2.0 * tau) - math.log1p(e)) - tau, 2.0 / tau - math.tanh(0.5 * tau)


def _newton(fn, target: float, t: float, bound: float) -> float:
    """The root of fn = target between t and bound, for a concave fn returning
    (value, slope) that is below target at t.  Concavity keeps each Newton step
    short of the root, so the iterates advance monotonically; returns the last
    one before a step that does not advance (or would reach bound)."""
    while True:
        h, slope = fn(t)
        nxt = t - (h - target) / slope
        if not (t < nxt < bound or bound < nxt < t):
            return t
        t = nxt


_TAU_C = _newton(
    lambda t: (math.tanh(0.5 * t) - 2.0 / t, 2.0 / (t * t) + 0.5 / math.cosh(0.5 * t) ** 2),
    0.0, 1.0, math.inf,
)


def critical_pair() -> CriticalPair:
    """The turning point: tau_c solves 2 / tau = tanh(tau/2), by Newton on minus the
    (convex, decreasing) slope of ln beta from tau = 1."""
    alpha_c, beta_c = _alpha(_TAU_C), _beta(_TAU_C)
    return CriticalPair(
        alpha_c=alpha_c, beta_c=beta_c, tau_c=_TAU_C, residual=abs(g_eval(alpha_c, beta_c))
    )


def solve_branches(beta: float) -> BranchPair:
    """Both real roots of g(., beta), from tau on each monotone arm of beta(tau).

    None above beta_c and (alpha_c, alpha_c) at it.  Below it Newton on ln beta
    starts where beta(tau) < beta: at sqrt(beta) on the small arm, and at 2 tau_c
    doubled until then on the large one; alpha_large is inf where sinh overflows
    (beta below about 1e-302).
    """
    if not 0 < beta < math.inf:
        raise ContractViolationError(f"solve_branches needs a finite beta > 0, got {beta!r}")
    beta_c = _beta(_TAU_C)
    if beta >= beta_c:
        alpha_c = _alpha(_TAU_C) if beta == beta_c else None
        return BranchPair(beta=beta, alpha_small=alpha_c, alpha_large=alpha_c)
    log_b = math.log(beta)
    hi = 2.0 * _TAU_C
    while _log_beta(hi)[0] >= log_b:
        hi *= 2.0
    return BranchPair(
        beta=beta,
        alpha_small=_alpha(_newton(_log_beta, log_b, math.sqrt(beta), _TAU_C)),
        alpha_large=_alpha(_newton(_log_beta, log_b, hi, _TAU_C)),
    )


def trace_contour(beta_range: tuple[float, float], steps: int) -> list[tuple[float, float, str]]:
    """Polyline of the g = 0 contour over a beta range.

    Emits the small branch left to right, the turning point from the
    critical-pair solve (once, when it falls inside the range), then the large
    branch right to left; each point carries its branch label.
    """
    if steps < 2:
        raise ContractViolationError("contour tracing needs at least 2 steps")
    b0, b1 = beta_range
    if not 0 < b0 <= b1 < math.inf:
        raise ContractViolationError(f"bad beta range {beta_range}")
    betas = [b0 + (b1 - b0) * i / (steps - 1) for i in range(steps)] if b0 < b1 else [b0]
    pairs = [solve_branches(b) for b in betas]
    crit = critical_pair()
    out: list[tuple[float, float, str]] = []
    for b, p in zip(betas, pairs):
        if p.alpha_small != p.alpha_large:
            out.append((b, p.alpha_small, BRANCH_SMALL))
    if b0 <= crit.beta_c <= b1:
        out.append((crit.beta_c, crit.alpha_c, BRANCH_CRITICAL))
    for b, p in zip(reversed(betas), reversed(pairs)):
        if p.alpha_large != p.alpha_small:
            out.append((b, p.alpha_large, BRANCH_LARGE))
    return out
