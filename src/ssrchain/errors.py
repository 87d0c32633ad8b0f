"""Exception hierarchy for the ssrchain solvers."""


class SSRChainError(Exception):
    """Base class for all ssrchain errors."""


class ContractViolationError(SSRChainError, ValueError):
    """An argument violates a documented precondition."""


class SingularDetuningError(SSRChainError, ZeroDivisionError):
    """The bare qubit matrix is evaluated at its 1/Delta pole (Delta = 0)."""


class OnResonancePoleError(SSRChainError):
    """Scattering requested at a real detuning where (T^N)_11 vanishes."""


class BoundaryDegeneracyError(SSRChainError):
    """A zero sits on (or hugs) a counting-contour boundary after all retries."""


class RefinementFailureError(SSRChainError):
    """Newton polishing did not converge.

    Attributes
    ----------
    best : complex
        Best iterate reached before giving up.
    residual : float
        |f(best)| at that iterate.
    """

    def __init__(self, message, best, residual):
        super().__init__(message)
        self.best = best
        self.residual = residual


class ContinuationBreakdownError(SSRChainError):
    """Pole continuation stalled below the minimum step size.

    Attributes
    ----------
    partial : list
        Poles successfully tracked before the breakdown.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class WindowExhaustedError(SSRChainError):
    """No admissible pole was found inside the search window."""


class BracketError(SSRChainError):
    """The SSR fold failed a check of the maximizer: its Newton did not
    converge, an axis root lies below it, or a root of the local quadratic
    model of f lies over 1e-3 (1 + y) from it; the message names which."""
