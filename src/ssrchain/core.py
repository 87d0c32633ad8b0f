"""Chain configuration and exact 2x2 transfer-matrix algebra.

Units: the single-qubit decay rate gamma_0, the group velocity and hbar are
all set to 1.  Rates are reported in units of gamma_0, lengths and times in
units of 1/gamma_0, and the photon dispersion is linear, k = Omega + Delta.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

from .errors import ContractViolationError, OnResonancePoleError, SingularDetuningError

GAMMA0 = 1.0

MODE_GENERAL = "general"
MODE_SR = "sr-condition"
MODE_MARKOVIAN = "markovian"

_MODE_ALIASES = {
    "general": MODE_GENERAL,
    "sr": MODE_SR,
    "sr-condition": MODE_SR,
    "markovian": MODE_MARKOVIAN,
}

_EPS = sys.float_info.epsilon


def snapped_phase_unit(theta: float) -> complex:
    """exp(i*theta), snapped to exactly +-1 when theta is a multiple of pi.

    The snap removes the rounding residue of float(n*pi); without it the
    collective zero at the origin splits into an ill-conditioned cluster
    and the superradiant condition is never met exactly.
    """
    s, c = math.sin(theta), math.cos(theta)
    if abs(s) <= 4.0 * _EPS * (1.0 + abs(theta)):
        return complex(math.copysign(1.0, c), 0.0)
    return complex(c, s)


@dataclass(frozen=True)
class ChainParams:
    """Physical configuration of the qubit chain.

    Parameters
    ----------
    n_qubits : int
        Number of qubits N (>= 1).
    separation : float
        Inter-qubit distance L in units of 1/gamma_0 (>= 0).
    mode : str
        Phase convention for the inter-qubit propagation factor:
        ``general``       exp(ikL) with k = Omega + Delta,
        ``sr-condition``  (-1)^n exp(i Delta L), the Omega -> infinity
                          envelope at the superradiant condition
                          Omega L = n pi (omega is not consulted),
        ``markovian``     constant exp(i Omega L), linearized phase.
    omega : float
        Qubit transition frequency in units of gamma_0.  The weak-coupling
        treatment assumes omega >> 1; a warning is emitted below 10.
    sr_index : int
        Integer n of the superradiant condition Omega L = n pi.
    """

    n_qubits: int
    separation: float
    mode: str = MODE_SR
    omega: float = 50.0
    sr_index: int = 1

    def __post_init__(self):
        # bool is an int subclass: True would build a one-qubit chain
        if not isinstance(self.n_qubits, int) or isinstance(self.n_qubits, bool) or self.n_qubits < 1:
            raise ContractViolationError(f"n_qubits must be a positive integer, got {self.n_qubits!r}")
        if not 0 <= self.separation < math.inf:
            raise ContractViolationError(f"separation must be finite and >= 0, got {self.separation!r}")
        if not 0 < self.omega < math.inf:
            raise ContractViolationError(f"omega must be finite and > 0, got {self.omega!r}")
        mode = _MODE_ALIASES.get(self.mode)
        if mode is None:
            raise ContractViolationError(f"unknown mode {self.mode!r}; expected one of {sorted(set(_MODE_ALIASES))}")
        object.__setattr__(self, "mode", mode)
        if not isinstance(self.sr_index, int) or isinstance(self.sr_index, bool):
            raise ContractViolationError(f"sr_index must be an integer, got {self.sr_index!r}")
        if self.omega < 10 and mode != MODE_SR:
            warnings.warn(
                f"omega = {self.omega} is not large compared to gamma_0 = 1; "
                "the weak-coupling transfer matrix is inaccurate here",
                stacklevel=2,
            )

    def phase_unit(self) -> complex:
        """Delta-independent factor of exp(ikL) for this mode."""
        if self.mode == MODE_SR:
            # L = 0 forces n = 0 in Omega L = n pi: no propagation at all
            if self.separation == 0.0:
                return complex(1.0, 0.0)
            return complex(-1.0 if self.sr_index % 2 else 1.0, 0.0)
        return snapped_phase_unit(self.omega * self.separation)

    def phase_separation(self) -> float:
        """Length multiplying Delta inside exp(ikL): L, or 0 when linearized."""
        return 0.0 if self.mode == MODE_MARKOVIAN else self.separation


@dataclass(frozen=True)
class Mat2c:
    """2x2 complex matrix; constructors in this module keep det = 1."""

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    def det(self) -> complex:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> complex:
        return self.a11 + self.a22

    @classmethod
    def identity(cls) -> "Mat2c":
        return cls(1.0, 0.0, 0.0, 1.0)

    def as_tuple(self):
        return (self.a11, self.a12, self.a21, self.a22)


def qubit_matrix(delta: complex) -> Mat2c:
    """Single qubit-light interaction block of the unit cell.

    Returns [[1 + i/(2 Delta), i/(2 Delta)], [-i/(2 Delta), 1 - i/(2 Delta)]]
    with gamma_0 = 1; the determinant is exactly 1.
    """
    if delta == 0:
        raise SingularDetuningError("qubit matrix has a 1/Delta pole at Delta = 0")
    c = 0.5j * GAMMA0 / delta
    return Mat2c(1.0 + c, c, -c, 1.0 - c)


def propagation_matrix(phase: complex) -> Mat2c:
    """Free propagation over one cell: diag(exp(-i phase), exp(i phase))."""
    p = cmath.exp(1j * phase)
    return Mat2c(1.0 / p, 0.0, 0.0, p)


def _cell_phase_factor(delta: complex, params: ChainParams) -> complex:
    """exp(ikL) for the configured mode (entire in Delta)."""
    w = params.phase_unit()
    le = params.phase_separation()
    if le == 0.0:
        return w
    return w * cmath.exp(1j * delta * le)


def unit_cell(delta: complex, params: ChainParams) -> Mat2c:
    """Transfer matrix of one qubit plus one propagation segment."""
    q = qubit_matrix(delta)
    p = _cell_phase_factor(delta, params)
    return Mat2c(q.a11 / p, q.a12 * p, q.a21 / p, q.a22 * p)


def chebyshev_u_pair(x: complex, n: int) -> tuple[complex, complex]:
    """(U_{n-1}(x), U_{n-2}(x)) by the three-term recurrence."""
    ukm1, uk = 0.0 + 0.0j, 1.0 + 0.0j  # U_{-1}, U_0
    x2 = 2.0 * x  # 2.0 * x * uk evaluates as (2.0 * x) * uk anyway
    for _ in range(n - 1):
        ukm1, uk = uk, x2 * uk - ukm1
    return uk, ukm1


def matrix_power(t: Mat2c, n: int) -> Mat2c:
    """T^n for unimodular T via the Chebyshev identity.

    T^n = U_{n-1}(x) T - U_{n-2}(x) I with x = tr(T)/2.  Exact through the
    defective points x = +-1, and stable because the recurrence follows the
    dominant solution.
    """
    if not isinstance(n, int) or n < 1:
        raise ContractViolationError(f"matrix power requires a positive integer, got {n!r}")
    d = t.det()
    # the products cancel to eps * their own size; tolerance must scale with it
    scale = max(1.0, abs(t.a11 * t.a22), abs(t.a12 * t.a21))
    if abs(d - 1.0) > 1e-9 * scale:
        raise ContractViolationError(f"matrix_power requires det = 1, got det = {d!r}")
    uk, ukm1 = chebyshev_u_pair(0.5 * t.trace(), n)
    return Mat2c(
        uk * t.a11 - ukm1,
        uk * t.a12,
        uk * t.a21,
        uk * t.a22 - ukm1,
    )


def scattering(delta: float, params: ChainParams) -> tuple[complex, complex]:
    """On-shell transmission and reflection amplitudes (t, r).

    The boundary relation (1, r)^T = T^N (t, 0)^T gives t = 1/(T^N)_11 and
    r = (T^N)_21 t.  Requires a real nonzero detuning; then |t|^2 + |r|^2 = 1.
    """
    if delta == 0:
        raise SingularDetuningError("scattering is singular at Delta = 0")
    if isinstance(delta, complex):
        if delta.imag != 0.0:
            raise ContractViolationError("scattering requires a real (on-shell) detuning")
        delta = delta.real
    tn = matrix_power(unit_cell(delta, params), params.n_qubits)
    if tn.a11 == 0:
        raise OnResonancePoleError("(T^N)_11 vanishes at this real detuning")
    t = 1.0 / tn.a11
    r = tn.a21 * t
    return t, r
