"""Characteristic function whose zeros are the collective decay poles.

f(Delta) = Delta^N (T^N)_11 is entire: multiplying the unit cell by Delta
clears the 1/Delta pole of the qubit block, so f is a finite combination of
polynomials in Delta and exp(i Delta L).  A pole Delta maps to the complex
decay rate Gamma = 2i Delta.

Under the superradiant condition the origin carries a zero of multiplicity
N - 1; the deflated variant divides it out by known multiplicity (never by
numerical deflation of discovered roots, which would not survive the N = 100
cluster) and is the function actually searched for rates.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import (
    MODE_MARKOVIAN,
    MODE_SR,
    ChainParams,
    chebyshev_u_pair,
    snapped_phase_unit,
)
from .errors import ContractViolationError, SingularDetuningError

_INF = complex(float("inf"), 0.0)


def _sinc(u: complex) -> complex:
    """sin(u)/u with its removable singularity expanded."""
    if abs(u) < 1e-4:
        u2 = u * u
        return 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return cmath.sin(u) / u


@dataclass(frozen=True)
class CharFn:
    """Evaluator for Delta^(N - deflation_order) (T^N)_11.

    deflation_order is 0 (the full function) or N - 1 (origin zeros divided
    out); the deflated form is only meaningful under the superradiant
    condition, where the origin multiplicity is known.
    """

    params: ChainParams
    deflation_order: int = 0

    def __post_init__(self):
        n = self.params.n_qubits
        if self.deflation_order not in (0, n - 1):
            raise ContractViolationError(
                f"deflation_order must be 0 or N-1 = {n - 1}, got {self.deflation_order}"
            )
        if self.deflation_order != 0 and self.params.mode != MODE_SR:
            raise ContractViolationError("deflation by N-1 is only permitted in sr-condition mode")

    # -- scalar evaluation ------------------------------------------------

    def eval(self, delta: complex) -> complex:
        """Value at a single complex detuning (entire, safe at Delta = 0)."""
        try:
            return self._eval(complex(delta))
        except (OverflowError, ZeroDivisionError):
            return _INF

    __call__ = eval

    def _eval(self, delta: complex) -> complex:
        p = self.params
        n = p.n_qubits
        w = p.phase_unit()
        le = p.phase_separation()
        expo = n - 1 - self.deflation_order
        if w.imag == 0.0 and abs(w.real) == 1.0:
            # exp(ikL) = w exp(i Delta L) with w = +-1: x = tr(T)/2 is entire
            u = delta * le
            x = w * (cmath.cos(u) + 0.5 * le * _sinc(u))
            m11 = (delta + 0.5j) / (w * cmath.exp(1j * u))  # Delta * T_11
            uk, ukm1 = chebyshev_u_pair(x, n)
            h = uk * m11 - delta * ukm1  # Delta * (T^N)_11
            return delta**expo * h if expo else h
        # generic phase: power of the entire matrix Delta * T by squaring
        pm = w * cmath.exp(1j * delta * le)
        m = ((delta + 0.5j) / pm, 0.5j * pm, -0.5j / pm, (delta - 0.5j) * pm)
        r = _matpow_11(m, n)
        return r

    def noise_scale(self, delta: complex) -> float:
        """Magnitude of the terms cancelling in eval; eps times this is the
        attainable residual floor at this point."""
        p = self.params
        n = p.n_qubits
        w = p.phase_unit()
        le = p.phase_separation()
        try:
            if w.imag == 0.0 and abs(w.real) == 1.0:
                u = delta * le
                x = w * (cmath.cos(u) + 0.5 * le * _sinc(u))
                m11 = (delta + 0.5j) / (w * cmath.exp(1j * u))
                uk, ukm1 = chebyshev_u_pair(x, n)
                scale = abs(uk * m11) + abs(delta * ukm1)
                expo = n - 1 - self.deflation_order
                return max(1.0, abs(delta) ** expo * scale if expo else scale)
            pm = w * cmath.exp(1j * delta * le)
            m = ((delta + 0.5j) / pm, 0.5j * pm, -0.5j / pm, (delta - 0.5j) * pm)
            return max(1.0, _matpow_maxabs(m, n))
        except (OverflowError, ZeroDivisionError):
            return float("inf")

    # -- vectorized evaluation ----------------------------------------------

    def eval_many(self, deltas: np.ndarray) -> np.ndarray:
        """eval on an array of detunings, in one numpy pass.

        The values come from the rescaled recurrences of log10_magnitude.
        Where those had to rescale, or |Im Delta L| is large enough for
        cos and exp to approach overflow, the plain arithmetic of eval could
        overflow, so those points take eval's own value: the result equals
        eval to rounding where eval is finite and is non-finite where it
        is not.
        """
        p = self.params
        n = p.n_qubits
        w = p.phase_unit()
        le = p.phase_separation()
        z = np.asarray(deltas, dtype=complex)
        expo = n - 1 - self.deflation_order
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if w.imag == 0.0 and abs(w.real) == 1.0:
                h, ls = self._scaled_sr(z)
                if expo:
                    h = z**expo * h
            else:
                pm = w * np.exp(1j * z * le)
                m = ((z + 0.5j) / pm, 0.5j * pm, -0.5j / pm, (z - 0.5j) * pm)
                h, ls = _matpow_11_grid(m, n)
            # a zero scale means no rescaling happened: h is then the value
            # of the plain recurrence itself (at N = 1 there is no step that
            # could rescale, hence the bound on Im u)
            redo = (ls != 0.0) | ~(np.abs(h) < 1e300) | (np.abs((z * le).imag) > 200.0)
        for i in zip(*np.nonzero(redo)):
            h[i] = self.eval(complex(z[i]))
        return h

    # -- vectorized magnitude map ------------------------------------------

    def log10_magnitude(self, deltas: np.ndarray) -> np.ndarray:
        """log10 |f| on an array of detunings, stable far beyond the float
        range of |f| itself (exponents are tracked separately)."""
        p = self.params
        n = p.n_qubits
        w = p.phase_unit()
        le = p.phase_separation()
        z = np.asarray(deltas, dtype=complex)
        expo = n - 1 - self.deflation_order
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if w.imag == 0.0 and abs(w.real) == 1.0:
                h, ls = self._scaled_sr(z)
                out = np.log10(np.abs(h)) + ls
                if expo:
                    out = out + expo * np.log10(np.abs(z))
                return out
            pm = w * np.exp(1j * z * le)
            m = ((z + 0.5j) / pm, 0.5j * pm, -0.5j / pm, (z - 0.5j) * pm)
            f11, ls = _matpow_11_grid(m, n)
            return np.log10(np.abs(f11)) + ls

    def _scaled_sr(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Delta (T^N)_11 on the phase w = +-1 branch as (mantissa, log10
        scale): the value is mantissa * 10**scale.  The Chebyshev recurrence
        is rescaled by positive reals, so the phase of the mantissa is that
        of the value; points where the recurrence overflows anyway come
        back non-finite."""
        p = self.params
        n = p.n_qubits
        w = p.phase_unit()
        le = p.phase_separation()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = z * le
            small = np.abs(u) < 1e-4
            us = np.where(small, u, 1.0)
            series = 1.0 - us * us / 6.0 + us**4 / 120.0
            direct = np.divide(np.sin(u), u, out=np.ones_like(u), where=~small)
            x = w * (np.cos(u) + 0.5 * le * np.where(small, series, direct))
            m11 = (z + 0.5j) / (w * np.exp(1j * u))
            uk = np.ones_like(z)
            ukm1 = np.zeros_like(z)
            ls = np.zeros(z.shape, dtype=float)
            for _ in range(n - 1):
                ukm1, uk = uk, 2.0 * x * uk - ukm1
                mag = np.abs(uk)
                mask = mag > 1e100
                if mask.any():
                    uk = np.where(mask, uk / np.where(mask, mag, 1.0), uk)
                    ukm1 = np.where(mask, ukm1 / np.where(mask, mag, 1.0), ukm1)
                    ls = ls + np.where(mask, np.log10(np.where(mask, mag, 1.0)), 0.0)
            return uk * m11 - z * ukm1, ls


def _matpow_11(m, n: int) -> complex:
    """(M^n)_11 for a 2x2 complex tuple by binary powering."""
    r = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
    while True:
        if n & 1:
            r = _mul2(r, m)
        n >>= 1
        if not n:
            return r[0]
        m = _mul2(m, m)


def _matpow_maxabs(m, n: int) -> float:
    r = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
    peak = 1.0
    while True:
        if n & 1:
            r = _mul2(r, m)
            peak = max(peak, *(abs(v) for v in r))
        n >>= 1
        if not n:
            return max(peak, *(abs(v) for v in r))
        m = _mul2(m, m)
        peak = max(peak, *(abs(v) for v in m))


def _mul2(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _renorm_grid(m, ls):
    mag = np.maximum.reduce([np.abs(c) for c in m])
    mask = mag > 1e100
    if mask.any():
        scale = np.where(mask, mag, 1.0)
        m = tuple(c / scale for c in m)
        ls = ls + np.where(mask, np.log10(scale), 0.0)
    return m, ls


def _matpow_11_grid(m, n: int):
    shape = m[0].shape
    r = (
        np.ones(shape, dtype=complex),
        np.zeros(shape, dtype=complex),
        np.zeros(shape, dtype=complex),
        np.ones(shape, dtype=complex),
    )
    rls = np.zeros(shape, dtype=float)
    mls = np.zeros(shape, dtype=float)
    while True:
        if n & 1:
            r = _mul2(r, m)
            rls = rls + mls
            r, rls = _renorm_grid(r, rls)
        n >>= 1
        if not n:
            return r[0], rls
        m = _mul2(m, m)
        mls = 2.0 * mls
        m, mls = _renorm_grid(m, mls)


def markovian_polynomial(params: ChainParams) -> list[complex]:
    """Coefficients (ascending) of the degree-N polynomial with the
    Markovian collective poles as roots.

    With the propagation phase frozen at theta = Omega L, Delta times the
    unit cell is linear in Delta, so Delta^N (T^N)_11 is a polynomial.  It
    is built from the trace recurrence s_k = (2 cos(theta) Delta +
    sin(theta)) s_{k-1} - Delta^2 s_{k-2}; the leading coefficient
    exp(-i N theta) never vanishes.
    """
    if params.mode != MODE_MARKOVIAN:
        raise ContractViolationError("markovian_polynomial requires markovian mode")
    n = params.n_qubits
    w = snapped_phase_unit(params.omega * params.separation)
    a = complex(2.0 * w.real)  # trace slope, 2 cos(theta)
    b = complex(w.imag)  # trace offset, sin(theta); exactly 0 on-condition
    t = np.array([b, a], dtype=complex)
    s_prev = np.array([0.0j])  # s_{-1}
    s = np.array([1.0 + 0.0j])  # s_0
    for _ in range(n - 1):
        nxt = np.convolve(t, s)
        if len(s_prev) > 1 or s_prev[0] != 0:
            shifted = np.concatenate([np.zeros(2, dtype=complex), s_prev])
            width = max(len(nxt), len(shifted))
            nxt = np.pad(nxt, (0, width - len(nxt)))
            nxt -= np.pad(shifted, (0, width - len(shifted)))
        s_prev, s = s, nxt
    b11 = np.array([0.5j, 1.0], dtype=complex) * np.conj(w)  # (Delta + i/2) e^{-i theta}
    poly = np.convolve(b11, s)
    tail = np.concatenate([np.zeros(2, dtype=complex), s_prev])
    width = max(len(poly), len(tail), n + 1)
    poly = np.pad(poly, (0, width - len(poly))) - np.pad(tail, (0, width - len(tail)))
    return list(poly[: n + 1])


@dataclass(frozen=True)
class ClosedFormResidual:
    """Defects of the two closed-form pole equations at a candidate pole.

    res_a is the auxiliary-angle equation defect (zero by construction for
    the reported branch), res_b the main equation defect; lam is the
    auxiliary angle used.  A true pole drives both below 1e-8.
    """

    res_a: complex
    res_b: complex
    lam: complex


def closed_form_residual(p: complex, params: ChainParams) -> ClosedFormResidual:
    """Evaluate the closed-form pole system at p (sr-condition mode only).

    The auxiliary angle solves cos(lam) = cos(pL) + sin(pL)/(2p); both signs
    of the principal inverse cosine are tried in
    (p + i/2) sin(lam N) - exp(ipL) p sin(lam (N-1)) and the branch with the
    smaller defect is reported.
    """
    if params.mode != MODE_SR:
        raise ContractViolationError("the closed-form pole system is stated under the superradiant condition")
    p = complex(p)
    if p == 0:
        raise SingularDetuningError("closed-form residual is singular at p = 0")
    n = params.n_qubits
    sep = params.separation
    rhs = cmath.cos(p * sep) + cmath.sin(p * sep) / (2.0 * p)
    lam0 = cmath.acos(rhs)
    best = None
    for lam in (lam0, -lam0):
        try:
            res_b = (p + 0.5j) * cmath.sin(lam * n) - cmath.exp(1j * p * sep) * p * cmath.sin(lam * (n - 1))
        except OverflowError:
            res_b = _INF
        if best is None or abs(res_b) < abs(best[1]):
            best = (lam, res_b)
    lam, res_b = best
    res_a = cmath.cos(lam) - rhs
    return ClosedFormResidual(res_a=res_a, res_b=res_b, lam=lam)
