"""Characteristic function whose zeros are the collective decay poles.

f(Delta) = Delta^N (T^N)_11 is entire: multiplying the unit cell by Delta
clears the 1/Delta pole of the qubit block, so f is a finite combination of
polynomials in Delta and exp(i Delta L).  A pole Delta maps to the complex
decay rate Gamma = 2i Delta.

Under the superradiant condition the origin carries a zero of multiplicity
N - 1; the deflated variant divides it out by known multiplicity (never by
numerical deflation of discovered roots, which would not survive the N = 100
cluster) and is the function actually searched for rates.

Every mode evaluates f by the Chebyshev identity of the cell M = Delta T,
whose determinant is Delta^2: (M^N)_11 = V_{N-1} m11 - Delta^2 V_{N-2} with
V_k = Delta^k U_k(x) and x = tr(M) / (2 Delta).  Where w = exp(i Omega L) =
+-1, x is entire and the scalar f has a closed form in the paper's auxiliary
angle theta, cos(theta) = cos(Delta L) + sin(Delta L) / (2 Delta): U_{N-1} =
sin(N theta) / sin(theta) up to a sign, O(1) in N.  CharFn.eval and
noise_scale take it where N |theta| <= 16, which holds next to the fold, and
the three-term recurrence elsewhere; CharFn._terms gives the rule and its
measured errors.  Off that branch x has a 1/Delta pole, so the scalar path
runs the entire recurrence of V_k itself; the vectorised path runs the
rescaled recurrence of U_k in every mode, for f as (mantissa, log10 scale)
(eval_scaled, read by the zero counter) and for log10 |f| (log10_magnitude).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

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
_CLOSED_FORM_MAX = 16.0  # N |theta| up to which _terms uses sin(N theta)


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

    @cached_property
    def _consts(self) -> tuple[int, complex, float, int, bool]:
        """(N, w, L_e, expo, real_w), fixed per configuration and computed
        once: the phase unit w, the phase separation L_e, the power expo of
        Delta that multiplies Delta (T^N)_11 after deflation, and whether
        w = +-1 (the branch where x = tr(T)/2 is entire).  The frozen
        dataclass keeps its __dict__, so the cache never enters equality,
        hash or repr."""
        p = self.params
        n = p.n_qubits
        w = p.phase_unit()
        real_w = w.imag == 0.0 and abs(w.real) == 1.0
        return n, w, p.phase_separation(), n - 1 - self.deflation_order, real_w

    # -- scalar evaluation ------------------------------------------------

    def eval(self, delta: complex) -> complex:
        """Value at a single complex detuning (entire, safe at Delta = 0);
        _INF where the arithmetic overflows.

        Delta^expo times the difference of the two terms of _terms: closed
        form where N |theta| <= 16 on the w = +-1 branch, a three-term
        recurrence elsewhere."""
        try:
            return self._eval(complex(delta))
        except (OverflowError, ZeroDivisionError):
            return _INF

    __call__ = eval

    def _eval(self, delta: complex) -> complex:
        a, b, expo = self._terms(delta)
        h = a - b
        return delta**expo * h if expo else h

    def _terms(self, delta: complex) -> tuple[complex, complex, int]:
        """(a, b, expo) with f = Delta^expo (a - b): a and b are the two terms
        that cancel in f, m11 = Delta T_11 and M = Delta T the cell.

        Off the w = +-1 branch x = tr(M) / (2 Delta) has a 1/Delta pole, so
        the terms are (V_{N-1} m11, Delta^2 V_{N-2}) of f itself (expo = 0),
        from the entire recurrence V_{k+1} = tr(M) V_k - Delta^2 V_{k-1}
        that markovian_polynomial runs on coefficients.  Exact at Delta = 0,
        where M has rank one.  Like any plain recurrence it loses precision
        where x is near +-1: on random default-window points of N = 2 to
        100 it was up to 121 eps of noise_scale off 40-digit mpmath.

        On the branch they are (U_{N-1}(x) m11, Delta U_{N-2}(x)) of
        Delta (T^N)_11 and expo is that of _consts.  exp(ikL) = w exp(iu)
        with u = Delta L, so x = w (1 + g), g = -2 sin^2(u/2) + (L/2) sinc u,
        free of cancellation near x = w.  With 1 + g = cos(theta), theta =
        2 asin(sqrt(-g/2)), U_{k-1}(x) = w^(k-1) sin(k theta) / sin(theta)
        (k at theta = 0; U is even in theta, so the branch does not matter).
        This closed form costs a few complex functions whatever N is and
        loses about N |theta| eps to the rounding of theta.  The three-term
        recurrence loses up to about N eps / |sin theta| where theta is
        nearly real, but follows the dominant solution where Im theta is
        large, and there sin(N theta) overflows before U does.  So the
        closed form runs where N |theta| <= _CLOSED_FORM_MAX and the
        recurrence beyond.

        Against 40-digit mpmath on random points of the default windows of
        N = 2 to 1000 (L = 0.01 to 3 and beta_c / N^2), the worst error in
        eps of the terms' size, for N |theta| in [0, 2) / [2, 12) / [12, 16],
        was 2 / 4 / 13 for the closed form and 390 / 235 / 9 for the
        recurrence (the 390 next to the fold at N = 1000).  Nearer the origin
        (|Delta| < 3 N, L down to 1e-6) the recurrence reached 5,600 below
        16 and the closed form 12."""
        n, w, le, expo, real_w = self._consts
        u = delta * le
        pm = w * cmath.exp(1j * u)
        m11 = (delta + 0.5j) / pm
        if not real_w:
            trace = m11 + (delta - 0.5j) * pm
            d2 = delta * delta
            vk, vkm1 = 1.0 + 0j, 0j
            for _ in range(n - 1):
                vk, vkm1 = trace * vk - d2 * vkm1, vk
            return vk * m11, d2 * vkm1, 0
        sinc = _sinc(u)
        theta = 2.0 * cmath.asin(cmath.sqrt(cmath.sin(0.5 * u) ** 2 - 0.25 * le * sinc))
        if n * abs(theta) <= _CLOSED_FORM_MAX:
            s = cmath.sin(theta)
            uk, ukm1 = (cmath.sin(n * theta) / s, cmath.sin((n - 1) * theta) / s) if s else (n, n - 1)
            sign = w.real ** (n - 1)
            return sign * uk * m11, sign * w.real * delta * ukm1, expo
        uk, ukm1 = chebyshev_u_pair(w * (cmath.cos(u) + 0.5 * le * sinc), n)
        return uk * m11, delta * ukm1, expo

    def eval_derivatives(self, delta: complex) -> tuple[complex, complex, complex, complex, complex]:
        """(f, f_Delta, f_L, f_DeltaDelta, f_DeltaL) of the deflated sr-branch
        f at Delta != 0, the separation L taken as the second variable.

        One forward-mode pass (Griewank & Walther, Evaluating Derivatives,
        2nd ed., SIAM 2008) carries the jet (value, d/dDelta, d/dL,
        d2/dDelta2, d2/dDelta dL) of every intermediate through the
        Chebyshev recurrence of eval.  With x = w (1 + g), U_k(x) =
        w^k U_k(1 + g), and the recurrence runs in Reinsch's difference form
        D_{k+1} = 2 g U_k + D_k, U_{k+1} = U_k + D_{k+1}: near the fold g is
        small, and the plain form would grow its rounding error like k^2.
        The value equals eval to rounding; non-finite entries mean overflow.
        """
        p = self.params
        n = p.n_qubits
        if p.mode != MODE_SR or self.deflation_order != n - 1:
            raise ContractViolationError("eval_derivatives needs the deflated sr-condition function")
        delta = complex(delta)
        if delta == 0:
            raise SingularDetuningError("eval_derivatives is singular at Delta = 0")
        try:
            d = (delta, 1.0, 0.0, 0.0, 0.0)
            u = _jmul(d, (p.separation, 0.0, 1.0, 0.0, 0.0))
            c, s, e = cmath.cos(u[0]), cmath.sin(u[0]), cmath.exp(-1j * u[0])
            inv = 0.5 / delta
            # g = cos u - 1 + sin u / (2 Delta), cos u - 1 without cancellation
            cos_m1 = _jchain(u, -2.0 * cmath.sin(0.5 * u[0]) ** 2, -s, -c)
            sin_over = _jmul(_jchain(u, s, c, -s), (inv, -2.0 * inv * inv, 0.0, 8.0 * inv**3, 0.0))
            gv, gd, gl, gdd, gdl = (2.0 * (a + b) for a, b in zip(cos_m1, sin_over))
            # jets of U_k and D_k: D += _jmul(2g, U), then U += D, in locals
            uv = dv = 1.0 + 0j  # U_0 and U_0 - U_{-1}
            ud = ul = udd = udl = dd = dl = ddd = ddl = 0j
            for _ in range(n - 1):
                dv = gv * uv + dv
                dd = gd * uv + gv * ud + dd
                dl = gl * uv + gv * ul + dl
                ddd = gdd * uv + 2.0 * gd * ud + gv * udd + ddd
                ddl = gdl * uv + gd * ul + gl * ud + gv * udl + ddl
                uv, ud, ul, udd, udl = uv + dv, ud + dd, ul + dl, udd + ddd, udl + ddl
            uk = (uv, ud, ul, udd, udl)
            ukm1 = (uv - dv, ud - dd, ul - dl, udd - ddd, udl - ddl)
            # f = w^N (U_{N-1}(1 + g) (Delta + i/2) exp(-iu) - Delta U_{N-2}(1 + g))
            m = _jmul((delta + 0.5j, 1.0, 0.0, 0.0, 0.0), _jchain(u, e, -1j * e, -e))
            sign = p.phase_unit().real ** n
            return tuple(sign * (a - b) for a, b in zip(_jmul(uk, m), _jmul(d, ukm1)))
        except (OverflowError, ZeroDivisionError):
            return (_INF,) * 5

    def noise_scale(self, delta: complex) -> float:
        """Magnitude of the terms cancelling in eval, at least 1 (inf where
        they overflow); eps times this is the attainable residual floor at
        this point.

        |Delta|^expo (|a| + |b|) from the same _terms as eval, so the
        closed form sets the floor wherever it sets the value."""
        try:
            a, b, expo = self._terms(delta)
            scale = abs(a) + abs(b)
            if expo:
                scale = abs(delta) ** expo * scale
            return float("inf") if math.isnan(scale) else max(1.0, scale)
        except (OverflowError, ZeroDivisionError):
            return float("inf")

    # -- vectorized evaluation ----------------------------------------------

    def eval_scaled(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f on an array of detunings as (mantissa, log10 scale), f =
        mantissa * 10**scale, in one numpy pass.  The mantissa is finite far
        beyond the float range of f, and non-finite where exp(i Delta L)
        overflows or a detuning is not finite.

        The rescaled recurrence of _scaled, with the factor Delta^expo split
        into its phase, which joins the mantissa, and its modulus, which
        joins the scale.  Delta = 0 takes eval(0j) with a zero scale, as in
        log10_magnitude.  Where expo is 0 and the recurrence never rescales,
        the scale is exactly 0.  As in log10_magnitude, only a point whose
        recurrence rescales can depend on the rest of its batch."""
        _, _, _, expo, _ = self._consts
        z = np.asarray(deltas, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h, ls = self._scaled(z)
            if expo:
                h *= (z / np.abs(z)) ** expo
                ls += expo * np.log10(np.abs(z))
            if (z == 0).any():
                h, ls = np.where(z == 0, self.eval(0j), h), np.where(z == 0, 0.0, ls)
            return h, ls

    # -- vectorized magnitude map ------------------------------------------

    def log10_magnitude(self, deltas: np.ndarray) -> np.ndarray:
        """log10 |f| on an array of detunings, stable far beyond the float
        range of |f| itself (exponents are tracked separately).  At
        Delta = 0 exactly the value is that of eval, which is exact there.
        Computed apart from eval_scaled: the modulus needs no phase of Delta^expo.

        Each value depends on its own point, with one exception: _scaled
        takes its rescale cadence from the largest finite |x| of the
        batch, so a point whose recurrence passes 1e100 may round
        differently when it is evaluated in another batch (fieldmap
        evaluates a band of rows at a time).
        Such values agree to about 1e-13 relative and are non-finite at the
        same points; every other value is the same bit for bit in any
        batch."""
        _, _, _, expo, _ = self._consts
        z = np.asarray(deltas, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h, ls = self._scaled(z)
            out = np.log10(np.abs(h)) + ls
            if expo:
                out = out + expo * np.log10(np.abs(z))
            zero = z == 0
            if zero.any():
                out = np.where(zero, np.log10(abs(self.eval(0j))), out)
            return out

    def _scaled(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Delta (T^N)_11 as (mantissa, log10 scale): the value is mantissa *
        10**scale.  The Chebyshev recurrence of U_k(x) is rescaled by
        positive reals, so the phase of the mantissa is that of the value;
        points where the recurrence overflows anyway come back non-finite.
        On the w = +-1 branch x = w (cos u + (L/2) sinc u) as in _terms;
        elsewhere x = tr(M) / (2 Delta), non-finite at Delta = 0.

        The rescale check (divide U_k and U_{k-1} by the larger of their
        moduli wherever it exceeds 1e100) runs every `every` steps and at
        the last one, not at every step.  Since |U_{k+1}| <= (2|x| + 1)
        max(|U_k|, |U_{k-1}|), floor(200 / log10(2 max|x| + 1)) steps cannot
        carry a checked pair from 1e100 past 1e300, so no finite product
        overflows in between.  The max runs over the finite |x| only: a
        point with a non-finite x comes back non-finite at any cadence, so
        it does not change the values of the others.  A point whose
        recurrence never passes 1e100 gets the unrescaled values bit for
        bit, and its scale is exactly 0.  Since the cadence depends on the
        largest finite |x| of the batch, the points that do rescale can
        round differently in a batch with another such max."""
        n, w, le, _, real_w = self._consts
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = z * le
            pm = w * np.exp(1j * u)
            m11 = (z + 0.5j) / pm
            if real_w:
                small = np.abs(u) < 1e-4
                us = np.where(small, u, 1.0)
                series = 1.0 - us * us / 6.0 + us**4 / 120.0
                direct = np.divide(np.sin(u), u, out=np.ones_like(u), where=~small)
                x = w * (np.cos(u) + 0.5 * le * np.where(small, series, direct))
            else:
                x = (m11 + (z - 0.5j) * pm) / (2.0 * z)
            x2 = 2.0 * x
            ax = np.abs(x)
            growth = math.log10(2.0 * float(ax.max(initial=0.0, where=np.isfinite(ax))) + 1.0)
            every = max(1, int(200.0 / growth)) if growth > 0.0 else n
            uk = np.ones_like(z)
            ukm1 = np.zeros_like(z)
            spare = np.empty_like(z)
            ls = np.zeros(z.shape, dtype=float)
            for k in range(1, n):
                np.multiply(x2, uk, out=spare)
                np.subtract(spare, ukm1, out=spare)
                ukm1, uk, spare = uk, spare, ukm1
                if k % every and k != n - 1:
                    continue
                mag = np.maximum(np.abs(uk), np.abs(ukm1))
                mask = mag > 1e100
                if mask.any():
                    np.divide(uk, mag, out=uk, where=mask)
                    np.divide(ukm1, mag, out=ukm1, where=mask)
                    ls[mask] += np.log10(mag[mask])
            return uk * m11 - z * ukm1, ls


def _jmul(a, b):
    """Product of two jets (v, v_Delta, v_L, v_DeltaDelta, v_DeltaL)."""
    av, ad, al, add, adl = a
    bv, bd, bl, bdd, bdl = b
    return (
        av * bv,
        ad * bv + av * bd,
        al * bv + av * bl,
        add * bv + 2.0 * ad * bd + av * bdd,
        adl * bv + ad * bl + al * bd + av * bdl,
    )


def _jchain(a, g0, g1, g2):
    """The jet of g(a), given g, g' and g'' at the value of the jet a."""
    _, ad, al, add, adl = a
    return (g0, g1 * ad, g1 * al, g2 * ad * ad + g1 * add, g2 * ad * al + g1 * adl)


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
