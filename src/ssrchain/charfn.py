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
sin(N theta) / sin(theta) up to a sign, O(1) in N.  CharFn.eval, jet and
noise_scale take it where N |theta| <= 16, which holds next to the fold, and
the three-term recurrence elsewhere; CharFn._terms gives the rule and its
measured errors.  CharFn.jet returns f' with f from the same pass: the
slopes of the two terms come from closed forms of dU/dx on the w = +-1
branch and from the recurrence differentiated alongside itself off it.
Off that branch x has a 1/Delta pole, so the scalar path runs the entire
recurrence of V_k itself; the vectorised path runs the
rescaled recurrence of U_k in every mode, for f as (mantissa, log10 scale)
(eval_scaled, read by the zero counter) and for log10 |f| (log10_magnitude).
Its set-up reaches u = Delta L only through real functions of Re u and of
Im u, the separable phase factor w exp(iu) = e^(-Im u) w exp(i Re u)
among them, so on a tensor grid (a map) those calls run on the grid's two
axes and give the values of the pointwise call bit for bit.
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


def _ipow(z: complex, n: int) -> complex:
    """z**n, n >= 0, by the binary powering (c_powu) that CPython's ** uses up to n = 100, at every n."""
    r = 1.0 + 0j
    while n:
        if n & 1:
            r *= z
        z, n = z * z, n >> 1
    if cmath.isinf(r):
        raise OverflowError("complex exponentiation")  # as ** raises
    return r


# c_k = (-1)^k 2k / (2k + 1)!, k = 8 down to 1 for Horner's rule:
# sinc'(u) = u sum_k c_k u^(2k - 2)
_SINC_SLOPE_SERIES = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(8, 0, -1))


def _sinc_slope(u: complex, sinc: complex) -> complex:
    """d/du of sinc(u) = sin(u)/u, given sinc: (cos(u) - sinc) / u, which
    loses eps / |u|^2 of itself to cancellation, so where |u| < 0.5 its
    Taylor series to u^15, whose first omitted term is 1e-17 of it there."""
    if abs(u) < 0.5:
        v, total = u * u, 0.0
        for c in _SINC_SLOPE_SERIES:
            total = total * v + c
        return u * total
    return (cmath.cos(u) - sinc) / u


def _chebyshev_slope(k: int, theta: complex, half: complex, s: complex, u: complex) -> complex:
    """dU_(k-1)/dc at c = cos(theta), given half = sin^2(theta/2), s =
    sin(theta) and u = U_(k-1)(c) = sin(k theta) / s.

    (c u - k cos(k theta)) / s^2 cancels to (k theta)^2 of its terms and
    loses about 3 eps / (k theta)^2 of the slope, 12 eps at |k theta| =
    0.5.  Below that the slope is k (k^2 - 1) / 3 times the hypergeometric
    series 2F1(2 - k, k + 2; 5/2; half), the derivative of U_(k-1) =
    k 2F1(1 - k, k + 1; 3/2; (1 - c) / 2), summed until a term is below
    1e-17 (at most eight terms there).  U_(-1) = 0 and U_0 = 1 are flat."""
    if k < 2:
        return 0.0
    if abs(k * theta) < 0.5:
        total = term = 1.0
        m = 0
        while abs(term) > 1e-17:
            m += 1
            term *= ((m + 1) ** 2 - k * k) * half / ((m + 1.5) * m)
            total += term
        return k * (k * k - 1) / 3.0 * total
    return ((1.0 - 2.0 * half) * u - k * cmath.cos(k * theta)) / (s * s)


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
            delta = complex(delta)
            a, b, expo, _ = self._terms(delta)
            return _ipow(delta, expo) * (a - b) if expo else a - b
        except (OverflowError, ZeroDivisionError):
            return _INF

    __call__ = eval

    def jet(self, delta: complex) -> tuple[complex, complex]:
        """(f, f') at a single complex detuning: f is eval's value bit for
        bit wherever that is finite, and the pair is (_INF, _INF) wherever
        it is not.

        f' = Delta^(expo - 1) (expo (a - b) + Delta (a' - b')) from the
        slopes that _terms carries alongside its terms."""
        try:
            delta = complex(delta)
            a, b, expo, (da, db) = self._terms(delta, slope=True)
            h = a - b
            if expo:
                h, dh = _ipow(delta, expo) * h, _ipow(delta, expo - 1) * (expo * h + delta * (da - db))
            else:
                dh = da - db
        except (OverflowError, ZeroDivisionError):
            return _INF, _INF
        return (h, dh) if cmath.isfinite(h) else (_INF, _INF)

    def _terms(self, delta: complex, slope: bool = False):
        """(a, b, expo, slopes) with f = Delta^expo (a - b): a and b are the
        two terms that cancel in f, m11 = Delta T_11 and M = Delta T the
        cell.  slopes is (a', b'), their Delta-derivatives, where slope is
        set, and None otherwise.

        Off the w = +-1 branch x = tr(M) / (2 Delta) has a 1/Delta pole, so
        the terms are (V_{N-1} m11, Delta^2 V_{N-2}) of f itself (expo = 0),
        from the entire recurrence V_{k+1} = tr(M) V_k - Delta^2 V_{k-1}
        that markovian_polynomial runs on coefficients, differentiated
        alongside itself.  Exact at Delta = 0, where M has rank one.  Like
        any plain recurrence it loses precision where x is near +-1: on
        random default-window points of N = 2 to 100 it was up to 121 eps
        of noise_scale off 40-digit mpmath.

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
        recurrence beyond.  The slopes take dU/dx in closed form as well:
        from _chebyshev_slope next to the closed form, and from the
        recurrence's own pair by (1 - x^2) dU_{N-1}/dx = N U_{N-2} - (N - 1)
        x U_{N-1} and (1 - x^2) dU_{N-2}/dx = N x U_{N-2} - (N - 1) U_{N-1}
        beyond it, where 1 - x^2 = sin^2(theta) and N |theta| > 16.

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
        # d/dDelta of exp(i Delta L) is i L exp(i Delta L)
        dm11 = 1.0 / pm - 1j * le * m11 if slope else None
        if not real_w:
            trace = m11 + (delta - 0.5j) * pm
            d2 = delta * delta
            vk, vkm1 = 1.0 + 0j, 0j
            if slope:
                dtrace = dm11 + (1.0 + 1j * le * (delta - 0.5j)) * pm
                dd2, dvk, dvkm1 = 2.0 * delta, 0j, 0j
            for _ in range(n - 1):
                if slope:
                    dvk, dvkm1 = dtrace * vk + trace * dvk - dd2 * vkm1 - d2 * dvkm1, dvk
                vk, vkm1 = trace * vk - d2 * vkm1, vk
            slopes = (dvk * m11 + vk * dm11, dd2 * vkm1 + d2 * dvkm1) if slope else None
            return vk * m11, d2 * vkm1, 0, slopes
        sinc = _sinc(u)
        half = cmath.sin(0.5 * u) ** 2 - 0.25 * le * sinc  # sin^2(theta / 2)
        theta = 2.0 * cmath.asin(cmath.sqrt(half))
        closed = n * abs(theta) <= _CLOSED_FORM_MAX
        if closed:
            s = cmath.sin(theta)
            uk, ukm1 = (cmath.sin(n * theta) / s, cmath.sin((n - 1) * theta) / s) if s else (n, n - 1)
            sign = w.real ** (n - 1)
            a, b = sign * uk * m11, sign * w.real * delta * ukm1
        else:
            x = w * (cmath.cos(u) + 0.5 * le * sinc)
            uk, ukm1 = chebyshev_u_pair(x, n)
            a, b = uk * m11, delta * ukm1
        if not slope:
            return a, b, expo, None
        # c = cos(theta) = cos(u) + (L/2) sinc(u)
        dc = le * (0.5 * le * _sinc_slope(u, sinc) - cmath.sin(u))
        if closed:
            # dU_{k-1}(x)/dDelta = w^(k-1) dU_{k-1}(c)/dc dc/dDelta
            duk = _chebyshev_slope(n, theta, half, s, uk) * dc
            dukm1 = _chebyshev_slope(n - 1, theta, half, s, ukm1) * dc
            return a, b, expo, (sign * (duk * m11 + uk * dm11), sign * w.real * (ukm1 + delta * dukm1))
        # dx/dDelta over sin^2(theta) = 1 - x^2; m11 joins before x does,
        # since x U_{N-1} alone can overflow where a = U_{N-1} m11 does not
        t = w * dc / (4.0 * half * (1.0 - half))
        da = (n * ukm1 * m11 - (n - 1) * x * a) * t + uk * dm11
        return a, b, expo, (da, ukm1 + delta * (n * x * ukm1 - (n - 1) * uk) * t)

    def noise_scale(self, delta: complex) -> float:
        """Magnitude of the terms cancelling in eval, at least 1 (inf where
        they overflow); eps times this is the attainable residual floor at
        this point.

        |Delta|^expo (|a| + |b|) from the same _terms as eval, so the
        closed form sets the floor wherever it sets the value."""
        try:
            a, b, expo, _ = self._terms(delta)
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

        A 2-D tensor grid, whose rows share their real parts and whose
        columns share their imaginary parts (fieldmap's bands of rows), takes
        its transcendental calls on the two axes (_setup) and gives the
        values of the same points as a flat array bit for bit.  Each value
        depends on its own point, with one exception: _scaled takes its
        rescale cadence from the largest finite |x| of the batch, so a point
        whose recurrence passes 1e100 may round differently when it is
        evaluated in another batch (fieldmap evaluates a band of rows at a
        time).  Such values agree to about 1e-13 relative and are non-finite
        at the same points; every other value is the same bit for bit in
        any batch."""
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
        10**scale.  The Chebyshev recurrence of U_k(x) from the 2x and m11
        of _setup is rescaled by positive reals, so the phase of the
        mantissa is that of the value; points where the recurrence
        overflows anyway come back non-finite.

        The rescale check (divide U_k and U_{k-1} by the larger of their
        moduli wherever it exceeds 1e100) runs every `every` steps and at
        the last one, not at every step.  Since |U_{k+1}| <= (2|x| + 1)
        max(|U_k|, |U_{k-1}|), floor(200 / log10(2 max|x| + 1)) steps cannot
        carry a checked pair from 1e100 past 1e300, so no finite product
        overflows in between; and where (2 max|x| + 1)^(N-1) <= 1e100 no
        point can pass 1e100, so no step is checked.  The max runs over the
        finite |x| only: a point with a non-finite x comes back non-finite
        at any cadence, so it does not change the values of the others.  A
        point whose recurrence never passes 1e100 gets the unrescaled values
        bit for bit, and its scale is exactly 0.  Since the cadence depends
        on the largest finite |x| of the batch, the points that do rescale
        can round differently in a batch with another such max."""
        n = self._consts[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x2, m11 = self._setup(z)
            ax = np.abs(x2)  # 2 |x|, exactly
            growth = math.log10(float(ax.max(initial=0.0, where=np.isfinite(ax))) + 1.0)
            every = max(1, int(200.0 / growth)) if growth > 0.0 else n
            # no step is checked where the bound on |U_(N-1)| stays below 1e100
            last = n - 1 if growth * (n - 1) > 100.0 else 0
            uk = np.ones_like(x2)
            ukm1 = np.zeros_like(x2)
            spare = np.empty_like(x2)
            ls = np.zeros(x2.shape, dtype=float)
            for k in range(1, n):
                np.multiply(x2, uk, out=spare)
                np.subtract(spare, ukm1, out=spare)
                ukm1, uk, spare = uk, spare, ukm1
                if k % every and k != last:
                    continue
                mag = np.maximum(np.abs(uk), np.abs(ukm1))
                mask = mag > 1e100
                if mask.any():
                    np.divide(uk, mag, out=uk, where=mask)
                    np.divide(ukm1, mag, out=ukm1, where=mask)
                    ls[mask] += np.log10(mag[mask])
            return uk * m11 - z * ukm1, ls

    def _setup(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(2x, m11) of the cell Delta T at the detunings z, the operands of
        the recurrence of _scaled.

        u = Delta L enters only through the real cos and sin of a = Re u
        and the real exp, cosh and sinh of b = Im u.  The phase factor is
        separable, w exp(iu) = e^(-b) (c + i s) with c + i s = w exp(ia),
        and m11 = (Delta + i/2) / (w exp(iu)).  e^(-b) is taken directly,
        not as cosh b - sinh b, which cancel where |b| is large.  On the
        w = +-1 branch x = w (cos u + sin u / (2 Delta)), the (L/2) sinc u
        of _terms with no removable singularity but Delta = 0, where
        eval_scaled and log10_magnitude take eval(0j); there w cos u =
        c cosh b - i s sinh b and w sin u = s cosh b + i c sinh b.
        Elsewhere x = tr(M) / (2 Delta) = (m11 + (Delta - i/2) w exp(iu)) /
        (2 Delta), non-finite at Delta = 0.

        The factors of a and of b broadcast (_axes): on a tensor grid the
        transcendental calls run on its two axes, O(nx + ny), and the
        products on the grid give the values of the pointwise call bit for
        bit."""
        _, w, le, _, real_w = self._consts
        re, im = _axes(z)
        a, b = re * le, im * le
        ca, sa = np.cos(a), np.sin(a)
        c, s = w.real * ca - w.imag * sa, w.real * sa + w.imag * ca
        em = np.exp(-b)
        pm = _complex(em * c, em * s)
        m11 = (z + 0.5j) / pm
        if real_w:
            ch, sh = np.cosh(b), np.sinh(b)
            x2 = _complex((2.0 * c) * ch, (-2.0 * s) * sh) + _complex(s * ch, c * sh) / z
        else:
            x2 = (m11 + (z - 0.5j) * pm) / z
        return x2, m11


def _axes(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re z, Im z) as operands that broadcast to the shape of z: the first
    row's real parts and the first column's imaginary parts where z is a
    2-D tensor grid, whose rows all hold the same real parts and whose
    columns all hold the same imaginary parts, bit for bit; the full parts
    otherwise."""
    if z.ndim == 2 and z.size:
        re, im = z[:1].real, z[:, :1].imag
        if np.array_equal(_complex(re, im).view(np.uint64), np.ascontiguousarray(z).view(np.uint64)):
            return re, im
    return z.real, z.imag


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im, broadcast, without complex arithmetic."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


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

    The auxiliary angle lam is the principal inverse cosine of
    cos(pL) + sin(pL)/(2p), and res_b is the defect of
    (p + i/2) sin(lam N) - exp(ipL) p sin(lam (N-1)) = 0.  res_b is odd in
    lam, so the other sign of lam has the same |res_b|.  Where the
    arithmetic overflows (from |Im pL| above about 710) both defects are
    _INF and lam is nan.
    """
    if params.mode != MODE_SR:
        raise ContractViolationError("the closed-form pole system is stated under the superradiant condition")
    p = complex(p)
    if p == 0:
        raise SingularDetuningError("closed-form residual is singular at p = 0")
    n = params.n_qubits
    sep = params.separation
    try:
        rhs = cmath.cos(p * sep) + cmath.sin(p * sep) / (2.0 * p)
        lam = cmath.acos(rhs)
        res_b = (p + 0.5j) * cmath.sin(lam * n) - cmath.exp(1j * p * sep) * p * cmath.sin(lam * (n - 1))
    except OverflowError:
        return ClosedFormResidual(res_a=_INF, res_b=_INF, lam=complex(math.nan, math.nan))
    return ClosedFormResidual(res_a=cmath.cos(lam) - rhs, res_b=res_b, lam=lam)
