"""Reference computations for the benchmark, written apart from ssrchain.

Nothing here imports ssrchain.  The characteristic function is rebuilt from
the physics: one unit cell (a qubit, then a propagation segment of length L)
has the transfer matrix T = Q P with

    Delta Q = [[Delta + i/2, i/2], [-i/2, Delta - i/2]],   P = diag(1/p, p),

where p = exp(ikL) is -exp(i Delta L) under the superradiant condition
Omega L = pi ("sr"), exp(i (Omega + Delta) L) in "general" mode and the
constant exp(i Omega L) in "markovian" mode.  f(Delta) = ((Delta T)^N)_11 is
the first entry of the row vector (1, 0) carried through N explicit cells,
never a Chebyshev identity or a matrix power by squaring.  Decay poles are
the zeros of f; a pole Delta has the complex rate Gamma = 2i Delta.

Run this file to execute the oracle's own self-tests:

    python3 bench/oracle.py
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30
SR = "sr"
GENERAL = "general"
MARKOVIAN = "markovian"


def _phase(delta, sep, mode, omega, exp):
    if mode == SR:
        return -exp(1j * delta * sep)
    if mode == GENERAL:
        return exp(1j * (omega + delta) * sep)
    if mode == MARKOVIAN:
        return exp(1j * omega * sep + 0 * delta)  # 0 * delta: same shape as delta
    raise ValueError(f"unknown mode {mode!r}")


def _cell(delta, sep, mode, omega, exp):
    """Entries (m11, m12, m21, m22) of Delta * T for one unit cell."""
    p = _phase(delta, sep, mode, omega, exp)
    ip = 1 / p
    return (delta + 0.5j) * ip, 0.5j * p, -0.5j * ip, (delta - 0.5j) * p


# -- f in numpy: many points at once, magnitude kept as a base-10 exponent --


def f_np(deltas, n, sep, mode, omega=50.0):
    """(mantissa, log10 scale) with f = mantissa * 10**scale, elementwise.

    The row vector is renormalised after every cell, so neither overflow
    nor underflow can occur for any N.
    """
    z = np.asarray(deltas, dtype=complex)
    m11, m12, m21, m22 = _cell(z, sep, mode, omega, np.exp)
    a = np.ones_like(z)
    b = np.zeros_like(z)
    scale = np.zeros(z.shape)
    for _ in range(n):
        a, b = a * m11 + b * m21, a * m12 + b * m22
        s = np.maximum(np.abs(a), np.abs(b))
        a, b = a / s, b / s
        scale += np.log10(s)
    return a, scale


def log10_abs_f(deltas, n, sep, mode, omega=50.0):
    a, scale = f_np(deltas, n, sep, mode, omega)
    with np.errstate(divide="ignore"):
        return np.log10(np.abs(a)) + scale


# -- f in mpmath ---------------------------------------------------------


def f_mp(delta, n, sep, mode, omega=50.0):
    """f(Delta) at DPS digits; delta and sep may be mpmath numbers."""
    m11, m12, m21, m22 = _cell(mp.mpc(delta), mp.mpf(sep), mode, mp.mpf(omega), mp.exp)
    a, b = mp.mpc(1), mp.mpc(0)
    for _ in range(n):
        a, b = a * m11 + b * m21, a * m12 + b * m22
    return a


def newton_mp(delta, n, sep, mode, omega=50.0, maxiter=60):
    """Zero of f reached by Newton from delta (central-difference slope)."""
    with mp.workdps(DPS):
        z = mp.mpc(delta)
        for _ in range(maxiter):
            h = mp.mpf("1e-12") * (1 + abs(z))
            fz = f_mp(z, n, sep, mode, omega)
            d = (f_mp(z + h, n, sep, mode, omega) - f_mp(z - h, n, sep, mode, omega)) / (2 * h)
            step = fz / d
            z -= step
            if abs(step) < mp.mpf("1e-22") * (1 + abs(z)):
                return complex(z)
    raise ArithmeticError(f"Newton from {delta} did not converge (N={n}, L={sep}, {mode})")


def fold_mp(n, y0, l0, maxiter=60):
    """The fold f = 0, df/dDelta = 0 of the sr-condition chain, in (Delta, L).

    On the imaginary axis Delta = -iy every cell matrix is i times a real
    matrix, so phi(y, L) = Re(f / i^N) carries all of f and the fold is the
    real 2x2 system phi = 0, dphi/dy = 0, solved by Newton from (y0, l0).
    Returns (Gamma_SSR, L_c) = (2 y, L).
    """
    with mp.workdps(DPS):
        unit = mp.mpc(0, 1) ** n

        def phi(y, l):
            return (f_mp(mp.mpc(0, -y), n, l, SR) / unit).real

        y, l = mp.mpf(y0), mp.mpf(l0)
        for _ in range(maxiter):
            hy, hl = mp.mpf("1e-9") * y, mp.mpf("1e-9") * l
            f0 = phi(y, l)
            fyp, fym = phi(y + hy, l), phi(y - hy, l)
            flp, flm = phi(y, l + hl), phi(y, l - hl)
            fpp, fpm = phi(y + hy, l + hl), phi(y + hy, l - hl)
            fmp, fmm = phi(y - hy, l + hl), phi(y - hy, l - hl)
            g0 = (fyp - fym) / (2 * hy)
            fl = (flp - flm) / (2 * hl)
            gy = (fyp - 2 * f0 + fym) / (hy * hy)
            gl = ((fpp - fmp) - (fpm - fmm)) / (4 * hy * hl)
            det = g0 * gl - fl * gy
            dy = (f0 * gl - fl * g0) / det
            dl = (g0 * g0 - f0 * gy) / det
            y, l = y - dy, l - dl
            if abs(dy) < mp.mpf("1e-20") * y and abs(dl) < mp.mpf("1e-20") * l:
                return float(2 * y), float(l)
    raise ArithmeticError(f"fold Newton did not converge for N={n}")


def ssr_fold(n):
    """The SSR point (Gamma_SSR, L_c) at N >= 2: the closed form at N = 2,
    else the fold Newton seeded from the large-N law."""
    if n == 2:
        return n2_closed_form()
    alpha_c, beta_c, _ = critical()
    return fold_mp(n, alpha_c * n / 2.0, beta_c / n**2)


# -- closed forms --------------------------------------------------------


def n2_closed_form():
    """N = 2: the fold solves L/2 + 1 = ln(2/L) with Gamma = 1 + 2/L."""
    with mp.workdps(DPS):
        l = mp.findroot(lambda x: x / 2 + 1 - mp.log(2 / x), mp.mpf("0.5"))
        return float(1 + 2 / l), float(l)


def critical():
    """(alpha_c, beta_c, tau_c) from 4 tau cosh tau = (tau^2 + 4) sinh tau."""
    with mp.workdps(DPS):
        tau = mp.findroot(lambda t: 4 * t * mp.cosh(t) - (t * t + 4) * mp.sinh(t), mp.mpf("2.4"))
        beta = tau * tau - 4
        return float(4 / beta), float(beta), float(tau)


def g_relative(alpha, beta):
    """|g(alpha, beta)| over the size of its two cancelling terms, in mpmath."""
    with mp.workdps(DPS):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        tau = mp.sqrt(b * (4 + a * a * b)) / 2
        t1 = 2 * a * tau * mp.cosh(tau)
        t2 = (2 + a * a * b) * mp.sinh(tau)
        return float(abs(t1 - t2) / (abs(t1) + abs(t2)))


# -- counting and the Markovian polynomial --------------------------------


def winding_number(re_min, re_max, im_min, im_max, n, sep, mode, omega=50.0):
    """Zeros of f inside the rectangle, from the phase of f on a dense
    boundary.  The sampling doubles until no step turns the phase by more
    than 0.5 rad; a zero on the boundary, where the phase jumps at any
    density, or a non-integer total raises."""
    corners = [complex(re_min, im_min), complex(re_max, im_min),
               complex(re_max, im_max), complex(re_min, im_max)]
    per_edge = 4096
    while True:
        t = np.arange(per_edge) / per_edge
        path = np.concatenate([a + t * (b - a) for a, b in zip(corners, corners[1:] + corners[:1])])
        a, _ = f_np(path, n, sep, mode, omega)
        if not np.all(np.isfinite(a)) or np.min(np.abs(a)) == 0.0:
            raise ArithmeticError("f is zero or not finite on the counting boundary")
        turn = np.angle(np.roll(a, -1) / a)
        if np.max(np.abs(turn)) < 0.5:
            total = float(np.sum(turn)) / (2.0 * math.pi)
            count = round(total)
            if abs(total - count) > 1e-6:
                raise ArithmeticError(f"winding total {total} is not an integer")
            return count
        if per_edge >= 1 << 20:
            raise ArithmeticError("boundary phase does not resolve")
        per_edge *= 2


def markovian_roots(n, sep, omega=50.0):
    """Roots of the degree-N Markovian polynomial f.

    With p constant, Delta T is A + Delta B with constant A and B, so f is
    a polynomial; its coefficients are multiplied out cell by cell in
    mpmath, seeded by companion-matrix roots and polished by mpmath Newton.
    The roots cluster (near 0.35 at N = 50, L = 0.1), so the polish runs at
    twice the usual digits.
    """
    with mp.workdps(2 * DPS):
        p = mp.exp(1j * mp.mpf(omega) * mp.mpf(sep))
        ip = 1 / p
        a0 = [0.5j * ip, 0.5j * p, -0.5j * ip, -0.5j * p]  # constant part
        a1 = [ip, mp.mpc(0), mp.mpc(0), p]  # coefficient of Delta

        def times(poly, c0, c1):  # poly(Delta) * (c0 + c1 Delta), ascending
            out = [mp.mpc(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                out[k] += c * c0
                out[k + 1] += c * c1
            return out

        ra, rb = [mp.mpc(1)], [mp.mpc(0)]
        for _ in range(n):
            na = [x + y for x, y in zip(times(ra, a0[0], a1[0]), times(rb, a0[2], a1[2]))]
            nb = [x + y for x, y in zip(times(ra, a0[1], a1[1]), times(rb, a0[3], a1[3]))]
            ra, rb = na, nb
        coeffs = ra[::-1]  # descending
        roots = []
        for seed in np.roots(np.array([complex(c) for c in coeffs])):
            z = mp.mpc(complex(seed))
            for _ in range(60):
                step = mp.polyval(coeffs, z) / mp.polyval(coeffs, z, derivative=True)[1]
                z -= step
                if abs(step) < mp.mpf("1e-22") * (1 + abs(z)):
                    break
            else:
                raise ArithmeticError(f"Markovian root from {seed} did not converge")
            roots.append(complex(z))
        return roots


# -- self-tests ----------------------------------------------------------


def self_test():
    """Checks of the oracle against exact results; raises AssertionError."""
    # N = 1: the single pole is Gamma = 1 exactly (Delta = -i/2), any L
    for mode, sep in ((SR, 0.7), (GENERAL, 0.3), (MARKOVIAN, 0.3)):
        z = newton_mp(-0.4j, 1, sep, mode)
        assert abs(2j * z - 1) < 1e-20, (mode, z)
    # numpy and mpmath evaluations of f agree
    pts = np.array([0.3 - 1.1j, -2.0 - 0.5j, 1.5 - 3.0j])
    for n, sep, mode in ((7, 0.4, SR), (30, 0.05, GENERAL), (12, 0.2, MARKOVIAN)):
        got = log10_abs_f(pts, n, sep, mode)
        ref = [float(mp.log10(abs(f_mp(complex(z), n, sep, mode)))) for z in pts]
        assert np.max(np.abs(got - ref)) < 1e-10, (n, mode)
    # N = 2: the fold Newton from the large-N seed lands on the closed form
    gamma2, l2 = n2_closed_form()
    alpha_c, beta_c, tau_c = critical()
    gf, lf = fold_mp(2, alpha_c, beta_c / 4.0)
    assert abs(gf - gamma2) < 1e-12 * gamma2 and abs(lf - l2) < 1e-12 * l2, (gf, lf)
    assert abs(gamma2 - 4.591) < 1e-3 and abs(l2 - 0.5569) < 1e-4
    # the critical pair obeys alpha_c beta_c = 4 and lies on g = 0
    assert abs(alpha_c * beta_c - 4.0) < 1e-14 and abs(tau_c - 2.3993572805) < 1e-9
    assert g_relative(alpha_c, beta_c) < 1e-14
    # the boundary count agrees with the Markovian roots inside a box
    roots = markovian_roots(6, 0.3)
    inside = sum(1 for z in roots if -2.0 < z.real < 2.0 and -3.0 < z.imag < -0.05)
    assert winding_number(-2.0, 2.0, -3.0, -0.05, 6, 0.3, MARKOVIAN) == inside > 0
    # the Markovian roots zero f as evaluated cell by cell
    for z in roots:
        assert abs(f_mp(z, 6, 0.3, MARKOVIAN)) < 1e-12, z


if __name__ == "__main__":
    self_test()
    print("oracle self-tests passed")
