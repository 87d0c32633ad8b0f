"""Super-superradiant operating point: extraction, maximization, scaling.

The objective Re Gamma_u(L) rises from the Dicke value N gamma_0, peaks at
the critical separation L_c where the Markovian-like pole collides with the
first exclusively non-Markovian one, and decays beyond.  The maximum is
therefore a fold point: golden-section search (derivative-free, safe at the
branch-point kink) localizes it, and a two-dimensional Newton solve on
(f = 0, df/dDelta = 0) supplies the final digits.

Everything here runs in sr-condition mode, whose mirror symmetry
f(-conj(Delta)) = (-1)^N conj(f(Delta)) pins the colliding pair to the
imaginary axis: below L_c the two poles are roots of the real scalar
Im f(-iy), bracketed by sign changes on a fixed y-grid evaluated in one
vectorized pass and refined by Illinois steps on the scalar f; above L_c the
pair sits at (Delta, -conj(Delta)) and is chased by Newton from
symmetry-broken seeds.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .charfn import CharFn
from .core import MODE_SR, ChainParams
from .errors import BracketError, ContractViolationError, WindowExhaustedError
from .rootfind import (
    Pole,
    SearchWindow,
    _accept_tol,
    _classify,
    _newton,
    coalescent_pair,
    default_window,
    grid_scan_minima,
)

BETA_HAT = 1.76  # prior for the L_c ~ beta/N^2 bracket rule

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SSRResult:
    """Optimized super-superradiant point at fixed qubit number.

    evaluations is the number of scalar f evaluations the solve made: the
    axis refinements, Newton and coalescent-pair steps, validation and the
    fold solve.  The vectorized axis scans are not counted.
    """

    n_qubits: int
    l_critical: float
    gamma_ssr: complex
    coalescence: bool
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


def _sr_params(n_qubits: int, separation: float, sr_index: int = 1) -> ChainParams:
    return ChainParams(n_qubits=n_qubits, separation=separation, mode=MODE_SR, sr_index=sr_index)


class _CountedFn:
    """A deflated CharFn whose scalar evaluations are tallied on its tracker."""

    def __init__(self, charfn: CharFn, tracker: _PoleTracker):
        self.charfn = charfn
        self.tracker = tracker

    def __call__(self, delta: complex) -> complex:
        self.tracker.evals += 1
        return self.charfn.eval(delta)

    def noise_scale(self, delta: complex) -> float:
        return self.charfn.noise_scale(delta)

    def log10_magnitude(self, deltas):
        return self.charfn.log10_magnitude(deltas)


class _PoleTracker:
    """Warm-started finder of the two smallest nonzero poles vs separation.

    evals counts the scalar f evaluations made through fn().
    """

    def __init__(self, n_qubits: int, sr_index: int = 1, depth: float = 2.5):
        self.n = n_qubits
        self.sr_index = sr_index
        base = default_window(n_qubits)
        self.window = (
            base
            if depth <= 2.5
            else SearchWindow(base.re_min, base.re_max, -depth * n_qubits, base.im_max)
        )
        self.warm_complex: complex | None = None
        self.warm_axis: float | None = None
        self.evals = 0
        n = float(n_qubits)
        lo, knee, hi = 1e-4 * max(1.0, n), 0.35 * n, -self.window.im_min
        m, rest = 200, 400
        grid = [lo * (knee / lo) ** (i / (m - 1)) for i in range(m)]
        grid += [knee + (hi - knee) * i / rest for i in range(1, rest + 1)]
        self._ygrid = np.array(grid)

    def fn(self, separation: float) -> _CountedFn:
        charfn = CharFn(_sr_params(self.n, separation, self.sr_index), deflation_order=self.n - 1)
        return _CountedFn(charfn, self)

    def axis_roots(self, fn: _CountedFn) -> list[float]:
        """Roots of Im f(-iy) above y = 1e-6, one per sign-change cell of
        the y-grid.  Cells touching a point where f is not finite hold no
        data and report nothing."""
        g = self._ygrid
        h, _ = fn.charfn._scaled_sr(-1j * g)
        im = h.imag
        neg = im < 0.0
        data = np.isfinite(h)
        cells = np.flatnonzero(data[:-1] & data[1:] & ((im[:-1] == 0.0) | (neg[:-1] != neg[1:])))
        roots = []
        for i in cells:
            y = self._refine_axis_root(fn, float(g[i]), float(g[i + 1]))
            if y is not None and y > 1e-6:
                roots.append(y)
        return roots

    @staticmethod
    def _refine_axis_root(fn: _CountedFn, lo: float, hi: float) -> float | None:
        """Illinois (modified regula falsi) on Im f(-iy) inside [lo, hi],
        keeping a sign-change bracket; None where the scalar f is not finite
        or does not change sign over the cell."""
        flo, fhi = fn(-1j * lo), fn(-1j * hi)
        if not (cmath.isfinite(flo) and cmath.isfinite(fhi)):
            return None
        flo, fhi = flo.imag, fhi.imag
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if (flo < 0.0) == (fhi < 0.0):
            return None
        kept = 0  # +1 when lo survived the last step, -1 when hi did
        for _ in range(100):
            if hi - lo < 1e-15 * (1.0 + hi):
                break
            c = hi - fhi * (hi - lo) / (fhi - flo)
            if not lo < c < hi:
                c = 0.5 * (lo + hi)
            fc = fn(-1j * c)
            if not cmath.isfinite(fc):
                return None
            fc = fc.imag
            if fc == 0.0:
                return c
            if (fc < 0.0) == (fhi < 0.0):
                hi, fhi = c, fc
                if kept == 1:
                    flo *= 0.5
                kept = 1
            else:
                lo, flo = c, fc
                if kept == -1:
                    fhi *= 0.5
                kept = -1
        return 0.5 * (lo + hi)

    def _valid(self, fn: _CountedFn, z: complex) -> bool:
        if not (
            z.imag < -1e-6
            and abs(z.real) <= 1.05 * self.window.re_max
            and -z.imag <= 1.05 * -self.window.im_min
        ):
            return False
        fz, tol = fn(z), _accept_tol(fn, z)
        return cmath.isfinite(fz) and math.isfinite(tol) and abs(fz) <= 20.0 * tol

    def _is_complex(self, z: complex) -> bool:
        return abs(z.real) > 1e-7 * (1.0 + abs(z))

    def pair(self, separation: float) -> list[complex]:
        """Up to two smallest-|Delta| nonzero poles, |Delta|-sorted; ties
        put the Im Gamma >= 0 member first."""
        fn = self.fn(separation)
        axis = self.axis_roots(fn)
        cands: list[complex] = [-1j * y for y in axis[:3]]
        # chase the conjugate pair by Newton from the warm estimate
        if len(axis) < 2 and self.warm_complex is not None:
            z, _, ok = _newton(fn, self.warm_complex, _accept_tol(fn, self.warm_complex))
            if ok and self._valid(fn, z) and self._is_complex(z):
                cands.append(z)
        # near a fold the pair hides below the axis grid (or just off it);
        # the local quadratic model resolves both members at once
        near_fold = bool(axis) and (
            len(axis) == 1 or axis[1] - axis[0] < 4.0 * self._cell(axis[0])
        )
        if not cands or near_fold:
            center = None
            if axis:
                center = -1j * axis[0]
            elif self.warm_complex is not None:
                center = self.warm_complex
            elif self.warm_axis is not None:
                center = -1j * self.warm_axis
            if center is not None:
                r1, r2 = coalescent_pair(fn, center, scale=abs(center) + 1.0)
                for z in (r1, r2):
                    if self._valid(fn, z):
                        cands.append(z)
        if not cands:
            # cold start: brute local minima of the magnitude map; seeds that
            # stall in a flat valley get the coalescent-pair treatment
            for seed in grid_scan_minima(fn.log10_magnitude, self.window, resolution=160):
                z, _, ok = _newton(fn, seed, _accept_tol(fn, seed))
                if ok and self._valid(fn, z):
                    cands.append(z)
                elif not ok:
                    for z in coalescent_pair(fn, seed, scale=abs(seed) + 1.0):
                        if self._valid(fn, z):
                            cands.append(z)
        # complex roots come with their mirror partner -conj(z)
        for z in list(cands):
            if self._is_complex(z):
                m = -z.conjugate()
                if self._valid(fn, m):
                    cands.append(m)
        # merge near-duplicates, keeping the best-converged representative
        uniq: list[complex] = []
        for z in sorted(cands, key=lambda c: (abs(c), -(2j * c).imag)):
            for i, u in enumerate(uniq):
                if abs(z - u) <= 1e-7 * (1.0 + abs(u)):
                    if abs(fn(z)) < abs(fn(u)):
                        uniq[i] = z
                    break
            else:
                uniq.append(z)
        if len(uniq) == 1:
            # a coalescing pair merges below the dedupe threshold; report both
            # members of the local quadratic model when they validate
            members = [
                z
                for z in coalescent_pair(fn, uniq[0], scale=abs(uniq[0]) + 1.0)
                if self._valid(fn, z) and abs(z - uniq[0]) < 1e-2 * (1.0 + abs(uniq[0]))
            ]
            if len(members) == 2:
                pair = sorted(members, key=lambda c: (abs(c), -(2j * c).imag))
                if self._is_complex(pair[0]):
                    self.warm_complex = pair[0]
                else:
                    self.warm_axis = -pair[0].imag
                return pair
        pair = uniq[:2]
        if pair:
            first = pair[0]
            if self._is_complex(first):
                self.warm_complex = first
            else:
                self.warm_axis = -first.imag
        return pair

    def _cell(self, y: float) -> float:
        """Width of the grid cell holding y (the lower one at a grid point),
        or of the last cell when y is off the grid."""
        g = self._ygrid
        i = int(np.searchsorted(g, y))
        if y < g[0] or i >= len(g):
            i = len(g) - 1
        i = max(i, 1)
        return float(g[i] - g[i - 1])

    def overflow_note(self, separation: float) -> str:
        """The axis grid points where f is not finite, as a clause for an
        error message; empty when f is finite on the whole grid."""
        g = self._ygrid
        bad = ~np.isfinite(self.fn(separation).charfn.eval_many(-1j * g))
        if not bad.any():
            return ""
        finite = np.flatnonzero(~bad)
        top = finite[-1] + 1 if finite.size else 0
        where = (
            f"every y >= {g[top]:.4g}"
            if top < g.size
            else f"the lowest at y = {g[np.argmax(bad)]:.4g}"
        )
        return f"; f is not finite at {int(bad.sum())} of {g.size} axis grid points ({where})"

    def rate(self, separation: float) -> float:
        pair = self.pair(separation)
        if not pair:
            raise WindowExhaustedError(
                f"no nonzero pole inside {self.window} at separation {separation:.6g}"
                + self.overflow_note(separation)
            )
        return -2.0 * pair[0].imag


def superradiant_pole(params: ChainParams) -> Pole:
    """The nonzero decay pole closest to the origin, Gamma_u.

    Requires sr-condition mode (the origin zeros are deflated by known
    multiplicity there).  Ties inside a conjugate pair report the member
    with Im Gamma >= 0.
    """
    if params.mode != MODE_SR:
        raise ContractViolationError("superradiant_pole requires sr-condition mode")
    tracker = _PoleTracker(params.n_qubits, params.sr_index)
    pair = tracker.pair(params.separation)
    if not pair:
        raise WindowExhaustedError(
            f"no nonzero pole in the default window for N={params.n_qubits}, L={params.separation}"
            + tracker.overflow_note(params.separation)
        )
    z = pair[0]
    fn = tracker.fn(params.separation)
    return Pole(delta=z, residual=abs(fn(z)), classification=_classify(params, z))


def _default_bracket(n_qubits: int) -> tuple[float, float]:
    if n_qubits >= 4:
        return 0.2 * BETA_HAT / n_qubits**2, 3.0 * BETA_HAT / n_qubits**2
    return 0.05, 2.0


def _golden_max(fn, a: float, b: float, abstol: float):
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fn(x1), fn(x2)
    evals = 2
    while (b - a) > abstol and evals < 300:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fn(x1)
        evals += 1
    if f1 >= f2:
        return x1, f1, a, b, evals
    return x2, f2, a, b, evals


def _fold_solve(fn_at, y0: float, l0: float, maxiter: int = 60):
    """Simultaneous Newton on (f(-iy, L), df/dy(-iy, L)) = (0, 0).

    On the imaginary axis f is i times a real function, so the pole-collision
    condition is a real 2x2 system in (y, L); its root is the fold where the
    colliding pair coalesces.
    """

    def phi(y, l):
        return fn_at(l)(-1j * y).imag

    y, l = y0, l0
    best = (float("inf"), y, l, 0)
    it = 0
    for it in range(1, maxiter + 1):
        s1 = 6e-6 * (abs(y) + 1.0)
        s2 = 1.2e-4 * (abs(y) + 1.0)
        t1 = 1e-12 + 6e-6 * abs(l)
        t2 = 1e-12 + 1.2e-4 * abs(l)
        f0 = phi(y, l)
        fy = (phi(y + s1, l) - phi(y - s1, l)) / (2.0 * s1)
        fl = (phi(y, l + t1) - phi(y, l - t1)) / (2.0 * t1)
        g0 = (phi(y + s2, l) - phi(y - s2, l)) / (2.0 * s2)
        gy = (phi(y + s2, l) - 2.0 * f0 + phi(y - s2, l)) / (s2 * s2)
        gl = (
            (phi(y + s2, l + t2) - phi(y - s2, l + t2))
            - (phi(y + s2, l - t2) - phi(y - s2, l - t2))
        ) / (4.0 * s2 * t2)
        det = fy * gl - fl * gy
        if det == 0 or not math.isfinite(det):
            break
        dy = (f0 * gl - fl * g0) / det
        dl = (fy * g0 - f0 * gy) / det
        cap_y = 0.25 * (abs(y) + 1.0)
        cap_l = 0.25 * (abs(l) + 1e-9)
        dy = max(-cap_y, min(cap_y, dy))
        dl = max(-cap_l, min(cap_l, dl))
        y, l = y - dy, l - dl
        score = abs(f0) / (abs(y) + 1.0) + abs(g0)
        if score < best[0]:
            best = (score, y, l, it)
        if abs(dy) < 1e-13 * (abs(y) + 1.0) and abs(dl) < 1e-13 * (abs(l) + 1e-9):
            break
    _, y, l, _ = best
    return y, l, it


def maximize_over_separation(n_qubits: int, bracket: tuple[float, float] | None = None) -> SSRResult:
    """Maximize Re Gamma_u over the separation: the SSR point (Gamma_SSR, L_c).

    A coarse log-spaced scan certifies an interior maximum (raising
    BracketError otherwise), golden-section search shrinks onto the fold
    kink, and the two-dimensional coalescence solve is accepted when it
    lands next to the maximizer without losing objective value; the
    coalescence flag records whether that polish succeeded.
    """
    if not isinstance(n_qubits, int) or n_qubits < 2:
        raise ContractViolationError("the SSR point needs at least 2 qubits")
    a, b = bracket if bracket is not None else _default_bracket(n_qubits)
    if not (0.0 < a < b):
        raise ContractViolationError(f"bad bracket ({a}, {b})")
    width = b - a
    tracker = _PoleTracker(n_qubits)

    nscan = 16
    xs = [a * (b / a) ** (i / (nscan - 1)) for i in range(nscan)]
    vs = [tracker.rate(x) for x in xs]
    ibest = max(range(nscan), key=lambda i: vs[i])
    if ibest in (0, nscan - 1):
        raise BracketError(
            f"Re Gamma_u has no interior maximum over ({a:.6g}, {b:.6g}); "
            "scan the rate over a wider range and re-bracket"
        )
    l_gs, rate_gs, lo_fin, hi_fin, gs_evals = _golden_max(
        tracker.rate, xs[ibest - 1], xs[ibest + 1], abstol=1e-10 * width
    )

    y_fold, l_fold, _ = _fold_solve(tracker.fn, 0.5 * rate_gs, l_gs)
    fin_w = max(hi_fin - lo_fin, 1e-12)
    near_gs = abs(l_fold - l_gs) <= max(10.0 * fin_w, 1e-6 * width)
    improves = 2.0 * y_fold >= rate_gs - 1e-6 * (1.0 + rate_gs)
    in_bracket = a < l_fold < b
    if near_gs and improves and in_bracket and math.isfinite(y_fold):
        fn = tracker.fn(l_fold)
        # the midpoint of the coalescing pair is far better conditioned in y
        # than the finite-difference fold Jacobian
        r1, r2 = coalescent_pair(fn, -1j * y_fold, scale=y_fold + 1.0)
        y_mid = -0.5 * (r1 + r2).imag
        if abs(y_mid - y_fold) < 1e-3 * (y_fold + 1.0):
            y_fold = y_mid
        residual = abs(fn(-1j * y_fold))
        return SSRResult(
            n_qubits=n_qubits,
            l_critical=l_fold,
            gamma_ssr=complex(2.0 * y_fold, 0.0),
            coalescence=True,
            evaluations=tracker.evals,
            residual=residual,
        )
    pair = tracker.pair(l_gs)
    z = pair[0]
    residual = abs(tracker.fn(l_gs)(z))
    return SSRResult(
        n_qubits=n_qubits,
        l_critical=l_gs,
        gamma_ssr=2j * z,
        coalescence=False,
        evaluations=tracker.evals,
        residual=residual,
    )


def degenerate_pair_probe(
    n_qubits: int, l_values: list[float], sr_index: int = 1
) -> list[tuple[Pole, Pole]]:
    """The two smallest nonzero poles at each separation.

    Below L_c both members carry Im Gamma = 0 and distinct rates; above L_c
    they form a conjugate pair (equal Re Gamma, opposite Im Gamma).
    """
    out = []
    for sep in l_values:
        # the second pole can sit well below the default window near L_c/2
        tracker = _PoleTracker(n_qubits, sr_index, depth=7.0)
        pair = tracker.pair(sep)
        if len(pair) < 2:
            raise WindowExhaustedError(
                f"fewer than two nonzero poles inside {tracker.window} at L={sep:.6g}"
            )
        fn = tracker.fn(sep)
        params = _sr_params(n_qubits, sep, sr_index)
        p = tuple(
            Pole(delta=z, residual=abs(fn(z)), classification=_classify(params, z))
            for z in pair
        )
        out.append(p)
    return out


def scaling_sweep(n_list: list[int]) -> list[SSRResult]:
    """maximize_over_separation for each N, warm-starting brackets by the
    1/N^2 rule from the previous result; failures are warned and skipped."""
    if list(n_list) != sorted(n_list):
        raise ContractViolationError("n_list must be sorted ascending")
    for n in n_list:
        if not isinstance(n, int) or n < 2:
            raise ContractViolationError(f"sweep entries need N >= 2, got {n!r}")
    results: list[SSRResult] = []
    beta_hat = None
    for n in n_list:
        bracket = None
        if beta_hat is not None and n >= 4:
            bracket = (0.2 * beta_hat / n**2, 3.0 * beta_hat / n**2)
        try:
            res = maximize_over_separation(n, bracket)
        except Exception as err:  # noqa: BLE001 - sweep must survive per-N failures
            warnings.warn(f"sweep entry N={n} failed: {err}", stacklevel=2)
            continue
        results.append(res)
        beta_hat = res.l_critical * n * n
    return results


def fit_scaling(results: list[SSRResult], n_min_fit: int = 20) -> ScalingFit:
    """Fit Re Gamma_SSR = alpha N and L_c = beta N^-2 over N >= n_min_fit.

    Deviations |fit - data| / |data| are evaluated for every supplied point,
    including those below the fit threshold.
    """
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
