"""Super-superradiant operating point: extraction, maximization, scaling.

The objective Re Gamma_u(L) rises from the Dicke value N gamma_0, peaks at
the critical separation L_c where the Markovian-like pole collides with the
first exclusively non-Markovian one, and decays beyond.  The maximum is
therefore a fold point.  A coarse scan of the rate over the bracket
certifies an interior maximum, and Newton on the regular fold system
(f = 0, df/dDelta = 0), with the exact Jacobian from
CharFn.eval_derivatives, solves for it from the scan's best point.
Golden-section search (derivative-free, safe at the branch-point kink) is
only the fallback when that Newton is rejected.

Everything here runs in sr-condition mode, whose mirror symmetry
f(-conj(Delta)) = (-1)^N conj(f(Delta)) pins the colliding pair to the
imaginary axis: below L_c the two poles are roots of the real scalar
Im f(-iy), bracketed by sign changes on a fixed y-grid (its closed form,
evaluated at every scan separation in one vectorized pass) and refined by
Illinois steps on the scalar f; above L_c the pair sits at (Delta,
-conj(Delta)) and is chased by Newton from symmetry-broken seeds.
"""

from __future__ import annotations

import cmath
import math
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
    _fn_at_separation,
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

    coalescence is True when the fold Newton converged and was accepted:
    the point is then the fold itself, where the two poles coalesce.  It
    is False when the maximizer fell back to golden-section search; the
    point is then the best separation found and its leading pole.

    evaluations is the number of scalar f evaluations the solve made: the
    axis-root refinements, Newton and coalescent-pair steps, validation,
    and one per CharFn.eval_derivatives call of the fold Newton.  The
    closed-form axis scans (_axis_im: one pass for the whole separation
    scan, one per golden-section point) are not counted.  A lone axis root is
    not probed for a coalescing partner, so a solve takes about 250 to 310
    evaluations from N = 2 to N = 10^4.
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


def _axis_im(n: int, sr_index: int, separations, y: np.ndarray) -> np.ndarray:
    """Im f(-iy) of the deflated sr-branch f times a positive factor per
    point (rows: separations, columns: y > 0); NaN where e^t = |exp(i Delta
    L)| overflows (t = yL), as f does.  On Delta = -iy, x = w (1 + g) with
    g = 2 sinh^2(t/2) + sinh(t) / (2y) >= 0, and U_k(w cosh phi) = w^k
    sinh((k+1) phi) / sinh phi at phi = 2 asinh(sqrt(g/2)); so Im f is
    w^N phi e^((N-1) phi) / (2 sinh phi) times (1/2 - y) e^(phi - t) s_N +
    y s_(N-1), s_k = -expm1(-2k phi) / phi (2k at phi = 0, L = 0)."""
    sep = np.asarray(separations, dtype=float)[:, None]
    t = sep * y
    with np.errstate(over="ignore", invalid="ignore"):
        phi = 2.0 * np.arcsinh(np.sqrt(np.sinh(0.5 * t) ** 2 + np.sinh(t) / (4.0 * y)))
        s_n, s_m = (
            np.divide(-np.expm1(-2.0 * k * phi), phi, out=np.full_like(phi, 2.0 * k), where=phi > 0.0)
            for k in (n, n - 1)
        )
        im = (0.5 - y) * np.exp(phi - t) * s_n + y * s_m
        im[~np.isfinite(np.exp(t))] = np.nan
    # w^N = -1 for odd N and sr_index, except at L = 0, where w = 1
    return np.where((sep > 0.0) & (n * sr_index % 2 == 1), -im, im)


class _CountedFn:
    """A deflated CharFn whose scalar evaluations are tallied on its tracker."""

    def __init__(self, charfn: CharFn, tracker: _PoleTracker):
        self.charfn = charfn
        self.tracker = tracker

    def __call__(self, delta: complex) -> complex:
        self.tracker.evals += 1
        return self.charfn.eval(delta)

    def eval_derivatives(self, delta: complex):
        self.tracker.evals += 1
        return self.charfn.eval_derivatives(delta)

    def noise_scale(self, delta: complex) -> float:
        return self.charfn.noise_scale(delta)

    def log10_magnitude(self, deltas):
        return self.charfn.log10_magnitude(deltas)


class _PoleTracker:
    """Warm-started finder of the two smallest nonzero poles vs separation.

    evals counts the scalar f evaluations made through fn().
    """

    def __init__(self, n_qubits: int, sr_index: int = 1, depth: float = 2.5):
        # the configuration at every separation; fn() replaces the separation
        self.params = ChainParams(n_qubits, 0.0, mode=MODE_SR, sr_index=sr_index)
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
        return _CountedFn(_fn_at_separation(self.params, separation), self)

    def axis_roots(self, fn: _CountedFn, row: np.ndarray | None = None) -> list[float]:
        """Roots of Im f(-iy) above y = 1e-6, one per sign-change cell of
        the y-grid, each refined on the scalar f.  Cells touching a point
        where f is not finite hold no data and report nothing.  row is the
        _axis_im row of f on the grid when rates() has computed it already."""
        g = self._ygrid
        p = fn.charfn.params
        im = _axis_im(p.n_qubits, p.sr_index, [p.separation], g)[0] if row is None else row
        neg = im < 0.0
        data = np.isfinite(im)
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

    def pair(self, separation: float, row: np.ndarray | None = None) -> list[complex]:
        """Up to two smallest-|Delta| nonzero poles, |Delta|-sorted; ties
        put the Im Gamma >= 0 member first.

        row is this separation's axis scan from rates(), or None to scan
        here.  The coalescent-pair probe runs only where a fold can hide:
        when two axis roots lie within four grid cells of each other, or
        when neither the axis nor the warm Newton gave a candidate.  A lone
        axis root is a sign change of Im f(-iy) and so a simple root; a
        pair merged inside one cell shows no sign change.  Such a root is
        reported without a probe.
        """
        fn = self.fn(separation)
        axis = self.axis_roots(fn, row)
        cands: list[complex] = [-1j * y for y in axis[:3]]
        # chase the conjugate pair by Newton from the warm estimate
        if len(axis) < 2 and self.warm_complex is not None:
            z, _, ok = _newton(fn, self.warm_complex, _accept_tol(fn, self.warm_complex))
            if ok and self._valid(fn, z) and self._is_complex(z):
                cands.append(z)
        # near a fold the pair sits within a few grid cells (or merges off
        # the axis); the local quadratic model resolves both members at once
        near_fold = len(axis) >= 2 and axis[1] - axis[0] < 4.0 * self._cell(axis[0])
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
        # a lone sign-change root is simple: there is no partner to resolve
        lone = len(cands) == 1 and len(axis) == 1
        if len(uniq) == 1 and not lone:
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
        """The axis grid points where the scalar f is not finite, as a
        clause for an error message; empty when f is finite on the whole grid."""
        g = self._ygrid
        bad = ~np.isfinite(list(map(self.fn(separation).charfn, (-1j * g).tolist())))
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

    def rates(self, separations: list[float]) -> list[float]:
        """rate at each separation in turn, the axis scans of all of them
        done in one _axis_im call."""
        rows = _axis_im(self.params.n_qubits, self.params.sr_index, separations, self._ygrid)
        return [self.rate(x, row) for x, row in zip(separations, rows)]

    def rate(self, separation: float, row: np.ndarray | None = None) -> float:
        pair = self.pair(separation, row)
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
    """The separation bracket around the law L_c ~ BETA_HAT / N^2."""
    if n_qubits >= 4:
        return 0.2 * BETA_HAT / n_qubits**2, 3.0 * BETA_HAT / n_qubits**2
    return 0.05, 2.0


def _golden_max(fn, a: float, b: float, abstol: float) -> tuple[float, float]:
    """Golden-section search for the maximum of fn over (a, b): (x, fn(x))."""
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
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _fold_newton(fn_at, y: float, l: float, maxiter: int = 30) -> tuple[float, float, bool]:
    """Newton on the regular fold system (phi, phi_y) = (0, 0) in (y, L),
    with phi(y, L) = Im f(-iy, L) and the exact Jacobian
    [[phi_y, phi_L], [phi_yy, phi_yL]] (Moore & Spence, SIAM J. Numer.
    Anal. 17, 1980).

    On the imaginary axis f is i times a real function, so the fold where
    the colliding pair coalesces is a real 2x2 system, regular at the fold.
    Returns (y, L, converged): converged when the relative step falls to
    1e-12, or, once below 1e-9, stops halving (the rounding floor of f
    rises with N).
    """
    prev = math.inf
    for _ in range(maxiter):
        f, f_d, f_l, f_dd, f_dl = fn_at(l).eval_derivatives(-1j * y)
        # d/dy = -i d/dDelta along Delta = -iy
        phi, phi_y, phi_l = f.imag, -f_d.real, f_l.imag
        phi_yy, phi_yl = -f_dd.imag, -f_dl.real
        det = phi_y * phi_yl - phi_l * phi_yy
        if not (det != 0.0 and math.isfinite(det)):
            return y, l, False
        dy = (phi * phi_yl - phi_l * phi_y) / det
        dl = (phi_y * phi_y - phi * phi_yy) / det
        y, l = y - dy, l - dl
        if not (0.0 < y < math.inf and 0.0 < l < math.inf):  # also catches NaN
            return y, l, False
        step = max(abs(dy) / y, abs(dl) / l)
        if step <= 1e-12 or 0.5 * prev < step <= 1e-9:
            return y, l, True
        prev = step
    return y, l, False


def maximize_over_separation(n_qubits: int, bracket: tuple[float, float] | None = None) -> SSRResult:
    """Maximize Re Gamma_u over the separation: the SSR point (Gamma_SSR, L_c).

    A coarse log-spaced scan of 16 separations certifies an interior
    maximum (raising BracketError otherwise); its axis scans of Im f(-iy)
    are one closed-form _axis_im call (_PoleTracker.rates).  The bracket needs
    0 < a < b with a, b and b / a finite (ContractViolationError
    otherwise).  Newton on the fold system, seeded from the scan's best
    point, is accepted when it converges inside the scan cells around that
    point, does not lose objective value against the scan, and the
    coalescing pair resolves at the fold; the result then carries
    coalescence=True.  Otherwise golden-section search over those cells
    gives the answer, with coalescence=False.
    """
    if not isinstance(n_qubits, int) or n_qubits < 2:
        raise ContractViolationError("the SSR point needs at least 2 qubits")
    a, b = bracket if bracket is not None else _default_bracket(n_qubits)
    # the log-spaced scan needs a finite ratio b / a as well as finite ends
    if not (0.0 < a < b < math.inf and b / a < math.inf):
        raise ContractViolationError(
            f"bad bracket ({a}, {b}): need 0 < lo < hi with lo, hi and hi / lo finite"
        )
    tracker = _PoleTracker(n_qubits)

    nscan = 16
    xs = [a * (b / a) ** (i / (nscan - 1)) for i in range(nscan)]
    vs = tracker.rates(xs)
    ibest = max(range(nscan), key=lambda i: vs[i])
    if ibest in (0, nscan - 1):
        raise BracketError(
            f"Re Gamma_u has no interior maximum over ({a:.6g}, {b:.6g}); "
            "scan the rate over a wider range and re-bracket"
        )
    top = vs[ibest]
    y, l_fold, converged = _fold_newton(tracker.fn, 0.5 * top, xs[ibest])
    if converged and xs[ibest - 1] < l_fold < xs[ibest + 1] and 2.0 * y >= top - 1e-6 * (1.0 + top):
        fn = tracker.fn(l_fold)
        fold = -1j * y
        pair = coalescent_pair(fn, fold, scale=y + 1.0)
        if all(abs(z - fold) <= 1e-3 * (1.0 + y) for z in pair):
            residual = abs(fn(fold))
            return SSRResult(
                n_qubits=n_qubits,
                l_critical=l_fold,
                gamma_ssr=complex(2.0 * y, 0.0),
                coalescence=True,
                evaluations=tracker.evals,
                residual=residual,
            )
    l_gs, _ = _golden_max(tracker.rate, xs[ibest - 1], xs[ibest + 1], abstol=1e-10 * (b - a))
    z = tracker.pair(l_gs)[0]
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
        p = tuple(
            Pole(delta=z, residual=abs(fn(z)), classification=_classify(fn.charfn.params, z))
            for z in pair
        )
        out.append(p)
    return out


def _sweep_entry(n_qubits: int) -> tuple[SSRResult | None, str]:
    try:
        return maximize_over_separation(n_qubits), ""
    except Exception as err:  # noqa: BLE001 - reported per entry
        return None, f"{type(err).__name__}: {err}"


def scaling_sweep(n_list: list[int], jobs: int = 1) -> list[tuple[SSRResult | None, str]]:
    """maximize_over_separation(n) with the default bracket for each N.

    Returns one entry per N, in input order: (SSRResult, "") on success or
    (None, "<ErrorType>: <message>") when that N fails; the sweep goes on
    past a failure and warns about none.  jobs > 1 solves the N in that
    many worker processes, with the same entries as jobs = 1; the pool pays
    only on large-N sweeps.
    """
    if list(n_list) != sorted(n_list):
        raise ContractViolationError("n_list must be sorted ascending")
    for n in n_list:
        if not isinstance(n, int) or n < 2:
            raise ContractViolationError(f"sweep entries need N >= 2, got {n!r}")
    if jobs < 1:
        raise ContractViolationError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [_sweep_entry(n) for n in n_list]
    # loaded only here: it pulls in multiprocessing on import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_entry, n_list))


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
