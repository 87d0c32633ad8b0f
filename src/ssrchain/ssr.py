"""Super-superradiant operating point: extraction, maximization, scaling.

The objective Re Gamma_u(L) rises from the Dicke value N gamma_0, peaks at
the critical separation L_c where the Markovian-like pole collides with the
first exclusively non-Markovian one, and decays beyond.  The maximum is
therefore a fold point: Newton on the regular fold system (psi = 0,
dpsi/dy = 0) of the closed-form factor psi of Im f(-iy), with its exact
Jacobian from one O(1) jet pass (_axis_jet), solves for it from the
large-N laws Gamma_SSR ~ alpha_c N and L_c ~ beta_c / N^2.

Everything here runs in sr-condition mode, where the deflated f that is
searched has the mirror symmetry f(-conj(Delta)) = -conj(f(Delta)), bit for
bit, which pins the colliding pair to the imaginary axis: below L_c the two
poles are roots of Im f(-iy), bracketed by sign changes on the y-grid and
refined by Newton on the same closed-form psi; above L_c the pair sits at
(Delta, -conj(Delta)) and is found by Newton from the minima of a magnitude
map.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .asymptotic import critical_pair
from .charfn import CharFn
from .core import _EPS, MODE_SR, ChainParams
from .errors import BracketError, ContractViolationError, WindowExhaustedError
from .rootfind import (
    Pole,
    SearchWindow,
    _TableMemo,
    _accept_tol,
    _classify,
    _fn_at_separation,
    _newton,
    coalescent_pair,
    default_window,
    grid_scan_minima,
)
from .scaling import ScalingFit, SSRResult, fit_scaling  # noqa: F401 - re-exported

# the large-N laws Gamma_SSR ~ alpha_c N and L_c ~ beta_c / N^2 seed the fold Newton
_CRIT = critical_pair()


def _axis_im(n: int, sr_index: int, separation: float, y: np.ndarray) -> np.ndarray:
    """Im f(-iy) of the deflated sr-branch f times a positive factor at each
    y > 0; NaN where e^t = |exp(i Delta L)| overflows (t = yL), as f does.
    On Delta = -iy, x = w (1 + g) with g = 2 sinh^2(t/2) + sinh(t) / (2y)
    >= 0, and U_k(w cosh phi) = w^k sinh((k+1) phi) / sinh phi at phi =
    2 asinh(sqrt(g/2)); so Im f is w^N phi e^((N-1) phi) / (2 sinh phi)
    times (1/2 - y) e^(phi - t) s_N + y s_(N-1), s_k = -expm1(-2k phi) /
    phi (2k at phi = 0, L = 0)."""
    t = separation * y
    with np.errstate(over="ignore", invalid="ignore"):
        phi = 2.0 * np.arcsinh(np.sqrt(np.sinh(0.5 * t) ** 2 + np.sinh(t) / (4.0 * y)))
        s_n, s_m = (
            np.divide(-np.expm1(-2.0 * k * phi), phi, out=np.full_like(phi, 2.0 * k), where=phi > 0.0)
            for k in (n, n - 1)
        )
        im = (0.5 - y) * np.exp(phi - t) * s_n + y * s_m
        im[~np.isfinite(np.exp(t))] = np.nan
    # w^N = -1 for odd N and sr_index, except at L = 0, where w = 1
    return -im if separation > 0.0 and n * sr_index % 2 == 1 else im


def _sign_cells(row: np.ndarray) -> np.ndarray:
    """Indices i of the cells (y_i, y_(i+1)) of an _axis_im row that hold a
    root: both ends finite, and a sign change or an exact zero at y_i."""
    neg = row < 0.0
    data = np.isfinite(row)
    return np.flatnonzero(data[:-1] & data[1:] & ((row[:-1] == 0.0) | (neg[:-1] != neg[1:])))


def _jmul(a, b):
    """Product of two jets (v, v_y, v_L, v_yy, v_yL)."""
    av, ay, al, ayy, ayl = a
    bv, by, bl, byy, byl = b
    return (
        av * bv,
        ay * bv + av * by,
        al * bv + av * bl,
        ayy * bv + 2.0 * ay * by + av * byy,
        ayl * bv + ay * bl + al * by + av * byl,
    )


def _jchain(a, g0, g1, g2):
    """The jet of g(a), given g, g' and g'' at the value of the jet a."""
    _, ay, al, ayy, ayl = a
    return (g0, g1 * ay, g1 * al, g2 * ay * ay + g1 * ayy, g2 * ay * al + g1 * ayl)


def _jadd(a, b):
    """Sum of two jets."""
    return tuple(p + q for p, q in zip(a, b))


def _axis_jet(n: int, y: float, l: float) -> tuple[float, float, float, float, float]:
    """(psi, psi_y, psi_L, psi_yy, psi_yL) at y, L > 0, psi being the row of
    _axis_im without its sign w^N (the same for every sr_index); NaN where
    e^t overflows, as f does.

    One forward-mode pass (Griewank & Walther, Evaluating Derivatives, 2nd
    ed., SIAM 2008) of jets in (y, L), O(1) in N, through psi in difference
    form: psi = y (s_(N-1) - E s_N) + E s_N / 2, E = e^(phi - t), s_(N-1) -
    E s_N = (-expm1(phi - t) + e^(-2(N-1) phi) expm1(-phi - t)) / phi.  Near
    the fold each term of _axis_im is about N times psi's scale, and their
    difference would lose that much."""
    try:
        tv = y * l
        t = (tv, l, y, 0.0, 1.0)
        et = math.exp(tv)  # raises where e^t overflows
        sh, ch, inv = math.sinh(tv), 0.5 * (et + 1.0 / et), 0.25 / y
        # h = g/2 = sinh^2(t/2) + sinh(t) / (4y) > 0 and phi = 2 asinh(sqrt(h))
        h = _jadd(
            _jchain(t, math.sinh(0.5 * tv) ** 2, 0.5 * sh, 0.5 * ch),
            _jmul(_jchain(t, sh, ch, sh), (inv, -4.0 * inv * inv, 0.0, 32.0 * inv**3, 0.0)),
        )
        hv = h[0]
        d1 = 1.0 / (math.sqrt(hv) * math.sqrt(1.0 + hv))
        phi = _jchain(h, 2.0 * math.asinh(math.sqrt(hv)), d1, -0.5 * d1 * (1.0 / hv + 1.0 / (1.0 + hv)))
        pv, q = phi[0], 1.0 / phi[0]
        # phi - t, its value from asinh a - asinh b = asinh(a sqrt(1 + b^2) - b sqrt(1 + a^2))
        # at a = sqrt(h), b = sinh(t/2), where a^2 - b^2 = sinh(t) / (4y) leaves no
        # cancellation; the plain difference loses phi / (phi - t), about 6 near the fold
        cut = sh * inv / (math.sqrt(hv) * math.cosh(0.5 * tv) + math.sinh(0.5 * tv) * math.sqrt(1.0 + hv))
        up = (2.0 * math.asinh(cut),) + tuple(u - v for u, v in zip(phi[1:], t[1:]))
        dn = tuple(-u - v for u, v in zip(phi, t))  # -phi - t
        e, en, m = math.exp(up[0]), math.exp(dn[0]), 2.0 * (n - 1)
        b, c = math.exp(-m * pv), math.exp(-2.0 * n * pv)
        # phi (s_(N-1) - E s_N) and phi E s_N / 2
        diff = _jadd(
            _jchain(up, -math.expm1(up[0]), -e, -e),
            _jmul(_jchain(phi, b, -m * b, m * m * b), _jchain(dn, math.expm1(dn[0]), en, en)),
        )
        half = _jmul(
            _jchain(up, 0.5 * e, 0.5 * e, 0.5 * e),
            _jchain(phi, -math.expm1(-2.0 * n * pv), 2.0 * n * c, -4.0 * n * n * c),
        )
        return _jmul(_jadd(_jmul((y, 1.0, 0.0, 0.0, 0.0), diff), half), _jchain(phi, q, -q * q, 2.0 * q**3))
    except (OverflowError, ZeroDivisionError):
        return (math.nan,) * 5


def _axis_root(n: int, l: float, lo: float, hi: float) -> float | None:
    """The root of psi(., L) of _axis_jet in the cell [lo, hi]: Newton from
    the midpoint, with a bisection step wherever a Newton step would leave
    the bracket of the sign change; None where psi is not finite or does not
    change sign over the cell.  At L = 0 psi is N - 2y, and its root N/2 is
    returned exactly (_axis_jet is NaN there)."""
    if l == 0.0:
        return 0.5 * n
    a, b = _axis_jet(n, lo, l)[0], _axis_jet(n, hi, l)[0]
    if a == 0.0 or b == 0.0:
        return lo if a == 0.0 else hi
    if not (math.isfinite(a) and math.isfinite(b) and (a < 0.0) != (b < 0.0)):
        return None
    y = 0.5 * (lo + hi)
    for _ in range(100):
        psi, psi_y = _axis_jet(n, y, l)[:2]
        if not math.isfinite(psi):
            return None
        if psi == 0.0:
            return y
        if (psi < 0.0) == (a < 0.0):
            lo = y
        else:
            hi = y
        nxt = y - psi / psi_y if psi_y != 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - y) <= 4.0 * _EPS * y or hi - lo <= 4.0 * _EPS * y:
            return nxt
        y = nxt
    return y


class _CountedFn:
    """A deflated CharFn whose scalar evaluations are tallied on its
    tracker: one per value and one per jet (f, f')."""

    def __init__(self, charfn: CharFn, tracker: _PoleTracker):
        self.charfn = charfn
        self.tracker = tracker

    def __call__(self, delta: complex) -> complex:
        self.tracker.evals += 1
        return self.charfn.eval(delta)

    def jet(self, delta: complex) -> tuple[complex, complex]:
        self.tracker.evals += 1
        return self.charfn.jet(delta)

    def noise_scale(self, delta: complex) -> float:
        return self.charfn.noise_scale(delta)

    def log10_magnitude(self, deltas):
        return self.charfn.log10_magnitude(deltas)


class _PoleTracker:
    """Finder of the two smallest nonzero poles at a separation; each pair()
    call starts cold.

    evals counts the scalar f evaluations made through fn(), values and
    jets alike.
    """

    def __init__(self, n_qubits: int, sr_index: int = 1, depth: float = 2.5):
        # the configuration at every separation; fn() replaces the separation
        self.params = ChainParams(n_qubits, 0.0, mode=MODE_SR, sr_index=sr_index)
        base = default_window(n_qubits)
        self.window = SearchWindow(base.re_min, base.re_max, -depth * n_qubits, base.im_max)
        self.evals = 0
        n = float(n_qubits)
        lo, knee, hi = 1e-4 * max(1.0, n), 0.35 * n, -self.window.im_min
        m, rest = 200, 400
        grid = [lo * (knee / lo) ** (i / (m - 1)) for i in range(m)]
        grid += [knee + (hi - knee) * i / rest for i in range(1, rest + 1)]
        self._ygrid = np.array(grid)

    def fn(self, separation: float) -> _CountedFn:
        return _CountedFn(_fn_at_separation(self.params, separation), self)

    def axis_roots(self, fn: _CountedFn) -> list[float]:
        """Roots of Im f(-iy) above y = 1e-6, one per sign-change cell of
        the y-grid, each refined on the closed-form psi (_axis_root).  A cell
        reports a root only where the scalar f is finite at both of its ends,
        which costs at most two evaluations of f per cell."""
        g = self._ygrid
        p = fn.charfn.params
        roots = []
        for i in _sign_cells(_axis_im(p.n_qubits, p.sr_index, p.separation, g)):
            lo, hi = float(g[i]), float(g[i + 1])
            if not all(cmath.isfinite(fn(-1j * v)) for v in (hi, lo)):
                continue
            y = _axis_root(p.n_qubits, p.separation, lo, hi)
            if y is not None and y > 1e-6:
                roots.append(y)
        return roots

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
        put the Im Gamma >= 0 member first.

        Axis roots are the candidates wherever there are any: each is a
        sign change of the closed-form psi, refined on psi itself, so near
        the fold both members of the pair come out at full accuracy with no
        probe.  A pair merged inside one grid cell shows no sign change and
        is left to the magnitude map: Newton runs from each of its local
        minima, and a seed from which it does not converge is dropped.  Each
        complex root brings its mirror partner -conj(Delta) unevaluated, as
        the mirror symmetry gives it the same |f| and noise scale bit for bit.
        """
        fn = self.fn(separation)
        axis = self.axis_roots(fn)
        cands: list[complex] = [-1j * y for y in axis[:3]]
        if not cands:
            # no axis root: brute local minima of the magnitude map
            for seed in grid_scan_minima(fn.log10_magnitude, self.window, resolution=160):
                z, _, ok = _newton(fn, seed, _accept_tol(fn, seed))
                if ok and self._valid(fn, z):
                    cands.append(z)
        # complex roots come with their mirror partner -conj(z)
        cands += [-z.conjugate() for z in cands if self._is_complex(z)]
        # merge near-duplicates, keeping the best-converged representative
        key = lambda c: (abs(c), -(2j * c).imag)  # noqa: E731
        uniq: list[complex] = []
        for z in sorted(cands, key=key):
            for i, u in enumerate(uniq):
                if abs(z - u) <= 1e-7 * (1.0 + abs(u)):
                    if abs(fn(z)) < abs(fn(u)):
                        uniq[i] = z
                    break
            else:
                uniq.append(z)
        # a lone sign-change root is simple: there is no partner to resolve
        if len(uniq) == 1 and len(axis) != 1:
            # a coalescing pair merges below the dedupe threshold; report both
            # members of the local quadratic model when they validate
            members = [
                z
                for z in coalescent_pair(fn, uniq[0], scale=abs(uniq[0]) + 1.0)
                if self._valid(fn, z) and abs(z - uniq[0]) < 1e-2 * (1.0 + abs(uniq[0]))
            ]
            if len(members) == 2:
                return sorted(members, key=key)
        return uniq[:2]

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
    return Pole(delta=z, residual=abs(fn(z)), classification=_classify(params, z, _TableMemo()))


def _fold_newton(n: int, y: float, l: float) -> tuple[float, float, bool]:
    """Newton on the regular fold system (psi, psi_y) = (0, 0) in (y, L),
    with psi(y, L) of _axis_jet, Im f(-iy, L) up to a positive factor, and
    the exact Jacobian [[psi_y, psi_L], [psi_yy, psi_yL]] (Moore & Spence,
    SIAM J. Numer. Anal. 17, 1980).

    On the imaginary axis f is i times a real function, so the fold where
    the colliding pair coalesces is a real 2x2 system, regular at the fold;
    psi shares it with Im f.  Returns (y, L, converged): converged when the
    relative step falls to 1e-12, or, once below 1e-9, stops halving,
    within 30 steps.
    """
    prev = math.inf
    for _ in range(30):
        psi, psi_y, psi_l, psi_yy, psi_yl = _axis_jet(n, y, l)
        det = psi_y * psi_yl - psi_l * psi_yy
        if not (det != 0.0 and math.isfinite(det)):
            return y, l, False
        dy = (psi * psi_yl - psi_l * psi_y) / det
        dl = (psi_y * psi_y - psi * psi_yy) / det
        y, l = y - dy, l - dl
        if not (0.0 < y < math.inf and 0.0 < l < math.inf):  # also catches NaN
            return y, l, False
        step = max(abs(dy) / y, abs(dl) / l)
        if step <= 1e-12 or 0.5 * prev < step <= 1e-9:
            return y, l, True
        prev = step
    return y, l, False


def maximize_over_separation(n_qubits: int) -> SSRResult:
    """Maximize Re Gamma_u over the separation: the SSR point (Gamma_SSR, L_c).

    Newton on the fold system starts from the large-N laws, (y, L) =
    (alpha_c N / 2, beta_c / N^2) of critical_pair(); their error falls
    as N^-2 and is largest at N = 2, 21% in L.  The fold is accepted when
    Newton converged, when the closed form of Im f(-iy) (_axis_im) at L_c
    has no sign change on the tracker's y-grid below the fold, so that the
    fold is the leading pole's, and when the coalescing pair resolves at
    the fold on the scalar f; otherwise BracketError names the check that
    failed.
    """
    if not isinstance(n_qubits, int) or n_qubits < 2:
        raise ContractViolationError("the SSR point needs at least 2 qubits")
    y0, l0 = 0.5 * _CRIT.alpha_c * n_qubits, _CRIT.beta_c / n_qubits**2
    y, l_fold, converged = _fold_newton(n_qubits, y0, l0)
    if not converged:
        raise BracketError(f"the fold Newton from (y, L) = ({y0:.6g}, {l0:.6g}) did not converge")
    tracker = _PoleTracker(n_qubits)
    g = tracker._ygrid
    cells = _sign_cells(_axis_im(n_qubits, 1, l_fold, g))
    if (g[cells + 1] < y).any():
        raise BracketError(
            f"an axis root of Im f(-iy) lies below the fold ({y:.6g}, {l_fold:.6g}): "
            "the fold is not the leading pole's"
        )
    fn = tracker.fn(l_fold)
    fold = -1j * y
    if not all(abs(z - fold) <= 1e-3 * (1.0 + y) for z in coalescent_pair(fn, fold, scale=y + 1.0)):
        raise BracketError(f"the coalescing pair does not resolve at the fold ({y:.6g}, {l_fold:.6g})")
    residual = abs(fn(fold))
    return SSRResult(
        n_qubits=n_qubits,
        l_critical=l_fold,
        gamma_ssr=complex(2.0 * y, 0.0),
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
            Pole(delta=z, residual=abs(fn(z)), classification=_classify(fn.charfn.params, z, _TableMemo()))
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
    """maximize_over_separation(n) for each N.

    Returns one entry per N, in input order: (SSRResult, "") on success or
    (None, "<ErrorType>: <message>") when that N fails; the sweep goes on
    past a failure and warns about none.  jobs > 1 solves the N in that
    many worker processes, with the same entries as jobs = 1; a solve costs
    the same at every N, so the pool pays only on sweeps of thousands of N.
    """
    n_list = list(n_list)
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
