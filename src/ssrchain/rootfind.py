"""Zero location for analytic scalar functions in a rectangle.

The pipeline is: count zeros by the winding number of f around the boundary
(argument principle), quadrisect until each cell isolates one zero, seed it
from the first moment of the cell's boundary, polish with damped Newton,
and, where two zeros nearly coalesce, resolve the pair through a local
quadratic model instead of fighting the flat |f| valley between them.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .charfn import CharFn
from .core import _EPS, MODE_MARKOVIAN, MODE_SR, ChainParams
from .errors import (
    BoundaryDegeneracyError,
    ContinuationBreakdownError,
    ContractViolationError,
    RefinementFailureError,
)

ZERO_MODE = "zero-mode"
MARKOVIAN_LIKE = "markovian-like"
NON_MARKOVIAN = "exclusively-non-markovian"

# largest Im Delta of a decay pole: Re Gamma = -2 Im Delta >= -1e-9
_MAX_POLE_IM = 5e-10
# _track gives up once a halved stride is below _MIN_STEP * max(1, L)
_MIN_STEP = 1e-9
_ZERO_MODE_RADIUS = 1e-6  # |Delta| of a pole classified as the zero mode


@dataclass(frozen=True)
class SearchWindow:
    """Axis-aligned rectangle in the complex detuning plane.

    Decay poles live in the lower half plane (Gamma = 2i Delta with
    Re Gamma >= 0), so physical searches use im_max <= 0.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        edges = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, edges)):
            raise ContractViolationError(f"window edges must be finite, got {self}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ContractViolationError(f"degenerate window {self}")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.re_min - pad <= z.real <= self.re_max + pad
            and self.im_min - pad <= z.imag <= self.im_max + pad
        )


def default_window(n_qubits: int) -> SearchWindow:
    """Search window sized to capture the Markovian-like pole and the first
    exclusively non-Markovian one at any separation of interest (the
    superradiant point sits near |Delta| = 1.14 N)."""
    n = float(n_qubits)
    return SearchWindow(-1.5 * n, 1.5 * n, -2.5 * n, 0.0)


@dataclass(frozen=True)
class Pole:
    """A zero of the characteristic function and its decay rate."""

    delta: complex
    residual: float
    classification: str

    def __post_init__(self):
        if self.delta.imag > _MAX_POLE_IM:
            raise ContractViolationError(
                f"pole at {self.delta} has Re Gamma < -1e-9; not a decay solution"
            )

    @property
    def gamma(self) -> complex:
        """Complex collective decay rate, 2i Delta."""
        return 2j * self.delta


# ---------------------------------------------------------------------------
# argument-principle counting


_PROBE_T = np.array([0.0, 0.21, 0.5, 0.77])
_EDGE_T = np.arange(17) / 16.0


def _vectorized(fn):
    """fn as a function of a 1-D array of points giving f as (mantissa,
    log10 scale): CharFn.eval_scaled, or a plain callable point by point."""
    if isinstance(fn, CharFn):
        return fn.eval_scaled
    return lambda zs: (np.array([fn(z) for z in zs.tolist()], dtype=complex), np.zeros(zs.shape))


def _windings(evaluate, windows: list[SearchWindow]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winding numbers and first moments of f around a batch of windows,
    walked level by level on f as (mantissa, log10 scale).

    Each boundary is 4 edges of 16 segments, and every segment is
    bisected at least once: the first call of evaluate takes, for every
    window of the batch, 16 coarse boundary probes, the 68 ends of its
    segments and their 64 midpoints together.  From there a half segment is accepted
    once its phase turns by at most 0.9 rad; the midpoints of all open
    segments of the batch are evaluated in one call per level, and the
    walk ends when no segment is open.  The near-zero floor of a window
    lies 13 decades below the median log10|f| of its probes.  A window
    fails at its first sample whose log10|f| is below the floor or not
    finite (the segment ends before the first midpoints), at a segment
    still open after 36 bisections, or at a non-integer winding; its open
    segments are dropped at once.  Returns (counts, where,
    moments): where[i] is nan for a counted window and the boundary point
    that failed otherwise; moments[i] is the sum of the zeros inside,
    (1/2 pi i) of the contour integral of z dlog f, taken by the midpoint
    rule on the accepted segments (Delves & Lyness, Math. Comp. 21, 1967).
    """
    nw = len(windows)
    corners = np.array(
        [
            [
                complex(w.re_min, w.im_min),
                complex(w.re_max, w.im_min),
                complex(w.re_max, w.im_max),
                complex(w.re_min, w.im_max),
            ]
            for w in windows
        ]
    )
    a = corners[:, :, None]
    step = np.roll(corners, -1, axis=1)[:, :, None] - a
    probes = (a + _PROBE_T * step).reshape(nw, -1)
    samples = a + _EDGE_T * step
    mids = 0.5 * (samples[:, :, :-1] + samples[:, :, 1:])
    mant, scale = evaluate(np.concatenate([probes.ravel(), samples.ravel(), mids.ravel()]))
    i, j = probes.size, probes.size + samples.size
    with np.errstate(divide="ignore", invalid="ignore"):
        probe_log = (np.log10(np.abs(mant[:i])) + scale[:i]).reshape(nw, -1)
    # each point set as (z, mantissa, log10 scale)
    edge = [samples, *(v[i:j].reshape(samples.shape) for v in (mant, scale))]
    half = [mids, *(v[j:].reshape(mids.shape) for v in (mant, scale))]

    finite = np.isfinite(probe_log)
    ranked = np.sort(np.where(finite, probe_log, np.inf), axis=1)
    floor = ranked[np.arange(nw), finite.sum(axis=1) // 2] - 13.0
    where = np.where(finite.any(axis=1), complex("nan"), corners[:, 0])

    def fail(win, points, bad):
        # each window keeps the first point it failed at
        idx = np.flatnonzero(bad)
        hit, first = np.unique(win[idx], return_index=True)
        fresh = np.isnan(where[hit])
        where[hit[fresh]] = points[idx[first[fresh]]]

    def below(mz, sz, win):
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log10(np.abs(mz)) + sz
        return ~(np.isfinite(lg) & (lg >= floor[win]))

    # the samples fail first, then the midpoints of the first bisection
    for (z, mz, sz), per in ((edge, 4 * 17), (half, 4 * 16)):
        win = np.repeat(np.arange(nw), per)
        fail(win, z.ravel(), below(mz.ravel(), sz.ravel(), win))
    live = np.isnan(where)
    # the two ends of every open half segment
    end0 = [np.concatenate([v[:, :, :-1][live].ravel(), u[live].ravel()]) for v, u in zip(edge, half)]
    end1 = [np.concatenate([u[live].ravel(), v[:, :, 1:][live].ravel()]) for v, u in zip(edge, half)]
    win = np.tile(np.repeat(np.flatnonzero(live), 4 * 16), 2)
    total = np.zeros(nw)
    moment = np.zeros(nw, dtype=complex)
    depth = 1
    while win.size:
        (z0, m0, s0), (z1, m1, s1) = end0, end1
        ratio = m1 / m0
        dphi = np.angle(ratio)
        done = np.abs(dphi) <= 0.9
        shut = win[done]
        total += np.bincount(shut, weights=dphi[done], minlength=nw)
        # the segment's step of log f, weighted by its midpoint
        step = np.log(np.abs(ratio[done])) + (s1[done] - s0[done]) * math.log(10.0) + 1j * dphi[done]
        term = 0.5 * (z0[done] + z1[done]) * step
        moment += np.bincount(shut, weights=term.real, minlength=nw)
        moment += 1j * np.bincount(shut, weights=term.imag, minlength=nw)
        if shut.size == win.size:
            break
        going = ~done
        if depth >= 36:
            fail(win, z0, going)
            break
        end0, end1, win = [v[going] for v in end0], [v[going] for v in end1], win[going]
        zm = 0.5 * (end0[0] + end1[0])
        mid = [zm, *evaluate(zm)]
        bad = below(*mid[1:], win)
        if bad.any():
            fail(win, zm, bad)
            live = np.isnan(where[win])
            end0, end1, mid = ([v[live] for v in ends] for ends in (end0, end1, mid))
            win = win[live]
        end0, end1 = [np.concatenate(p) for p in zip(end0, mid)], [np.concatenate(p) for p in zip(mid, end1)]
        win = np.concatenate([win, win])
        depth += 1

    count = total / (2.0 * math.pi)
    nearest = np.round(count)
    bad = np.isnan(where) & ((np.abs(count - nearest) > 0.15) | (nearest < 0))
    where[bad] = corners[bad, 0]
    return nearest.astype(int), where, moment / (2j * math.pi)


def _count_window(evaluate, window: SearchWindow) -> tuple[int, complex, SearchWindow]:
    """Zero count and first moment of one window, and the window counted.

    A walk that fails is repeated on a slightly expanded copy, up to five
    times, before a BoundaryDegeneracyError names the boundary point where
    the last one failed; the counted window is the copy that walked
    cleanly."""
    win = window
    for attempt in range(1, 7):
        (count,), (where,), (s1,) = _windings(evaluate, [win])
        if cmath.isnan(where):
            return int(count), complex(s1), win
        pad = window.diameter() * 3e-7 * attempt
        win = SearchWindow(
            win.re_min - 1.31 * pad,
            win.re_max + 0.77 * pad,
            win.im_min - 1.09 * pad,
            win.im_max + 0.89 * pad,
        )
    raise BoundaryDegeneracyError(
        f"zero persists on the counting boundary near {complex(where)} after 5 jitters"
    )


def count_zeros(fn, window: SearchWindow) -> int:
    """Number of zeros of fn inside the window, multiplicity counted.

    Computed as the boundary winding number with adaptive phase-continuity
    refinement on f as (mantissa, log10 scale), every level of bisection in
    one vectorised CharFn.eval_scaled (a plain callable is applied point by
    point), so a window where |f| exceeds 1e308 counts.  A zero
    hugging the boundary triggers up to five jittered (slightly expanded)
    retries before a BoundaryDegeneracyError.  Only this window is ever
    retried: localize_zeros cuts the copy that counted, and walks the
    children of every cut of one tree level once, in one batch.
    """
    return _count_window(_vectorized(fn), window)[0]


def _split(window: SearchWindow, fr: float, fi: float):
    rm = window.re_min + fr * window.width
    im = window.im_min + fi * window.height
    return [
        SearchWindow(window.re_min, rm, window.im_min, im),
        SearchWindow(rm, window.re_max, window.im_min, im),
        SearchWindow(window.re_min, rm, im, window.im_max),
        SearchWindow(rm, window.re_max, im, window.im_max),
    ]


# a zero on a split line makes child counts disagree; the cut is nudged
_CUTS = ((0.5, 0.5), (0.43, 0.57), (0.57, 0.43), (0.37, 0.63), (0.63, 0.37))


def localize_zeros(fn, window: SearchWindow, max_cell: float) -> list[complex]:
    """Quadrisect the window until every zero sits alone in a cell; returns
    refinement seeds.

    A cell holding one zero is a leaf at any size when the first moment of
    its boundary (see _windings) is finite and lies inside it; that moment
    is its seed.  Any other one-zero cell is cut until it is smaller than
    max_cell and seeded at its center.  The root is the window that
    count_zeros counted, a jittered copy of the given one where that walk
    was retried.  The tree is walked breadth first: the children of every
    cut of one tree level are counted in one boundary walk, and no child is
    ever retried.  A cell whose children do not all walk cleanly or do not
    add up to its own count is cut again at the next nudged split; after
    five it raises BoundaryDegeneracyError ("could not partition"), for
    the first such cell in depth-first order.  Seeds come
    in depth-first order of their cells and are repeated per multiplicity,
    so their total count equals count_zeros(window).  Clusters that stay
    unresolved below cells of 1e-12 are emitted as repeated centers and are
    the caller's cue for coalescent-pair handling.
    """
    evaluate = _vectorized(fn)
    found: list[tuple[tuple[int, ...], list[complex]]] = []
    failed: list[tuple[tuple[int, ...], str]] = []
    # (path from the root, window, zero count, first moment, index of the cut to try)
    count, s1, root = _count_window(evaluate, window)
    frontier = [((), root, count, s1, 0)]
    while frontier:
        cut_now = []
        for path, win, count, s1, cut in frontier:
            if count == 0:
                continue
            if count == 1 and win.contains(s1):  # False for a nan moment
                found.append((path, [s1]))
            elif max(win.width, win.height) < 1e-12 or (
                count == 1 and win.width <= max_cell and win.height <= max_cell
            ):
                found.append((path, [win.center] * count))
            elif cut == len(_CUTS):
                failed.append((path, f"could not partition {count} zeros in {win}; "
                                     "zeros pinned to every tried cut"))
            else:
                cut_now.append((path, win, count, s1, cut))
        if failed:
            # only a cell before the first failure in depth-first order can
            # still change which error is raised
            first = min(failed)[0]
            cut_now = [node for node in cut_now if node[0] < first]
        if not cut_now:
            break
        children = [_split(win, *_CUTS[cut]) for _, win, _, _, cut in cut_now]
        counts, where, moments = _windings(evaluate, [child for four in children for child in four])
        frontier = []
        for k, (path, win, count, s1, cut) in enumerate(cut_now):
            four = slice(4 * k, 4 * k + 4)
            if np.isnan(where[four]).all() and counts[four].sum() == count:
                frontier.extend(
                    (path + (j,), child, int(c), complex(m), 0)
                    for j, (child, c, m) in enumerate(zip(children[k], counts[four], moments[four]))
                )
            else:
                frontier.append((path, win, count, s1, cut + 1))
    if failed:
        raise BoundaryDegeneracyError(min(failed)[1])
    found.sort(key=lambda leaf: leaf[0])
    return [seed for _, seeds in found for seed in seeds]


# ---------------------------------------------------------------------------
# refinement


def _jet_of(fn):
    """fn's evaluator of (f, f'): CharFn.jet, or, for a plain callable, a
    central difference of step 1e-7 (1 + |z|) beside its value."""
    jet = getattr(fn, "jet", None)
    if jet is not None:
        return jet

    def central(z):
        s = 1e-7 * (abs(z) + 1.0)
        return fn(z), (fn(z + s) - fn(z - s)) / (2.0 * s)

    return central


def _newton(fn, z, tol):
    """Damped Newton on the jet of fn (see _jet_of), at most 100 steps.

    Returns (z, |f(z)|, converged).  Every trial point of the line search
    is evaluated as a jet, so an accepted step already holds the slope of
    the next one: a step that is not halved costs one jet.  Convergence
    demands both a small residual and a collapsing step, so flat
    near-double valleys where |f| dips below tol without a root nearby are
    not reported as zeros.  At the rounding floor of f, where no trial
    point lowers |f|, the collapsing step is the proposed full step; once
    |f| is below tol, a small full step that does not lower |f| ends the
    line search at once instead of being halved.
    """
    jet = _jet_of(fn)
    fz, d = jet(z)
    step_small = False
    for _ in range(100):
        if abs(fz) < tol and step_small:
            return z, abs(fz), True
        if d == 0 or not cmath.isfinite(d):
            break
        full = fz / d
        small_full = abs(full) < 3e-8 * (1.0 + abs(z))
        t, moved = 1.0, False
        # halve along the Newton direction until |f| decreases; this is the
        # fallback line search when a full step diverges
        for _ in range(30):
            z2 = z - t * full
            f2, d2 = jet(z2)
            if cmath.isfinite(f2) and abs(f2) < abs(fz):
                z, fz, d, moved = z2, f2, d2, True
                break
            if abs(fz) < tol and small_full:
                break
            t *= 0.5
        if not moved:
            # at the rounding floor of f no trial point lowers |f|; there a
            # small proposed full step is convergence, and a full step that
            # does not lower |f| ends the line search
            step_small = small_full
            break
        step_small = abs(t * full) < 3e-8 * (1.0 + abs(z))
    return z, abs(fz), abs(fz) < tol and step_small


def refine(fn, seed: complex, tol: float = 1e-9) -> complex:
    """Polish a seed to a zero of fn; |f| < tol on success.

    Damped Newton with the exact slope of CharFn.jet (a central difference
    for a plain callable).  Raises RefinementFailureError (carrying the
    best iterate and residual) when Newton plus its damped fallback cannot
    converge from this seed.
    """
    z, res, ok = _newton(fn, complex(seed), tol)
    if not ok:
        raise RefinementFailureError(
            f"no zero reached from seed {seed} (best residual {res:.3g})", best=z, residual=res
        )
    return z


def _quadratic_model(c0: complex, c1: complex, f_plus: complex, f_minus: complex, s: float):
    """The roots (u1, u2) of the local model c0 + c1 u + c2 u^2 of f at z0 from
    its jet (c0, c1) and f_plus, f_minus = f(z0 +- s), with c2 = f''/2 their
    second difference; None where c1 or c2 is not finite, or c2 is 0."""
    c2 = (f_plus - 2.0 * c0 + f_minus) / (2.0 * s * s)
    if c2 == 0 or not (cmath.isfinite(c1) and cmath.isfinite(c2)):
        return None
    disc = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
    return (-c1 + disc) / (2.0 * c2), (-c1 - disc) / (2.0 * c2)


def coalescent_pair(fn, center: complex, scale: float | None = None):
    """Resolve two (possibly merged) nearby zeros around center.

    Takes the two roots of _quadratic_model from the jet at the center and
    f at center +- s (s = max(1e-4 scale, 1e-9) at first; the stencil keeps
    an axis center on the axis under the sr mirror symmetry), recentering
    on their midpoint, three times, then a few Newton steps (one jet each)
    on each root.  Stays accurate through exact coalescence, where ordinary
    refinement stalls on the flat |f| valley.
    """
    jet = _jet_of(fn)
    z0 = complex(center)
    if scale is None:
        scale = abs(z0) + 1.0
    s = max(1e-4 * scale, 1e-9)
    u1 = u2 = 0.0j
    for _ in range(3):
        c0, c1 = jet(z0)
        roots = _quadratic_model(c0, c1, fn(z0 + s), fn(z0 - s), s)
        if roots is None:
            break
        u1, u2 = roots
        z0 = z0 + 0.5 * (u1 + u2)
        gap = abs(u1 - u2)
        s = max(min(s, 4.0 * gap) if gap > 0 else s, 1e-9)
    half = 0.5 * (u1 - u2)
    out = []
    for r in (z0 + half, z0 - half):
        for _ in range(6):
            fr, d = jet(r)
            if d == 0 or not cmath.isfinite(d):
                break
            rn = r - fr / d
            if abs(rn - r) > abs(half) + 1e-6 * (1.0 + abs(r)):
                break  # Newton escaping the pair; keep the model root
            done = abs(rn - r) < 1e-12 * (1.0 + abs(r))
            r = rn
            if done:
                break
        out.append(r)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# collective-rate extraction


def characteristic_function(params: ChainParams) -> CharFn:
    """The function whose zeros are searched: origin-deflated under the
    superradiant condition, undeflated otherwise."""
    if params.mode == MODE_SR:
        return CharFn(params, deflation_order=params.n_qubits - 1)
    return CharFn(params, deflation_order=0)


def _accept_tol(fn: CharFn, z: complex) -> float:
    return max(1e-9, 64.0 * _EPS * fn.noise_scale(z))


def find_collective_rates(params: ChainParams, window: SearchWindow | None = None) -> list[Pole]:
    """All decay poles inside the window, refined and classified.

    Zeros of the deflated characteristic function are located by
    localize_zeros (max_cell = diameter / 128), polished by Newton on the
    exact slope of CharFn.jet from each seed (the boundary's first moment
    for a cell that isolates one zero, a cell center otherwise) or by
    coalescent_pair for a cluster, deduplicated (1e-8, but never within
    one cluster), and classified: ``zero-mode`` below
    _ZERO_MODE_RADIUS, ``markovian-like`` when continuation to L -> 0
    lands on a finite Markovian root, ``exclusively-non-markovian``
    otherwise.  In sr-condition mode a root left of the axis within
    1e-8 (1 + |Delta|) of the mirror image -conj(Delta) of a root right of
    it is replaced by that exact mirror image, and shares the
    classification of its twin instead of being continued again.  The
    continuations of one call share their work (_TableMemo): every pole
    follows the same schedule of waypoints in L, and a pole whose track
    reaches a waypoint within 1e-12 (1 + |Delta|) of a state that an
    earlier pole's track passed there, or, in sr-condition mode, of the
    mirror image -conj(y) of such a state y, takes that pole's label.
    Nothing is kept between calls.
    A seed from which Newton cannot converge raises RefinementFailureError
    instead of leaving its pole out of the table.
    Sorted by |Delta| ascending, then Re Delta, so a mirror pair comes
    negative Re first.
    """
    if window is None:
        window = default_window(params.n_qubits)
    if params.mode == MODE_MARKOVIAN:
        return _markovian_rates(params, window)
    fn = characteristic_function(params)
    max_cell = max(window.diameter() / 128.0, 4e-12)
    seeds = localize_zeros(fn, window, max_cell)
    clusters: list[tuple[complex, int]] = []
    for s in seeds:
        for i, (c, m) in enumerate(clusters):
            if abs(s - c) <= 2.0 * max_cell:
                clusters[i] = (c, m + 1)
                break
        else:
            clusters.append((s, 1))
    roots: list[tuple[complex, int]] = []  # (root, index of its cluster)
    for k, (center, mult) in enumerate(clusters):
        if mult >= 2:
            pair = coalescent_pair(fn, center, scale=max(abs(center), max_cell))
            roots.extend((r, k) for r in pair[:mult])
        else:
            roots.append((refine(fn, center, tol=_accept_tol(fn, center)), k))
    # merge duplicates, but never the two members of one coalescent pair
    kept: list[tuple[complex, int]] = []
    for r, k in sorted(roots, key=lambda root: abs(root[0])):
        if not any(j != k and abs(r - u) < 1e-8 * (1.0 + abs(u)) for u, j in kept):
            kept.append((r, k))
    uniq = [r for r, _ in kept]
    if params.mode == MODE_SR:
        # the deflated f gives f(-conj(Delta)) = -conj(f(Delta)) bit for bit
        # under the superradiant condition: a left root is emitted as the
        # exact mirror image of its refined right twin
        right = [u for u in uniq if u.real > 0.0]
        uniq = [
            next((-t.conjugate() for t in right if abs(u + t.conjugate()) <= 1e-8 * (1.0 + abs(t))), u)
            if u.real < 0.0 else u
            for u in uniq
        ]
    poles = []
    memo = _TableMemo()
    for r in uniq:
        if not window.contains(r, pad=1e-6 * window.diameter()):
            continue
        if r.imag > _MAX_POLE_IM:
            warnings.warn(f"discarding unphysical root {r} (Re Gamma < 0)", stacklevel=2)
            continue
        res = abs(fn(r))
        cls = None
        if params.mode == MODE_SR:
            # a mirror partner continues to L -> 0 as the mirror image of
            # the pole already classified
            cls = next((p.classification for p in poles if p.delta == -r.conjugate()), None)
        poles.append(Pole(delta=r, residual=res, classification=cls or _classify(params, r, memo)))
    poles.sort(key=lambda p: (abs(p.delta), p.delta.real, p.delta.imag))
    return poles


def _markovian_rates(params: ChainParams, window: SearchWindow) -> list[Pole]:
    # the poles are the eigenvalues of the effective non-Hermitian Hamiltonian
    # H_jk = -(i/2) exp(i Omega L |j - k|) (Lalumiere et al., PRA 88, 043806,
    # 2013); unlike the roots of markovian_polynomial, they are well
    # conditioned in its entries
    n = params.n_qubits
    powers = np.cumprod(np.r_[1.0, np.full(n - 1, params.phase_unit())])
    k = np.arange(n)
    roots = np.linalg.eigvals(-0.5j * powers[np.abs(k[:, None] - k)])
    fn = CharFn(params, deflation_order=0)
    poles = []
    for r in roots:
        z = complex(r)
        if not window.contains(z, pad=1e-9):
            continue
        if z.imag > _MAX_POLE_IM:
            continue
        cls = ZERO_MODE if abs(z) < _ZERO_MODE_RADIUS else MARKOVIAN_LIKE
        poles.append(Pole(delta=z, residual=abs(fn(z)), classification=cls))
    poles.sort(key=lambda p: (abs(p.delta), p.delta.real, p.delta.imag))
    return poles


class _TableMemo:
    """What the continuations of one find_collective_rates call share: the
    searched CharFn at each separation they visit (fns), and the (Delta,
    label) states they passed at each scheduled waypoint L (states).  Every
    pole of one table has the same schedule, since it depends on L and N
    only; see _classify."""

    def __init__(self):
        self.fns: dict[float, CharFn] = {}
        self.states: dict[float, list[tuple[complex, str]]] = {}


def _classify(params: ChainParams, delta: complex, memo: _TableMemo) -> str:
    """Label of the pole delta: zero-mode below _ZERO_MODE_RADIUS, else
    continued (see _track) to L = min(1e-3, 0.2 / N^2), markovian-like
    where it lands within 0.15 N + 0.05 of the origin or of the Dicke pole
    -i N / 2, and exclusively-non-markovian where it does not, runs past
    |Delta| = 4 N + 10 or the continuation breaks down.

    A track that reaches a scheduled waypoint within 1e-12 (1 + |Delta|) of
    a state y in memo takes that state's label instead of continuing; in
    sr-condition mode so does a track that reaches the mirror image
    -conj(y) there, since under the superradiant condition the track of
    -conj(Delta) is the mirror image of the track of Delta bit for bit (the
    symmetry that lets mirror partners share a label).  Either way its own
    waypoint states join memo under its label.  A fresh _TableMemo
    classifies the pole alone.
    """
    if abs(delta) < _ZERO_MODE_RADIUS:
        return ZERO_MODE
    n = params.n_qubits
    l_end = min(1e-3, 0.2 / (n * n))
    z, label, passed = delta, None, []
    mirrored = params.mode == MODE_SR
    if params.separation > l_end:
        track = _track(params, delta, params.separation, l_end, memo.fns, divergence=4.0 * n + 10.0)
        try:
            for l_at, z in track:
                if z is None:
                    label = NON_MARKOVIAN
                    break
                label = _memo_label(memo.states.get(l_at, ()), z, mirrored)
                if label is not None:
                    break
                passed.append((l_at, z))
        except ContinuationBreakdownError:
            label = NON_MARKOVIAN
    if label is None:
        near = min(abs(z), abs(z + 0.5j * n))
        label = MARKOVIAN_LIKE if near <= 0.3 * (0.5 * n) + 0.05 else NON_MARKOVIAN
    for l_at, y in passed:
        memo.states.setdefault(l_at, []).append((y, label))
    return label


def _memo_label(states, z: complex, mirrored: bool) -> str | None:
    """The label of the first (y, label) state within 1e-12 (1 + |z|) of z,
    or, where mirrored, of its mirror image -conj(y); None if there is none."""
    tol = 1e-12 * (1.0 + abs(z))
    return next(
        (lab for y, lab in states if abs(z - y) <= tol or (mirrored and abs(z + y.conjugate()) <= tol)),
        None,
    )


def _fn_at_separation(params: ChainParams, sep: float) -> CharFn:
    """The searched characteristic function of params at separation sep."""
    return characteristic_function(dataclasses.replace(params, separation=sep))


def _track(params, z, l_from, l_to, fns, divergence=None):
    """Follow one zero from l_from to l_to with adaptive step halving,
    yielding (L, Delta) at every scheduled waypoint, the last at l_to.
    fns holds the searched CharFn of each separation, and gains those this
    track builds.

    The schedule is geometric, at most 0.35 apart in ln L.  A step only
    counts when Newton converges AND the root moved by less than 0.35
    (1 + |Delta|); larger jumps are treated as branch hopping and the
    stride is halved by a midpoint, which is not yielded.  Once |Delta|
    crosses the divergence bound (the signature of an exclusively
    non-Markovian branch running away as L -> 0) it yields (L, None) and
    stops.  Raises ContinuationBreakdownError once a halved stride is below
    _MIN_STEP max(1, L).
    """
    cur = l_from
    pending = [l_to]
    # coarse geometric waypoints keep every seed inside the previous basin
    if min(l_from, l_to) > 0 and abs(math.log(l_to / l_from)) > 0.35:
        k = math.ceil(abs(math.log(l_to / l_from)) / 0.3)
        pending = [l_from * (l_to / l_from) ** (i / k) for i in range(k, 0, -1)]
    scheduled = len(pending)
    while pending:
        target = pending[-1]
        fn = fns.get(target)
        if fn is None:
            fn = fns[target] = _fn_at_separation(params, target)
        znew, res, ok = _newton(fn, z, _accept_tol(fn, z))
        if ok and abs(znew - z) > 0.35 * (1.0 + abs(z)):
            ok = False  # converged, but not to the tracked branch
        if not ok:
            pair = coalescent_pair(fn, z, scale=abs(z) + 1.0)
            cand = min(pair, key=lambda r: abs(r - z))
            if (
                abs(fn(cand)) <= _accept_tol(fn, cand) * 10.0
                and abs(cand - z) <= 0.35 * (1.0 + abs(z))
            ):
                znew, ok = cand, True
        if ok:
            z, cur = znew, target
            pending.pop()
            if divergence is not None and abs(z) > divergence:
                yield cur, None
                return
            if len(pending) < scheduled:
                scheduled -= 1
                yield cur, z
            continue
        mid = 0.5 * (cur + target)
        if abs(mid - cur) < _MIN_STEP * max(1.0, abs(cur)):
            raise ContinuationBreakdownError(
                f"continuation stalled at L = {cur:.6g} toward {target:.6g}", partial=[]
            )
        pending.append(mid)


def _track_root(params, z, l_from, l_to):
    """The zero z at l_from continued to l_to (see _track)."""
    for _, z in _track(params, z, l_from, l_to, {}):
        pass
    return z


def continue_pole(params: ChainParams, pole: Pole, l_path: list[float]) -> list[Pole]:
    """Track one pole along a separation path.

    The path must start at params.separation; steps that Newton cannot
    bridge are halved adaptively down to _MIN_STEP max(1, L) = 1e-9 max(1, L).
    In sr-condition mode, where zeros come in mirror pairs (Delta,
    -conj(Delta)), the emitted branch keeps the sign of Im Gamma across pair
    coalescence.
    """
    l_path = list(l_path)
    if not l_path:
        raise ContractViolationError("l_path must contain at least the starting separation")
    if abs(l_path[0] - params.separation) > 1e-9 * max(1.0, params.separation):
        raise ContractViolationError(
            f"l_path starts at {l_path[0]}, but params.separation = {params.separation}"
        )
    if params.mode == MODE_SR and pole.classification == ZERO_MODE:
        # under the superradiant condition the origin zero persists at every
        # separation; its continuation is the zero mode itself
        return [pole] + [
            Pole(delta=0.0j, residual=0.0, classification=ZERO_MODE) for _ in l_path[1:]
        ]
    out = [pole]
    z = pole.delta
    prev_sign = _im_gamma_sign(z)
    cur = l_path[0]
    for target in l_path[1:]:
        try:
            z = _track_root(params, z, cur, target)
        except ContinuationBreakdownError as err:
            raise ContinuationBreakdownError(
                f"pole lost between L = {cur:.6g} and {target:.6g}", partial=out
            ) from err
        if params.mode == MODE_SR and abs(z.real) > 1e-9 * (1.0 + abs(z)):
            mirror = -z.conjugate()
            if prev_sign != 0 and _im_gamma_sign(z) != prev_sign:
                z = mirror
            elif prev_sign == 0 and _im_gamma_sign(z) < 0:
                z = mirror
        prev_sign = _im_gamma_sign(z) or prev_sign
        cur = target
        fn = _fn_at_separation(params, cur)
        out.append(Pole(delta=z, residual=abs(fn(z)), classification=pole.classification))
    return out


def _im_gamma_sign(delta: complex) -> int:
    im = (2j * delta).imag
    if abs(im) <= 1e-9 * (1.0 + abs(delta)):
        return 0
    return 1 if im > 0 else -1


def grid_scan_minima(fn_log10, window: SearchWindow, resolution: int = 400) -> list[complex]:
    """Strict local minima of a log10|f| map on a uniform grid; brute-force
    oracle seeds for cross-checking the analytic pipeline."""
    res = np.linspace(window.re_min, window.re_max, resolution)
    ims = np.linspace(window.im_min, window.im_max, resolution)
    grid = res[None, :] + 1j * ims[:, None]
    vals = fn_log10(grid)
    vals = np.where(np.isfinite(vals), vals, np.inf)
    out = []
    interior = vals[1:-1, 1:-1]
    neighbors = np.stack(
        [
            vals[:-2, 1:-1], vals[2:, 1:-1], vals[1:-1, :-2], vals[1:-1, 2:],
            vals[:-2, :-2], vals[:-2, 2:], vals[2:, :-2], vals[2:, 2:],
        ]
    )
    # a plateau of non-finite values (inf <= inf) holds no minimum
    mask = np.isfinite(interior) & (interior <= neighbors.min(axis=0))
    ii, jj = np.nonzero(mask)
    for i, j in zip(ii, jj):
        out.append(complex(grid[i + 1, j + 1]))
    return out
