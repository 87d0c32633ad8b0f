import cmath
import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssrchain import (
    BracketError,
    ChainParams,
    ContractViolationError,
    SSRResult,
    WindowExhaustedError,
    critical_pair,
    degenerate_pair_probe,
    fit_scaling,
    maximize_over_separation,
    scaling_sweep,
    superradiant_pole,
)
from ssrchain import rootfind, ssr
from ssrchain.charfn import CharFn
from ssrchain.core import _EPS as EPS
from ssrchain.rootfind import _accept_tol, _newton, coalescent_pair, grid_scan_minima
from ssrchain.ssr import (
    _PoleTracker,
    _axis_grid,
    _axis_im,
    _axis_jet,
    _axis_root,
    _fold_newton,
    _sign_cells,
)


def two_qubit_fold():
    """Independent closed-form oracle for the N = 2 SSR point.

    The two-qubit pole condition reduces to Gamma = 1 + exp(Gamma L / 2) on
    the real axis; the fold (tangency) satisfies L/2 + 1 = log(2/L), giving
    Gamma = 1 + 2/L there.  Solved by bisection, no shared code.
    """
    f = lambda l: math.log(2.0 / l) - 0.5 * l - 1.0
    lo, hi = 0.3, 0.8
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    l_c = 0.5 * (lo + hi)
    return 1.0 + 2.0 / l_c, l_c


ORACLE_GAMMA2, ORACLE_LC2 = two_qubit_fold()


class TestTwoQubitOracle:
    def test_oracle_values(self):
        # frozen from the bisection itself; guards against oracle drift
        assert ORACLE_GAMMA2 == pytest.approx(4.591121476668, abs=1e-10)
        assert ORACLE_LC2 == pytest.approx(0.556929085522, abs=1e-10)


class TestSuperradiantPole:
    def test_single_qubit_exact(self):
        pole = superradiant_pole(ChainParams(1, 0.3))
        assert abs(pole.gamma - 1.0) < 1e-12

    def test_two_qubit_near_critical_separation(self):
        pole = superradiant_pole(ChainParams(2, 0.56))
        assert abs(pole.gamma.real - 4.59) < 0.05

    def test_dicke_limit(self):
        pole = superradiant_pole(ChainParams(2, 1e-3))
        assert abs(pole.gamma.real - 2.0) / 2.0 < 0.005

    def test_requires_sr_mode(self):
        with pytest.raises(ContractViolationError):
            superradiant_pole(ChainParams(2, 0.5, mode="general"))

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1000])
    def test_zero_separation_is_the_dicke_pole(self, n):
        # at L = 0, psi = N - 2y, so the axis root is y = N/2 exactly
        pole = superradiant_pole(ChainParams(n, 0.0))
        assert pole.delta == -0.5j * n
        assert pole.residual == 0.0


def scalar_axis_scan(fn, grid):
    """Test-local reference for _PoleTracker.axis_roots: Im f(-iy) on the
    grid one scalar call at a time, then plain bisection in every
    sign-change cell whose end values are finite."""
    phi = lambda y: fn(-1j * y).imag
    vals = [fn(-1j * y) for y in grid]
    roots = []
    for i in range(len(grid) - 1):
        if not (cmath.isfinite(vals[i]) and cmath.isfinite(vals[i + 1])):
            continue
        a, b = vals[i].imag, vals[i + 1].imag
        if a == 0.0:
            roots.append(grid[i])
        elif (a < 0.0) != (b < 0.0):
            lo, hi, flo = grid[i], grid[i + 1], a
            while hi - lo >= 1e-15 * (1.0 + hi):
                mid = 0.5 * (lo + hi)
                fm = phi(mid)
                if fm == 0.0:
                    lo = hi = mid
                elif (flo < 0.0) != (fm < 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return [y for y in roots if y > 1e-6]


def axis_band(fn, y):
    """Width of the band around the axis root y where rounding makes
    Im f(-iy) change sign: near the fold the pair is a near-double root, and
    any two root finders may end anywhere in that band."""
    z, h = -1j * y, 1e-6 * y
    slope = abs((fn(z - 1j * h) - fn(z + 1j * h)).imag) / (2.0 * h)
    return 16.0 * 2.2e-16 * fn.noise_scale(z) / slope


def rough_critical_separation(n):
    return ORACLE_LC2 if n == 2 else critical_pair().beta_c / n**2


class TestAxisScan:
    @pytest.mark.parametrize("n", [2, 10, 100])
    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_matches_scalar_reference(self, n, factor):
        tracker = _PoleTracker(n)
        fn = tracker.fn(factor * rough_critical_separation(n))
        grid = [float(y) for y in tracker._ygrid]
        assert all(cmath.isfinite(fn(-1j * y)) for y in grid)
        got = tracker.axis_roots(fn)
        want = scalar_axis_scan(fn, grid)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * b + 2.0 * axis_band(fn, b)
        if factor == 0.5:
            assert got  # the superradiant pole is on the axis below L_c

    @pytest.mark.parametrize("n, sep, depth", [(100, 3.0, 2.5), (50, 3.0, 7.0), (100, 3.0, 7.0)])
    def test_no_root_where_f_overflows(self, n, sep, depth):
        tracker = _PoleTracker(n, depth=depth)
        fn = tracker.fn(sep)
        grid = [float(y) for y in tracker._ygrid]
        finite = [cmath.isfinite(fn(-1j * y)) for y in grid]
        assert not all(finite)
        for y in tracker.axis_roots(fn):
            i = max(k for k in range(len(grid) - 1) if grid[k] <= y)
            assert finite[i] and finite[i + 1]

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("frac", [0.5, 0.9999])
    def test_roots_against_mpmath(self, n, frac):
        # 0.9999 L_c is a near-double root, where rounding in psi moves a
        # root about a hundred times more than at 0.5 L_c
        sep = frac * maximize_over_separation(n).l_critical
        tracker = _PoleTracker(n)
        roots = tracker.axis_roots(tracker.fn(sep))
        assert len(roots) == (1 if frac == 0.5 else 2)
        assert tracker.evals == 2 * len(roots)  # f only at the two ends of a cell
        with mp.workdps(40):
            for y in roots:
                want = mp.findroot(lambda v: mp_axis_im(n, 1, mp.mpf(sep), v), mp.mpf(y))
                assert abs(y - want) <= 1e-13 * want

    def test_no_root_where_axis_jet_is_nan(self):
        # e^t overflows above t = 709.78, inside the cell (700, 720) at L = 1
        assert math.isfinite(_axis_jet(10, 700.0, 1.0)[0])
        assert math.isnan(_axis_jet(10, 720.0, 1.0)[0])
        assert _axis_root(10, 1.0, 700.0, 720.0) is None

    def test_bisects_where_newton_leaves_the_cell(self):
        # 1e-4 below L_c the fold's psi_y = 0 lies between the two roots; from
        # the middle of (11.2, 11.52) Newton would step to y = 10.97
        sep = 0.9999 * maximize_over_separation(10).l_critical
        tracker = _PoleTracker(10)
        first, second = tracker.axis_roots(tracker.fn(sep))
        assert 11.2 < first < 11.36 < 11.52 < second
        psi, psi_y = _axis_jet(10, 11.36, sep)[:2]
        assert not 11.2 < 11.36 - psi / psi_y < 11.52
        assert abs(_axis_root(10, sep, 11.2, 11.52) - first) <= 1e-12 * first


def default_bracket(n):
    """The separation bracket (0.2, 3) beta_c / N^2 that the scan-bracketed
    maximizer (parent_maximize) searched by default."""
    beta_c = critical_pair().beta_c
    return 0.2 * beta_c / n**2, 3.0 * beta_c / n**2


def scan_points(n, bracket=None):
    """The 16 log-spaced separations of parent_maximize's scan of a bracket,
    by default default_bracket(n)."""
    a, b = bracket or default_bracket(n)
    return [a * (b / a) ** (i / 15) for i in range(16)]


def scan_rows(n, sr_index, separations, y):
    """_axis_im at each separation, one row each."""
    return np.array([_axis_im(n, sr_index, x, y) for x in separations])


def recurrence_scan(n, sr_index, separations, y):
    """Test-local copy of the batched complex recurrence that scanned the
    axis before its closed form: the deflated f(-iy) at each separation (one
    row each) by the Chebyshev recurrence of CharFn._scaled, rescaled by
    positive reals on each row's own check cadence.  Returns the imaginary
    part of the mantissa, NaN where the mantissa is not finite."""
    w = -1.0 if sr_index % 2 else 1.0
    le = np.asarray(separations, dtype=float)[:, None]
    z = -1j * y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = z * le
        small = np.abs(u) < 1e-4
        us = np.where(small, u, 1.0)
        series = 1.0 - us * us / 6.0 + us**4 / 120.0
        direct = np.divide(np.sin(u), u, out=np.ones_like(u), where=~small)
        x = w * (np.cos(u) + 0.5 * le * np.where(small, series, direct))
        m11 = (z + 0.5j) / (w * np.exp(1j * u))
        every = []
        for xmax in np.abs(x).max(axis=1):
            growth = math.log10(2.0 * float(xmax) + 1.0)
            every.append(1 if not math.isfinite(growth) else max(1, int(200.0 / growth)) if growth > 0.0 else n)
        every = np.array(every)[:, None]
        uk, ukm1 = np.ones_like(u), np.zeros_like(u)
        for k in range(1, n):
            ukm1, uk = uk, 2.0 * x * uk - ukm1
            mag = np.maximum(np.abs(uk), np.abs(ukm1))
            mask = (mag > 1e100) & ((k % every == 0) | (k == n - 1))
            uk = np.where(mask, uk / mag, uk)
            ukm1 = np.where(mask, ukm1 / mag, ukm1)
        h = uk * m11 - z * ukm1
    return np.where(np.isfinite(h), h.imag, np.nan)


def sign_cells(im):
    """The cells of scan rows that axis_roots refines: both ends finite,
    and a sign change or an exact zero at the lower end."""
    data = np.isfinite(im)
    neg = im < 0.0
    change = (im[..., :-1] == 0.0) | (neg[..., :-1] != neg[..., 1:])
    return data[..., :-1] & data[..., 1:] & change


def mp_axis_im(n, sr_index, sep, y):
    """Test-local Im f(-iy) of the deflated sr-branch f: the row vector
    (1, 0) carried through N explicit cells Delta T, p = w exp(i Delta L)."""
    d = mp.mpc(0, -y)
    p = (-1 if sr_index % 2 and sep > 0 else 1) * mp.exp(1j * d * sep)
    a, b = mp.mpc(1), mp.mpc(0)
    for _ in range(n):
        a, b = a * (d + 0.5j) / p - b * 0.5j / p, a * 0.5j * p + b * (d - 0.5j) * p
    return (a / d ** (n - 1)).imag


class TestClosedFormScan:
    """_axis_im against the batched complex recurrence it replaced: the
    same finite points and the same cells to refine, so the same roots."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 20, 50, 100, 1000])
    @pytest.mark.parametrize("sr_index", [1, 2])
    @pytest.mark.parametrize("depth", [2.5, 7.0])
    def test_same_cells_as_recurrence(self, n, sr_index, depth):
        y = _PoleTracker(n, sr_index, depth)._ygrid
        xs = scan_points(n)
        got, want = scan_rows(n, sr_index, xs, y), recurrence_scan(n, sr_index, xs, y)
        assert got.shape == (16, y.size)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        cells = sign_cells(got)
        assert np.array_equal(cells, sign_cells(want))
        assert cells.any()

    @pytest.mark.parametrize("n, sep", [(100, 3.0), (30, 3.0)])
    @pytest.mark.parametrize("depth", [2.5, 7.0])
    def test_same_cells_where_f_overflows(self, n, sep, depth):
        tracker = _PoleTracker(n, depth=depth)
        y = tracker._ygrid
        fn = tracker.fn(sep)
        assert not all(cmath.isfinite(fn(-1j * v)) for v in y)
        got, want = _axis_im(n, 1, sep, y), recurrence_scan(n, 1, [sep], y)[0]
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.array_equal(sign_cells(got), sign_cells(want))
        if n == 100:
            assert not np.isfinite(got).all()

    @pytest.mark.parametrize("n, sep", [(2, 3.0), (100, 3.0), (1000, 0.5)])
    def test_no_data_where_exp_overflows(self, n, sep):
        # the closed form itself stays finite up to t = yL = 710.47, where
        # sinh overflows; f, and so the scan, ends where e^t does (709.78)
        y = np.linspace(700.0 / sep, 712.0 / sep, 2001)
        got, want = _axis_im(n, 1, sep, y), recurrence_scan(n, 1, [sep], y)[0]
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert 0 < np.count_nonzero(np.isfinite(got)) < y.size

    @pytest.mark.parametrize(
        "n, sr_index, sep, ys",
        [
            (1, 1, 0.3, [0.2, 0.7]),
            (2, 1, 0.3, [0.5, 2.0, 2.6, 3.0, 8.0]),
            (2, 1, 0.0, [0.5, 1.5]),
            (3, 1, 0.0, [1.0, 2.0]),
            (3, 2, 0.2, [0.5, 2.0, 3.0, 5.0]),
            (5, 1, 0.07, [1.0, 4.0, 5.7, 7.0, 20.0]),
            (20, 1, 4.4e-3, [5.0, 22.0, 22.77, 30.0]),
            (100, 1, 1.757e-4, [50.0, 113.0, 113.9, 120.0, 200.0]),
            (101, 3, 1.7e-4, [50.0, 113.0, 120.0]),
        ],
    )
    def test_sign_against_mpmath(self, n, sr_index, sep, ys):
        got = _axis_im(n, sr_index, sep, np.array(ys))
        with mp.workdps(30):
            want = [mp.sign(mp_axis_im(n, sr_index, sep, mp.mpf(y))) for y in ys]
        assert [float(v) for v in np.sign(got)] == [float(v) for v in want]
        assert len(set(want)) == 2


def grid_cell(grid, y):
    """Width of the grid cell holding y (the lower one at a grid point), or
    of the last cell when y is off the grid."""
    i = int(np.searchsorted(grid, y))
    if y < grid[0] or i >= len(grid):
        i = len(grid) - 1
    i = max(i, 1)
    return float(grid[i] - grid[i - 1])


def parent_pair(tracker, separation):
    """_PoleTracker.pair as it was before the coalescent-pair probe around
    axis roots was dropped: it probed around a lone axis root and around
    two roots within four grid cells, and probed again whenever one
    candidate was left."""
    fn = tracker.fn(separation)
    axis = tracker.axis_roots(fn)
    cands = [-1j * y for y in axis[:3]]
    near_fold = bool(axis) and (
        len(axis) == 1 or axis[1] - axis[0] < 4.0 * grid_cell(tracker._ygrid, axis[0])
    )
    if near_fold:
        center = -1j * axis[0]
        for z in coalescent_pair(fn, center, scale=abs(center) + 1.0):
            if tracker._valid(fn, z):
                cands.append(z)
    if not cands:
        for seed in grid_scan_minima(fn.log10_magnitude, tracker.window, resolution=160):
            z, _, ok = _newton(fn, seed, _accept_tol(fn, seed))
            if ok and tracker._valid(fn, z):
                cands.append(z)
            elif not ok:
                for z in coalescent_pair(fn, seed, scale=abs(seed) + 1.0):
                    if tracker._valid(fn, z):
                        cands.append(z)
    for z in list(cands):
        if tracker._is_complex(z):
            m = -z.conjugate()
            if tracker._valid(fn, m):
                cands.append(m)
    key = lambda c: (abs(c), -(2j * c).imag)
    uniq = []
    for z in sorted(cands, key=key):
        for i, u in enumerate(uniq):
            if abs(z - u) <= 1e-7 * (1.0 + abs(u)):
                if abs(fn(z)) < abs(fn(u)):
                    uniq[i] = z
                break
        else:
            uniq.append(z)
    pair = uniq[:2]
    if len(uniq) == 1:
        members = [
            z
            for z in coalescent_pair(fn, uniq[0], scale=abs(uniq[0]) + 1.0)
            if tracker._valid(fn, z) and abs(z - uniq[0]) < 1e-2 * (1.0 + abs(uniq[0]))
        ]
        if len(members) == 2:
            pair = sorted(members, key=key)
    return pair


def assert_same_pair(fn, got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b.real != 0.0:
            assert a == b
        else:
            # the probe of parent_pair could swap the psi root for a polished
            # coalescent member; both lie in the rounding band
            assert a.real == 0.0
            assert abs(a - b) <= 2.0 * axis_band(fn, -b.imag)


class TestProbeRule:
    @pytest.mark.parametrize("n", [2, 10, 50, 100])
    def test_same_pairs_as_probing_every_root(self, n):
        new_evals = old_evals = 0
        for x in scan_points(n):
            new, old = _PoleTracker(n), _PoleTracker(n)
            got, want = new.pair(x), parent_pair(old, x)
            new_evals, old_evals = new_evals + new.evals, old_evals + old.evals
            assert_same_pair(new.fn(x), got, want)
        assert new_evals < old_evals

    @pytest.mark.parametrize("n", [2, 20, 100])
    def test_same_pairs_near_the_fold(self, n, monkeypatch):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return coalescent_pair(*args, **kwargs)

        monkeypatch.setattr(ssr, "coalescent_pair", counted)
        l_c = maximize_over_separation(n).l_critical
        # 1e-5 below L_c two axis roots share a few grid cells, and psi
        # resolves both with no probe; 1e-7 below they merge inside one cell
        # and the axis scan finds none
        for eps in (1e-5, 1e-7, -1e-7, -1e-5):
            sep = l_c * (1.0 - eps)
            new, old = _PoleTracker(n), _PoleTracker(n)
            fn, before = new.fn(sep), calls[0]
            axis = new.axis_roots(fn)
            assert_same_pair(fn, new.pair(sep), parent_pair(old, sep))
            if eps == 1e-5:
                assert len(axis) == 2 and calls[0] == before
            if eps == 1e-7:
                assert not axis and calls[0] > before

    @pytest.mark.parametrize("n", [2, 10, 100])
    @pytest.mark.parametrize("depth", [2.5, 7.0])
    def test_same_pairs_above_the_fold(self, n, depth):
        # parent_pair also rescues map seeds that stall by coalescent_pair
        # and evaluates f again at each mirror partner; neither changes a pair
        l_c = maximize_over_separation(n).l_critical
        for factor in (1.00001, 1.05, 3.0, 10.0, 100.0):
            sep = factor * l_c
            new, old = _PoleTracker(n, depth=depth), _PoleTracker(n, depth=depth)
            got, want = new.pair(sep), parent_pair(old, sep)
            assert got == want, factor
            assert new.evals <= old.evals

    def test_stalled_map_seeds_are_dropped(self, monkeypatch):
        # at (2, 100 L_c) Newton stalls from thousands of depth-7 map seeds,
        # and no coalescent pair around them validates
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return coalescent_pair(*args, **kwargs)

        monkeypatch.setattr(ssr, "coalescent_pair", counted)
        _PoleTracker(2, depth=7.0).pair(100.0 * maximize_over_separation(2).l_critical)
        assert calls[0] <= 1

    @pytest.mark.parametrize("n", [2, 50, 10_000])
    def test_maximizer_runs_no_tracker_and_no_coalescent_pair(self, n, monkeypatch):
        # the fold is checked by one local quadratic model of f there
        calls = []
        for owner, name in ((ssr, "_PoleTracker"), (ssr, "_CountedFn"),
                            (ssr, "coalescent_pair"), (rootfind, "coalescent_pair")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _r=real, **kw: calls.append(a) or _r(*a, **kw))
        maximize_over_separation(n)
        assert not calls


class TestOverflowRegression:
    def test_overflowed_window_gives_no_fake_pole(self):
        # f overflows over most of the axis at (100, 3.0); the overflow value
        # inf + 0j once passed for a root of Im f(-iy) with residual inf
        params = ChainParams(100, 3.0)
        try:
            pole = superradiant_pole(params)
        except WindowExhaustedError:
            return
        fn = CharFn(params, deflation_order=99)
        assert math.isfinite(pole.residual)
        assert pole.residual <= 20.0 * _accept_tol(fn, pole.delta)

    def test_window_exhausted_names_the_overflow(self):
        note = r"f is not finite at 467 of 600 axis grid points \(every y >= 2\.337\)"
        with pytest.raises(WindowExhaustedError, match=note):
            superradiant_pole(ChainParams(100, 3.0))

    def test_valid_rejects_non_finite_f(self):
        tracker = _PoleTracker(100)
        fn = tracker.fn(3.0)
        z = -200j
        assert not cmath.isfinite(fn(z))
        assert not tracker._valid(fn, z)


class TestEvaluationCount:
    def test_counts_every_scalar_f_call(self, monkeypatch):
        # a value and a jet (f, f') count one evaluation each
        calls = [0]
        original, jet = CharFn.eval, CharFn.jet

        def counted(self, delta):
            calls[0] += 1
            return original(self, delta)

        def counted_jet(self, delta):
            calls[0] += 1
            return jet(self, delta)

        monkeypatch.setattr(CharFn, "eval", counted)
        monkeypatch.setattr(CharFn, "__call__", counted)
        monkeypatch.setattr(CharFn, "jet", counted_jet)
        res = maximize_over_separation(2)
        assert res.evaluations == calls[0]

    def test_large_n_budget(self):
        assert maximize_over_separation(100).evaluations <= 60

    def test_ten_thousand_qubit_budget(self):
        assert maximize_over_separation(10_000).evaluations <= 60

    def test_two_qubit_budget(self):
        assert maximize_over_separation(2).evaluations <= 60

    @pytest.mark.parametrize("n", [2, 3, 100, 10_000, 1_000_000])
    def test_two_evaluations_at_every_n(self, n, monkeypatch):
        # one jet and one value, also where ulp moves of the fold Newton's
        # seed move the last bits of the fold; the value at fold - s is the
        # mirror image of the one at fold + s, bit for bit
        want = maximize_over_separation(n)
        assert want.evaluations == 2
        y = 0.5 * want.gamma_ssr.real
        fn = CharFn(ChainParams(n, want.l_critical), deflation_order=n - 1)
        s = max(1e-4 * (y + 1.0), 1e-9)
        assert fn(-1j * y - s) == -fn(-1j * y + s).conjugate()
        real, moved = _fold_newton, False
        for k in (-3, -1, 1, 3):
            monkeypatch.setattr(
                ssr, "_fold_newton",
                lambda m, y0, l0, k=k: real(m, y0 + k * math.ulp(y0), l0 - k * math.ulp(l0)),
            )
            res = maximize_over_separation(n)
            assert res.evaluations == 2
            assert abs(res.l_critical - want.l_critical) <= 1e-14 * want.l_critical
            moved = moved or res.l_critical != want.l_critical
        assert moved


class TestMaximize:
    def test_two_qubits_against_closed_form(self):
        res = maximize_over_separation(2)
        assert res.gamma_ssr.real == pytest.approx(ORACLE_GAMMA2, abs=1e-6)
        assert abs(res.gamma_ssr.imag) < 1e-9
        assert res.l_critical == pytest.approx(ORACLE_LC2, abs=1e-8)
        assert res.evaluations > 0
        assert res.residual < 1e-9

    def test_three_qubits_beats_dicke(self):
        res = maximize_over_separation(3)
        assert res.gamma_ssr.real > 3.0

    def test_large_n_matches_asymptotic_law(self):
        res = maximize_over_separation(100)
        assert abs(res.gamma_ssr.real - 227.7) / 227.7 < 0.01
        assert abs(res.l_critical - 1.76e-4) / 1.76e-4 < 0.01

    def test_small_n_deviates_more_than_large_n(self):
        # measured against the asymptotic slope; the rounded literature value
        # 2.277 sits above the true limit and would invert the comparison
        from ssrchain import critical_pair

        alpha_c = critical_pair().alpha_c
        r10 = maximize_over_separation(10)
        r100 = maximize_over_separation(100)
        dev10 = abs(r10.gamma_ssr.real - alpha_c * 10) / (alpha_c * 10)
        dev100 = abs(r100.gamma_ssr.real - alpha_c * 100) / (alpha_c * 100)
        assert dev10 > dev100

    def test_rejects_single_qubit(self):
        with pytest.raises(ContractViolationError):
            maximize_over_separation(1)

    def test_matches_the_scan_bracketed_maximizer(self):
        # the law seed reaches the fold that the 16-separation scan bracketed
        for n in [*range(2, 301), 500, 1000, 3200, 10**4, 10**5, 10**6]:
            res = maximize_over_separation(n)
            l_c, gamma = parent_maximize(n)
            assert abs(res.l_critical - l_c) <= 1e-12 * l_c, n
            assert abs(res.gamma_ssr - gamma) <= 1e-12 * gamma, n

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    def test_golden_section_agrees_with_coalescence_solve(self, n):
        # derivative-free search on the rate of the leading pole, found by
        # a fresh tracker at every separation, peaks at the fold
        res = maximize_over_separation(n)
        a, b = 0.8 * res.l_critical, 1.25 * res.l_critical
        rate = lambda x: -2.0 * _PoleTracker(n).pair(x)[0].imag  # noqa: E731
        l_gs, _ = golden_max(rate, a, b, abstol=1e-10 * (b - a))
        assert abs(l_gs - res.l_critical) / res.l_critical < 1e-8

    def test_ssr_beats_dicke(self):
        for n in (2, 5, 20):
            res = maximize_over_separation(n)
            assert res.gamma_ssr.real > n

    def test_system_size_shrinks(self):
        res = maximize_over_separation(50)
        assert 50 * res.l_critical < 2.0 * 1.1 / 50


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, a, b, abstol):
    """Test-local golden-section search for the maximum of fn over (a, b):
    (x, fn(x)).  Derivative-free, so safe at the branch-point kink of the
    rate at the fold."""
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


def mp_fold(n):
    """Test-local 30-digit SSR point (Gamma_SSR, L_c), sharing no code with
    the solver.

    N = 2 solves the closed form L/2 + 1 = ln(2/L), Gamma = 1 + 2/L.  Else
    f is carried through N explicit unit cells (mp_axis_im), Delta T =
    [[(Delta + i/2)/p, i p/2], [-i/(2p), (Delta - i/2) p]] with p =
    -exp(i Delta L); on the axis Delta = -iy the deflated f / i is real, and
    Newton on (phi, dphi/dy) = 0 with mpmath derivatives finds the fold from
    the large-N law (y, L) = (alpha_c N/2, beta_c/N^2).
    """
    with mp.workdps(30):
        if n == 2:
            l = mp.findroot(lambda x: x / 2 + 1 - mp.log(2 / x), mp.mpf("0.5"))
            return float(1 + 2 / l), float(l)

        phi = lambda y, l: mp_axis_im(n, 1, l, y)  # noqa: E731
        tau = mp.findroot(lambda t: 4 * t * mp.cosh(t) - (t * t + 4) * mp.sinh(t), 2.4)
        beta = tau * tau - 4
        y, l = 2 * n / beta, beta / n**2
        for _ in range(40):
            f0, fy = phi(y, l), mp.diff(phi, (y, l), (1, 0))
            fl, fyy = mp.diff(phi, (y, l), (0, 1)), mp.diff(phi, (y, l), (2, 0))
            fyl = mp.diff(phi, (y, l), (1, 1))
            det = fy * fyl - fl * fyy
            dy, dl = (f0 * fyl - fl * fy) / det, (fy * fy - f0 * fyy) / det
            y, l = y - dy, l - dl
            if abs(dy) < mp.mpf("1e-24") * y and abs(dl) < mp.mpf("1e-24") * l:
                return float(2 * y), float(l)
    raise ArithmeticError(f"mpmath fold did not converge at N = {n}")


def mp_axis_parts(n, y, l):
    """Test-local (E, s_N, s_(N-1)) of the closed form of Im f(-iy) in
    _axis_im's docstring: E = e^(phi - t), s_k = -expm1(-2k phi) / phi,
    phi = 2 asinh(sqrt(sinh^2(t/2) + sinh(t) / (4y))), t = yL."""
    t = y * l
    phi = 2 * mp.asinh(mp.sqrt(mp.sinh(t / 2) ** 2 + mp.sinh(t) / (4 * y)))
    return mp.exp(phi - t), -mp.expm1(-2 * n * phi) / phi, -mp.expm1(-2 * (n - 1) * phi) / phi


def mp_psi(n, y, l):
    """Test-local psi = (1/2 - y) E s_N + y s_(N-1): Im f(-iy) is psi times
    w^N and a positive factor."""
    e, s_n, s_m = mp_axis_parts(n, y, l)
    return (mp.mpf(1) / 2 - y) * e * s_n + y * s_m


def mp_tau_c():
    """tau_c of the large-N laws, 4 tau cosh tau = (tau^2 + 4) sinh tau, at
    the working precision."""
    return mp.findroot(lambda t: 4 * t * mp.cosh(t) - (t * t + 4) * mp.sinh(t), mp.mpf("2.4"))


@functools.lru_cache(maxsize=None)
def mp_psi_fold(n):
    """Test-local 40-digit fold (y, L) of the closed-form psi, as mpmath
    numbers: Newton on (psi, dpsi/dy) = 0 with mpmath derivatives, from the
    large-N law (y, L) = (alpha_c N/2, beta_c/N^2).  O(1) in N, unlike the
    N-cell products of mp_fold."""
    with mp.workdps(40):
        phi = lambda y, l: mp_psi(n, y, l)  # noqa: E731
        beta = mp_tau_c() ** 2 - 4
        y, l = 2 * n / beta, beta / n**2
        for _ in range(40):
            f0, fy = phi(y, l), mp.diff(phi, (y, l), (1, 0))
            fl, fyy = mp.diff(phi, (y, l), (0, 1)), mp.diff(phi, (y, l), (2, 0))
            fyl = mp.diff(phi, (y, l), (1, 1))
            det = fy * fyl - fl * fyy
            dy, dl = (f0 * fyl - fl * fy) / det, (fy * fy - f0 * fyy) / det
            y, l = y - dy, l - dl
            if abs(dy) < mp.mpf("1e-34") * y and abs(dl) < mp.mpf("1e-34") * l:
                return y, l
    raise ArithmeticError(f"mpmath fold of psi did not converge at N = {n}")


def law_seed(n):
    """The maximizer's Newton seed (y, L) = (alpha_c N / 2, beta_c / N^2),
    from the large-N laws."""
    crit = critical_pair()
    return 0.5 * crit.alpha_c * n, crit.beta_c / n**2


def parent_maximize(n, bracket=None):
    """Test-local copy of maximize_over_separation as it was before its
    fold Newton was seeded from the large-N laws: (L_c, Gamma_SSR).

    It scanned Im f(-iy) on the tracker's y-grid at the 16 separations x_0
    < ... < x_15 of scan_points(n, bracket), took x_k as the last one whose
    row has a sign change, and ran the fold Newton from the lower end of
    the leading root's sign-change cell on row k, at x_k.  The fold had to
    lie in (x_k, x_(k+1)), or up to 1e-4 past x_(k+1), where the colliding
    roots can share one grid cell, above that seed, and the coalescing pair
    had to resolve there on the scalar f."""
    xs = scan_points(n, bracket)
    tracker = _PoleTracker(n)
    g = tracker._ygrid
    cells = [_sign_cells(row) for row in scan_rows(n, 1, xs, g)]
    rooted = [k for k in range(16) if cells[k].size]
    if not rooted or rooted[-1] == 15:
        raise BracketError(f"({xs[0]:.6g}, {xs[-1]:.6g}) does not bracket the fold")
    k = rooted[-1]
    y0, l0 = float(g[cells[k][0]]), xs[k]
    y, l_fold, converged = _fold_newton(n, y0, l0)
    if not (converged and xs[k] < l_fold < xs[k + 1] * (1.0 + 1e-4) and y > y0):
        raise BracketError(f"the fold Newton from ({y0:.6g}, {l0:.6g}) was rejected")
    fold = -1j * y
    fn = tracker.fn(l_fold)
    if not all(abs(z - fold) <= 1e-3 * (1.0 + y) for z in coalescent_pair(fn, fold, scale=y + 1.0)):
        raise BracketError(f"the coalescing pair does not resolve at ({y:.6g}, {l_fold:.6g})")
    return l_fold, 2.0 * y


class TestAxisJet:
    """_axis_jet against mpmath derivatives of the closed form and against
    the axis scan it shares that form with."""

    @staticmethod
    def points(n):
        y, l = mp_psi_fold(n)
        return [(float(b * y), float(a * l)) for a in (0.5, 1, 3) for b in (0.5, 1, 2)]

    @pytest.mark.parametrize("n", [2, 20, 100, 10_000])
    def test_against_mpmath(self, n):
        # each component within 1e-12 of the size of the two terms of the
        # difference form, y (s_(N-1) - E s_N) and E s_N / 2, that it sums;
        # the plain form of _axis_im is off by about N eps of that size
        def terms(y, l):
            e, s_n, s_m = mp_axis_parts(n, y, l)
            return y * (s_m - e * s_n), e * s_n / 2

        with mp.workdps(40):
            for y, l in self.points(n):
                got = _axis_jet(n, y, l)
                at = (mp.mpf(y), mp.mpf(l))
                for g, order in zip(got, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]):
                    a, b = (mp.diff(lambda u, v: terms(u, v)[i], at, order) for i in (0, 1))
                    assert abs(g - (a + b)) <= 1e-12 * (abs(a) + abs(b))

    @pytest.mark.parametrize("n", [2, 5, 20, 100, 101, 10_000])
    @pytest.mark.parametrize("sr_index", [1, 2])
    def test_value_is_the_axis_scan(self, n, sr_index):
        w = -1.0 if n * sr_index % 2 else 1.0
        for y, l in self.points(n):
            value = _axis_jet(n, y, l)[0]
            scan = w * _axis_im(n, sr_index, l, np.array([y]))[0]
            with mp.workdps(30):
                e, s_n, s_m = mp_axis_parts(n, mp.mpf(y), mp.mpf(l))
                rounding = 8 * EPS * float(abs(0.5 - y) * e * s_n + y * s_m)
            assert abs(value - scan) <= rounding
            if abs(scan) > rounding:
                assert (value < 0.0) == (scan < 0.0)

    @pytest.mark.parametrize("n, sep", [(2, 3.0), (100, 3.0), (1000, 0.5)])
    def test_not_finite_where_the_scan_has_no_data(self, n, sep):
        y = np.linspace(700.0 / sep, 712.0 / sep, 2001)
        data = np.isfinite(_axis_im(n, 1, sep, y))
        jets = np.array([_axis_jet(n, v, sep) for v in y.tolist()])
        assert 0 < np.count_nonzero(data) < y.size
        assert np.array_equal(np.isfinite(jets[:, 0]), data)
        assert not np.isfinite(jets[~data]).any()


class TestFoldNewton:
    @pytest.mark.parametrize("n", [2, 20, 100])
    def test_closed_form_fold_is_the_product_fold(self, n):
        gamma, l_c = mp_fold(n)
        y, l = mp_psi_fold(n)
        assert abs(2 * y - gamma) <= 1e-15 * gamma
        assert abs(l - l_c) <= 1e-15 * l_c

    @pytest.mark.parametrize("n", [2, 20, 100, 1000, 10_000])
    def test_matches_mpmath_fold(self, n):
        if n <= 100:
            gamma, l_c = mp_fold(n)
        else:
            y, l = mp_psi_fold(n)
            gamma, l_c = float(2 * y), float(l)
        res = maximize_over_separation(n)
        assert res.gamma_ssr.imag == 0.0
        assert abs(res.gamma_ssr.real - gamma) <= 1e-13 * gamma
        assert abs(res.l_critical - l_c) <= 1e-13 * l_c

    def test_thousand_qubits_resolve_the_n_to_the_minus_four_term(self):
        # Gamma / N - alpha_c = c / N^4 + ..., c -> 0.2130 (0.21302 at the
        # 40-digit fold of N = 1000); critical_pair()'s alpha_c is itself
        # 1.8e-15 off, so alpha_c is solved here at 40 digits
        n = 1000
        res = maximize_over_separation(n)
        with mp.workdps(40):
            alpha_c = 4 / (mp_tau_c() ** 2 - 4)
            want = (2 * mp_psi_fold(n)[0] / n - alpha_c) * n**4
            got = (mp.mpf(res.gamma_ssr.real) / n - alpha_c) * n**4
        assert abs(want - mp.mpf("0.2130")) < 1e-4
        assert abs(got - want) < 0.01

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_converges_in_a_handful_of_steps(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(ssr, "_axis_jet", lambda *a: calls.append(a) or _axis_jet(*a))
        y, l, converged = _fold_newton(n, *law_seed(n))
        assert converged
        assert 0 < len(calls) <= 7

    @pytest.mark.parametrize("n", [20, 100])
    def test_stable_under_ulp_moves_of_the_seed(self, n):
        y0, l0 = law_seed(n)
        ys = []
        for k in (-3, -1, 1, 3):
            y, _, converged = _fold_newton(n, y0 + k * math.ulp(y0), l0 - k * math.ulp(l0))
            assert converged
            ys.append(y)
        assert max(ys) - min(ys) <= 1e-12 * max(ys)

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 1_000_000])
    def test_law_seed_has_a_margin(self, n):
        # the law's own error is 21% in L and 0.8% in y at N = 2 and falls as
        # N^-2; Newton still reaches the same fold with either coordinate
        # of the seed moved 20% or more (not both up: from (1.1 y, 1.2 L) it
        # fails for N >= 8)
        y0, l0 = law_seed(n)
        want, _, _ = _fold_newton(n, y0, l0)
        for fy, fl in ((0.8, 1.0), (1.2, 1.0), (1.0, 0.7), (1.0, 1.2)):
            y, _, converged = _fold_newton(n, fy * y0, fl * l0)
            assert converged and abs(y - want) <= 1e-12 * want, (fy, fl)

    def test_thousand_qubits_follow_the_large_n_laws(self):
        crit = critical_pair()
        res = maximize_over_separation(1000)
        assert abs(res.gamma_ssr.real / (crit.alpha_c * 1000) - 1.0) < 1e-4
        assert abs(res.l_critical * 1000**2 / crit.beta_c - 1.0) < 1e-4

    def test_ten_thousand_qubits_follow_the_large_n_laws(self):
        # Gamma / N - alpha_c falls like N^-4 and L_c N^2 - beta_c like N^-2.
        # The first is 1e-17 relative here, below the rounding floor: Gamma
        # is 1.5e-15 off a 40-digit alpha_c N and 3e-16 off critical_pair()'s,
        # which is itself 1.8e-15 off.  The second is 1.4285e-8, where the
        # N^-2 law predicts 1.4286e-8
        crit = critical_pair()
        res = maximize_over_separation(10_000)
        assert abs(res.gamma_ssr.real / (crit.alpha_c * 10_000) - 1.0) < 1e-9
        assert abs(res.l_critical * 10_000**2 / crit.beta_c - 1.0) < 5e-8

    def test_ten_thousand_qubits_need_no_map_and_no_newton_on_f(self, monkeypatch):
        # the fold is solved on the closed-form axis function: no separation
        # past the fold is solved for its complex pair
        calls = []
        for name in ("grid_scan_minima", "_newton"):
            real = getattr(ssr, name)
            monkeypatch.setattr(ssr, name, lambda *a, _r=real, **kw: calls.append(a) or _r(*a, **kw))
        maximize_over_separation(10_000)
        assert not calls

    REJECTIONS = {
        "step_test_failed": "did not converge",
        "not_leading": "lies below the fold .* not the leading pole's",
        "no_coalescence": "coalescing pair does not resolve",
        "model_roots_2e-3_off": "coalescing pair does not resolve",
        "model_roots_5e-4_off": None,  # inside the 1e-3 (1 + y) tolerance
    }

    @pytest.mark.parametrize("outcome", list(REJECTIONS))
    def test_rejected_newton_raises_bracket_error(self, outcome, monkeypatch):
        real = _fold_newton

        def fake(n, y0, l0):
            y, l, _ = real(n, y0, l0)
            return {
                "step_test_failed": (y, l, False),
                # below L_c the Markovian-like root lies below the fold's y
                "not_leading": (y, 0.9 * l, True),
                "no_coalescence": (1.01 * y, l, True),  # on no fold
                # the model's two roots lie about the shift away
                "model_roots_2e-3_off": (y + 2e-3 * (1.0 + y), l, True),
                "model_roots_5e-4_off": (y + 5e-4 * (1.0 + y), l, True),
            }[outcome]

        monkeypatch.setattr(ssr, "_fold_newton", fake)
        if self.REJECTIONS[outcome] is None:
            moved = maximize_over_separation(2).gamma_ssr.real
            assert moved == 2.0 * fake(2, *law_seed(2))[0]
            return
        with pytest.raises(BracketError, match=self.REJECTIONS[outcome]):
            maximize_over_separation(2)


def listed_axis_grid(n_qubits, depth):
    """Test-local copy of ssr._axis_grid as one Python expression per point."""
    lo, knee, hi = 1e-4 * max(1, n_qubits), 0.35 * n_qubits, depth * n_qubits
    grid = [lo * (knee / lo) ** (i / 199) for i in range(200)]
    return np.array(grid + [knee + (hi - knee) * i / 400 for i in range(1, 401)])


class TestAxisGrid:
    @pytest.mark.parametrize("depth", [2.5, 7.0])
    def test_same_bits_as_one_expression_per_point(self, depth):
        for n in [*range(1, 3001), 10_000, 100_000, 1_000_000]:
            got, want = _axis_grid(n, depth), listed_axis_grid(n, depth)
            assert got.dtype == want.dtype and got.shape == (600,)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), n


class TestLeadingPoleCheck:
    """The maximizer evaluates _axis_im only on the grid points below the
    fold's y: a cell counts exactly when both of its ends lie below y."""

    def spy(self, monkeypatch, edit=None):
        rows, real = [], _axis_im

        def spied(n, sr_index, sep, ys):
            rows.append(ys.copy())
            row = real(n, sr_index, sep, ys)
            return row if edit is None else edit(ys, row)

        monkeypatch.setattr(ssr, "_axis_im", spied)
        return rows

    def test_only_points_below_the_fold(self, monkeypatch):
        rows = self.spy(monkeypatch)
        res = maximize_over_separation(100)
        assert len(rows) == 1
        (ys,) = rows
        assert 0 < ys.size < 400
        assert (ys < 0.5 * res.gamma_ssr.real).all()
        assert ys.tolist() == _axis_grid(100)[: ys.size].tolist()

    @pytest.mark.parametrize("n", [2, 100])
    def test_sign_change_below_the_fold_raises(self, n, monkeypatch):
        # flip the last grid point below y: its cell's upper end is below y
        y = 0.5 * maximize_over_separation(n).gamma_ssr.real
        top = _axis_grid(n)[_axis_grid(n) < y].max()
        self.spy(monkeypatch, lambda ys, row: np.where(ys == top, -row, row))
        with pytest.raises(BracketError, match="not the leading pole's"):
            maximize_over_separation(n)

    @pytest.mark.parametrize("n", [2, 100])
    def test_sign_change_in_the_cell_holding_y_does_not_raise(self, n, monkeypatch):
        # flip every grid point at or above y: only the cell that holds y
        # gains a sign change
        want = maximize_over_separation(n)
        y = 0.5 * want.gamma_ssr.real
        self.spy(monkeypatch, lambda ys, row: np.where(ys >= y, -row, row))
        assert maximize_over_separation(n) == want

    @pytest.mark.parametrize("n", [2, 20, 100, 10_000])
    def test_prefix_row_is_the_full_row_prefix(self, n):
        l_fold = maximize_over_separation(n).l_critical
        g = _axis_grid(n)
        full = _axis_im(n, 1, l_fold, g).view(np.uint64).tolist()
        for k in range(g.size + 1):
            assert _axis_im(n, 1, l_fold, g[:k]).view(np.uint64).tolist() == full[:k], k


@functools.lru_cache(maxsize=None)
def default_fold(n):
    return maximize_over_separation(n)


class TestBracket:
    """The scan-bracketed maximizer (parent_maximize), from every bracket
    that holds the fold, finds the fold of the law-seeded solve; its 16
    rate samples once missed it near either end of a bracket."""

    @staticmethod
    def assert_default_fold(n, lo, hi):
        want = default_fold(n)
        l_c, gamma = parent_maximize(n, (lo * want.l_critical, hi * want.l_critical))
        assert abs(l_c - want.l_critical) <= 1e-12 * want.l_critical
        assert abs(gamma - want.gamma_ssr) <= 1e-12 * want.gamma_ssr.real

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 10_000])
    @pytest.mark.parametrize("lo, hi", [(0.7, 1.02), (0.3, 1.0001), (0.9999, 3.0)])
    def test_tight_brackets(self, n, lo, hi):
        self.assert_default_fold(n, lo, hi)

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 10_000])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(lo=st.floats(0.01, 0.999), hi=st.floats(1.001, 100.0))
    def test_random_brackets(self, n, lo, hi):
        self.assert_default_fold(n, lo, hi)

    @pytest.mark.parametrize("n", [2, 3])
    def test_law_bracket_holds_the_few_qubit_fold(self, n):
        # (0.05, 2.0) was the default bracket below N = 4
        l_c, gamma = parent_maximize(n, (0.05, 2.0))
        res = maximize_over_separation(n)
        assert abs(res.l_critical - l_c) <= 1e-12 * l_c
        assert abs(res.gamma_ssr - gamma) <= 1e-12 * gamma

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_scan_point_at_or_just_below_the_fold(self, n, eps):
        # x_10 = 100 lo sits eps below L_c: from 0 up to about 3e-6 below
        # the colliding roots share a grid cell and the row shows no sign
        # change, so the fold lies at or just past the cell's upper end
        self.assert_default_fold(n, 0.01 * (1.0 - eps), 10.0 * (1.0 - eps))

    def test_thirteen_qubits_keep_the_nearest_pole(self):
        # the warm rate scan of an earlier maximizer jumped to a farther
        # pair and returned L = 0.021861, Gamma = 10.727 + 15.397i, off the fold
        res = maximize_over_separation(13)
        assert res.gamma_ssr.real == pytest.approx(29.5974255938, abs=1e-9)
        assert res.gamma_ssr.imag == 0.0
        assert res.l_critical == pytest.approx(0.0104462474660, abs=1e-12)


class TestDegeneratePairProbe:
    def test_below_fold_real_and_distinct(self):
        (a, b), = degenerate_pair_probe(2, [0.5 * ORACLE_LC2])
        assert abs(a.gamma.imag) < 1e-9
        assert abs(b.gamma.imag) < 1e-9
        assert abs(a.gamma.real - b.gamma.real) > 1.0

    def test_above_fold_conjugate_pair(self):
        (a, b), = degenerate_pair_probe(2, [1.5 * ORACLE_LC2])
        assert abs(a.gamma.real - b.gamma.real) < 1e-6
        assert abs(a.gamma.imag + b.gamma.imag) < 1e-6
        assert a.gamma.imag > 0.1

    def test_at_fold_nearly_merged(self):
        (a, b), = degenerate_pair_probe(2, [ORACLE_LC2])
        assert abs(a.delta - b.delta) < 1e-3


class TestSweepAndFit:
    def test_sweep_monotone_small_n(self):
        entries = scaling_sweep(list(range(2, 11)))
        assert [err for _, err in entries] == [""] * 9
        res = [r for r, _ in entries]
        rates = [r.gamma_ssr.real for r in res]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        # super-superradiance beats Dicke at every N
        assert all(r.gamma_ssr.real > r.n_qubits for r in res)

    def test_sweep_rejects_n1(self):
        with pytest.raises(ContractViolationError):
            scaling_sweep([1, 2, 3])

    def test_sweep_keeps_input_order(self):
        # any order: each entry is the cold solve of its N
        assert scaling_sweep([5, 2, 3]) == [(maximize_over_separation(n), "") for n in (5, 2, 3)]

    def test_sweep_reads_a_generator_once(self):
        # the entries are those of the same N given as a list
        assert scaling_sweep(n for n in (2, 3)) == scaling_sweep([2, 3])

    def test_sweep_rejects_zero_jobs(self):
        with pytest.raises(ContractViolationError):
            scaling_sweep([2, 3], jobs=0)

    def test_sweep_entries_are_default_bracket_solves(self):
        # no warm start: each entry is the cold solve, bit for bit
        ns = [2, 3, 5, 8, 20]
        assert scaling_sweep(ns) == [(maximize_over_separation(n), "") for n in ns]

    def test_sweep_worker_count_does_not_change_entries(self):
        assert scaling_sweep(range(2, 6), jobs=2) == scaling_sweep(range(2, 6), jobs=1)

    def test_sweep_reports_failure_and_goes_on(self, monkeypatch):
        solve = ssr.maximize_over_separation

        def fail_at_3(n):
            if n == 3:
                raise BracketError("no interior maximum in (0.1, 0.2)")
            return solve(n)

        monkeypatch.setattr(ssr, "maximize_over_separation", fail_at_3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = scaling_sweep([2, 3, 4])
        assert entries[1] == (None, "BracketError: no interior maximum in (0.1, 0.2)")
        assert [r.n_qubits for r, _ in (entries[0], entries[2])] == [2, 4]
        assert entries[0][1] == entries[2][1] == ""

    def test_fit_recovers_exact_laws(self):
        synthetic = [
            SSRResult(n, 1.5 / n**2, complex(2.5 * n, 0.0), 1, 0.0)
            for n in (10, 20, 30, 40)
        ]
        fit = fit_scaling(synthetic, n_min_fit=10)
        assert fit.alpha == pytest.approx(2.5, abs=1e-12)
        assert fit.beta == pytest.approx(1.5, abs=1e-12)
        assert max(fit.gamma_deviations) < 1e-12
        assert max(fit.lc_deviations) < 1e-12

    def test_fit_reads_an_iterator_once(self):
        synthetic = [
            SSRResult(n, 1.5 / n**2, complex(2.5 * n, 0.0), 1, 0.0)
            for n in (10, 20, 30, 40)
        ]
        assert fit_scaling(iter(synthetic), n_min_fit=10) == fit_scaling(synthetic, n_min_fit=10)

    def test_fit_needs_three_points(self):
        synthetic = [SSRResult(20, 1e-3, complex(45, 0), 1, 0.0)] * 2
        with pytest.raises(ContractViolationError):
            fit_scaling(synthetic, n_min_fit=20)
