import cmath
import dataclasses
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from ssrchain import (
    ChainParams,
    CharFn,
    ContractViolationError,
    SingularDetuningError,
    closed_form_residual,
    find_collective_rates,
    markovian_polynomial,
)
from ssrchain.charfn import _INF, _axes, _ipow, _sinc
from ssrchain.core import _EPS as EPS, chebyshev_u_pair
from ssrchain.output import Grid
from ssrchain.rootfind import default_window, refine


def sr(n, sep, sr_index=1):
    return ChainParams(n, sep, mode="sr", sr_index=sr_index)


class TestEval:
    def test_single_qubit_pole_is_exact_zero(self):
        fn = CharFn(sr(1, 0.0))
        assert fn(-0.5j) == 0

    def test_single_qubit_pole_independent_of_separation(self):
        for sep in (0.1, 1.0, 10.0):
            assert abs(CharFn(sr(1, sep))(-0.5j)) < 1e-14

    def test_entire_at_origin(self):
        # undeflated: f(0) = 0 for N >= 2; deflated: finite and nonzero
        f = CharFn(sr(3, 0.4))
        assert f(0.0) == 0
        h = CharFn(sr(3, 0.4), deflation_order=2)
        assert abs(h(0.0)) > 0.1

    def test_origin_limit_matches_series(self):
        h = CharFn(sr(4, 0.7), deflation_order=3)
        inner = (h(1e-7) + h(-1e-7) + h(1e-7j) + h(-1e-7j)) / 4.0
        assert abs(h(0.0) - inner) < 1e-9

    def test_parity_of_zero_set(self):
        rng = np.random.default_rng(2)
        f1 = CharFn(sr(3, 0.4, sr_index=1))
        f2 = CharFn(sr(3, 0.4, sr_index=2))
        for _ in range(100):
            d = complex(rng.uniform(-2, 2), rng.uniform(-3, 0))
            assert f1(d) == pytest.approx((-1.0) ** 3 * f2(d), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_conjugate_pair_symmetry(self, n):
        # f(-conj(Delta)) = (-1)^N conj(f(Delta)); the zero set is mirror
        # symmetric about the imaginary axis either way
        fn = CharFn(sr(n, 0.2))
        sign = (-1.0) ** n
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = complex(rng.uniform(-3, 3), rng.uniform(-6, 0))
            lhs = fn(-d.conjugate())
            rhs = sign * fn(d).conjugate()
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 100])
    @pytest.mark.parametrize("sep", [0.01, 0.5, 3.0])
    def test_conjugate_pair_symmetry_is_exact(self, n, sep):
        # bit for bit wherever f is finite: find_collective_rates gives a
        # mirror partner the classification of the pole it mirrors
        win = default_window(n)
        rng = np.random.default_rng(n)
        deltas = rng.uniform(win.re_min, win.re_max, 60) + 1j * rng.uniform(win.im_min, win.im_max, 60)
        for order in (0, n - 1):
            fn = CharFn(sr(n, sep), deflation_order=order)
            sign = (-1.0) ** (n - order)  # Delta^order carries (-1)^order
            for d in deltas.tolist():
                lhs, rhs = fn(-d.conjugate()), sign * fn(d).conjugate()
                if cmath.isfinite(rhs):
                    assert lhs == rhs
                else:
                    assert not cmath.isfinite(lhs)

    def test_mode_agreement_on_condition(self):
        # Omega L = n pi exactly: general mode equals the sr-condition form
        gen = CharFn(ChainParams(4, 2 * math.pi / 50.0, mode="general", omega=50.0))
        srf = CharFn(ChainParams(4, 2 * math.pi / 50.0, mode="sr", sr_index=2))
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = complex(rng.uniform(-3, 3), rng.uniform(-4, 0))
            assert gen(d) == pytest.approx(srf(d), rel=1e-12, abs=1e-12)

    def test_deflation_contract(self):
        with pytest.raises(ContractViolationError):
            CharFn(sr(3, 0.4), deflation_order=1)
        with pytest.raises(ContractViolationError):
            CharFn(ChainParams(3, 0.4, mode="general"), deflation_order=2)

    def test_overflow_guard_returns_inf(self):
        fn = CharFn(sr(2, 1.0))
        assert not cmath.isfinite(fn(-4000.0j))

    @pytest.mark.parametrize("mode", ["sr", "general"])
    def test_noise_scale_is_inf_where_the_terms_overflow(self, mode):
        # the recurrence overflows to nan here; max(1, nan) would read 1
        fn = CharFn(ChainParams(100, 3.0, mode=mode))
        for d in (-50j, 100 - 200j, -250j):
            assert not cmath.isfinite(fn(d)) and fn.noise_scale(d) == math.inf

    def test_log10_magnitude_matches_scalar(self):
        rng = np.random.default_rng(1)
        for params, order in (
            (sr(6, 0.3), 5),
            (sr(6, 0.3), 0),
            (ChainParams(4, 0.21, mode="general", omega=50.0), 0),
        ):
            fn = CharFn(params, deflation_order=order)
            pts = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-4, -0.05, 40)
            grid = fn.log10_magnitude(pts)
            for z, lg in zip(pts, grid):
                assert lg == pytest.approx(math.log10(abs(fn(complex(z)))), abs=1e-9)

    def test_log10_magnitude_survives_huge_arguments(self):
        # N = 120 far down the axis overflows |f| itself but not its log
        fn = CharFn(sr(120, 0.01), deflation_order=0)
        val = fn.log10_magnitude(np.array([-200.0j]))[0]
        assert math.isfinite(val) and val > 100.0


def scaled_value(fn, z):
    """eval_scaled's (mantissa, scale) turned back into f, inf beyond the
    float range."""
    m, s = fn.eval_scaled(z)
    with np.errstate(over="ignore", invalid="ignore"):
        return m * 10.0**s


class TestEvalMany:
    """f on many points in one call, CharFn.eval_scaled, against scalar
    eval and mpmath."""

    # the grid reaches |Im Delta L| = 900, where exp overflows, and, at
    # N = 30, where the terms of scalar eval overflow long before f does
    GRID = [complex(x, y) for y in np.linspace(-300.0, 0.0, 61) for x in np.linspace(-40.0, 40.0, 41)]

    @pytest.mark.parametrize(
        "fn",
        [
            CharFn(sr(5, 3.0), deflation_order=4),
            CharFn(sr(5, 3.0)),
            CharFn(sr(30, 1.0), deflation_order=29),
            CharFn(sr(30, 1.0)),
            CharFn(ChainParams(10, 0.37, mode="general")),
            CharFn(ChainParams(30, 1.0, mode="general")),
            CharFn(ChainParams(7, 0.3, mode="markovian", omega=51.0)),
            CharFn(ChainParams(7, math.pi / 50, mode="markovian", omega=50.0)),
        ],
        ids=["sr-deflated", "sr", "sr30-deflated", "sr30", "general", "general30", "markovian", "markovian-w"],
    )
    def test_matches_scalar_eval(self, fn):
        got = scaled_value(fn, np.array(self.GRID))
        want = np.array([fn.eval(z) for z in self.GRID])
        finite = np.isfinite(want)
        # finite wherever eval is; also beyond, where the terms of eval overflow
        assert np.isfinite(got[finite]).all()
        # relative to the size of the terms that cancel in f, which is what
        # rounding is relative to near a zero
        scale = np.array([fn.noise_scale(z) for z in np.array(self.GRID)[finite].tolist()])
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale)

    def test_non_finite_where_cmath_overflows(self):
        # cmath overflows where exp(i Delta L) does; eval_scaled is
        # non-finite there and only there
        fn = CharFn(sr(5, 3.0), deflation_order=4)
        z = np.array(self.GRID)
        overflowed = np.array([fn.eval(d) == _INF for d in self.GRID])
        assert 0 < overflowed.sum() < len(z)
        assert np.array_equal(overflowed, np.abs((z * 3.0).imag) > math.log(sys.float_info.max))
        m, _ = fn.eval_scaled(z)
        assert np.array_equal(~np.isfinite(m), overflowed)

    @pytest.mark.parametrize(
        "mode, n, sep, order, window",
        [
            ("sr", 100, 3.0, 99, (-0.02, 0.02, -4.02, -3.98)),
            ("sr", 100, 3.0, 0, (-0.02, 0.02, -4.02, -3.98)),
            ("general", 30, 1.0, 0, (-0.2, 0.2, -55.2, -54.8)),
        ],
    )
    def test_beyond_the_float_range(self, mode, n, sep, order, window):
        # |f| is above 1e500 here; eval is not finite, eval_scaled has
        # log10 |f| and the phase to 3e-12 (measured)
        params = ChainParams(n, sep, mode=mode)
        fn = CharFn(params, deflation_order=order)
        rng = np.random.default_rng(3)
        z = rng.uniform(window[0], window[1], 12) + 1j * rng.uniform(window[2], window[3], 12)
        m, s = fn.eval_scaled(z)
        with mp.workdps(40):
            sep_e, w = mp.mpf(params.phase_separation()), mp.mpc(params.phase_unit())
            for d, mi, si in zip(z.tolist(), m, s):
                assert not cmath.isfinite(fn.eval(d))
                want = mp_f(mp.mpc(d), sep_e, n, w) / mp.mpc(d) ** order
                assert float(mp.log10(abs(want))) > 500.0
                assert abs(math.log10(abs(mi)) + si - float(mp.log10(abs(want)))) <= 5e-12
                assert abs(cmath.phase(mi / complex(want / abs(want)))) <= 5e-12

    @pytest.mark.parametrize(
        "params, order",
        [
            (ChainParams(30, 1.0, mode="general"), 0),
            (ChainParams(100, 0.02, mode="general"), 0),
            (ChainParams(7, 0.3, mode="markovian", omega=51.0), 0),
            (sr(30, 1.0), 29),
            (sr(30, 1.0), 0),
        ],
    )
    def test_origin_is_eval(self, params, order):
        # off w = +-1, x has its pole at Delta = 0; every mode takes eval(0j)
        fn = CharFn(params, deflation_order=order)
        m, s = fn.eval_scaled(np.array([1.0 - 2.0j, 0j, -3.0j]))
        assert m[1] == fn.eval(0j) and s[1] == 0.0
        assert np.isfinite(m).all()

    @pytest.mark.parametrize("mode", ["sr", "general", "markovian"])
    def test_non_finite_inputs(self, mode):
        inf, nan = math.inf, math.nan
        bad = [complex(nan, 0.0), complex(inf, 0.0), complex(0.0, -inf), complex(nan, -1.0), complex(inf, -1.0)]
        for order in (0, 29) if mode == "sr" else (0,):
            fn = CharFn(ChainParams(30, 1.0, mode=mode), deflation_order=order)
            m, _ = fn.eval_scaled(np.array(bad + [1.0 - 2.0j]))
            assert not np.isfinite(m[:-1]).any() and np.isfinite(m[-1])


def every_step_scaled(fn, z):
    """Test-local copy of CharFn._scaled as it was before the rescale
    cadence: the rescale check runs after every step of the recurrence.
    It shares the set-up, so only the cadence differs."""
    n = fn.params.n_qubits
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x2, m11 = fn._setup(z)
        uk = np.ones_like(x2)
        ukm1 = np.zeros_like(x2)
        ls = np.zeros(x2.shape, dtype=float)
        for _ in range(n - 1):
            ukm1, uk = uk, x2 * uk - ukm1
            mag = np.abs(uk)
            mask = mag > 1e100
            if mask.any():
                uk = np.where(mask, uk / np.where(mask, mag, 1.0), uk)
                ukm1 = np.where(mask, ukm1 / np.where(mask, mag, 1.0), ukm1)
                ls = ls + np.where(mask, np.log10(np.where(mask, mag, 1.0)), 0.0)
        return uk * m11 - z * ukm1, ls


def bits(a):
    """The bit patterns of a float or complex array (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(a).view(np.uint64)


def window_grid(re_min, re_max, im_min, im_max, count=41):
    res = np.linspace(re_min, re_max, count)
    ims = np.linspace(im_min, im_max, count)
    return (res[None, :] + 1j * ims[:, None]).ravel()


class TestRescaleCadence:
    """_scaled checks for a rescale every few steps instead of every
    step; compared with the every-step loop it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 100])
    @pytest.mark.parametrize("sep", [0.01, 0.1, 0.5, 1.0, 3.0])
    def test_bit_identical_without_rescale(self, n, sep, monkeypatch):
        win = default_window(n)
        z = window_grid(win.re_min, win.re_max, win.im_min, win.im_max)
        fns = [CharFn(sr(n, sep), deflation_order=order) for order in (0, n - 1)]
        h, ls = fns[0]._scaled(z)
        got = [(*fn.eval_scaled(z), fn.log10_magnitude(z)) for fn in fns]
        monkeypatch.setattr(CharFn, "_scaled", every_step_scaled)
        ref_h, ref_ls = every_step_scaled(fns[0], z)
        want = [(*fn.eval_scaled(z), fn.log10_magnitude(z)) for fn in fns]
        plain = ref_ls == 0.0
        assert np.array_equal(bits(h[plain]), bits(ref_h[plain]))
        assert np.array_equal(bits(ls[plain]), bits(ref_ls[plain]))
        # a point that rescales at every step also rescales at the cadence
        assert np.all(ls[~plain] != 0.0)
        for values, ref_values in zip(got, want):
            for v, ref in zip(values, ref_values):
                assert np.array_equal(bits(v[plain]), bits(ref[plain]))

    @pytest.mark.parametrize("n, sep", [(30, 3.0), (100, 0.5)])
    def test_rescaled_magnitudes_agree(self, n, sep, monkeypatch):
        z = window_grid(-1.5 * n, 1.5 * n, -250.0, 0.0, count=61)
        for order in (0, n - 1):
            fn = CharFn(sr(n, sep), deflation_order=order)
            assert np.count_nonzero(fn._scaled(z)[1]) > z.size // 2
            got = fn.log10_magnitude(z)
            with monkeypatch.context() as m:
                m.setattr(CharFn, "_scaled", every_step_scaled)
                want = fn.log10_magnitude(z)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.maximum(1.0, np.abs(want[finite])))

    def test_empty_batch(self):
        fn = CharFn(sr(30, 1.0), deflation_order=29)
        empty = np.array([], dtype=complex)
        h, ls = fn._scaled(empty)
        assert h.shape == ls.shape == (0,)
        m, s = fn.eval_scaled(empty)
        assert m.shape == s.shape == fn.log10_magnitude(empty).shape == (0,)

    def test_non_finite_points_in_a_batch(self):
        # the cadence comes from the finite |x| only: the good points keep
        # their good-only values bit for bit and the bad ones come back
        # non-finite
        fn = CharFn(sr(30, 1.0), deflation_order=29)
        good = np.array([3.0 - 2.0j, -1.0 - 20.0j, 0.5 - 0.1j])
        bad = np.array([complex(math.nan, -1.0), complex(0.0, -math.inf), complex(math.inf, -1.0)])
        z = np.concatenate([good, bad])
        h, ls = fn._scaled(z)
        ref_h, ref_ls = fn._scaled(good)
        assert np.array_equal(bits(h[:3]), bits(ref_h)) and np.array_equal(bits(ls[:3]), bits(ref_ls))
        assert ls[1] != 0.0  # one of the good points rescales
        assert not np.isfinite(h[3:]).any()
        assert not np.isfinite(fn.eval_scaled(z)[0][3:]).any()
        assert not np.isfinite(fn.log10_magnitude(z)[3:]).any()
        for v, ref in zip(fn.eval_scaled(z), fn.eval_scaled(good)):
            assert np.array_equal(bits(v[:3]), bits(ref))
        assert np.array_equal(bits(fn.log10_magnitude(z)[:3]), bits(fn.log10_magnitude(good)))

    @pytest.mark.parametrize("n, sep", [(100, 0.02), (30, 0.5)])
    def test_origin_does_not_change_other_points(self, n, sep):
        # off w = +-1, x is infinite at Delta = 0; the origin must not set
        # the rescale cadence of the rest of its batch
        fn = CharFn(ChainParams(n, sep, mode="general"), deflation_order=0)
        win = default_window(n)
        rng = np.random.default_rng(7)
        z = rng.uniform(win.re_min, win.re_max, 400) + 1j * rng.uniform(win.im_min, win.im_max, 400)
        with_origin = np.append(z, 0j)
        assert np.count_nonzero(fn._scaled(z)[1]) > 0  # some points rescale
        assert np.array_equal(bits(fn.log10_magnitude(with_origin)[:-1]), bits(fn.log10_magnitude(z)))
        for v, ref in zip(fn.eval_scaled(with_origin), fn.eval_scaled(z)):
            assert np.array_equal(bits(v[:-1]), bits(ref))

    def test_cached_constants_stay_out_of_identity(self):
        a = CharFn(sr(5, 0.3), deflation_order=4)
        b = CharFn(sr(5, 0.3), deflation_order=4)
        fresh = (repr(b), hash(b))
        a.eval(1.0 - 1.0j)
        a.eval_scaled(np.array([2.0 - 1.0j]))
        assert "_consts" in vars(a) and "_consts" not in vars(b)
        assert a == b and (repr(a), hash(a)) == fresh
        assert a != CharFn(sr(5, 0.3))
        assert [f.name for f in dataclasses.fields(CharFn)] == ["params", "deflation_order"]


def banded_and_whole(n, sep, mode, re_range, im_range, resolution):
    """log10_magnitude of one fieldmap grid, a band of rows at a time as
    output.Grid hands it out, and in one call."""
    fn = CharFn(ChainParams(n, sep, mode=mode), deflation_order=0)
    xs = np.linspace(*re_range, resolution)
    ys = np.linspace(*im_range, resolution)
    grid = Grid(xs, ys, lambda band: fn.log10_magnitude(xs[None, :] + 1j * band[:, None]))
    bands = [vals for _, vals in grid.bands()]
    assert len(bands) > 1
    return np.concatenate(bands), fn.log10_magnitude(xs[None, :] + 1j * ys[:, None])


class TestBandedMap:
    """A band of rows is its own batch, so the sr rescale cadence can
    differ from that of the whole grid."""

    @pytest.mark.parametrize("spec", [
        (2, 0.56, "sr", (-1.0, 1.0), (-3.2, -1.4), 256),
        (100, 1.757e-4, "sr", (-4.0, 4.0), (-118.0, -110.0), 256),
        (100, 0.02, "general", (-6.0, 6.0), (-12.0, -0.5), 256),
    ])
    def test_bit_identical_without_rescale(self, spec):
        banded, whole = banded_and_whole(*spec)
        assert np.array_equal(bits(banded), bits(whole))

    @pytest.mark.parametrize("spec", [
        (300, 0.5, "sr", (-400.0, 400.0), (-700.0, -0.5), 300),
        (300, 0.5, "sr", (-400.0, 400.0), (-3000.0, -0.5), 160),
        (1000, 0.1, "sr", (-1500.0, 1500.0), (-2000.0, -0.5), 160),
    ])
    def test_rescaled_points_agree(self, spec):
        n, sep, mode, re_range, im_range, resolution = spec
        z = np.linspace(*re_range, resolution)[None, :] + 1j * np.linspace(*im_range, resolution)[:, None]
        fn = CharFn(ChainParams(n, sep, mode=mode), deflation_order=0)
        assert np.count_nonzero(fn._scaled(z)[1]) > z.size // 10
        banded, whole = banded_and_whole(*spec)
        finite = np.isfinite(whole)
        assert np.array_equal(np.isfinite(banded), finite)
        assert np.all(np.abs(banded[finite] - whole[finite]) <= 1e-12 * np.abs(whole[finite]))


class TestSeparableKernel:
    """_setup takes the trigonometry of u = Delta L on the two axes of a
    tensor grid; every value is that of the pointwise call bit for bit."""

    @pytest.mark.parametrize("spec", [
        (2, 0.56, "sr", (-1.0, 1.0), (-3.2, -1.4), 256),
        (100, 1.757e-4, "sr", (-4.0, 4.0), (-118.0, -110.0), 256),
        (100, 0.02, "general", (-6.0, 6.0), (-12.0, -0.5), 256),
        # exp(i Delta L) overflows below Im Delta = -710 / L, and the
        # recurrence rescales
        (30, 1.0, "general", (-30.0, 30.0), (-800.0, -0.5), 128),
        (300, 0.5, "sr", (-400.0, 400.0), (-3000.0, -0.5), 128),
    ])
    def test_grid_is_pointwise(self, spec):
        n, sep, mode, re_range, im_range, resolution = spec
        z = np.linspace(*re_range, resolution)[None, :] + 1j * np.linspace(*im_range, resolution)[:, None]
        re, im = _axes(z)
        assert re.shape == (1, resolution) and im.shape == (resolution, 1)
        flat = z.ravel()
        for order in (0, n - 1) if mode == "sr" else (0,):
            fn = CharFn(ChainParams(n, sep, mode=mode), deflation_order=order)
            grid = (*fn._scaled(z), *fn.eval_scaled(z), fn.log10_magnitude(z))
            point = (*fn._scaled(flat), *fn.eval_scaled(flat), fn.log10_magnitude(flat))
            for g, p in zip(grid, point):
                assert g.shape == z.shape
                assert np.array_equal(bits(g.ravel()), bits(p))
            if resolution == 128:
                finite = np.isfinite(grid[-1])
                assert 0 < np.count_nonzero(finite) < z.size
                assert np.count_nonzero(grid[1][finite]) > 0

    @pytest.mark.parametrize("perturb", ["real part", "imaginary part", "signed zero"])
    def test_perturbed_row_is_not_a_grid(self, perturb):
        xs = np.linspace(-1.0, 1.0, 9)
        z = xs[None, :] + 1j * np.linspace(-3.0, 0.0, 7)[:, None]
        assert _axes(z)[0].shape == (1, 9)
        bad = z.copy()
        if perturb == "real part":
            bad[3] = np.nextafter(bad[3].real, np.inf) + 1j * bad[3].imag
        elif perturb == "imaginary part":
            bad[3, 5] = complex(bad[3, 5].real, np.nextafter(bad[3, 5].imag, -np.inf))
        else:
            assert xs[4] == 0.0 and not np.signbit(xs[4])
            bad[3, 4] = complex(-0.0, bad[3, 4].imag)
        re, im = _axes(bad)
        assert re.shape == im.shape == bad.shape
        fn = CharFn(sr(30, 1.0))
        assert np.array_equal(bits(fn.log10_magnitude(bad).ravel()), bits(fn.log10_magnitude(bad.ravel())))

    def test_small_delta_needs_no_series(self):
        # x = w (cos u + sin u / (2 Delta)) has no removable singularity
        # but Delta = 0, which eval_scaled takes from eval; against the same
        # closed form in 40-digit mpmath, the recurrence loses about N eps
        # near x = w (measured 3.5e-16 at N = 2 and 8.9e-13 at N = 100)
        rng = np.random.default_rng(5)
        z = 10.0 ** rng.uniform(-14.0, -2.0, 100) * np.exp(-1j * rng.uniform(0.0, math.pi, 100))
        for n, sep in [(2, 0.56), (10, 0.1), (30, 3.0), (100, 1.757e-4)]:
            fn = CharFn(sr(n, sep), deflation_order=n - 1)
            w = fn.params.phase_unit().real
            got = scaled_value(fn, z)
            with mp.workdps(40):
                want = []
                for d in z.tolist():
                    dm = mp.mpc(d)
                    u = dm * mp.mpf(sep)
                    x = w * (mp.cos(u) + mp.sin(u) / (2 * dm))
                    m11 = (dm + 0.5j) / (w * mp.exp(1j * u))
                    want.append(complex(mp.chebyu(n - 1, x) * m11 - dm * mp.chebyu(n - 2, x)))
            want = np.array(want)
            assert np.all(np.abs(got - want) <= 2e-14 * n * np.abs(want))


def mp_f(delta, sep, n, w):
    """Test-local f = Delta^N (T^N)_11 at mpmath precision: the row vector
    (1, 0) carried through N explicit cells Delta T, p = w exp(i Delta L)."""
    p = w * mp.exp(1j * delta * sep)
    a, b = mp.mpc(1), mp.mpc(0)
    for _ in range(n):
        a, b = a * (delta + 0.5j) / p - b * 0.5j / p, a * 0.5j * p + b * (delta - 0.5j) * p
    return a


def mp_deflated_f(delta, sep, n, w):
    """mp_f of the sr branch divided by Delta^(N-1)."""
    return mp_f(delta, sep, n, w) / delta ** (n - 1)


def recurrence_eval(fn, delta):
    """Test-local copy of CharFn.eval on the w = +-1 branch as it was
    before the closed form: the three-term recurrence at every point."""
    p = fn.params
    n, w, le = p.n_qubits, p.phase_unit(), p.phase_separation()
    expo = n - 1 - fn.deflation_order
    try:
        u = delta * le
        x = w * (cmath.cos(u) + 0.5 * le * _sinc(u))
        m11 = (delta + 0.5j) / (w * cmath.exp(1j * u))
        uk, ukm1 = chebyshev_u_pair(x, n)
        h = uk * m11 - delta * ukm1
        return delta**expo * h if expo else h
    except (OverflowError, ZeroDivisionError):
        return _INF


def closed_form_error(n, sep, delta):
    """|eval - f| of the deflated sr-branch f over its noise_scale, f from
    40-digit mpmath."""
    fn = CharFn(sr(n, sep), deflation_order=n - 1)
    with mp.workdps(40):
        want = complex(mp_deflated_f(mp.mpc(delta), mp.mpf(sep), n, -1))
    return abs(fn.eval(delta) - want) / fn.noise_scale(delta)


class TestClosedFormKernel:
    """eval and noise_scale take U_{k-1} = sin(k theta) / sin(theta) where
    N |theta| <= 16 and the three-term recurrence beyond."""

    @pytest.mark.parametrize("n, sep, delta", [(1000, 1.757e-6, -1138j), (100, 1.76e-4, -113.8j)])
    def test_accurate_next_to_the_fold(self, n, sep, delta):
        # the plain recurrence was off by 100 and 15 eps here
        assert closed_form_error(n, sep, delta) <= 8 * EPS

    @pytest.mark.parametrize("n", [2, 5, 10, 30, 50, 100, 1000])
    @pytest.mark.parametrize("sep", [0.01, 0.1, 0.5, 1.0, 3.0, "fold"])
    def test_accuracy_matrix(self, n, sep):
        sep = 1.7569154 / n**2 if sep == "fold" else sep
        win = default_window(n)
        rng = np.random.default_rng(n)
        k = 10 if n == 1000 else 50
        deltas = rng.uniform(win.re_min, win.re_max, k) + 1j * rng.uniform(win.im_min, win.im_max, k)
        # the axis within 10% of the large-N fold, Delta = -1.1385i N
        deltas = np.concatenate([deltas, -1.1385j * n * np.linspace(0.9, 1.1, 11)]).tolist()
        # non-finite exactly where the recurrence overflows; at large N L
        # that is the whole window
        for order in (0, n - 1):
            fn = CharFn(sr(n, sep), deflation_order=order)
            for d in deltas:
                assert cmath.isfinite(fn.eval(d)) == cmath.isfinite(recurrence_eval(fn, d))
        finite = [d for d in deltas if cmath.isfinite(fn.eval(d))]
        assert max((closed_form_error(n, sep, d) for d in finite), default=0.0) <= 8 * EPS

    def test_closed_form_takes_the_fold(self, monkeypatch):
        # next to the fold N |theta| is O(1): no recurrence step runs
        monkeypatch.setattr("ssrchain.charfn.chebyshev_u_pair", None)
        for n in (2, 100, 10_000):
            fn = CharFn(sr(n, 1.7569154 / n**2), deflation_order=n - 1)
            assert cmath.isfinite(fn.eval(-1.1385j * n)) and fn.noise_scale(-1.1385j * n) >= 1.0


def generic_reference(params, delta):
    """(f, |V_{N-1} m11| + |Delta^2 V_{N-2}|) at 40 digits for a detuning
    given in doubles: f from mp_f, the two cancelling terms from the
    recurrence V_{k+1} = tr(Delta T) V_k - Delta^2 V_{k-1}, V_0 = 1."""
    n = params.n_qubits
    with mp.workdps(40):
        d, sep, w = mp.mpc(delta), mp.mpf(params.phase_separation()), mp.mpc(params.phase_unit())
        p = w * mp.exp(1j * d * sep)
        m11 = (d + 0.5j) / p
        trace, d2 = m11 + (d - 0.5j) * p, d * d
        vk, vkm1 = mp.mpc(1), mp.mpc(0)
        for _ in range(n - 1):
            vk, vkm1 = trace * vk - d2 * vkm1, vk
        return complex(mp_f(d, sep, n, w)), float(abs(vk * m11) + abs(d2 * vkm1))


class TestGenericPhaseNearOrigin:
    """Off the w = +-1 branch x = tr(Delta T) / (2 Delta) has a pole at the
    origin: the scalar path runs the entire recurrence of V_k = Delta^k U_k,
    and eval_scaled and log10_magnitude take Delta = 0 from eval."""

    DELTAS = [0j, 1e-12 * (1 - 1j), 1e-6j, -1e-4j, 1e-3 * (1 - 1j)]

    @pytest.mark.parametrize("mode, n, sep", [("general", 100, 0.02), ("general", 30, 0.5), ("markovian", 50, 0.1)])
    def test_finite_and_exact(self, mode, n, sep):
        fn = CharFn(ChainParams(n, sep, mode=mode))
        mant, scales = fn.eval_scaled(np.array(self.DELTAS))
        values = scaled_value(fn, np.array(self.DELTAS))
        logs = fn.log10_magnitude(np.array(self.DELTAS))
        for d, m, s, v, lg in zip(self.DELTAS, mant, scales, values, logs):
            want, terms = generic_reference(fn.params, d)
            scale = fn.noise_scale(d)
            assert scale == pytest.approx(max(1.0, terms), rel=1e-12)
            got = fn.eval(d)
            assert cmath.isfinite(got) and abs(got - want) <= 4 * EPS * scale
            # against the unfloored terms too; binary powering lost up to
            # 654 eps of them at (general, 30, 0.5)
            assert abs(got - want) <= 256 * EPS * terms
            # the rescaled mantissa rounds differently: up to 10.0 eps of
            # noise_scale at (markovian, 50, 0.1) (measured)
            assert cmath.isfinite(v) and abs(v - want) <= 11 * EPS * scale
            # the map and eval_scaled add (N - 1) log10|Delta| to the log of
            # Delta (T^N)_11, two logs that cancel to 1e-13 at |Delta| = 1e-12
            assert math.isfinite(lg) and abs(lg - math.log10(abs(want))) <= 1e-12
            assert abs(math.log10(abs(m)) + s - math.log10(abs(want))) <= 1e-12
            assert abs(cmath.phase(m / want)) <= 1e-13


class TestGenericPhaseAccuracy:
    """The recurrence of V_k against 40-digit mpmath on random points of the
    default window, in eps of noise_scale = max(1, |V_{N-1} m11| +
    |Delta^2 V_{N-2}|): rootfind._accept_tol is 64 eps of it.  The worst
    cells are where x is near +-1 (small L in general mode, Omega L near a
    multiple of 2 pi in markovian mode): 121 eps at (markovian, 100, 0.5),
    107 at (general, 100, beta_c / N^2), 73 at (markovian, 30, 0.5)."""

    @pytest.mark.parametrize("mode", ["general", "markovian"])
    @pytest.mark.parametrize("n", [2, 5, 10, 30, 50, 100])
    @pytest.mark.parametrize("sep", [0.01, 0.1, 0.5, 1.0, 3.0, "fold"])
    def test_accuracy_matrix(self, mode, n, sep):
        sep = 1.7569154 / n**2 if sep == "fold" else sep
        fn = CharFn(ChainParams(n, sep, mode=mode))
        win = default_window(n)
        rng = np.random.default_rng(n)
        deltas = rng.uniform(win.re_min, win.re_max, 50) + 1j * rng.uniform(win.im_min, win.im_max, 50)
        for d in deltas.tolist():
            got = fn.eval(d)
            if not cmath.isfinite(got):
                continue
            want, terms = generic_reference(fn.params, d)
            scale = fn.noise_scale(d)
            assert scale == pytest.approx(max(1.0, terms), rel=1e-11)
            assert abs(got - want) <= 3 * n * EPS * scale


def mp_jet(params, order, delta):
    """(f, f') of mp_f / Delta^order to 40 digits, the slope carried through
    the N explicit cells alongside the value.  At Delta = 0 the deflated
    pair is the mean and the central difference of mp_f / Delta^order over
    +-1e-20, with 20 more digits per power of Delta divided out."""
    n = params.n_qubits
    if delta == 0 and order:
        with mp.workdps(60 + 20 * order):
            sep, w, h = mp.mpf(params.phase_separation()), mp.mpc(params.phase_unit()), mp.mpf("1e-20")
            up, down = (mp_f(z, sep, n, w) / z**order for z in (h, -h))
            return (up + down) / 2, (up - down) / (2 * h)
    # mp_f cancels to |Delta|^order of its terms
    with mp.workdps(40 + (order and order * max(0, math.ceil(-math.log10(abs(delta)))))):
        sep, w = mp.mpf(params.phase_separation()), mp.mpc(params.phase_unit())
        d = mp.mpc(delta)
        p = w * mp.exp(1j * d * sep)
        dp, q = 1j * sep * p, 1 / p
        dq = -1j * sep * q
        a, b, da, db = mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(0)
        for _ in range(n):
            a, b, da, db = (
                (a * (d + 0.5j) - b * 0.5j) * q,
                (a * 0.5j + b * (d - 0.5j)) * p,
                (da * (d + 0.5j) + a - db * 0.5j) * q + (a * (d + 0.5j) - b * 0.5j) * dq,
                (da * 0.5j + db * (d - 0.5j) + b) * p + (a * 0.5j + b * (d - 0.5j)) * dp,
            )
        if order:
            a, da = a / d**order, (da - order * a / d) / d**order
        return a, da


def slope_scale(fn, delta):
    """What noise_scale is to f, for f': the size of the terms whose
    difference is f', |Delta|^e (|a'| + |b'|) + e |Delta|^(e - 1) (|a| +
    |b|) from CharFn._terms, at least 1."""
    a, b, expo, (da, db) = fn._terms(complex(delta), slope=True)
    scale = abs(da) + abs(db)
    if expo:
        scale = abs(delta) ** expo * scale + expo * abs(delta) ** (expo - 1) * (abs(a) + abs(b))
    return max(1.0, scale)


def jet_error(fn, delta):
    """|jet slope - f'| in eps of slope_scale, f' from mp_jet; the value
    is eval's bit for bit, and (_INF, _INF) is returned exactly where eval
    is not finite (then the error is 0)."""
    f, df = fn.jet(delta)
    want = fn.eval(delta)
    if not cmath.isfinite(want):
        assert (f, df) == (_INF, _INF)
        return 0.0
    assert (f.real, f.imag) == (want.real, want.imag)
    _, ref = mp_jet(fn.params, fn.deflation_order, delta)
    if not cmath.isfinite(df):
        # the slope's terms can overflow where f' is within 20 decades of
        # the float range (measured down to 1.7e295), never below
        assert abs(ref) > 1e288
        return 0.0
    with mp.workdps(40):
        return float(abs(mp.mpc(df) - ref) / (EPS * slope_scale(fn, delta)))


def sr_branch(fn, delta):
    """'closed' or 'recurrence': the branch _terms takes at delta."""
    n, _, le, _, _ = fn._consts
    u = complex(delta) * le
    theta = 2.0 * cmath.asin(cmath.sqrt(cmath.sin(0.5 * u) ** 2 - 0.25 * le * _sinc(u)))
    return "closed" if n * abs(theta) <= 16.0 else "recurrence"


# at L = 0.01, sin^2(u/2) - (L/4) sinc(u) rounds to exactly 0 here: theta = 0
THETA_ZERO = 9.995835242528342


class TestJet:
    """CharFn.jet = (f, f') against 40-digit mpmath, in eps of slope_scale.

    Closed form and sr recurrence: within 48 eps on the accuracy matrix of
    TestClosedFormKernel, also where theta = 0 and where the slope of
    U_(k-1) switches from its series to (c U_(k-1) - k cos(k theta)) /
    sin^2(theta) (|k theta| = 0.5).  The recurrence of V_k: within (3 N +
    8) eps, the bound of the values in TestGenericPhaseAccuracy.  (Worst
    measured: 17 eps closed form, 27 sr recurrence, 125 at (general, 100,
    beta_c / N^2); 40 next to theta = 0 at N = 1000.)"""

    SR_NS = [1, 2, 5, 10, 30, 50, 100, 1000]
    SEPS = [0.01, 0.1, 0.5, 1.0, 3.0, "fold"]

    @staticmethod
    def sr_points(n, sep):
        """The separation and the points of one sr matrix cell: random in
        the default window, and the axis within 10% of the large-N fold."""
        sep = 1.7569154 / n**2 if sep == "fold" else sep
        win = default_window(n)
        rng = np.random.default_rng(n)
        k = 6 if n == 1000 else 30
        deltas = rng.uniform(win.re_min, win.re_max, k) + 1j * rng.uniform(win.im_min, win.im_max, k)
        return sep, np.concatenate([deltas, -1.1385j * n * np.linspace(0.9, 1.1, 5)]).tolist()

    @pytest.mark.parametrize("n", SR_NS)
    @pytest.mark.parametrize("sep", SEPS)
    def test_sr_accuracy_matrix(self, n, sep):
        sep, deltas = self.sr_points(n, sep)
        for order in {0, n - 1}:
            fn = CharFn(sr(n, sep), deflation_order=order)
            for d in deltas:
                assert jet_error(fn, d) <= 48.0

    def test_sr_matrix_takes_both_branches(self):
        taken = {"closed": 0, "recurrence": 0}
        for n in self.SR_NS:
            for sep in self.SEPS:
                sep, deltas = self.sr_points(n, sep)
                fn = CharFn(sr(n, sep))
                for d in deltas:
                    if cmath.isfinite(fn.eval(d)):
                        taken[sr_branch(fn, d)] += 1
        assert min(taken.values()) >= 100

    @pytest.mark.parametrize("n", [2, 5, 30, 100, 1000])
    def test_next_to_theta_zero(self, n):
        # N theta from 0 through the series and past the switch at 0.5
        u = complex(THETA_ZERO) * 0.01
        assert cmath.sin(0.5 * u) ** 2 - 0.25 * 0.01 * _sinc(u) == 0
        for order in (0, n - 1):
            fn = CharFn(sr(n, 0.01), deflation_order=order)
            for t in (0.0, 1e-9, 1e-7, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2, 0.1):
                assert jet_error(fn, complex(THETA_ZERO, -t)) <= 48.0

    @pytest.mark.parametrize("mode", ["general", "markovian"])
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 30, 50, 100])
    @pytest.mark.parametrize("sep", [0.01, 0.1, 0.5, 1.0, 3.0, "fold"])
    def test_generic_accuracy_matrix(self, mode, n, sep):
        sep = 1.7569154 / n**2 if sep == "fold" else sep
        fn = CharFn(ChainParams(n, sep, mode=mode))
        win = default_window(n)
        rng = np.random.default_rng(n)
        deltas = rng.uniform(win.re_min, win.re_max, 30) + 1j * rng.uniform(win.im_min, win.im_max, 30)
        for d in deltas.tolist():
            assert jet_error(fn, d) <= 3 * n + 8

    @pytest.mark.parametrize("mode, n, sep", [
        ("sr", 2, 0.56), ("sr", 3, 0.4), ("sr", 30, 0.01), ("sr", 100, 1.76e-4),
        ("general", 30, 0.5), ("markovian", 50, 0.1),
    ])
    def test_origin(self, mode, n, sep):
        # Delta = 0 in either deflation order, and the series of sinc' next
        # to it
        bound = 48.0 if mode == "sr" else 3 * n + 8
        for order in ({0, n - 1} if mode == "sr" else {0}):
            fn = CharFn(ChainParams(n, sep, mode=mode), deflation_order=order)
            for d in (0j, 1e-12 * (1 - 1j), 1e-6j, -1e-4j, 1e-3 * (1 - 1j), 0.4 / sep):
                assert jet_error(fn, d) <= bound

    @pytest.mark.parametrize("mode", ["sr", "general"])
    def test_overflow(self, mode):
        # eval raises (exp of |Im Delta L| beyond 710) or overflows quietly
        fn = CharFn(ChainParams(100, 3.0, mode=mode))
        for d in (-300j, -119.5425j, 1e6 - 1e6j):
            assert not cmath.isfinite(fn.eval(d))
            assert fn.jet(d) == (_INF, _INF)


class TestDeflationConsistency:
    # origin multiplicity N-1 under the superradiant condition, counted by
    # the argument principle; asserted up to N = 30 rather than assumed
    @pytest.mark.parametrize("n", [2, 5, 13, 30])
    def test_origin_multiplicity(self, n):
        from ssrchain import SearchWindow, count_zeros

        fn = CharFn(sr(n, 0.4))
        box = SearchWindow(-1e-4, 1e-4, -1e-4, 1e-4)
        assert count_zeros(fn, box) == n - 1
        deflated = CharFn(sr(n, 0.4), deflation_order=n - 1)
        assert abs(deflated(0.0)) > 1e-3


def n_theta(params, delta):
    """N |theta| on the w = +-1 branch, theta from cos(theta) = 1 + g with
    g = -2 sin^2(u/2) + (L/2) sinc(u), u = Delta L: the closed form of f
    serves N |theta| <= 16, the recurrence the rest."""
    u = delta * params.separation
    try:
        half = cmath.sin(0.5 * u) ** 2 - 0.25 * params.separation * (cmath.sin(u) / u if u else 1.0)
    except OverflowError:
        return math.inf
    return params.n_qubits * abs(2.0 * cmath.asin(cmath.sqrt(half)))


class TestMirrorSymmetry:
    # under the superradiant condition the searched f, deflated by N - 1,
    # has f(-conj Delta) = -conj f(Delta) bit for bit for every N; the full
    # f, Delta^(N-1) times it by binary powering, has (-1)^N conj f(Delta),
    # bit for bit for every N too, apart from the sign of a part that
    # underflows to zero (complex products round -x + -y = +0 where x + y =
    # 0).  noise_scale is mirror-equal bit for bit in both.
    # ssr._leading_pair relies on this to append the mirror partner of a
    # validated root without evaluating f there.
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 30, 100, 1000])
    @pytest.mark.parametrize("sr_index", [1, 2])
    def test_mirror_is_exact(self, n, sr_index):
        rng = np.random.default_rng(10 * n + sr_index)
        win = default_window(n)
        branches, exact = set(), 0
        for sep in (1e-4, 0.003, 0.1, 1.0, 3.0):
            params = sr(n, sep, sr_index)
            # the default window, a square around the origin where N |theta|
            # is small for small L, and the lower half disc |Delta| < 1.9,
            # where the full f at N = 1000 is finite and not all underflowed
            zs = [complex(x, y) for x, y in zip(rng.uniform(win.re_min, win.re_max, 30),
                                                 rng.uniform(win.im_min, 0.0, 30))]
            zs += [complex(x, y) * 2.0 / n for x, y in rng.uniform(-1.0, 1.0, (30, 2))]
            zs += [cmath.rect(1.9 * math.sqrt(r), -math.pi * t) for r, t in rng.uniform(0.0, 1.0, (30, 2))]
            branches.update(n_theta(params, z) <= 16.0 for z in zs)
            for order in (0, n - 1):
                fn = CharFn(params, deflation_order=order)
                sign = -1.0 if order == n - 1 else (-1.0) ** n
                for z in zs:
                    m = -z.conjugate()
                    assert fn.noise_scale(m) == fn.noise_scale(z)
                    fz, fm = fn(z), fn(m)
                    assert cmath.isfinite(fm) == cmath.isfinite(fz)
                    if not cmath.isfinite(fz):
                        continue
                    want = complex(sign * fz.real, -sign * fz.imag)
                    if fz.real and fz.imag:
                        assert bits(fm).tolist() == bits(want).tolist(), (sep, order, z)
                        exact += 1
                    else:
                        assert fm == want, (sep, order, z)
        assert exact >= 100
        # a single qubit keeps N |theta| below 16 on all of these points
        assert branches == ({True} if n == 1 else {True, False})


class TestIntegerPower:
    """The full f multiplies by Delta^(N-1) with _ipow, the binary powering
    that CPython's ** runs up to exponent 100 and leaves for polar form
    beyond."""

    def test_equals_python_power_up_to_100(self):
        rng = np.random.default_rng(100)
        zs = [complex(r * math.cos(t), r * math.sin(t))
              for r, t in zip(np.exp(rng.uniform(-3.0, 3.0, 200)), rng.uniform(-math.pi, math.pi, 200))]
        zs += [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1j, -1.0 + 0j, complex(2.0, -0.0)]
        zs += [complex(1e4, -1e4), complex(-3e3, 0.5)]  # ** overflows from n = 75 and 89
        overflows = 0
        for z in zs:
            for n in range(101):
                try:
                    want = z**n
                except OverflowError:
                    with pytest.raises(OverflowError):
                        _ipow(z, n)
                    overflows += 1
                    continue
                assert bits(_ipow(z, n)).tolist() == bits(want).tolist(), (z, n)
        assert overflows > 0

    def test_full_f_against_mpmath_at_a_thousand_qubits(self):
        # |Delta| < 1.9, where Delta^999 and the full f stay finite, at the
        # fold separation, where the closed form is accurate and the power's
        # error shows: in eps of noise_scale the worst of these 40 points is
        # 71 with _ipow and was 191 with ** (polar form), the median 24 and 41
        n = 1000
        fn = CharFn(sr(n, 1.757e-6), deflation_order=0)
        rng = np.random.default_rng(n)
        radii, angles = 1.9 * np.sqrt(rng.uniform(0.0, 1.0, 40)), rng.uniform(-math.pi, 0.0, 40)
        worst = 0.0
        for z in (radii * np.exp(1j * angles)).tolist():
            got = fn.eval(z)
            assert cmath.isfinite(got)
            with mp.workdps(40):
                sep, w = mp.mpf(fn.params.phase_separation()), mp.mpc(fn.params.phase_unit())
                want = mp_f(mp.mpc(z), sep, n, w)
                worst = max(worst, float(abs(mp.mpc(got) - want)) / (EPS * fn.noise_scale(z)))
        assert worst <= 100.0


def mp_winding(params, order, window, dps=30):
    """Winding number of mp_f / Delta^order around the window's boundary at
    mpmath precision, with no float overflow: each edge starts as 32
    segments, and a segment is halved until its phase turns by less than
    0.5 rad."""
    n = params.n_qubits
    with mp.workdps(dps):
        sep, w = mp.mpf(params.phase_separation()), mp.mpc(params.phase_unit())

        def f(d):
            return mp_f(d, sep, n, w) / d**order

        def turn(z0, f0, z1, f1, depth):
            dphi = mp.arg(f1 / f0)
            if abs(dphi) < 0.5:
                return dphi
            assert depth < 30
            zm = (z0 + z1) / 2
            fm = f(zm)
            return turn(z0, f0, zm, fm, depth + 1) + turn(zm, fm, z1, f1, depth + 1)

        corners = [
            mp.mpc(window.re_min, window.im_min),
            mp.mpc(window.re_max, window.im_min),
            mp.mpc(window.re_max, window.im_max),
            mp.mpc(window.re_min, window.im_max),
        ]
        total = mp.mpf(0)
        for a, b in zip(corners, corners[1:] + corners[:1]):
            zs = [a + (b - a) * k / 32 for k in range(33)]
            fs = [f(z) for z in zs]
            total += sum(turn(zs[k], fs[k], zs[k + 1], fs[k + 1], 0) for k in range(32))
        return float(total / (2 * mp.pi))


class TestCountingBeyondTheFloatRange:
    """count_zeros walks f as (mantissa, log10 scale), so a window where |f|
    exceeds 1e308 on the whole boundary still counts; the count is checked
    against an mpmath winding number of the same boundary."""

    @pytest.mark.parametrize(
        "params, order, window",
        [
            (sr(100, 3.0), 99, (-0.02, 0.02, -4.02, -3.98)),
            (ChainParams(30, 1.0, mode="general"), 0, (-0.2, 0.2, -55.2, -54.8)),
        ],
        ids=["sr100", "general30"],
    )
    def test_count_matches_mpmath_winding(self, params, order, window):
        from ssrchain import SearchWindow, count_zeros
        from ssrchain.rootfind import characteristic_function

        fn = characteristic_function(params)
        assert fn.deflation_order == order
        win = SearchWindow(*window)
        assert not cmath.isfinite(fn.eval(win.center))
        winding = mp_winding(params, order, win)
        assert abs(winding - round(winding)) < 1e-6
        assert count_zeros(fn, win) == round(winding)


class TestMarkovianPolynomial:
    def test_single_qubit_closed_form(self):
        # Omega L = pi: polynomial is a unit times (Delta + i/2)
        coeffs = markovian_polynomial(ChainParams(1, math.pi / 50.0, mode="markovian", omega=50.0))
        assert len(coeffs) == 2
        root = -coeffs[0] / coeffs[1]
        assert root == pytest.approx(-0.5j, abs=1e-15)

    def test_two_qubit_dicke(self):
        coeffs = markovian_polynomial(ChainParams(2, math.pi / 50.0, mode="markovian", omega=50.0))
        roots = np.roots(np.array(coeffs[::-1]))
        roots = sorted(roots, key=abs)
        assert abs(roots[0]) < 1e-14
        assert roots[1] == pytest.approx(-1.0j, abs=1e-14)

    def test_ten_qubit_dicke_against_root_oracle(self):
        coeffs = markovian_polynomial(ChainParams(10, math.pi / 50.0, mode="markovian", omega=50.0))
        roots = sorted(np.roots(np.array(coeffs[::-1])), key=abs)
        for r in roots[:9]:
            assert abs(r) < 1e-8
        assert roots[9] == pytest.approx(-5.0j, abs=1e-8)

    def test_degree_and_leading_coefficient_off_condition(self):
        p = ChainParams(5, 0.013, mode="markovian", omega=50.0)  # Omega L = 0.65
        coeffs = markovian_polynomial(p)
        assert len(coeffs) == 6
        assert abs(coeffs[-1]) == pytest.approx(1.0, rel=1e-12)

    def test_polynomial_matches_eval(self):
        p = ChainParams(4, 0.02, mode="markovian", omega=50.0)
        coeffs = markovian_polynomial(p)
        fn = CharFn(p)
        rng = np.random.default_rng(8)
        for _ in range(30):
            d = complex(rng.uniform(-2, 2), rng.uniform(-3, 0))
            val = sum(c * d**k for k, c in enumerate(coeffs))
            assert val == pytest.approx(fn(d), rel=1e-10, abs=1e-12)

    def test_mode_guard(self):
        with pytest.raises(ContractViolationError):
            markovian_polynomial(sr(3, 0.4))


class TestMarkovianLimit:
    # the retardation correction scales like 0.17 N^2 L, so a fixed L = 1e-3
    # leaves ~1.7% at N = 10; tolerances follow that scaling
    @pytest.mark.parametrize(
        "n,sep,tol",
        [(2, 1e-3, 0.01), (4, 1e-3, 0.01), (7, 1e-3, 0.01), (10, 1e-3, 0.02), (10, 1e-4, 0.005)],
    )
    def test_deflated_root_tends_to_dicke(self, n, sep, tol):
        fn = CharFn(sr(n, sep), deflation_order=n - 1)
        root = refine(fn, -0.55j * n, tol=1e-10)
        gamma = 2j * root
        assert abs(gamma.real - n) / n < tol
        assert abs(gamma.imag) < 0.05 * n


class TestClosedFormResidual:
    def test_single_qubit_trivial(self):
        res = closed_form_residual(-0.5j, sr(1, 0.7))
        assert abs(res.res_b) < 1e-14
        assert abs(res.res_a) < 1e-14

    def test_accepted_pole_has_tiny_defect(self):
        fn = CharFn(sr(2, 0.56), deflation_order=1)
        pole = refine(fn, -2.3j + 0.2, tol=1e-11)
        res = closed_form_residual(pole, sr(2, 0.56))
        assert abs(res.res_b) < 1e-8

    def test_non_pole_rejected(self):
        res = closed_form_residual(-1.0 - 1.0j, sr(2, 0.56))
        assert abs(res.res_b) > 1e-3

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_either_sign_of_lam_gives_the_same_defect(self, n):
        # res_b is odd in lam: trying both signs and keeping the smaller |res_b|
        # gives the principal branch's values bit for bit
        for frac in (0.8, 1.4):
            params = sr(n, frac * 1.76 / n**2 if n >= 4 else frac * 0.5569 * (2.0 / n) ** 1.2)
            for pole in find_collective_rates(params):
                p, sep = pole.delta, params.separation
                rhs = cmath.cos(p * sep) + cmath.sin(p * sep) / (2.0 * p)
                cands = []
                for lam in (cmath.acos(rhs), -cmath.acos(rhs)):
                    res_b = (p + 0.5j) * cmath.sin(lam * n) - (
                        cmath.exp(1j * p * sep) * p * cmath.sin(lam * (n - 1))
                    )
                    cands.append((abs(res_b), lam, res_b))
                assert cands[0][0] == cands[1][0]
                got = closed_form_residual(p, params)
                _, lam, res_b = cands[0]
                assert (got.lam, got.res_b, got.res_a) == (lam, res_b, cmath.cos(lam) - rhs)

    def test_overflow_gives_infinite_defects(self):
        # cos(pL) itself overflows once |Im pL| passes about 710
        res = closed_form_residual(-800j, ChainParams(2, 1.0))
        assert res.res_a == res.res_b == _INF
        assert cmath.isnan(res.lam)

    def test_guards(self):
        with pytest.raises(ContractViolationError):
            closed_form_residual(-0.5j, ChainParams(2, 0.5, mode="general"))
        with pytest.raises(SingularDetuningError):
            closed_form_residual(0.0, sr(2, 0.5))
