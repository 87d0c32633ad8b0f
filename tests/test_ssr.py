import cmath
import math

import pytest

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
from ssrchain.charfn import CharFn
from ssrchain.rootfind import _accept_tol
from ssrchain.ssr import _PoleTracker, _golden_max


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
            # near the fold the pair is a near-double root and rounding makes
            # Im f change sign many times across a band; both scans may end
            # anywhere in it
            z, h = -1j * b, 1e-6 * b
            slope = abs((fn(z - 1j * h) - fn(z + 1j * h)).imag) / (2.0 * h)
            band = 16.0 * 2.2e-16 * fn.noise_scale(z) / slope
            assert abs(a - b) <= 1e-12 * b + 2.0 * band
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

    def test_refinement_drops_cell_with_overflow_inside(self):
        calls = []

        def fn(delta):
            y = -delta.imag
            calls.append(y)
            return complex(float("inf"), 0.0) if 0.9 < y < 1.1 else 1j * (y - 1.0)

        assert _PoleTracker._refine_axis_root(fn, 0.5, 1.5) is None
        assert any(0.9 < y < 1.1 for y in calls)

    def test_refinement_keeps_bracket_and_width(self):
        fn = lambda delta: 1j * math.expm1(-delta.imag - 1.3)
        y = _PoleTracker._refine_axis_root(fn, 0.5, 2.0)
        assert abs(y - 1.3) <= 1e-15 * 2.3


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
        with pytest.raises(WindowExhaustedError, match=note):
            _PoleTracker(100).rate(3.0)

    def test_valid_rejects_non_finite_f(self):
        tracker = _PoleTracker(100)
        fn = tracker.fn(3.0)
        z = -200j
        assert not cmath.isfinite(fn(z))
        assert not tracker._valid(fn, z)


class TestEvaluationCount:
    def test_counts_every_scalar_f_call(self, monkeypatch):
        calls = [0]
        original = CharFn.eval

        def counted(self, delta):
            calls[0] += 1
            return original(self, delta)

        monkeypatch.setattr(CharFn, "eval", counted)
        monkeypatch.setattr(CharFn, "__call__", counted)
        res = maximize_over_separation(2)
        assert res.evaluations == calls[0]

    def test_large_n_budget(self):
        assert maximize_over_separation(100).evaluations <= 8000


class TestMaximize:
    def test_two_qubits_against_closed_form(self):
        res = maximize_over_separation(2)
        assert res.coalescence
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

    def test_bad_bracket_detected(self):
        # Re Gamma_u decreases over (0.9, 2.0) for N = 2: maximum at the edge
        with pytest.raises(BracketError):
            maximize_over_separation(2, bracket=(0.9, 2.0))

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    def test_golden_section_agrees_with_coalescence_solve(self, n):
        res = maximize_over_separation(n)
        assert res.coalescence
        tracker = _PoleTracker(n)
        if n >= 4:
            a, b = 0.2 * 1.76 / n**2, 3.0 * 1.76 / n**2
        else:
            a, b = 0.05, 2.0
        l_gs, _, _, _, _ = _golden_max(tracker.rate, a, b, abstol=1e-10 * (b - a))
        assert abs(l_gs - res.l_critical) / res.l_critical < 1e-5

    def test_ssr_beats_dicke(self):
        for n in (2, 5, 20):
            res = maximize_over_separation(n)
            assert res.gamma_ssr.real > n

    def test_system_size_shrinks(self):
        res = maximize_over_separation(50)
        assert 50 * res.l_critical < 2.0 * 1.1 / 50


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
        res = scaling_sweep(list(range(2, 11)))
        rates = [r.gamma_ssr.real for r in res]
        assert len(res) == 9
        assert all(b > a for a, b in zip(rates, rates[1:]))
        # super-superradiance beats Dicke at every N
        assert all(r.gamma_ssr.real > r.n_qubits for r in res)

    def test_sweep_rejects_n1(self):
        with pytest.raises(ContractViolationError):
            scaling_sweep([1, 2, 3])

    def test_sweep_requires_sorted(self):
        with pytest.raises(ContractViolationError):
            scaling_sweep([5, 2])

    def test_fit_recovers_exact_laws(self):
        synthetic = [
            SSRResult(n, 1.5 / n**2, complex(2.5 * n, 0.0), True, 1, 0.0)
            for n in (10, 20, 30, 40)
        ]
        fit = fit_scaling(synthetic, n_min_fit=10)
        assert fit.alpha == pytest.approx(2.5, abs=1e-12)
        assert fit.beta == pytest.approx(1.5, abs=1e-12)
        assert max(fit.gamma_deviations) < 1e-12
        assert max(fit.lc_deviations) < 1e-12

    def test_fit_needs_three_points(self):
        synthetic = [SSRResult(20, 1e-3, complex(45, 0), True, 1, 0.0)] * 2
        with pytest.raises(ContractViolationError):
            fit_scaling(synthetic, n_min_fit=20)
