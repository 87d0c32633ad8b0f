import cmath
import math

import numpy as np
import pytest

from ssrchain import (
    BoundaryDegeneracyError,
    ChainParams,
    CharFn,
    ContractViolationError,
    Pole,
    RefinementFailureError,
    SearchWindow,
    coalescent_pair,
    continue_pole,
    count_zeros,
    default_window,
    find_collective_rates,
    localize_zeros,
    refine,
    superradiant_pole,
)
from ssrchain.rootfind import (
    MARKOVIAN_LIKE,
    NON_MARKOVIAN,
    ZERO_MODE,
    _count,
    _split,
    _vectorized,
    characteristic_function,
)


def sr(n, sep, sr_index=1):
    return ChainParams(n, sep, mode="sr", sr_index=sr_index)


class TestSearchWindow:
    def test_rejects_degenerate(self):
        with pytest.raises(ContractViolationError):
            SearchWindow(1.0, 1.0, -1.0, 0.0)

    def test_default_window_scales_with_n(self):
        w = default_window(4)
        assert (w.re_min, w.re_max, w.im_min, w.im_max) == (-6.0, 6.0, -10.0, 0.0)


class TestPole:
    def test_gamma_is_derived(self):
        p = Pole(delta=-0.5j, residual=0.0, classification=MARKOVIAN_LIKE)
        assert p.gamma == 2j * (-0.5j)

    def test_rejects_growing_solutions(self):
        with pytest.raises(ContractViolationError):
            Pole(delta=0.3 + 0.1j, residual=0.0, classification=MARKOVIAN_LIKE)


class TestCountZeros:
    def test_single_linear_zero(self):
        assert count_zeros(lambda z: z - (0.3 - 0.4j), SearchWindow(0, 1, -1, 0)) == 1

    def test_double_zero_multiplicity(self):
        assert count_zeros(lambda z: (z + 0.2j) ** 2, SearchWindow(-1, 1, -1, 1)) == 2

    def test_origin_cluster_of_deflation_order(self):
        fn = CharFn(sr(3, 0.4))
        win = SearchWindow(-1e-3, 1e-3, -1e-3, 1e-3)
        assert count_zeros(fn, win) == 2

    def test_empty_window(self):
        assert count_zeros(lambda z: z - 5.0, SearchWindow(-1, 1, -1, 1)) == 0

    def test_zero_on_boundary_recovers_by_jitter(self):
        assert count_zeros(lambda z: z - (0.5 - 1.0j), SearchWindow(-1, 1, -1, 0)) in (0, 1)


class TestLocalizeZeros:
    def test_two_isolated_zeros(self):
        z1, z2 = -0.5 - 0.1j, 0.5 - 0.1j
        seeds = localize_zeros(lambda z: (z - z1) * (z - z2), SearchWindow(-1, 1, -1, 0), 0.05)
        assert len(seeds) == 2
        assert min(abs(s - z1) for s in seeds) < 0.05
        assert min(abs(s - z2) for s in seeds) < 0.05

    def test_empty(self):
        assert localize_zeros(lambda z: z - 5.0, SearchWindow(-1, 1, -1, 1), 0.1) == []

    def test_near_degenerate_pair_is_resolved_or_clustered(self):
        fn = CharFn(sr(2, 0.56), deflation_order=1)
        seeds = localize_zeros(fn, SearchWindow(-3, 3, -6, 0), 0.05)
        assert len(seeds) == 2

    def test_exact_double_zero_keeps_multiplicity(self):
        seeds = localize_zeros(lambda z: (z + 0.2j) ** 2, SearchWindow(-1, 1, -1, 1), 0.05)
        assert len(seeds) == 2
        assert all(abs(s + 0.2j) < 0.05 for s in seeds)


class TestRefine:
    def test_linear_single_step(self):
        assert refine(lambda z: z + 0.5j, -0.1 - 0.4j, tol=1e-12) == pytest.approx(-0.5j, abs=1e-12)

    def test_charfn_pole(self):
        fn = CharFn(sr(2, 0.56), deflation_order=1)
        pole = refine(fn, 0.25 - 2.3j, tol=1e-10)
        assert (2j * pole).real == pytest.approx(4.5547, abs=2e-3)

    def test_far_seed_fails(self):
        fn = CharFn(sr(1, 0.3))
        with pytest.raises(RefinementFailureError) as err:
            refine(fn, 100.0 - 100.0j, tol=1e-12)
        assert err.value.residual >= 0.0


class TestCoalescentPair:
    def test_resolves_exact_double_zero(self):
        r1, r2 = coalescent_pair(lambda z: (z + 0.7j) ** 2 * (1.0 + 0.2 * z), -0.6j)
        assert abs(r1 + 0.7j) < 1e-7
        assert abs(r2 + 0.7j) < 1e-7

    def test_resolves_close_pair(self):
        z1, z2 = -0.7j + 1e-4, -0.7j - 1e-4
        r1, r2 = coalescent_pair(lambda z: (z - z1) * (z - z2), -0.69j)
        got = sorted((r1, r2), key=lambda z: z.real)
        assert abs(got[0] - z2) < 1e-10
        assert abs(got[1] - z1) < 1e-10


class TestFindCollectiveRates:
    def test_single_qubit_rate_is_exact(self):
        for sep in (0.1, 1.0, 10.0):
            poles = find_collective_rates(sr(1, sep))
            assert len(poles) == 1
            assert abs(poles[0].gamma - 1.0) < 1e-10

    def test_two_qubit_ssr_point(self):
        poles = find_collective_rates(sr(2, 0.56))
        assert abs(poles[0].gamma.real - 4.59) < 0.05

    def test_subradiant_at_large_separation(self):
        poles = find_collective_rates(sr(2, 5.0))
        assert poles[0].gamma.real < 2.0

    def test_residual_invariant(self):
        for params in (sr(2, 0.56), sr(3, 0.4), sr(4, 0.25)):
            for p in find_collective_rates(params):
                assert p.residual < 1e-9

    def test_conjugate_pairing(self):
        poles = find_collective_rates(sr(2, 0.9))
        pair = poles[:2]
        assert abs(pair[0].gamma.real - pair[1].gamma.real) < 1e-6
        assert abs(pair[0].gamma.imag + pair[1].gamma.imag) < 1e-6

    def test_classification_below_fold(self):
        win = SearchWindow(-3, 3, -12, 0)
        poles = find_collective_rates(sr(2, 0.2785), win)
        classes = {round(p.gamma.real, 2): p.classification for p in poles}
        assert classes[2.40] == MARKOVIAN_LIKE
        assert classes[21.79] == NON_MARKOVIAN

    def test_general_mode_detuned_off_condition(self):
        # Omega L = 25 rad is not a multiple of pi: finite-Omega rates sit
        # slightly off the superradiant-condition values
        gen = find_collective_rates(ChainParams(2, 0.5, mode="general", omega=50.0))
        ref = find_collective_rates(sr(2, 0.5))
        g = min((p.gamma.real for p in gen if abs(p.delta) > 1e-6), key=lambda v: abs(v - ref[0].gamma.real))
        assert g != pytest.approx(ref[0].gamma.real, abs=1e-6)
        assert abs(g - ref[0].gamma.real) < 1.0

    def test_markovian_mode_roots(self):
        poles = find_collective_rates(ChainParams(5, math.pi / 50, mode="markovian", omega=50.0))
        assert sum(p.classification == ZERO_MODE for p in poles) == 4
        big = poles[-1]
        assert big.gamma == pytest.approx(5.0, abs=1e-10)
        assert big.classification == MARKOVIAN_LIKE

    def test_counting_consistency(self):
        fn = CharFn(sr(3, 0.4), deflation_order=2)
        win = default_window(3)
        seeds = localize_zeros(fn, win, max_cell=win.diameter() / 128.0)
        assert len(seeds) == count_zeros(fn, win)


class TestContinuePole:
    def test_length_one_path_returns_input(self):
        p = superradiant_pole(sr(2, 0.3))
        out = continue_pole(sr(2, 0.3), p, [0.3])
        assert out == [p]

    def test_symmetric_branch_rises_to_ssr(self):
        params = sr(2, 1e-3)
        start = superradiant_pole(params)
        assert start.gamma.real == pytest.approx(2.0, abs=0.01)
        path = list(np.geomspace(1e-3, 0.5569290855, 60))
        track = continue_pole(params, start, path)
        rates = [t.gamma.real for t in track]
        assert rates[-1] == pytest.approx(4.5911, abs=2e-3)
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_zero_mode_stays_at_zero(self):
        zero = Pole(delta=0.0j, residual=0.0, classification=ZERO_MODE)
        track = continue_pole(sr(2, 1e-3), zero, [1e-3, 0.1, 0.3, 0.56])
        assert all(t.gamma == 0 for t in track)

    def test_path_must_start_at_params_separation(self):
        p = superradiant_pole(sr(2, 0.3))
        with pytest.raises(ContractViolationError):
            continue_pole(sr(2, 0.3), p, [0.4, 0.5])


def test_grid_scan_oracle_small_n():
    # dense |f| map minima agree with the analytic pipeline (cheap version;
    # the full 2000 x 2000 sweep runs in the acceptance suite)
    from ssrchain.rootfind import grid_scan_minima, _newton

    for n, sep in ((2, 0.3), (3, 0.45)):
        fn = CharFn(sr(n, sep), deflation_order=n - 1)
        win = default_window(n)
        poles = find_collective_rates(sr(n, sep), win)
        got = []
        for seed in grid_scan_minima(fn.log10_magnitude, win, resolution=600):
            z, res, ok = _newton(fn, seed, 1e-10)
            if ok and win.contains(z) and z.imag < -1e-6:
                if not any(abs(z - u) < 1e-7 for u in got):
                    got.append(z)
        assert len(got) == len(poles)
        for p in poles:
            assert min(abs(p.delta - z) for z in got) < 1e-6


# ---------------------------------------------------------------------------
# the batched boundary walk against the recursive scalar walk it replaced


class _RefBoundaryZero(Exception):
    def __init__(self, where):
        self.where = where


def _ref_walk_phase(fn, z0, f0, z1, f1, floor, depth=0):
    if abs(f0) < floor or abs(f1) < floor:
        raise _RefBoundaryZero(z0 if abs(f0) < abs(f1) else z1)
    dphi = cmath.phase(f1 / f0)
    if abs(dphi) <= 0.9 and depth >= 1:
        return dphi
    if depth >= 36:
        raise _RefBoundaryZero(z0)
    zm = 0.5 * (z0 + z1)
    fm = fn(zm)
    return _ref_walk_phase(fn, z0, f0, zm, fm, floor, depth + 1) + _ref_walk_phase(
        fn, zm, fm, z1, f1, floor, depth + 1
    )


def _ref_winding(fn, window):
    corners = [
        complex(window.re_min, window.im_min),
        complex(window.re_max, window.im_min),
        complex(window.re_max, window.im_max),
        complex(window.re_min, window.im_max),
    ]
    probes = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        for t in (0.0, 0.21, 0.5, 0.77):
            probes.append(abs(fn(a + t * (b - a))))
    finite = sorted(v for v in probes if math.isfinite(v) and v > 0.0)
    if not finite:
        raise _RefBoundaryZero(corners[0])
    floor = 1e-13 * finite[len(finite) // 2]
    total = 0.0
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        samples = [a + (i / 16.0) * (b - a) for i in range(17)]
        values = [fn(z) for z in samples]
        for i in range(16):
            total += _ref_walk_phase(fn, samples[i], values[i], samples[i + 1], values[i + 1], floor)
    count = total / (2.0 * math.pi)
    nearest = round(count)
    if abs(count - nearest) > 0.15 or nearest < 0:
        raise _RefBoundaryZero(corners[0])
    return nearest


def _ref_count_zeros(fn, window):
    """(count, points evaluated, jitters) of the recursive walk, or
    (None, where, 5) when it raises after five jitters."""
    points = []

    def recorded(z):
        points.append(z)
        return fn(z)

    win = window
    for attempt in range(6):
        try:
            return _ref_winding(recorded, win), points, attempt
        except _RefBoundaryZero as bz:
            if attempt == 5:
                return None, bz.where, attempt
            pad = window.diameter() * 3e-7 * (attempt + 1)
            win = SearchWindow(
                win.re_min - 1.31 * pad,
                win.re_max + 0.77 * pad,
                win.im_min - 1.09 * pad,
                win.im_max + 0.89 * pad,
            )


def _sorted_points(points):
    return sorted(points, key=lambda z: (z.real, z.imag))


class TestBatchedWalkAgainstRecursiveWalk:
    @pytest.mark.parametrize("mode", ["sr", "general"])
    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    @pytest.mark.parametrize("sep", [0.1, 1.0])
    def test_same_counts_failures_and_points(self, mode, n, sep, monkeypatch):
        fn = characteristic_function(ChainParams(n, sep, mode=mode))
        seen = []
        original = CharFn.eval_many

        def recorded(self, deltas):
            seen.extend(np.asarray(deltas).tolist())
            return original(self, deltas)

        monkeypatch.setattr(CharFn, "eval_many", recorded)
        window = default_window(n)
        children = _split(window, 0.5, 0.5)
        refs = [_ref_count_zeros(fn, win) for win in [window] + children]
        for win, (want, ref, jitters) in zip([window] + children, refs):
            seen.clear()
            if want is None:
                with pytest.raises(BoundaryDegeneracyError, match="counting boundary near"):
                    count_zeros(fn, win)
                continue
            assert count_zeros(fn, win) == want
            if jitters == 0:
                # the same sample points, hence the same number of f
                # evaluations (a failed attempt stops the recursive walk at
                # its first bad sample, the batched one at its level)
                assert _sorted_points(seen) == _sorted_points(ref)
        # the four children of the cut, counted as one batch
        seen.clear()
        evaluate = fn.eval_many
        if any(want is None for want, _, _ in refs[1:]):
            with pytest.raises(BoundaryDegeneracyError):
                _count(evaluate, children)
        else:
            assert _count(evaluate, children) == [want for want, _, _ in refs[1:]]
            if all(jitters == 0 for _, _, jitters in refs[1:]):
                assert len(seen) == sum(len(ref) for _, ref, _ in refs[1:])

    @pytest.mark.parametrize(
        "fn",
        [
            lambda z: z - complex(0.3, -1.0 + 1e-11),  # 1e-11 inside an edge: ~34 bisections
            lambda z: (z + 0.2j) ** 2 * (z - 0.7 + 0.1j),
            lambda z: cmath.exp(20j * z) * (z - 0.5),
            lambda z: 1.0 / (z - 0.1j),  # winding -1: no zero count
        ],
        ids=["near-edge", "double", "fast-phase", "pole"],
    )
    def test_plain_callables(self, fn):
        window = SearchWindow(-1, 1, -1, 1)
        want, ref, jitters = _ref_count_zeros(fn, window)
        seen = []

        def recorded(z):
            seen.append(z)
            return fn(z)

        if want is None:
            with pytest.raises(BoundaryDegeneracyError):
                count_zeros(recorded, window)
            return
        assert jitters == 0
        assert count_zeros(recorded, window) == want
        assert _sorted_points(seen) == _sorted_points(ref)

    def test_non_finite_function_fails_at_once(self):
        calls = [0]

        def nan(z):
            calls[0] += 1
            return complex("nan")

        with pytest.raises(BoundaryDegeneracyError):
            count_zeros(nan, SearchWindow(-1, 1, -1, 1))
        # 16 probes and 68 edge samples per attempt, no bisection
        assert calls[0] == 6 * 84

    def test_error_names_the_failing_sample(self):
        # f is not finite right of Re = 0.55; on the bottom edge the first
        # such sample is 0.625 - 1j (up to the jitter pads)
        fn = lambda z: complex("nan") if z.real > 0.55 else 1.0 + 0.0j
        with pytest.raises(BoundaryDegeneracyError) as err:
            count_zeros(fn, SearchWindow(-1, 1, -1, 1))
        where = complex(str(err.value).split("near ")[1].split(" after")[0])
        assert abs(where - (0.625 - 1j)) < 1e-4

    def test_batch_error_names_the_first_failing_window(self):
        fn = _vectorized(lambda z: complex("nan") if z.real > 0.55 else 1.0 + 0.0j)
        left, right = SearchWindow(-1, 1, -1, 1), SearchWindow(2, 4, -1, 1)
        for batch, near in (([left, right], 0.625 - 1j), ([right, left], 2 - 1j)):
            with pytest.raises(BoundaryDegeneracyError) as err:
                _count(fn, batch)
            where = complex(str(err.value).split("near ")[1].split(" after")[0])
            assert abs(where - near) < 1e-4

    def test_overflowed_general_chain_still_fails(self):
        with pytest.raises(BoundaryDegeneracyError):
            find_collective_rates(ChainParams(30, 1.0, mode="general"))
