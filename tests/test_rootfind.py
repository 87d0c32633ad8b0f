import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssrchain import (
    BoundaryDegeneracyError,
    ChainParams,
    CharFn,
    ContinuationBreakdownError,
    ContractViolationError,
    Pole,
    RefinementFailureError,
    SearchWindow,
    coalescent_pair,
    continue_pole,
    count_zeros,
    default_window,
    degenerate_pair_probe,
    find_collective_rates,
    localize_zeros,
    maximize_over_separation,
    refine,
    superradiant_pole,
)
from ssrchain import rootfind
from ssrchain.rootfind import (
    MARKOVIAN_LIKE,
    NON_MARKOVIAN,
    ZERO_MODE,
    _TableMemo,
    _classify,
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

    @pytest.mark.parametrize("edge", range(4))
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_edge(self, edge, bad):
        # an infinite edge once sent the boundary walk into an unbounded allocation
        edges = [-1.0, 1.0, -1.0, 0.0]
        edges[edge] = bad
        with pytest.raises(ContractViolationError, match="must be finite"):
            SearchWindow(*edges)

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

    def test_converges_at_the_rounding_floor(self, monkeypatch):
        # |f| = 1.1e-13 is below tol, but no trial point lowers it and the
        # last accepted step was not small: the small full step decides,
        # without halving it
        fn = rootfind._fn_at_separation(sr(10, 0.1), 0.020748265578502893)
        jets = [0]
        original = CharFn.jet

        def counted(self, delta):
            jets[0] += 1
            return original(self, delta)

        monkeypatch.setattr(CharFn, "jet", counted)
        z, res, ok = rootfind._newton(fn, -21.489864142800915 - 17.542793121762735j, 1e-9)
        assert ok and res < 1e-12
        assert abs(fn(z)) == res
        assert jets[0] <= 8


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

    def test_refinement_failure_raises(self, monkeypatch):
        # a seed from which Newton cannot converge fails the whole table with
        # a typed error, with no further solve and no warning
        events = []
        refine, pair = rootfind.refine, rootfind.coalescent_pair

        def fail_first(fn, seed, tol=1e-9):
            events.append("refine")
            if events.count("refine") == 1:
                raise RefinementFailureError("forced", best=seed, residual=1.0)
            return refine(fn, seed, tol)

        def counted_pair(*args, **kwargs):
            events.append("pair")
            return pair(*args, **kwargs)

        monkeypatch.setattr(rootfind, "refine", fail_first)
        monkeypatch.setattr(rootfind, "coalescent_pair", counted_pair)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RefinementFailureError, match="forced"):
                find_collective_rates(sr(5, 1.0))
        # the failed refine is the last thing the call did
        assert events[-1] == "refine" and events.count("refine") == 1

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

    def test_no_pole_dropped_next_to_a_benchmark_table(self):
        # 1.25% below the (sr, 50, 0.01) table Newton reaches two of these
        # poles from their moment seeds but not from max_cell centers
        params = sr(50, 0.009875)
        win = default_window(50)
        band = SearchWindow(win.re_min, win.re_max, win.im_min, -0.5)
        poles = find_collective_rates(params)
        want = count_zeros(characteristic_function(params), band)
        assert want == 22
        assert sum(p.delta.imag < -0.5 for p in poles) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 30])
    def test_fold_table_keeps_both_members_of_the_pair(self, n):
        # at L_c the leading pair is a double zero: coalescent_pair resolves
        # its cluster into two members, which at N = 5 lie within the 1e-8
        # merge distance of each other, and each is one zero of the count
        params = sr(n, maximize_over_separation(n).l_critical)
        poles = find_collective_rates(params)
        assert len(poles) == count_zeros(characteristic_function(params), default_window(n)) == 2

    @pytest.mark.parametrize("n, sep", [(5, 1.0), (10, 0.1), (30, 0.01), (50, 0.01)])
    def test_mirror_pairs_are_exact_and_adjacent(self, n, sep):
        # the four sr benchmark pole tables: each off-axis pole sits next to
        # its mirror image -conj(Delta), bit for bit, negative Re first
        deltas = [p.delta for p in find_collective_rates(sr(n, sep))]
        off_axis = [i for i, d in enumerate(deltas) if abs(d.real) > 1e-9]
        assert len(off_axis) >= 8
        for i in off_axis:
            j = i + 1 if deltas[i].real < 0 else i - 1
            assert 0 <= j < len(deltas)
            assert (deltas[j].real, deltas[j].imag) == (-deltas[i].real, deltas[i].imag)


# find_collective_rates on the default window of every (mode, N, L) below:
# the labels of the poles in their sorted order (M markovian-like, N
# exclusively-non-markovian, Z zero-mode), or None where counting raises
# BoundaryDegeneracyError.  The 22 failures are known faults of the winding
# count (a global near-zero floor, overflowing window corners, zeros next to
# the real axis in general mode); this records them, it does not endorse them.
_MATRIX_LABELS = {
    "sr": {
        1: ["M", "M", "M", "M", "M"],
        2: ["M", "M", "MN", "MM", "MMNNNN"],
        5: ["M", "MM", "MMNNNNNNNN", "MMMMNNNNNNNNNNNNNN", None],
        10: ["M", "MMNNNNNN", None, None, None],
        30: ["MMNNNNNN", None, None, None, None],
    },
    "general": {
        1: ["M", "M", "M", "M", "M"],
        2: ["MM", "MM", "MMN", "MMM", "MMNMNMN"],
        5: [None, "MMMMMNN", None, None, None],
        10: [None, None, None, None, None],
        30: [None, None, None, None, None],
    },
    "markovian": {n: ["M" * n] * 5 for n in (1, 2, 5, 10, 30)},
}
_MATRIX_SEPS = (0.01, 0.1, 0.5, 1.0, 3.0)
_LABEL_LETTER = {MARKOVIAN_LIKE: "M", NON_MARKOVIAN: "N", ZERO_MODE: "Z"}


@pytest.mark.parametrize("mode", sorted(_MATRIX_LABELS))
@pytest.mark.parametrize("n", [1, 2, 5, 10, 30])
@pytest.mark.parametrize("sep", _MATRIX_SEPS)
def test_pole_matrix(mode, n, sep):
    want = _MATRIX_LABELS[mode][n][_MATRIX_SEPS.index(sep)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if want is None:
            with pytest.raises(BoundaryDegeneracyError):
                find_collective_rates(ChainParams(n, sep, mode=mode))
            return
        poles = find_collective_rates(ChainParams(n, sep, mode=mode))
    assert "".join(_LABEL_LETTER[p.classification] for p in poles) == want


def _is_mirror(a, b):
    return abs(a + b.conjugate()) <= 1e-8 * (1.0 + abs(b))


def _counting_classify(monkeypatch):
    """Record the deltas find_collective_rates hands to _classify."""
    calls = []

    def counted(params, delta, memo):
        calls.append(delta)
        return _classify(params, delta, memo)

    monkeypatch.setattr(rootfind, "_classify", counted)
    return calls


# the six counted benchmark pole tables, two small sr chains, and every
# configuration of the pole matrix that returns a table and classifies by
# continuation (the Markovian labels need none)
_CLASSIFIED_TABLES = list(dict.fromkeys(
    [
        ("sr", 5, 1.0),
        ("sr", 10, 0.1),
        ("sr", 30, 0.01),
        ("sr", 50, 0.01),
        ("general", 2, 1.0),
        ("general", 5, 0.1),
        ("sr", 5, 0.5),
        ("sr", 2, 3.0),
    ]
    + [
        (mode, n, sep)
        for mode in ("sr", "general")
        for n, labels in _MATRIX_LABELS[mode].items()
        for sep, want in zip(_MATRIX_SEPS, labels)
        if want is not None
    ]
))


class TestMirrorClassification:
    @pytest.mark.parametrize("mode, n, sep", _CLASSIFIED_TABLES)
    def test_same_classification_as_per_pole(self, mode, n, sep):
        # a table shares continuations between its poles (and mirror
        # partners); every label must be the one that continuing that pole
        # alone gives
        params = ChainParams(n, sep, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            poles = find_collective_rates(params)
        assert poles
        for p in poles:
            assert p.classification == _classify(params, p.delta, _TableMemo())

    @pytest.mark.parametrize("mode, n, sep", [("sr", 5, 1.0), ("sr", 50, 0.01), ("general", 5, 0.1)])
    def test_repeated_calls_share_nothing(self, mode, n, sep, monkeypatch):
        # the continuation memo lives for one call: a second call makes the
        # same scalar evaluations and returns the same poles
        calls = [0]
        value, jet = CharFn.eval, CharFn.jet

        def counted_value(self, delta):
            calls[0] += 1
            return value(self, delta)

        def counted_jet(self, delta):
            calls[0] += 1
            return jet(self, delta)

        monkeypatch.setattr(CharFn, "eval", counted_value)
        monkeypatch.setattr(CharFn, "__call__", counted_value)
        monkeypatch.setattr(CharFn, "jet", counted_jet)
        params = ChainParams(n, sep, mode=mode)
        first = find_collective_rates(params)
        evals = calls[0]
        second = find_collective_rates(params)
        assert second == first
        assert calls[0] == 2 * evals > 0

    def test_shared_continuation_saves_solves(self, monkeypatch):
        # later poles of the (sr, 5, 1.0) table reach waypoint states that an
        # earlier pole passed, and take its label there
        solves = []
        newton = rootfind._newton

        def counted(fn, z, tol):
            solves.append(fn.params.separation)
            return newton(fn, z, tol)

        monkeypatch.setattr(rootfind, "_newton", counted)
        params = sr(5, 1.0)
        poles = find_collective_rates(params)
        shared = len(solves)
        del solves[:]
        for p in poles:
            if p.delta.real >= 0.0:
                _classify(params, p.delta, _TableMemo())
        assert shared < 0.8 * len(solves)

    @pytest.mark.parametrize("n, sep", [(5, 1.0), (50, 0.01)])
    def test_mirrored_memo_state_gives_its_label(self, n, sep, monkeypatch):
        # the track of -conj(Delta) is the mirror image of the track of
        # Delta, so it takes the label at its first waypoint
        params = sr(n, sep)
        solves = []
        newton = rootfind._newton

        def counted(fn, z, tol):
            solves.append(z)
            return newton(fn, z, tol)

        monkeypatch.setattr(rootfind, "_newton", counted)
        right = [p.delta for p in find_collective_rates(params) if p.delta.real > 0.0]
        assert len(right) >= 9
        for z in right:
            memo = _TableMemo()
            label = _classify(params, z, memo)
            del solves[:]
            assert _classify(params, -z.conjugate(), memo) == label
            assert len(solves) == 1

    def test_general_mode_never_matches_a_mirrored_state(self, monkeypatch):
        # off the superradiant condition f has no mirror symmetry: a memo
        # holding only mirror images of a track's states changes nothing
        params = ChainParams(5, 0.1, mode="general")
        solves = [0]
        newton = rootfind._newton

        def counted(fn, z, tol):
            solves[0] += 1
            return newton(fn, z, tol)

        monkeypatch.setattr(rootfind, "_newton", counted)
        poles = [p for p in find_collective_rates(params) if p.classification != ZERO_MODE]
        assert len(poles) >= 5
        for p in poles:
            memo = _TableMemo()
            solves[0] = 0
            label = _classify(params, p.delta, memo)
            alone = solves[0]
            mirrored = _TableMemo()
            mirrored.states = {
                l_at: [(-y.conjugate(), "seeded") for y, _ in states if abs(y + y.conjugate()) > 1e-6]
                for l_at, states in memo.states.items()
            }
            assert sum(map(len, mirrored.states.values())) > 0
            solves[0] = 0
            assert _classify(params, p.delta, mirrored) == label
            assert solves[0] == alone

    def test_mirrored_memo_states_save_solves(self, monkeypatch):
        # on (sr, 50, 0.01) some tracks reach mirror images of states that
        # an earlier track passed; the table is the same without them
        params = sr(50, 0.01)
        solves = []
        newton = rootfind._newton

        def counted(fn, z, tol):
            if fn.params.separation != params.separation:
                solves.append(z)
            return newton(fn, z, tol)

        monkeypatch.setattr(rootfind, "_newton", counted)
        poles = find_collective_rates(params)
        mirrored = len(solves)
        del solves[:]
        memo_label = rootfind._memo_label
        monkeypatch.setattr(
            rootfind, "_memo_label", lambda states, z, mirrored: memo_label(states, z, False)
        )
        assert find_collective_rates(params) == poles
        assert mirrored < len(solves)

    def test_each_mirror_pair_classified_once(self, monkeypatch):
        calls = _counting_classify(monkeypatch)
        poles = find_collective_rates(sr(5, 1.0))
        deltas = [p.delta for p in poles]
        partners = sum(
            any(_is_mirror(d, e) for j, e in enumerate(deltas) if j != i) for i, d in enumerate(deltas)
        )
        assert partners >= 8
        assert len(calls) == len(poles) - partners // 2
        for p in poles:
            assert any(p.delta == c or _is_mirror(p.delta, c) for c in calls)

    def test_pole_without_partner_is_classified_alone(self, monkeypatch):
        # a window right of the axis holds no mirror partners
        params = sr(10, 0.1)
        win = default_window(10)
        calls = _counting_classify(monkeypatch)
        poles = find_collective_rates(params, SearchWindow(0.5, win.re_max, win.im_min, win.im_max))
        assert len(poles) == 4
        assert len(calls) == 4 and set(calls) == {p.delta for p in poles}

    def test_general_mode_classifies_every_pole(self, monkeypatch):
        # Omega L = 10 pi: the general-mode poles come in mirror pairs too,
        # but only the sr-condition mode shares classifications
        params = ChainParams(3, 10 * math.pi / 50.0, mode="general", omega=50.0)
        calls = _counting_classify(monkeypatch)
        poles = find_collective_rates(params, SearchWindow(-4.5, 4.5, -7.5, -0.05))
        assert len(poles) == 4 and _is_mirror(poles[0].delta, poles[1].delta)
        assert len(calls) == 4 and set(calls) == {p.delta for p in poles}


def markovian_poles(n, sep):
    """Every Markovian pole find_collective_rates reports, in an unbounded
    window."""
    params = ChainParams(n, sep, mode="markovian")
    return [p.delta for p in find_collective_rates(params, SearchWindow(-1e6, 1e6, -1e6, 1.0))]


def mp_markovian_root(z, n, sep, omega=50.0):
    """Newton at 30 digits on the test-local Markovian f: (1, 0) carried
    through N explicit cells Delta T with the constant phase p = exp(i Omega
    L), the slope carried alongside."""
    with mp.workdps(30):
        p = mp.exp(1j * mp.mpf(omega) * mp.mpf(sep))
        q, m12, m21 = 1 / p, 0.5j * p, -0.5j / p
        z = mp.mpc(z)
        for _ in range(50):
            m11, m22 = (z + 0.5j) * q, (z - 0.5j) * p
            a, b, da, db = mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(0)
            for _ in range(n):
                a, b, da, db = (
                    a * m11 + b * m21,
                    a * m12 + b * m22,
                    da * m11 + a * q + db * m21,
                    da * m12 + db * m22 + b * p,
                )
            step = a / da
            z -= step
            if abs(step) < mp.mpf("1e-20") * (1 + abs(z)):
                return complex(z)
    raise ArithmeticError(f"Newton from {z} did not converge")


class TestMarkovianEigenvalues:
    def test_against_mpmath_eig(self):
        n, sep = 30, 1.0
        with mp.workdps(30):
            theta = 50 * mp.mpf(sep)
            h = mp.matrix(n, n)
            for j in range(n):
                for k in range(n):
                    h[j, k] = -0.5j * mp.exp(1j * theta * abs(j - k))
            want = [complex(e) for e in mp.eig(h, left=False, right=False)]
        got = markovian_poles(n, sep)
        assert len(got) == n
        for z in want:
            assert min(abs(z - g) for g in got) <= 1e-12

    @pytest.mark.parametrize("n, sep", [(30, 1.0), (50, 0.1), (100, 0.1)])
    def test_every_pole_is_a_distinct_root(self, n, sep):
        # N distinct roots of the degree-N polynomial are all of its roots
        got = markovian_poles(n, sep)
        assert len(got) == n
        roots = [mp_markovian_root(z, n, sep) for z in got]
        for z, r in zip(got, roots):
            assert abs(z - r) <= 1e-12 * (1.0 + abs(r))
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        assert min(gaps) > 1e-9


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

    def test_path_is_read_once(self):
        # a generator path gives the track of the same list
        params = sr(2, 1e-3)
        start = superradiant_pole(params)
        path = [1e-3, 0.1, 0.3, 0.56]
        assert continue_pole(params, start, (x for x in path)) == continue_pole(params, start, path)

    def test_path_must_start_at_params_separation(self):
        p = superradiant_pole(sr(2, 0.3))
        with pytest.raises(ContractViolationError):
            continue_pole(sr(2, 0.3), p, [0.4, 0.5])

    @staticmethod
    def _fold_path(n):
        l_c = maximize_over_separation(n).l_critical
        return [f * l_c for f in (0.5, 0.8, 0.95, 1.05, 1.2, 1.5)]

    @pytest.mark.parametrize("n", [2, 10])
    def test_track_through_the_fold_keeps_im_gamma_positive(self, n):
        # on the axis below L_c; past the coalescence the track takes the
        # member with Im Gamma > 0, and each pole is one of the probed pair
        path = self._fold_path(n)
        track = continue_pole(sr(n, path[0]), superradiant_pole(sr(n, path[0])), path)
        for sep, pole, pair in zip(path, track, degenerate_pair_probe(n, path)):
            if sep < path[3]:
                assert pole.gamma.imag == 0.0
            else:
                assert pole.gamma.imag > 0.0
            assert min(abs(pole.delta - q.delta) / abs(q.delta) for q in pair) < 1e-12

    @pytest.mark.parametrize("n", [2, 10])
    def test_negative_member_keeps_its_sign(self, n, monkeypatch):
        path = self._fold_path(n)[:2:-1]
        (pair,) = degenerate_pair_probe(n, path[:1])
        start = min(pair, key=lambda q: q.gamma.imag)
        track = continue_pole(sr(n, path[0]), start, path)
        assert all(p.gamma.imag < 0.0 for p in track)
        # a track that hops to the mirror twin is flipped back by the sign rule
        track_root = rootfind._track_root
        monkeypatch.setattr(
            rootfind, "_track_root", lambda *a, **k: -track_root(*a, **k).conjugate()
        )
        assert continue_pole(sr(n, path[0]), start, path) == track

    def test_lost_pole_raises_with_the_partial_track(self, monkeypatch):
        # Newton and the coalescent-pair fallback both miss the root: the
        # stride halves to the minimum step and the continuation breaks down
        start = superradiant_pole(sr(2, 0.3))
        monkeypatch.setattr(rootfind, "_newton", lambda fn, z, tol: (z, math.inf, False))
        monkeypatch.setattr(
            rootfind, "coalescent_pair", lambda fn, z, scale=None: (z + 10.0, z - 10.0)
        )
        with pytest.raises(ContinuationBreakdownError, match="pole lost between") as err:
            continue_pole(sr(2, 0.3), start, [0.3, 0.35])
        assert err.value.partial == [start]


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


def test_grid_scan_finds_no_minimum_on_a_non_finite_plateau():
    # log10|z - z0| where the map is finite, inf below Im z = -1 (overflow);
    # inf <= inf once made every cell of the plateau a minimum
    from ssrchain.rootfind import grid_scan_minima

    def log10_map(z):
        with np.errstate(divide="ignore"):
            return np.where(z.imag < -1.0, np.inf, np.log10(np.abs(z - (0.3 - 0.5j))))

    seeds = grid_scan_minima(log10_map, SearchWindow(-1.0, 1.0, -2.0, 0.0), resolution=41)
    assert len(seeds) == 1 and abs(seeds[0] - (0.3 - 0.5j)) < 1e-12


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


def _named_point(err):
    """The boundary point a BoundaryDegeneracyError of count_zeros names."""
    return complex(str(err.value).split("near ")[1].split(" after")[0])


def _sorted_points(points):
    return sorted(points, key=lambda z: (z.real, z.imag))


class TestBatchedWalkAgainstRecursiveWalk:
    @pytest.mark.parametrize("mode", ["sr", "general"])
    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    @pytest.mark.parametrize("sep", [0.1, 1.0])
    def test_same_counts_failures_and_points(self, mode, n, sep, monkeypatch):
        fn = characteristic_function(ChainParams(n, sep, mode=mode))
        seen = []
        original = CharFn.eval_scaled

        def recorded(self, deltas):
            seen.extend(np.asarray(deltas).tolist())
            return original(self, deltas)

        monkeypatch.setattr(CharFn, "eval_scaled", recorded)
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
        # the four children of the cut, walked as one batch in either order:
        # each gets the count, or the failure point, of its own first walk
        alone = {win: rootfind._windings(fn.eval_scaled, [win]) for win in children}
        for batch in (children, children[::-1]):
            seen.clear()
            counts, where, _ = rootfind._windings(fn.eval_scaled, batch)
            for win, c, w in zip(batch, counts, where):
                (c1,), (w1,), _ = alone[win]
                want, _, jitters = refs[1 + children.index(win)]
                assert cmath.isnan(w) == (jitters == 0)
                if jitters == 0:
                    assert c == c1 == want
                else:
                    assert w == w1
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

    def test_non_finite_function_fails_at_once(self, monkeypatch):
        calls, batches = [0], []
        vectorized = rootfind._vectorized

        def counted(fn):
            evaluate = vectorized(fn)

            def batch(zs):
                batches.append(zs.size)
                return evaluate(zs)

            return batch

        def nan(z):
            calls[0] += 1
            return complex("nan")

        monkeypatch.setattr(rootfind, "_vectorized", counted)
        with pytest.raises(BoundaryDegeneracyError):
            count_zeros(nan, SearchWindow(-1, 1, -1, 1))
        # 16 probes, 68 edge samples and the 64 midpoints of the first
        # bisection per attempt, all in one call, and no further level
        assert calls[0] == 6 * 148
        assert batches == [148] * 6

    def test_error_names_the_failing_sample(self):
        # f is not finite right of Re = 0.55; on the bottom edge the first
        # such sample is 0.625 - 1j (up to the jitter pads)
        fn = lambda z: complex("nan") if z.real > 0.55 else 1.0 + 0.0j
        with pytest.raises(BoundaryDegeneracyError) as err:
            count_zeros(fn, SearchWindow(-1, 1, -1, 1))
        assert abs(_named_point(err) - (0.625 - 1j)) < 1e-4

    def test_batch_names_each_failing_window(self):
        # in any order each failing window of a batch gets the point its
        # own first walk fails at, and a counted one its count
        fn = _vectorized(lambda z: complex("nan") if z.real > 0.55 else 1.0 + 0.0j)
        left, right = SearchWindow(-1, 1, -1, 1), SearchWindow(2, 4, -1, 1)
        clear = SearchWindow(-1, 0.5, -1, 1)
        # left: its first non-finite bottom-edge sample; right: no finite
        # probe at all, so its first corner
        named = {left: 0.625 - 1j, right: 2 - 1j}
        for win, near in named.items():
            (_,), (where,), _ = rootfind._windings(fn, [win])
            assert where == near
        for batch in ([left, right], [right, left], [right, clear, left]):
            counts, where, _ = rootfind._windings(fn, batch)
            for win, c, w in zip(batch, counts, where):
                if win in named:
                    assert w == named[win]
                else:
                    assert cmath.isnan(w) and c == 0

    def test_overflowed_general_chain_still_fails(self):
        with pytest.raises(BoundaryDegeneracyError):
            find_collective_rates(ChainParams(30, 1.0, mode="general"))


# ---------------------------------------------------------------------------
# the breadth-first quadrisection against the depth-first recursion it replaced


def _ref_count(evaluate, windows):
    """Zero counts and first moments of a batch; raises for the first
    window still failing after five jitters."""
    counts = [0] * len(windows)
    moments = [complex("nan")] * len(windows)
    current = list(windows)
    todo = list(range(len(windows)))
    for attempt in range(6):
        got, where, s1 = rootfind._windings(evaluate, [current[i] for i in todo])
        retry = [(i, complex(w)) for i, w in zip(todo, where) if not cmath.isnan(w)]
        for i, c, w, m in zip(todo, got, where, s1):
            if cmath.isnan(w):
                counts[i], moments[i] = int(c), complex(m)
        if not retry:
            return counts, moments
        if attempt == 5:
            raise BoundaryDegeneracyError(
                f"zero persists on the counting boundary near {retry[0][1]} after 5 jitters"
            )
        for i, _ in retry:
            pad = windows[i].diameter() * 3e-7 * (attempt + 1)
            win = current[i]
            current[i] = SearchWindow(
                win.re_min - 1.31 * pad,
                win.re_max + 0.77 * pad,
                win.im_min - 1.09 * pad,
                win.im_max + 0.89 * pad,
            )


def _ref_quadrisect(evaluate, window, count, s1, max_cell, out):
    if count == 0:
        return
    if count == 1 and window.contains(s1):
        out.append(s1)
        return
    if max(window.width, window.height) < 1e-12:
        out.extend([window.center] * count)
        return
    if count == 1 and window.width <= max_cell and window.height <= max_cell:
        out.append(window.center)
        return
    for fr, fi in ((0.5, 0.5), (0.43, 0.57), (0.57, 0.43), (0.37, 0.63), (0.63, 0.37)):
        children = _split(window, fr, fi)
        try:
            counts, moments = _ref_count(evaluate, children)
        except BoundaryDegeneracyError:
            continue
        if sum(counts) == count:
            for child, c, m in zip(children, counts, moments):
                _ref_quadrisect(evaluate, child, c, m, max_cell, out)
            return
    raise BoundaryDegeneracyError(
        f"could not partition {count} zeros in {window}; zeros pinned to every tried cut"
    )


def _outcome(localize, fn, window, max_cell):
    """('seeds', seeds) or (error type, message)."""
    try:
        return "seeds", localize(fn, window, max_cell)
    except BoundaryDegeneracyError as err:
        return type(err), str(err)


def _ref_localize(fn, window, max_cell):
    evaluate = _vectorized(fn)
    (count,), (s1,) = _ref_count(evaluate, [window])
    seeds = []
    _ref_quadrisect(evaluate, window, count, s1, max_cell, seeds)
    return seeds


def _table_max_cell(window):
    # the cell size find_collective_rates asks for
    return max(window.diameter() / 128.0, 4e-12)


def _pinned(*squares):
    """Two pairs of zeros 1e-5 apart, at 0.8 + 0.8j and -0.9 - 0.9j, and nan
    on each square (center, half side): every cut of a cell whose middle a
    square covers runs through it.  A cell that holds a pair is never a
    one-zero leaf, so it has to be cut."""
    zeros = (0.8 + 0.8j, 0.80001 + 0.8j, -0.9 - 0.9j, -0.89999 - 0.9j)

    def fn(z):
        for c, h in squares:
            if abs(z.real - c.real) < h and abs(z.imag - c.imag) < h:
                return complex("nan")
        return math.prod(z - r for r in zeros)

    return fn


# the middles of the top-right cell (path (3,)) and of the bottom-left
# cell of the bottom-left cell (path (0, 0)) of SearchWindow(-1, 1, -1, 1)
_SQUARE_3 = (0.5 + 0.5j, 0.15)
_SQUARE_00 = (-0.75 - 0.75j, 0.075)


class TestBreadthFirstAgainstRecursiveQuadrisection:
    @pytest.mark.parametrize("mode", ["sr", "general"])
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 30])
    @pytest.mark.parametrize("sep", [0.01, 0.1, 0.5, 1.0, 3.0])
    def test_same_seeds_or_error(self, mode, n, sep):
        fn = characteristic_function(ChainParams(n, sep, mode=mode))
        window = default_window(n)
        max_cell = _table_max_cell(window)
        want = _outcome(_ref_localize, fn, window, max_cell)
        assert _outcome(localize_zeros, fn, window, max_cell) == want

    @pytest.mark.parametrize(
        "fn, window, seeds",
        [
            # a double zero off every cut: its cell shrinks below 1e-12
            (lambda z: (z - (0.1 - 0.3j)) ** 2, SearchWindow(-1, 1, -1, 0), 2),
            # a zero on the crossing of the 0.5/0.5 cut: the cut is nudged
            (lambda z: (z + 0.5j) * (z - (0.7 - 0.2j)), SearchWindow(-1, 1, -1, 0), 2),
            # a close pair in the first quarter, a lone zero in the second:
            # the lone zero's cell is a leaf levels before the pair's cells
            (
                lambda z: (z - (-0.5 - 0.5j)) * (z - (-0.52 - 0.45j)) * (z - (0.5 - 0.5j)),
                SearchWindow(-1, 1, -1, 1),
                3,
            ),
        ],
        ids=["double-zero", "zero-on-cut", "leaves-at-mixed-depths"],
    )
    def test_plain_callables(self, fn, window, seeds):
        max_cell = window.width / 2
        want = _outcome(_ref_localize, fn, window, max_cell)
        assert want[0] == "seeds" and len(want[1]) == seeds
        assert _outcome(localize_zeros, fn, window, max_cell) == want

    def test_double_zero_reaches_the_smallest_cells(self):
        seeds = localize_zeros(lambda z: (z - (0.1 - 0.3j)) ** 2, SearchWindow(-1, 1, -1, 0), 0.05)
        assert len(seeds) == 2 and seeds[0] == seeds[1]
        assert abs(seeds[0] - (0.1 - 0.3j)) < 1e-12

    def test_zero_on_cut_is_found_through_a_nudge(self):
        seen = []
        fn = lambda z: seen.append(z) or (z + 0.5j) * (z - (0.7 - 0.2j))
        localize_zeros(fn, SearchWindow(-1, 1, -1, 0), 0.05)
        # the root cell is cut at the 0.43/0.57 split: its vertical line
        # re = -0.14 is sampled, the 0.5/0.5 line re = 0 as well
        assert any(abs(z.real + 0.14) < 1e-12 for z in seen)
        assert any(z.real == 0.0 for z in seen)

    def test_error_of_the_first_pinned_cell_in_depth_first_order(self):
        window = SearchWindow(-1.0, 1.0, -1.0, 1.0)
        cell_3, cell_00 = SearchWindow(0.0, 1.0, 0.0, 1.0), SearchWindow(-1.0, -0.5, -1.0, -0.5)
        # either square alone makes its cell fail at every cut
        for square, cell in ((_SQUARE_3, cell_3), (_SQUARE_00, cell_00)):
            kind, msg = _outcome(localize_zeros, _pinned(square), window, 0.05)
            assert (kind, msg) == (
                BoundaryDegeneracyError,
                f"could not partition 2 zeros in {cell}; zeros pinned to every tried cut",
            )
        # with both, the breadth-first walk finds cell (3,) a level before
        # cell (0, 0), but the recursion reached (0, 0) first
        fn = _pinned(_SQUARE_3, _SQUARE_00)
        want = _outcome(_ref_localize, fn, window, 0.05)
        assert want[0] is BoundaryDegeneracyError and repr(cell_00) in want[1]
        assert _outcome(localize_zeros, fn, window, 0.05) == want

    def test_only_the_root_is_ever_jittered(self, monkeypatch):
        # square 3 fails the walk of every child whose boundary runs
        # through it: those cuts are rejected, never recounted on an
        # expanded copy, so every walked window but the root is a quarter
        walked = []
        original = rootfind._windings

        def recorded(evaluate, windows):
            walked.extend(windows)
            return original(evaluate, windows)

        monkeypatch.setattr(rootfind, "_windings", recorded)
        window = SearchWindow(-1.0, 1.0, -1.0, 1.0)
        with pytest.raises(BoundaryDegeneracyError, match="could not partition"):
            localize_zeros(_pinned(_SQUARE_3), window, 0.05)
        assert walked[0] == window
        quarters = {q for parent in set(walked) for cut in rootfind._CUTS for q in _split(parent, *cut)}
        assert len(walked) > 1 and set(walked[1:]) <= quarters

    def test_no_cell_after_the_first_failure_is_cut_further(self):
        # once cell (0, 0) has failed, the cells of the pair at 0.8 + 0.8j
        # come after it in depth-first order and cannot change the error
        seen = []
        fn = _pinned(_SQUARE_00)
        with pytest.raises(BoundaryDegeneracyError, match="could not partition"):
            localize_zeros(lambda z: seen.append(z) or fn(z), SearchWindow(-1.0, 1.0, -1.0, 1.0), 1e-6)
        # without the cut-off its cells shrink until they part the pair, and
        # samples with them
        assert min(abs(z - (0.8 + 0.8j)) for z in seen) > 1e-3


# ---------------------------------------------------------------------------
# one-zero cells seeded from the first moment of their boundary


@st.composite
def _separated_zeros(draw):
    """1-4 zeros in distinct cells of the 8 x 8 grid of side 0.25 over
    SearchWindow(-1, 1, -1, 1), none in the outer ring of cells, each at
    least 0.03 from its cell's edges.  Every cell of the third tree level
    holds at most one zero, so no cut runs closer than 0.03 to a zero."""
    cells = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                          min_size=1, max_size=4, unique=True))
    offset = st.floats(0.12, 0.88)
    return [complex(-1.0 + 0.25 * (i + draw(offset)), -1.0 + 0.25 * (j + draw(offset)))
            for i, j in cells]


class TestMomentSeeds:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(zeros=_separated_zeros())
    def test_one_seed_next_to_each_zero(self, zeros):
        window = SearchWindow(-1.0, 1.0, -1.0, 1.0)
        seeds = localize_zeros(lambda z: math.prod(z - r for r in zeros), window,
                               _table_max_cell(window))
        # a center seed of a max_cell cell may lie 0.0055 diameters away
        tol = 1e-3 * window.diameter()
        assert len(seeds) == len(zeros)
        for r in zeros:
            assert sum(abs(s - r) <= tol for s in seeds) == 1

    @pytest.mark.parametrize("shift", [10.0, complex("nan"), complex("inf")])
    def test_rejected_moment_falls_back_to_a_small_cell_center(self, shift, monkeypatch):
        original = rootfind._windings

        def moved(evaluate, windows):
            counts, where, moments = original(evaluate, windows)
            return counts, where, moments + shift

        monkeypatch.setattr(rootfind, "_windings", moved)
        seeds = localize_zeros(lambda z: z - (0.3 - 0.2j), SearchWindow(-1.0, 1.0, -1.0, 1.0), 0.05)
        # the center of the cell of side 2 / 64 around the zero
        assert seeds == [0.296875 - 0.203125j]


# the six counted pole_tables configurations of the benchmark, with the
# points their quadrisection evaluates
_COUNTED_TABLES = {
    ("sr", 5, 1.0): 11682,
    ("sr", 10, 0.1): 5512,
    ("sr", 30, 0.01): 5490,
    ("sr", 50, 0.01): 14256,
    ("general", 2, 1.0): 1944,
    ("general", 5, 0.1): 4934,
}


@pytest.mark.parametrize("case", sorted(_COUNTED_TABLES))
def test_quadrisection_evaluates_in_few_large_batches(case, monkeypatch):
    # the points are those the depth-first walk evaluated, so the walk
    # makes the same decisions; a level per batch keeps the calls few
    mode, n, sep = case
    calls, points = [0], [0]
    original = CharFn.eval_scaled

    def counted(self, deltas):
        calls[0] += 1
        points[0] += np.size(deltas)
        return original(self, deltas)

    monkeypatch.setattr(CharFn, "eval_scaled", counted)
    window = default_window(n)
    localize_zeros(characteristic_function(ChainParams(n, sep, mode=mode)), window,
                   _table_max_cell(window))
    assert points[0] == _COUNTED_TABLES[case]
    assert calls[0] <= 29


@pytest.mark.parametrize("case", sorted(_COUNTED_TABLES))
def test_walk_never_evaluates_an_empty_batch(case, monkeypatch):
    # the boundary walk ends at the level where no segment is left open
    mode, n, sep = case
    sizes = []
    original = CharFn.eval_scaled

    def recorded(self, deltas):
        sizes.append(np.size(deltas))
        return original(self, deltas)

    monkeypatch.setattr(CharFn, "eval_scaled", recorded)
    find_collective_rates(ChainParams(n, sep, mode=mode))
    assert sizes and min(sizes) > 0
