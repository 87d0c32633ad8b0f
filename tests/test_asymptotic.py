import math

import numpy as np
import pytest

from ssrchain import (
    BranchPair,
    ContractViolationError,
    critical_pair,
    g_eval,
    solve_branches,
    trace_contour,
)
from ssrchain import asymptotic


def reduced_equation_root():
    """Oracle: bisect 4 t cosh t = (t^2 + 4) sinh t on (0.1, 20)."""
    r = lambda t: 4.0 * t * math.cosh(t) - (t * t + 4.0) * math.sinh(t)
    lo, hi = 0.1, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if r(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGEval:
    def test_hand_value(self):
        assert g_eval(0.0, 1.0) == pytest.approx(-2.0 * math.sinh(1.0), rel=1e-14)

    def test_near_zero_at_rounded_critical_pair(self):
        assert abs(g_eval(2.277, 1.76)) < 0.05

    def test_dicke_recovery_limit(self):
        # g/tau -> 2 alpha - 2 as beta -> 0, so the small branch tends to 1
        for beta in (1e-6, 1e-9):
            tau = 0.5 * math.sqrt(beta * (4.0 + beta))
            assert g_eval(1.0, beta) / tau == pytest.approx(0.0, abs=1e-3)

    def test_beta_zero(self):
        assert g_eval(1.7, 0.0) == 0.0

    def test_rejects_negative_beta(self):
        with pytest.raises(ContractViolationError):
            g_eval(1.0, -0.5)

    def test_overflow_guard_keeps_sign(self):
        val = g_eval(80.0, 10.0)  # tau = 400, past the hyperbolic overflow
        assert math.isinf(val) and val < 0


class TestCriticalPair:
    def test_digits(self):
        cp = critical_pair()
        assert cp.tau_c == pytest.approx(2.399357280515, abs=1e-9)
        assert cp.beta_c == pytest.approx(1.756915359563, abs=1e-9)
        assert cp.alpha_c == pytest.approx(2.276717531228, abs=1e-9)

    def test_matches_independent_bisection(self):
        cp = critical_pair()
        assert cp.tau_c == pytest.approx(reduced_equation_root(), abs=1e-12)

    def test_matches_rounded_reference_values(self):
        cp = critical_pair()
        assert abs(cp.alpha_c - 2.277) / 2.277 < 0.005
        assert abs(cp.beta_c - 1.76) / 1.76 < 0.005

    def test_exact_product_identity(self):
        cp = critical_pair()
        assert abs(cp.alpha_c * cp.beta_c - 4.0) < 1e-10

    def test_residual(self):
        assert critical_pair().residual < 1e-10

    def test_tangency_condition(self):
        # dg/dalpha = 0 at the turning point (central difference)
        cp = critical_pair()
        h = 1e-6
        der = (g_eval(cp.alpha_c + h, cp.beta_c) - g_eval(cp.alpha_c - h, cp.beta_c)) / (2 * h)
        scale = abs(g_eval(cp.alpha_c + 0.1, cp.beta_c)) / 0.1
        assert abs(der) / scale < 1e-6


class TestSolveBranches:
    def test_two_roots_below_critical(self):
        bp = solve_branches(1.0)
        assert bp.alpha_small is not None and bp.alpha_large is not None
        assert bp.alpha_small < 4.0 / 1.76 < bp.alpha_large

    def test_no_roots_above_critical(self):
        bp = solve_branches(2.2)
        assert bp.alpha_small is None and bp.alpha_large is None

    def test_small_beta_dicke_branch(self):
        bp = solve_branches(0.01)
        assert bp.alpha_small == pytest.approx(1.0, rel=0.02)

    def test_root_validity(self):
        for beta in (0.3, 0.9, 1.5, 1.74):
            bp = solve_branches(beta)
            assert abs(g_eval(bp.alpha_small, beta)) < 1e-9
            assert abs(g_eval(bp.alpha_large, beta)) < 1e-9

    def test_branch_count_transition(self):
        cp = critical_pair()
        betas = [0.1 + 2.4 * i / 199 for i in range(200)]
        counts = []
        for b in betas:
            bp = solve_branches(b)
            counts.append(sum(x is not None for x in (bp.alpha_small, bp.alpha_large)))
        # non-increasing, and the 2 -> 0 drop happens within one cell of beta_c
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        drop = max(i for i, c in enumerate(counts) if c == 2)
        assert betas[drop] <= cp.beta_c <= betas[drop + 1] + 1e-12

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ContractViolationError):
            solve_branches(0.0)


class TestTraceContour:
    def test_no_points_beyond_critical(self):
        cp = critical_pair()
        pts = trace_contour((0.1, 2.5), 100)
        assert max(b for b, _, _ in pts) <= cp.beta_c + 1e-9

    def test_branches_meet_at_turning_point(self):
        cp = critical_pair()
        pts = trace_contour((0.1, 2.5), 100)
        crit = [p for p in pts if p[2] == "critical"]
        assert len(crit) == 1
        idx = pts.index(crit[0])
        before, after = pts[idx - 1], pts[idx + 1]
        assert before[2] == "small" and after[2] == "large"
        assert abs(before[1] - cp.alpha_c) < 0.3
        assert abs(after[1] - cp.alpha_c) < 0.3

    def test_degenerate_range(self):
        pts = trace_contour((0.5, 0.5), 2)
        assert len(pts) == 2
        assert pts[0][0] == pts[1][0] == 0.5
        assert pts[0][1] < pts[1][1]

    def test_point_validity(self):
        for b, a, branch in trace_contour((0.2, 2.0), 40):
            assert abs(g_eval(a, b)) < 1e-9

    def test_rejects_single_step(self):
        with pytest.raises(ContractViolationError):
            trace_contour((0.1, 2.0), 1)

    @pytest.mark.parametrize("beta_range", [(0.1, math.inf), (math.nan, 1.0), (0.1, math.nan)])
    def test_rejects_non_finite_range(self, beta_range):
        # inf * 0 made betas[0] nan, and the contour held only the critical point
        with pytest.raises(ContractViolationError, match="bad beta range"):
            trace_contour(beta_range, 10)


class TestSolveBranchesArguments:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ContractViolationError, match="finite beta"):
            solve_branches(beta)

    @pytest.mark.parametrize("alpha_max", [math.nan, math.inf, -1.0, 0.0, 1e-3])
    def test_rejects_bad_alpha_max(self, alpha_max):
        # nan once gave BranchPair(nan, nan); -1 a TypeError from a complex pow
        with pytest.raises(ContractViolationError, match="alpha_max"):
            solve_branches(1.0, alpha_max=alpha_max)


def scalar_solve_branches(beta, alpha_max=50.0, g_eval=g_eval):
    """Reference: the grid scan one g_eval at a time, the grid rebuilt per call."""
    grid = [1e-3 * (alpha_max / 1e-3) ** (i / 1999.0) for i in range(2000)]
    vals = [g_eval(a, beta) for a in grid]
    roots = []
    for i in range(1999):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(grid[i])
        elif (fa < 0.0) != (fb < 0.0):
            roots.append(asymptotic._bisect_root(beta, grid[i], grid[i + 1], fa, fb))
    if not roots:
        imax = max(range(2000), key=lambda i: vals[i])
        if 0 < imax < 1999:
            a_lo, a_hi = grid[imax - 1], grid[imax + 1]
            for _ in range(200):
                m1 = a_lo + (a_hi - a_lo) / 3.0
                m2 = a_hi - (a_hi - a_lo) / 3.0
                if g_eval(m1, beta) < g_eval(m2, beta):
                    a_lo = m1
                else:
                    a_hi = m2
                if a_hi - a_lo < 1e-13 * max(1.0, a_hi):
                    break
            a_star = 0.5 * (a_lo + a_hi)
            if abs(g_eval(a_star, beta)) < 1e-9:
                return BranchPair(beta, a_star, a_star)
        return BranchPair(beta, None, None)
    roots.sort()
    if len(roots) == 1 or roots[-1] - roots[0] < 1e-6:
        return BranchPair(beta, roots[0], roots[0])
    return BranchPair(beta, roots[0], roots[-1])


_BETA_C = critical_pair().beta_c
# 1e-6 .. 40, and the tangency: two roots, the fold, and none
_SCAN_BETAS = sorted(
    np.geomspace(1e-6, 40.0, 41).tolist() + [_BETA_C - 1e-9, _BETA_C, _BETA_C + 1e-9]
)
# tau passes 300 on part of the grid for beta > 12 at the default alpha_max = 50
# and for beta > 0.3 at alpha_max = 2000
_SCAN_ALPHA_MAX = (50.0, 2000.0)
_GRID = [1e-3 * (50.0 / 1e-3) ** (i / 1999.0) for i in range(2000)]


class TestVectorScan:
    @pytest.mark.parametrize("alpha_max", _SCAN_ALPHA_MAX)
    def test_matches_scalar_scan(self, alpha_max):
        kinds = set()
        for beta in _SCAN_BETAS:
            got = solve_branches(beta, alpha_max)
            assert got == scalar_solve_branches(beta, alpha_max), beta
            kinds.add((got.alpha_small is None, got.alpha_small == got.alpha_large))
        assert kinds == {(False, False), (False, True), (True, True)}

    @pytest.mark.parametrize("g", [
        # exact zeros on grid points, each followed by a cell without a sign change
        lambda a, b: -(a - _GRID[600]) * (a - _GRID[1400]),
        # no root, and the maximum -1e-12 tied at two grid points: the first wins
        lambda a, b: -1e-12 - ((a - _GRID[600]) * (a - _GRID[1400])) ** 2,
    ], ids=["exact_zeros", "tied_maximum"])
    def test_synthetic_g_matches_scalar_scan(self, monkeypatch, g):
        # the same arithmetic on floats and on arrays, so both scans see equal values
        monkeypatch.setattr(asymptotic, "g_eval", g)
        monkeypatch.setattr(asymptotic, "_g_many", g)
        got = solve_branches(1.0)
        assert got == scalar_solve_branches(1.0, g_eval=g)
        assert got.alpha_small is not None

    @pytest.mark.parametrize("alpha_max", _SCAN_ALPHA_MAX)
    def test_grid_matches_scalar_expression(self, alpha_max):
        grid = asymptotic._log_grid(alpha_max)
        want = [1e-3 * (alpha_max / 1e-3) ** (i / 1999.0) for i in range(2000)]
        assert grid.tolist() == want
        assert not grid.flags.writeable

    @pytest.mark.parametrize("alpha_max", _SCAN_ALPHA_MAX)
    def test_vector_g_matches_g_eval(self, alpha_max):
        grid = asymptotic._log_grid(alpha_max)
        overflowed = 0
        for beta in _SCAN_BETAS:
            got = asymptotic._g_many(grid, beta)
            want = np.array([g_eval(a, beta) for a in grid.tolist()])
            assert np.array_equal(np.sign(got), np.sign(want)), beta
            inf = np.isinf(want)
            assert np.array_equal(got[inf], want[inf])
            overflowed += int(inf.sum())
            # relative to the two terms of g, whose difference cancels near a root
            a, tau = grid[~inf], 0.5 * np.sqrt(beta * (4.0 + grid[~inf] ** 2 * beta))
            scale = 2.0 * a * tau * np.cosh(tau) + (2.0 + a * a * beta) * np.sinh(tau)
            assert np.all(np.abs(got[~inf] - want[~inf]) <= 1e-13 * scale), beta
        assert overflowed > 0
