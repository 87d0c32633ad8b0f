import math

import mpmath as mp
import numpy as np
import pytest

from ssrchain import (
    BranchPair,
    ContractViolationError,
    asymptotic,
    critical_pair,
    g_eval,
    solve_branches,
    trace_contour,
)


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

    @pytest.mark.parametrize("steps", [2, 3])
    @pytest.mark.parametrize("ends", ["fold-left", "fold-only", "fold-right"])
    def test_grid_beta_at_the_fold_emits_the_vertex_once(self, ends, steps):
        cp = critical_pair()
        b0, b1 = {"fold-left": (cp.beta_c, 2.0), "fold-only": (cp.beta_c, cp.beta_c),
                  "fold-right": (0.1, cp.beta_c)}[ends]
        pts = trace_contour((b0, b1), steps)
        at_fold = [p for p in pts if p[:2] == (cp.beta_c, cp.alpha_c)]
        assert at_fold == [(cp.beta_c, cp.alpha_c, "critical")]
        assert all(p[:2] != q[:2] for p, q in zip(pts, pts[1:]))
        labels = [p[2] for p in pts]
        assert labels == sorted(labels, key=["small", "critical", "large"].index)

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


def mp_critical():
    """Oracle: (alpha_c, beta_c, tau_c) at 40 digits from the root of
    4 t cosh t = (t^2 + 4) sinh t, with beta_c = t^2 - 4 and alpha_c = 4 / beta_c."""
    with mp.workdps(40):
        tau = mp.findroot(lambda t: 4 * t * mp.cosh(t) - (t * t + 4) * mp.sinh(t), mp.mpf("2.4"))
        beta = tau * tau - 4
        return 4 / beta, beta, tau


def mp_root_of_g(alpha, beta):
    """Oracle: the root of g(., beta) itself nearest alpha, at 50 digits."""
    with mp.workdps(50):
        b = mp.mpf(beta)

        def g(a):
            tau = mp.sqrt(b * (4 + a * a * b)) / 2
            return 2 * a * tau * mp.cosh(tau) - (2 + a * a * b) * mp.sinh(tau)

        return mp.findroot(g, mp.mpf(alpha))


class TestClosedFormContour:
    def test_large_root_beyond_alpha_50(self):
        # the large root lies past alpha = 50, where a bounded alpha grid would
        # miss it and report the small one as a double root
        bp = solve_branches(0.2)
        assert bp.alpha_small == pytest.approx(1.0354923020528588, rel=1e-13)
        assert bp.alpha_large == pytest.approx(68.2418347850, abs=1e-10)

    @pytest.mark.parametrize("beta", np.geomspace(1e-6, 1.7, 52).tolist())
    def test_roots_match_mpmath(self, beta):
        bp = solve_branches(beta)
        for alpha in (bp.alpha_small, bp.alpha_large):
            ref = mp_root_of_g(alpha, beta)
            assert float(abs(alpha - ref) / ref) < 1e-14, alpha
        assert bp.alpha_small < critical_pair().alpha_c < bp.alpha_large

    def test_critical_pair_within_two_ulps_of_mpmath(self):
        cp = critical_pair()
        for got, ref in zip((cp.alpha_c, cp.beta_c, cp.tau_c), mp_critical()):
            assert abs(got - float(ref)) <= 2 * math.ulp(float(ref)), (got, ref)

    def test_root_count_at_the_fold(self):
        cp = critical_pair()
        assert solve_branches(cp.beta_c) == BranchPair(cp.beta_c, cp.alpha_c, cp.alpha_c)
        below = solve_branches(math.nextafter(cp.beta_c, 0.0))
        assert below.alpha_small < cp.alpha_c < below.alpha_large
        above = solve_branches(math.nextafter(cp.beta_c, math.inf))
        assert above.alpha_small is None and above.alpha_large is None

    def test_vanishing_beta(self):
        # sinh overflows on the large branch: the root is reported as inf, not
        # dropped, so the small root is never claimed as a double root
        bp = solve_branches(1e-305)
        assert (bp.alpha_small, bp.alpha_large) == (1.0, math.inf)
        bp = solve_branches(5e-324)
        assert bp.alpha_small == 1.0 and bp.alpha_large == math.inf

    @pytest.mark.parametrize("k", range(1, 53))
    def test_roots_near_the_fold_match_mpmath(self, k):
        # at the fold beta(tau) is quadratic in tau - tau_c, so a rounding of
        # ln beta moves the root by its square root: the bound grows as
        # sqrt(beta_c / (beta_c - beta))
        cp = critical_pair()
        beta = cp.beta_c * (1.0 - 2.0**-k)
        bp = solve_branches(beta)
        assert bp.alpha_small < cp.alpha_c < bp.alpha_large
        tol = 16 * 2.0**-52 * (1.0 + math.sqrt(cp.beta_c / (cp.beta_c - beta)))
        for alpha in (bp.alpha_small, bp.alpha_large):
            ref = mp_root_of_g(alpha, beta)
            assert float(abs(alpha - ref) / ref) <= tol, (alpha, tol)


class TestEvaluationBudget:
    """Calls of ln beta(tau), the one function the root finder evaluates:
    deterministic counts, independent of the machine."""

    @pytest.fixture
    def calls(self, monkeypatch):
        taus = []
        log_beta = asymptotic._log_beta

        def counted(tau):
            taus.append(tau)
            assert len(taus) <= 10_000, "root finder does not terminate"
            return log_beta(tau)

        monkeypatch.setattr(asymptotic, "_log_beta", counted)
        return taus

    def test_contour_of_200_steps(self, calls):
        trace_contour((0.1, 2.5), 200)
        assert 0 < len(calls) <= 2000

    @staticmethod
    def calls_per_arm(calls, beta):
        del calls[:]
        bp = solve_branches(beta)
        assert bp.alpha_small is not None and bp.alpha_large is not None
        small = sum(t < critical_pair().tau_c for t in calls)
        return small, len(calls) - small

    def test_one_float_below_the_fold(self, calls):
        small, large = self.calls_per_arm(calls, math.nextafter(critical_pair().beta_c, 0.0))
        assert 0 < small <= 40 and 0 < large <= 40

    def test_every_scale_of_beta(self, calls):
        # down to the least subnormal, where ln beta is still finite
        betas = [5e-324, 1e-320, 1e-310, 1e-305, 1e-300] + np.geomspace(1e-290, 1.75, 60).tolist()
        beta = critical_pair().beta_c
        for _ in range(200):  # the 200 floats below the fold
            beta = math.nextafter(beta, 0.0)
            betas.append(beta)
        for beta in betas:
            small, large = self.calls_per_arm(calls, beta)
            assert 0 < small <= 40 and 0 < large <= 40, (beta, small, large)
