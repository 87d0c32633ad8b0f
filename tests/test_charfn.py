import cmath
import math

import numpy as np
import pytest

from ssrchain import (
    ChainParams,
    CharFn,
    ContractViolationError,
    SingularDetuningError,
    closed_form_residual,
    markovian_polynomial,
)
from ssrchain.charfn import _INF
from ssrchain.rootfind import refine


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


class TestEvalMany:
    # the grid reaches |Im Delta L| = 900, where cmath overflows (eval gives
    # _INF) and, at N = 30, where the plain recurrence itself overflows
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
        got = fn.eval_many(np.array(self.GRID))
        want = np.array([fn.eval(z) for z in self.GRID])
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        # relative to the size of the terms that cancel in f, which is what
        # rounding is relative to near a zero
        scale = np.array([fn.noise_scale(z) for z in np.array(self.GRID)[finite].tolist()])
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale)

    def test_non_finite_where_cmath_overflows(self):
        fn = CharFn(sr(5, 3.0), deflation_order=4)
        want = [fn.eval(z) for z in self.GRID]
        overflowed = [z == _INF for z in want]
        assert 0 < sum(overflowed) < len(want)
        got = fn.eval_many(np.array(self.GRID))
        assert not np.isfinite(got[np.array(overflowed)]).any()


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

    def test_guards(self):
        with pytest.raises(ContractViolationError):
            closed_form_residual(-0.5j, ChainParams(2, 0.5, mode="general"))
        with pytest.raises(SingularDetuningError):
            closed_form_residual(0.0, sr(2, 0.5))
