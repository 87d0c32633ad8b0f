import math

import numpy as np
import pytest

from ssrchain import (
    ChainParams,
    ContractViolationError,
    Mat2c,
    SingularDetuningError,
    matrix_power,
    propagation_matrix,
    qubit_matrix,
    scattering,
    unit_cell,
)
from ssrchain.core import _qubit_matrix, chebyshev_u_pair


def as_array(m: Mat2c) -> np.ndarray:
    return np.array([[m.a11, m.a12], [m.a21, m.a22]])


def random_unimodular(rng, max_mod=3.0):
    """Random 2x2 complex matrix with det = 1 and entries of modulus <= max_mod."""
    while True:
        a, b, c = (rng.uniform(-1.5, 1.5, 2) @ [1, 1j] for _ in range(3))
        if abs(a) < 0.2:
            continue
        d = (1.0 + b * c) / a
        m = Mat2c(a, b, c, d)
        if all(abs(v) <= max_mod for v in m.as_tuple()):
            return m


class TestChainParams:
    def test_mode_aliases(self):
        assert ChainParams(2, 0.5, mode="sr").mode == "sr-condition"
        assert ChainParams(2, 0.5, mode="markovian").mode == "markovian"

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            ChainParams(0, 0.5)
        with pytest.raises(ContractViolationError):
            ChainParams(2, -0.1)
        with pytest.raises(ContractViolationError):
            ChainParams(2, 0.5, omega=-1.0)
        with pytest.raises(ContractViolationError):
            ChainParams(2, 0.5, mode="weird")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # nan < 0 is false, so a sign test alone lets nan through
        with pytest.raises(ContractViolationError, match="separation must be finite"):
            ChainParams(2, bad)
        with pytest.raises(ContractViolationError, match="omega must be finite"):
            ChainParams(2, 0.5, mode="general", omega=bad)

    def test_small_omega_warns(self):
        with pytest.warns(UserWarning):
            ChainParams(2, 0.5, mode="general", omega=5.0)

    def test_sr_phase_unit_is_parity(self):
        assert ChainParams(2, 0.7, sr_index=1).phase_unit() == -1.0
        assert ChainParams(2, 0.7, sr_index=2).phase_unit() == 1.0

    def test_snapped_phase_at_superradiant_condition(self):
        # Omega L = pi to float precision must give exactly -1
        p = ChainParams(2, math.pi / 50.0, mode="general", omega=50.0)
        assert p.phase_unit() == -1.0


class TestQubitMatrix:
    def test_hand_value_at_single_qubit_pole(self):
        m = qubit_matrix(-0.5j)
        assert m.a11 == pytest.approx(0.0, abs=1e-15)
        assert m.a12 == pytest.approx(-1.0)
        assert m.a21 == pytest.approx(1.0)
        assert m.a22 == pytest.approx(2.0)

    def test_interaction_off_gives_identity(self):
        m = _qubit_matrix(0.7 - 0.3j, 0.0)
        assert m.as_tuple() == (1.0, 0.0, -0.0, 1.0)

    def test_unimodular(self):
        for d in (1.0, -2.3 + 0.4j, 1e-6j, 100.0 - 5j):
            assert abs(qubit_matrix(d).det() - 1.0) < 1e-12

    def test_singular_at_origin(self):
        with pytest.raises(SingularDetuningError):
            qubit_matrix(0.0)


class TestPropagationMatrix:
    def test_zero_phase(self):
        assert propagation_matrix(0.0).as_tuple() == (1.0, 0.0, 0.0, 1.0)

    def test_half_wave(self):
        m = propagation_matrix(math.pi)
        assert m.a11 == pytest.approx(-1.0)
        assert m.a22 == pytest.approx(-1.0)

    def test_quarter_wave(self):
        m = propagation_matrix(math.pi / 2.0)
        assert m.a11 == pytest.approx(-1j)
        assert m.a22 == pytest.approx(1j)


class TestUnitCell:
    def test_zero_separation_reduces_to_qubit_matrix(self):
        for mode in ("sr", "general", "markovian"):
            p = ChainParams(3, 0.0, mode=mode)
            assert as_array(unit_cell(1.2 - 0.7j, p)) == pytest.approx(
                as_array(qubit_matrix(1.2 - 0.7j))
            )

    def test_sr_index_parity_is_overall_sign(self):
        d = 0.4 - 1.1j
        m1 = as_array(unit_cell(d, ChainParams(4, 0.8, sr_index=1)))
        m2 = as_array(unit_cell(d, ChainParams(4, 0.8, sr_index=2)))
        assert m1 == pytest.approx(-m2)

    def test_general_equals_sr_on_condition(self):
        # Omega L = pi: general-mode phase is (Omega + Delta) L = pi + Delta L
        d = -0.5j
        g = unit_cell(d, ChainParams(2, math.pi / 50.0, mode="general", omega=50.0))
        s = unit_cell(d, ChainParams(2, math.pi / 50.0, mode="sr", sr_index=1))
        assert as_array(g) == pytest.approx(as_array(s), rel=1e-14)

    def test_unimodular_all_modes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = complex(rng.uniform(-3, 3), rng.uniform(-3, 0.0)) or 0.1
            mode = rng.choice(["sr", "general", "markovian"])
            p = ChainParams(2, float(rng.uniform(0, 2)), mode=str(mode))
            assert abs(unit_cell(d, p).det() - 1.0) < 1e-12


class TestMatrixPower:
    def test_first_power(self):
        t = random_unimodular(np.random.default_rng(0))
        assert as_array(matrix_power(t, 1)) == pytest.approx(as_array(t))

    def test_identity_power(self):
        assert as_array(matrix_power(Mat2c.identity(), 57)) == pytest.approx(np.eye(2))

    def test_against_repeated_multiplication(self):
        rng = np.random.default_rng(42)
        t = random_unimodular(rng)
        ref = np.linalg.matrix_power(as_array(t), 8)
        got = as_array(matrix_power(t, 8))
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_power_oracle_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            t = random_unimodular(rng)
            n = int(rng.integers(1, 65))
            ref = np.linalg.matrix_power(as_array(t), n)
            got = as_array(matrix_power(t, n))
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale

    def test_large_order_power(self):
        # contracted up to N = 200 at the magnitudes arising near the pole
        rng = np.random.default_rng(12)
        t = random_unimodular(rng, max_mod=1.2)
        ref = np.linalg.matrix_power(as_array(t), 200)
        got = as_array(matrix_power(t, 200))
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_defective_trace_points(self):
        # x = tr/2 = +-1 (parabolic case) must stay exact via the recurrence
        t = Mat2c(1.0, 1.0, 0.0, 1.0)
        got = as_array(matrix_power(t, 40))
        assert got == pytest.approx(np.array([[1.0, 40.0], [0.0, 1.0]]))

    def test_rejects_non_unimodular(self):
        with pytest.raises(ContractViolationError):
            matrix_power(Mat2c(2.0, 0.0, 0.0, 1.0), 3)


def test_chebyshev_u_pair_is_the_plain_recurrence_bit_for_bit():
    # hoisting 2.0 * x out of the loop changes no bit of U_{n-1}, U_{n-2}
    def plain(x, n):
        ukm1, uk = 0.0 + 0.0j, 1.0 + 0.0j
        for _ in range(n - 1):
            ukm1, uk = uk, 2.0 * x * uk - ukm1
        return uk, ukm1

    rng = np.random.default_rng(17)
    xs = [complex(*rng.normal(scale=s, size=2)) for s in (0.1, 1.0, 30.0) for _ in range(40)]
    xs += [1.0, -1.0, 0.0, 1e200 + 1e200j, complex(math.inf, 0.0), complex(math.nan, 1.0)]
    for x in xs:
        for n in (1, 2, 3, 17, 100):
            got, want = chebyshev_u_pair(x, n), plain(x, n)
            assert repr(got) == repr(want)


class TestScattering:
    def test_transparent_far_off_resonance(self):
        t, r = scattering(1e6, ChainParams(1, 0.0))
        assert abs(t - 1.0) < 1e-5
        assert abs(r) < 1e-5

    def test_perfect_resonant_reflection(self):
        t, r = scattering(1e-9, ChainParams(1, 0.0))
        assert abs(t) < 1e-8
        assert r == pytest.approx(-1.0, abs=1e-8)

    def test_flux_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 21))
            sep = float(rng.uniform(0, 2))
            d = float(rng.uniform(-5, 5)) or 0.3
            mode = str(rng.choice(["sr", "general"]))
            t, r = scattering(d, ChainParams(n, sep, mode=mode))
            assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-10

    def test_rejects_complex_detuning(self):
        with pytest.raises(ContractViolationError):
            scattering(1.0 + 0.5j, ChainParams(2, 0.3))


def test_parity_invariance_of_t11_zeros():
    # (T^N)_11 for n=1 and n=2 differ by (-1)^N only
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d = complex(rng.uniform(-2, 2), rng.uniform(-3, -0.01))
        sep = float(rng.uniform(0.05, 1.5))
        t1 = matrix_power(unit_cell(d, ChainParams(n, sep, sr_index=1)), n)
        t2 = matrix_power(unit_cell(d, ChainParams(n, sep, sr_index=2)), n)
        assert t1.a11 == pytest.approx((-1.0) ** n * t2.a11, rel=1e-10, abs=1e-12)
