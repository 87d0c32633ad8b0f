"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS line with the measured numbers, so running
``pytest tests/test_acceptance.py -v -s`` doubles as the reproduction
script for the package's quantitative results.
"""

import json
import math
import time

import numpy as np
import pytest

from ssrchain import (
    ChainParams,
    CharFn,
    ClosedFormResidual,
    Mat2c,
    SSRResult,
    closed_form_residual,
    critical_pair,
    degenerate_pair_probe,
    find_collective_rates,
    fit_scaling,
    markovian_polynomial,
    matrix_power,
    scaling_sweep,
    scattering,
    superradiant_pole,
)
from ssrchain.cli import main
from ssrchain.output import read_csv_table
from ssrchain.rootfind import _newton, default_window, grid_scan_minima

LC2 = 0.556929085522148  # two-qubit fold, from the closed-form oracle in test_ssr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def big_sweep(workdir):
    """CLI sweep N = 20..100 step 10 plus its fit; shared by criteria 4 and 6."""
    sweep_csv = workdir / "sweep_large.csv"
    t0 = time.time()
    rc = main(
        ["sweep", "--n-min", "20", "--n-max", "100", "--n-step", "10",
         "--jobs", "2", "-o", str(sweep_csv)]
    )
    elapsed = time.time() - t0
    assert rc == 0
    fit_json = workdir / "fit_large.json"
    rc = main(["fit", "--input", str(sweep_csv), "--n-min-fit", "20", "-o", str(fit_json)])
    assert rc == 0
    _, _, rows = read_csv_table(str(sweep_csv))
    fit = json.loads(fit_json.read_text())
    return rows, fit, elapsed


def test_criterion_1_single_emitter_exactness(workdir):
    t0 = time.time()
    for sep in ("0.1", "1", "10"):
        out = workdir / f"poles_n1_{sep}.csv"
        rc = main(["poles", "--n", "1", "--sep", sep, "--mode", "sr", "-o", str(out)])
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        assert len(rows) == 1
        err = abs(complex(float(rows[0]["re_gamma"]), float(rows[0]["im_gamma"])) - 1.0)
        assert err < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: single-emitter rate = gamma_0 to <1e-10 over L in (0.1, 1, 10) [{elapsed:.2f}s]")


def test_criterion_2_two_qubit_ssr_point(workdir):
    t0 = time.time()
    out = workdir / "ssr_n2.csv"
    rc = main(["ssr", "--n", "2", "-o", str(out)])
    elapsed = time.time() - t0
    assert rc == 0
    _, _, rows = read_csv_table(str(out))
    gamma = float(rows[0]["re_gamma_ssr"])
    l_c = float(rows[0]["l_critical"])
    assert abs(gamma - 4.59) <= 0.02
    assert abs(l_c - 0.56) <= 0.01
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: N=2 gives Gamma_SSR = {gamma:.6f} gamma_0, L_c = {l_c:.6f} [{elapsed:.2f}s]")


def test_criterion_3_dicke_limit():
    t0 = time.time()
    for n in (2, 5, 10, 50, 100):
        params = ChainParams(n, math.pi / 50.0, mode="markovian", omega=50.0)
        coeffs = markovian_polynomial(params)
        gammas = sorted((2j * d for d in np.roots(np.array(coeffs[::-1]))), key=abs)
        for g in gammas[: n - 1]:
            assert abs(g) < 1e-8
        assert abs(gammas[-1] - n) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: Markovian roots are (N-1) zeros + N gamma_0 to <1e-8 for N up to 100 [{elapsed:.2f}s]")


def test_criterion_4_large_n_scaling(big_sweep):
    rows, fit, sweep_elapsed = big_sweep
    assert all(r["status"] == "ok" for r in rows)
    alpha, beta = fit["data"]["alpha"], fit["data"]["beta"]
    assert abs(alpha - 2.277) / 2.277 < 0.005
    assert abs(beta - 1.76) / 1.76 < 0.01
    cp = critical_pair()
    assert abs(alpha - cp.alpha_c) / cp.alpha_c < 0.01
    assert sweep_elapsed < 1800.0
    print(
        f"\nPASS criterion 4: fit alpha = {alpha:.6f} (2.277 +- 0.5%), beta = {beta:.6f} "
        f"(1.76 +- 1%), |alpha - alpha_c|/alpha_c = {abs(alpha - cp.alpha_c) / cp.alpha_c:.2e} "
        f"[sweep {sweep_elapsed:.1f}s]"
    )


def test_criterion_5_critical_identity(workdir):
    t0 = time.time()
    out = workdir / "critical.json"
    rc = main(["asym", "--critical", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())["data"]
    assert abs(doc["product"] - 4.0) < 1e-10
    assert abs(doc["g_value"]) < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 5: alpha_c*beta_c = {doc['product']:.12f}, "
        f"|g| = {abs(doc['g_value']):.2e} [{elapsed:.2f}s]"
    )


def test_criterion_6_fit_quality(big_sweep):
    rows, _, _ = big_sweep
    large = [
        SSRResult(
            n_qubits=int(r["n_qubits"]),
            l_critical=float(r["l_critical"]),
            gamma_ssr=complex(float(r["re_gamma_ssr"]), float(r["im_gamma_ssr"])),
            coalescence=r["coalescence"] == "true",
            evaluations=int(r["evaluations"]),
            residual=float(r["residual"]),
        )
        for r in rows
    ]
    small = [res for res, _ in scaling_sweep(list(range(2, 11)))]
    fit = fit_scaling(small + large, n_min_fit=20)
    devs = dict(zip(fit.n_values, fit.gamma_deviations))
    dev_large = max(v for n, v in devs.items() if n >= 20)
    dev_small = min(v for n, v in devs.items() if n <= 10)
    assert dev_large < 1e-4
    assert dev_small > dev_large
    print(
        f"\nPASS criterion 6: max deviation {dev_large:.2e} for N >= 20 (< 1e-4); "
        f"min deviation {dev_small:.2e} for N <= 10 exceeds it"
    )


def test_criterion_7_degeneracy_structure():
    from ssrchain import maximize_over_separation

    for n in (2, 5):
        res_lc = maximize_over_separation(n).l_critical
        (below,) = degenerate_pair_probe(n, [0.5 * res_lc])
        assert abs(below[0].gamma.imag) < 1e-6
        assert abs(below[1].gamma.imag) < 1e-6
        assert abs(below[0].gamma.real - below[1].gamma.real) > 1e-3
        (above,) = degenerate_pair_probe(n, [1.5 * res_lc])
        assert abs(above[0].gamma.real - above[1].gamma.real) < 1e-6
        assert abs(above[0].gamma.imag + above[1].gamma.imag) < 1e-6
        assert abs(above[0].gamma.imag) > 1e-3
    print("\nPASS criterion 7: real distinct pair at L = 0.5 L_c, conjugate pair at 1.5 L_c (N = 2, 5)")


def _random_unimodular(rng):
    while True:
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(a) < 0.2:
            continue
        d = (1.0 + b * c) / a
        if all(abs(v) <= 3.0 for v in (a, b, c, d)):
            return Mat2c(a, b, c, d)


def test_criterion_8a_matrix_power_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        t = _random_unimodular(rng)
        n = int(rng.integers(1, 65))
        ref = np.linalg.matrix_power(
            np.array([[t.a11, t.a12], [t.a21, t.a22]]), n
        )
        got = matrix_power(t, n)
        err = np.max(np.abs(np.array([[got.a11, got.a12], [got.a21, got.a22]]) - ref))
        worst = max(worst, err / max(1.0, np.max(np.abs(ref))))
    assert worst <= 1e-10
    print(f"\nPASS criterion 8a: 500 random unimodular powers, worst relative error {worst:.2e}")


def test_criterion_8b_grid_scan_oracle():
    worst = 0.0
    for n, sep in ((1, 0.3), (2, 0.56), (3, 0.45), (4, 0.3)):
        params = ChainParams(n, sep, mode="sr")
        win = default_window(n)
        poles = find_collective_rates(params, win)
        fn = CharFn(params, deflation_order=n - 1)
        oracle = []
        for seed in grid_scan_minima(fn.log10_magnitude, win, resolution=2000):
            z, _, ok = _newton(fn, seed, 1e-10)
            if ok and win.contains(z) and z.imag < -1e-6:
                if not any(abs(z - u) < 1e-7 for u in oracle):
                    oracle.append(z)
        assert len(oracle) == len(poles), (n, sep, oracle, [p.delta for p in poles])
        for p in poles:
            worst = max(worst, min(abs(p.delta - z) for z in oracle))
    assert worst <= 1e-6
    print(f"\nPASS criterion 8b: N <= 4 poles match the 2000x2000 grid oracle to {worst:.2e}")


def test_criterion_8c_flux_conservation():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        sep = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(-6.0, 6.0)) or 0.25
        mode = str(rng.choice(["sr", "general"]))
        t, r = scattering(delta, ChainParams(n, sep, mode=mode))
        worst = max(worst, abs(abs(t) ** 2 + abs(r) ** 2 - 1.0))
    assert worst <= 1e-10
    print(f"\nPASS criterion 8c: 1000 on-shell samples, worst |t|^2+|r|^2 defect {worst:.2e}")


def test_criterion_8d_conjugate_pair_symmetry():
    for n in (2, 3, 4, 5, 6):
        sep = 1.4 * 1.76 / n**2  # past the fold: complex pairs are present
        poles = find_collective_rates(ChainParams(n, sep, mode="sr"))
        assert poles, n
        deltas = [p.delta for p in poles]
        for d in deltas:
            mirror = -d.conjugate()
            assert min(abs(mirror - u) for u in deltas) < 1e-6, (n, d)
    print("\nPASS criterion 8d: zero sets are mirror-symmetric (conjugate Gamma pairs) for N <= 6")


def test_criterion_8e_closed_form_residuals():
    worst = 0.0
    for n in (2, 3, 5, 10):
        for frac in (0.8, 1.4):
            sep = frac * 1.76 / n**2 if n >= 4 else frac * LC2 * (2.0 / n) ** 1.2
            params = ChainParams(n, sep, mode="sr")
            poles = find_collective_rates(params)
            assert poles, (n, sep)
            for p in poles:
                res: ClosedFormResidual = closed_form_residual(p.delta, params)
                worst = max(worst, abs(res.res_b))
    assert worst < 1e-8
    print(f"\nPASS criterion 8e: closed-form pole equations satisfied to {worst:.2e} at every accepted pole")


def test_criterion_9_finite_omega_branches():
    from ssrchain import SearchWindow, continue_pole

    omega = 50.0
    win = SearchWindow(-3, 3, -5, 0)
    start = ChainParams(2, 1e-3, mode="general", omega=omega)
    poles0 = find_collective_rates(start, win)
    sym0 = min(poles0, key=lambda p: abs(p.gamma - 2.0))
    anti0 = min(poles0, key=lambda p: abs(p.gamma))
    assert abs(sym0.gamma.real - 2.0) < 0.01
    assert abs(anti0.gamma.real) < 0.01

    # short-range continuation: the branches leave their Markovian values
    # smoothly and the antisymmetric one stays below before the first swap
    path = [1e-3] + list(np.arange(0.002, 0.0301, 0.002))
    tr_sym = continue_pole(start, sym0, path)
    tr_anti = continue_pole(start, anti0, path)
    for s, a in zip(tr_sym, tr_anti):
        assert a.gamma.real < s.gamma.real

    # envelope touch points Omega L = k pi: the upper collective rate equals
    # the sr-condition envelope there; its running maximum sits within 2% of
    # the envelope's own critical separation
    touch = []
    for k in range(1, 32):
        lk = k * math.pi / omega
        env = superradiant_pole(ChainParams(2, lk, mode="sr", sr_index=k)).gamma.real
        touch.append((lk, env))
    vals = [v for _, v in touch]
    ipk = int(np.argmax(vals))
    l_peak = touch[ipk][0]
    assert abs(l_peak - LC2) / LC2 < 0.02
    assert all(vals[i] < vals[i + 1] for i in range(ipk))
    assert all(vals[i] > vals[i + 1] for i in range(ipk, len(vals) - 1))

    gen_peak = find_collective_rates(ChainParams(2, l_peak, mode="general", omega=omega), win)
    nonzero = [p for p in gen_peak if abs(p.delta) > 1e-6]
    assert max(p.gamma.real for p in nonzero) == pytest.approx(vals[ipk], rel=1e-9)
    print(
        f"\nPASS criterion 9: branches start at (2, 0) gamma_0; envelope touched at "
        f"Omega L = k pi with peak at L = {l_peak:.4f} ({abs(l_peak - LC2) / LC2 * 100:.2f}% from L_c)"
    )
