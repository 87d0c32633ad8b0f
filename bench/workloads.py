"""The benchmark's workloads: CLI jobs to run and checks of their outputs.

A workload is a list of units; a unit is a list of jobs that must run in
order (the sweep before the fit that reads it).  The seed shuffles the unit
order and nothing else, so every count in a traced run repeats across seeds.
Every output is checked against oracle.py, which shares no code with
ssrchain, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass

import numpy as np

import oracle


# every job belongs to one group; job.<group>_s is its time per round
GROUPS = ("ssr_n2", "ssr_n100", "sweep", "poles", "fieldmap", "contour")


@dataclass(frozen=True)
class Job:
    group: str  # the per-job metric this job's time adds to
    argv: tuple  # arguments of ssrchain.cli.main
    output: str  # file name the job writes, relative to the work directory


# (mode, N, L), each in the default window.  L is not jittered: nearby
# separations make the counter raise BoundaryDegeneracyError or drop poles.
POLE_CASES = (
    ("sr", 5, 1.0),
    ("sr", 10, 0.1),
    ("sr", 30, 0.01),
    ("sr", 50, 0.01),
    ("general", 2, 1.0),
    ("general", 5, 0.1),
    ("markovian", 50, 0.1),
)
BAND_EDGE = 0.5  # poles are counted below Im Delta = -BAND_EDGE

# (mode, N, L, re range, im range): around the N = 2 pole, around the N = 100
# SSR pole, and a generic-phase window that takes the matrix-power path
FIELDMAPS = (
    ("sr", 2, 0.56, (-1.0, 1.0), (-3.2, -1.4)),
    ("sr", 100, 1.757e-4, (-4.0, 4.0), (-118.0, -110.0)),
    ("general", 100, 0.02, (-6.0, 6.0), (-12.0, -0.5)),
)
RESOLUTION = 256
SWEEP_NS = tuple(range(20, 101, 10))

# Tolerances of the checks
GAMMA_RTOL = 1e-5  # SSR rate vs the mpmath fold; today's worst row is 1.0e-6
LC_RTOL = 1e-8  # critical separation vs the mpmath fold; today's worst is 6e-12
POLE_TOL = 1e-8  # mpmath Newton from a reported pole moves < POLE_TOL (1 + |Delta|)
MAP_TOL = 1e-4  # log10|f| per cell; near the axis zeros of the N = 100 map the
# program's recurrence loses 1.3e-6 here and up to 1.3e-5 in shifted windows,
# while the product form keeps 1e-9
ALPHA_RTOL = 1e-5  # fitted alpha vs 4 / beta_c; today 2.2e-7


# Outputs that are wrong on every run because of a fault in ssrchain; their
# jobs count as failed operations instead of making the run incorrect.
KNOWN_FAULTS = {
    # np.roots on the degree-50 Markovian polynomial misplaces its clustered
    # roots by up to 0.027 (mpmath Newton and mpmath polyroots agree).
    "poles_markovian_50_0.1.csv",
}


def build(workload, seed):
    """The units of a workload for this seed, and a check function.

    check(workdir) inspects the outputs one round left in workdir and
    returns {output file: failure messages}, every list empty when every
    answer holds.
    """
    if workload == "ssr_scaling":
        units = [
            [Job("ssr_n2", ("ssr", "--n", "2", "-o", "ssr_n2.csv"), "ssr_n2.csv")],
            [Job("ssr_n100", ("ssr", "--n", "100", "-o", "ssr_n100.csv"), "ssr_n100.csv")],
            [
                Job("sweep", ("sweep", "--n-min", "20", "--n-max", "100", "--n-step", "10",
                              "--jobs", "1", "-o", "sweep.csv"), "sweep.csv"),
                Job("sweep", ("fit", "--input", "sweep.csv", "-o", "fit.json"), "fit.json"),
            ],
        ]
        check = _check_ssr_scaling
    elif workload == "pole_tables":
        units = []
        for mode, n, sep in POLE_CASES:
            name = f"poles_{mode}_{n}_{sep}.csv"
            argv = ("poles", "--n", str(n), "--sep", repr(sep), "--mode", mode, "-o", name)
            units.append([Job("poles", argv, name)])
        check = _check_pole_tables
    elif workload == "figure_data":
        units, windows = [], []
        for mode, n, sep, (re0, re1), (im0, im1) in FIELDMAPS:
            name = f"fieldmap_{mode}_{n}.csv"
            argv = ("fieldmap", "--n", str(n), "--sep", repr(sep), "--mode", mode,
                    "--re-range", repr(re0), repr(re1), "--im-range", repr(im0), repr(im1),
                    "--resolution", str(RESOLUTION), "-o", name)
            units.append([Job("fieldmap", argv, name)])
            windows.append((name, mode, n, sep, (re0, re1, im0, im1)))
        units.append([
            Job("contour", ("asym", "--critical", "-o", "critical.json"), "critical.json"),
            Job("contour", ("asym", "--contour", "--beta-min", "0.1", "--beta-max", "2.5",
                            "--steps", "200", "-o", "contour.csv"), "contour.csv"),
        ])
        check = lambda workdir: _check_figure_data(workdir, windows)  # noqa: E731
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(units)
    return units, check


# -- reading outputs (written here, not borrowed from ssrchain.output) ------


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _json_data(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["data"]


def _rel(a, b):
    return abs(a - b) / abs(b)


# -- ssr_scaling -----------------------------------------------------------


def _check_ssr_rows(rows, expect_ns, label):
    errors = []
    ns = [int(r["n_qubits"]) for r in rows]
    if ns != list(expect_ns):
        return [f"{label}: rows for N = {ns}, expected {list(expect_ns)}"]
    for r, n in zip(rows, ns):
        if r.get("status", "ok") != "ok":
            errors.append(f"{label} N={n}: status {r['status']}")
            continue
        gamma, l_c = float(r["re_gamma_ssr"]), float(r["l_critical"])
        im_gamma = float(r["im_gamma_ssr"])
        ref_gamma, ref_l = oracle.ssr_fold(n)
        if _rel(gamma, ref_gamma) > GAMMA_RTOL:
            errors.append(f"{label} N={n}: Gamma_SSR {gamma!r} vs fold {ref_gamma!r}")
        if _rel(l_c, ref_l) > LC_RTOL:
            errors.append(f"{label} N={n}: L_c {l_c!r} vs fold {ref_l!r}")
        if im_gamma != 0.0:
            errors.append(f"{label} N={n}: Im Gamma_SSR = {im_gamma!r}, not 0")
    return errors


def _check_ssr_scaling(workdir):
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    sweep = _csv_rows(p("sweep.csv"))
    errors = {
        "ssr_n2.csv": _check_ssr_rows(_csv_rows(p("ssr_n2.csv")), [2], "ssr --n 2"),
        "ssr_n100.csv": _check_ssr_rows(_csv_rows(p("ssr_n100.csv")), [100], "ssr --n 100"),
        "sweep.csv": _check_ssr_rows(sweep, SWEEP_NS, "sweep"),
        "fit.json": [],
    }
    # the fit is least squares through the origin over N >= 20
    fit = _json_data(p("fit.json"))
    ns = [float(r["n_qubits"]) for r in sweep]
    gammas = [float(r["re_gamma_ssr"]) for r in sweep]
    lcs = [float(r["l_critical"]) for r in sweep]
    alpha = sum(n * g for n, g in zip(ns, gammas)) / sum(n * n for n in ns)
    beta = sum(lc / n**2 for n, lc in zip(ns, lcs)) / sum(n**-4 for n in ns)
    if _rel(fit["alpha"], alpha) > 1e-10 or _rel(fit["beta"], beta) > 1e-10:
        errors["fit.json"].append(f"fit: (alpha, beta) = ({fit['alpha']}, {fit['beta']}), "
                      f"least squares gives ({alpha!r}, {beta!r})")
    alpha_c, _, _ = oracle.critical()
    if _rel(fit["alpha"], alpha_c) > ALPHA_RTOL:
        errors["fit.json"].append(f"fit: alpha {fit['alpha']} vs 4 / beta_c = {alpha_c!r}")
    return errors


# -- pole_tables -----------------------------------------------------------


def _check_pole_table(path, mode, n, sep):
    label = f"poles {mode} N={n} L={sep}"
    rows = _csv_rows(path)
    if not rows:
        return [f"{label}: empty table"]
    errors = []
    deltas = [complex(float(r["re_delta"]), float(r["im_delta"])) for r in rows]
    for r, d in zip(rows, deltas):
        gamma = complex(float(r["re_gamma"]), float(r["im_gamma"]))
        if abs(gamma - 2j * d) > 1e-11 * (1.0 + abs(gamma)):
            errors.append(f"{label}: Gamma {gamma} is not 2i Delta for Delta = {d}")
        if d.imag > 0.0:
            errors.append(f"{label}: Im Delta > 0 at {d}")
        try:
            z = oracle.newton_mp(d, n, sep, mode)
        except ArithmeticError as err:
            errors.append(f"{label}: {err}")
            continue
        if abs(z - d) > POLE_TOL * (1.0 + abs(d)):
            errors.append(f"{label}: Newton from {d} moved to {z}")
        if mode == "sr" and abs(d.real) > 1e-7 * (1.0 + abs(d)):
            mirror = -d.conjugate()
            if min(abs(e - mirror) for e in deltas) > POLE_TOL * (1.0 + abs(d)):
                errors.append(f"{label}: mirror partner of {d} is missing")
    re_min, re_max, im_min = -1.5 * n, 1.5 * n, -2.5 * n  # the default window
    if mode == "markovian":
        roots = [z for z in oracle.markovian_roots(n, sep)
                 if re_min <= z.real <= re_max and im_min <= z.imag <= 0.0]
        unmatched = list(deltas)
        for z in roots:
            near = min(unmatched, key=lambda d: abs(d - z), default=None)
            if near is None or abs(near - z) > POLE_TOL * (1.0 + abs(z)):
                errors.append(f"{label}: polynomial root {z} is not in the table")
            else:
                unmatched.remove(near)
        if unmatched:
            errors.append(f"{label}: rows {unmatched} are not polynomial roots")
        return errors
    below = sum(1 for d in deltas if d.imag < -BAND_EDGE)
    try:
        wound = oracle.winding_number(re_min, re_max, im_min, -BAND_EDGE, n, sep, mode)
    except ArithmeticError as err:
        return errors + [f"{label}: winding count failed: {err}"]
    if below != wound:
        errors.append(f"{label}: {below} poles below Im = -{BAND_EDGE}, winding number {wound}")
    return errors


def _check_pole_tables(workdir):
    errors = {}
    for mode, n, sep in POLE_CASES:
        name = f"poles_{mode}_{n}_{sep}.csv"
        errors[name] = _check_pole_table(os.path.join(workdir, name), mode, n, sep)
    return errors


# -- figure_data -----------------------------------------------------------


def _check_fieldmap(path, mode, n, sep, win):
    label = f"fieldmap {mode} N={n}"
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    if lines[0].strip() != "re_delta,im_delta,log10_abs_f":
        return [f"{label}: header {lines[0].strip()!r}"]
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape != (RESOLUTION * RESOLUTION, 3):
        return [f"{label}: {data.shape[0]} rows, expected {RESOLUTION**2}"]
    if not np.all(np.isfinite(data)):
        return [f"{label}: non-finite values"]
    res = np.linspace(win[0], win[1], RESOLUTION)
    ims = np.linspace(win[2], win[3], RESOLUTION)
    grid = res[None, :] + 1j * ims[:, None]
    errors = []
    pos_err = max(np.max(np.abs(data[:, 0] - grid.real.ravel())),
                  np.max(np.abs(data[:, 1] - grid.imag.ravel())))
    if pos_err > 1e-10 * (1.0 + np.max(np.abs(grid))):
        errors.append(f"{label}: grid coordinates off by {pos_err:.3g}")
    ref = oracle.log10_abs_f(grid.ravel(), n, sep, mode)
    worst = float(np.max(np.abs(data[:, 2] - ref)))
    if not worst <= MAP_TOL:
        errors.append(f"{label}: log10|f| off by {worst:.3g} (tolerance {MAP_TOL})")
    return errors


def _check_figure_data(workdir, windows):
    errors = {name: _check_fieldmap(os.path.join(workdir, name), mode, n, sep, win)
              for name, mode, n, sep, win in windows}
    errors["critical.json"], errors["contour.csv"] = [], []
    alpha_c, beta_c, tau_c = oracle.critical()
    crit = _json_data(os.path.join(workdir, "critical.json"))
    for key, ref in (("alpha_c", alpha_c), ("beta_c", beta_c), ("tau_c", tau_c)):
        if _rel(crit[key], ref) > 1e-10:
            errors["critical.json"].append(f"asym --critical: {key} = {crit[key]} vs {ref!r}")
    rows = _csv_rows(os.path.join(workdir, "contour.csv"))
    branches = [r["branch"] for r in rows]
    if branches.count("critical") != 1 or not {"small", "large"} <= set(branches):
        errors["contour.csv"].append(f"asym --contour: branches {sorted(set(branches))}")
    for r in rows:
        alpha, beta = float(r["alpha"]), float(r["beta"])
        if not 0.1 <= beta <= 2.5 or oracle.g_relative(alpha, beta) > 1e-10:
            errors["contour.csv"].append(f"asym --contour: ({beta}, {alpha}) is not on g = 0")
    return errors


def round_digest(workdir, units):
    """Text of every output with the 'generated' timestamp removed, so that
    two rounds can be compared for identical answers."""
    parts = []
    for unit in units:
        for job in unit:
            path = os.path.join(workdir, job.output)
            if not os.path.exists(path):
                parts.append(f"missing {job.output}")
                continue
            with open(path, encoding="utf-8") as fh:
                parts.extend(line for line in fh if "generated" not in line)
    return hashlib.sha256("".join(parts).encode()).hexdigest()
