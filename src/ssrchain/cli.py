"""Batch command-line interface.

Subcommands expose the solver pipeline as reproducible jobs writing CSV or
JSON: ``poles`` (pole tables), ``ssr`` (single SSR point), ``sweep``
(ssr.scaling_sweep over a range of N, optionally in worker processes),
``fit`` (scaling laws from a sweep file), ``asym`` (critical pair /
contour of the large-N theory) and ``fieldmap`` (log10 |f| grids for
external heatmap plotting).

Exit codes: 0 success, 2 usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .asymptotic import critical_pair, g_eval, trace_contour
from .core import ChainParams
from .charfn import CharFn
from .errors import ContractViolationError, SSRChainError
from .output import Grid, build_meta, read_csv_table, write_json, write_table
from .rootfind import SearchWindow, find_collective_rates
from .ssr import SSRResult, fit_scaling, maximize_over_separation, scaling_sweep

_POLE_COLUMNS = [
    "n_qubits", "separation", "mode", "re_delta", "im_delta",
    "re_gamma", "im_gamma", "classification", "residual",
]
_SSR_COLUMNS = [
    "n_qubits", "l_critical", "re_gamma_ssr", "im_gamma_ssr",
    "coalescence", "residual", "evaluations",
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args fills a new namespace
    on every call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="ssrchain",
        description="Collective decay rates of a qubit chain coupled to a 1D waveguide. "
        "Rates are in units of gamma_0, lengths in 1/gamma_0.",
    )
    parser.add_argument("--version", action="version", version=f"ssrchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_params(p, n_required=True):
        p.add_argument("--n", type=int, required=n_required, help="number of qubits")
        p.add_argument("--sep", type=float, default=None, help="qubit separation [1/gamma_0]")
        p.add_argument(
            "--mode", choices=("sr", "sr-condition", "general", "markovian"), default="sr"
        )
        p.add_argument("--omega", type=float, default=50.0, help="qubit frequency [gamma_0]")
        p.add_argument("--sr-index", type=int, default=1, help="integer n of Omega L = n pi")

    p = sub.add_parser("poles", help="table of decay poles inside a search window")
    add_params(p)
    for flag in ("--re-min", "--re-max", "--im-min", "--im-max"):
        p.add_argument(flag, type=float, default=None, help="search window edge [gamma_0]")
    add_output(p)

    p = sub.add_parser("ssr", help="maximize Re Gamma_u over separation at fixed N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    add_output(p)

    p = sub.add_parser("sweep", help="SSR point for a range of N")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1, help="worker processes; the data do not depend on it")
    add_output(p)

    p = sub.add_parser("fit", help="scaling-law fit of a sweep CSV")
    p.add_argument("--input", required=True, help="CSV produced by the sweep command")
    p.add_argument("--n-min-fit", type=int, default=20)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("asym", help="large-N theory: critical pair or g=0 contour")
    p.add_argument("--critical", action="store_true")
    p.add_argument("--contour", action="store_true")
    p.add_argument("--beta-min", type=float, default=0.1)
    p.add_argument("--beta-max", type=float, default=2.5)
    p.add_argument("--steps", type=int, default=200)
    add_output(p)

    p = sub.add_parser("fieldmap", help="log10|f| grid around a region of the Delta plane")
    add_params(p)
    p.add_argument("--re-range", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--im-range", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--resolution", type=int, default=256, help="grid points per axis (<= 4096)")
    add_output(p)

    return parser


def _params_from_args(args) -> ChainParams:
    if args.sep is None:
        raise ContractViolationError("--sep is required")
    return ChainParams(
        n_qubits=args.n,
        separation=args.sep,
        mode=args.mode,
        omega=args.omega,
        sr_index=args.sr_index,
    )


def _param_flags(args) -> dict:
    return {
        "n": args.n, "sep": args.sep, "mode": args.mode,
        "omega": args.omega, "sr_index": args.sr_index,
    }


def cmd_poles(args) -> int:
    params = _params_from_args(args)
    edges = (args.re_min, args.re_max, args.im_min, args.im_max)
    given = [e is not None for e in edges]
    if any(given) and not all(given):
        raise ContractViolationError("provide all four window edges or none")
    window = SearchWindow(*edges) if all(given) else None
    poles = find_collective_rates(params, window)
    flags = _param_flags(args)
    if window is not None:
        flags.update(re_min=window.re_min, re_max=window.re_max,
                     im_min=window.im_min, im_max=window.im_max)
    rows = [
        [
            params.n_qubits, params.separation, params.mode,
            p.delta.real, p.delta.imag, p.gamma.real, p.gamma.imag,
            p.classification, p.residual,
        ]
        for p in poles
    ]
    write_table(args.output, build_meta("poles", flags), _POLE_COLUMNS, rows, args.format)
    return 0


def _ssr_row(res: SSRResult) -> list:
    return [
        res.n_qubits, res.l_critical, res.gamma_ssr.real, res.gamma_ssr.imag,
        res.coalescence, res.residual, res.evaluations,
    ]


def cmd_ssr(args) -> int:
    if args.n < 2:
        raise ContractViolationError("the SSR point needs --n >= 2")
    res = maximize_over_separation(args.n, tuple(args.bracket) if args.bracket else None)
    flags = {"n": args.n}
    if args.bracket:
        flags.update(bracket_lo=args.bracket[0], bracket_hi=args.bracket[1])
    write_table(args.output, build_meta("ssr", flags), _SSR_COLUMNS, [_ssr_row(res)], args.format)
    return 0


def cmd_sweep(args) -> int:
    if args.n_min < 2 or args.n_max < args.n_min or args.n_step < 1:
        raise ContractViolationError(
            f"empty or invalid sweep range n_min={args.n_min} n_max={args.n_max} n_step={args.n_step}"
        )
    ns = list(range(args.n_min, args.n_max + 1, args.n_step))
    rows, failures = [], 0
    for n, (res, err) in zip(ns, scaling_sweep(ns, jobs=args.jobs)):
        if res is None:
            failures += 1
            rows.append([n, float("nan"), float("nan"), float("nan"), False, float("nan"), 0, err])
        else:
            rows.append(_ssr_row(res) + ["ok"])
    meta = build_meta(
        "sweep",
        {"n_min": args.n_min, "n_max": args.n_max, "n_step": args.n_step, "jobs": args.jobs},
    )
    write_table(args.output, meta, _SSR_COLUMNS + ["status"], rows, args.format)
    return 0 if failures <= 0.1 * len(ns) else 3


def cmd_fit(args) -> int:
    meta_in, _, rows = read_csv_table(args.input)
    results = []
    for i, row in enumerate(rows):
        try:
            if row.get("status", "ok") != "ok":
                continue
            results.append(
                SSRResult(
                    n_qubits=int(row["n_qubits"]),
                    l_critical=float(row["l_critical"]),
                    gamma_ssr=complex(float(row["re_gamma_ssr"]), float(row["im_gamma_ssr"])),
                    coalescence=row["coalescence"] == "true",
                    evaluations=int(row["evaluations"]),
                    residual=float(row["residual"]),
                )
            )
        except (KeyError, ValueError) as err:
            raise ValueError(f"{args.input}: data row {i + 1}: {err}") from err
    fit = fit_scaling(results, n_min_fit=args.n_min_fit)
    data = {
        "alpha": fit.alpha,
        "beta": fit.beta,
        "alpha_stderr": fit.alpha_stderr,
        "beta_stderr": fit.beta_stderr,
        "n_min_fit": args.n_min_fit,
        "points": [
            {"n_qubits": n, "gamma_deviation": gd, "lc_deviation": ld}
            for n, gd, ld in zip(fit.n_values, fit.gamma_deviations, fit.lc_deviations)
        ],
    }
    meta = build_meta("fit", {"input": args.input, "n_min_fit": args.n_min_fit})
    if meta_in.get("command"):
        meta["input_command"] = meta_in["command"]
    write_json(args.output, meta, data)
    return 0


def cmd_asym(args) -> int:
    if args.critical == args.contour:
        raise ContractViolationError("choose exactly one of --critical / --contour")
    if args.critical:
        cp = critical_pair()
        data = {
            "alpha_c": cp.alpha_c,
            "beta_c": cp.beta_c,
            "tau_c": cp.tau_c,
            "residual": cp.residual,
            "product": cp.alpha_c * cp.beta_c,
            "g_value": g_eval(cp.alpha_c, cp.beta_c),
        }
        write_json(args.output, build_meta("asym", {"critical": True}), data)
        return 0
    if args.steps < 2:
        raise ContractViolationError("--steps must be >= 2")
    points = trace_contour((args.beta_min, args.beta_max), args.steps)
    meta = build_meta(
        "asym",
        {"contour": True, "beta_min": args.beta_min, "beta_max": args.beta_max, "steps": args.steps},
    )
    rows = [[b, a, branch] for b, a, branch in points]
    write_table(args.output, meta, ["beta", "alpha", "branch"], rows, args.format)
    return 0


def cmd_fieldmap(args) -> int:
    params = _params_from_args(args)
    re_lo, re_hi = args.re_range
    im_lo, im_hi = args.im_range
    if not all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi))):
        raise ContractViolationError(
            f"field map window edges must be finite, got {args.re_range} x {args.im_range}"
        )
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ContractViolationError("field map window has zero area")
    if not (2 <= args.resolution <= 4096):
        raise ContractViolationError("resolution must be between 2 and 4096")
    fn = CharFn(params, deflation_order=0)
    res = np.linspace(re_lo, re_hi, args.resolution)
    ims = np.linspace(im_lo, im_hi, args.resolution)
    grid = Grid(res, ims, lambda band: fn.log10_magnitude(res[None, :] + 1j * band[:, None]))
    flags = _param_flags(args)
    flags.update(re_lo=re_lo, re_hi=re_hi, im_lo=im_lo, im_hi=im_hi, resolution=args.resolution)
    write_table(
        args.output, build_meta("fieldmap", flags),
        ["re_delta", "im_delta", "log10_abs_f"], grid, args.format,
    )
    return 0


_DISPATCH = {
    "poles": cmd_poles,
    "ssr": cmd_ssr,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "asym": cmd_asym,
    "fieldmap": cmd_fieldmap,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ContractViolationError, ValueError) as err:
        print(f"ssrchain {args.command}: {err}", file=sys.stderr)
        return 2
    except SSRChainError as err:
        print(f"ssrchain {args.command}: solver failure: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
