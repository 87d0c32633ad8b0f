import csv
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import ssrchain
from ssrchain import cli, rootfind, ssr
from ssrchain.charfn import CharFn
from ssrchain.cli import main
from ssrchain.core import ChainParams
from ssrchain.errors import BracketError, RefinementFailureError
from ssrchain.output import _json_clean, read_csv_table, write_table


def run(tmp_path, name, args):
    out = tmp_path / name
    rc = main(args + ["-o", str(out)])
    return rc, out


def data_section(path):
    """File contents with the volatile 'generated' metadata line dropped."""
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh if not ln.startswith("# generated=")]


class TestPoles:
    def test_single_qubit_row(self, tmp_path):
        rc, out = run(tmp_path, "p.csv", ["poles", "--n", "1", "--sep", "0.3", "--mode", "sr", "--sr-index", "1"])
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        assert len(rows) == 1
        assert float(rows[0]["re_gamma"]) == pytest.approx(1.0, abs=1e-10)

    def test_two_qubit_ssr_row(self, tmp_path):
        rc, out = run(tmp_path, "p.csv", ["poles", "--n", "2", "--sep", "0.56", "--mode", "sr"])
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        assert any(abs(float(r["re_gamma"]) - 4.59) < 0.05 for r in rows)

    def test_general_matches_sr_on_condition(self, tmp_path):
        sep = str(math.pi / 50.0)
        rc1, out1 = run(tmp_path, "sr.csv", ["poles", "--n", "2", "--sep", sep, "--mode", "sr"])
        rc2, out2 = run(
            tmp_path, "gen.csv",
            ["poles", "--n", "2", "--sep", sep, "--mode", "general", "--omega", "50"],
        )
        assert rc1 == rc2 == 0
        _, _, sr_rows = read_csv_table(str(out1))
        _, _, gen_rows = read_csv_table(str(out2))
        sr_g = sorted(float(r["re_gamma"]) for r in sr_rows)
        gen_g = sorted(float(r["re_gamma"]) for r in gen_rows if abs(float(r["re_delta"])) > 1e-9 or abs(float(r["im_delta"])) > 1e-9)
        assert gen_g == pytest.approx(sr_g, rel=1e-9)

    @pytest.mark.parametrize("flags", [["--sep", "nan"], ["--sep", "inf"],
                                       ["--sep", "0.3", "--mode", "general", "--omega", "nan"]])
    def test_non_finite_params_rejected(self, tmp_path, capsys, flags):
        # --sep nan once ran the solver and exited 3 with a false BoundaryDegeneracyError
        rc, _ = run(tmp_path, "p.csv", ["poles", "--n", "2"] + flags)
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    def test_incomplete_window_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "p.csv", ["poles", "--n", "1", "--sep", "0.3", "--re-min", "-1"])
        assert rc == 2

    @pytest.mark.parametrize("edge", ["--re-min", "--re-max", "--im-min", "--im-max"])
    def test_non_finite_window_edge_rejected(self, tmp_path, capsys, edge):
        # --im-max inf once ran the boundary walk out of memory
        window = {"--re-min": "-1", "--re-max": "1", "--im-min": "-1", "--im-max": "0"}
        window[edge] = "-inf" if edge.endswith("min") else "inf"
        # flag=value, as argparse reads a bare "-inf" as an option
        argv = ["poles", "--n", "5", "--sep", "1.0"] + [f"{k}={v}" for k, v in window.items()]
        rc, out = run(tmp_path, "p.csv", argv)
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_window_edges_echoed_in_metadata(self, tmp_path):
        window = ["--re-min", "-1", "--re-max", "1", "--im-min", "-2", "--im-max", "-0.05"]
        rc, out = run(tmp_path, "p.csv", ["poles", "--n", "1", "--sep", "0.3"] + window)
        assert rc == 0
        meta, _, rows = read_csv_table(str(out))
        assert {k: meta[k] for k in ("re_min", "re_max", "im_min", "im_max")} == {
            "re_min": "-1", "re_max": "1", "im_min": "-2", "im_max": "-0.05",
        }
        assert len(rows) == 1 and float(rows[0]["im_delta"]) == pytest.approx(-0.5)

    def test_json_format(self, tmp_path):
        rc, out = run(tmp_path, "p.json", ["poles", "--n", "1", "--sep", "0.3", "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "poles"
        assert doc["data"][0]["re_gamma"] == pytest.approx(1.0, abs=1e-10)

    def test_refinement_failure_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        def fail(fn, seed, tol=1e-9):
            raise RefinementFailureError(f"no zero reached from seed {seed}", best=seed, residual=1.0)

        monkeypatch.setattr(rootfind, "refine", fail)
        rc, out = run(tmp_path, "p.csv", ["poles", "--n", "5", "--sep", "1.0"])
        assert rc == 3
        assert "solver failure: no zero reached from seed" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["poles", "--n", "2"],
        ["fieldmap", "--n", "2", "--re-range", "-1", "1", "--im-range", "-3", "-1"],
    ],
)
def test_sep_is_required(tmp_path, capsys, argv):
    rc, out = run(tmp_path, "p.csv", argv)
    assert rc == 2
    assert "the following arguments are required: --sep" in capsys.readouterr().err
    assert not out.exists()


class TestSSR:
    def test_two_qubits(self, tmp_path):
        rc, out = run(tmp_path, "s.csv", ["ssr", "--n", "2"])
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        assert float(rows[0]["l_critical"]) == pytest.approx(0.56, abs=0.01)
        assert float(rows[0]["re_gamma_ssr"]) == pytest.approx(4.59, abs=0.02)

    def test_three_qubits_beats_dicke(self, tmp_path):
        rc, out = run(tmp_path, "s.csv", ["ssr", "--n", "3"])
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        assert float(rows[0]["re_gamma_ssr"]) > 3.0

    def test_single_qubit_rejected(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "s.csv", ["ssr", "--n", "1"])
        assert rc == 2
        assert "needs at least 2 qubits" in capsys.readouterr().err

    def test_rejected_fold_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ssr, "_fold_newton", lambda n, y, l: (y, l, False))
        rc, _ = run(tmp_path, "s.csv", ["ssr", "--n", "2"])
        assert rc == 3
        assert "solver failure: the fold Newton from (y, L) = " in capsys.readouterr().err


class TestSweepAndFit:
    def test_small_sweep_monotone(self, tmp_path):
        rc, out = run(tmp_path, "sweep.csv", ["sweep", "--n-min", "2", "--n-max", "10"])
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        assert len(rows) == 9
        rates = [float(r["re_gamma_ssr"]) for r in rows]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(r["status"] == "ok" for r in rows)

    def test_failed_row_status_is_quoted(self, tmp_path, monkeypatch):
        def fail(n):
            raise BracketError("no interior maximum in (0.1, 0.2)")

        monkeypatch.setattr(ssr, "maximize_over_separation", fail)
        rc, out = run(tmp_path, "sweep.csv", ["sweep", "--n-min", "2", "--n-max", "2"])
        assert rc == 3
        assert data_section(out)[-1] == (
            '2,nan,nan,nan,nan,0,"BracketError: no interior maximum in (0.1, 0.2)"\n'
        )

    def test_empty_range_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "sweep.csv", ["sweep", "--n-min", "5", "--n-max", "2"])
        assert rc == 2

    def test_fit_round_trip(self, tmp_path):
        rc, sweep_out = run(
            tmp_path, "sweep.csv",
            ["sweep", "--n-min", "20", "--n-max", "40", "--n-step", "10"],
        )
        assert rc == 0
        rc, fit_out = run(
            tmp_path, "fit.json", ["fit", "--input", str(sweep_out), "--n-min-fit", "20"]
        )
        assert rc == 0
        doc = json.loads(fit_out.read_text())
        assert abs(doc["data"]["alpha"] - 2.277) / 2.277 < 0.005

    def test_fit_exact_synthetic_law(self, tmp_path):
        path = tmp_path / "synthetic.csv"
        lines = ["n_qubits,l_critical,re_gamma_ssr,im_gamma_ssr,residual,evaluations,status"]
        for n in (20, 30, 40, 50):
            lines.append(f"{n},{1.5 / n**2!r},{2.5 * n!r},0,0,1,ok")
        path.write_text("\n".join(lines) + "\n")
        rc, fit_out = run(tmp_path, "fit.json", ["fit", "--input", str(path)])
        assert rc == 0
        doc = json.loads(fit_out.read_text())
        assert doc["data"]["alpha"] == pytest.approx(2.5, abs=1e-11)
        assert doc["data"]["beta"] == pytest.approx(1.5, abs=1e-11)
        assert all(p["gamma_deviation"] < 1e-12 for p in doc["data"]["points"])

    def test_fit_skips_failed_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        lines = ["n_qubits,l_critical,re_gamma_ssr,im_gamma_ssr,residual,evaluations,status"]
        for n in (20, 30, 40):
            lines.append(f"{n},{1.5 / n**2!r},{2.5 * n!r},0,0,1,ok")
        lines.append('50,nan,nan,nan,nan,0,"BracketError: no sign change"')
        path.write_text("\n".join(lines) + "\n")
        rc, fit_out = run(tmp_path, "fit.json", ["fit", "--input", str(path)])
        assert rc == 0
        doc = json.loads(fit_out.read_text())
        assert [p["n_qubits"] for p in doc["data"]["points"]] == [20, 30, 40]
        assert doc["data"]["alpha"] == pytest.approx(2.5, abs=1e-11)

    def test_fit_bad_value_names_the_data_row(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text(
            "n_qubits,l_critical,re_gamma_ssr,im_gamma_ssr,residual,evaluations,status\n"
            "abc,0.1,1,0,0,1,ok\n"
        )
        rc = main(["fit", "--input", str(path), "-o", str(tmp_path / "f.json")])
        assert rc == 2
        assert "data row 1" in capsys.readouterr().err

    def test_fit_reads_the_layout_with_a_coalescence_column(self, tmp_path, monkeypatch):
        # sweep files once carried a coalescence column, false on failed rows
        solve = ssr.maximize_over_separation

        def fail_at_30(n):
            if n == 30:
                raise BracketError("no interior maximum in (0.1, 0.2)")
            return solve(n)

        monkeypatch.setattr(ssr, "maximize_over_separation", fail_at_30)
        _, new = run(tmp_path, "new.csv", ["sweep", "--n-min", "20", "--n-max", "50", "--n-step", "10"])
        lines = new.read_text().splitlines()
        head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        old_lines = lines[:head] + [lines[head].replace(",residual,", ",coalescence,residual,")]
        for row in lines[head + 1:]:
            cells = row.split(",")
            cells.insert(4, "true" if row.endswith(",ok") else "false")
            old_lines.append(",".join(cells))
        assert old_lines[-3] == '30,nan,nan,nan,false,nan,0,"BracketError: no interior maximum in (0.1, 0.2)"'
        old = tmp_path / "old.csv"
        old.write_text("\n".join(old_lines) + "\n")
        docs = []
        for path in (new, old):
            rc, fit_out = run(tmp_path, "fit.json", ["fit", "--input", str(path)])
            assert rc == 0
            docs.append(json.loads(fit_out.read_text())["data"])
        assert docs[0] == docs[1]
        assert [p["n_qubits"] for p in docs[0]["points"]] == [20, 40, 50]

    def test_fit_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("n_qubits,l_critical\n2,0.5,EXTRA\n")
        rc = main(["fit", "--input", str(path), "-o", str(tmp_path / "f.json")])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err


class TestAsym:
    def test_critical(self, tmp_path):
        rc, out = run(tmp_path, "c.json", ["asym", "--critical"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["data"]["product"] - 4.0) < 1e-10

    def test_contour(self, tmp_path):
        rc, out = run(
            tmp_path, "contour.csv",
            ["asym", "--contour", "--beta-min", "0.1", "--beta-max", "2.5", "--steps", "200"],
        )
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        top = max(float(r["beta"]) for r in rows)
        assert top == pytest.approx(1.7569, abs=0.02)
        # every beta of the grid below beta_c has a small and a large root
        beta_c = ssrchain.critical_pair().beta_c
        below = [b for b in (0.1 + 2.4 * i / 199 for i in range(200)) if b < beta_c]
        for branch in ("small", "large"):
            got = [float(r["beta"]) for r in rows if r["branch"] == branch]
            assert sorted(got) == pytest.approx(below, rel=1e-11), branch

    def test_single_step_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "c.csv", ["asym", "--contour", "--steps", "1"])
        assert rc == 2

    def test_non_finite_beta_range_rejected(self, tmp_path):
        # inf * 0 made the first beta nan, and only the critical row was written
        rc, _ = run(
            tmp_path, "c.csv", ["asym", "--contour", "--beta-min", "0.1", "--beta-max", "inf"]
        )
        assert rc == 2

    def test_needs_exactly_one_mode(self, tmp_path):
        rc, _ = run(tmp_path, "c.csv", ["asym"])
        assert rc == 2


class TestFieldmap:
    def test_minimum_at_two_qubit_pole(self, tmp_path):
        rc, out = run(
            tmp_path, "map.csv",
            [
                "fieldmap", "--n", "2", "--sep", "0.56", "--mode", "sr",
                "--re-range", "-1", "1", "--im-range", "-3.2", "-1.4",
                "--resolution", "101",
            ],
        )
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        best = min(rows, key=lambda r: float(r["log10_abs_f"]))
        z = complex(float(best["re_delta"]), float(best["im_delta"]))
        cell = 2.0 / 100
        pole = 0.2117 - 2.2773j  # conjugate pair: either mirror member counts
        assert min(abs(z - pole), abs(z + pole.conjugate())) < 1.5 * cell

    def test_single_qubit_minimum(self, tmp_path):
        rc, out = run(
            tmp_path, "map.csv",
            [
                "fieldmap", "--n", "1", "--sep", "0.7", "--mode", "sr",
                "--re-range", "-0.6", "0.6", "--im-range", "-1.0", "-0.1",
                "--resolution", "81",
            ],
        )
        assert rc == 0
        _, _, rows = read_csv_table(str(out))
        best = min(rows, key=lambda r: float(r["log10_abs_f"]))
        assert abs(complex(float(best["re_delta"]), float(best["im_delta"])) + 0.5j) < 0.03

    def test_zero_area_window_rejected(self, tmp_path):
        rc, _ = run(
            tmp_path, "map.csv",
            ["fieldmap", "--n", "1", "--sep", "0.7", "--re-range", "1", "1", "--im-range", "-1", "0"],
        )
        assert rc == 2

    def test_resolution_cap(self, tmp_path):
        rc, _ = run(
            tmp_path, "map.csv",
            [
                "fieldmap", "--n", "1", "--sep", "0.7", "--re-range", "-1", "1",
                "--im-range", "-1", "0", "--resolution", "5000",
            ],
        )
        assert rc == 2


    @pytest.mark.parametrize("flags", [
        ["--sep", "nan", "--re-range", "-1", "1", "--im-range", "-1", "0"],
        ["--sep", "0.7", "--mode", "general", "--omega", "nan",
         "--re-range", "-1", "1", "--im-range", "-1", "0"],
        ["--sep", "0.7", "--re-range", "-1", "inf", "--im-range", "-1", "0"],
        ["--sep", "0.7", "--re-range", "-1", "1", "--im-range", "-1", "inf"],
        ["--sep", "0.7", "--re-range", "-1", "1", "--im-range", "nan", "0"],
    ])
    def test_non_finite_input_rejected(self, tmp_path, capsys, flags):
        rc, _ = run(tmp_path, "map.csv", ["fieldmap", "--n", "1", "--resolution", "4"] + flags)
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err


_FIELDMAP_COLUMNS = ["re_delta", "im_delta", "log10_abs_f"]
_FIELDMAP_CASES = {
    "sr2": (2, 0.56, "sr", (-1.0, 1.0), (-3.2, -1.4), 256),
    # 300 does not divide 16384: bands of 54 rows, the last one of 30
    "sr2_partial_band": (2, 0.56, "sr", (-1.0, 1.0), (-3.2, -1.4), 300),
    # below Im Delta = -230 exp(i Delta L) itself overflows: the 27 rows
    # there (1728 of the 4096 cells) are nan
    "general30": (30, 3.0, "general", (-60.0, 60.0), (-400.0, -0.5), 64),
}
# smaller JSON tables; 130 rows make bands of 126 and 4 rows
_JSON_RESOLUTION = {"sr2": 16, "sr2_partial_band": 130, "general30": 16}


def reference_fieldmap_rows(n, sep, mode, re_range, im_range, resolution):
    """The fieldmap rows, cell by cell, from one log10_magnitude call on the
    whole grid."""
    fn = CharFn(ChainParams(n, sep, mode=mode), deflation_order=0)
    res = np.linspace(*re_range, resolution)
    ims = np.linspace(*im_range, resolution)
    vals = fn.log10_magnitude(res[None, :] + 1j * ims[:, None])
    rows = []
    for i in range(resolution):
        for j in range(resolution):
            rows.append([res[j], ims[i], float(vals[i, j])])
    return rows


def reference_fieldmap_csv(rows):
    """The header and data lines as csv.writer writes them, %.12g per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDMAP_COLUMNS)
    for row in rows:
        writer.writerow(["%.12g" % v for v in row])
    return buf.getvalue()


def fieldmap_argv(n, sep, mode, re_range, im_range, resolution):
    return [
        "fieldmap", "--n", str(n), "--sep", repr(sep), "--mode", mode,
        "--re-range", *map(repr, re_range), "--im-range", *map(repr, im_range),
        "--resolution", str(resolution),
    ]


def csv_data(text):
    """The header and data lines of a CSV table, after its '# ' metadata."""
    meta_end = text.index("\nre_delta,") + 1
    assert all(ln.startswith("# ") for ln in text[:meta_end].splitlines())
    return text[meta_end:]


class TestFieldmapBytes:
    """fieldmap output against a reference writer: the row loop, csv.writer
    and %.12g on each cell (JSON: each cell rounded to 12 digits)."""

    @pytest.mark.parametrize("case", sorted(_FIELDMAP_CASES))
    def test_csv(self, tmp_path, case):
        spec = _FIELDMAP_CASES[case]
        rows = reference_fieldmap_rows(*spec)
        if case == "general30":
            assert sum(math.isnan(r[2]) for r in rows) == 1728
        rc, out = run(tmp_path, "map.csv", fieldmap_argv(*spec))
        assert rc == 0
        assert csv_data(out.read_text(encoding="utf-8")) == reference_fieldmap_csv(rows)

    def test_general30_beyond_the_double_range(self):
        # rows 27 to 44 of general30 (Im Delta -229 to -121) hold log10|f|
        # of 4471 to 8412; binary powering of the cell overflowed there and
        # left them nan, the rescaled recurrence keeps them
        n, sep, mode, re_range, im_range, resolution = _FIELDMAP_CASES["general30"]
        res = np.linspace(*re_range, resolution)
        ims = np.linspace(*im_range, resolution)
        vals = CharFn(ChainParams(n, sep, mode=mode)).log10_magnitude(res[None, :] + 1j * ims[:, None])
        assert np.isfinite(vals[27:45]).all() and vals[27:45].min() > 4000.0
        w = ChainParams(n, sep, mode=mode).phase_unit()
        rng = np.random.default_rng(30)
        for i, j in zip(rng.integers(27, 45, 12), rng.integers(0, resolution, 12)):
            with mp.workdps(40):
                d = mp.mpc(res[j], ims[i])
                p = mp.mpc(w) * mp.exp(1j * d * sep)
                a, b = mp.mpc(1), mp.mpc(0)
                for _ in range(n):
                    a, b = a * (d + 0.5j) / p - b * 0.5j / p, a * 0.5j * p + b * (d - 0.5j) * p
                want = float(mp.log10(abs(a)))
            assert abs(vals[i, j] - want) <= 1e-10

    def test_csv_to_stdout(self, capsys):
        spec = _FIELDMAP_CASES["sr2_partial_band"]
        assert main(fieldmap_argv(*spec) + ["-o", "-"]) == 0
        out = capsys.readouterr().out
        assert csv_data(out) == reference_fieldmap_csv(reference_fieldmap_rows(*spec))

    @pytest.mark.parametrize("case", sorted(_FIELDMAP_CASES))
    def test_json(self, tmp_path, case):
        spec = _FIELDMAP_CASES[case][:5] + (_JSON_RESOLUTION[case],)
        rows = reference_fieldmap_rows(*spec)
        rc, out = run(tmp_path, "map.json", fieldmap_argv(*spec) + ["--format", "json"])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        data = [{c: float("%.12g" % v) for c, v in zip(_FIELDMAP_COLUMNS, row)} for row in rows]
        want = json.dumps({"meta": json.loads(text)["meta"], "data": data}, indent=2) + "\n"
        assert text == want


class TestFieldmapRows:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_len_is_rows_written(self, tmp_path, monkeypatch, fmt):
        # the benchmark's tracer and any other caller read len(rows) as the
        # number of rows write_table wrote
        seen = []
        write_table = cli.write_table

        def spy(dest, meta, columns, rows, fmt):
            seen.append(len(rows))
            write_table(dest, meta, columns, rows, fmt)

        monkeypatch.setattr(cli, "write_table", spy)
        spec = _FIELDMAP_CASES["sr2"][:5] + (130,)
        rc, out = run(tmp_path, "map." + fmt, fieldmap_argv(*spec) + ["--format", fmt])
        assert rc == 0
        if fmt == "json":
            written = len(json.loads(out.read_text(encoding="utf-8"))["data"])
        else:
            written = len(csv_data(out.read_text(encoding="utf-8")).splitlines()) - 1
        assert seen == [written] == [130 * 130]

    def test_memory_does_not_grow_with_resolution(self, tmp_path):
        # the map is evaluated and written a band of rows at a time, so the
        # peak is set by the band (16384 points), not by the grid
        peaks = fieldmap_peaks(tmp_path, "csv", 512)
        assert peaks[512] <= 1.5 * peaks[128], peaks

    def test_json_memory_does_not_grow_with_resolution(self, tmp_path):
        # JSON too is written a row at a time, never held whole; a writer
        # that holds the table peaks about 4x higher at 256² than at 128²
        peaks = fieldmap_peaks(tmp_path, "json", 256)
        assert peaks[256] <= 1.5 * peaks[128], peaks


class TestJsonTable:
    """write_table's row-at-a-time JSON against the whole document written
    by json.dumps, on the cases no fieldmap test reaches."""

    META = {"tool": "ssrchain test", "command": "t", "x": "0.1"}
    COLUMNS = ["a", "b", "c"]

    def whole(self, rows):
        data = [dict(zip(self.COLUMNS, r)) for r in rows]
        return json.dumps(_json_clean({"meta": self.META, "data": data}), indent=2) + "\n"

    @pytest.mark.parametrize("rows", [
        [],
        [[math.inf, -math.inf, math.nan]],
        [[1, 0.1 + 0.2, True], [-math.inf, "x", 1e-300], [math.nan, 2.5, math.inf]],
    ], ids=["empty", "non_finite", "mixed"])
    def test_bytes(self, tmp_path, rows):
        dest = tmp_path / "t.json"
        write_table(str(dest), self.META, self.COLUMNS, rows, "json")
        assert dest.read_text(encoding="utf-8") == self.whole(rows)


def fieldmap_peaks(tmp_path, fmt, high):
    """tracemalloc peaks of the sr N = 100 benchmark map at 128² and high².
    From 128² up a band holds 16384 points, so a streamed table keeps the
    same peak at both."""
    spec = (100, 1.757e-4, "sr", (-4.0, 4.0), (-118.0, -110.0))
    peaks = {}
    for resolution in (128, high):
        tracemalloc.start()
        try:
            argv = fieldmap_argv(*spec, resolution) + ["--format", fmt]
            rc, _ = run(tmp_path, f"map{resolution}.{fmt}", argv)
            peaks[resolution] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
    return peaks


class TestDeterminism:
    def test_identical_flags_identical_data(self, tmp_path):
        args = ["poles", "--n", "2", "--sep", "0.4", "--mode", "sr"]
        _, out1 = run(tmp_path, "a.csv", args)
        _, out2 = run(tmp_path, "b.csv", args)
        assert data_section(out1) == data_section(out2)

    def test_worker_count_does_not_change_data(self, tmp_path):
        base = ["sweep", "--n-min", "2", "--n-max", "5"]
        _, seq = run(tmp_path, "seq.csv", base + ["--jobs", "1"])
        _, par = run(tmp_path, "par.csv", base + ["--jobs", "2"])
        seq_lines = [ln for ln in data_section(seq) if not ln.startswith("# jobs")]
        par_lines = [ln for ln in data_section(par) if not ln.startswith("# jobs")]
        assert seq_lines == par_lines

    def test_parser_built_once_and_flags_do_not_leak(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        base = ["poles", "--n", "1", "--sep", "0.3"]
        window = ["--re-min", "-1", "--re-max", "1", "--im-min", "-2", "--im-max", "-0.05"]
        _, first = run(tmp_path, "a.json", base + window + ["--format", "json"])
        _, second = run(tmp_path, "b.csv", base)
        _, third = run(tmp_path, "c.json", base + window + ["--format", "json"])
        assert json.loads(first.read_text())["meta"]["re_min"] == "-1"
        meta, _, rows = read_csv_table(str(second))
        assert "re_min" not in meta and rows
        assert json.loads(first.read_text())["data"] == json.loads(third.read_text())["data"]


class TestStartup:
    def test_cli_import_loads_no_process_pool(self):
        # the pool is imported by scaling_sweep with jobs > 1 only
        src = os.path.dirname(os.path.dirname(ssrchain.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("ssrchain", "ssrchain.ssr", "ssrchain.cli"):
            code = (
                f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
            )
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            assert out.stdout.strip() == "[]", module

    @staticmethod
    def _loads_numpy(argv):
        """Exit code of main(argv) in a fresh interpreter, and whether the
        run imported numpy."""
        src = os.path.dirname(os.path.dirname(ssrchain.__file__))
        code = (
            "import sys; from ssrchain.cli import main; rc = main(sys.argv[1:]); "
            "sys.stderr.write(f\"\\n{rc} {'numpy' in sys.modules}\\n\")"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        rc, loaded = out.stderr.splitlines()[-1].split()
        return int(rc), loaded == "True"

    def test_cheap_commands_load_no_numpy(self, tmp_path):
        # numpy's import costs more CPU than any of these commands
        rc, sweep = run(tmp_path, "sweep.csv", ["sweep", "--n-min", "20", "--n-max", "40", "--n-step", "10"])
        assert rc == 0
        cheap = {
            "version": (["--version"], 0),
            "help": (["--help"], 0),
            "usage error": (["ssr"], 2),
            "asym critical": (["asym", "--critical", "-o", str(tmp_path / "c.json")], 0),
            "asym contour": (["asym", "--contour", "--steps", "5", "-o", str(tmp_path / "c.csv")], 0),
            "fit": (["fit", "--input", str(sweep), "-o", str(tmp_path / "fit.json")], 0),
        }
        for label, (argv, code) in cheap.items():
            assert self._loads_numpy(argv) == (code, False), label
        # the probe sees numpy where a command does load it
        assert self._loads_numpy(["ssr", "--n", "2", "-o", str(tmp_path / "s.csv")]) == (0, True)

    def test_package_names_are_their_modules_objects(self):
        # the package resolves its names on first access
        assert "__all__" in dir(ssrchain)
        assert set(ssrchain.__all__) <= set(dir(ssrchain))
        star = {}
        exec("from ssrchain import *", star)
        for name in ssrchain.__all__:
            obj = getattr(ssrchain, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name
            assert star[name] is obj, name
        assert ssr.fit_scaling is ssrchain.fit_scaling and ssr.SSRResult is ssrchain.SSRResult
        with pytest.raises(AttributeError):
            ssrchain.no_such_name  # noqa: B018
        # a submodule is imported on its first access, as the package once imported them all
        code = (
            "import sys, ssrchain; before = 'numpy' in sys.modules; "
            "print(before, ssrchain.rootfind.__name__, 'numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ssrchain.__file__))),
        )
        assert out.stdout.split() == ["False", "ssrchain.rootfind", "True"]

    def test_python_m_ssrchain_runs_the_cli(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ssrchain", "--version"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("ssrchain", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"ssrchain {ssrchain.__version__}\n"
