"""Reproducible tabular output: CSV with a '#' metadata block, or JSON.

Every file opens with enough metadata (tool version plus a full parameter
echo) to regenerate it; numeric fields are written with 12 significant
digits.  The 'generated' timestamp is the only line allowed to differ
between reruns of identical flags.
"""

from __future__ import annotations

import csv
import json
import sys
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

_SIG = "%.12g"
_BLOCK_ROWS = 16384


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _SIG % v
    return str(v)


def _round12(v):
    if isinstance(v, bool) or not isinstance(v, float):
        return v
    return float(_SIG % v)


def _json_clean(obj):
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    return _round12(obj)


def build_meta(command: str, flags: dict) -> dict:
    from . import __version__

    meta = {"tool": f"ssrchain {__version__}", "command": command}
    meta.update({k: fmt_value(v) for k, v in flags.items() if v is not None})
    meta["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return meta


def _open_dest(dest: str):
    return nullcontext(sys.stdout) if dest == "-" else open(dest, "w", encoding="utf-8")


@dataclass(frozen=True)
class Grid:
    """The rows (x, y, v) of a field on the grid xs by ys, x varying
    fastest.  values(ys_band) returns v on the rows of ys_band as an array
    of shape (len(ys_band), len(xs)); it is called on one band of
    max(1, 16384 // len(xs)) rows at a time, so a grid of any size is
    evaluated in bounded memory.  len() is the number of rows."""

    xs: np.ndarray
    ys: np.ndarray
    values: Callable[[np.ndarray], np.ndarray]

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys)

    def bands(self):
        """(ys_band, values(ys_band)) for each band of rows, in order."""
        step = max(1, _BLOCK_ROWS // len(self.xs))
        for start in range(0, len(self.ys), step):
            ys = self.ys[start:start + step]
            yield ys, self.values(ys)

    def __iter__(self):
        xs = self.xs.tolist()
        for ys, vals in self.bands():
            for y, row in zip(ys.tolist(), vals.tolist()):
                yield from ([x, y, v] for x, v in zip(xs, row))


def _write_grid(fh, grid: Grid) -> None:
    """CSV body of a Grid, each x and each y formatted once.

    One line template per grid row holds the formatted xs; '@' stands for
    the row's y and %.12g for its values.  The cells are those csv.writer
    writes for fmt_value: no %.12g output (digits, sign, '.', 'e', nan,
    inf) needs quoting, or contains '@' or '%'.
    """
    tmpl = "".join(f"{_SIG % x},@,{_SIG}\n" for x in grid.xs.tolist())
    for ys, vals in grid.bands():
        for y, row in zip(ys.tolist(), vals.tolist()):
            fh.write(tmpl.replace("@", _SIG % y) % tuple(row))


def _json_rows(columns: list[str], rows):
    """The "data" items of a JSON table as json.dumps(..., indent=2) writes
    them, each cell rounded to 12 significant digits; one string per row."""
    keys = [f"\n      {json.dumps(c)}: " for c in columns]
    for row in rows:
        cells = [json.dumps(_round12(v)) for v in row]
        yield "{" + ",".join(k + c for k, c in zip(keys, cells)) + "\n    }"


def write_table(dest: str, meta: dict, columns: list[str], rows, fmt: str) -> None:
    """Emit rows to a path (or '-' for stdout) as CSV or JSON.

    rows is a list of row lists, or a Grid of (x, y, value) rows, which is
    evaluated and written a band of rows at a time.  JSON is written a row
    at a time too, in the bytes of write_json(dest, meta, [one dict per
    row]).  len(rows) is the number of rows written.  dest is opened before
    the first row is evaluated, so an evaluation that fails leaves a partly
    written table, CSV or JSON.
    """
    with _open_dest(dest) as fh:
        if fmt == "json":
            head = json.dumps(_json_clean({"meta": meta, "data": []}), indent=2)
            fh.write(head[:-3])  # up to the '[' of "data": []
            sep = "\n    "
            for text in _json_rows(columns, rows):
                fh.write(sep + text)
                sep = ",\n    "
            fh.write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")
            return
        fh.write("".join(f"# {k}={v}\n" for k, v in meta.items()))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        if isinstance(rows, Grid):
            _write_grid(fh, rows)
        else:
            for row in rows:
                writer.writerow([fmt_value(v) for v in row])


def write_json(dest: str, meta: dict, data: dict | list) -> None:
    payload = json.dumps(_json_clean({"meta": meta, "data": data}), indent=2) + "\n"
    with _open_dest(dest) as fh:
        fh.write(payload)


def read_csv_table(path: str) -> tuple[dict, list[str], list[dict]]:
    """Parse a CSV written by write_table; raises ValueError with the
    offending line number on malformed input."""
    meta: dict = {}
    columns: list[str] | None = None
    rows: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    meta[k.strip()] = v.strip()
                continue
            cells = next(csv.reader([line]))
            if columns is None:
                columns = cells
                continue
            if len(cells) != len(columns):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(columns)} fields, found {len(cells)}"
                )
            rows.append(dict(zip(columns, cells)))
    if columns is None:
        raise ValueError(f"{path}:1: no header row found")
    return meta, columns, rows
