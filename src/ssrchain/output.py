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
from contextlib import nullcontext
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


def _write_float_rows(fh, rows: np.ndarray) -> None:
    """CSV body of a 2-D float array, a block of rows at a time.

    The cells are those csv.writer writes for fmt_value: no %.12g output
    (digits, sign, '.', 'e', nan, inf) needs quoting.
    """
    line = ",".join([_SIG] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS].tolist()
        fh.write("".join(map(line.__mod__, map(tuple, block))))


def write_table(dest: str, meta: dict, columns: list[str], rows, fmt: str) -> None:
    """Emit rows to a path (or '-' for stdout) as CSV or JSON.

    rows is a list of row lists, or a 2-D float ndarray, which the CSV path
    streams a block of rows at a time.
    """
    if fmt == "json":
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        write_json(dest, meta, [dict(zip(columns, row)) for row in rows])
        return
    with _open_dest(dest) as fh:
        fh.write("".join(f"# {k}={v}\n" for k, v in meta.items()))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        if isinstance(rows, np.ndarray):
            _write_float_rows(fh, rows)
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
