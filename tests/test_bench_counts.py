"""The deterministic counts of the benchmark may not grow unnoticed.

Each workload runs one traced round (bench/run.py --seconds 0 --trace 1);
its outputs must check out against the oracle, and every metric counted in
calls, points, rows or bytes must stay within 10% of the newest committed
BENCH_<n>.json.  Wall and CPU times are machine noise and are not gated.
"""

import glob
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ssr_scaling", "pole_tables", "figure_data")
COUNT_UNITS = ("count", "B")
GROWTH = 1.1


def _newest_record():
    paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    assert paths, "no BENCH_<n>.json committed at the repository root"
    path = max(paths, key=lambda p: int(re.search(r"BENCH_(\d+)\.json$", p).group(1)))
    with open(path, encoding="utf-8") as fh:
        return os.path.basename(path), json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_do_not_grow(workload):
    name, record = _newest_record()
    reference = record["runs"][workload]["change_trace1"]["metrics"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    counted = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}
    assert counted
    grown = {
        k: (v, reference[k]["value"])
        for k, v in counted.items()
        if v > GROWTH * reference[k]["value"]
    }
    assert not grown, f"counts above {GROWTH} x {name} (now, then): {grown}"
