"""Time ssrchain's CLI jobs to a verified answer.

    python3 bench/run.py --workload ssr_scaling --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; ssrchain is imported from src/.
Each run sets up (fresh interpreters import ssrchain.cli), runs one warm-up
round of the workload's jobs through ssrchain.cli.main in this process, then
measures whole rounds until --seconds have been spent in them.  The warm-up
round's outputs are checked against the independent oracle, and every later
round must reproduce them byte for byte (the 'generated' stamp aside).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics:
counts from the first traced round, times as medians over traced rounds,
job times from the untraced rounds, and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

End-to-end and job times are CPU seconds (user + system) of this process, or
of the set-up interpreters.  On a shared virtual machine the wall time of
one round swings by tens of percent whenever the hypervisor deschedules the
CPU, and CPU time does not count those pauses.  Wall times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
COUNT_UNITS = ("count", "B")


def log(msg):
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup():
    """Median CPU time of a fresh interpreter importing ssrchain.cli and
    running --version; one unmeasured launch first compiles the bytecode."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from ssrchain.cli import main; sys.exit(main(['--version']))")
    cmd = [sys.executable, "-c", code, SRC]
    times = []
    for i in range(SETUP_REPEATS + 1):
        c0 = _children_cpu()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0 or not proc.stdout.startswith("ssrchain "):
            raise RuntimeError(f"set-up failed: {proc.returncode} {proc.stderr.strip()}")
        if i:
            times.append(_children_cpu() - c0)
    return statistics.median(times)


def run_round(cli, units, tracer=None):
    """Run every job once.  Returns a record of the round's wall and CPU
    seconds, the CPU seconds of each job group, and the failed job count."""
    record = dict.fromkeys(workloads.GROUPS, 0.0)
    failed = 0
    w_start, c_start = time.perf_counter(), time.process_time()
    for unit in units:
        for job in unit:
            if tracer is not None:
                tracer.job = " ".join(job.argv[:1] + job.argv[1:-2])
            c0 = time.process_time()
            try:
                rc = cli.main(list(job.argv))
            except Exception:  # noqa: BLE001 - a crashing job is a failed operation
                traceback.print_exc()
                rc = -1
            record[job.group] += time.process_time() - c0
            if rc != 0:
                log(f"job failed with exit code {rc}: ssrchain {' '.join(job.argv)}")
                failed += 1
    record["wall"] = time.perf_counter() - w_start
    record["cpu"] = time.process_time() - c_start
    return record, failed


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ssrchain", "__init__.py")):
        log(f"no ssrchain sources under {SRC}; run from the root of a source checkout")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    os.environ.pop("SSRCHAIN_JOBS", None)  # sweep runs with --jobs 1
    sys.path.insert(0, SRC)

    from ssrchain import cli
    from tracer import Tracer

    oracle.self_test()
    setup_s = measure_setup()
    units, check = workloads.build(args.workload, args.seed)
    n_jobs = sum(len(u) for u in units)
    workdir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}")
    refdir = workdir + "-ref"
    for d in (workdir, refdir):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(workdir)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        record, failed = run_round(cli, units)
        log(f"warm-up round {record['wall']:.3f} s")
        shutil.copytree(workdir, refdir)
        reference = workloads.round_digest(workdir, units)
        plain, traced, spans, mismatches = [], [], [], 0
        spent = 0.0
        modes = (False, True) if args.trace else (False,)
        while spent < args.seconds or not plain or (args.trace and not traced):
            for use_trace in modes:
                tracer = Tracer() if use_trace else None
                if tracer is not None:
                    tracer.install()
                try:
                    record, bad = run_round(cli, units, tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                spent += record["wall"]
                failed += bad
                if workloads.round_digest(workdir, units) != reference:
                    mismatches += 1
                    log("a round's outputs differ from the warm-up round's")
                if tracer is None:
                    plain.append(record)
                    continue
                record["layers"] = tracer.layer_metrics()
                traced.append(record)
                spans.append(tracer.spans)
        for key in ("wall", "cpu"):
            log(f"round {key} s: " + " ".join(f"{r[key]:.3f}" for r in plain + traced))
        rounds = 1 + len(plain) + len(traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log(f"{len(plain)} plain and {len(traced)} traced rounds measured in {spent:.2f} s")
        try:
            report = check(refdir)
        except (OSError, ValueError, KeyError, IndexError) as err:
            report = {"outputs": [f"unreadable: {type(err).__name__}: {err}"]}
    finally:
        os.chdir(home)
    wrong = {name for name, msgs in report.items() if msgs}
    known = wrong & workloads.KNOWN_FAULTS
    for name in sorted(wrong):
        for msg in report[name]:
            log(f"{'KNOWN FAULT' if name in known else 'CHECK FAILED'}: {msg}")
    for name in sorted(workloads.KNOWN_FAULTS & set(report) - wrong):
        log(f"known fault no longer shows: {name} is correct")
    # a job with a known wrong answer fails identically in every round
    failed += rounds * len(known)
    correct = not (wrong - known) and mismatches == 0

    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = _layer_values(plain, traced, units_of)
        names = [m["name"] for m in spec["per_layer"]]
        _write_spans(args, spans)
    else:
        job_medians = [median_of(plain, g) for g in workloads.GROUPS if plain[0][g] > 0.0]
        values = {
            "setup_s": setup_s,
            "round_cpu_s": median_of(plain, "cpu"),
            "job_cpu_geomean_s": math.exp(statistics.fmean(math.log(t) for t in job_medians)),
            "peak_rss_mb": peak_rss_mb,
        }
        names = [m["name"] for m in spec["end_to_end"]]
    result = {
        "correct": correct,
        "attempted": rounds * n_jobs,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]} for name in names},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(os.path.join(OUT, "work"), ignore_errors=True)
    print(json.dumps(result))
    return 0


def _layer_values(plain, traced, units_of):
    """Counts from the first traced round (later rounds must repeat them
    exactly), times as medians over traced rounds."""
    first = traced[0]["layers"]
    values = {}
    for name, value in first.items():
        if units_of.get(name) in COUNT_UNITS:
            if any(r["layers"][name] != value for r in traced[1:]):
                log(f"count {name} differs between traced rounds")
            values[name] = value
        else:
            values[name] = statistics.median(r["layers"][name] for r in traced)
    for g in workloads.GROUPS:
        values[f"job.{g}_s"] = median_of(plain, g)
    values["trace.overhead_s"] = median_of(traced, "cpu") - median_of(plain, "cpu")
    return values


def _write_spans(args, spans):
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["job", "name", "parent", "start", "end"], "rounds": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
