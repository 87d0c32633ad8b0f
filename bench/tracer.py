"""Per-layer measurement of ssrchain from outside the package.

The tracer replaces public functions of charfn, rootfind, ssr, asymptotic,
output and cli with wrappers, in every ssrchain module that bound the name
at import (ssr binds coalescent_pair; cli binds find_collective_rates,
maximize_over_separation, fit_scaling, trace_contour and write_table), and
puts the originals back on uninstall.  Private helpers are never wrapped,
so refactors behind the public names do not break the benchmark.  core is
measured inside charfn: its hot function chebyshev_u_pair runs inside
CharFn.eval.

Two kinds of wrapper:
  * span functions record a span (name, parent, start, end) in memory and
    accumulate calls, calls that raised, time, self time (time minus the
    spans of wrapped callees) and f evaluations, total and self;
  * leaf functions, called hundreds of thousands of times per job
    (CharFn.eval and its alias __call__, CharFn.noise_scale,
    asymptotic.g_eval), are counted and timed in aggregate without spans.
    Each f evaluation is charged to the innermost open span, and leaf time
    stays in that span's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

from ssrchain import asymptotic, charfn, cli, output, rootfind, ssr

# (owner, attribute, layer name)
SPANS = (
    (rootfind, "count_zeros", "rootfind.count_zeros"),
    (rootfind, "localize_zeros", "rootfind.localize_zeros"),
    (rootfind, "refine", "rootfind.refine"),
    (rootfind, "coalescent_pair", "rootfind.coalescent_pair"),
    (rootfind, "find_collective_rates", "rootfind.find_collective_rates"),
    (rootfind, "grid_scan_minima", "rootfind.grid_scan_minima"),
    (charfn, "markovian_polynomial", "charfn.markovian_polynomial"),
    (charfn.CharFn, "log10_magnitude", "charfn.log10_magnitude"),
    (ssr, "maximize_over_separation", "ssr.maximize_over_separation"),
    (ssr, "fit_scaling", "ssr.fit_scaling"),
    (asymptotic, "critical_pair", "asymptotic.critical_pair"),
    (asymptotic, "solve_branches", "asymptotic.solve_branches"),
    (asymptotic, "trace_contour", "asymptotic.trace_contour"),
    (output, "write_table", "output.write_table"),
    (output, "write_json", "output.write_json"),
    (output, "read_csv_table", "output.read_csv_table"),
    (cli, "main", "cli.main"),
)
LEAVES = (
    (charfn.CharFn, "eval", "charfn.eval"),  # also replaces the alias __call__
    (charfn.CharFn, "noise_scale", "charfn.noise_scale"),
    (asymptotic, "g_eval", "asymptotic.g_eval"),
)
F_EVAL = "charfn.eval"


class Stat:
    __slots__ = ("calls", "failed", "seconds", "self_seconds", "evals", "self_evals",
                 "points", "rows", "bytes")

    def __init__(self):
        self.calls = self.failed = self.evals = self.self_evals = 0
        self.points = self.rows = self.bytes = 0
        self.seconds = self.self_seconds = 0.0


def _file_size(dest):
    return os.path.getsize(dest) if dest != "-" else 0


def _after_map(stat, args, kwargs):
    stat.points += int(np.size(args[1] if len(args) > 1 else kwargs["deltas"]))


def _after_table(stat, args, kwargs):
    stat.rows += len(args[3])
    stat.bytes += _file_size(args[0])


def _after_json(stat, args, kwargs):
    stat.bytes += _file_size(args[0])


AFTER = {
    "charfn.log10_magnitude": _after_map,
    "output.write_table": _after_table,
    "output.write_json": _after_json,
}


class Tracer:
    """Wrappers for one measured round; install, run, uninstall, read."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list = []  # (job, name, parent index or -1, start, end)
        self.job = ""  # label stamped on spans; set by the caller per job
        self._stack: list = []  # open spans: [index, child seconds, self evals, child evals]
        self._undo: list = []

    def install(self):
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "ssrchain" or name.startswith("ssrchain.")]
        holders.append(charfn.CharFn)
        for owner, attr, layer in SPANS + LEAVES:
            original = vars(owner)[attr]
            self.stats[layer] = Stat()
            if (owner, attr, layer) in LEAVES:
                wrapper = self._leaf(layer, original)
            else:
                wrapper = self._span(layer, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _leaf(self, layer, fn):
        stat, stack, clock = self.stats[layer], self._stack, time.perf_counter
        is_eval = layer == F_EVAL

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.seconds += clock() - t0
                stat.calls += 1
                if is_eval and stack:
                    stack[-1][2] += 1

        return leaf

    def _span(self, layer, fn):
        stat, stack, spans, clock = self.stats[layer], self._stack, self.spans, time.perf_counter
        after = AFTER.get(layer)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, 0, 0]
            spans.append(None)
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                evals = frame[2] + frame[3]
                stat.calls += 1
                stat.failed += failed
                stat.seconds += dt
                stat.self_seconds += dt - frame[1]
                stat.evals += evals
                stat.self_evals += frame[2]
                spans[frame[0]] = (self.job, layer, parent[0] if parent else -1, t0, t1)
                if parent is not None:
                    parent[1] += dt
                    parent[3] += evals
                if after is not None and not failed:
                    after(stat, args, kwargs)

        return span

    def layer_metrics(self):
        """Per-layer figures of the traced round, by metric name."""
        s = self.stats
        ev, cz = s["charfn.eval"], s["rootfind.count_zeros"]
        mag, mx = s["charfn.log10_magnitude"], s["ssr.maximize_over_separation"]
        fcr, cp = s["rootfind.find_collective_rates"], s["rootfind.coalescent_pair"]
        table = s["output.write_table"]
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        return {
            "charfn.eval_calls": ev.calls,
            "charfn.eval_s": ev.seconds,
            "charfn.eval_us": 1e6 * ratio(ev.seconds, ev.calls),
            "charfn.noise_scale_calls": s["charfn.noise_scale"].calls,
            "charfn.map_points": mag.points,
            "charfn.map_s": mag.seconds,
            "charfn.map_ns_per_point": 1e9 * ratio(mag.seconds, mag.points),
            "rootfind.count_zeros_calls": cz.calls,
            "rootfind.count_zeros_failed": cz.failed,
            "rootfind.count_zeros_evals": cz.evals,
            "rootfind.count_zeros_s": cz.seconds,
            "rootfind.refine_calls": s["rootfind.refine"].calls,
            "rootfind.refine_evals": s["rootfind.refine"].evals,
            "rootfind.find_collective_rates_self_evals": fcr.self_evals,
            "rootfind.find_collective_rates_self_s": fcr.self_seconds,
            "rootfind.coalescent_pair_calls": cp.calls,
            "rootfind.coalescent_pair_evals": cp.evals,
            "ssr.maximize_calls": mx.calls,
            "ssr.maximize_self_evals": mx.self_evals,
            "ssr.maximize_self_s": mx.self_seconds,
            "ssr.evals_per_solve": ratio(mx.evals, mx.calls),
            "asymptotic.g_eval_calls": s["asymptotic.g_eval"].calls,
            "asymptotic.solve_branches_calls": s["asymptotic.solve_branches"].calls,
            "asymptotic.trace_contour_s": s["asymptotic.trace_contour"].seconds,
            "output.rows_written": table.rows,
            "output.bytes_written": table.bytes + s["output.write_json"].bytes,
            "output.write_table_s": table.seconds,
            "output.read_csv_table_s": s["output.read_csv_table"].seconds,
            "cli.main_self_s": s["cli.main"].self_seconds,
        }
