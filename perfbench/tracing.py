"""Per-layer tracing of volterra_lab, installed from outside the package.

Timing wrappers replace module attributes at the points where they are
called; nothing in the package is edited.  Each call records a span (name,
start, end, parent span, op id).  Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its child spans,
which nest inside it and do not overlap.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

# Sampling work the integrator does at each recorded step.
SAMPLING = ("core.symmetric_eigen", "core.trace_power", "lattice.objective_f", "lattice.lax_from_state")

# What each per-layer metric should move: an end-to-end metric and workload.
# The names and units are BENCHMARK.json's per_layer list.  Times and counts
# are per traced op, so runs of different lengths compare.
_EIG = "op_s_p50 and steps_per_s on sampled-trajectory"
_SAMPLE = "op_s_p50 on sampled-trajectory"
_STEP = "steps_per_s on endpoint-forms"
LAYER_MOVES = {
    **{f"core.symmetric_eigen.{stat}": _EIG for stat in ("calls", "self_s", "us_per_call")},
    "core.trace_power.self_s": _SAMPLE,
    "lattice.objective_f.self_s": _SAMPLE,
    "integrate.sample_s": _SAMPLE,
    **{
        f"lattice.rhs.{form}.{stat}": _STEP
        for form in ("direct", "lax", "bracket")
        for stat in ("calls", "us_per_call")
    },
    "integrate.integrate.self_s": _STEP + ", mostly in the direct form",
    **{
        f"integrate.{stat}": "op_s_p50 and " + _STEP
        for stat in ("accepted_steps", "rejected_steps", "accept_ratio", "rhs_per_attempt")
    },
    **{
        f"cli.{stat}": _SAMPLE
        for stat in ("main.self_s", "write.self_s", "write.bytes", "invariant_report.self_s")
    },
    "trace.overhead_s": "none: traced minus untraced op_s_p50 on the same inputs",
}


class Tracer:
    """Span recorder; ``op`` is the id stamped on spans that start now."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    def wrap(self, module, attr: str, name, on_result=None):
        """Replace ``module.attr`` by a timing wrapper.

        ``name`` is the span name, or a function of the call's arguments that
        returns it.  ``on_result(counters, result, args)`` records counts.
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if on_result is not None:
                on_result(self.counters, result, args)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write(self, path: str):
        """Write the raw spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _count_steps(counters, record, args):
    counters["accepted"] += record.accepted_steps
    counters["rejected"] += record.rejected_steps


def _count_bytes(counters, result, args):
    counters["cli.write.bytes"] += os.path.getsize(args[0])


def _rhs_name(args, kwargs):
    return "lattice.rhs." + kwargs.get("form", args[1] if len(args) > 1 else "direct")


def install(tracer: Tracer):
    """Wrap, at their call sites, the functions that ``simulate`` reaches."""
    # The package attribute volterra_lab.integrate is the function; the
    # module is only reachable through sys.modules.
    integ = sys.modules["volterra_lab.integrate"]
    tracer.wrap(integ, "symmetric_eigen", "core.symmetric_eigen")
    tracer.wrap(integ, "trace_power", "core.trace_power")
    tracer.wrap(integ, "objective_f", "lattice.objective_f")
    tracer.wrap(integ, "lax_from_state", "lattice.lax_from_state")
    tracer.wrap(integ, "pushforward_rhs", _rhs_name)
    tracer.wrap(integ, "_volterra_raw", "lattice.rhs.direct")
    cli = sys.modules["volterra_lab.cli"]
    tracer.wrap(cli, "integrate", "integrate.integrate", _count_steps)
    tracer.wrap(cli, "invariant_report", "cli.invariant_report")
    tracer.wrap(cli, "write_csv", "cli.write", _count_bytes)
    tracer.wrap(cli, "write_jsonl", "cli.write", _count_bytes)
    tracer.wrap(cli, "main", "cli.main")


def summarize(tracer: Tracer):
    """Per-name totals over all spans: calls, inclusive seconds, self seconds."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
    return calls, total, self_time


def layer_metrics(tracer: Tracer, names, n_ops: int, overhead_s: float) -> dict:
    """The value of each metric in ``names`` from the spans of ``n_ops`` traced ops."""
    calls, _, self_time = summarize(tracer)
    spans = tracer.spans
    in_integrate = [s[3] >= 0 and spans[s[3]][0] == "integrate.integrate" for s in spans]
    sample_s = sum(s[2] - s[1] for s, inside in zip(spans, in_integrate) if inside and s[0] in SAMPLING)
    rhs_in_loop = sum(1 for s, inside in zip(spans, in_integrate) if inside and s[0].startswith("lattice.rhs."))
    accepted, rejected = tracer.counters["accepted"], tracer.counters["rejected"]
    attempts = accepted + rejected
    per_op = 1.0 / n_ops

    values = {
        "integrate.sample_s": sample_s * per_op,
        "integrate.accepted_steps": accepted * per_op,
        "integrate.rejected_steps": rejected * per_op,
        "integrate.accept_ratio": accepted / attempts if attempts else 0.0,
        "integrate.rhs_per_attempt": rhs_in_loop / attempts if attempts else 0.0,
        "cli.write.bytes": tracer.counters["cli.write.bytes"] * per_op,
        "trace.overhead_s": overhead_s,
    }
    for name in names:
        if name in values:
            continue
        base, stat = name.rsplit(".", 1)
        if stat == "calls":
            values[name] = calls[base] * per_op
        elif stat == "self_s":
            values[name] = self_time[base] * per_op
        elif stat == "us_per_call":
            values[name] = 1e6 * self_time[base] / calls[base] if calls[base] else 0.0
    return values
