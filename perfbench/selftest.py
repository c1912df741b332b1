"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for a moment with and without tracing
and requires every metric, with its unit, on the report and in the JSON
line.  Then corrupts outputs on purpose (a perturbed last CSV row) and
requires each corrupted op to be counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def check_reports(spec: dict):
    layers = {m["name"] for m in spec["per_layer"]}
    expect(set(tracing.LAYER_MOVES) == layers, "tracing.LAYER_MOVES and BENCHMARK.json per_layer differ")
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            expect(proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
            expect(type(result["attempted"]) is int and result["attempted"] >= 1, "attempted")
            expect(type(result["failed"]) is int and 0 <= result["failed"] <= result["attempted"], "failed")
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{name} trace {trace}: metrics {got} != {units}")
            if trace == 0:
                units["failed_frac"] = "ratio"
            for metric in units:
                prefix = f"metric {metric} "
                line = next((ln for ln in lines if ln.startswith(prefix)), "")
                expect(line.split()[3:4] == [units[metric]], f"{name}: no '{prefix}<value> {units[metric]}' line")
        print(f"selftest: {name} reports every metric with its unit")


def _perturb_last_row(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) * (1.0 + 1e-6))
    lines[-1] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _corrupt_output(op, outcomes):
    _perturb_last_row(op.outs[-1])


def check_corruption():
    workdir = os.path.join(run.WORK_DIR, f"selftest-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cli = run.setup("sampled-trajectory", 1, workdir)[0]
        for name, cls in workloads.WORKLOADS.items():
            clean = run.measure(cli, cls(1, workdir), 0)
            expect(not clean[0].problems, f"{name}: clean op failed: {clean[0].problems}")
            corrupted = run.measure(cli, cls(1, workdir), 0, tamper=_corrupt_output)
            last = corrupted[0]
            expect(bool(last.problems) and last.wrong, f"{name}: corrupted output passed its checks")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run.end_to_end(corrupted, [1.0])
            line = next(ln for ln in buf.getvalue().splitlines() if ln.startswith("metric failed_frac "))
            expect(float(line.split()[2]) > 0.0, f"{name}: failed_frac stayed 0")
            print(f"selftest: {name} counts a corrupted output as failed ({last.problems[0][:60]}...)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_corruption()
    check_reports(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
