"""volterra-lab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real commands in this process through ``volterra_lab.cli.main``,
built from the ``src`` directory of the checkout this file sits in.  The
next op starts only when the previous one has returned.  Ops start until
``--seconds`` have passed; every op is timed on its own and its output is
checked after the clock stops.  A human-readable report goes to standard
output, and its last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, whatever the caller's environment says: every bound was
# set at this value.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
WORK_DIR = os.path.join(ROOT, ".perfbench")


@dataclass
class OpRecord:
    """One timed op.

    ``problems`` lists every failed check.  ``wrong`` is set when every
    command of the op exited 0 yet a check failed: the program claimed
    success and gave a wrong answer.
    """

    seconds: float
    steps: int
    problems: list
    wrong: bool


def setup(name: str, seed: int, workdir: str):
    """Import volterra_lab from the checkout and make the workload's inputs.

    Returns the cli module, the workload, and the seconds it took.
    """
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from volterra_lab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"volterra_lab was imported from {cli.__file__}, not from {src}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    return cli, workload, time.perf_counter() - start


def run_op(cli, op: workloads.Op) -> list:
    """Run the op's commands in order; the program's output is captured."""
    outcomes = []
    for argv in op.argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            except Exception as exc:  # a crash is a failed op; the loop goes on
                rc = f"{type(exc).__name__}: {exc}"
        outcomes.append(workloads.Outcome(rc, buf.getvalue()))
    return outcomes


def run_one(cli, workload, tamper=None) -> OpRecord:
    """Draw the workload's next op, time it, then check its output.

    ``tamper(op, outcomes)`` may alter outputs before the checks run, which
    the self-test uses to corrupt them.
    """
    op = workload.next_op()
    start = time.perf_counter()
    outcomes = run_op(cli, op)
    elapsed = time.perf_counter() - start
    if tamper is not None:
        tamper(op, outcomes)
    problems, steps = workload.check(op, outcomes)
    exited_ok = all(out.rc == 0 for out in outcomes)
    return OpRecord(elapsed, steps, problems, bool(problems) and exited_ok)


def measure(cli, workload, seconds: float, tamper=None) -> list:
    """Closed loop: ops one after another until ``seconds`` pass."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        records.append(run_one(cli, workload, tamper=tamper))
    return records


def tail(times: list):
    """Highest percentile with at least ten ops beyond it: (seconds, percentile).

    With fewer than 11 ops no percentile qualifies; the slowest op is given
    as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(name: str, seed: int, own: float) -> list:
    """Set-up times: this process's own and those of fresh child processes."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    for _ in range(SETUP_RUNS - 1):
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(child.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"] + " (OPENBLAS_NUM_THREADS)"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
        break
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def metric(name: str, value: float, unit: str, note: str = ""):
    print(f"metric {name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {"value": value, "unit": unit}


def report_failures(records: list):
    failed = [(i, r) for i, r in enumerate(records) if r.problems]
    for i, r in failed[:5]:
        print(f"failed op {i}: " + "; ".join(r.problems))
    if len(failed) > 5:
        print(f"... and {len(failed) - 5} more failed ops")


def end_to_end(records: list, setup_samples: list) -> dict:
    times = [r.seconds for r in records]
    n = len(records)
    failed = sum(1 for r in records if r.problems)
    tail_s, pct = tail(times)
    steps = sum(r.steps for r in records)
    metrics = {
        "op_s_p50": metric("op_s_p50", statistics.median(times), "s", f"median of {n} ops"),
        "op_s_tail": metric("op_s_tail", tail_s, "s", f"p{pct:.1f} of {n} ops"),
        "steps_per_s": metric("steps_per_s", steps / sum(times), "1/s",
                              f"{steps} accepted steps in {n} ops"),
        "peak_rss_mb": metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric("setup_s", statistics.median(setup_samples), "s",
                          f"median of {len(setup_samples)} set-ups"),
    }
    metric("failed_frac", failed / n, "ratio", f"{failed} of {n} ops attempted")
    return metrics


def traced_run(cli, workload, seed: int, seconds: float, workdir: str) -> tuple:
    """Each input runs untraced and then traced, until ``seconds`` pass.

    Running the pair back to back keeps the machine's own drift out of the
    tracing overhead.
    """
    name = workload.name
    replay = workloads.WORKLOADS[name](seed, workdir)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_one(cli, workload))
        tracing.install(tracer)
        tracer.op = len(traced)
        try:
            traced.append(run_one(cli, replay))
        finally:
            tracer.uninstall()
    m = len(traced)
    base = statistics.median(r.seconds for r in untraced)
    with_trace = statistics.median(r.seconds for r in traced)
    overhead = with_trace - base
    print(f"tracing overhead: op_s_p50 {with_trace:.6g} s traced vs {base:.6g} s untraced "
          f"on the same {m} ops: {overhead:+.6g} s")
    span_file = os.path.join(WORK_DIR, f"spans-{name}-seed{seed}.jsonl")
    tracer.write(span_file)
    print(f"raw spans: {len(tracer.spans)} written to {os.path.relpath(span_file, ROOT)}")

    calls, total, self_time = tracing.summarize(tracer)
    op_total = sum(r.seconds for r in traced)
    print(f"{'span':<40} {'calls/op':>10} {'self s/op':>11} {'self %':>7} {'incl %':>7}")
    for span in sorted(self_time, key=self_time.get, reverse=True):
        print(f"{span:<40} {calls[span] / m:>10.1f} {self_time[span] / m:>11.4g} "
              f"{100 * self_time[span] / op_total:>7.1f} {100 * total[span] / op_total:>7.1f}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {spec["name"]: spec["unit"] for spec in json.load(fh)["per_layer"]}
    values = tracing.layer_metrics(tracer, units, m, overhead)
    metrics = {}
    for metric_name, unit in units.items():
        metrics[metric_name] = metric(metric_name, values[metric_name], unit,
                                      "moves " + tracing.LAYER_MOVES[metric_name])
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        cli, workload, own_setup = setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"cannot import volterra_lab from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 1
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    os.makedirs(workdir, exist_ok=True)
    try:
        print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
              f"{args.seconds:g} s, trace {args.trace}")
        print("env " + json.dumps(environment()))
        if args.trace:
            records, metrics = traced_run(cli, workload, args.seed, args.seconds, workdir)
        else:
            records = measure(cli, workload, args.seconds)
            metrics = end_to_end(records, setup_seconds(args.workload, args.seed, own_setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_failures(records)
    failed = sum(1 for r in records if r.problems)
    correct = not any(r.wrong for r in records)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
