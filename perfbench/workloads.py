"""The benchmark's workloads: inputs drawn from the seed, the commands of each
op, and the checks of each op's output.

Inputs come from Python's own ``random.Random(seed)``, never from the
package's generator, so the program receives only generated inputs: an
explicit ``--u0`` list for every ``simulate`` command.  The checks use
``numpy.linalg.eigvalsh`` and plain arithmetic as oracles, never the
package's own eigensolver.

numpy is imported inside the check functions only: the benchmark's set-up
time starts before ``volterra_lab`` (and the numpy it pulls in) is imported.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

# Error tolerances passed to every endpoint-forms command; the cross-form
# check derives its bound from them.
TOL_ABS = 1e-10
TOL_REL = 1e-10

# The package's Jacobi solver stops at an off-diagonal norm of 1e-14 ||L||,
# so its eigenvalues agree with LAPACK's far inside this bound.
EIG_ORACLE_RTOL = 1e-12

_STEPS = re.compile(r"steps accepted = (\d+), rejected = (\d+)")
_VIOLATIONS = re.compile(r"violations = (\d+)\)")
_WROTE = re.compile(r"wrote (\d+) samples")


@dataclass
class Op:
    """One op: the commands it runs, in order, and what its check needs."""

    argvs: list
    u0: list
    outs: list  # the CSV each simulate command writes, in order


@dataclass
class Outcome:
    """What one command returned: exit code (or the exception) and its output."""

    rc: object
    text: str


def stratified_u0(rng: random.Random, n: int) -> list:
    """n sites, each log-uniform on [0.1, 10).

    The sites take one value from each of n equal bands of log10(u), in
    random order.  Every site is still log-uniform on [0.1, 10), but each op
    sees the same spread of magnitudes, so a run of a few dozen ops measures
    the input distribution and not the luck of the draw.
    """
    r = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(r)
    return [10.0 ** (2.0 * x - 1.0) for x in r]


def _u0_arg(u0) -> str:
    # repr round-trips a double, so the program starts from exactly u0.
    return ",".join(repr(x) for x in u0)


def _lax_spectrum(np, u):
    c = np.sqrt(np.asarray(u, dtype=float))
    m = np.diag(c, 1)
    return np.linalg.eigvalsh(m + m.T)


def _read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("ragged or empty CSV")
    return header, rows


def check_simulate(u0: list, path: str, out: Outcome, t1: float, steps_per_sample: bool) -> tuple:
    """Check one simulate command that started from ``u0`` and wrote ``path``.

    Returns (problems, final u or None, accepted steps).
    """
    import numpy as np
    from volterra_lab.verify import THRESHOLD_EIG_DRIFT, THRESHOLD_TRACE_DRIFT

    if out.rc != 0:
        return [f"simulate exited {out.rc}: {out.text.strip()[-200:]}"], None, 0
    problems = []
    steps = _STEPS.search(out.text)
    violations = _VIOLATIONS.search(out.text)
    wrote = _WROTE.search(out.text)
    if not (steps and violations and wrote):
        return [f"summary lines missing: {out.text.strip()[-200:]}"], None, 0
    accepted = int(steps.group(1))
    if int(violations.group(1)) != 0:
        problems.append(f"f-violations = {violations.group(1)}")
    try:
        header, rows = _read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"CSV does not parse: {exc}"], None, accepted
    n = len(u0)
    u_cols = [header.index(f"u_{i}") for i in range(1, n + 1)]
    first = np.array([rows[0][j] for j in u_cols])
    last = np.array([rows[-1][j] for j in u_cols])
    expected_rows = accepted + 1 if steps_per_sample else 2
    if len(rows) != int(wrote.group(1)) or len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, summary says {wrote.group(1)}, expected {expected_rows}")
    if rows[0][0] != 0.0 or rows[-1][0] != t1:
        problems.append(f"time window {rows[0][0]!r}..{rows[-1][0]!r}, expected 0..{t1!r}")
    if not np.array_equal(first, np.array(u0)):
        problems.append("first row is not u0")
    lam0 = _lax_spectrum(np, first)
    lam_cols = [j for j, name in enumerate(header) if name.startswith("lambda_")]
    if lam_cols:
        lam_prog = np.array([rows[0][j] for j in lam_cols])
        err = float(np.abs(lam_prog - lam0).max()) if lam_prog.shape == lam0.shape else np.inf
        if not err <= EIG_ORACLE_RTOL * (1.0 + float(np.abs(lam0).max())):
            problems.append(f"first-row spectrum differs from eigvalsh by {err:.3g}")
    drift = float(np.abs(_lax_spectrum(np, last) - lam0).max())
    if not drift <= THRESHOLD_EIG_DRIFT:
        problems.append(f"spectrum drift {drift:.3g} > {THRESHOLD_EIG_DRIFT:g}")
    trace_drift = abs(2.0 * float(last.sum()) - 2.0 * float(first.sum()))
    if not trace_drift <= THRESHOLD_TRACE_DRIFT:
        problems.append(f"tr L^2 drift {trace_drift:.3g} > {THRESHOLD_TRACE_DRIFT:g}")
    return problems, last, accepted


class SampledTrajectory:
    """Recorded runs: every accepted step sampled with its spectrum, to CSV."""

    name = "sampled-trajectory"
    N_SITES = 8
    T1 = 0.5

    def __init__(self, seed: int, workdir: str):
        self._rng = random.Random(seed)
        self._out = os.path.join(workdir, "sampled.csv")

    def next_op(self) -> Op:
        u0 = stratified_u0(self._rng, self.N_SITES)
        argv = [
            "simulate", "--u0", _u0_arg(u0), "--method", "adaptive45", "--form", "direct",
            "--t1", repr(self.T1), "--record-every", "1", "--spectra", "--format", "csv",
            "--out", self._out,
        ]
        return Op([argv], u0=u0, outs=[self._out])

    def check(self, op: Op, outcomes: list) -> tuple:
        """The op's problems and its accepted steps."""
        problems, _, steps = check_simulate(op.u0, op.outs[0], outcomes[0], self.T1, True)
        return problems, steps


class EndpointForms:
    """Endpoint-only runs of one u0 in the direct, Lax and double-bracket forms.

    One op is the whole triple.  The three forms cost very different amounts
    per step (a vectorised line against 13x13 matrix products), so timing
    them as separate ops would split op times into three groups and leave the
    median and the tail each inside one form.
    """

    name = "endpoint-forms"
    N_SITES = 12
    T1 = 5.0
    FORMS = ("direct", "lax", "bracket")

    def __init__(self, seed: int, workdir: str):
        self._rng = random.Random(seed)
        self._outs = [os.path.join(workdir, f"{form}.csv") for form in self.FORMS]

    def next_op(self) -> Op:
        u0 = stratified_u0(self._rng, self.N_SITES)
        argvs = [
            [
                "simulate", "--u0", _u0_arg(u0), "--method", "adaptive45", "--form", form,
                "--t1", repr(self.T1), "--record-every", "1000000000",
                "--tol-abs", repr(TOL_ABS), "--tol-rel", repr(TOL_REL), "--out", out,
            ]
            for form, out in zip(self.FORMS, self._outs)
        ]
        return Op(argvs, u0=u0, outs=list(self._outs))

    def check(self, op: Op, outcomes: list) -> tuple:
        """The op's problems and its accepted steps, over all three forms.

        Besides the per-command checks, the Lax and bracket final states must
        match the direct one within one step's error tolerance,
        TOL_ABS + TOL_REL * |u|, site by site: the three forms compute the
        same field up to roundoff.
        """
        import numpy as np

        problems, finals, steps = [], [], 0
        for form, path, out in zip(self.FORMS, op.outs, outcomes):
            found, u_final, accepted = check_simulate(op.u0, path, out, self.T1, False)
            problems += [f"{form}: {p}" for p in found]
            finals.append(u_final)
            steps += accepted
        u_direct = finals[0]
        for form, u_final in zip(self.FORMS[1:], finals[1:]):
            if u_final is not None and u_direct is not None:
                bound = TOL_ABS + TOL_REL * np.abs(u_direct)
                excess = float(np.max(np.abs(u_final - u_direct) / bound))
                if not excess <= 1.0:
                    problems.append(f"{form}: final u differs from direct by {excess:.3g} x tolerance")
        return problems, steps


# No workload runs `verify` or `gradient-check`: on some seeds both report
# FAIL on correct results (see "Known defects" in README.md), and a benchmark
# op must not fail.  Picking seeds that pass would hide the defects, so the
# two commands stay out until they are fixed.
WORKLOADS = {w.name: w for w in (SampledTrajectory, EndpointForms)}
