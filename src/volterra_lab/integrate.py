"""Time integration with invariant monitoring.

Two steppers: classical fourth-order Runge-Kutta with a fixed step, and the
Dormand-Prince embedded 4(5) pair with proportional step control.  The
integrator always advances the site variables u; for the matrix forms the
right-hand side is pushed forward to u-space, which keeps every form on the
same state representation and makes the trajectories directly comparable.
The adaptive loop reuses the last stage of an accepted attempt, f(u5), as
the first stage of the next one (first same as last), and a rejected attempt
keeps its first stage, so each attempt costs 6 right-hand-side calls, plus
one for the start.  An attempt adds each stage, times its tableau column,
to every stage combination that uses it as soon as the stage is computed,
so each combination sums in stage order, the bits of the written-out sum.

The matrix forms always run in lattice.CALIBRATED_SIGN, so every form
descends f, and the invariant report counts each rise of f as a violation.

Positivity of u is an invariant of the exact flow, so a step that leaves the
positive cone is numerical damage: the adaptive loop rejects it and halves
the step, the fixed-step loop aborts with a diagnostic.

Sampling stores t and u only.  After the loop one vectorised pass adds the
objective f = sum (2n+1) u_n / 4, the Lax spectrum from a batched bidiagonal
SVD, and tr L^k for k = 2, 4 in closed form (tr L^3 is identically 0); the
spectrum and traces are conserved by the exact flow and serve as accuracy
meters for the discrete one.  On one machine t, u and f are byte-deterministic
and neither the fields nor f make a BLAS call.  Across machines rk4 runs of
every form use only IEEE arithmetic and sqrt (the bracket's one BLAS dot
product sets only the tolerance of its tangency check); the t and u bits of
adaptive runs rest only on IEEE arithmetic, sqrt and the C library's pow,
through the controller's err_est ** -0.2, and on no reduction order of
numpy.  The spectrum is byte-identical only on one LAPACK build.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# lax_from_state, objective_f, symmetric_eigen and trace_power are unused
# here.  They stay bound because perfbench/tracing.py wraps them by name on
# this module and fails without them; they can go when the benchmark's
# per-layer metrics move to what runs now (ROADMAP items 1 and 9).
from .lattice import (  # noqa: F401
    FORMS,
    LatticeState,
    _lax_spectra,
    _require_finite_positive,
    _state_view,
    _volterra_raw,
    lax_from_state,
    objective_f,
    pushforward_rhs,
    symmetric_eigen,
    trace_power,
)

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "InvariantSummary",
    "PositivityAbortError",
    "PropagationError",
    "StepBudgetError",
    "StepUnderflowError",
    "TRACE_POWERS",
    "TrajectoryRecord",
    "format_invariant_summary",
    "integrate",
    "invariant_report",
]

TRACE_POWERS = (2, 4)

# Controller constants for the embedded pair: safety factor and the growth
# and shrink clamps on the step ratio.
_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0

# A fixed-step run above this many steps is refused up front: at n = 8 it
# would take about an hour of direct stepping.
_MAX_RK4_STEPS = 10**8

# An adaptive run's step count is not known up front, so the loop stops
# after this many attempts, accepted and rejected together.
_MAX_DP45_ATTEMPTS = 10**8

# A step below this fraction of the requested span means the problem has
# effectively stalled.
_UNDERFLOW_FRACTION = 1e-14

# Slack for counting monotonicity violations of f, relative to 1 + |f(t0)|.
# On a converged plateau the sampled f wiggles at the integrator's local
# error scale (about 1e-10 at the default adaptive tolerances), so the
# threshold sits a decade above that; a genuine sign error drives f at the
# descent rate itself, orders of magnitude beyond this slack.
_MONOTONE_SLACK = 1e-9


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


class StepUnderflowError(IntegrationError):
    """Step control drove h below the resolvable fraction of the span, or a
    step was too small to advance t."""


class StepBudgetError(IntegrationError):
    """The adaptive loop used up its attempt budget before reaching t1."""


class PositivityAbortError(IntegrationError):
    """A fixed-step method produced or required a nonpositive site variable."""


class PropagationError(IntegrationError):
    """A right-hand side evaluation returned a non-finite derivative."""


class _StageDomainError(IntegrationError):
    # Internal: a stage state failed validation; policy is decided by the loop.
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration request: scheme, form, window, steps, tolerances, sampling.

    An adaptive45 h0 below the loop's step floor 1e-14 (t1 - t0) is refused,
    and so is an h0 that does not advance t: at t0 for adaptive45, and for
    rk4 at whichever of t0 and t1 has the larger magnitude.
    """

    method: str = "rk4"
    form: str = "direct"
    t0: float = 0.0
    t1: float = 1.0
    h0: float = 1e-3
    tol_abs: float = 1e-10
    tol_rel: float = 1e-10
    record_every: int = 1

    def __post_init__(self):
        if self.method not in ("rk4", "adaptive45"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}, expected one of {FORMS}")
        for name in ("t0", "t1", "h0", "tol_abs", "tol_rel"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                raise ValueError(f"{name} overflows a float") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.t1 > self.t0):
            raise ValueError("need t1 > t0")
        if not (self.h0 > 0.0):
            raise ValueError("need h0 > 0")
        steps = (self.t1 - self.t0) / self.h0
        if self.method == "rk4" and not (steps <= _MAX_RK4_STEPS):
            raise ValueError(f"rk4 would take {steps:.3g} steps; the limit is {_MAX_RK4_STEPS:.0e}")
        if not math.isfinite(self.t1 - self.t0):
            raise ValueError(f"t1 - t0 overflows: t0 = {self.t0!r}, t1 = {self.t1!r}")
        if not (self.tol_abs > 0.0 and self.tol_rel > 0.0):
            raise ValueError("tolerances must be positive")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError("record_every must be a positive integer")
        floor = _UNDERFLOW_FRACTION * (self.t1 - self.t0)
        if self.method == "adaptive45" and self.h0 < floor:
            raise ValueError(f"adaptive45 h0 = {self.h0:.3g} is below the step floor "
                             f"{_UNDERFLOW_FRACTION:.0e} * (t1 - t0) = {floor:.3g}")
        # adaptive45's first step starts at t0; rk4's fixed step must also
        # advance the end of the window where the spacing of floats is widest.
        at = self.t0 if self.method == "adaptive45" else max(self.t0, self.t1, key=abs)
        if at + min(self.h0, self.t1 - self.t0) == at:
            raise ValueError(f"{self.method} h0 = {self.h0:.3g} does not advance t = {at:.6g}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory with invariant data at each sample."""

    times: np.ndarray
    states: np.ndarray
    f_values: np.ndarray
    spectra: np.ndarray
    traces: np.ndarray
    accepted_steps: int
    rejected_steps: int

    @property
    def n_samples(self) -> int:
        return self.times.size


def _rk4_raw(f, u, h):
    k1 = f(u)
    k2 = f(u + 0.5 * h * k1)
    k3 = f(u + 0.5 * h * k2)
    k4 = f(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau, one row per stage combination.  Rows 1-5
# (a2..a6) build the states of stages 2-6 from k1..k_{i-1}; row 6 (b) is the
# fifth-order solution, equal to the seventh stage row of a, so k7 = f(u5);
# row 7 (e) is b minus the embedded fourth-order weights and multiplies into
# the error estimate.  k2 carries a zero weight in b and e, so every row
# starts at k1 and covers a prefix of the stages.
_DP_ROWS = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
    (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
     22.0 / 525.0, -1.0 / 40.0),
)


# Column j of _DP_ROWS, rows j..6, as a read-only (7 - j, 1) array: stage
# j + 1's weight in each combination that uses it, zeros included, so that a
# non-finite k2 makes u5 and err non-finite and the loop rejects the attempt.
_DP_COLS = tuple(np.array([row[j] for row in _DP_ROWS[j:]])[:, None] for j in range(7))
for _col in _DP_COLS:
    _col.flags.writeable = False


def _dopri_raw(f, u, h, k1=None):
    # One attempt from u with step h.  k1 = f(u) may be passed in; the last
    # stage k7 = f(u5) is returned so the caller can reuse it as the next
    # step's k1 (first same as last).  Row i of acc sums tableau row i as the
    # stages arrive, w1 k1 + w2 k2 + ... in stage order, with elementwise IEEE
    # products and sums alone (tests/test_integrate.py pins the bits).
    acc = _DP_COLS[0] * (f(u) if k1 is None else k1)
    for j in range(1, 6):
        acc[j:] += _DP_COLS[j] * f(u + h * acc[j - 1])
    u5 = u + h * acc[5]
    k7 = f(u5)
    acc[6:] += _DP_COLS[6] * k7
    return u5, h * acc[6], k7


def _controller_factor(err_est: float) -> float:
    if err_est == 0.0:
        return _GROW_MAX
    return min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * err_est ** -0.2))


def _raw_field(form: str):
    if form == "direct":
        return _volterra_raw

    # Each stage array is checked once, here, and then wrapped without a
    # copy; LatticeState(u) would check it a second time.
    def field(u):
        try:
            _require_finite_positive(u, "site variables")
        except ValueError as exc:
            raise _StageDomainError(str(exc)) from exc
        return pushforward_rhs(_state_view(u), form)

    return field


def integrate(config: IntegratorConfig, s0: LatticeState) -> TrajectoryRecord:
    """Integrate from s0 over [t0, t1], sampling every record_every accepted steps.

    The one stepping entry point; a single step of size h is a run with
    t1 = t0 + h.  Endpoints are always sampled.  An adaptive attempt is
    accepted when the max norm of the embedded error, scaled entrywise by
    tol_abs + tol_rel * |u|, is at most one; the next step applies the
    proportional rule with safety 0.9, clamped to [0.2 h, 5 h].  A state
    outside the positive cone is rejected (adaptive45 halves h) or raises
    PositivityAbortError (rk4).  The lax and bracket fields take sqrt(u), so
    for them that covers every stage state; the direct field is a polynomial
    and only its combined step is checked, since checking its six stages
    slowed a 12-site adaptive run by 30-40%.  Step-size underflow raises
    StepUnderflowError.
    """
    # Overflow and invalid operations leave non-finite values, which the
    # loops detect and report; numpy's warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        return _integrate(config, s0)


def _integrate(config: IntegratorConfig, s0: LatticeState) -> TrajectoryRecord:
    field = _raw_field(config.form)
    span = config.t1 - config.t0
    eps_t = 1e-12 * span

    # Every sample is the validated start or a state the loop accepted as
    # finite and positive, and each step builds a new array, so a sampled
    # array is never written again and needs neither a check nor a copy.
    t = config.t0
    u = np.array(s0.u, dtype=float)
    times = [t]
    states = [u]
    accepted = 0
    rejected = 0

    def advance(t_now: float, h_step: float) -> float:
        t_next = t_now + h_step
        if t_next == t_now:
            raise StepUnderflowError(
                f"step size {h_step:.3g} does not advance t = {t_now:.6g}"
            )
        if config.t1 - t_next <= eps_t:
            return config.t1
        return t_next

    if config.method == "rk4":
        while config.t1 - t > eps_t:
            h = min(config.h0, config.t1 - t)
            try:
                u_new = _rk4_raw(field, u, h)
            except _StageDomainError as exc:
                raise PositivityAbortError(
                    f"stage left the state domain at t = {t:.6g} with h = {h:.3g}: {exc}"
                ) from exc
            lo, hi = np.minimum.reduce(u_new), np.maximum.reduce(u_new)
            if not (-np.inf < lo and hi < np.inf):
                raise PropagationError(f"non-finite state produced at t = {t:.6g}")
            if not (lo > 0.0):
                bad = int(np.argmin(u_new))
                raise PositivityAbortError(
                    f"site u_{bad + 1} = {u_new[bad]:.3g} at t = {t + h:.6g}; "
                    f"reduce h0 or use the adaptive method"
                )
            t = advance(t, h)
            u = u_new
            accepted += 1
            if accepted % config.record_every == 0 and config.t1 - t > eps_t:
                times.append(t)
                states.append(u)
    else:
        h = min(config.h0, span)
        k1 = field(u)
        tol_abs = np.full(u.size, config.tol_abs)
        tol_rel = np.full(u.size, config.tol_rel)
        while config.t1 - t > eps_t:
            if accepted + rejected >= _MAX_DP45_ATTEMPTS:
                raise StepBudgetError(
                    f"adaptive45 stopped at t = {t:.6g} after {accepted + rejected} "
                    f"attempts; the limit is {_MAX_DP45_ATTEMPTS:.0e}"
                )
            if h < _UNDERFLOW_FRACTION * span:
                raise StepUnderflowError(
                    f"step size {h:.3g} underflowed at t = {t:.6g}; "
                    f"the problem is stiffer than the tolerances allow"
                )
            h_try = min(h, config.t1 - t)
            try:
                u5, err_vec, k7 = _dopri_raw(field, u, h_try, k1)
            except _StageDomainError:
                rejected += 1
                h = 0.5 * h_try
                continue
            scale = tol_abs + tol_rel * np.abs(u)
            err_est = float((np.abs(err_vec) / scale).max())
            # One min and one max decide both "finite" and "positive"; NaN
            # propagates through both and fails every comparison.
            lo, hi = np.minimum.reduce(u5), np.maximum.reduce(u5)
            if not (math.isfinite(err_est) and -np.inf < lo and hi < np.inf):
                rejected += 1
                h = _SHRINK_MIN * h_try
                continue
            if err_est <= 1.0:
                if not (lo > 0.0):
                    rejected += 1
                    h = 0.5 * h_try
                    continue
                t = advance(t, h_try)
                u = u5
                k1 = k7
                accepted += 1
                if accepted % config.record_every == 0 and config.t1 - t > eps_t:
                    times.append(t)
                    states.append(u)
                h = h_try * _controller_factor(err_est)
            else:
                rejected += 1
                h = h_try * _controller_factor(err_est)

    times.append(config.t1)
    states.append(u)

    u_all = np.array(states)
    n = u_all.shape[1]
    tr4 = 2.0 * np.sum(u_all * u_all, axis=1)
    tr4 += 4.0 * np.sum(u_all[:, :-1] * u_all[:, 1:], axis=1)
    return TrajectoryRecord(
        times=np.array(times),
        states=u_all,
        f_values=np.sum(u_all * (np.arange(3, 2 * n + 2, 2) / 4.0), axis=1),
        spectra=_lax_spectra(np.sqrt(u_all)),
        traces=np.column_stack((2.0 * np.sum(u_all, axis=1), tr4)),
        accepted_steps=accepted,
        rejected_steps=rejected,
    )


@dataclass(frozen=True)
class InvariantSummary:
    """Drift of conserved quantities and the monotonicity count of f."""

    eigenvalue_drift: np.ndarray
    max_eigenvalue_drift: float
    trace_drift: dict
    f_initial: float
    f_final: float
    f_violations: int


def invariant_report(record: TrajectoryRecord) -> InvariantSummary:
    """Summarize conservation along a trajectory.

    Eigenvalues are matched by sorted order against the first sample.  The
    violation count is the number of consecutive f samples that rise, since
    every form descends f, with slack _MONOTONE_SLACK * (1 + |f(t0)|) =
    1e-9 * (1 + |f(t0)|) for the integrator's local error on plateaus.
    """
    drift = np.abs(record.spectra - record.spectra[0]).max(axis=0)
    # A finite u can have an infinite tr L^4 (one site of 1e300 never moves);
    # that drift reads nan, and numpy's warning would only repeat it.
    with np.errstate(invalid="ignore"):
        trace_drift = {
            k: float(np.abs(record.traces[:, i] - record.traces[0, i]).max())
            for i, k in enumerate(TRACE_POWERS)
        }
    f = record.f_values
    slack = _MONOTONE_SLACK * (1.0 + abs(float(f[0])))
    return InvariantSummary(
        eigenvalue_drift=drift,
        max_eigenvalue_drift=float(drift.max()),
        trace_drift=trace_drift,
        f_initial=float(f[0]),
        f_final=float(f[-1]),
        f_violations=int(np.sum(np.diff(f) > slack)),
    )


def format_invariant_summary(summary: InvariantSummary, record: TrajectoryRecord) -> str:
    lines = [
        f"samples = {record.n_samples}, steps accepted = {record.accepted_steps}, "
        f"rejected = {record.rejected_steps}",
        f"max eigenvalue drift = {summary.max_eigenvalue_drift:.3e}",
        "trace drift: "
        + ", ".join(f"tr L^{k} {summary.trace_drift[k]:.3e}" for k in TRACE_POWERS),
        f"f: {summary.f_initial:.17g} -> {summary.f_final:.17g} "
        f"(nonincreasing, violations = {summary.f_violations})",
    ]
    return "\n".join(lines)
