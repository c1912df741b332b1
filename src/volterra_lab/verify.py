"""Named verification battery.

Each check exercises one exact identity of the flow and geometry stack on
seeded random data and reports a normalized residual against a fixed
threshold.  Each trial draws from its own substream of the seed, and the
battery runs them serially in one process.  States whose spectrum is
numerically degenerate are redrawn and counted, never silently regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, lattice, rng
from .integrate import TRACE_POWERS, IntegratorConfig, integrate, invariant_report
from .lattice import commutator, frobenius_inner

__all__ = [
    "CheckResult",
    "VerifyReport",
    "check_lax_generator",
    "check_projection_fixed_point",
    "check_chain_equality",
    "check_gradient_defining",
    "check_field_equivalence",
    "check_isospectral_drift",
    "check_trajectory_accuracy",
    "draw_context",
    "gradient_pairing",
    "run_verification",
]

_MAX_REDRAWS = 50

# Thresholds, one per check; residuals are normalized so these are flat.
THRESHOLD_LAX_GENERATOR = 1e-12
THRESHOLD_PROJECTION = 1e-11
THRESHOLD_CHAIN = 1e-12
THRESHOLD_GRADIENT = 1e-11
THRESHOLD_EQUIVALENCE = 1e-12
THRESHOLD_EIG_DRIFT = 1e-8
THRESHOLD_TRACE_DRIFT = 1e-9
THRESHOLD_TRAJECTORY = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    trials: int
    redraws: int = 0
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def redraws(self) -> int:
        return sum(c.redraws for c in self.checks)


def _draw_state(seed: int, check_id: int, n: int, *idx: int):
    """A seeded n-site state and the stream it was drawn from."""
    stream = rng.SplitMix64(rng.substream_seed(seed, check_id, n, *idx))
    return lattice.LatticeState(rng.random_state(n, stream)), stream


def draw_context(seed: int, check_id: int, n: int, trial: int):
    """State plus orbit context, redrawing on a numerically degenerate spectrum."""
    for attempt in range(_MAX_REDRAWS):
        s, stream = _draw_state(seed, check_id, n, trial, attempt)
        try:
            ctx = geometry.orbit_context(lattice.lax_from_state(s))
        except geometry.DegenerateSpectrumError:
            continue
        return s, ctx, stream, attempt
    raise geometry.DegenerateSpectrumError(
        f"no workable spectrum in {_MAX_REDRAWS} draws (n = {n}, trial = {trial})"
    )


def gradient_pairing(ctx: geometry.OrbitContext):
    """T -> (df([L, T]), normal metric of grad f with [L, T]) at the context's base.

    The pairing is ``geometry.normal_metric``'s, with the gradient's
    coordinates solved once per state rather than once per direction;
    df([L, T]) is <[L^2, K], T> on the context's generator.
    """
    grad_coords = geometry._tangent_coordinates(ctx, geometry.orbit_gradient(ctx))

    def pair(t: np.ndarray):
        v = geometry.TangentVector(ctx.base, commutator(ctx.dense, t))
        nm = float(np.sum(grad_coords * geometry._tangent_coordinates(ctx, v)))
        return frobenius_inner(ctx.generator, t), nm

    return pair


def _trial_lax_generator(seed: int, n: int, trial: int):
    s, _ = _draw_state(seed, 1, n, trial)
    dense = lattice.lax_from_state(s).densify()
    bracket = commutator(dense @ dense, lattice.build_K(n + 1))
    delta = float(np.abs(lattice.build_A(s) - bracket).max())
    scale = 1.0 + float(np.linalg.norm(dense)) ** 2
    return delta / scale, 0


def _trial_projection(seed: int, n: int, trial: int):
    s, ctx, _, redraws = draw_context(seed, 2, n, trial)
    g = ctx.generator
    proj = geometry.centralizer_project(ctx, g)
    residual = float(np.linalg.norm(proj - g)) / (1.0 + float(np.linalg.norm(g)))
    return residual, redraws


def _trial_chain(seed: int, n: int, trial: int):
    s, stream = _draw_state(seed, 3, n, trial)
    dense = lattice.lax_from_state(s).densify()
    t = rng.uniform_matrix(n + 1, stream)
    k = lattice.build_K(n + 1)
    sq = dense @ dense
    v = commutator(dense, t)
    e1 = frobenius_inner(k, dense @ v + v @ dense)
    e2 = frobenius_inner(k, commutator(sq, t))
    e3 = frobenius_inner(commutator(sq, k), t)
    scale = 1.0 + max(abs(e1), abs(e2), abs(e3))
    residual = float(np.max([abs(e1 - e2), abs(e2 - e3), abs(e1 - e3)])) / scale
    return residual, 0


def _trial_gradient(seed: int, n: int, trial: int):
    s, ctx, stream, redraws = draw_context(seed, 4, n, trial)
    pair = gradient_pairing(ctx)
    g_norm = float(np.linalg.norm(ctx.generator))
    residuals = []
    for _ in range(100):
        t = rng.uniform_matrix(n + 1, stream)
        dd, nm = pair(t)
        scale = 1.0 + abs(dd) + g_norm * float(np.linalg.norm(t))
        residuals.append(abs(dd - nm) / scale)
    return float(np.max(residuals)), redraws


def _dense_gap(s: lattice.LatticeState, form: str, out: np.ndarray) -> float:
    """Largest |out - 2 c diag(M, 1)|, M = CALIBRATED_SIGN times the form's dense field.

    This runs the paper's dense objects, and the double bracket's dense
    tangency check, against the O(N) pushforward; with equal bits it is 0.
    """
    L = lattice.lax_from_state(s)
    field = lattice.lax_rhs if form == "lax" else lattice.double_bracket_field
    m = lattice.CALIBRATED_SIGN * field(L)
    return float(np.abs(out - lattice._u_velocity(L, m)).max())


def _trial_equivalence(seed: int, n: int, trial: int):
    s, _ = _draw_state(seed, 5, n, trial)
    reference = lattice.volterra_rhs(s)
    scale = 1.0 + float(np.abs(reference).max())
    gaps = []
    for form in ("lax", "bracket"):
        out = lattice.pushforward_rhs(s, form)
        gaps += [float(np.abs(out - reference).max()), _dense_gap(s, form, out)]
    return float(np.max(gaps)) / scale, 0


def _trial_trajectory(seed: int, n: int, trial: int):
    # The N = 2 lattice has a closed form: c = u1 + u2 is conserved and the
    # ratio u2/u1 decays as exp(-c t).
    s, _ = _draw_state(seed, 9, n, trial)
    t1 = 1.0
    config = IntegratorConfig(
        method="adaptive45", form="direct", t0=0.0, t1=t1, h0=1e-3,
        tol_abs=1e-10, tol_rel=1e-10,
    )
    u = integrate(config, s).states[-1]
    u1, u2 = s.u
    c = u1 + u2
    q = (u2 / u1) * np.exp(-c * t1)
    exact = np.array([c / (1.0 + q), c * q / (1.0 + q)])
    return float((np.abs(u - exact) / (1.0 + np.abs(exact))).max()), 0


def _sweep(
    trial_fn, name: str, threshold: float, detail: str, n_list, trials: int, seed: int
) -> CheckResult:
    """Worst residual of trial_fn over the (n, trial) grid."""
    results = [trial_fn(seed, n, t) for n in n_list for t in range(trials)]
    worst = float(np.max([r[0] for r in results]))
    return CheckResult(
        name=name,
        residual=worst,
        threshold=threshold,
        passed=worst <= threshold,
        trials=len(results),
        redraws=sum(r[1] for r in results),
        detail=detail,
    )


def check_lax_generator(n_list, trials: int, seed: int) -> CheckResult:
    """The Lax generator equals the bracket [L^2, K], entry for entry."""
    return _sweep(_trial_lax_generator, "lax-generator-equals-bracket", THRESHOLD_LAX_GENERATOR,
                  "max |A - [L^2, K]| / (1 + ||L||^2)", n_list, trials, seed)


def check_projection_fixed_point(n_list, trials: int, seed: int) -> CheckResult:
    """[L^2, K] is already centralizer-free, so the projection fixes it."""
    return _sweep(_trial_projection, "projection-fixed-point", THRESHOLD_PROJECTION,
                  "||P(G) - G|| / (1 + ||G||)", n_list, trials, seed)


def check_chain_equality(n_list, trials: int, seed: int) -> CheckResult:
    """Three trace forms of the directional derivative are one number."""
    return _sweep(_trial_chain, "derivative-chain-equality", THRESHOLD_CHAIN,
                  "product rule vs bracket vs adjoint form", n_list, trials, seed)


def check_gradient_defining(n_list, trials: int, seed: int) -> CheckResult:
    """df([L, T]) equals the metric pairing of the gradient with [L, T]."""
    return _sweep(_trial_gradient, "gradient-defining-equation", THRESHOLD_GRADIENT,
                  "100 directions per state", n_list, trials, seed)


def check_field_equivalence(n_list, trials: int, seed: int) -> CheckResult:
    """All three right-hand sides produce the same du/dt at the calibrated sign.

    Each matrix-form pushforward is also compared with the superdiagonal of
    its dense public field, which adds nothing to the residual while the two
    have the same bits.  This is the battery's orientation check: the
    pushforward and the dense comparison both multiply by
    ``lattice.CALIBRATED_SIGN``, and the other sign misses the direct field
    by twice the field, so a reversed constant or dense field fails here.  At
    N = 1 every field is zero and there is no orientation to check.
    """
    return _sweep(_trial_equivalence, "field-equivalence", THRESHOLD_EQUIVALENCE,
                  "lax and bracket vs direct, relative", n_list, trials, seed)


def check_isospectral_drift(n_list, seed: int) -> CheckResult:
    """A short adaptive integration conserves the spectrum and trace powers.

    The trace residual is relative, as elsewhere in the battery: the drift
    of tr L^k divided by 1 + |tr L^k(t0)|, worst over k.
    """
    n = max(n_list)
    s, _ = _draw_state(seed, 7, n, 0)
    config = IntegratorConfig(
        method="adaptive45", form="direct", t0=0.0, t1=1.0, h0=1e-3,
        tol_abs=1e-10, tol_rel=1e-10, record_every=5,
    )
    record = integrate(config, s)
    summary = invariant_report(record)
    drift = np.array([summary.trace_drift[k] for k in TRACE_POWERS])
    trace_worst = float(np.max(drift / (1.0 + np.abs(record.traces[0]))))
    passed = (
        summary.max_eigenvalue_drift <= THRESHOLD_EIG_DRIFT
        and trace_worst <= THRESHOLD_TRACE_DRIFT
    )
    return CheckResult(
        name="isospectral-drift",
        residual=summary.max_eigenvalue_drift,
        threshold=THRESHOLD_EIG_DRIFT,
        passed=passed,
        trials=1,
        detail=(
            f"n = {n}, t in [0, 1]; relative trace drift {trace_worst:.3g} "
            f"(k = {', '.join(map(str, TRACE_POWERS))}) vs {THRESHOLD_TRACE_DRIFT:.0e}"
        ),
    )


def check_trajectory_accuracy(trials: int, seed: int) -> CheckResult:
    """DP45 at tolerance 1e-10 lands on the exact N = 2 solution at t = 1.

    Drift checks are nearly blind to wrong Runge-Kutta weights, since any
    weights conserve the linear invariant tr L^2; this one compares the
    trajectory with an independent closed form.
    """
    return _sweep(_trial_trajectory, "trajectory-accuracy", THRESHOLD_TRAJECTORY,
                  "DP45 vs the N = 2 closed form at t = 1, relative", (2,), trials, seed)


def run_verification(n_list, trials: int, seed: int) -> VerifyReport:
    """Run the full battery and assemble the report."""
    n_list = tuple(int(n) for n in n_list)
    if not n_list or min(n_list) < 1:
        raise ValueError("n_list must contain positive site counts")
    if trials < 1:
        raise ValueError("need at least one trial")
    checks = (
        check_lax_generator(n_list, trials, seed),
        check_projection_fixed_point(n_list, trials, seed),
        check_chain_equality(n_list, trials, seed),
        check_gradient_defining(n_list, min(trials, 5), seed),
        check_field_equivalence(n_list, trials, seed),
        check_trajectory_accuracy(trials, seed),
        check_isospectral_drift(n_list, seed),
    )
    return VerifyReport(checks=checks)
