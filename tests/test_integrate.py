import numpy as np
import numpy.testing as npt
import pytest

import dataclasses
import importlib
import inspect
import math
import warnings

# the package re-exports the integrate() function over the submodule name,
# so fetch the module itself for monkeypatching and attribute access
itg = importlib.import_module("volterra_lab.integrate")
from volterra_lab import lattice
from volterra_lab.lattice import CALIBRATED_SIGN, FORMS, LatticeState, trace_power
from volterra_lab.rng import SplitMix64, random_state, substream_seed

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is in the test extra; its property skips
    given = None


def _state(*u):
    return LatticeState(np.array(u, dtype=float))


def test_config_validation():
    with pytest.raises(ValueError):
        itg.IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        itg.IntegratorConfig(form="matrix")
    with pytest.raises(ValueError):
        itg.IntegratorConfig(t0=1.0, t1=1.0)
    with pytest.raises(ValueError):
        itg.IntegratorConfig(h0=0.0)
    with pytest.raises(ValueError):
        itg.IntegratorConfig(tol_abs=0.0)
    with pytest.raises(ValueError):
        itg.IntegratorConfig(record_every=0)
    # rk4's step count is known up front and bounded; adaptive45 is not
    itg.IntegratorConfig(method="rk4", t1=1.0, h0=1.0 / itg._MAX_RK4_STEPS)
    with pytest.raises(ValueError, match="rk4 would take"):
        itg.IntegratorConfig(method="rk4", t1=1.0, h0=0.5 / itg._MAX_RK4_STEPS)
    with pytest.raises(ValueError, match="rk4 would take"):
        itg.IntegratorConfig(method="rk4", t0=-1e308, t1=1e308)
    # t1 - t0 = inf would make every step look like the last one
    with pytest.raises(ValueError, match="t1 - t0 overflows"):
        itg.IntegratorConfig(method="adaptive45", t0=-1e308, t1=1e308)
    itg.IntegratorConfig(method="adaptive45", h0=1e-14)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"t1": "2"}, "t1 must be a real number, got '2'"),
        ({"t1": None}, "t1 must be a real number, got None"),
        ({"t1": 1 + 0j}, "t1 must be a real number, got (1+0j)"),
        ({"tol_abs": "1e-9"}, "tol_abs must be a real number, got '1e-9'"),
        ({"t1": 10**400}, "t1 overflows a float"),
        ({"h0": True}, "h0 must be a real number, got True"),
        ({"t0": np.bool_(False)}, "t0 must be a real number"),
        ({"record_every": True}, "record_every must be a positive integer"),
        ({"t1": 2}, None),
        ({"t1": np.float32(0.5), "h0": np.int64(1)}, None),
        ({"tol_rel": np.float64(1e-8), "record_every": np.int32(3)}, None),
    ],
)
def test_config_types_at_the_library_boundary(kwargs, message):
    # bools and non-real values are refused with a ValueError naming the
    # field; ints, numpy floats and numpy ints stay accepted
    if message is None:
        cfg = itg.IntegratorConfig(**kwargs)
        assert all(getattr(cfg, k) == v for k, v in kwargs.items())
    else:
        with pytest.raises(ValueError) as info:
            itg.IntegratorConfig(**kwargs)
        assert str(info.value).startswith(message)


def test_rk4_step_fixed_point_is_exact():
    # the step and its stage states y2, y3, y4 all stay at the fixed point
    u = np.array([5.0])
    out, stages = itg._rk4_raw(itg._volterra_raw, u, 0.25)
    npt.assert_array_equal(out, [5.0])
    npt.assert_array_equal(stages, [[5.0]] * 3)


def test_rk4_step_linear_field_value():
    # du/dt = u from u = 1: one step of h = 0.1 gives the quartic Taylor sum
    out, _ = itg._rk4_raw(lambda u: u, np.array([1.0]), 0.1)
    expect = 1.0 + 0.1 + 0.1**2 / 2.0 + 0.1**3 / 6.0 + 0.1**4 / 24.0
    assert out[0] == pytest.approx(expect, rel=1e-15)


def test_rk4_step_validation_and_errors(monkeypatch):
    with pytest.raises(ValueError):
        itg.IntegratorConfig(method="rk4", h0=0.0)
    one_step = itg.IntegratorConfig(method="rk4", t1=0.1, h0=0.1)
    monkeypatch.setattr(itg, "_volterra_raw", lambda u: np.full_like(u, np.nan))
    with pytest.raises(itg.PropagationError, match="non-finite state"):
        itg.integrate(one_step, _state(1.0))
    # strong decay drives a stage negative at this step size; a matrix form
    # validates its stage states
    monkeypatch.setattr(itg, "pushforward_rhs", lambda s, form: -100.0 * s.u)
    cfg = itg.IntegratorConfig(method="rk4", form="lax", t1=0.1, h0=0.1)
    with pytest.raises(itg.PositivityAbortError, match="stage left the state domain"):
        itg.integrate(cfg, _state(1.0))


def test_rk4_step_combined_step_leaving_the_cone_aborts(monkeypatch):
    # every stage state stays positive; the last stage's slope of -100 takes
    # the combined step from u = 1 to 1 - 8.375
    monkeypatch.setattr(itg, "_volterra_raw", lambda u: np.where(u > 0.96, -0.1, -100.0))
    cfg = itg.IntegratorConfig(method="rk4", t1=0.5, h0=0.5)
    with pytest.raises(itg.PositivityAbortError, match="site u_1 = -7.38 at t = 0.5"):
        itg.integrate(cfg, _state(1.0))
    # finite stages whose weighted sum overflows
    monkeypatch.setattr(itg, "_volterra_raw", lambda u: np.full_like(u, 1e308))
    cfg = itg.IntegratorConfig(method="rk4", t1=1.0, h0=1.0)
    with pytest.raises(itg.PropagationError, match="non-finite state"):
        itg.integrate(cfg, _state(1.0))


def _spy_attempts(monkeypatch):
    # Record (u, h, k1, a stage state or u5 left the cone) for every attempt
    # of the adaptive loop; only the matrix forms reject an attempt for that.
    attempts = []
    real = itg._dopri_raw

    def spy(f, u, h, k1=None):
        record = [u.copy(), h, None if k1 is None else k1.copy()]
        out = real(f, u, h, k1)
        attempts.append(record + [not lattice._all_in_open(u + h * out[3][:6], 0.0, np.inf)])
        return out

    monkeypatch.setattr(itg, "_dopri_raw", spy)
    return attempts


def test_adaptive_step_fixed_point():
    # err_est = 0 grows h by _GROW_MAX each step: 0.3, 1.5, 7.5, then the
    # remaining 0.7 to t1
    assert itg._controller_factor(0.0) == itg._GROW_MAX
    cfg = itg.IntegratorConfig(method="adaptive45", t1=10.0, h0=0.3)
    rec = itg.integrate(cfg, _state(5.0))
    assert (rec.accepted_steps, rec.rejected_steps) == (4, 0)
    npt.assert_array_equal(rec.times, [0.0, 0.3, 1.8, 9.3, 10.0])
    assert np.all(rec.states == 5.0)


def test_adaptive_step_rejects_at_tight_tolerance(monkeypatch):
    # a huge error estimate shrinks h by the clamp _SHRINK_MIN and keeps u
    assert itg._controller_factor(1e300) == itg._SHRINK_MIN
    attempts = _spy_attempts(monkeypatch)
    monkeypatch.setattr(itg, "_MAX_DP45_ATTEMPTS", 2)
    cfg = itg.IntegratorConfig(
        method="adaptive45", t1=1.0, h0=0.5, tol_abs=1e-16, tol_rel=1e-16
    )
    with pytest.raises(itg.StepBudgetError, match="at t = 0 after 2 attempts"):
        itg.integrate(cfg, _state(1.0, 2.0))
    (u0, h0, _, _), (u1, h1, _, _) = attempts
    assert (h0, h1) == (0.5, 0.5 * itg._SHRINK_MIN)
    npt.assert_array_equal(u1, u0)


def test_adaptive_step_stage_domain_counts_as_rejection(monkeypatch):
    # strong decay drives a stage negative until h is small enough; each
    # such attempt is a rejection at half the step
    monkeypatch.setattr(itg, "pushforward_rhs", lambda s, form: -100.0 * s.u)
    attempts = _spy_attempts(monkeypatch)
    cfg = itg.IntegratorConfig(
        method="adaptive45", form="lax", t1=0.2, h0=0.2, tol_abs=1e-8, tol_rel=1e-8
    )
    rec = itg.integrate(cfg, _state(1.0))
    assert [a[1] for a in attempts[:6]] == [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]
    assert [a[3] for a in attempts[:6]] == [True] * 5 + [False]
    assert rec.rejected_steps > 5
    assert rec.states[-1, 0] == pytest.approx(np.exp(-20.0), abs=1e-8)


def test_integrate_fixed_point_conserves_everything():
    cfg = itg.IntegratorConfig(method="rk4", t1=10.0, h0=0.1, record_every=10)
    rec = itg.integrate(cfg, _state(5.0))
    assert np.all(rec.states == 5.0)
    summary = itg.invariant_report(rec)
    assert summary.max_eigenvalue_drift == 0.0
    assert summary.f_violations == 0
    assert summary.f_initial == summary.f_final


def test_integrate_sampling_stride_and_endpoints():
    cfg = itg.IntegratorConfig(method="rk4", t1=1.0, h0=0.1, record_every=3)
    rec = itg.integrate(cfg, _state(1.0, 2.0))
    assert rec.accepted_steps == 10
    assert rec.n_samples == 5  # t0, then steps 3, 6, 9, then t1
    assert rec.times[0] == 0.0
    assert rec.times[-1] == 1.0
    assert np.all(np.diff(rec.times) > 0.0)
    assert rec.states.shape == (5, 2)
    assert rec.spectra.shape == (5, 3)
    assert rec.traces.shape == (5, len(itg.TRACE_POWERS)) == (5, 2)


def test_integrate_partial_final_step():
    cfg = itg.IntegratorConfig(method="rk4", t1=1.0, h0=0.4)
    rec = itg.integrate(cfg, _state(1.0))
    assert rec.accepted_steps == 3  # 0.4 + 0.4 + 0.2
    assert rec.times[-1] == 1.0


def test_integrate_matches_across_methods():
    s0 = _state(1.0, 1.0)
    ref = itg.integrate(
        itg.IntegratorConfig(method="rk4", t1=5.0, h0=1e-4, record_every=10**9), s0
    )
    ada = itg.integrate(
        itg.IntegratorConfig(
            method="adaptive45", t1=5.0, h0=1e-2, tol_abs=1e-10, tol_rel=1e-10,
            record_every=10**9,
        ),
        s0,
    )
    assert np.abs(ada.states[-1] - ref.states[-1]).max() <= 1e-8
    assert ada.accepted_steps < ref.accepted_steps / 50


def _logistic_pair(u0, t):
    # Closed-form N = 2 flow: u1 + u2 = c is conserved and du1/dt = u1 (c - u1),
    # so u1 = c / (1 + q) and u2 = c q / (1 + q) with q = (c / u1(0) - 1) e^{-ct}.
    c = u0[0] + u0[1]
    q = (c / u0[0] - 1.0) * np.exp(-c * t)
    return np.array([c / (1.0 + q), c * q / (1.0 + q)])


def test_adaptive_tolerance_controls_error():
    # tighter tolerances give smaller final-state error and more steps
    s0 = _state(1.0, 2.0)
    exact = _logistic_pair(s0.u, 2.0)
    errs = []
    steps = []
    for tol in (1e-6, 1e-8, 1e-10):
        rec = itg.integrate(
            itg.IntegratorConfig(
                method="adaptive45", t1=2.0, h0=1e-2, tol_abs=tol, tol_rel=tol,
                record_every=10**9,
            ),
            s0,
        )
        errs.append(np.abs(rec.states[-1] - exact).max())
        steps.append(rec.accepted_steps)
    assert errs[0] > errs[2]
    assert steps[0] < steps[1] < steps[2]
    assert errs[2] <= 1e-8


def test_integrate_relaxes_to_boundary_equilibrium():
    # two sites drain into the far end: u -> (2, 0) and f -> 1.5
    rec = itg.integrate(
        itg.IntegratorConfig(
            method="adaptive45", t1=40.0, h0=1e-2, tol_abs=1e-12, tol_rel=1e-12,
            record_every=10**9,
        ),
        _state(1.0, 1.0),
    )
    npt.assert_allclose(rec.states[-1], [2.0, 0.0], rtol=0, atol=1e-8)
    assert rec.f_values[-1] == pytest.approx(1.5, abs=1e-8)
    summary = itg.invariant_report(rec)
    assert summary.f_violations == 0


def test_fixed_step_positivity_abort_direct():
    # the half-step stage overshoots and the combined step leaves the cone
    cfg = itg.IntegratorConfig(method="rk4", t1=2.0, h0=0.5)
    with pytest.raises(itg.PositivityAbortError):
        itg.integrate(cfg, _state(10.0, 1.0))


def test_fixed_step_positivity_abort_matrix_form():
    # matrix forms validate stage states, so the abort comes from a stage
    cfg = itg.IntegratorConfig(method="rk4", form="lax", t1=2.0, h0=0.5)
    with pytest.raises(itg.PositivityAbortError):
        itg.integrate(cfg, _state(10.0, 1.0))


@pytest.mark.parametrize("form", ["direct", "lax", "bracket"])
def test_only_the_matrix_forms_check_stage_states(monkeypatch, form):
    # the matrix forms take sqrt(u), so a stage outside the cone aborts
    # them; the direct field is a polynomial and only its combined step is
    # checked, which here stays positive
    cfg = itg.IntegratorConfig(method="rk4", form=form, t1=0.6427, h0=0.6427)
    u0 = _state(3.777, 1.164, 0.3203, 0.9185)
    if form == "direct":
        stage_minima = []
        raw = itg._volterra_raw
        monkeypatch.setattr(itg, "_volterra_raw", lambda u: stage_minima.append(u.min()) or raw(u))
        rec = itg.integrate(cfg, u0)
        assert min(stage_minima) < 0.0
        assert rec.accepted_steps == 1 and np.all(rec.states[-1] > 0.0)
    else:
        with pytest.raises(itg.PositivityAbortError, match="stage left the state domain"):
            itg.integrate(cfg, u0)


def test_adaptive_guard_rejects_and_recovers():
    cfg = itg.IntegratorConfig(
        method="adaptive45", form="lax", t1=1.0, h0=0.5, tol_abs=1e-10, tol_rel=1e-10
    )
    rec = itg.integrate(cfg, _state(10.0, 1e-6))
    assert rec.rejected_steps >= 1
    assert rec.times[-1] == 1.0
    ref = itg.integrate(
        itg.IntegratorConfig(
            method="adaptive45", t1=1.0, h0=0.01, tol_abs=1e-10, tol_rel=1e-10
        ),
        _state(10.0, 1e-6),
    )
    npt.assert_allclose(rec.states[-1], ref.states[-1], rtol=0, atol=1e-8)


def test_adaptive_loop_reuses_the_last_stage(monkeypatch):
    # first same as last: one RHS call to start, then six per attempt,
    # accepted or rejected, also where a matrix form rejects attempts whose
    # stage states left the cone (the direct form has no such rejections)
    calls = []
    raw, push = itg._volterra_raw, itg.pushforward_rhs
    monkeypatch.setattr(itg, "_volterra_raw", lambda u: calls.append(1) or raw(u))
    monkeypatch.setattr(itg, "pushforward_rhs", lambda s, f: calls.append(1) or push(s, f))
    cfg = itg.IntegratorConfig(
        method="adaptive45", t1=3.0, h0=0.5, tol_abs=1e-8, tol_rel=1e-8, record_every=10**9
    )
    rec = itg.integrate(cfg, _state(0.3, 2.0, 5.0, 0.7))
    assert rec.rejected_steps > 0
    assert len(calls) == 6 * (rec.accepted_steps + rec.rejected_steps) + 1
    attempts = _spy_attempts(monkeypatch)
    for form in ("lax", "bracket"):
        calls.clear()
        attempts.clear()
        cfg = itg.IntegratorConfig(method="adaptive45", form=form, t1=20.0, h0=10.0)
        rec = itg.integrate(cfg, _state(1.0, 2.0, 1.0, 2.0, 1.0, 2.0))
        assert sum(a[3] for a in attempts) > 0
        assert len(calls) == 6 * (rec.accepted_steps + rec.rejected_steps) + 1


@pytest.mark.parametrize("form", ["lax", "bracket"])
@pytest.mark.parametrize("method", ["adaptive45", "rk4"])
def test_integrate_matches_fresh_first_stage_bit_for_bit(monkeypatch, form, method):
    # The loop's stages match a field that validates and copies every stage
    # afresh.  For rk4 that is a test-local loop; for adaptive45 every k1 the
    # loop passes to an attempt equals a fresh f(u) (first same as last), and
    # a large first step draws both error-estimate and stage-domain
    # rejections, after which the loop must keep its old k1.
    def fresh(u):
        return lattice.pushforward_rhs(LatticeState(u), form)

    h0 = 0.5 if method == "adaptive45" else 1e-3
    cfg = itg.IntegratorConfig(
        method=method, form=form, t1=1.0, h0=h0, tol_abs=1e-8, tol_rel=1e-8
    )
    s0 = _state(0.3, 2.0, 5.0, 0.7)
    if method == "rk4":
        rec = itg.integrate(cfg, s0)
        t, u, ref = 0.0, s0.u, [s0.u]
        while 1.0 - t > 1e-12:
            h = min(cfg.h0, 1.0 - t)
            u, _ = itg._rk4_raw(fresh, u, h)
            t = 1.0 if 1.0 - (t + h) <= 1e-12 else t + h
            ref.append(u)
        assert rec.states.tobytes() == np.array(ref).tobytes()
        return
    attempts = _spy_attempts(monkeypatch)
    rec = itg.integrate(cfg, s0)
    assert len(attempts) == rec.accepted_steps + rec.rejected_steps
    domain = sum(a[3] for a in attempts)
    assert domain > 0 and rec.rejected_steps > domain
    for u, _, k1, _ in attempts:
        assert k1.tobytes() == fresh(u).tobytes()


def test_nonfinite_attempt_is_rejected_with_the_shrink_factor(monkeypatch):
    # a non-finite stage poisons u5 and the error estimate; the loop rejects
    # the attempt, shrinks h by _SHRINK_MIN and otherwise carries on as a
    # clean run started from that step.  RHS call 2 is k2 of the first
    # attempt, which b and e weight by zero (0 * inf is nan), call 3 is k3.
    raw = itg._volterra_raw
    base = dict(method="adaptive45", t1=3.0, tol_abs=1e-8, tol_rel=1e-8)
    s0 = _state(0.3, 2.0, 5.0, 0.7)
    clean = itg.integrate(itg.IntegratorConfig(h0=itg._SHRINK_MIN * 0.1, **base), s0)
    for bad_call in (2, 3):
        calls = []

        def poisoned(u):
            calls.append(1)
            return np.full_like(u, np.inf) if len(calls) == bad_call else raw(u)

        monkeypatch.setattr(itg, "_volterra_raw", poisoned)
        rec = itg.integrate(itg.IntegratorConfig(h0=0.1, **base), s0)
        assert rec.rejected_steps == clean.rejected_steps + 1
        assert rec.accepted_steps == clean.accepted_steps
        assert np.array_equal(rec.times, clean.times)
        assert np.array_equal(rec.states, clean.states)
        assert len(calls) == 6 * (rec.accepted_steps + rec.rejected_steps) + 1


# One attempt from (0.3, 2.0, 5.0, 0.7) with h = 0.1, recorded as float.hex
# with the written-out stage sums the stacked kernel replaced.  Both fields
# use only elementwise IEEE operations and sqrt, so the bits do not depend on
# the BLAS build.
_PINNED_ATTEMPT = {
    "direct": (
        ("0x1.8af82c0eb7176p-2", "0x1.87b780834ef91p+1",
         "0x1.0726ac8179202p+2", "0x1.c4e107bf3f1e4p-2"),
        ("0x1.9bcc6fc3ccccdp-26", "0x1.f26e57fd56667p-17",
         "-0x1.468b852678667p-16", "0x1.33b5982f72000p-18"),
        ("0x1.2e2e147c5283bp+0", "0x1.6ce2efa9d6760p+3",
         "-0x1.5877bf084522fp+3", "-0x1.d1879988dd1c1p+0"),
    ),
    "lax": (
        ("0x1.8af82c0eb7177p-2", "0x1.87b780834ef93p+1",
         "0x1.0726ac8179201p+2", "0x1.c4e107bf3f1e3p-2"),
        ("0x1.9bcc6fc51999ap-26", "0x1.f26e57fd6199ap-17",
         "-0x1.468b85267cccdp-16", "0x1.33b5982f70000p-18"),
        ("0x1.2e2e147c5283dp+0", "0x1.6ce2efa9d6760p+3",
         "-0x1.5877bf0845230p+3", "-0x1.d1879988dd1bdp+0"),
    ),
    # recorded while the bracket field was still formed by dense products
    "bracket": (
        ("0x1.8af82c0eb7176p-2", "0x1.87b780834ef92p+1",
         "0x1.0726ac8179202p+2", "0x1.c4e107bf3f1e5p-2"),
        ("0x1.9bcc6fc5ccccdp-26", "0x1.f26e57fd5b334p-17",
         "-0x1.468b85267c667p-16", "0x1.33b5982f72000p-18"),
        ("0x1.2e2e147c5283bp+0", "0x1.6ce2efa9d6761p+3",
         "-0x1.5877bf0845230p+3", "-0x1.d1879988dd1c2p+0"),
    ),
}


@pytest.mark.parametrize("form", sorted(_PINNED_ATTEMPT))
def test_dormand_prince_attempt_bits_are_pinned(form):
    field = itg._raw_field(form)
    got = itg._dopri_raw(field, np.array([0.3, 2.0, 5.0, 0.7]), 0.1)
    for name, vec, want in zip(("u5", "err", "k7"), got, _PINNED_ATTEMPT[form]):
        assert tuple(float(x).hex() for x in vec) == want, name


def _python_attempt(field, u, h):
    # One Dormand-Prince attempt in Python floats, site by site: each stage
    # state is u + h * ((w1 k1 + w2 k2) + ...), summed in stage order from
    # the rows of _DP_ROWS; only the stages come from numpy, from the field.
    # Also whether a stage state 2-6 or u5 has an entry outside (0, inf).
    u = u.tolist()
    ks = [field(np.array(u)).tolist()]
    sums = []
    left = False
    for row in itg._DP_ROWS:
        total = [row[0] * k for k in ks[0]]
        for w, k in zip(row[1:], ks[1:]):
            total = [acc + w * x for acc, x in zip(total, k)]
        sums.append(total)
        if len(ks) < 7:
            y = [a + h * b for a, b in zip(u, total)]
            left = left or not all(0.0 < x < math.inf for x in y)
            ks.append(field(np.array(y)).tolist())
    u5 = [a + h * b for a, b in zip(u, sums[5])]
    return u5, [h * b for b in sums[6]], ks[6], left


def _kernel_attempt(field, u, h):
    # The kernel and the adaptive loop's stage-domain check on its acc.
    u5, err, k7, acc = itg._dopri_raw(field, u, h)
    return u5, err, k7, not lattice._all_in_open(u + h * acc[:6], 0.0, np.inf)


def _attempt_outcome(attempt, form, u, h):
    # A matrix form's attempt that left the cone is rejected whatever its
    # bits; otherwise u5, err and k7 as bit patterns.
    *vectors, left = attempt(itg._raw_field(form), u, h)
    if left and form != "direct":
        return "left the cone"
    return [np.array(v, dtype=float).view(np.int64).tolist() for v in vectors]


@pytest.mark.parametrize("n", [1, 2, 8, 128])
def test_dormand_prince_attempt_matches_a_python_oracle(n):
    # u5, err and k7 of the kernel equal, bit for bit, an attempt that sums
    # in Python floats, so the kernel's bits rest on no reduction order of
    # numpy.  Sites span 16 decades and h spans 5 below 0.1 / max(u), where
    # most attempts stay in the positive cone.  The last attempt takes h = 10
    # from sites 1, 2, 1, 2, ..., where the second stage state leaves it.
    gen = np.random.default_rng(n)
    sites = [gen.uniform(0.5, 2.0, n) * 10.0 ** gen.uniform(-8, 8, n) for _ in range(15)]
    cases = [(u, 10.0 ** gen.uniform(-6, -1) / u.max()) for u in sites]
    cases.append((1.0 + np.arange(n) % 2, 10.0))
    with np.errstate(over="ignore", invalid="ignore"):
        for form in FORMS:
            for u, h in cases:
                want = _attempt_outcome(_python_attempt, form, u, h)
                assert _attempt_outcome(_kernel_attempt, form, u, h) == want, (form, h)
            left_the_cone = isinstance(want, str)
            assert left_the_cone == (form != "direct" and n > 1), form


@pytest.mark.parametrize("form", ["lax", "bracket"])
def test_matrix_form_stage_is_checked_once_and_wrapped_without_a_copy(monkeypatch, form):
    # the field wraps a stage without a copy and checks nothing
    seen = []
    monkeypatch.setattr(itg, "pushforward_rhs", lambda s, f: seen.append(s) or s.u)
    field = itg._raw_field(form)
    u = np.array([0.5, 2.0])
    field(u)
    (s,) = seen
    assert s.u.base is u and not s.u.flags.writeable and u.flags.writeable
    # the rk4 loop checks each step's stage states once, after its four
    # field calls, and its messages are those of LatticeState: from u = 1,
    # a first slope of 2 (bad - 1) puts y2 at bad exactly
    cfg = itg.IntegratorConfig(method="rk4", form=form, t1=1.0, h0=1.0)
    for bad in ([1.0, np.nan], [-1.0, np.inf], [1.0, 0.0], [1.0, -2.0]):
        seen.clear()
        monkeypatch.setattr(itg, "pushforward_rhs", lambda s, f: seen.append(s) or 2.0 * (bad - s.u))
        with pytest.raises(ValueError) as want:
            LatticeState(np.array(bad))
        with pytest.raises(itg.PositivityAbortError) as got:
            itg.integrate(cfg, _state(1.0, 1.0))
        assert str(got.value) == f"stage left the state domain at t = 0 with h = 1: {want.value}"
        assert len(seen) == 4


@pytest.mark.parametrize("form", ["lax", "bracket"])
def test_matrix_form_fields_compute_outside_the_domain_quietly(form):
    # The loops check stage states only after an attempt's field calls, so a
    # field runs on states outside the cone.  Under integrate's errstate guard
    # it must turn NaN, inf, 0 and negative sites into NaN or finite values
    # without an exception or a warning.  The O(N) bracket checks no
    # tangency, since K's evenly stepped diagonal makes it hold for every L.
    field = itg._raw_field(form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            for bad in ([1.0, np.nan], [-1.0, np.inf], [1.0, 0.0], [1.0, -2.0], [1e200] * 3):
                assert field(np.array(bad)).shape == (len(bad),)


def test_a_bracket_run_builds_no_dense_weight_matrix():
    # the O(N) bracket reads K's diagonal from lattice._weights
    lattice._weight_matrix.cache_clear()
    cfg = itg.IntegratorConfig(method="adaptive45", form="bracket", t1=1e-3, h0=1e-4)
    rec = itg.integrate(cfg, LatticeState(random_state(300, SplitMix64(substream_seed(50, 0)))))
    assert rec.accepted_steps > 0
    assert lattice._weight_matrix.cache_info().currsize == 0


def test_adaptive_attempt_budget(monkeypatch):
    # a run that needs exactly the budget finishes with the same bits; one
    # attempt fewer stops with StepBudgetError
    cfg = itg.IntegratorConfig(method="adaptive45", form="bracket", t1=2.0, h0=0.5)
    s0 = _state(10.0, 1e-6, 3.0)
    ref = itg.integrate(cfg, s0)
    attempts = ref.accepted_steps + ref.rejected_steps
    assert ref.rejected_steps > 0
    monkeypatch.setattr(itg, "_MAX_DP45_ATTEMPTS", attempts)
    again = itg.integrate(cfg, s0)
    assert np.array_equal(again.states, ref.states)
    monkeypatch.setattr(itg, "_MAX_DP45_ATTEMPTS", attempts - 1)
    with pytest.raises(itg.StepBudgetError, match=f"after {attempts - 1} attempts"):
        itg.integrate(cfg, s0)


def test_step_underflow_from_hopeless_tolerance(monkeypatch):
    bad = lambda u: np.full_like(u, np.nan)
    monkeypatch.setattr(itg, "_volterra_raw", bad)
    cfg = itg.IntegratorConfig(method="adaptive45", t1=1.0, h0=1e-3)
    with pytest.raises(itg.StepUnderflowError):
        itg.integrate(cfg, _state(1.0, 1.0))


def test_adaptive_h0_below_the_step_floor_is_refused():
    # the adaptive loop refuses any step below _UNDERFLOW_FRACTION * (t1 - t0),
    # so a smaller h0 is a setup error, as an rk4 run past its step limit is
    with pytest.raises(ValueError, match=r"h0 = 1e-15 is below the step floor 1e-14 \* \(t1 - t0\)"):
        itg.IntegratorConfig(method="adaptive45", h0=1e-15)
    with pytest.raises(ValueError, match=r"h0 = 1e-06 is below the step floor .* = 4e-06"):
        itg.IntegratorConfig(method="adaptive45", t0=-1e8, t1=3e8, h0=1e-6)
    itg.IntegratorConfig(method="adaptive45", t0=-1e8, t1=3e8, h0=4e-6)
    # rk4 has no such floor: its steps are fixed and counted up front
    itg.IntegratorConfig(method="rk4", h0=1e-15, t1=1e-8)


def test_h0_that_cannot_advance_t_is_refused():
    # such runs used to stop in the loop with StepUnderflowError
    for cfg, at in (
        (dict(method="adaptive45", t0=1e6, t1=1e6 + 1e-3, h0=1e-12), "1e\\+06"),
        (dict(method="rk4", t0=1e6, t1=1e6 + 1e-5, h0=1e-12), "1e\\+06"),
        (dict(method="adaptive45", t0=-1e6, t1=-1e6 + 1e-3, h0=1e-12), "-1e\\+06"),
        # rk4 is decided at the end of larger magnitude: 8e-17 advances
        # 1 - 2^-30, where floats are 2^-53 apart, but not 1 + 2^-30
        (dict(method="rk4", t0=1 - 2.0**-30, t1=1 + 2.0**-30, h0=8e-17), "1"),
    ):
        with pytest.raises(ValueError, match=f"{cfg['method']} h0 = .* does not advance t = {at}$"):
            itg.IntegratorConfig(**cfg)
    itg.IntegratorConfig(method="adaptive45", t0=1 - 2.0**-30, t1=1 + 2.0**-30, h0=8e-17)
    itg.IntegratorConfig(method="rk4", t0=1e6, t1=1e6 + 1e-5, h0=1e-9)
    # a single step shorter than h0 advances t0 whenever t1 > t0
    itg.IntegratorConfig(method="rk4", t0=1e6, t1=np.nextafter(1e6, 2e6), h0=1.0)


def test_adaptive_step_that_does_not_advance_t_raises(monkeypatch):
    # h0 = 1e-9 advances t = 1e6, so the config passes.  The stages of the
    # first two attempts are NaN, which shrinks h twice by 0.2 to 4e-11: below
    # half an ulp of t (5.8e-11), far above the step floor 1e-17.  Accepting
    # that step would record a new state at an unchanged time.
    real = itg._volterra_raw
    calls = []

    def field(u):
        calls.append(None)
        return np.full_like(u, np.nan) if 2 <= len(calls) <= 13 else real(u)

    monkeypatch.setattr(itg, "_volterra_raw", field)
    cfg = itg.IntegratorConfig(method="adaptive45", t0=1e6, t1=1e6 + 1e-3, h0=1e-9)
    with pytest.raises(itg.StepUnderflowError, match=r"step size 4e-11 does not advance"):
        itg.integrate(cfg, _state(1.0, 2.0))
    assert len(calls) == 1 + 3 * 6  # the start's k1, then three attempts


def test_invariant_report_conservation_on_flow():
    cfg = itg.IntegratorConfig(method="rk4", t1=5.0, h0=1e-3, record_every=100)
    rec = itg.integrate(cfg, _state(1.0, 1.0))
    summary = itg.invariant_report(rec)
    assert summary.max_eigenvalue_drift <= 1e-10
    assert all(summary.trace_drift[k] <= 1e-10 for k in itg.TRACE_POWERS)
    assert summary.f_violations == 0
    assert summary.f_final < summary.f_initial


def test_time_reversed_flow_is_the_flow_on_reflected_sites():
    # Reflecting the sites negates the direct field (a zero may change its
    # sign), so the run from the reflected state, read in reverse site
    # order, is the time-reversed run bit for bit.
    stream = SplitMix64(substream_seed(47, 0))
    for n in (1, 2, 3, 8, 33):
        u = random_state(n, stream)
        assert np.array_equal(itg._volterra_raw(u[::-1])[::-1], -itg._volterra_raw(u))
    u0 = np.array([1.0, 2.0, 0.5, 3.0])
    cfg = itg.IntegratorConfig(method="rk4", t1=1.0, h0=2.0**-10, record_every=128)
    rec = itg.integrate(cfg, LatticeState(u0[::-1]))
    backwards = [u0]
    for _ in range(1024):
        backwards.append(itg._rk4_raw(lambda u: -itg._volterra_raw(u), backwards[-1], cfg.h0)[0])
    npt.assert_array_equal(rec.states[:, ::-1], backwards[::128])
    # f ascends along the reversed run, and the report counts every rise
    f_back = rec.states[:, ::-1] @ (np.arange(3, 10, 2) / 4.0)
    summary = itg.invariant_report(dataclasses.replace(rec, f_values=f_back))
    assert summary.f_final > summary.f_initial
    assert summary.f_violations == rec.n_samples - 1


def _assert_scaling_symmetry(u0, a, **config):
    # If u(t) solves the lattice, so does a u(a t): the fields are homogeneous
    # of degree 2.  For a a power of 4 every scaling below is exact, so the run
    # from a u0 over t1 / a with h0 / a and a tol_abs (tol_rel unchanged) has
    # a times the states, 1 / a times the times and a times f, bit for bit,
    # and the same step counts; sqrt(a) is a power of 2, so the couplings and
    # traces scale exactly too.  The spectra come from LAPACK, so they are held
    # to 4 ulp of sqrt(a) times the sample's largest |lambda|.  Both sides
    # must stay clear of overflow and of subnormals.
    cfg = itg.IntegratorConfig(**config)
    scaled = dataclasses.replace(
        cfg, t0=cfg.t0 / a, t1=cfg.t1 / a, h0=cfg.h0 / a, tol_abs=a * cfg.tol_abs
    )
    try:
        rec = itg.integrate(cfg, LatticeState(u0))
    except itg.IntegrationError as exc:
        with pytest.raises(type(exc)):
            itg.integrate(scaled, LatticeState(a * u0))
        return None
    out = itg.integrate(scaled, LatticeState(a * u0))
    assert out.states.tobytes() == (a * rec.states).tobytes()
    assert out.times.tobytes() == (rec.times / a).tobytes()
    assert out.f_values.tobytes() == (a * rec.f_values).tobytes()
    assert out.traces.tobytes() == (rec.traces * np.array([a, a * a])).tobytes()
    assert (out.accepted_steps, out.rejected_steps) == (rec.accepted_steps, rec.rejected_steps)
    root = math.sqrt(a)
    ulp = np.spacing(root * np.abs(rec.spectra).max(axis=1, keepdims=True))
    assert (np.abs(out.spectra - root * rec.spectra) <= 4 * ulp).all()
    return rec


@pytest.mark.parametrize("a", [4.0, 0.25, 16.0])
@pytest.mark.parametrize("method", ["rk4", "adaptive45"])
@pytest.mark.parametrize("form", ["direct", "lax", "bracket"])
def test_scaled_run_is_the_scaled_flow(form, method, a):
    # sites in [0.1, 10) and t1 = 1 keep every state far from underflow:
    # |d log u_n / dt| <= 2 sum(u0), as sum(u) = tr L^2 / 2 is conserved.
    # The 3e-12 window puts steps and spans near the loop's absolute scales,
    # where a constant in place of one relative to t1 - t0 would show.
    windows = [(1.0, 0.02 if method == "rk4" else 0.25), (3e-12, 1e-13)]
    rejected = 0
    for n in (1, 2, 5, 8):
        u0 = random_state(n, SplitMix64(substream_seed(49, n)))
        for t1, h0 in windows:
            rec = _assert_scaling_symmetry(
                u0, a, method=method, form=form, t1=t1, h0=h0,
                tol_abs=1e-9, tol_rel=1e-9, record_every=3,
            )
            rejected += rec.rejected_steps
    # the adaptive runs start too large, so the rejection branch is covered
    assert (rejected > 0) == (method == "adaptive45")


if given is None:

    def test_scaling_symmetry_property():
        pytest.skip("hypothesis is not installed")

else:

    # 100 examples of at most 8 sites take about 1 s.  Sites in [0.1, 10] and
    # t1 <= 1 keep every state above 1e-71 (|d log u_n / dt| <= 2 sum(u0)) and
    # every product far from overflow, at a down to 1/16 and up to 16; rk4
    # steps stay at or below 0.02, where its stages do not blow up.  Windows
    # reach down to 1e-13, near the loop's absolute scales.
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        u0=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=8),
        form=st.sampled_from(["direct", "lax", "bracket"]),
        method=st.sampled_from(["rk4", "adaptive45"]),
        power=st.sampled_from([-2, -1, 1, 2]),
        decades=st.floats(-13.0, 0.0),
        step=st.floats(0.25, 1.0),
        tols=st.tuples(st.floats(1e-9, 1e-4), st.floats(1e-9, 1e-4)),
        record_every=st.integers(1, 4),
    )
    def test_scaling_symmetry_property(u0, form, method, power, decades, step, tols, record_every):
        t1 = 10.0**decades
        h0 = min(t1, 0.02 if method == "rk4" else 0.5) * step
        _assert_scaling_symmetry(
            np.array(u0), 4.0**power, method=method, form=form, t1=t1, h0=h0,
            tol_abs=tols[0], tol_rel=tols[1], record_every=record_every,
        )


def test_invariant_report_of_an_overflowing_trace_does_not_warn():
    # one site never moves, so a finite u of 1e300 runs to t1 while
    # tr L^4 = 2 u^2 is inf at every sample
    cfg = itg.IntegratorConfig(method="rk4", t1=0.01, h0=1e-3)
    rec = itg.integrate(cfg, _state(1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = itg.invariant_report(rec)
    assert summary.trace_drift[2] == 0.0
    assert np.isnan(summary.trace_drift[4])
    assert summary.max_eigenvalue_drift == 0.0


def test_the_orientation_is_a_constant():
    # every form runs lattice.CALIBRATED_SIGN's flow; no setting selects the reverse
    with pytest.raises(TypeError):
        itg.IntegratorConfig(form="lax", sigma=CALIBRATED_SIGN)
    assert list(inspect.signature(lattice.pushforward_rhs).parameters) == ["s", "form"]
    assert "descent_expected" not in {f.name for f in dataclasses.fields(itg.InvariantSummary)}
    assert "config" not in {f.name for f in dataclasses.fields(itg.TrajectoryRecord)}
    assert not hasattr(itg, "CALIBRATED_SIGN") and not hasattr(itg, "_check_sign")


def test_invariant_report_counts_violations():
    synthetic = itg.TrajectoryRecord(
        times=np.array([0.0, 0.5, 1.0]),
        states=np.ones((3, 2)),
        f_values=np.array([1.0, 1.1, 1.05]),
        spectra=np.zeros((3, 3)),
        traces=np.zeros((3, 2)),
        accepted_steps=2,
        rejected_steps=0,
    )
    summary = itg.invariant_report(synthetic)
    assert summary.f_violations == 1


def _dense_L(u):
    return lattice.lax_from_state(LatticeState(u)).densify()


@pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 128])
def test_samples_match_dense_oracles(n):
    # spectra against eigvalsh of the dense L, f and tr L^k against their
    # dense definitions; n + 1 odd and even both occur
    stream = SplitMix64(substream_seed(41, n))
    s0 = LatticeState(random_state(n, stream))
    cfg = itg.IntegratorConfig(method="rk4", t1=0.02, h0=1e-3, record_every=4)
    rec = itg.integrate(cfg, s0)
    assert rec.n_samples == 6
    for u, lam, f, tr in zip(rec.states, rec.spectra, rec.f_values, rec.traces):
        dense = _dense_L(u)
        ref = np.linalg.eigvalsh(dense)
        assert np.abs(lam - ref).max() <= 1e-13 * np.abs(ref).max()
        if n % 2 == 0:
            assert lam[n // 2] == 0.0
        assert f == pytest.approx(lattice.trace_objective(dense), rel=1e-14, abs=0.0)
        for k, value in zip(itg.TRACE_POWERS, tr):
            assert value == pytest.approx(trace_power(dense, k), rel=1e-14, abs=0.0)


def test_spectra_across_block_seams(monkeypatch):
    # 9 sites give a 5 x 5 bidiagonal block of 200 bytes, so a 600-byte
    # budget splits the 11 samples into blocks of 3, 3, 3 and 2
    s0 = LatticeState(random_state(9, SplitMix64(substream_seed(41, 2))))
    cfg = itg.IntegratorConfig(method="rk4", t1=0.01, h0=1e-3)
    whole = itg.integrate(cfg, s0)
    monkeypatch.setattr(lattice, "_SPECTRUM_BLOCK_BYTES", 600)
    blocked = itg.integrate(cfg, s0)
    assert blocked.n_samples == 11
    npt.assert_array_equal(blocked.spectra, whole.spectra)
    for u, lam in zip(blocked.states, blocked.spectra):
        ref = np.linalg.eigvalsh(_dense_L(u))
        assert np.abs(lam - ref).max() <= 1e-13 * np.abs(ref).max()


def test_spectrum_samples_are_sign_symmetric():
    stream = SplitMix64(substream_seed(41, 1))
    s0 = LatticeState(random_state(5, stream))
    cfg = itg.IntegratorConfig(method="rk4", t1=1.0, h0=1e-3, record_every=250)
    rec = itg.integrate(cfg, s0)
    for lam in rec.spectra:
        # exact: the spectra are assembled as -sigma, (0), sigma
        npt.assert_array_equal(lam, -lam[::-1])


def test_format_invariant_summary_mentions_the_numbers():
    cfg = itg.IntegratorConfig(method="rk4", t1=0.5, h0=1e-2, record_every=10)
    rec = itg.integrate(cfg, _state(1.0, 1.0))
    text = itg.format_invariant_summary(itg.invariant_report(rec), rec)
    assert "eigenvalue drift" in text
    assert "tr L^4" in text
    assert "tr L^3" not in text
    assert "violations = 0" in text
