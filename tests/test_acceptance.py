"""Acceptance battery: one test per criterion, one printed line per test.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each test
also asserts, so the suite fails loudly if a criterion slips.
"""

import time

import numpy as np
import pytest

from volterra_lab import geometry, lattice, verify
from volterra_lab.integrate import IntegratorConfig, integrate, invariant_report
from volterra_lab.lattice import LatticeState
from volterra_lab.rng import SplitMix64, random_state, skew_matrix, substream_seed

SEED = 2025


def _report(idx: int, label: str, ok: bool, detail: str):
    print(f"[acceptance {idx:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {idx:02d} {label}: {detail}"


@pytest.fixture(scope="module")
def three_form_runs():
    """u0 = (1, 2, 3) over [0, 3] at h = 1e-3, one run per form."""
    s0 = LatticeState(np.array([1.0, 2.0, 3.0]))
    runs = {}
    start = time.perf_counter()
    for form in lattice.FORMS:
        cfg = IntegratorConfig(method="rk4", form=form, t1=3.0, h0=1e-3, record_every=10)
        runs[form] = integrate(cfg, s0)
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def unit_pair_run():
    """u0 = (1, 1) over [0, 5] at h = 1e-3, sampled every 50 steps."""
    cfg = IntegratorConfig(method="rk4", t1=5.0, h0=1e-3, record_every=50)
    return integrate(cfg, LatticeState(np.array([1.0, 1.0])))


def test_01_lax_generator_equals_bracket():
    start = time.perf_counter()
    check = verify.check_lax_generator(range(1, 31), trials=34, seed=SEED)
    elapsed = time.perf_counter() - start
    ok = check.passed and check.trials >= 1000 and elapsed < 5.0
    _report(
        1,
        "skew generator equals weighted bracket",
        ok,
        f"residual {check.residual:.3e} <= 1e-12 over {check.trials} states, {elapsed:.2f} s",
    )


def test_02_projection_fixes_the_generator():
    check = verify.check_projection_fixed_point(range(1, 21), trials=10, seed=SEED)
    ok = check.passed and check.trials >= 200
    _report(
        2,
        "centralizer projection fixes the gradient generator",
        ok,
        f"residual {check.residual:.3e} <= 1e-11 over {check.trials} states",
    )


def test_03_derivative_chain_equality():
    check = verify.check_chain_equality(range(1, 21), trials=25, seed=SEED)
    ok = check.passed and check.trials >= 500
    _report(
        3,
        "three trace forms of the derivative agree",
        ok,
        f"residual {check.residual:.3e} <= 1e-12 over {check.trials} pairs",
    )


def test_04_gradient_defining_equation():
    check = verify.check_gradient_defining(range(1, 16), trials=4, seed=SEED)
    ok = check.passed and check.trials >= 50
    _report(
        4,
        "differential equals metric pairing with the gradient",
        ok,
        f"residual {check.residual:.3e} <= 1e-11 over {check.trials} states x 100 directions",
    )


def test_05_three_forms_integrate_identically(three_form_runs):
    runs, elapsed = three_form_runs
    direct = runs["direct"]
    gap = 0.0
    for form in ("lax", "bracket"):
        assert np.array_equal(runs[form].times, direct.times)
        gap = max(gap, float(np.abs(runs[form].states - direct.states).max()))
    ok = gap <= 1e-6 and elapsed < 10.0
    _report(
        5,
        "three forms produce one trajectory at the calibrated sign",
        ok,
        f"max pointwise gap {gap:.3e} <= 1e-6, {elapsed:.2f} s",
    )


def test_06_isospectral_conservation(three_form_runs, unit_pair_run):
    runs, _ = three_form_runs
    eig_worst = 0.0
    trace_worst = 0.0
    for record in (*runs.values(), unit_pair_run):
        summary = invariant_report(record)
        eig_worst = max(eig_worst, summary.max_eigenvalue_drift)
        trace_worst = max(trace_worst, max(summary.trace_drift.values()))
    ok = eig_worst <= 1e-8 and trace_worst <= 1e-9
    _report(
        6,
        "spectrum and trace powers are conserved",
        ok,
        f"eig drift {eig_worst:.3e} <= 1e-8, trace drift {trace_worst:.3e} <= 1e-9",
    )


def test_07_energy_identity_along_the_flow(unit_pair_run):
    record = unit_pair_run
    at_start = geometry.gradient_flow_identity_check(LatticeState(np.array([1.0, 1.0])))
    exact = (
        abs(at_start.df_dt + 0.5) <= 1e-12
        and abs(at_start.grad_norm_sq - 0.5) <= 1e-12
        and abs(record.f_values[0] - 2.0) <= 1e-12
    )
    rel_worst = 0.0
    for row in record.states:
        rep = geometry.gradient_flow_identity_check(LatticeState(row))
        rel_worst = max(
            rel_worst,
            abs(abs(rep.df_dt) - rep.grad_norm_sq) / (1.0 + rep.grad_norm_sq),
        )
    violations = invariant_report(record).f_violations
    ok = exact and rel_worst <= 1e-8 and violations == 0
    _report(
        7,
        "df/dt equals minus the squared gradient norm",
        ok,
        f"start values exact to 1e-12, relative defect {rel_worst:.3e} <= 1e-8 "
        f"at {record.n_samples} samples, f violations {violations}",
    )


def test_08_finite_difference_convergence_order():
    eps_list = (1e-3, 1e-4, 1e-5)
    states = [LatticeState(np.array([1.0, 1.0]))]
    for trial in range(4):
        stream = SplitMix64(substream_seed(SEED, 91, 6, trial))
        states.append(LatticeState(random_state(6, stream)))
    slopes = []
    for i, s in enumerate(states):
        ctx = geometry.orbit_context(lattice.lax_from_state(s))
        stream = SplitMix64(substream_seed(SEED, 92, i))
        # norm 10 keeps the quadratic error term above the roundoff floor of
        # f at eps = 1e-5 even for large states
        t = skew_matrix(ctx.base.dim, stream)
        t = 10.0 * t / np.linalg.norm(t)
        dd = geometry.directional_derivative(ctx.base, t)
        errs = [
            max(abs(geometry.finite_difference_directional(ctx.base, t, eps) - dd), 1e-300)
            for eps in eps_list
        ]
        slopes.append(float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]))
    ok = all(abs(slope - 2.0) <= 0.2 for slope in slopes)
    _report(
        8,
        "finite differences converge at second order",
        ok,
        f"slopes {', '.join(f'{s:.3f}' for s in slopes)} in 2.0 +/- 0.2",
    )


def test_09_long_run_reaches_a_sorted_equilibrium():
    stream = SplitMix64(substream_seed(1, 7, 8, 0))
    s0 = LatticeState(random_state(8, stream))
    cfg = IntegratorConfig(
        method="adaptive45", t1=200.0, h0=1e-2, tol_abs=1e-10, tol_rel=1e-10,
        record_every=10,
    )
    start = time.perf_counter()
    record = integrate(cfg, s0)
    elapsed = time.perf_counter() - start
    summary = invariant_report(record)
    final = record.states[-1]
    adjacent_worst = float((final[:-1] * final[1:]).max())
    ok = (
        elapsed < 30.0
        and summary.f_violations == 0
        and adjacent_worst < 1e-6
        and summary.max_eigenvalue_drift <= 1e-8
        and max(summary.trace_drift.values()) <= 1e-9
    )
    _report(
        9,
        "t = 200 relaxation: monotone f, interlaced-zero equilibrium",
        ok,
        f"violations {summary.f_violations}, max adjacent product {adjacent_worst:.3e} < 1e-6, "
        f"eig drift {summary.max_eigenvalue_drift:.3e}, {elapsed:.2f} s",
    )


def test_10_rk4_converges_at_fourth_order():
    s0 = LatticeState(np.array([1.0, 1.0]))
    quiet = 10**9
    ref = integrate(
        IntegratorConfig(method="rk4", t1=1.0, h0=1e-4, record_every=quiet), s0
    ).states[-1]
    ratios = []
    for h in (1e-2, 5e-3, 2.5e-3):
        final = integrate(
            IntegratorConfig(method="rk4", t1=1.0, h0=h, record_every=quiet), s0
        ).states[-1]
        err = float(np.abs(final - ref).max())
        ratios.append(err / h**4)
    spread = max(ratios) / min(ratios)
    ok = spread <= 2.0
    _report(
        10,
        "rk4 error scales as h^4",
        ok,
        f"error/h^4 ratios {', '.join(f'{r:.3g}' for r in ratios)}, spread {spread:.2f} <= 2",
    )
