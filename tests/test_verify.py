import numpy as np
import pytest

from volterra_lab import geometry, lattice, verify
from volterra_lab.lattice import commutator
from volterra_lab.rng import uniform_matrix


def test_small_battery_passes():
    report = verify.run_verification((1, 2, 3), trials=3, seed=1)
    assert report.passed
    assert len(report.checks) == 7
    names = [c.name for c in report.checks]
    assert len(set(names)) == 7
    for check in report.checks:
        assert check.residual <= check.threshold
        assert check.trials >= 1


def test_battery_is_deterministic():
    a = verify.run_verification((1, 3), trials=2, seed=9)
    b = verify.run_verification((1, 3), trials=2, seed=9)
    assert [c.residual for c in a.checks] == [c.residual for c in b.checks]
    assert a.redraws == b.redraws


def test_input_validation():
    with pytest.raises(ValueError):
        verify.run_verification((), trials=3, seed=1)
    with pytest.raises(ValueError):
        verify.run_verification((0, 2), trials=3, seed=1)
    with pytest.raises(ValueError):
        verify.run_verification((2,), trials=0, seed=1)


def test_single_check_shapes():
    check = verify.check_lax_generator((1, 2, 4), trials=5, seed=2)
    assert check.passed
    assert check.trials == 15
    assert check.name == "lax-generator-equals-bracket"


def test_default_battery_passes_on_seed_2():
    # the absolute drift of tr L^k was 1.4e-9 here against 1e-9; relative to
    # 1 + |tr L^k(t0)| it is 2.6e-12
    report = verify.run_verification((1, 2, 3, 5, 8), 25, 2)
    assert report.passed
    drift = report.checks[-1]
    assert drift.name == "isospectral-drift"
    assert "relative trace drift" in drift.detail
    assert "(k = 2, 4)" in drift.detail


def _field_equivalence_fails_alone():
    # the battery's one orientation check is field-equivalence, at the
    # single site count of the CI run and at the default list
    for n_list in ((2,), (1, 2, 3, 5, 8)):
        report = verify.run_verification(n_list, trials=1, seed=1)
        assert [c.name for c in report.checks if not c.passed] == ["field-equivalence"]
        assert not report.passed


def test_sign_row_fails_when_the_constant_is_wrong(monkeypatch):
    monkeypatch.setattr(lattice, "CALIBRATED_SIGN", +1)
    _field_equivalence_fails_alone()


def test_sign_row_fails_when_the_lax_field_is_reversed(monkeypatch):
    real = lattice.lax_rhs
    monkeypatch.setattr(lattice, "lax_rhs", lambda L: -real(L))
    _field_equivalence_fails_alone()


def test_trajectory_accuracy_against_the_two_site_closed_form():
    check = verify.check_trajectory_accuracy(trials=4, seed=3)
    assert check.name == "trajectory-accuracy"
    assert check.passed
    assert check.trials == 4
    assert check.residual <= verify.THRESHOLD_TRAJECTORY


def test_trajectory_accuracy_fails_an_endpoint_off_by_1e_7(monkeypatch):
    real = verify.integrate

    def skewed(config, s0):
        record = real(config, s0)
        record.states[-1] *= 1.0 + 1e-7
        return record

    monkeypatch.setattr(verify, "integrate", skewed)
    check = verify.check_trajectory_accuracy(trials=2, seed=1)
    assert not check.passed
    assert check.residual > verify.THRESHOLD_TRAJECTORY


def test_pushforwards_match_the_dense_public_fields_exactly():
    # the term that runs the dense lax_rhs and double_bracket_field in the
    # field-equivalence check is exactly 0 while the kernels share bits
    for n in (1, 2, 3, 8, 33):
        for trial in range(5):
            s, _ = verify._draw_state(3, 5, n, trial)
            for form in ("lax", "bracket"):
                out = lattice.pushforward_rhs(s, form)
                assert verify._dense_gap(s, form, out) == 0.0


def test_gradient_pairing_has_the_bits_of_the_normal_metric():
    # the one pairing that the battery and gradient-check share: the
    # gradient's coordinates are solved once, and each direction pairs as
    # normal_metric pairs it
    _, ctx, stream, _ = verify.draw_context(5, 4, 6, 0)
    pair = verify.gradient_pairing(ctx)
    grad = geometry.orbit_gradient(ctx)
    for _ in range(5):
        t = uniform_matrix(7, stream)
        v = geometry.TangentVector(ctx.base, commutator(ctx.dense, t))
        dd, nm = pair(t)
        assert dd == geometry.directional_derivative(ctx.base, t)
        assert nm == geometry.normal_metric(ctx, grad, v)
        assert abs(dd - nm) <= 1e-11 * (1.0 + abs(dd))


# Each row takes the worst residual over its trials with a NaN kept: Python's
# max drops a NaN unless it comes first, and these rows used to pass.


def test_a_nan_pushforward_fails_field_equivalence(monkeypatch):
    real = lattice.pushforward_rhs

    def nan_lax(s, form):
        out = real(s, form)
        return np.full_like(out, np.nan) if form == "lax" else out

    monkeypatch.setattr(lattice, "pushforward_rhs", nan_lax)
    check = verify.check_field_equivalence((1, 2, 3, 5, 8), 25, 1)
    assert np.isnan(check.residual) and not check.passed


def test_a_nan_pairing_fails_the_gradient_row(monkeypatch):
    real = geometry._tangent_coordinates
    calls = []

    def every_second_nan(ctx, v):
        calls.append(None)
        coords = real(ctx, v)
        return coords * np.nan if len(calls) % 2 == 0 else coords

    monkeypatch.setattr(geometry, "_tangent_coordinates", every_second_nan)
    check = verify.check_gradient_defining((1, 2, 3, 5, 8), 5, 1)
    assert np.isnan(check.residual) and not check.passed


def test_a_nan_trial_fails_its_sweep(monkeypatch):
    real = verify._trial_lax_generator

    def nan_third(seed, n, trial):
        return (np.nan, 0) if trial == 3 else real(seed, n, trial)

    monkeypatch.setattr(verify, "_trial_lax_generator", nan_third)
    check = verify.check_lax_generator((1, 2, 3, 5, 8), 25, 1)
    assert np.isnan(check.residual) and not check.passed
