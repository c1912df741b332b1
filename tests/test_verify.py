import pytest

from volterra_lab import lattice, verify


def test_small_battery_passes():
    report = verify.run_verification((1, 2, 3), trials=3, seed=1)
    assert report.passed
    assert report.sigma == -1
    assert len(report.checks) == 8
    names = [c.name for c in report.checks]
    assert len(set(names)) == 8
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


def test_battery_runs_the_default_calibration_once(monkeypatch):
    calls = []
    real = lattice.calibrate_sign

    def counting(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "calibrate_sign", counting)
    report = verify.run_verification((1, 2), trials=1, seed=1)
    # the default state once, then the three drawn states of the sign check
    assert len(calls) == 4
    assert calls.count(()) == 1
    assert report.sigma == lattice.CALIBRATED_SIGN
    assert report.discrepancy == dict(real().discrepancy)


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
                out = lattice.pushforward_rhs(s, form, lattice.CALIBRATED_SIGN)
                assert verify._dense_gap(s, form, out) == 0.0
