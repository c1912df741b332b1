import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from volterra_lab import cli, geometry, lattice, verify
from volterra_lab.geometry import expm_small
from volterra_lab.integrate import IntegratorConfig, integrate
from volterra_lab.lattice import LatticeState

# the package re-exports the integrate() function over the submodule name
itg_module = sys.modules["volterra_lab.integrate"]


def test_missing_command_is_an_argparse_error():
    with pytest.raises(SystemExit):
        cli.main([])


def test_simulate_requires_output_path(capsys):
    rc = cli.main(["simulate", "--u0", "1,1"])
    assert rc == cli.EXIT_CONFIG
    assert "output path" in capsys.readouterr().err


def test_simulate_constant_site_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli.main(
        ["simulate", "--u0", "5", "--t1", "1.0", "--h0", "0.1", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,u_1,f"
    assert len(lines) == 12  # header, t0, nine interior samples, t1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 3
        assert float(cells[1]) == 5.0
    assert "wrote 11 samples" in capsys.readouterr().out


def test_simulate_spectra_columns(tmp_path):
    out = tmp_path / "run.csv"
    rc = cli.main(
        ["simulate", "--u0", "5", "--t1", "0.2", "--h0", "0.1",
         "--spectra", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,u_1,f,lambda_1,lambda_2"
    lam = [float(x) for x in lines[1].split(",")[3:]]
    assert lam == pytest.approx([-np.sqrt(5.0), np.sqrt(5.0)], abs=1e-12)


def test_csv_values_roundtrip_the_api_exactly(tmp_path):
    out = tmp_path / "run.csv"
    rc = cli.main(
        ["simulate", "--u0", "1,2", "--t1", "0.5", "--h0", "0.01",
         "--record-every", "10", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    record = integrate(
        IntegratorConfig(method="rk4", t1=0.5, h0=0.01, record_every=10),
        LatticeState(np.array([1.0, 2.0])),
    )
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == record.n_samples
    for i, line in enumerate(lines):
        cells = [float(x) for x in line.split(",")]
        assert cells[0] == record.times[i]
        assert cells[1] == record.states[i, 0]
        assert cells[2] == record.states[i, 1]
        assert cells[3] == record.f_values[i]


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--seed", "11", "--n", "4", "--t1", "0.5", "--h0", "0.01",
            "--record-every", "5", "--spectra"]
    assert cli.main(args + ["--out", str(a)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# sha256 of one rk4 CSV per form, without --spectra.  Its t, u and f use
# only IEEE arithmetic and sqrt, so the README promises these bytes on any
# platform.
_RK4_CSV_SHA256 = {
    "direct": "1ca5e2d458cfe773632243b63c3248a2947e21a3b02dcafd2d15d243dca81418",
    "lax": "10d7998b8b537f9b3c2ddf2313acb1168c79814db8fc8da964806e5e74262098",
    "bracket": "c75b34631944120a08a87d86a0e888dfac558b956aedc745d2a5cbb905dc5b2a",
}


@pytest.mark.parametrize("form", list(_RK4_CSV_SHA256))
def test_rk4_csv_bytes_are_pinned(tmp_path, capsys, form):
    out = tmp_path / "run.csv"
    argv = ["simulate", "--u0", "0.3,2,5,0.7", "--method", "rk4", "--t1", "1", "--h0", "0.01",
            "--record-every", "7", "--form", form, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    data = out.read_bytes()
    assert data.count(b"\n") == 17
    assert hashlib.sha256(data).hexdigest() == _RK4_CSV_SHA256[form]


def test_seeded_initial_sites_are_in_the_documented_range(tmp_path):
    out = tmp_path / "run.csv"
    rc = cli.main(
        ["simulate", "--seed", "7", "--n", "4", "--t1", "0.1", "--h0", "0.1",
         "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    first = out.read_text().strip().split("\n")[1].split(",")
    sites = [float(x) for x in first[1:5]]
    assert all(0.1 <= x < 10.0 for x in sites)


def test_jsonl_output(tmp_path):
    out = tmp_path / "run.jsonl"
    rc = cli.main(
        ["simulate", "--u0", "1,1", "--t1", "0.2", "--h0", "0.1",
         "--format", "jsonl", "--spectra", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(rows) == 3
    assert list(rows[0]) == ["t", "u", "f", "lambda"]
    assert rows[0]["t"] == 0.0
    assert rows[0]["u"] == [1.0, 1.0]
    assert rows[0]["f"] == 2.0
    assert len(rows[0]["lambda"]) == 3
    assert rows[-1]["f"] < 2.0


def test_config_file_with_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# two-site run\n"
        "u0 = 1,1\n"
        "t1 = 0.5   # short window\n"
        "\n"
        "h0 = 0.1\n"
    )
    out = tmp_path / "run.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert float(lines[-1].split(",")[0]) == 0.5


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u0 = 1,1\nt1 = 0.5\nh0 = 0.1\n")
    out = tmp_path / "run.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--t1", "1.0", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert float(lines[-1].split(",")[0]) == 1.0


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u0 = 1,1\nstep = 0.1\n")
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key" in err and ":2:" in err  # reported with its line number


def test_positivity_guard_cannot_be_switched_off(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for flag in ("--no-guard-positivity", "--guard-positivity"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--u0", "1,1", flag, "--out", str(out)])
        assert exc.value.code == cli.EXIT_CONFIG
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u0 = 1,1\nguard_positivity = false\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}:2: unknown key 'guard_positivity'\n"
    )
    assert not out.exists()


def test_the_orientation_cannot_be_set(tmp_path, capsys):
    # the matrix forms always run in lattice.CALIBRATED_SIGN
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--u0", "1,1", "--form", "lax", "--sigma", "1", "--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u0 = 1,1\nsigma = -1\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {cfg}:2: unknown key 'sigma'\n"
    assert not out.exists()


def test_readme_config_table_lists_the_accepted_keys():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| key | meaning | default |\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[1:]  # past the separator row
    documented = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(cli._RUN_KEYS)


def _readme_commands():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("volterra-lab ")]


def test_readme_examples_run(tmp_path, capsys):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"simulate", "spectrum", "verify", "gradient-check"}
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == cli.EXIT_OK, (argv, capsys.readouterr().err)
    capsys.readouterr()


@pytest.mark.parametrize(
    "key, value",
    [("u0", "1,x"), ("n", "x"), ("method", "euler"), ("format", "xml"),
     ("record_every", "1.5"), ("t1", "abc")],
)
def test_bad_flag_gets_the_config_file_message(tmp_path, capsys, key, value):
    # a flag and a file line go through the same parser, so both give one line
    # (argparse used to print eight lines of usage for some of these flags)
    out = tmp_path / "x.csv"
    lines = [f"{key} = {value}"] if key == "u0" else ["u0 = 1,2", f"{key} = {value}"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    file_err = capsys.readouterr().err.replace(f"{cfg}:{len(lines)}: ", "")
    state = [] if key == "u0" else ["--u0", "1,2"]
    flag = "--" + key.replace("_", "-")
    assert cli.main(["simulate", *state, flag, value, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err == file_err
    assert not out.exists()


def test_config_file_bad_syntax(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u0: 1,1\n")
    assert cli.main(
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
    ) == cli.EXIT_CONFIG
    assert "key=value" in capsys.readouterr().err


def test_config_file_missing(tmp_path):
    rc = cli.main(
        ["simulate", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "x")]
    )
    assert rc == cli.EXIT_CONFIG


def test_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"u0 = 1,1\n# \xff\xfe\n")
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read config file")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-folder", "directory"])
def test_unwritable_output_is_refused_before_stepping(monkeypatch, tmp_path, capsys, where):
    def never(*args, **kwargs):
        raise AssertionError("integrate ran for an unwritable output path")

    monkeypatch.setattr(cli, "integrate", never)
    out = tmp_path / "none" / "x.csv" if where == "missing-folder" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["simulate", "--seed", "1", "--n", "3", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {out}")
    assert len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_writer_failure_is_a_config_error(monkeypatch, tmp_path, capsys, fmt):
    def full(path, record, spectra):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, f"write_{fmt}", full)
    out = tmp_path / "x.out"
    rc = cli.main(["simulate", "--u0", "1,2", "--t1", "0.01", "--format", fmt, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: cannot write {out}: [Errno 28] No space left on device\n"


def test_initial_condition_must_be_exactly_one(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert cli.main(["simulate", "--u0", "1,1", "--seed", "3", "--out", out]) == cli.EXIT_CONFIG
    assert cli.main(["simulate", "--out", out]) == cli.EXIT_CONFIG
    assert cli.main(["simulate", "--seed", "3", "--out", out]) == cli.EXIT_CONFIG
    capsys.readouterr()


def test_site_count_mismatch(tmp_path):
    rc = cli.main(
        ["simulate", "--u0", "1,1", "--n", "3", "--out", str(tmp_path / "x")]
    )
    assert rc == cli.EXIT_CONFIG


def test_nonpositive_sites_rejected(tmp_path):
    rc = cli.main(["simulate", "--u0", "1,-1", "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_CONFIG


def test_bad_format_in_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u0 = 1,1\nformat = xml\n")
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "arg", ["--t1=inf", "--t1=nan", "--t0=-inf", "--h0=inf", "--tol-rel=nan"]
)
def test_nonfinite_window_is_a_config_error(tmp_path, capsys, arg):
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", "--u0", "1,2", arg, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "method, message",
    [("rk4", "rk4 would take inf steps"), ("adaptive45", "t1 - t0 overflows")],
)
def test_overflowing_window_is_a_config_error(tmp_path, capsys, method, message):
    # t1 - t0 = inf: adaptive45 used to take no step and write u0 as the state at t1
    out = tmp_path / "x.csv"
    argv = ["simulate", "--u0", "1,2,3", "--method", method, "--t0=-1e308", "--t1", "1e308",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_adaptive_h0_below_the_step_floor_is_a_config_error(tmp_path, capsys):
    # the loop refuses every step below 1e-14 (t1 - t0), so this run could
    # never start; it used to exit 3 blaming stiffness
    out = tmp_path / "x.csv"
    argv = ["simulate", "--u0", "1,2", "--method", "adaptive45", "--h0", "1e-15",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: adaptive45 h0 = 1e-15 is below the step floor "
        "1e-14 * (t1 - t0) = 1e-14\n"
    )
    assert not out.exists()
    assert cli.main(argv[:6] + ["1e-14", "--out", str(out)]) == cli.EXIT_OK


def test_integration_failure_exit_code(tmp_path, capsys):
    rc = cli.main(
        ["simulate", "--u0", "1,2", "--method", "adaptive45",
         "--tol-abs", "1e-300", "--tol-rel", "1e-300", "--out", str(tmp_path / "x")]
    )
    assert rc == cli.EXIT_INTEGRATION
    assert "integration failure" in capsys.readouterr().err


def test_spectrum_command(capsys):
    rc = cli.main(["spectrum", "--u0", "1,1", "--t1", "0.5", "--h0", "0.01"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "1.414213" in out
    assert "max drift" in out
    drift = float(out.strip().split("max drift = ")[1].split(",")[0])
    assert drift <= 1e-6
    gap = float(out.strip().split("max gap to dense eigh = ")[1])
    lam_max = max(abs(float(line.split()[k])) for line in out.splitlines()[1:-1] for k in (1, 2))
    assert gap <= 1e-13 * (1.0 + lam_max)


def test_verify_command_passes(capsys):
    rc = cli.main(["verify", "--n-list", "1,2,3", "--trials", "3", "--seed", "1"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "sigma* = -1" in out
    for name in (
        "lax-generator-equals-bracket",
        "projection-fixed-point",
        "derivative-chain-equality",
        "gradient-defining-equation",
        "field-equivalence",
        "sign-calibration",
        "trajectory-accuracy",
        "isospectral-drift",
    ):
        assert name in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(verify, "THRESHOLD_LAX_GENERATOR", -1.0)
    rc = cli.main(["verify", "--n-list", "1,2", "--trials", "2"])
    assert rc == cli.EXIT_VERIFICATION
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_bad_arguments(capsys):
    assert cli.main(["verify", "--n-list", "1,x"]) == cli.EXIT_CONFIG
    # the battery runs serially in one process, so there is no --jobs
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--jobs", "2"])
    assert exc.value.code == cli.EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, key, value",
    [("verify", "trials", "x"), ("verify", "seed", "1.5"), ("gradient-check", "n", "2.5"),
     ("gradient-check", "trials", "x"), ("gradient-check", "seed", "y")],
)
def test_bad_int_flag_is_one_configuration_error(capsys, command, key, value):
    # these flags printed argparse's usage block; now they share the
    # one-line message of a bad run flag
    assert cli.main([command, f"--{key}", value]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: bad value for {key}: {value!r}\n"


def test_gradient_check_command(capsys):
    rc = cli.main(["gradient-check", "--n", "4", "--trials", "2", "--seed", "5"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "mean convergence order" in out
    slope = float(out.split("mean convergence order = ")[1].split(" ")[0])
    assert abs(slope - 2.0) <= 0.2


def test_gradient_check_fails_a_nan_pairing(monkeypatch, capsys):
    # trials 2 and 3 of 3 pair to NaN; max(worst, nan) kept the first trial's
    # residual and the check exited 0
    real = verify.gradient_pairing
    calls = []

    def nan_after_first(ctx):
        pair = real(ctx)
        calls.append(None)
        if len(calls) == 1:
            return pair
        return lambda t: (pair(t)[0], np.nan)

    monkeypatch.setattr(verify, "gradient_pairing", nan_after_first)
    assert cli.main(["gradient-check", "--trials", "3"]) == cli.EXIT_VERIFICATION
    assert capsys.readouterr().out.rstrip().endswith("/ (1 + |closed|) / bound = nan")


def _gradient_check_ratio(last_line: str) -> float:
    return float(last_line.split("/ bound = ")[1].split(";")[0])


def test_gradient_check_passes_where_the_fitted_order_drifts(capsys):
    # at eps = 1e-5 rounding in f outweighs the eps^2 term, and the fitted
    # order of this seed drifts to 2.355, which exited 4; the prediction
    # of fd - closed from f''' and f^(5) holds with room to spare
    assert cli.main(["gradient-check", "--seed", "2062646828"]) == cli.EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("mean convergence order = 2.355 (informational); ")
    assert _gradient_check_ratio(last) <= 0.3


def _negated_generator(monkeypatch):
    real = geometry.orbit_context

    def negated(L):
        ctx = real(L)
        return dataclasses.replace(ctx, generator=-ctx.generator)

    monkeypatch.setattr(geometry, "orbit_context", negated)


def _scaled_weights(monkeypatch):
    # the pairing's K, so df([L, T]) and the metric pairing agree with each
    # other while f, and with it fd, keeps the true K
    real = geometry.build_K
    monkeypatch.setattr(geometry, "build_K", lambda n: 1.01 * real(n))


def _forward_difference(monkeypatch):
    def forward(L, t, eps):
        dense = L.densify()
        moved = expm_small(-eps * t) @ dense @ expm_small(eps * t)
        return (lattice.trace_objective(moved) - lattice.trace_objective(dense)) / eps

    monkeypatch.setattr(geometry, "finite_difference_directional", forward)


@pytest.mark.parametrize("mutate", [_negated_generator, _scaled_weights, _forward_difference])
def test_gradient_check_fails_a_broken_derivative(monkeypatch, capsys, mutate):
    mutate(monkeypatch)
    assert cli.main(["gradient-check"]) == cli.EXIT_VERIFICATION
    assert _gradient_check_ratio(capsys.readouterr().out.splitlines()[-1]) > 1e6


def _gradient_check_pairing(last_line: str) -> float:
    return float(last_line.rsplit("/ bound = ", 1)[1])


def test_gradient_check_pairing_bound_follows_the_gap(capsys):
    # trial 4 of this seed has gap_min / ||L|| = 2.0e-5 and a pairing residual
    # of 1.141e-11, which failed a fixed 1e-11 bound on correct code; the
    # normal-metric solve divides by the gaps, and the bound follows them
    assert cli.main(["gradient-check", "--n", "12", "--seed", "289"]) == cli.EXIT_OK
    assert _gradient_check_pairing(capsys.readouterr().out.splitlines()[-1]) <= 0.05


@pytest.mark.parametrize("n", ["6", "12"])
def test_gradient_check_fails_a_scaled_gradient_in_the_pairing(monkeypatch, capsys, n):
    # the gradient's metric coordinates come from [L, 1.01 [L^2, K]], while
    # df([L, T]) keeps the true [L^2, K]
    def scaled(ctx):
        return geometry.TangentVector(ctx.base, lattice.commutator(ctx.dense, 1.01 * ctx.generator))

    monkeypatch.setattr(geometry, "orbit_gradient", scaled)
    assert cli.main(["gradient-check", "--n", n, "--seed", "289"]) == cli.EXIT_VERIFICATION
    assert _gradient_check_pairing(capsys.readouterr().out.splitlines()[-1]) > 1e8


def test_gradient_check_rejects_large_eps(capsys):
    assert cli.main(["gradient-check", "--eps", "0.5"]) == cli.EXIT_CONFIG
    capsys.readouterr()


def test_gradient_check_refuses_repeated_eps(capsys):
    # a repeated eps made np.polyfit warn (RankWarning) and the check exit 4
    assert cli.main(["gradient-check", "--eps", "1e-3,1e-3", "--trials", "1"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: eps values must be distinct, got (0.001, 0.001)\n"


def test_gradient_check_refuses_a_single_eps(capsys):
    # one eps fits no order: the check printed "mean convergence order = nan"
    # and exited 0 without testing any order
    assert cli.main(["gradient-check", "--eps", "1e-3", "--trials", "1"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: a convergence order needs at least two eps values, got (0.001,)\n"
    )


@pytest.mark.parametrize("n", ["1", "0"])
def test_gradient_check_refuses_a_single_site(capsys, n):
    # at n = 1 the directional derivative is exactly 0, so no order can be fitted
    assert cli.main(["gradient-check", "--n", n, "--seed", "1"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: need n >= 2 and trials >= 1\n"


def test_module_entry_point_prints_usage():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_lab.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: volterra-lab")


def test_overflow_exits_3_without_numpy_warnings(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_lab.cli", "simulate", "--u0", "1e200,1e200",
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == cli.EXIT_INTEGRATION
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("integration failure")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("method, t0, t1, h0, at", [
    ("rk4", "1", "1.000000005", "1e-16", "1"),
    ("rk4", "1e6", "1000000.00001", "1e-12", "1e+06"),
    ("adaptive45", "1e6", "1000000.001", "1e-12", "1e+06"),
])
def test_h0_that_cannot_advance_t_exits_2(tmp_path, capsys, method, t0, t1, h0, at):
    # the config decides these before any stepping; each run exited 3 from
    # the loop
    out = tmp_path / "x.csv"
    argv = ["simulate", "--u0", "1,2", "--method", method, "--t0", t0, "--t1", t1,
            "--h0", h0, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {method} h0 = {h0} does not advance t = {at}\n"
    assert not out.exists()


def test_step_that_does_not_advance_t_exits_3(monkeypatch, tmp_path, capsys):
    # h0 = 1e-9 advances t = 1e6, so the config passes; the stages of the
    # first two attempts are NaN, which shrinks h twice by 0.2 to 4e-11,
    # below half an ulp of t, so the loop stops mid-run
    real = itg_module._volterra_raw
    calls = []

    def field(u):
        calls.append(None)
        return np.full_like(u, np.nan) if 2 <= len(calls) <= 13 else real(u)

    monkeypatch.setattr(itg_module, "_volterra_raw", field)
    argv = ["simulate", "--u0", "1,2", "--method", "adaptive45", "--t0", "1e6",
            "--t1", "1000000.001", "--h0", "1e-9", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == cli.EXIT_INTEGRATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "integration failure: step size 4e-11 does not advance t = 1e+06\n"


def test_unbounded_rk4_run_exits_2_at_once(tmp_path):
    # 1e300 fixed steps would never finish; the step count is refused before
    # any stepping
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_lab.cli", "simulate", "--seed", "1", "--n", "3",
         "--h0", "1e-300", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("configuration error: rk4 would take 1e+300 steps")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


def test_adaptive_run_past_the_attempt_budget_exits_3(monkeypatch, tmp_path, capsys):
    # t1 = 1e7 takes millions of DP45 attempts at h near its stability
    # limit; the budget stops it with one line and no file
    monkeypatch.setattr(itg_module, "_MAX_DP45_ATTEMPTS", 200)
    out = tmp_path / "x.csv"
    argv = ["simulate", "--n", "8", "--seed", "1", "--t1", "1e7", "--method", "adaptive45",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INTEGRATION
    err = capsys.readouterr().err
    assert err.startswith("integration failure: adaptive45 stopped at t = ")
    assert err.endswith("after 200 attempts; the limit is 2e+02\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("form", ["direct", "lax", "bracket"])
def test_overflowing_state_exits_3_in_every_form(tmp_path, capsys, form):
    # ||L||_F^3 overflows here; the bracket's tangency tolerance used to
    # raise OverflowError instead of letting the loop reject the step
    out = tmp_path / "x.csv"
    argv = ["simulate", "--u0", "1e206,1e206", "--form", form, "--method", "adaptive45",
            "--t1", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INTEGRATION
    err = capsys.readouterr().err
    assert err.startswith("integration failure: step size")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "error", [lattice.InternalConsistencyError("identity broke"), np.linalg.LinAlgError("no convergence")]
)
@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_numerical_breakdown_exits_3_in_one_line(monkeypatch, tmp_path, capsys, error, command):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(itg_module, "pushforward_rhs", broken)
    argv = [command, "--u0", "1,2", "--form", "lax", "--t1", "0.1"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == cli.EXIT_INTEGRATION
    err = capsys.readouterr().err
    assert err == f"integration failure: {error}\n"


def test_degenerate_spectrum_in_verify_exits_4(monkeypatch, capsys):
    def degenerate(*args, **kwargs):
        raise geometry.DegenerateSpectrumError("eigenvalue gap 0")

    monkeypatch.setattr(verify, "run_verification", degenerate)
    assert cli.main(["verify", "--n-list", "1,2", "--trials", "1"]) == cli.EXIT_VERIFICATION
    assert capsys.readouterr().err == "verification failure: eigenvalue gap 0\n"


@pytest.mark.parametrize("args", [["--n-list", "0"], ["--n-list", ","], ["--trials", "0"]])
def test_verify_empty_battery_is_a_config_error(capsys, args):
    assert cli.main(["verify", *args]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_gradient_check_without_a_workable_spectrum_exits_4(monkeypatch, capsys):
    def degenerate(L):
        raise geometry.DegenerateSpectrumError("eigenvalue gap 0")

    monkeypatch.setattr(geometry, "orbit_context", degenerate)
    rc = cli.main(["gradient-check", "--n", "3", "--trials", "1"])
    assert rc == cli.EXIT_VERIFICATION
    assert capsys.readouterr().err == (
        "verification failure: no workable spectrum in 50 draws (n = 3, trial = 0)\n"
    )


_NO_MEMORY = "Unable to allocate 298. GiB for an array with shape (200001, 200001) and data type float64"


@pytest.mark.parametrize(
    "command, where",
    [
        (["simulate", "--seed", "1", "--n", "3"], (itg_module, "_lax_spectra")),
        (["spectrum", "--seed", "1", "--n", "3"], (itg_module, "_lax_spectra")),
        (["verify", "--n-list", "3", "--trials", "1"], (geometry, "orbit_context")),
        (["gradient-check", "--n", "3", "--trials", "2"], (geometry, "orbit_context")),
    ],
)
@pytest.mark.parametrize("message", [_NO_MEMORY, ""])
def test_a_run_too_large_for_memory_exits_2_in_one_line(
    monkeypatch, tmp_path, capsys, command, where, message
):
    # Stands in for numpy's _ArrayMemoryError at a site count such as
    # 200000, where the dense (N+1)^2 Lax matrix or the (N/2)^2 bidiagonal
    # blocks do not fit; nothing here allocates for real.
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(*where, too_large)
    out = tmp_path / "run.csv"
    argv = command + ["--t1", "0.01", "--out", str(out)] if command[0] == "simulate" else command
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: not enough memory for this run: {message or 'allocation failed'}\n"
    )
    assert not out.exists()


def test_simulate_start_does_not_load_the_battery(tmp_path):
    # simulate and spectrum never import verify, which only verify and
    # gradient-check load; no command starts or imports a process pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = f"""
import sys
import volterra_lab.cli as cli
heavy = ("volterra_lab.verify", "concurrent.futures", "multiprocessing")
assert cli.main(["simulate", "--seed", "1", "--n", "3", "--t1", "0.01",
                 "--format", "jsonl", "--out", {str(tmp_path / "x.jsonl")!r}]) == 0
assert cli.main(["spectrum", "--u0", "1,2", "--t1", "0.01"]) == 0
print("loaded after simulate:", [m for m in heavy if m in sys.modules])
assert cli.main(["verify", "--n-list", "1", "--trials", "1"]) == 0
print("loaded after verify:", [m for m in heavy if m in sys.modules])
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "loaded after simulate: []" in proc.stdout
    assert "loaded after verify: ['volterra_lab.verify']" in proc.stdout
    assert "overall: PASS" in proc.stdout


def test_benchmark_tracer_still_finds_what_it_wraps(tmp_path, capsys):
    # perfbench/tracing.py wraps package functions by name and reads the form
    # from pushforward_rhs's second argument; a rename or a moved argument
    # would leave its per-layer metrics at 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = (cli.main, cli.integrate, itg_module.pushforward_rhs)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for form in ("lax", "bracket"):
            argv = ["simulate", "--u0", "1,2,0.5", "--form", form, "--method", "adaptive45",
                    "--t1", "0.5", "--out", str(tmp_path / f"{form}.csv")]
            assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracing.summarize(tracer)[0]
    for name in ("lattice.rhs.lax", "lattice.rhs.bracket", "integrate.integrate", "cli.main"):
        assert calls[name] > 0, name
    assert calls["integrate.integrate"] == 2
    assert (cli.main, cli.integrate, itg_module.pushforward_rhs) == wrapped
