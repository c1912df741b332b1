"""Bounded fuzzing of every command over flags and config-file text.

For ``simulate`` and ``spectrum``, flags and file lines draw their values
from the same generators, malformed ones included, since both go through
one parser per key; a few flags are spaced or unknown, for argparse to
refuse.  Every example must end in exit 0 with a parseable output file or
spectrum table, or in exit 2 or 3 with one line on stderr, no output and no
warning.  ``verify`` and ``gradient-check`` draw malformed and small valid
flag values; they may also end in exit 4, with their table or one line on
stderr.  Runs are kept short (at most 6 sites, windows of at
most 2, rk4 steps of at least 0.01; at most 3 battery sizes of at most 3
sites and 2 trials) so each test takes a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volterra_lab import cli  # noqa: E402


def _mostly(valid, odd):
    # about one value in sixteen is malformed or out of range; a list is a
    # choice of texts
    valid, odd = (st.sampled_from(v) if isinstance(v, list) else v for v in (valid, odd))
    return st.integers(0, 15).flatmap(lambda k: odd if k == 0 else valid)


def _floats(lo, hi, odd=("0", "-1", "nan", "inf", "-inf", "abc", "")):
    return _mostly(st.floats(lo, hi).map(repr), list(odd))


_SITES = st.lists(
    _mostly(st.floats(1e-3, 1e2).map(repr), ["0", "-1", "nan", "inf", "1e300", "x"]),
    min_size=1, max_size=5,
).map(",".join)
_SEED = st.integers(-5, 2**70).map(str)
_N = _mostly(st.integers(1, 6).map(str), ["0", "2.5", ""])

# The run settings besides the state; "out" is left out, the test owns the path.
_SETTINGS = {
    "t0": _floats(-1.0, 0.0, ("nan", "inf", "-1e308", "1e308", "2")),
    "t1": _floats(0.0, 1.0, ("nan", "-inf", "-1", "1e308")),
    "h0": _floats(1e-2, 1.0),
    "method": _mostly(["rk4", "adaptive45"], ["euler"]),
    "form": _mostly(["direct", "lax", "bracket"], ["matrix"]),
    "tol_abs": _floats(1e-10, 1e-3),
    "tol_rel": _floats(1e-10, 1e-3),
    "record_every": _mostly(st.integers(1, 4).map(str), ["0", "-1", "1.5"]),
    "format": _mostly(["csv", "jsonl"], ["xml"]),
    "spectra": _mostly(["true", "false", "on", "0"], ["maybe"]),
}

_JUNK = st.sampled_from(["# comment", "", "no equals sign", "unknown = 1", "= 3", "h0 = 1 = 2"])


@st.composite
def _config_text(draw):
    state = draw(_mostly(["u0", "seed"], ["both", "neither", "seed only"]))
    lines = []
    if state in ("u0", "both"):
        lines.append(f"u0 = {draw(_SITES)}")
    if state in ("seed", "both", "seed only"):
        lines.append(f"seed = {draw(_SEED)}")
    if state in ("seed", "both"):
        lines.append(f"n = {draw(_N)}")
    for key, values in _SETTINGS.items():
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(values)}")
    lines = draw(st.permutations(lines))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    return "\n".join(lines) + "\n"


_FLAG_VALUES = {"u0": _SITES, "seed": _SEED, "n": _N, **_SETTINGS}


@st.composite
def _flags(draw, command):
    # A flag wins over the same key in the file.  "--key=text" keeps a text
    # that starts with "-" a value; in the spaced "--key text" argparse takes
    # "-inf" for a flag and refuses the command line, as it refuses an
    # unknown flag.  --spectra takes no text.
    keys = [k for k in _FLAG_VALUES if command == "simulate" or k not in ("format", "spectra")]
    flags = []
    for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        if key == "spectra":
            flags.append(draw(st.sampled_from(["--spectra", "--no-spectra"])))
        else:
            flag, text = f"--{key.replace('_', '-')}", draw(_FLAG_VALUES[key])
            flags += draw(st.sampled_from([[f"{flag}={text}"], [flag, text]]))
    if draw(st.integers(0, 15)) == 0:
        unknown = draw(st.sampled_from(["--bogus", "--sigma=1", "-x", "--guard-positivity"]))
        flags.insert(draw(st.integers(0, len(flags))), unknown)
    return flags


def _check_output(path, n_samples):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0].startswith("{"):
        rows = [json.loads(line) for line in lines]
        assert all({"t", "u", "f"} <= set(row) for row in rows)
    else:
        width = len(lines[0].split(","))
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert all(len(row) == width for row in rows)
    assert len(rows) == n_samples


_PREFIX = {
    cli.EXIT_CONFIG: "configuration error: ",
    cli.EXIT_INTEGRATION: "integration failure: ",
    cli.EXIT_VERIFICATION: "verification failure: ",
}


def _run(argv, failures=(cli.EXIT_CONFIG, cli.EXIT_INTEGRATION)):
    """Exit code and stdout of cli.main(argv); a failure must print one coded line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    assert not caught, [str(w.message) for w in caught]
    err = stderr.getvalue()
    if rc == cli.EXIT_OK:
        assert err == ""
    else:
        assert rc in failures, (rc, err)
        # a check that runs and fails prints its table and nothing on stderr
        if err or rc != cli.EXIT_VERIFICATION:
            assert err.startswith(_PREFIX[rc]) and len(err.splitlines()) == 1, err
        if rc != cli.EXIT_VERIFICATION:
            assert stdout.getvalue() == ""
    return rc, stdout.getvalue()


@settings(max_examples=100, deadline=None, database=None)
@given(text=_config_text(), flags=_flags("simulate"))
def test_simulate_ends_in_a_file_or_one_coded_line(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        out = os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        rc, stdout = _run(["simulate", "--config", cfg, *flags, "--out", out])
        if rc == cli.EXIT_OK:
            last = stdout.splitlines()[-1]
            assert last.startswith("wrote ") and last.endswith(f" samples to {out}")
            _check_output(out, int(last.split()[1]))
        else:
            assert not os.path.exists(out)


@settings(max_examples=100, deadline=None, database=None)
@given(text=_config_text(), flags=_flags("spectrum"))
def test_spectrum_ends_in_a_table_or_one_coded_line(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        rc, stdout = _run(["spectrum", "--config", cfg, *flags])
    if rc == cli.EXIT_OK:
        rows = stdout.splitlines()
        assert rows[-1].startswith("max drift = ")
        # a header, one row per eigenvalue of the (N + 1)-square L, the summary
        assert all(len(row.split()) == 5 for row in rows[1:-1]) and len(rows) >= 4


def _count(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), ["x", "2.5", "", "0", "-1"])


_BATTERY_SEED = _mostly(st.integers(-5, 2**70).map(str), ["y", "1.5", ""])
_N_LIST = _mostly(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    ["x", "", "0", "1,x", "2.5", ",", "2,,3"],
)
_EPS = _mostly(
    st.lists(st.sampled_from(["1e-2", "1e-3", "1e-4", "1e-5"]), min_size=2, max_size=3,
             unique=True).map(",".join),
    ["", "x", "1e-3", "1e-3,1e-3", "0.5,1e-3", "nan,1e-3", "0,1e-3", "1e-3,,1e-4"],
)
_BATTERY_FLAGS = {
    "verify": {"n-list": _N_LIST, "trials": _count(1, 2), "seed": _BATTERY_SEED},
    "gradient-check": {"n": _count(2, 5), "trials": _count(1, 2), "seed": _BATTERY_SEED,
                       "eps": _EPS},
}


@st.composite
def _battery_argv(draw, command):
    # A flag left out keeps its default, except the sizes, which are always
    # drawn so that a run stays small.
    flags = _BATTERY_FLAGS[command]
    sizes = ("n-list", "trials") if command == "verify" else ("n", "trials")
    keys = [k for k in flags if k in sizes or draw(st.booleans())]
    return [command, *(f"--{key}={draw(flags[key])}" for key in keys)]


def _battery_ends_in_a_report_or_one_coded_line(argv):
    failures = (cli.EXIT_CONFIG, cli.EXIT_VERIFICATION)
    rc, stdout = _run(argv, failures)
    if rc == cli.EXIT_OK:
        last = stdout.splitlines()[-1]
        assert last == "overall: PASS" or last.startswith("mean convergence order = ")


# A valid verify takes about 0.02-0.05 s at these sizes.
@settings(max_examples=50, deadline=None, database=None)
@given(argv=_battery_argv("verify"))
def test_verify_ends_in_a_report_or_one_coded_line(argv):
    _battery_ends_in_a_report_or_one_coded_line(argv)


@settings(max_examples=100, deadline=None, database=None)
@given(argv=_battery_argv("gradient-check"))
def test_gradient_check_ends_in_a_report_or_one_coded_line(argv):
    _battery_ends_in_a_report_or_one_coded_line(argv)
