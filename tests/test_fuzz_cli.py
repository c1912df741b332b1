"""Bounded fuzzing of ``simulate`` and ``spectrum`` over flags and config-file text.

Flags and file lines draw their values from the same generators, malformed
ones included, since both go through one parser per key.  Every example
must end in exit 0 with a parseable output file or spectrum table, or in
exit 2 or 3 with one line on stderr, no output and no warning.  Runs are
kept short (at most 6 sites, windows of at most 2, rk4 steps of at least
0.01) so each test takes a few seconds.
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
    "sigma": _mostly(["1", "-1"], ["0", "2", "one"]),
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
    # that starts with "-" a value; --spectra takes no text.
    keys = [k for k in _FLAG_VALUES if command == "simulate" or k not in ("format", "spectra")]
    flags = []
    for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        if key == "spectra":
            flags.append(draw(st.sampled_from(["--spectra", "--no-spectra"])))
        else:
            flags.append(f"--{key.replace('_', '-')}={draw(_FLAG_VALUES[key])}")
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


def _run(argv):
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
        assert rc in (cli.EXIT_CONFIG, cli.EXIT_INTEGRATION), (rc, err)
        prefix = "configuration error: " if rc == cli.EXIT_CONFIG else "integration failure: "
        assert err.startswith(prefix) and len(err.splitlines()) == 1, err
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
