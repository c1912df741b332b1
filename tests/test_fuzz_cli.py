"""Bounded fuzzing of ``simulate`` over flags and config-file text.

Every example must end in exit 0 with a parseable output file, or in exit 2
or 3 with one line on stderr, no output file and no warning.  Runs are kept
short (at most 6 sites, windows of at most 2, rk4 steps of at least 0.01)
so the whole test takes a few seconds.
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
        lines.append(f"seed = {draw(st.integers(-5, 2**70))}")
    if state in ("seed", "both"):
        lines.append(f"n = {draw(_mostly(st.integers(1, 6).map(str), ['0', '2.5', '']))}")
    for key, values in _SETTINGS.items():
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(values)}")
    lines = draw(st.permutations(lines))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    return "\n".join(lines) + "\n"


# Flags argparse accepts; a flag wins over the same key in the file.
_FLAGS = st.lists(
    st.one_of(
        st.sampled_from([
            ["--u0", "1,2,3"], ["--seed", "7"], ["--n", "4"], ["--spectra"], ["--no-spectra"],
            ["--format", "jsonl"], ["--method", "adaptive45"], ["--form", "lax"],
            ["--form", "bracket"], ["--sigma", "1"], ["--record-every", "2"],
        ]),
        st.floats(-0.5, 1.0, allow_nan=False).map(lambda x: [f"--t1={x!r}"]),
        st.floats(1e-2, 1.0).map(lambda x: ["--h0", repr(x)]),
    ),
    max_size=4,
)


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


@settings(max_examples=100, deadline=None, database=None)
@given(text=_config_text(), flags=_FLAGS)
def test_simulate_ends_in_a_file_or_one_coded_line(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        out = os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["simulate", "--config", cfg, *[a for flag in flags for a in flag], "--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        assert not caught, [str(w.message) for w in caught]
        err = stderr.getvalue()
        if rc == cli.EXIT_OK:
            assert err == ""
            last = stdout.getvalue().splitlines()[-1]
            assert last.startswith("wrote ") and last.endswith(f" samples to {out}")
            _check_output(out, int(last.split()[1]))
        else:
            assert rc in (cli.EXIT_CONFIG, cli.EXIT_INTEGRATION), (rc, err)
            prefix = "configuration error: " if rc == cli.EXIT_CONFIG else "integration failure: "
            assert err.startswith(prefix) and len(err.splitlines()) == 1, err
            assert stdout.getvalue() == ""
            assert not os.path.exists(out)
