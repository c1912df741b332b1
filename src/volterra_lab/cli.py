"""Command-line interface.

Four commands: ``simulate`` integrates and writes a trajectory file,
``spectrum`` prints eigenvalue drift over a run and the gap to a dense
eigensolve at its endpoints, ``verify`` runs the named identity battery,
and ``gradient-check`` compares finite differences of the objective against
the closed-form directional derivative.  Only ``verify`` and
``gradient-check`` import the battery module, so a ``simulate`` or
``spectrum`` start does not pay for loading it.

Runs are configured by a flat key=value file (``#`` starts a comment) with
every key also a flag that the same parser reads; flags win.  Keys named after
``IntegratorConfig`` fields build one, and it holds their defaults.  The
orientation of the matrix forms is not a setting: it is the constant
``lattice.CALIBRATED_SIGN``, which ``verify`` re-derives.  On one
machine the t, u and f columns are a byte-deterministic function of the
configuration and seed.  Across machines they stay byte-identical for rk4
runs of every form: no field makes a BLAS call, and the bracket's one BLAS
dot product sets only its tangency tolerance.  adaptive45 runs also depend
on the C library's pow (the controller's err ** -0.2).  The eigenvalue
columns come from LAPACK, and the residuals of ``spectrum``, ``verify`` and
``gradient-check`` from dense BLAS and LAPACK work; they are byte-identical
only on one numpy build.

Exit codes: 0 success, 2 configuration error (including a config file that
cannot be read or decoded, an ``--out`` that cannot be written, which is
refused before any stepping, a window t1 - t0 that overflows, an adaptive45
h0 below its step-underflow floor, an h0 too small to advance t, fewer than
two distinct gradient-check eps values, and a run too large for the
machine's memory), 3 integration failure (including a state that leaves the
positive cone under rk4, an adaptive45 step shrunk mid-run below what
advances t and an adaptive45 run that reaches 1e8 attempts), 4 verification
failure, including a gradient-check whose finite differences miss their
prediction.  A failing command prints one line on stderr and, except a
battery that ran and failed, nothing on stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import geometry, lattice, rng
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    TrajectoryRecord,
    format_invariant_summary,
    integrate,
    invariant_report,
)

__all__ = ["ConfigError", "RunConfig", "main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VERIFICATION = 4


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulate or spectrum run needs.

    Exactly one of ``u0`` (explicit sites) and ``seed`` (log-uniform draw)
    must be set; with ``seed`` the site count ``n`` is required.
    """

    integrator: IntegratorConfig
    n: int | None = None
    u0: tuple | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"
    spectra: bool = False

    def initial_state(self) -> lattice.LatticeState:
        if self.u0 is not None:
            return lattice.LatticeState(np.array(self.u0, dtype=float))
        stream = rng.SplitMix64(rng.substream_seed(self.seed, 0))
        return lattice.LatticeState(rng.random_state(self.n, stream))


_BOOL_TOKENS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _parse_bool(text: str, key: str) -> bool:
    try:
        return _BOOL_TOKENS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key} expects a boolean, got {text!r}") from None


def _parse_floats(text: str, key: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{key} expects comma-separated numbers, got {text!r}") from None


# key -> (parser of its text in a file or a flag, help).  IntegratorConfig and
# _validate_run_keys check method, form and format.
_RUN_KEYS = {
    "n": (int, "number of sites"),
    "u0": (lambda v: _parse_floats(v, "u0"), "comma-separated initial sites, e.g. 1,2,3"),
    "seed": (int, "seed for log-uniform initial sites"),
    "t0": (float, "start time (default 0)"),
    "t1": (float, "end time (default 1)"),
    "h0": (float, "step size, or initial step (default 1e-3)"),
    "method": (str, "integration scheme, rk4 or adaptive45 (default rk4)"),
    "form": (str, f"right-hand-side form, one of {', '.join(lattice.FORMS)} (default direct)"),
    "tol_abs": (float, "absolute tolerance"),
    "tol_rel": (float, "relative tolerance"),
    "record_every": (int, "sampling stride in accepted steps (default 1)"),
    "out": (str, "output file path"),
    "format": (str, "output format, csv or jsonl (default csv)"),
    "spectra": (lambda v: _parse_bool(v, "spectra"), "include eigenvalue columns"),
}


def _parse_value(parse, key: str, text: str, where: str = ""):
    """Parse the text of one key; ``where`` prefixes a bad-value message."""
    try:
        return parse(text)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{where}bad value for {key}: {text!r}") from None


def read_config_file(path: str) -> dict:
    """Parse a flat key=value file; ``#`` starts a comment, blank lines skip."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _RUN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(_RUN_KEYS[key][0], key, value, f"{path}:{lineno}: ")
    return values


def build_run_config(ns: argparse.Namespace) -> RunConfig:
    """Merge defaults, the config file, and flags (flags win)."""
    merged = read_config_file(ns.config) if ns.config is not None else {}
    for key, (parse, _) in _RUN_KEYS.items():
        value = getattr(ns, key, None)
        if value is not None:
            # --spectra/--no-spectra arrives as a bool, every other flag as text
            merged[key] = value if isinstance(value, bool) else _parse_value(parse, key, value)
    settings = {f.name: merged.pop(f.name) for f in fields(IntegratorConfig) if f.name in merged}
    _validate_run_keys(merged)
    try:
        integrator = IntegratorConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(integrator, **merged)


def _validate_run_keys(keys: dict):
    # The state and output keys, checked before the integrator settings.
    n, u0, fmt = keys.get("n"), keys.get("u0"), keys.get("format")
    if (u0 is None) == (keys.get("seed") is None):
        raise ConfigError("exactly one of u0 and seed must be given")
    if u0 is not None:
        if len(u0) < 1:
            raise ConfigError("u0 must list at least one site")
        if n is not None and n != len(u0):
            raise ConfigError(f"n = {n} does not match {len(u0)} sites in u0")
        if not all(np.isfinite(u0)) or min(u0) <= 0.0:
            raise ConfigError("u0 entries must be positive and finite")
    else:
        if n is None or n < 1:
            raise ConfigError("a seeded run needs n >= 1")
    if fmt is not None and fmt not in ("csv", "jsonl"):
        raise ConfigError(f"format must be csv or jsonl, got {fmt!r}")


def write_csv(path: str, record: TrajectoryRecord, spectra: bool):
    n = record.states.shape[1]
    dim = record.spectra.shape[1]
    header = ["t"] + [f"u_{i}" for i in range(1, n + 1)] + ["f"]
    columns = [record.times, record.states, record.f_values]
    if spectra:
        header += [f"lambda_{i}" for i in range(1, dim + 1)]
        columns.append(record.spectra)
    # One %-template per file; "%.17g" % x is the same text as f"{x:.17g}".
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [row_format % tuple(row) for row in np.column_stack(columns).tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_jsonl(path: str, record: TrajectoryRecord, spectra: bool):
    import json

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(record.n_samples):
            obj = {
                "t": record.times[i],
                "u": list(record.states[i]),
                "f": record.f_values[i],
            }
            if spectra:
                obj["lambda"] = list(record.spectra[i])
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def cmd_simulate(cfg: RunConfig) -> int:
    if not cfg.out:
        raise ConfigError("simulate needs an output path (--out)")
    # Refuse an unwritable path before stepping; the file itself is only
    # created once the integration has succeeded.
    folder = os.path.dirname(cfg.out) or "."
    if os.path.isdir(cfg.out) or not os.path.isdir(folder):
        raise ConfigError(f"cannot write {cfg.out}: not a file in an existing directory")
    record = integrate(cfg.integrator, cfg.initial_state())
    writer = write_csv if cfg.format == "csv" else write_jsonl
    try:
        writer(cfg.out, record, cfg.spectra)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    summary = invariant_report(record)
    print(format_invariant_summary(summary, record))
    print(f"wrote {record.n_samples} samples to {cfg.out}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    record = integrate(cfg.integrator, cfg.initial_state())
    first = record.spectra[0]
    last = record.spectra[-1]
    drift = invariant_report(record).eigenvalue_drift
    # One dense eigensolve per endpoint checks the sampled (SVD) spectra.
    dense = [
        lattice.symmetric_eigen(lattice.lax_from_state(lattice.LatticeState(u)).densify())[0]
        for u in record.states[[0, -1]]
    ]
    gap = np.abs(record.spectra[[0, -1]] - dense).max(axis=0)
    print(f"{'i':>3}  {'lambda(t0)':>24}  {'lambda(t1)':>24}  {'drift':>10}  {'dense gap':>10}")
    for i in range(first.size):
        print(
            f"{i + 1:>3}  {first[i]:>24.16g}  {last[i]:>24.16g}  "
            f"{drift[i]:>10.3e}  {gap[i]:>10.3e}"
        )
    print(f"max drift = {drift.max():.3e}, max gap to dense eigh = {gap.max():.3e}")
    return EXIT_OK


def cmd_verify(n_list, trials: int, seed: int) -> int:
    from . import verify

    report = verify.run_verification(n_list, trials, seed)
    name_w = max(len(c.name) for c in report.checks)
    print(f"{'check':<{name_w}}  {'residual':>10}  {'threshold':>10}  status")
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        print(
            f"{c.name:<{name_w}}  {c.residual:>10.3e}  {c.threshold:>10.0e}  {status}"
            + (f"  ({c.detail})" if c.detail else "")
        )
    print(f"degenerate redraws = {report.redraws}")
    print("overall: " + ("PASS" if report.passed else "FAIL"))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _curve_derivatives(ctx, t) -> tuple:
    # Along exp(-eps T) L exp(eps T), f^(k)(0) = tr(K ad_T^k(L^2)) with
    # ad_T(M) = [M, T]; returns f''' and f^(5) at eps = 0.
    k = lattice.build_K(ctx.base.dim)
    m = ctx.dense @ ctx.dense
    derivs = []
    for _ in range(5):
        m = lattice.commutator(m, t)
        derivs.append(lattice.frobenius_inner(k, m))
    return derivs[2], derivs[4]


def cmd_gradient_check(n: int, trials: int, seed: int, eps_list: tuple) -> int:
    if not eps_list or not all(0.0 < e <= 1e-2 for e in eps_list):
        raise ConfigError("eps values must lie in (0, 1e-2]")
    # At n = 1, L^2 = c^2 I commutes with K, so f is constant on the orbit
    # and the fitted order of a zero derivative would mean nothing.
    if n < 2 or trials < 1:
        raise ConfigError("need n >= 2 and trials >= 1")
    # A repeated eps leaves the fitted order underdetermined.
    if len(set(eps_list)) != len(eps_list):
        raise ConfigError(f"eps values must be distinct, got {eps_list}")
    if len(eps_list) < 2:
        raise ConfigError(f"a convergence order needs at least two eps values, got {eps_list}")
    from . import verify

    slopes = []
    ratios = []
    pairings = []
    # The table is printed once every trial has run, so a run that fails
    # leaves stdout empty.
    rows = [f"{'trial':>5}  {'eps':>9}  {'fd':>23}  {'closed_form':>23}  {'|fd-closed|':>12}"]
    for trial in range(trials):
        _, ctx, stream, _ = verify.draw_context(seed, 8, n, trial)
        # direction norm 10: keeps the eps^2 term of the centered difference
        # well above the double-precision floor of f at the smallest eps
        t = rng.skew_matrix(n + 1, stream)
        t = 10.0 * t / max(1e-30, float(np.linalg.norm(t)))
        dd, nm = verify.gradient_pairing(ctx)(t)
        # The normal-metric solve divides by eigenvalue gaps, so its rounding
        # grows like ||L|| / gap_min; the bound adds 64 ulps of that to 1e-11.
        pairing_bound = 1e-11 + 64.0 * 2.0**-52 * float(np.linalg.norm(ctx.dense)) / ctx.gap_min
        pairings.append(abs(dd - nm) / (1.0 + abs(dd)) / pairing_bound)
        f3, f5 = _curve_derivatives(ctx, t)
        # rounding / eps allows fd 16 ulps of 1 + |f| over 2 eps
        rounding = 8.0 * 2.0**-52 * (1.0 + abs(lattice.trace_objective(ctx.dense)))
        errs = []
        for eps in eps_list:
            fd = geometry.finite_difference_directional(ctx.base, t, eps)
            err = abs(fd - dd)
            errs.append(max(err, 1e-300))
            rows.append(f"{trial:>5}  {eps:>9.1e}  {fd:>23.16g}  {dd:>23.16g}  {err:>12.3e}")
            # fd - dd = eps^2 f'''/6 + eps^4 f^(5)/120 + O(eps^6); what the
            # eps^2 term leaves must fit the rounding plus 4 eps^4 terms.
            bound = rounding / eps + 4.0 * eps**4 * abs(f5) / 120.0
            ratios.append(abs(fd - dd - eps**2 * f3 / 6.0) / bound)
        slopes.append(float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]))
    mean_slope = float(np.mean(slopes))
    # np.max keeps a NaN, which fails the check below
    ratio_worst = float(np.max(ratios))
    pairing_worst = float(np.max(pairings))
    print("\n".join(rows))
    print(
        f"mean convergence order = {mean_slope:.3f} (informational); "
        f"max |fd - closed - eps^2 f'''/6| / bound = {ratio_worst:.3e}; "
        f"max |closed - metric| / (1 + |closed|) / bound = {pairing_worst:.3e}"
    )
    ok = ratio_worst <= 1.0 and pairing_worst <= 1.0
    return EXIT_OK if ok else EXIT_VERIFICATION


def _add_run_flags(parser: argparse.ArgumentParser, keys):
    parser.add_argument("--config", help="key=value configuration file")
    for key in keys:
        if key == "spectra":
            parser.add_argument("--spectra", action=argparse.BooleanOptionalAction,
                                default=None, help=_RUN_KEYS[key][1])
        else:
            parser.add_argument("--" + key.replace("_", "-"), dest=key, help=_RUN_KEYS[key][1])


# Parsing leaves the parser unchanged, so one instance serves every call.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra-lab",
        description="Volterra lattice laboratory: simulate, verify, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate and write a trajectory file")
    _add_run_flags(sim, _RUN_KEYS)

    spec = sub.add_parser("spectrum", help="integrate and print eigenvalue drift")
    _add_run_flags(spec, [k for k in _RUN_KEYS if k not in ("out", "format", "spectra")])

    ver = sub.add_parser("verify", help="run the identity battery")
    ver.add_argument("--n-list", dest="n_list", default="1,2,3,5,8",
                     help="comma-separated site counts (default 1,2,3,5,8)")
    # The int flags of verify and gradient-check carry text that main parses,
    # so a bad value gets one configuration-error line.
    ver.add_argument("--trials", default="25", help="trials per site count")
    ver.add_argument("--seed", default="1", help="battery seed")

    gc = sub.add_parser("gradient-check",
                        help="finite-difference check of the directional derivative")
    gc.add_argument("--n", default="6", help="number of sites, at least 2")
    gc.add_argument("--trials", default="5", help="independent trials")
    gc.add_argument("--seed", default="1", help="trial seed")
    gc.add_argument("--eps", default="1e-3,1e-4,1e-5",
                    help="comma-separated offsets (default 1e-3,1e-4,1e-5)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "simulate":
            return cmd_simulate(build_run_config(ns))
        if ns.command == "spectrum":
            return cmd_spectrum(build_run_config(ns))
        trials = _parse_value(int, "trials", ns.trials)
        seed = _parse_value(int, "seed", ns.seed)
        if ns.command == "verify":
            try:
                n_list = tuple(int(tok) for tok in ns.n_list.split(",") if tok.strip())
            except ValueError:
                raise ConfigError(f"bad n-list {ns.n_list!r}") from None
            if not n_list or min(n_list) < 1 or trials < 1:
                raise ConfigError("need n-list entries >= 1 and trials >= 1")
            return cmd_verify(n_list, trials, seed)
        eps_list = _parse_floats(ns.eps, "eps")
        return cmd_gradient_check(_parse_value(int, "n", ns.n), trials, seed, eps_list)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, lattice.InternalConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except geometry.DegenerateSpectrumError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except MemoryError as exc:
        # A site or sample count too large for this machine's memory; a fixed
        # cap on n would only guess at that memory, so the allocation decides.
        detail = str(exc) or "allocation failed"
        print(f"configuration error: not enough memory for this run: {detail}", file=sys.stderr)
        return EXIT_CONFIG


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
