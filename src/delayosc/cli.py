"""Command line front end: check, scan, simulate.

Equations come in as JSON:

    {
      "period": 3.0,
      "coefficients": [
        {"kind": "constant", "value": 0.135},
        {"kind": "piecewise", "breakpoints": [[0.0, 0.1], [1.5, 0.2]]}
      ],
      "delays": [
        {"kind": "lag", "breakpoints": [[0.0, 1.0], [1.0, 1.0], [2.0, 5.0]]},
        {"kind": "lag", "breakpoints": [[0.0, 1.0]], "offset": 0.1}
      ]
    }

All numeric output is written with 17 significant digits so that repeated
runs are byte-identical and values survive a parse round trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import _lazy
from .model import DEFAULT_TOL, DelayEquation, PiecewisePeriodic

if TYPE_CHECKING:
    from .criteria import CheckReport
    from .sim import History

# engines load on first use; the commands read them off this module, as
# ``_cli.check_all``, so that rebinding ``cli.check_all`` redirects them
_ENGINES = {
    "check_all": "criteria",
    "criterion_profile": "criteria",
    "_kink_cap_note": "criteria",
    "KernelCache": "kernel",
    "History": "sim",
    "integrate": "sim",
    "count_sign_changes": "sim",
}
__getattr__ = _lazy(globals(), _ENGINES)
_cli = sys.modules[__name__]

__all__ = [
    "ConfigError",
    "parse_config",
    "equation_to_config",
    "load_equation",
    "report_to_dict",
    "cmd_check",
    "cmd_scan",
    "cmd_simulate",
    "main",
]

_FMT = "%.17g"


class ConfigError(ValueError):
    """Malformed equation configuration."""


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _breakpoints(value, where: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list of [t, v] pairs")
    out = []
    for j, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where}[{j}]: expected a [t, v] pair")
        out.append(
            (_number(pair[0], f"{where}[{j}][0]"), _number(pair[1], f"{where}[{j}][1]"))
        )
    return out


def _reject_unknown(obj: dict, allowed, where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unexpected key {key!r}")


def _parse_piece(obj, period: float, where: str, *, is_delay: bool) -> PiecewisePeriodic:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _require(obj, "kind", where)
    if is_delay:
        if kind != "lag":
            raise ConfigError(f"{where}: unknown delay kind {kind!r}")
    elif kind not in ("constant", "piecewise"):
        raise ConfigError(f"{where}: unknown coefficient kind {kind!r}")

    if kind == "constant":
        _reject_unknown(obj, ("kind", "value"), where)
        value = _number(_require(obj, "value", where), f"{where}.value")
        breakpoints = ((0.0, value),)
        offset = 0.0
    else:
        _reject_unknown(obj, ("kind", "breakpoints", "offset"), where)
        breakpoints = tuple(
            _breakpoints(_require(obj, "breakpoints", where), f"{where}.breakpoints")
        )
        offset = _number(obj.get("offset", 0.0), f"{where}.offset")
    try:
        return PiecewisePeriodic(period=period, breakpoints=breakpoints, offset=offset)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(config: dict) -> DelayEquation:
    """Build an equation from a configuration mapping."""
    if not isinstance(config, dict):
        raise ConfigError("top level: expected an object")
    _reject_unknown(config, ("period", "coefficients", "delays"), "top level")
    period = _number(_require(config, "period", "top level"), "period")
    raw_coeffs = _require(config, "coefficients", "top level")
    raw_delays = _require(config, "delays", "top level")
    if not isinstance(raw_coeffs, list) or not raw_coeffs:
        raise ConfigError("coefficients: expected a non-empty list")
    if not isinstance(raw_delays, list) or not raw_delays:
        raise ConfigError("delays: expected a non-empty list")
    if len(raw_coeffs) != len(raw_delays):
        raise ConfigError(
            f"coefficients has {len(raw_coeffs)} entries but delays has "
            f"{len(raw_delays)}; the lists must pair up"
        )
    coeffs = tuple(
        _parse_piece(c, period, f"coefficients[{i}]", is_delay=False)
        for i, c in enumerate(raw_coeffs)
    )
    delays = tuple(
        _parse_piece(d, period, f"delays[{i}]", is_delay=True)
        for i, d in enumerate(raw_delays)
    )
    try:
        return DelayEquation(coefficients=coeffs, lags=delays)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def equation_to_config(eq: DelayEquation) -> dict:
    """Inverse of parse_config, up to the constant-coefficient shorthand."""

    def coeff_entry(c: PiecewisePeriodic) -> dict:
        if len(c.breakpoints) == 1 and c.offset == 0.0:
            return {"kind": "constant", "value": c.breakpoints[0][1]}
        entry = {"kind": "piecewise", "breakpoints": [list(bp) for bp in c.breakpoints]}
        if c.offset != 0.0:
            entry["offset"] = c.offset
        return entry

    def delay_entry(d: PiecewisePeriodic) -> dict:
        entry = {"kind": "lag", "breakpoints": [list(bp) for bp in d.breakpoints]}
        if d.offset != 0.0:
            entry["offset"] = d.offset
        return entry

    return {
        "period": eq.period,
        "coefficients": [coeff_entry(c) for c in eq.coefficients],
        "delays": [delay_entry(d) for d in eq.lags],
    }


def load_equation(path: str) -> DelayEquation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_config(config)


def _json_number(x):
    """``x`` as a float, or None when absent or not finite (strict JSON has
    no infinity; a saturated value is explained in the report's notes)."""
    return None if x is None or not math.isfinite(x) else float(x)


def report_to_dict(report: CheckReport) -> dict:
    return {
        "alpha": _json_number(report.alpha),
        "lambda0": _json_number(report.lambda0),
        "criteria": [
            {
                "name": v.name,
                "value": _json_number(v.value),
                "threshold": _json_number(v.threshold),
                "satisfied": bool(v.satisfied),
                "applicable": bool(v.applicable),
                "marginal": bool(v.marginal),
                "margin": _json_number(v.margin),
            }
            for v in report.verdicts
        ],
        "overall": report.overall,
        "witness": report.witness,
        "notes": list(report.notes),
    }


def _write_out(path, lines) -> None:
    """Write ``lines`` to the file ``path``, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.writelines(lines)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(lines)


def _write_csv(path, header: str, *columns) -> None:
    """Write ``columns`` side by side under ``header``, 17 digits a value."""
    row = ",".join([_FMT] * len(columns)) + "\n"
    rows = (row % values for values in zip(*(c.tolist() for c in columns)))
    _write_out(path, itertools.chain([header + "\n"], rows))


def cmd_check(args) -> int:
    eq = load_equation(args.config)
    report = _cli.check_all(eq, r=args.r, tol=args.tol, n_grid=args.grid)
    text = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
    _write_out(args.out, [text + "\n"])
    return 0 if report.overall == "oscillatory" else 3


def cmd_scan(args) -> int:
    eq = load_equation(args.config)
    cache = _cli.KernelCache()
    f, w0, ts = _cli.criterion_profile(
        eq, args.r, args.kind, tol=args.tol, n_grid=args.grid, cache=cache
    )
    ts = ts[:-1]  # half-open period window: the grid ends exactly at w0 + P
    _write_csv(args.out, "t,F", ts - w0, f(ts))
    if cache.capped:
        # stdout holds the profile alone; the note a check would report
        print(f"note: {_cli._kink_cap_note(args.tol)}", file=sys.stderr)
    return 0


def _parse_history(spec: str) -> History:
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ConfigError(
            f"history spec {spec!r} must look like const:VALUE, exp:RATE or file:PATH"
        )
    if head == "const":
        return _cli.History.constant(_float_or_fail(rest, spec))
    if head == "exp":
        return _cli.History.exponential(_float_or_fail(rest, spec))
    if head == "file":
        try:
            rows = np.loadtxt(rest, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read history file {rest}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"history file {rest} is not t,x CSV: {exc}") from None
        if rows.shape[1] != 2:
            raise ConfigError(f"history file {rest} must have two columns t,x")
        return _cli.History.tabulated(rows[:, 0], rows[:, 1])
    raise ConfigError(f"unknown history kind {head!r} in {spec!r}")


def _float_or_fail(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"history spec {spec!r}: {text!r} is not a number") from None


def cmd_simulate(args) -> int:
    eq = load_equation(args.config)
    history = _parse_history(args.history)
    traj = _cli.integrate(eq, history, args.t_end, args.step)
    _write_csv(args.out, "t,x", traj.times, traj.values)
    n_changes = _cli.count_sign_changes(traj)
    if n_changes:
        lo, hi = traj.sign_changes[0]
        if hi > lo:
            # linear root estimate inside the bracketing step
            i = int(round(lo / traj.h_step))
            x_lo, x_hi = traj.values[i], traj.values[i + 1]
            first = lo + traj.h_step * x_lo / (x_lo - x_hi)
        else:
            first = lo
        summary = f"# sign_changes={n_changes} first_change_t={_FMT % first}"
    else:
        summary = "# sign_changes=0 first_change_t=none"
    print(summary)
    return 0


# built once per process: building takes about a tenth of a small check
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayosc",
        description="Oscillation tests for first-order delay equations "
        "with periodic piecewise-linear coefficients and lags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run every criterion, print a JSON report")
    p_check.add_argument("config", help="equation configuration (JSON file)")
    p_check.add_argument("--r", type=int, default=1, help="kernel depth (default 1)")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_check.add_argument("--grid", type=int, default=500, help="scan points per period")
    p_check.add_argument("--out", default=None, help="write the report here, not stdout")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="tabulate a criterion integral over a period")
    p_scan.add_argument("config")
    p_scan.add_argument("--r", type=int, default=1)
    p_scan.add_argument("--kind", choices=("inner", "outer"), default="inner")
    p_scan.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_scan.add_argument("--grid", type=int, default=500)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("simulate", help="integrate the equation, report sign changes")
    p_sim.add_argument("config")
    p_sim.add_argument(
        "--history",
        default="const:1.0",
        help="initial data: const:VALUE, exp:RATE (x=e^{-RATE t}) or file:PATH",
    )
    p_sim.add_argument("--t-end", type=float, default=50.0, dest="t_end")
    p_sim.add_argument("--step", type=float, default=1e-3)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # an internal fault (say, a MemoryError) ends in one line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
