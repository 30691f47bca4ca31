"""Correctness checks for every benchmark operation.

Each check returns a list of failure messages; an empty list means the
operation's output is correct.  Values are compared as ``float``.  The
oracles here use closed forms, bisection and fixed-point iteration, never
the library's own root finders or quadrature.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

VALUE_TOL = 1e-6  # the README's accuracy claim for verdict values
STRICT = 10.0 * 1e-8  # check_all's marginal band at the default tolerance
INV_E = math.exp(-1.0)
ORDER = ("ladde_1_3", "hunt_yorke_1_4", "kwong_1_5", "bcs_1_8", "bcs_1_9", "main_2_8")


def _num(x) -> float | None:
    return None if x is None else float(x)


def _numbers(report: dict):
    yield "alpha", report.get("alpha")
    yield "lambda0", report.get("lambda0")
    for c in report.get("criteria", []):
        for key in ("value", "threshold", "margin"):
            yield f"{c.get('name')}.{key}", c.get(key)


def consistency(report: dict, code: int) -> list[str]:
    """Checks every check report must pass: finite numbers, the six
    criteria in order, witness = first satisfied, exit code from overall."""
    fails = []
    for name, v in _numbers(report):
        if v is not None and not math.isfinite(float(v)):
            fails.append(f"{name} is not finite: {v}")
    names = tuple(c.get("name") for c in report.get("criteria", []))
    if names != ORDER:
        fails.append(f"criteria order {names} != {ORDER}")
        return fails
    first = next((c["name"] for c in report["criteria"] if c["satisfied"]), None)
    if report.get("witness") != first:
        fails.append(f"witness {report.get('witness')!r} != first satisfied {first!r}")
    overall = "oscillatory" if first is not None else "inconclusive"
    if report.get("overall") != overall:
        fails.append(f"overall {report.get('overall')!r} != {overall!r}")
    want_code = 0 if report.get("overall") == "oscillatory" else 3
    if code != want_code:
        fails.append(f"exit code {code} != {want_code}")
    return fails


def _close(name: str, got, want, tol: float = VALUE_TOL) -> list[str]:
    got, want = _num(got), _num(want)
    if got is None or want is None:
        return [] if got is want else [f"{name}: {got} != {want}"]
    if not abs(got - want) <= tol:
        return [f"{name}: {got!r} differs from {want!r} by {abs(got - want):.3e}"]
    return []


def against_reference(report: dict, code: int, ref: dict) -> list[str]:
    """A shipped config's report against the reference pinned for it."""
    fails = consistency(report, code)
    for key in ("overall", "witness"):
        if report.get(key) != ref[key]:
            fails.append(f"{key} {report.get(key)!r} != pinned {ref[key]!r}")
    if code != ref["exit_code"]:
        fails.append(f"exit code {code} != pinned {ref['exit_code']}")
    fails += _close("alpha", report.get("alpha"), ref["alpha"])
    fails += _close("lambda0", report.get("lambda0"), ref["lambda0"])
    got = {c["name"]: c for c in report.get("criteria", [])}
    for want in ref["criteria"]:
        c = got.get(want["name"], {})
        for key in ("value", "threshold"):
            fails += _close(f"{want['name']}.{key}", c.get(key), want[key])
    return fails


# -- constant family: closed forms ------------------------------------------


def fixed_point_lambda(a: float) -> float | None:
    """Smaller root of lam = exp(a lam) by direct iteration from 1."""
    if not 0.0 < a <= INV_E:
        return None
    lam = 1.0
    for _ in range(200000):
        nxt = math.exp(a * lam)
        if abs(nxt - lam) < 1e-15:
            return nxt
        lam = nxt
    return lam


def constant_expectations(p: float, lag: float, r: int) -> dict:
    """Values and thresholds of x'(t) + p x(t - lag) = 0 in closed form.

    alpha = hunt_yorke = kwong = main_2_8 = p L, and
    bcs_1_8 = bcs_1_9 = p (e^{c_r L} - 1) / c_r with c_1 = p,
    c_{k+1} = p e^{c_k L}.
    """
    a = p * lag
    c = p
    for _ in range(r - 1):
        c = p * math.exp(c * lag)
    bcs = p * math.expm1(c * lag) / c
    lam = fixed_point_lambda(a)
    lam_thr = None if lam is None else (1.0 + math.log(lam)) / lam
    arg = 1.0 - 2.0 * a - a * a
    b19 = None if lam is None or arg < 0.0 else 1.0 - (1.0 - a - math.sqrt(arg)) / 2.0
    rows = {
        "ladde_1_3": (a, INV_E, True),
        "hunt_yorke_1_4": (a, INV_E, True),
        "kwong_1_5": (a, lam_thr, lam is not None),
        "bcs_1_8": (bcs, 1.0, True),
        "bcs_1_9": (bcs, b19, lam is not None),
        "main_2_8": (a, lam_thr, lam is not None),
    }
    witness = next(
        (
            n
            for n in ORDER
            if rows[n][2] and rows[n][1] is not None and rows[n][0] - rows[n][1] > STRICT
        ),
        None,
    )
    return {"alpha": a, "lambda0": lam, "rows": rows, "witness": witness}


def against_constant(report: dict, code: int, p: float, lag: float, r: int) -> list[str]:
    want = constant_expectations(p, lag, r)
    fails = consistency(report, code)
    fails += _close("alpha", report.get("alpha"), want["alpha"])
    fails += _close("lambda0", report.get("lambda0"), want["lambda0"])
    got = {c["name"]: c for c in report.get("criteria", [])}
    for name, (value, threshold, applicable) in want["rows"].items():
        c = got.get(name, {})
        fails += _close(f"{name}.value", c.get("value"), value)
        fails += _close(f"{name}.threshold", c.get("threshold"), threshold)
        if c.get("applicable") != applicable:
            fails.append(f"{name}.applicable {c.get('applicable')} != {applicable}")
    if report.get("witness") != want["witness"]:
        fails.append(f"witness {report.get('witness')!r} != closed form {want['witness']!r}")
    return fails


# -- piecewise family: structural inequalities ------------------------------


def against_piecewise(report: dict, code: int) -> list[str]:
    """liminf <= limsup of one integral, and frozen >= sliding envelope."""
    fails = consistency(report, code)
    got = {c["name"]: c for c in report.get("criteria", [])}
    if fails or set(got) != set(ORDER):
        return fails
    a = float(report["alpha"])
    kw = float(got["kwong_1_5"]["value"])
    if not a <= kw + 1e-9:
        fails.append(f"alpha {a!r} > kwong {kw!r}")
    outer = float(got["bcs_1_8"]["value"])
    inner = float(got["main_2_8"]["value"])
    if not outer >= inner - VALUE_TOL:
        fails.append(f"bcs_1_8 {outer!r} < main_2_8 {inner!r} - {VALUE_TOL}")
    return fails


# -- simulate ---------------------------------------------------------------


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def against_simulate_reference(code: int, summary: str, csv_sha: str, ref: dict) -> list[str]:
    fails = []
    if code != 0:
        fails.append(f"simulate exit code {code} != 0")
    if summary != ref["summary"]:
        fails.append(f"summary {summary!r} != pinned {ref['summary']!r}")
    if csv_sha != ref["csv_sha256"]:
        fails.append(f"CSV sha256 {csv_sha} != pinned {ref['csv_sha256']}")
    return fails


def char_root(p: float) -> float:
    """Smaller root of mu = p e^mu by bisection, for p in (0, 1/e):
    x(t) = e^{-mu t} solves x'(t) + p x(t - 1) = 0 exactly."""
    lo, hi = 0.0, math.log(1.0 / p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p * math.exp(mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def against_exponential(code: int, summary: str, csv_path: str, mu: float) -> list[str]:
    """The control equation started on e^{-mu t} must stay on it."""
    fails = []
    if code != 0:
        fails.append(f"simulate exit code {code} != 0")
    if summary != "# sign_changes=0 first_change_t=none":
        fails.append(f"summary {summary!r} reports sign changes on e^(-mu t)")
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    err = float(np.max(np.abs(rows[:, 1] - np.exp(-mu * rows[:, 0]))))
    if not err <= VALUE_TOL:
        fails.append(f"trajectory leaves e^(-mu t) by {err:.3e}")
    return fails


def against_structural(kind: str, rep) -> list[str]:
    """Structural cross-checks on a positive solution must hold."""
    if kind == "kernel_bound":
        if not math.isfinite(rep.max_relative_violation):
            return [f"kernel bound r={rep.r}: non-finite violation"]
        return [] if rep.ok else [
            f"kernel bound r={rep.r}: relative violation "
            f"{rep.max_relative_violation:.3e} > {rep.tolerance}"
        ]
    # same slack as the repository's acceptance check of this bound
    if not (math.isfinite(rep.margin) and rep.margin >= -1e-4):
        return [f"envelope ratio margin {rep.margin!r} < -1e-4"]
    return []
