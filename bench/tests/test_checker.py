"""Every correctness check of the benchmark fires on a perturbed input."""

import contextlib
import copy
import io
import json
import math
import os

import numpy as np
import pytest

import checker
import gen
from delayosc import cli

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(HERE, "refs.json")) as fh:
    REFS = json.load(fh)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return gen.write_configs(tmp_path_factory.mktemp("cfg"), gen.configs_for(0))


def run_check(path, r, out):
    code = cli.main(["check", path, "--r", str(r), "--out", str(out)])
    with open(out) as fh:
        return json.load(fh), code


@pytest.fixture(scope="module")
def control_r1(paths, tmp_path_factory):
    return run_check(paths["control"], 1, tmp_path_factory.mktemp("out") / "r1.json")


def test_reference_passes(control_r1):
    report, code = control_r1
    assert checker.against_reference(report, code, REFS["check"]["check.control.r1"]) == []


def test_perturbed_alpha_fails(control_r1):
    report, code = copy.deepcopy(control_r1)
    report["alpha"] += 1e-5
    assert checker.against_reference(report, code, REFS["check"]["check.control.r1"])


def test_perturbed_criterion_value_fails(control_r1):
    report, code = copy.deepcopy(control_r1)
    report["criteria"][3]["value"] += 1e-5
    assert checker.against_reference(report, code, REFS["check"]["check.control.r1"])


def test_wrong_witness_fails(control_r1):
    report, code = copy.deepcopy(control_r1)
    report["witness"] = "ladde_1_3"
    fails = checker.against_reference(report, code, REFS["check"]["check.control.r1"])
    assert any("witness" in f for f in fails)


def test_wrong_exit_code_fails(control_r1):
    report, code = control_r1
    assert checker.against_reference(report, 0, REFS["check"]["check.control.r1"])


def test_non_finite_value_fails(control_r1):
    report, code = copy.deepcopy(control_r1)
    report["criteria"][5]["value"] = math.nan
    assert any("not finite" in f for f in checker.consistency(report, code))


@pytest.mark.parametrize("r", [1, 2])
def test_closed_forms_match_the_control_equation(paths, tmp_path, r):
    # the control equation is the constant family with p = 0.2, L = 1
    report, code = run_check(paths["control"], r, tmp_path / "out.json")
    assert checker.against_constant(report, code, 0.2, 1.0, r) == []
    report["criteria"][3]["value"] += 1e-5
    assert checker.against_constant(report, code, 0.2, 1.0, r)


def test_closed_forms_flag_alpha(control_r1):
    report, code = copy.deepcopy(control_r1)
    report["alpha"] += 1e-5
    assert checker.against_constant(report, code, 0.2, 1.0, 1)


def test_bcs_closed_form_recursion():
    p, lag = 0.1, 2.0
    c2 = p * math.exp(p * lag)
    want = p * (math.exp(c2 * lag) - 1.0) / c2
    got = checker.constant_expectations(p, lag, 2)["rows"]["bcs_1_8"][0]
    assert got == pytest.approx(want, rel=1e-15)


def test_piecewise_inequalities(control_r1):
    report, code = copy.deepcopy(control_r1)
    assert checker.against_piecewise(report, code) == []
    report["alpha"] = report["criteria"][2]["value"] + 1e-6
    assert any("kwong" in f for f in checker.against_piecewise(report, code))
    report, code = copy.deepcopy(control_r1)
    report["criteria"][5]["value"] = report["criteria"][3]["value"] + 2e-6
    assert any("main_2_8" in f for f in checker.against_piecewise(report, code))


def simulate(path, out, *extra):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["simulate", path, *extra, "--out", str(out)])
    return code, buf.getvalue().strip()


def test_changed_csv_byte_fails(paths, tmp_path):
    out = tmp_path / "x.csv"
    code, summary = simulate(paths["control"], out)
    ref = REFS["simulate"]["control"]
    assert checker.against_simulate_reference(code, summary, checker.sha256_of(out), ref) == []
    data = bytearray(out.read_bytes())
    data[100] = ord("7") if data[100] != ord("7") else ord("8")
    out.write_bytes(bytes(data))
    fails = checker.against_simulate_reference(code, summary, checker.sha256_of(out), ref)
    assert any("sha256" in f for f in fails)
    fails = checker.against_simulate_reference(code, summary + " ", checker.sha256_of(out), ref)
    assert any("summary" in f for f in fails)


def test_exponential_solution(paths, tmp_path):
    mu = checker.char_root(0.2)
    assert mu == pytest.approx(0.2 * math.exp(mu), rel=1e-14)
    out = tmp_path / "e.csv"
    code, summary = simulate(paths["control"], out, "--history", f"exp:{mu!r}", "--t-end", "5")
    assert checker.against_exponential(code, summary, str(out), mu) == []
    assert checker.against_exponential(code, summary, str(out), mu * (1 + 1e-4))


class Report:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def test_structural_checks_fire():
    ok = Report(r=1, ok=True, max_relative_violation=-1e-3, tolerance=1e-5)
    bad = Report(r=1, ok=False, max_relative_violation=1e-3, tolerance=1e-5)
    assert checker.against_structural("kernel_bound", ok) == []
    assert checker.against_structural("kernel_bound", bad)
    assert checker.against_structural("envelope_ratio", Report(margin=0.01)) == []
    assert checker.against_structural("envelope_ratio", Report(margin=-0.01))
    assert checker.against_structural("envelope_ratio", Report(margin=np.nan))
