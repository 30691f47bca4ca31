"""The package's public names, loaded on first use, and the CLI's engine
names, which a caller may rebind."""

import importlib
from pathlib import Path

import pytest

import delayosc
from delayosc import cli

_CONTROL = str(Path(__file__).resolve().parent.parent / "configs" / "single_lag_control.json")

PUBLIC = {
    "model": ("PiecewisePeriodic", "DelayEquation"),
    "envelope": ("EnvelopeFunction", "running_sup", "combined_envelope", "tau_max", "tau_min"),
    "kernel": (
        "KernelCache",
        "decay_kernel",
        "inner_criterion_integral",
        "outer_criterion_integral",
        "term_integral",
    ),
    "criteria": (
        "alpha",
        "alpha_over_envelope",
        "hunt_yorke_liminf",
        "kwong_limsup",
        "lambda0",
        "limsup_envelope_integral",
        "check_all",
        "CheckReport",
        "CriterionVerdict",
        "ScanExtremum",
        "CRITERIA_ORDER",
    ),
    "sim": (
        "History",
        "Trajectory",
        "integrate",
        "count_sign_changes",
        "check_kernel_bound",
        "check_envelope_ratio",
        "KernelBoundReport",
        "EnvelopeRatioReport",
    ),
}


def test_all_lists_each_public_name_once():
    names = [n for group in PUBLIC.values() for n in group] + ["__version__"]
    assert len(names) == 32
    assert sorted(delayosc.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_their_submodules_objects(module):
    sub = importlib.import_module(f"delayosc.{module}")
    listed = dir(delayosc)
    for name in PUBLIC[module]:
        assert getattr(delayosc, name) is getattr(sub, name)
        assert name in listed


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from delayosc import *", namespace)
    assert set(delayosc.__all__) <= set(namespace)
    assert namespace["check_all"] is delayosc.criteria.check_all
    assert namespace["__version__"] == delayosc.__version__


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'delayosc' has no attribute 'no_such'"):
        delayosc.no_such
    with pytest.raises(AttributeError, match="module 'delayosc.cli' has no attribute 'no_such'"):
        cli.no_such
    assert not hasattr(delayosc, "no_such")


def test_from_import_of_a_submodule():
    from delayosc import cli as again, kernel

    assert again is cli
    assert kernel.DEFAULT_TOL == delayosc.model.DEFAULT_TOL


def test_rebinding_an_engine_name_redirects_main(capsys, tmp_path):
    calls = []

    def fake(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("fake engine")

    for name, argv in (
        ("check_all", ["check", _CONTROL]),
        ("integrate", ["simulate", _CONTROL, "--t-end", "1", "--out", str(tmp_path / "x.csv")]),
    ):
        real = getattr(cli, name)
        setattr(cli, name, fake)
        try:
            assert cli.main(argv) == 1
        finally:
            setattr(cli, name, real)
        assert capsys.readouterr().err == "error: RuntimeError: fake engine\n"
        assert len(calls) == 1 and calls.pop()[0].period == 1.0
        # the control does not have to oscillate: check exits 3, simulate 0
        assert cli.main(argv) == (3 if name == "check_all" else 0)
        assert capsys.readouterr().err == ""
        assert calls == []
