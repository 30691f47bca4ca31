"""Asymptotic constants, fixed point, thresholds, and verdict assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayosc import (
    CRITERIA_ORDER,
    DelayEquation,
    PiecewisePeriodic,
    alpha,
    alpha_over_envelope,
    check_all,
    hunt_yorke_liminf,
    kwong_limsup,
    lambda0,
    limsup_envelope_integral,
)

from conftest import fixed_point_lambda, make_constant_equation, make_random_equation

INV_E = math.exp(-1.0)


# -- liminf constants -------------------------------------------------------


def test_alpha_values(demo_eq, control_eq, zero_eq):
    assert alpha(demo_eq) == pytest.approx(0.27, abs=1e-6)
    assert alpha(control_eq) == pytest.approx(0.2, abs=1e-9)
    assert alpha(zero_eq) == pytest.approx(0.0, abs=1e-12)


def test_alpha_constant_product():
    # constant sum P0 and constant lag tau0 give exactly P0 * tau0
    eq = make_constant_equation(0.25, 1.3, period=2.0)
    assert alpha(eq) == pytest.approx(0.25 * 1.3, abs=1e-9)


def test_liminf_agrees_over_envelope(demo_eq, control_eq):
    # the envelope only flattens the delay argument where it dips, which
    # cannot change the liminf
    for eq in (demo_eq, control_eq, make_constant_equation(0.15, 2.2, period=1.5)):
        assert abs(alpha(eq) - alpha_over_envelope(eq)) < 1e-7


def test_liminf_agrees_on_random_equations():
    rng = np.random.default_rng(7)
    for _ in range(3):
        eq = make_random_equation(rng)
        assert abs(alpha(eq) - alpha_over_envelope(eq)) < 1e-7


def test_hunt_yorke_values(demo_eq, zero_eq):
    assert hunt_yorke_liminf(demo_eq) == pytest.approx(0.2835, abs=1e-6)
    assert hunt_yorke_liminf(zero_eq) == pytest.approx(0.0, abs=1e-12)


def test_hunt_yorke_constant_closed_form():
    p1 = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.12),))
    p2 = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.05),))
    d1 = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.8),))
    d2 = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 2.0),))
    eq = DelayEquation(coefficients=(p1, p2), lags=(d1, d2))
    assert hunt_yorke_liminf(eq) == pytest.approx(0.12 * 0.8 + 0.05 * 2.0, abs=1e-9)


def test_kwong_limsup_constant(control_eq):
    assert kwong_limsup(control_eq) == pytest.approx(0.2, abs=1e-9)


def test_grid_doubling_stability(demo_eq):
    a1 = alpha(demo_eq, n_grid=2000)
    a2 = alpha(demo_eq, n_grid=4000)
    assert abs(a1 - a2) < 5e-8
    f1 = limsup_envelope_integral(demo_eq, 1, "inner", n_grid=500).value
    f2 = limsup_envelope_integral(demo_eq, 1, "inner", n_grid=1000).value
    assert abs(f1 - f2) < 5e-8


# -- fixed point ------------------------------------------------------------


def test_lambda0_reference_value():
    got = lambda0(0.27)
    assert got == pytest.approx(1.49883, abs=1e-5)
    assert abs(math.exp(0.27 * got) - got) < 1e-10


def test_lambda0_against_iteration_oracle():
    for a in (0.05, 0.2, 0.27, 0.35):
        assert lambda0(a) == pytest.approx(fixed_point_lambda(a), abs=1e-9)


def test_lambda0_limits():
    assert lambda0(1e-9) == pytest.approx(1.0, abs=1e-6)
    # tangency: double root at e when alpha = 1/e
    assert lambda0(INV_E) == pytest.approx(math.e, abs=1e-4)


def test_lambda0_domain():
    for bad in (0.0, -0.1, INV_E + 1e-6, 1.0):
        with pytest.raises(ValueError, match="1/e"):
            lambda0(bad)


@settings(max_examples=150, deadline=None)
@given(st.floats(1e-6, INV_E))
def test_lambda0_residual_property(a):
    lam = lambda0(a)
    assert 1.0 <= lam <= math.e + 1e-9
    assert abs(math.exp(a * lam) - lam) < 1e-10


@settings(max_examples=150, deadline=None)
@given(st.floats(1e-6, INV_E))
def test_threshold_ordering_property(a):
    # the sharpened threshold never exceeds the coarse one (which is 1)
    lam = lambda0(a)
    sharp = (1.0 + math.log(lam)) / lam
    assert sharp <= 1.0 + 1e-12
    disc = 1.0 - 2.0 * a - a * a
    if disc >= 0.0:
        assert 1.0 - (1.0 - a - math.sqrt(disc)) / 2.0 <= 1.0 + 1e-12


# -- limsup of the criterion integrals --------------------------------------


def test_limsup_constant_equation(control_eq):
    inner = limsup_envelope_integral(control_eq, 1, "inner")
    outer = limsup_envelope_integral(control_eq, 1, "outer")
    assert inner.value == pytest.approx(0.2, rel=1e-7)
    assert outer.value == pytest.approx(math.expm1(0.2), rel=1e-7)


def test_limsup_kind_validation(control_eq):
    with pytest.raises(ValueError, match="kind"):
        limsup_envelope_integral(control_eq, 1, "sideways")


def test_limsup_sharpens_with_depth(demo_eq):
    inner1 = limsup_envelope_integral(demo_eq, 1, "inner").value
    inner2 = limsup_envelope_integral(demo_eq, 2, "inner").value
    assert inner2 >= inner1 * (1.0 - 1e-9)
    assert inner2 > inner1 + 0.1  # genuinely sharper here, not a tie


def test_limsup_past_float_range_is_inf_not_nan(demo_eq):
    # the depth-5 kernel overflows inside the integrand on the demo
    for kind in ("inner", "outer"):
        got = limsup_envelope_integral(demo_eq, 5, kind, n_grid=50)
        assert not math.isnan(got.value)
        assert math.isfinite(got.value) or got.value == math.inf


# -- verdict assembly -------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3])
def test_reported_values_are_plain_floats(demo_eq, control_eq, r):
    for eq in (demo_eq, control_eq):
        rep = check_all(eq, r, n_grid=50, n_grid_liminf=200)
        assert type(rep.alpha) is float
        for v in rep.verdicts:
            assert v.value is None or type(v.value) is float, v.name
        ext = limsup_envelope_integral(eq, r, "outer", n_grid=50)
        assert type(ext.value) is float and type(ext.t) is float


def test_check_all_demo_report(demo_eq):
    rep = check_all(demo_eq)
    assert rep.overall == "oscillatory"
    assert [v.name for v in rep.verdicts] == list(CRITERIA_ORDER)
    assert not rep["ladde_1_3"].satisfied
    assert not rep["hunt_yorke_1_4"].satisfied
    assert not rep["kwong_1_5"].applicable  # two terms
    assert not rep["bcs_1_8"].satisfied
    assert rep["bcs_1_9"].satisfied
    assert rep["main_2_8"].satisfied
    # first satisfied name in the fixed order is the witness
    assert rep.witness == "bcs_1_9"
    assert any("bcs_1_9" in note for note in rep.notes)


def test_check_all_inconclusive(control_eq, zero_eq):
    rep = check_all(control_eq)
    assert rep.overall == "inconclusive"
    assert rep.witness is None
    assert rep["kwong_1_5"].applicable  # single monotone term
    assert all(not v.satisfied for v in rep.verdicts)

    rep0 = check_all(zero_eq)
    assert rep0.overall == "inconclusive"
    assert rep0.lambda0 is None
    for name in ("kwong_1_5", "bcs_1_9", "main_2_8"):
        assert not rep0[name].applicable


def test_verdict_invariants(demo_eq, control_eq, zero_eq):
    for eq in (demo_eq, control_eq, zero_eq):
        rep = check_all(eq)
        for v in rep.verdicts:
            if v.satisfied:
                assert v.applicable
                assert v.margin is not None and v.margin > 1e-7
            if v.marginal:
                assert not v.satisfied
            if v.margin is not None and v.applicable:
                assert v.satisfied == (v.margin > 1e-7)


def test_marginal_at_the_threshold():
    # alpha = p * tau0 lands exactly on 1/e, within the strictness band
    eq = make_constant_equation(INV_E, 1.0)
    rep = check_all(eq)
    v = rep["ladde_1_3"]
    assert v.marginal and not v.satisfied
    assert any("marginal" in note for note in rep.notes)
    assert rep.overall == "inconclusive"


def test_kwong_gate_requires_monotone_delay():
    # lag slope 3 makes the delay argument decrease on the first half-period
    lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 1.0), (0.5, 2.5)))
    p = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.1),))
    rep = check_all(DelayEquation(coefficients=(p,), lags=(lag,)))
    assert not rep["kwong_1_5"].applicable


def test_margin_matches_value_and_threshold(demo_eq):
    rep = check_all(demo_eq)
    for v in rep.verdicts:
        if v.value is not None and v.threshold is not None:
            assert v.margin == pytest.approx(v.value - v.threshold, abs=1e-15)
