"""Method-of-steps integration, sign-change counting, decay-bound checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayosc import (
    History,
    Trajectory,
    check_envelope_ratio,
    check_kernel_bound,
    count_sign_changes,
    integrate,
    lambda0,
)
from delayosc.sim import _detect_sign_changes

from conftest import char_root, make_constant_equation


@pytest.fixture(scope="module")
def control_traj(control_eq):
    mu = char_root(0.2)
    return integrate(control_eq, History.exponential(mu), 25.0, 1e-3)


# -- histories --------------------------------------------------------------


def test_history_forms():
    assert History.constant(2.5)(-3.7) == 2.5
    h = History.exponential(0.3)
    assert h(-2.0) == pytest.approx(math.exp(0.6), rel=1e-15)
    tab = History.tabulated([-2.0, -1.0, 0.0], [3.0, 1.0, 2.0])
    assert tab(-1.5) == pytest.approx(2.0)
    assert tab.start == -2.0
    with pytest.raises(ValueError, match="insufficient history"):
        tab(-2.5)


def test_history_validation():
    with pytest.raises(ValueError, match="equal length"):
        History.tabulated([-1.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="two samples"):
        History.tabulated([0.0], [1.0])
    with pytest.raises(ValueError, match="increasing"):
        History.tabulated([-1.0, -1.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="extend to t = 0"):
        History.tabulated([-3.0, -2.0], [1.0, 1.0])


# -- integration ------------------------------------------------------------


def test_zero_coefficients_keep_history_level(zero_eq):
    traj = integrate(zero_eq, History.constant(1.0), 10.0, 0.01)
    assert np.all(traj.values == 1.0)
    assert np.all(traj.derivs == 0.0)
    assert count_sign_changes(traj) == 0


def test_exponential_solution_matches_closed_form(control_eq):
    # x(t) = e^{-mu t} solves the equation exactly when mu = 0.2 e^{mu}
    mu = char_root(0.2)
    traj = integrate(control_eq, History.exponential(mu), 20.0, 1e-3)
    err = np.max(np.abs(traj.values - np.exp(-mu * traj.times)))
    assert err < 1e-6
    assert count_sign_changes(traj) == 0


def test_fourth_order_convergence(control_eq):
    # halve the step on a coarse ladder where truncation error dominates
    mu = char_root(0.2)
    errs = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate(control_eq, History.exponential(mu), 20.0, h)
        errs.append(np.max(np.abs(traj.values - np.exp(-mu * traj.times))))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_dense_output(control_traj):
    mu = char_root(0.2)
    for t in (-0.5, 0.0):
        assert control_traj(t) == pytest.approx(math.exp(-mu * t), rel=1e-12)
    for t in (0.00037, 5.2171, 24.9993):
        assert control_traj(t) == pytest.approx(math.exp(-mu * t), rel=1e-6)
    with pytest.raises(ValueError, match="beyond"):
        control_traj(25.1)


def test_integration_validation(control_eq, demo_eq):
    hist = History.constant(1.0)
    with pytest.raises(ValueError, match="h_step"):
        integrate(control_eq, hist, 5.0, 0.0)
    with pytest.raises(ValueError, match="t_end"):
        integrate(control_eq, hist, -1.0, 0.01)
    # the step must stay below the smallest lag
    with pytest.raises(ValueError, match="smallest lag"):
        integrate(control_eq, hist, 5.0, 1.0)
    # tabulated history shorter than the largest lag (5.1 here)
    short = History.tabulated([-3.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="history"):
        integrate(demo_eq, short, 5.0, 1e-2)


def test_linearity(control_eq):
    # doubling the history doubles every float exactly: all RK operations
    # are linear and scaling by a power of two never rounds
    ts = np.linspace(-1.5, 0.0, 301)
    samples = np.exp(-char_root(0.2) * ts)
    base = integrate(control_eq, History.tabulated(ts, samples), 8.0, 0.01)
    scaled = integrate(control_eq, History.tabulated(ts, 2.0 * samples), 8.0, 0.01)
    assert np.array_equal(scaled.values, 2.0 * base.values)
    assert count_sign_changes(scaled) == count_sign_changes(base)


def test_sign_count_invariant_under_scaling(demo_eq):
    a = integrate(demo_eq, History.constant(1.0), 60.0, 2e-3)
    b = integrate(demo_eq, History.constant(-0.7), 60.0, 2e-3)
    assert count_sign_changes(a) >= 3
    assert count_sign_changes(b) == count_sign_changes(a)


# -- sign-change bookkeeping ------------------------------------------------


def _fake_traj(values, h=1.0):
    values = np.asarray(values, dtype=float)
    times = np.arange(len(values)) * h
    return Trajectory(
        h_step=h,
        times=times,
        values=values,
        derivs=np.zeros_like(values),
        history=History.constant(values[0]),
        sign_changes=_detect_sign_changes(times, values),
    )


def test_alternating_samples():
    traj = _fake_traj([(-1.0) ** k for k in range(11)])  # flips each unit
    assert count_sign_changes(traj) == 10
    assert count_sign_changes(traj, window=(0.0, 10.0)) == 10
    assert count_sign_changes(traj, window=(2.5, 6.5)) == 3


def test_exact_zero_runs_count_once():
    assert count_sign_changes(_fake_traj([1.0, 0.0, 0.0, -1.0])) == 1
    assert count_sign_changes(_fake_traj([1.0, 0.0, 1.0])) == 1
    assert count_sign_changes(_fake_traj([1.0, 2.0, 3.0])) == 0


def test_window_validation(control_traj):
    with pytest.raises(ValueError, match="outside"):
        count_sign_changes(control_traj, window=(0.0, 100.0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 3.0]), min_size=2, max_size=40))
def test_sign_count_matches_naive_property(vals):
    naive = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0.0)
    assert count_sign_changes(_fake_traj(vals)) == naive


# -- decay-bound check ------------------------------------------------------


def test_kernel_bound_zero_at_coincident_pairs(control_eq, control_traj):
    rep = check_kernel_bound(control_eq, control_traj, 1, [(4.0, 4.0), (9.5, 9.5)])
    assert rep.max_violation == 0.0
    assert rep.ok


def test_kernel_bound_on_control(control_eq, control_traj):
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(100):
        s, t = sorted(rng.uniform(5.0, 20.0, 2))
        pairs.append((s, t))
    r1 = check_kernel_bound(control_eq, control_traj, 1, pairs)
    r2 = check_kernel_bound(control_eq, control_traj, 2, pairs)
    assert r1.ok and r2.ok
    assert r1.pairs_checked == r2.pairs_checked == 100
    assert not r1.flagged_pairs and not r2.flagged_pairs
    # deeper kernel tightens the inequality: the signed violation grows
    assert r2.max_violation >= r1.max_violation


def test_kernel_bound_rejects_sign_changing_solution(demo_eq):
    traj = integrate(demo_eq, History.constant(1.0), 30.0, 2e-3)
    with pytest.raises(ValueError, match="positive"):
        check_kernel_bound(demo_eq, traj, 1, [(4.0, 6.0)])


def test_kernel_bound_rejects_bad_pair(control_eq, control_traj):
    with pytest.raises(ValueError, match="out of order"):
        check_kernel_bound(control_eq, control_traj, 1, [(6.0, 4.0)])


# -- envelope-ratio check ---------------------------------------------------


def test_envelope_ratio_on_control(control_eq, control_traj):
    mu = char_root(0.2)
    rep = check_envelope_ratio(control_eq, control_traj)
    # the closed-form ratio x(t-1)/x(t) is exactly e^{mu}
    assert rep.min_ratio == pytest.approx(math.exp(mu), rel=1e-6)
    assert rep.lambda0 == pytest.approx(lambda0(0.2), abs=1e-6)
    # the ratio equals lambda0 in exact arithmetic, so the margin is zero up
    # to lambda0's bisection tolerance (1e-13) and the simulator's rounding
    assert abs(rep.margin) <= 2e-13
    assert rep.n_samples == 2000


def test_envelope_ratio_near_degenerate_limit():
    # tiny coefficient: lambda0 and the ratio both collapse toward 1
    eq = make_constant_equation(1e-3, 1.0)
    mu = char_root(1e-3)
    traj = integrate(eq, History.exponential(mu), 12.0, 5e-3)
    rep = check_envelope_ratio(eq, traj)
    assert rep.margin >= -1e-9
    assert rep.min_ratio == pytest.approx(1.0, abs=2e-3)
    assert rep.lambda0 == pytest.approx(1.0, abs=2e-3)


def test_envelope_ratio_rejects_sign_changes(demo_eq):
    traj = integrate(demo_eq, History.constant(1.0), 40.0, 2e-3)
    with pytest.raises(ValueError, match="positive"):
        check_envelope_ratio(demo_eq, traj)
