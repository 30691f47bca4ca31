"""Method-of-steps integration, sign-change counting, decay-bound checks."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayosc import (
    History,
    Trajectory,
    check_all,
    check_envelope_ratio,
    check_kernel_bound,
    count_sign_changes,
    decay_kernel,
    integrate,
    lambda0,
)
from delayosc.sim import _detect_sign_changes

from conftest import (
    char_root,
    make_constant_equation,
    make_demo_equation,
    make_random_equation,
    make_rescaled_equation,
)


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
    for make in (lambda: History.constant(math.nan), lambda: History.exponential(math.inf),
                 lambda: History.tabulated([math.nan, -1.0, 0.0], [1.0, 1.0, 1.0]),
                 lambda: History.tabulated([-2.0, -1.0, 0.0], [1.0, -math.inf, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            make()


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
    for t_end, h_step in ((5.0, math.nan), (-1.0, 0.01), (math.inf, 0.01), (math.nan, 0.01)):
        with pytest.raises(ValueError, match="h_step" if t_end == 5.0 else "t_end"):
            integrate(control_eq, hist, t_end, h_step)
    # x(-1) = e^800 overflows, so x does after the first step
    with pytest.raises(ValueError, match="double range at t=0.01$"):
        integrate(control_eq, History.exponential(800.0), 1.0, 0.01)
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


# -- the block integrator against a step-by-step reference ------------------


def _ref_hermite(dt, h, y0, y1, m0, m1):
    s = dt / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * y0 + h10 * h * m0 + h01 * y1 + h11 * h * m1


def _ref_scalar(f):
    """Scalar evaluation of a periodic piecewise-linear function, one
    bisection per call."""
    ts, vs, slopes = f._ts.tolist(), f._vs.tolist(), f._slopes.tolist()

    def value(t):
        u = math.fmod(t, f.period)
        if u < 0.0:
            u += f.period
        j = min(bisect_right(ts, u) - 1, len(ts) - 2)
        return vs[j] + slopes[j] * (u - ts[j]) + f.offset

    return value


def _ref_history(history, t):
    if history.kind == "constant":
        return history.level
    if history.kind == "exponential":
        return math.exp(-history.rate * t)
    return float(np.interp(t, history.times, history.samples))


def _ref_integrate(eq, history, t_end, h):
    """One scalar Simpson step at a time, each lookup clamped to the steps
    finished so far: the block integrator must match it to the bit."""
    n = int(round(t_end / h))
    if abs(n * h - t_end) > 1e-9 * t_end:
        n = int(math.ceil(t_end / h - 1e-12))
    xs = [0.0] * (n + 1)
    ds = [0.0] * (n + 1)
    terms = [(_ref_scalar(c), _ref_scalar(d)) for c, d in zip(eq.coefficients, eq.lags)]

    def lookup(theta, completed):
        if theta <= 0.0:
            return _ref_history(history, theta)
        j = min(int(theta / h), completed - 1)
        return _ref_hermite(theta - j * h, h, xs[j], xs[j + 1], ds[j], ds[j + 1])

    def deriv(t, completed):
        acc = 0.0
        for c, d in terms:
            acc += c(t) * lookup(t - d(t), completed)
        return -acc

    xs[0] = _ref_history(history, 0.0)
    ds[0] = deriv(0.0, 0)
    for k in range(n):
        t = k * h
        fm = deriv(t + 0.5 * h, k)
        f1 = deriv(t + h, k)
        xs[k + 1] = xs[k] + (h / 6.0) * (ds[k] + 4.0 * fm + f1)
        ds[k + 1] = f1
    times = h * np.arange(n + 1)
    values = np.asarray(xs)
    return times, values, np.asarray(ds), _naive_sign_changes(times, values)


def _reference_cases():
    """(id, equation, t_end, step): the demo and the control at the usual
    steps, seeded random draws, the control at steps where a block is
    one step (min_lag / h = 1.67) and two steps (3.33), and the demo at a
    t_end that is not a step multiple, at three time scales."""
    demo = make_demo_equation()
    control = make_constant_equation(0.2, 1.0)
    cases = [("demo", demo, 10.0, 2e-3), ("control", control, 10.0, 2e-3)]
    rng = np.random.default_rng(20261019)
    for i in range(4):
        eq = make_random_equation(rng)
        cases.append((f"random{i}", eq, 15.0, eq.min_lag / 37.0))
    cases += [("block1", control, 60.0, 0.6), ("block2", control, 60.0, 0.3)]
    for p in (0, -20, -66):
        c = 2.0**p
        cases.append((f"demo-2^{p}", make_rescaled_equation(demo, c), 0.0255 * c, 1e-3 * c))
    return cases


def _tabulated_for(eq):
    ts = np.linspace(-eq.max_lag - 0.5, 0.0, 41)
    return History.tabulated(ts, np.cos(ts) + 0.5)


@pytest.mark.parametrize(
    "eq,t_end,h", [c[1:] for c in _reference_cases()], ids=[c[0] for c in _reference_cases()]
)
def test_block_integrator_equals_step_by_step_reference(eq, t_end, h):
    for history in (History.constant(1.0), _tabulated_for(eq)):
        traj = integrate(eq, history, t_end, h)
        # the last step reaches t_end, at any time scale
        assert traj.t_end >= t_end * (1.0 - 1e-9)
        times, values, derivs, changes = _ref_integrate(eq, history, t_end, h)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.values.tobytes() == values.tobytes()
        assert traj.derivs.tobytes() == derivs.tobytes()
        assert traj.sign_changes == changes
    # np.exp and math.exp may differ by an ulp, so the exponential history
    # agrees to rounding, not to the bit
    history = History.exponential(0.5)
    traj = integrate(eq, history, t_end, h)
    _, values, derivs, _ = _ref_integrate(eq, history, t_end, h)
    assert np.max(np.abs(traj.values - values)) <= 1e-12 * np.max(np.abs(values))
    assert np.max(np.abs(traj.derivs - derivs)) <= 1e-12 * np.max(np.abs(derivs))


def test_dense_lookup_matches_scalar_hermite(control_traj):
    tr, h = control_traj, control_traj.h_step
    x, d = tr.values, tr.derivs
    ts = np.linspace(1e-4, tr.t_end, 997)
    ref = []
    for t in ts.tolist():
        j = min(int(t / h), len(tr.times) - 2)
        ref.append(_ref_hermite(t - tr.times[j], h, x[j], x[j + 1], d[j], d[j + 1]))
    assert tr.at(ts).tobytes() == np.asarray(ref).tobytes()
    assert tr.at(ts.reshape(1, -1)).shape == (1, 997)


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


def _naive_sign_changes(times, values):
    """Sign changes one sample at a time, a run of exact zeros once."""
    changes = []
    in_zero = False
    for k in range(len(values)):
        v = values[k]
        if v == 0.0:
            if not in_zero:
                changes.append((float(times[k]), float(times[k])))
                in_zero = True
        else:
            in_zero = False
            if k > 0 and values[k - 1] != 0.0 and values[k - 1] * v < 0.0:
                changes.append((float(times[k - 1]), float(times[k])))
    return tuple(changes)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]), min_size=2, max_size=40))
def test_sign_count_matches_naive_property(vals):
    traj = _fake_traj(vals)
    assert traj.sign_changes == _naive_sign_changes(traj.times, traj.values)
    if 0.0 not in vals:
        naive = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0.0)
        assert count_sign_changes(traj) == naive


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


def test_kernel_bound_rejects_no_pairs(control_eq, control_traj):
    with pytest.raises(ValueError, match="at least one"):
        check_kernel_bound(control_eq, control_traj, 1, [])


def test_kernel_bound_matches_pair_by_pair(control_eq, control_traj):
    rng = np.random.default_rng(4)
    pairs = [tuple(np.sort(rng.uniform(5.0, 20.0, 2)).tolist()) for _ in range(50)]
    rel = []
    for s, t in pairs:
        x_s, x_t = control_traj(s), control_traj(t)
        rel.append((x_t * decay_kernel(control_eq, 2, t, s) - x_s) / x_s)
    tol = float(np.median(rel))
    rep = check_kernel_bound(control_eq, control_traj, 2, pairs, tol=tol)
    assert type(rep.max_violation) is float
    assert type(rep.max_relative_violation) is float
    assert rep.max_relative_violation == max(rel)
    assert rep.flagged_pairs == tuple(p for p, v in zip(pairs, rel) if v > tol)
    assert all(type(x) is float for pair in rep.flagged_pairs for x in pair)


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


def test_envelope_ratio_rejects_no_samples(control_eq, control_traj):
    with pytest.raises(ValueError, match="n_samples"):
        check_envelope_ratio(control_eq, control_traj, 0.2, n_samples=0)


def test_envelope_ratio_rejects_a_trajectory_that_ends_before_its_window(control_eq):
    # the window starts at t_stab + max_lag + P = 2 on the control
    traj = integrate(control_eq, History.exponential(char_root(0.2)), 2.0, 1e-2)
    with pytest.raises(ValueError, match=r"ratio window \[2\.0, 2\.0\] not usable"):
        check_envelope_ratio(control_eq, traj)


def test_envelope_ratio_rejects_sign_changes(demo_eq):
    traj = integrate(demo_eq, History.constant(1.0), 40.0, 2e-3)
    with pytest.raises(ValueError, match="positive"):
        check_envelope_ratio(demo_eq, traj)


# -- verdict oracle -----------------------------------------------------------


def test_oscillatory_verdicts_oscillate_in_simulation():
    # the criteria are sufficient conditions: when check says oscillatory,
    # every solution changes sign, so a simulation from a positive history
    # must too; draws are filtered by nothing but their verdict
    rng = np.random.default_rng(20261019)
    eqs = [make_demo_equation()] + [make_random_equation(rng) for _ in range(60)]
    oscillatory = [eq for eq in eqs if check_all(eq, r=3).overall == "oscillatory"]
    assert len(oscillatory) == 6  # the demo and 5 of the draws
    for eq in oscillatory:
        horizon = 30.0 * (eq.max_lag + eq.period)
        h = min(1e-2, eq.min_lag / 8.0)
        for history in (History.constant(1.0), History.exponential(0.5)):
            traj = integrate(eq, history, horizon, h)
            assert count_sign_changes(traj, window=(0.0, traj.t_end)) >= 1
