"""Running supremum of the delay argument and the combined envelope."""

import numpy as np
import pytest

from delayosc import (
    DelayEquation,
    PiecewisePeriodic,
    combined_envelope,
    running_sup,
    tau_max,
    tau_min,
)
from delayosc.envelope import _poly_eval, tau_max_values

from conftest import make_random_equation


@pytest.fixture(scope="module")
def demo_env(demo_eq):
    return combined_envelope(demo_eq)


# -- demo geometry ----------------------------------------------------------


def test_three_branch_envelope(demo_eq):
    """h of the first demo lag: rise t-1, plateau, steep rise slope 5."""
    h = running_sup(demo_eq.lags[0])
    assert h.t_stab == 0.0
    for k in (0, 1, 3):
        b = 3.0 * k
        # plateau at value 3k across [3k+1, 3k+2.6]
        for t in (b + 1.0, b + 1.7, b + 2.3, b + 2.6):
            assert h(t) == pytest.approx(b, abs=1e-12)
        assert h(b + 0.5) == pytest.approx(b - 0.5, abs=1e-12)  # t - 1 branch
        assert h(b + 2.8) == pytest.approx(b + 1.0, abs=1e-12)  # slope-5 branch


def test_envelope_breakpoints_exact(demo_eq):
    h = running_sup(demo_eq.lags[0])
    knots = h.knots(0.0, 3.0)
    assert len(knots) == 4
    assert np.allclose(knots, [0.0, 1.0, 2.6, 3.0], atol=1e-12)


def test_shifted_lag_shifts_envelope(demo_eq):
    h1 = running_sup(demo_eq.lags[0])
    h2 = running_sup(demo_eq.lags[1])
    ts = np.linspace(0.0, 12.0, 601)
    assert np.allclose(h2.values(ts), h1.values(ts) - 0.1, atol=1e-12)


def test_combined_equals_first(demo_eq, demo_env):
    h1 = running_sup(demo_eq.lags[0])
    ts = np.linspace(0.0, 12.0, 601)
    assert np.allclose(demo_env.values(ts), h1.values(ts), atol=1e-12)


def test_combined_symmetric_under_swap(demo_eq, demo_env):
    swapped = DelayEquation(
        coefficients=demo_eq.coefficients[::-1], lags=demo_eq.lags[::-1]
    )
    ts = np.linspace(0.0, 12.0, 601)
    assert np.allclose(combined_envelope(swapped).values(ts), demo_env.values(ts))


def test_monotone_delay_envelope_is_identity(control_eq):
    # lag 1 everywhere: tau(t) = t - 1 is nondecreasing, so h == tau
    h = combined_envelope(control_eq)
    ts = np.linspace(0.0, 10.0, 401)
    assert np.max(np.abs(h.values(ts) - (ts - 1.0))) < 1e-12


def test_single_term_combined_matches_running_sup(control_eq):
    ha = combined_envelope(control_eq)
    hb = running_sup(control_eq.lags[0])
    ts = np.linspace(0.0, 7.0, 301)
    assert np.allclose(ha.values(ts), hb.values(ts), atol=1e-12)


# -- pointwise extreme delays ----------------------------------------------


def test_tau_max_demo_branch(demo_eq):
    for k in (0, 2):
        for t in (3.0 * k + 0.2, 3.0 * k + 1.0):
            assert tau_max(demo_eq, t) == pytest.approx(t - 1.0, abs=1e-12)


def test_tau_min_is_shifted_tau_max(demo_eq):
    for t in (0.3, 1.9, 2.7, 5.05, 11.6):
        assert tau_min(demo_eq, t) == pytest.approx(tau_max(demo_eq, t) - 0.1, abs=1e-12)


def test_single_term_tau_extremes_coincide(control_eq):
    for t in (0.0, 1.3, 6.8):
        assert tau_max(control_eq, t) == tau_min(control_eq, t) == t - 1.0


def test_tau_max_values_vectorised(demo_eq):
    ts = np.linspace(0.0, 9.0, 181)
    assert np.allclose(
        tau_max_values(demo_eq, ts), [tau_max(demo_eq, t) for t in ts], atol=1e-14
    )


# -- invariants -------------------------------------------------------------


def _dense_grid(env, eq, t_hi):
    ts = np.linspace(0.0, t_hi, 1500)
    return np.unique(np.concatenate([ts, env.knots(0.0, t_hi)]))


def test_envelope_nondecreasing(demo_eq, demo_env):
    ts = _dense_grid(demo_env, demo_eq, 15.0)
    hs = demo_env.values(ts)
    assert np.all(np.diff(hs) >= -1e-12)


def test_envelope_bounds(demo_eq, demo_env):
    ts = _dense_grid(demo_env, demo_eq, 15.0)[1:]  # skip t = 0
    hs = demo_env.values(ts)
    assert np.all(tau_max_values(demo_eq, ts) <= hs + 1e-12)
    assert np.all(hs < ts)
    assert np.all(hs <= ts - demo_eq.min_lag + 1e-12)


def test_envelope_slopes_come_from_delay_segments(demo_eq, demo_env):
    # every envelope piece is flat or inherits a rising delay-argument slope
    poly = demo_env.polyline(0.0, 9.0)
    slopes = set()
    for (t0, y0), (t1, y1) in zip(poly, poly[1:]):
        if t1 > t0:
            slopes.add(round((y1 - y0) / (t1 - t0), 9))
    assert slopes <= {0.0, 1.0, 5.0}


def test_stabilisation_detected_after_one_period():
    """A lag whose delay argument peaks mid-period stabilises at t = P.

    tau starts at -1.5 and first reaches its periodic running maximum
    during [0, 1]; the second period sits on the plateau from the first, so
    the lag form of h differs between the first and second periods.
    """
    lag = PiecewisePeriodic(
        period=2.0, breakpoints=((0.0, 1.5), (1.0, 0.2), (1.5, 1.8))
    )
    h = running_sup(lag)
    assert h.t_stab == 2.0
    ts = np.linspace(0.0, 10.0, 1001)
    hs = h.values(ts)
    assert np.all(np.diff(hs) >= -1e-12)
    # periodic from t_stab onward: h(t + P) = h(t) + P
    ts2 = np.linspace(2.0, 8.0, 601)
    assert np.allclose(h.values(ts2 + 2.0), h.values(ts2) + 2.0, atol=1e-12)
    # but not on the transient: the second period starts on a plateau the
    # first period has not built up yet
    assert abs(h(2.05) - (h(0.05) + 2.0)) > 0.1


def _scaled_equation(period):
    """The same equation at every time scale: a lag falling from 2P to P."""
    lag = PiecewisePeriodic(period, ((0.0, 2.0 * period), (period / 16.0, period)))
    return DelayEquation((PiecewisePeriodic(period, ((0.0, 0.1 / period),)),), (lag,))


@pytest.mark.parametrize("period", [10.0**2.5, 10.0**3.5, 1e6, 10.0**7.5])
def test_stabilisation_is_detected_at_any_scale(period):
    # the lag form carries the rounding of absolute times up to 3P, past an
    # absolute 1e-12 from P ~ 300 on: the windows must match relative to P
    unit = combined_envelope(_scaled_equation(1.0))
    env = combined_envelope(_scaled_equation(period))
    assert env.t_stab == period * unit.t_stab
    ts = np.linspace(0.0, 6.0, 601)
    assert np.allclose(env.values(ts * period) / period, unit.values(ts), rtol=0, atol=1e-12)


def test_envelope_rejects_negative_time(demo_env):
    with pytest.raises(ValueError, match="t >= 0"):
        demo_env(-0.5)


def test_values_matches_scalar(demo_env):
    ts = np.linspace(0.0, 11.0, 223)
    assert np.allclose(demo_env.values(ts), [demo_env(t) for t in ts], atol=1e-14)


def test_transient_values_match_the_scalar_polyline():
    # the vectorised transient branch against the per-point polyline lookup,
    # bitwise, on draws that settle only after one period
    rng = np.random.default_rng(5)
    checked = 0
    for k in range(12):
        env = combined_envelope(make_random_equation(np.random.default_rng(k)))
        if env.t_stab == 0.0:
            continue
        nodes = [t for t, _ in env.transient]
        ts = np.concatenate([rng.uniform(0.0, env.t_stab, 500), nodes[:-1]])
        expected = np.array([_poly_eval(list(env.transient), t) for t in ts])
        assert np.array_equal(env.values(ts).view(np.int64), expected.view(np.int64))
        checked += 1
    assert checked >= 2


def test_values_of_a_scalar_on_the_transient():
    # the first draw settles only after one period, so half of t_stab lies on
    # the transient polyline
    eq = make_random_equation(np.random.default_rng(0))
    env = combined_envelope(eq)
    assert env.t_stab > 0.0
    for t in (0.5 * env.t_stab, env.t_stab + 0.3):
        got = env.values(t)
        assert np.ndim(got) == 0
        assert got == env(t)
