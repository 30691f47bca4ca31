"""Running supremum of the delay argument and the combined envelope."""

from bisect import bisect_right

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
from delayosc import envelope

from conftest import make_random_equation, make_rescaled_equation, nth_random_equation


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


def test_tau_max_and_tau_min_take_arrays(demo_eq):
    ts = np.linspace(0.0, 9.0, 181).reshape(1, -1)
    for tau in (tau_max, tau_min):
        got = tau(demo_eq, ts)
        assert got.shape == ts.shape
        want = [tau(demo_eq, float(t)) for t in ts.ravel()]
        assert all(type(v) is float for v in want)
        assert got.ravel().tobytes() == np.array(want).tobytes()


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
    assert np.all(tau_max(demo_eq, ts) <= hs + 1e-12)
    assert np.all(hs < ts)
    assert np.all(hs <= ts - demo_eq.min_lag + 1e-12)


def test_envelope_slopes_come_from_delay_segments(demo_eq, demo_env):
    # every envelope piece is flat or inherits a rising delay-argument slope
    ts, ys = demo_env.polyline(0.0, 9.0)
    assert np.all(np.diff(ts) > 0.0)
    slopes = set(np.round(np.diff(ys) / np.diff(ts), 9).tolist())
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
    # the lag form carries the rounding of absolute times up to 2P, past an
    # absolute 1e-12 from P ~ 300 on: t_stab must be decided relative to P
    unit = combined_envelope(_scaled_equation(1.0))
    env = combined_envelope(_scaled_equation(period))
    assert env.t_stab == period * unit.t_stab
    ts = np.linspace(0.0, 6.0, 601)
    assert np.allclose(env.values(ts * period) / period, unit.values(ts), rtol=0, atol=1e-12)


@pytest.mark.parametrize("power", [40, 66, 200, -40, -66, -200])
@pytest.mark.parametrize("k", [4, 18, 25])
def test_late_settling_is_detected_at_any_scale(k, power):
    # a power of two scales every time exactly, so t_stab, the transient and
    # the tail knots scale exactly too; these draws settle after one period,
    # and at periods of 1e-12 and below a settle check with an absolute
    # floor took them as settled at 0
    c = 2.0**power
    unit_eq = nth_random_equation(20261019, k)
    unit = combined_envelope(unit_eq)
    env = combined_envelope(make_rescaled_equation(unit_eq, c))
    assert unit.t_stab == unit_eq.period
    assert env.t_stab == c * unit.t_stab
    assert env.transient == tuple((c * t, c * y) for t, y in unit.transient)
    assert env.tail_lag.breakpoints == tuple((c * t, c * y) for t, y in unit.tail_lag.breakpoints)


def test_envelope_rejects_negative_time(demo_env):
    with pytest.raises(ValueError, match="t >= 0"):
        demo_env(-0.5)


def test_values_matches_scalar(demo_env):
    ts = np.linspace(0.0, 11.0, 223)
    assert np.allclose(demo_env.values(ts), [demo_env(t) for t in ts], atol=1e-14)


def _poly_eval(nodes, t):
    """Reference: the polyline of ``(t, y)`` nodes at ``t``, one point at a
    time in plain floats, its end segments extended."""
    ts = [p[0] for p in nodes]
    j = min(max(bisect_right(ts, t) - 1, 0), len(nodes) - 2)
    (t0, y0), (t1, y1) = nodes[j], nodes[j + 1]
    if t1 == t0:
        return y0
    return y0 + (y1 - y0) * (t - t0) / (t1 - t0)


def test_transient_values_match_the_scalar_polyline():
    # the vectorised transient branch against a per-point polyline lookup,
    # bitwise, on draws that settle only after one period
    rng = np.random.default_rng(5)
    checked = 0
    for k in range(12):
        env = combined_envelope(make_random_equation(np.random.default_rng(k)))
        if env.t_stab == 0.0:
            continue
        nodes = [t for t, _ in env.transient]
        ts = np.concatenate([rng.uniform(0.0, env.t_stab, 500), nodes[:-1]])
        expected = np.array([_poly_eval(env.transient, t) for t in ts.tolist()])
        assert np.array_equal(env.values(ts).view(np.int64), expected.view(np.int64))
        checked += 1
    assert checked >= 2


# -- the polyline toolkit against per-node loops -------------------------------


def _canonical_loop(nodes):
    """Reference: drop each interior node collinear with the last node kept
    and the next one."""
    if len(nodes) <= 2:
        return list(nodes)
    out = [nodes[0]]
    for k in range(1, len(nodes) - 1):
        t0, y0 = out[-1]
        t1, y1 = nodes[k]
        t2, y2 = nodes[k + 1]
        interp = y0 + (y2 - y0) * (t1 - t0) / (t2 - t0)
        if abs(interp - y1) > 1e-13 * max(1.0, abs(y1)):
            out.append(nodes[k])
    out.append(nodes[-1])
    return out


def _running_max_loop(nodes):
    """Reference: the running maximum of a polyline, segment by segment."""
    t0, y0 = nodes[0]
    out = [(t0, y0)]
    m = y0
    for (ta, ya), (tb, yb) in zip(nodes, nodes[1:]):
        if ya >= m and yb >= ya:
            out.append((tb, yb))
            m = yb
        elif yb <= m:
            out.append((tb, m))
        else:
            c = ta + (m - ya) * (tb - ta) / (yb - ya)
            if c > out[-1][0]:
                out.append((c, m))
            out.append((tb, yb))
            m = yb
    return _canonical_loop(out)


def _max_overlay_loop(p1, p2):
    """Reference: the pointwise maximum of two polylines, node by node."""
    ts = sorted({t for t, _ in p1} | {t for t, _ in p2})
    nodes = [(t, _poly_eval(p1, t), _poly_eval(p2, t)) for t in ts]
    out = []
    for k, (t, f, g) in enumerate(nodes):
        if k > 0:
            tp, fp, gp = nodes[k - 1]
            dp, dc = fp - gp, f - g
            if dp * dc < 0.0:
                c = tp + (t - tp) * dp / (dp - dc)
                if tp < c < t:
                    out.append((c, _poly_eval(p1, c)))
        out.append((t, max(f, g)))
    return _canonical_loop(out)


def _nodes(poly):
    return list(zip(*(v.tolist() for v in poly)))


@pytest.mark.parametrize("seed", range(8))
def test_running_max_and_overlay_equal_the_loop_versions(seed):
    # the three-period sweep behind combined_envelope, bitwise
    eq = make_random_equation(np.random.default_rng(seed))
    polys = [envelope._tau_polyline(d, 0.0, 3.0 * eq.period) for d in eq.lags]
    acc, acc_loop = polys[0], _nodes(polys[0])
    for p in polys[1:]:
        acc, acc_loop = envelope._max_overlay(acc, p), _max_overlay_loop(acc_loop, _nodes(p))
        assert _nodes(acc) == acc_loop
    assert _nodes(envelope._running_max(acc)) == _running_max_loop(acc_loop)


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


def test_below_zero_the_envelope_holds_every_delay_argument():
    # below 0 h takes its settled form, whose lag form is periodic; the
    # transient polyline, extended, fell below tau_max there, by 0.353 at
    # z = -0.104 on draw 4.  h stays nondecreasing on each side of 0.
    rng = np.random.default_rng(20261019)
    checked = 0
    for _ in range(300):
        eq = make_random_equation(rng)
        env = combined_envelope(eq)
        if env.t_stab == 0.0:
            continue
        lo = env(0.0) - eq.max_lag
        zs = np.sort(np.concatenate([np.linspace(lo, 0.0, 1001), env.knots(lo, 0.0)]))
        zs = zs[zs < 0.0]
        hs = env.values(zs)
        slack = 1e-12 * np.maximum(1.0, np.abs(zs))
        assert (hs >= tau_max(eq, zs) - slack).all()
        assert (np.diff(hs) >= -slack[1:]).all()
        checked += 1
    assert checked >= 30


# -- steep lags ---------------------------------------------------------------

# one constant coefficient and a lag whose last piece falls at a slope of
# about 1.4e4, which turns a knot time rounded by 8.9e-16 into a value gap
# of 1.24e-11: a settle check that compared period windows refused it
STEEP_PERIOD = 2.9804741486000266
STEEP_LAG = (
    (0.0, 2.8539954245261505),
    (2.2741552739231317, 2.063625038784237),
    (2.980318567379336, 0.6869745183789657),
)


def make_steep_lag_equation() -> DelayEquation:
    return DelayEquation(
        coefficients=(PiecewisePeriodic(period=STEEP_PERIOD, breakpoints=((0.0, 0.1),)),),
        lags=(PiecewisePeriodic(period=STEEP_PERIOD, breakpoints=STEEP_LAG),),
    )


@pytest.mark.parametrize("case", ["config", "draw-429", "draw-1086"])
def test_steep_lags_settle(case):
    # the draws' lags fall at slopes of 1.4e4 and 1.2e5
    eq = {
        "config": make_steep_lag_equation,
        "draw-429": lambda: nth_random_equation(20261019, 429),
        "draw-1086": lambda: nth_random_equation(777, 1086),
    }[case]()
    env = combined_envelope(eq)
    ts = env.t_stab + np.linspace(0.0, 3.0 * eq.period, 3001)
    assert np.abs(env.values(ts + eq.period) - env.values(ts) - eq.period).max() <= 1e-9
