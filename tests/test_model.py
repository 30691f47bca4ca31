"""Function representation: evaluation, exact integration, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayosc import DelayEquation, PiecewisePeriodic
from delayosc.model import breakpoint_times

from conftest import breakpoint_times_reference, make_demo_equation, midpoint_integral


# -- evaluation -------------------------------------------------------------


def test_demo_lag_values(demo_eq):
    d1 = demo_eq.lags[0]
    assert d1(0.5) == 1.0
    assert d1(2.0) == 5.0
    # linear descent from 5 back to 1 over [2, 3]
    assert d1(2.5) == pytest.approx(3.0, abs=1e-15)
    assert demo_eq.coefficients[0](17.23) == 0.135


def test_delay_argument_values(demo_eq):
    # tau(t) = t - lag(t)
    d1, d2 = demo_eq.lags
    assert 0.5 - d1.values(0.5) == pytest.approx(-0.5, abs=1e-15)
    assert 2.0 - d1.values(2.0) == pytest.approx(-3.0, abs=1e-15)
    assert 2.0 - d2.values(2.0) == pytest.approx(-3.1, abs=1e-15)


def test_offset_shifts_values(demo_eq):
    d1, d2 = demo_eq.lags
    ts = np.linspace(0.0, 9.0, 301)
    assert np.allclose(d2.values(ts), d1.values(ts) + 0.1, atol=1e-15)


def test_eval_exact_at_breakpoints():
    f = PiecewisePeriodic(period=2.0, breakpoints=((0.0, 1.0), (0.7, -2.0), (1.3, 4.0)))
    assert f(0.0) == 1.0
    assert f(0.7) == -2.0
    assert f(1.3) == 4.0
    assert f(2.0) == 1.0  # wrap point takes the first value


def test_eval_periodicity_sampled():
    f = PiecewisePeriodic(period=1.5, breakpoints=((0.0, 0.3), (0.4, 1.1), (0.9, 0.2)))
    ts = np.linspace(0.0, 1.5, 97)
    for k in (1, 3, 10):
        assert np.allclose(f.values(ts + k * 1.5), f.values(ts), atol=1e-12)


def test_values_matches_scalar_eval():
    f = PiecewisePeriodic(
        period=2.5, breakpoints=((0.0, 0.1), (1.0, 0.9), (2.0, 0.4)), offset=-0.05
    )
    ts = np.linspace(-3.0, 8.0, 211)
    assert np.allclose(f.values(ts), [f(t) for t in ts], atol=1e-14)


def test_jump_representation():
    """A closing pair at t == period pins the left limit at the wrap."""
    f = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 2.0), (1.0, 3.0)))
    assert f.wrap_jump == 1.0
    assert f(1.0) == 2.0  # value at the wrap is the first breakpoint's
    assert f(1.0 - 1e-9) == pytest.approx(3.0, abs=1e-8)


# -- exact integration ------------------------------------------------------


def _integral(eq, s, t):
    """Integral of the coefficient sum over [s, t]: a difference of its
    exact antiderivative."""
    anti = eq.coeff_sum_antiderivative([s, t])
    return anti[1] - anti[0]


def test_coeff_sum_integral_demo(demo_eq):
    for k in (0, 1, 4):
        val = _integral(demo_eq, 3.0 * k, 3.0 * k + 1.0)
        assert val == pytest.approx(0.27, abs=1e-14)
    assert _integral(demo_eq, 5.0, 5.0) == 0.0


def test_linear_sawtooth_integral():
    """Rising sawtooth p(z) = z on [0, 1): one period integrates to 1/2.

    The closing pair at t = 1 keeps the final segment at slope 1 instead of
    interpolating back down to 0.  Cross-checked against a midpoint-rule
    refinement oracle that never touches the closed-form antiderivative.
    """
    saw = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.0), (1.0, 1.0)))
    lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.5),))
    eq = DelayEquation(coefficients=(saw,), lags=(lag,))
    assert _integral(eq, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert midpoint_integral(saw.values, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    # n_start divisible by 10 keeps every refinement's cell edges on the
    # wrap jumps at z = 1, 2, where midpoint cells would otherwise straddle
    oracle = midpoint_integral(saw.values, 0.25, 2.75, n_start=80)
    assert _integral(eq, 0.25, 2.75) == pytest.approx(oracle, abs=1e-9)


def test_integral_additivity_demo(demo_eq):
    s, u, t = 0.42, 3.91, 10.07
    whole = _integral(demo_eq, s, t)
    split = _integral(demo_eq, s, u) + _integral(demo_eq, u, t)
    assert abs(split - whole) <= 1e-12 * max(1.0, abs(whole))


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0), st.floats(0.0, 30.0))
def test_integral_additivity_property(a, b, c):
    eq = make_demo_equation()
    s, u, t = sorted((a, b, c))
    whole = _integral(eq, s, t)
    split = _integral(eq, s, u) + _integral(eq, u, t)
    assert abs(split - whole) <= 1e-12 * max(1.0, abs(whole))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 12.0), st.floats(0.0, 4.0), st.integers(1, 7))
def test_integral_periodicity_property(s, span, k):
    # same segment geometry after a whole-period shift, so only rounding
    # from the shifted endpoints themselves can enter
    f = PiecewisePeriodic(period=2.0, breakpoints=((0.0, 0.4), (0.5, 0.1), (1.2, 0.8)))
    lag = PiecewisePeriodic(period=2.0, breakpoints=((0.0, 1.0),))
    eq = DelayEquation(coefficients=(f,), lags=(lag,))
    base = _integral(eq, s, s + span)
    shifted = _integral(eq, s + 2.0 * k, s + span + 2.0 * k)
    assert math.isclose(shifted, base, rel_tol=1e-12, abs_tol=1e-12)


def test_integral_periodicity_exact_on_lattice(demo_eq):
    # dyadic endpoints: the shifted evaluation runs through identical float
    # arithmetic segment by segment
    assert _integral(demo_eq, 3.25, 5.5) == _integral(demo_eq, 0.25, 2.5)


def test_antiderivative_consistency(demo_eq):
    # the coefficient is the constant 0.135: each difference is 0.135 * (b - a)
    c = demo_eq.coefficients[0]
    xs = np.array([0.0, 0.4, 1.7, 3.0, 8.25])
    anti = c.antiderivative(xs)
    for a, b, fa, fb in zip(xs, xs[1:], anti, anti[1:]):
        assert 0.135 * (b - a) == pytest.approx(fb - fa, abs=1e-13)


# -- the breakpoint lattice -------------------------------------------------


def _random_functions(rng, period):
    """1-4 periodic functions of 1-4 breakpoints each; some share phases."""
    funcs = []
    for _ in range(int(rng.integers(1, 5))):
        if funcs and rng.random() < 0.3:
            ts = [t for t, _ in funcs[-1].breakpoints]
        else:
            ts = [0.0, *np.sort(rng.uniform(0.0, period, int(rng.integers(0, 4))))]
        ts = [t for i, t in enumerate(ts) if i == 0 or t > ts[i - 1]]
        bps = tuple((float(t), float(v)) for t, v in zip(ts, rng.uniform(0.1, 2.0, len(ts))))
        funcs.append(PiecewisePeriodic(period=period, breakpoints=bps))
    return funcs


def test_breakpoint_times_equal_the_loop_bitwise():
    rng = np.random.default_rng(20261019)
    for _ in range(3000):
        period = float(10.0 ** rng.uniform(-3.0, 3.0))
        funcs = _random_functions(rng, period)
        a = float(rng.uniform(-50.0, 50.0)) * period
        if rng.random() < 0.2:
            # a window starting on a lattice point
            a = math.floor(a / period) * period + funcs[0].interior_times[-1]
        b = a + float(rng.choice([1.0, 3.0])) * period
        got = breakpoint_times(funcs, a, b)
        want = np.array(breakpoint_times_reference(funcs, a, b), dtype=float)
        assert got.tobytes() == want.tobytes(), (period, a, b)


# -- construction validation ------------------------------------------------


def test_piecewise_validation_errors():
    with pytest.raises(ValueError, match="period"):
        PiecewisePeriodic(period=0.0, breakpoints=((0.0, 1.0),))
    with pytest.raises(ValueError, match="non-empty"):
        PiecewisePeriodic(period=1.0, breakpoints=())
    with pytest.raises(ValueError, match="t=0"):
        PiecewisePeriodic(period=1.0, breakpoints=((0.5, 1.0),))
    with pytest.raises(ValueError, match="increasing"):
        PiecewisePeriodic(period=1.0, breakpoints=((0.0, 1.0), (0.3, 2.0), (0.3, 3.0)))
    with pytest.raises(ValueError, match="beyond the period"):
        PiecewisePeriodic(period=1.0, breakpoints=((0.0, 1.0), (1.5, 2.0)))
    with pytest.raises(ValueError, match="t=0"):
        PiecewisePeriodic(period=1.0, breakpoints=((1.0, 2.0),))
    with pytest.raises(ValueError, match="non-finite"):
        PiecewisePeriodic(period=1.0, breakpoints=((0.0, math.nan),))


def test_equation_validation_errors():
    pos = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.5),))
    neg = PiecewisePeriodic(period=1.0, breakpoints=((0.0, -0.1),))
    other_period = PiecewisePeriodic(period=2.0, breakpoints=((0.0, 0.5),))
    with pytest.raises(ValueError, match="negative value"):
        DelayEquation(coefficients=(neg,), lags=(pos,))
    with pytest.raises(ValueError, match="positive"):
        DelayEquation(coefficients=(pos,), lags=(neg,))
    zero_lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.0),))
    with pytest.raises(ValueError, match="positive"):
        DelayEquation(coefficients=(pos,), lags=(zero_lag,))
    with pytest.raises(ValueError, match="period"):
        DelayEquation(coefficients=(pos,), lags=(other_period,))
    with pytest.raises(ValueError, match="coefficients but"):
        DelayEquation(coefficients=(pos, pos), lags=(pos,))
    with pytest.raises(ValueError, match="at least one"):
        DelayEquation(coefficients=(), lags=())


def test_discontinuous_lag_rejected():
    """Coefficients may jump at the wrap; lags must close continuously."""
    jumpy = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 1.0), (1.0, 2.0)))
    pos = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.5),))
    DelayEquation(coefficients=(jumpy,), lags=(pos,))  # fine as a coefficient
    with pytest.raises(ValueError, match="continuous"):
        DelayEquation(coefficients=(pos,), lags=(jumpy,))


def test_equation_summary_properties(demo_eq):
    assert demo_eq.m == 2
    assert demo_eq.period == 3.0
    assert demo_eq.min_lag == 1.0
    assert demo_eq.max_lag == pytest.approx(5.1, abs=1e-15)
