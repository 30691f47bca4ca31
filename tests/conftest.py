"""Shared fixtures and independent numeric oracles.

The oracles here deliberately avoid the library's own quadrature and
root-finding code paths: characteristic roots come from a plain bisection,
fixed points from direct iteration, and reference integrals from midpoint
refinement, so test expectations are not self-fulfilling.
"""

import math

import numpy as np
import pytest

from delayosc import DelayEquation, PiecewisePeriodic

# -- regression equations --------------------------------------------------


def make_demo_equation() -> DelayEquation:
    """Two-term equation with sawtooth lags, period 3.

    Constant coefficients 0.135 each; the second lag is the first shifted
    by +0.1, so the delay arguments differ by a constant 0.1.
    """
    d1 = PiecewisePeriodic(period=3.0, breakpoints=((0.0, 1.0), (1.0, 1.0), (2.0, 5.0)))
    d2 = PiecewisePeriodic(
        period=3.0, breakpoints=((0.0, 1.0), (1.0, 1.0), (2.0, 5.0)), offset=0.1
    )
    p = PiecewisePeriodic(period=3.0, breakpoints=((0.0, 0.135),))
    return DelayEquation(coefficients=(p, p), lags=(d1, d2))


def make_constant_equation(p: float, lag: float, period: float = 1.0) -> DelayEquation:
    coeff = PiecewisePeriodic(period=period, breakpoints=((0.0, p),))
    delay = PiecewisePeriodic(period=period, breakpoints=((0.0, lag),))
    return DelayEquation(coefficients=(coeff,), lags=(delay,))


@pytest.fixture(scope="session")
def demo_eq() -> DelayEquation:
    return make_demo_equation()


@pytest.fixture(scope="session")
def control_eq() -> DelayEquation:
    """p = 0.2, lag 1: nonoscillatory, closed-form exponential solution."""
    return make_constant_equation(0.2, 1.0)


@pytest.fixture(scope="session")
def control_eq_p3() -> DelayEquation:
    return make_constant_equation(0.3, 1.0)


@pytest.fixture(scope="session")
def zero_eq() -> DelayEquation:
    return make_constant_equation(0.0, 1.0)


def make_random_equation(rng: np.random.Generator) -> DelayEquation:
    """Random admissible equation: shared period, 1..3 terms.

    Coefficient values scale with 1/m so deep kernel values stay finite;
    lag breakpoints keep a 5% minimum spacing so pieces are well separated.
    """
    period = float(rng.uniform(1.0, 4.0))
    m = int(rng.integers(1, 4))

    def knot_times(n_max: int) -> list[float]:
        n = int(rng.integers(1, n_max + 1))
        ts = [0.0] + sorted(float(t) for t in rng.uniform(0.0, period, n - 1))
        keep = [ts[0]]
        for t in ts[1:]:
            if t - keep[-1] > 0.05 * period:
                keep.append(t)
        return keep

    coeffs = []
    lags = []
    for _ in range(m):
        ts = knot_times(3)
        vals = rng.uniform(0.0, 0.3 / m, len(ts))
        coeffs.append(
            PiecewisePeriodic(
                period=period, breakpoints=tuple(zip(ts, (float(v) for v in vals)))
            )
        )
        ts = knot_times(4)
        vals = rng.uniform(0.4, 3.0, len(ts))
        lags.append(
            PiecewisePeriodic(
                period=period, breakpoints=tuple(zip(ts, (float(v) for v in vals)))
            )
        )
    return DelayEquation(coefficients=tuple(coeffs), lags=tuple(lags))


def nth_random_equation(seed: int, k: int) -> DelayEquation:
    """Draw ``k`` (counted from 0) of ``make_random_equation`` under ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(k):
        make_random_equation(rng)
    return make_random_equation(rng)


def make_rescaled_equation(eq: DelayEquation, c: float) -> DelayEquation:
    """``eq`` with time scaled by c: t -> c t, p -> p / c, d -> c d."""

    def scale(f, k):
        return PiecewisePeriodic(c * f.period, tuple((c * t, v * k) for t, v in f.breakpoints), f.offset * k)

    return DelayEquation(
        coefficients=tuple(scale(p, 1.0 / c) for p in eq.coefficients),
        lags=tuple(scale(d, c) for d in eq.lags),
    )



def make_tent_lag_equation(ratio: float) -> DelayEquation:
    """A lag rising from ratio/2 to ratio periods over half a period and
    back, period 1, and the constant coefficient 0.3 / ratio: p * d(t) runs
    from 0.15 to 0.3."""
    lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.5 * ratio), (0.5, ratio)))
    p = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.3 / ratio),))
    return DelayEquation(coefficients=(p,), lags=(lag,))


def make_bench_piecewise_equation() -> DelayEquation:
    """The benchmark's ``piecewise`` config at seed 1."""
    return DelayEquation(
        coefficients=(
            PiecewisePeriodic(
                1.0, ((0.0, 0.013081112871182245), (0.4822079806359817, 0.013076758673129385))
            ),
        ),
        lags=(
            PiecewisePeriodic(
                1.0,
                (
                    (0.0, 20.0),
                    (0.343414100820367, 11.907991738767091),
                    (0.6196621556292266, 15.854718618190658),
                ),
            ),
        ),
    )


def make_many_breakpoint_equation(n: int = 1000, seed: int = 17) -> DelayEquation:
    """One term, period 1: a coefficient with ``n`` breakpoints at random
    times and values in [0.05, 0.3], and a three-piece lag near 1."""
    rng = np.random.default_rng(seed)
    ts = [0.0, *np.sort(rng.uniform(0.0, 1.0, n - 1)).tolist()]
    coef = PiecewisePeriodic(period=1.0, breakpoints=tuple(zip(ts, rng.uniform(0.05, 0.3, n).tolist())))
    lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 1.37), (0.3, 0.83), (0.7, 1.61)))
    return DelayEquation(coefficients=(coef,), lags=(lag,))


def kink_cases() -> list[DelayEquation]:
    """The demo, a benchmark-style piecewise lag (non-monotone, up to 20
    periods), random draws and the tent lag at L/P = 1000 and at 1e4, past
    the kernel's kink cap."""
    piecewise = DelayEquation(
        coefficients=(PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.012), (0.51, 0.0115))),),
        lags=(
            PiecewisePeriodic(period=1.0, breakpoints=((0.0, 20.0), (0.36, 11.7), (0.58, 16.4))),
        ),
    )
    rng = np.random.default_rng(11)
    draws = [make_random_equation(rng) for _ in range(6)]
    tents = [make_tent_lag_equation(1000.0), make_tent_lag_equation(1e4)]
    return [make_demo_equation(), piecewise, *draws, *tents]

# -- oracles ----------------------------------------------------------------


def breakpoint_times_reference(funcs, a: float, b: float) -> list[float]:
    """The breakpoint lattice k*period + t_j in [a, b] of the periodic
    functions ``funcs``, sorted and distinct, by a loop over functions,
    phases and periods: each phase's first point at or below ``a``, then
    stepped by the period."""
    out = set()
    for f in funcs:
        period = f.period
        for t_j in f.interior_times:
            k = math.floor((a - t_j) / period)
            t = k * period + t_j
            while t <= b:
                if t >= a:
                    out.add(t)
                t += period
    return sorted(out)



def char_root(p: float) -> float:
    """Smaller root of mu = p * e^mu by bisection, for p in (0, 1/e).

    x(t) = e^{-mu t} then solves x'(t) + p x(t - 1) = 0 exactly.
    """
    assert 0.0 < p < math.exp(-1.0)
    lo, hi = 0.0, math.log(1.0 / p)
    f = lambda mu: p * math.exp(mu) - mu
    assert f(lo) > 0.0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_point_lambda(alpha: float, iters: int = 20000) -> float:
    """Smaller root of lam = e^{alpha lam} by direct fixed-point iteration.

    The iteration map is a contraction at the smaller root for
    alpha < 1/e, and converges monotonically from lam = 1.
    """
    lam = 1.0
    for _ in range(iters):
        nxt = math.exp(alpha * lam)
        if abs(nxt - lam) < 1e-15:
            return nxt
        lam = nxt
    return lam


def midpoint_integral(f, a: float, b: float, n_start: int = 64) -> float:
    """Midpoint-rule integral with refinement until two levels agree."""
    prev = None
    n = n_start
    for _ in range(14):
        xs = a + (b - a) * (np.arange(n) + 0.5) / n
        val = float(np.sum(f(xs)) * (b - a) / n)
        if prev is not None and abs(val - prev) < 1e-10 * (1.0 + abs(val)):
            return val
        prev = val
        n *= 2
    return prev


# -- acceptance reporting ---------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
