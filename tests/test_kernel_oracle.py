"""Kernel tables against independent quadrature.

Every reference value is an mpmath ``quad`` split at the kinks of its
integrand.  Depth 1 integrands use the exact coefficient-sum antiderivative
G_0.  Depth 2 integrands need the level antiderivative G_1 at many points;
it comes from a 20-point Gauss-Legendre rule on a fine partition aligned with
the kinks of g_1, never from the library's Chebyshev tables.
"""

import math

import numpy as np
import pytest

from delayosc import (
    DelayEquation,
    KernelCache,
    PiecewisePeriodic,
    combined_envelope,
    decay_kernel,
    inner_criterion_integral,
    outer_criterion_integral,
    term_integral,
)

from conftest import (
    breakpoint_times_reference,
    make_constant_equation,
    make_demo_equation,
    make_random_equation,
)

mpmath = pytest.importorskip("mpmath")

AGREE = 1e-10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def gauss_legendre(f, a, b):
    """Elementwise 20-point Gauss-Legendre integrals of f over [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[..., None] + half[..., None] * _GL_X
    return half * (f(pts.ravel()).reshape(pts.shape) @ _GL_W)


def preimages(values, knots, targets):
    """Times where a continuous piecewise-linear function with kinks at
    ``knots`` takes one of the ``targets``."""
    targets = np.asarray(targets, dtype=float)
    ys = values(np.asarray(knots, dtype=float))
    out = []
    for z0, z1, y0, y1 in zip(knots, knots[1:], ys, ys[1:]):
        if y0 == y1:
            continue
        hit = targets[(targets >= min(y0, y1)) & (targets <= max(y0, y1))]
        out.extend(z0 + (hit - y0) * (z1 - z0) / (y1 - y0))
    return out


class Oracle:
    """Reference integrals of one equation for arguments inside [lo, hi]."""

    def __init__(self, eq, lo, hi):
        self.eq = eq
        self.env = combined_envelope(eq)
        span = eq.max_lag + eq.period
        a, b = min(lo, self.env(0.0)) - 2.0 * span, hi + span
        self.a, self.b = a, b
        self.lattice = breakpoint_times_reference(eq.coefficients + eq.lags, a, b)
        coeff_kinks = breakpoint_times_reference(eq.coefficients, a, b)
        self.level_kinks = {
            0: coeff_kinks,
            1: sorted(set(self.lattice) | set(self.tau_preimages(coeff_kinks))),
        }
        step = 0.02 * eq.period
        nodes = np.unique(
            np.concatenate([self.level_kinks[1], np.arange(a, b, step), [b]])
        )
        self.nodes = nodes
        self.cum = np.concatenate(
            [[0.0], np.cumsum(gauss_legendre(self.g1, nodes[:-1], nodes[1:]))]
        )

    def lag_knots(self, lag):
        return [self.a] + breakpoint_times_reference([lag], self.a, self.b) + [self.b]

    def tau_preimages(self, targets):
        out = []
        for lag in self.eq.lags:
            out += preimages(lambda z: z - lag.values(z), self.lag_knots(lag), targets)
        return out

    def g1(self, zs):
        g0 = self.eq.coeff_sum_antiderivative
        acc = 0.0
        for c, d in zip(self.eq.coefficients, self.eq.lags):
            acc = acc + c.values(zs) * np.exp(g0(zs) - g0(zs - d.values(zs)))
        return acc

    def level(self, r, xs):
        """G_{r-1}: the exact G_0, or G_1 by Gauss-Legendre from the nodes."""
        if r == 1:
            return self.eq.coeff_sum_antiderivative(xs)
        xs = np.asarray(xs, dtype=float)
        k = np.searchsorted(self.nodes, xs, side="right") - 1
        return self.cum[k] + gauss_legendre(self.g1, self.nodes[k], xs)

    def quad(self, f, a, b, kinks):
        pts = [a] + sorted(k for k in set(kinks) if a < k < b) + [b]
        return float(
            mpmath.quad(lambda z: f(np.array([float(z)]))[0], pts, method="gauss-legendre")
        )

    def coeff_sum(self, zs):
        return sum(c.values(zs) for c in self.eq.coefficients)

    def kernel(self, r, t, s):
        f = self.coeff_sum if r == 1 else self.g1
        return math.exp(self.quad(f, s, t, self.level_kinks[r - 1]))

    def sliding(self, r, terms, a, b):
        env = self.env

        def f(zs):
            base = self.level(r, env.values(zs))
            acc = 0.0
            for i in terms:
                c, d = self.eq.coefficients[i], self.eq.lags[i]
                acc = acc + c.values(zs) * np.exp(base - self.level(r, zs - d.values(zs)))
            return acc

        env_knots = [self.a, *env.knots(self.a, self.b), self.b]
        kinks = self.lattice + env_knots + self.tau_preimages(self.level_kinks[r - 1])
        kinks += preimages(env.values, env_knots, self.level_kinks[r - 1])
        return self.quad(f, a, b, kinks)

    def frozen(self, r, terms, c, a, b):
        def f(zs):
            base = self.level(r, np.array([c]))[0]
            acc = 0.0
            for i in terms:
                p, d = self.eq.coefficients[i], self.eq.lags[i]
                acc = acc + p.values(zs) * np.exp(base - self.level(r, zs - d.values(zs)))
            return acc

        kinks = self.lattice + self.tau_preimages(self.level_kinks[r - 1])
        return self.quad(f, a, b, kinks)


def _transient_draw():
    """The first random equation whose envelope settles only after one period."""
    rng = np.random.default_rng(0)
    while True:
        eq = make_random_equation(rng)
        if combined_envelope(eq).t_stab > 0.0:
            return eq


def _sloped_lag_equation():
    """A tent lag from 2 up to 4 periods and back, and a coefficient that
    jumps at the wrap point: its jump is seen through a sloped lag across
    several periods, so at r=2 the integrands break, in a higher
    derivative, at deeper delay preimages of the lattice than the seeds
    hold."""
    lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 2.0), (0.3, 4.0), (0.45, 3.2)))
    p = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.02), (0.6, 0.035), (1.0, 0.045)))
    return DelayEquation(coefficients=(p,), lags=(lag,))


def _cases():
    rng = np.random.default_rng(20250822)
    random_eqs = [make_random_equation(rng) for _ in range(3)]
    cases = [("demo", make_demo_equation()), ("control", make_constant_equation(0.2, 1.0))]
    cases += [(f"random{k}", eq) for k, eq in enumerate(random_eqs)]
    cases.append(("transient", _transient_draw()))
    cases.append(("sloped_lag", _sloped_lag_equation()))
    return [pytest.param(name, eq, id=name) for name, eq in cases]


def _close(got, want):
    return abs(got - want) <= AGREE * max(1.0, abs(want))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name,eq", _cases())
def test_tables_match_quadrature_oracle(name, eq, r):
    env = combined_envelope(eq)
    period = eq.period
    if name == "transient":
        # the window [h(t), t] lies where the envelope has not settled yet
        t = 0.6 * env.t_stab
        zs = np.linspace(env(t), t, 101)
        assert np.abs(env.values(zs) - (zs - env.tail_lag.values(zs))).max() > 1e-3
    else:
        t = env.t_stab + 2.0 * (eq.max_lag + period) + 0.37 * period
    h = env(t)
    s = t - 0.8 * eq.max_lag
    oracle = Oracle(eq, min(h, s) - eq.max_lag, t)
    cache = KernelCache()
    i = eq.m - 1
    checks = {
        "inner": (
            inner_criterion_integral(eq, r, t, cache=cache, env=env),
            oracle.sliding(r, range(eq.m), h, t),
        ),
        "outer": (
            outer_criterion_integral(eq, r, t, cache=cache, env=env),
            oracle.frozen(r, range(eq.m), h, h, t),
        ),
        "term": (
            term_integral(eq, r, i, h, t, cache=cache, env=env),
            oracle.sliding(r, [i], h, t),
        ),
        "term_frozen": (
            term_integral(eq, r, i, s, t, envelope_at=h, cache=cache),
            oracle.frozen(r, [i], h, s, t),
        ),
        "kernel": (decay_kernel(eq, r, t, s, cache=cache), oracle.kernel(r, t, s)),
    }
    bad = {k: (got, want) for k, (got, want) in checks.items() if not _close(got, want)}
    assert not bad, bad
