"""Recursive exponential kernel and the two criterion integrands."""

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from delayosc import (
    DelayEquation,
    EnvelopeFunction,
    KernelCache,
    PiecewisePeriodic,
    check_all,
    combined_envelope,
    decay_kernel,
    inner_criterion_integral,
    outer_criterion_integral,
    term_integral,
)
from delayosc import kernel
from delayosc.model import phase_lattice

from conftest import (
    kink_cases,
    make_bench_piecewise_equation,
    make_demo_equation,
    make_many_breakpoint_equation,
    make_random_equation,
    make_tent_lag_equation,
    midpoint_integral,
)


@pytest.fixture(scope="module")
def demo_cache():
    return KernelCache()


# -- closed forms -----------------------------------------------------------


def test_kernel_identity_on_empty_interval(demo_eq, demo_cache):
    for r in (1, 2, 3, 4):
        for t in (0.0, 2.6, 7.13):
            assert decay_kernel(demo_eq, r, t, t, cache=demo_cache) == 1.0


def test_depth_one_closed_form(demo_eq, demo_cache):
    # constant coefficient sum 0.27, so a_1(x, x - 0.1) = e^{0.027}
    want = math.exp(0.027)
    for x in (0.5, 2.0, 9.31):
        got = decay_kernel(demo_eq, 1, x, x - 0.1, cache=demo_cache)
        assert got == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(1.0273676, abs=3e-7)  # quoted digits end early


def test_depth_two_against_quadrature_oracle(demo_eq, demo_cache):
    """a_2 versus a midpoint-refinement oracle built on exact a_1 values."""
    s, t = 4.3, 7.9

    def integrand(zs):
        acc = np.zeros_like(zs)
        for c, d in zip(demo_eq.coefficients, demo_eq.lags):
            taus = zs - d.values(zs)
            expo = demo_eq.coeff_sum_antiderivative(zs) - demo_eq.coeff_sum_antiderivative(taus)
            acc += c.values(zs) * np.exp(expo)
        return acc

    oracle = math.exp(midpoint_integral(integrand, s, t, n_start=256))
    got = decay_kernel(demo_eq, 2, t, s, tol=1e-10, cache=demo_cache)
    assert got == pytest.approx(oracle, rel=1e-7)


def test_segment_integral_reproduction(demo_eq, demo_cache):
    # second-term integral over [3k+1, 3k+2] under the sliding envelope
    for k in (0, 2):
        val = term_integral(demo_eq, 1, 0, 3.0 * k + 1.0, 3.0 * k + 2.0, cache=demo_cache)
        assert val == pytest.approx(0.207985, abs=1e-5)


def test_inner_integral_at_plateau_start(demo_eq, demo_cache):
    # at t = 3k+1 the window [h(t), t] is [3k, 3k+1]: both terms ride the
    # t-1 branch, giving 0.135 + 0.135 e^{0.027}
    want = 0.135 + 0.135 * math.exp(0.027)
    got = inner_criterion_integral(demo_eq, 1, 7.0, cache=demo_cache)
    assert got == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(0.273695, abs=5e-7)


def test_degenerate_envelope_gives_zero(demo_eq, demo_cache):
    # h(t) = t cannot arise from an admissible equation; exercised directly
    # as the empty-interval code path
    ident = EnvelopeFunction(
        t_stab=0.0,
        transient=(),
        tail_lag=PiecewisePeriodic(period=3.0, breakpoints=((0.0, 0.0),)),
    )
    assert inner_criterion_integral(demo_eq, 1, 5.0, cache=demo_cache, env=ident) == 0.0
    assert outer_criterion_integral(demo_eq, 2, 5.0, cache=demo_cache, env=ident) == 0.0


def test_sliding_lookups_over_the_unsettled_period_raise():
    # a draw that settles only after one period: no table holds the envelope
    # on [0, t_stab), so a sliding integral whose span meets it raises,
    # naming t_stab; a frozen one reads the envelope at one point and stays
    # defined.  From t_stab + max_lag on, h(t) >= t_stab
    rng = np.random.default_rng(0)
    eq = next(eq for eq in (make_random_equation(rng) for _ in range(50)) if combined_envelope(eq).t_stab > 0)
    env = combined_envelope(eq)
    t_stab, t = env.t_stab, 0.6 * env.t_stab
    cache = KernelCache()
    for r in (1, 2):
        with pytest.raises(ValueError, match="t_stab"):
            inner_criterion_integral(eq, r, t, cache=cache, env=env)
        for a, b in ((0.0, t), (t, 2.0 * t_stab), (-1.0, t_stab + 1.0)):
            with pytest.raises(ValueError, match="t_stab"):
                term_integral(eq, r, 0, a, b, cache=cache, env=env)
        assert math.isfinite(outer_criterion_integral(eq, r, t, cache=cache, env=env))
        assert math.isfinite(term_integral(eq, r, 0, 0.0, t, envelope_at=env(t), cache=cache, env=env))
        assert math.isfinite(inner_criterion_integral(eq, r, t_stab + eq.max_lag, cache=cache, env=env))


def test_outer_integral_constant_equation(control_eq):
    # frozen envelope h(t) = t - 1: integral_{t-1}^t 0.2 e^{0.2 (t-1-z+1)} dz
    # = e^{0.2} - 1
    want = math.expm1(0.2)
    for t in (3.0, 11.7):
        got = outer_criterion_integral(control_eq, 1, t)
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("r", [1, 2, 5])
def test_rows_of_one_profile_equal_the_public_integrals(demo_eq, r):
    # inner and outer on one envelope lookup, one search and one Clenshaw
    # pass: bitwise the one-kind lookups, below 0 and saturated too
    rng = np.random.default_rng(3)
    draws = (make_random_equation(rng) for _ in range(50))
    draw = next(eq for eq in draws if combined_envelope(eq).t_stab > 0)
    for eq in (demo_eq, draw):
        ts = np.concatenate([[0.0], np.linspace(0.3, 6.0 * eq.period + eq.max_lag, 97)])
        cache, env = KernelCache(), combined_envelope(eq)
        # the sliding row is defined where [h(t), t] misses [0, t_stab)
        if env.t_stab > 0.0:
            ts = ts[env.values(ts) >= env.t_stab]
        rows = kernel._criterion(eq, r, ("outer", "inner"), env, cache, kernel.DEFAULT_TOL)(ts)
        inner = inner_criterion_integral(eq, r, ts, cache=cache, env=env)
        outer = outer_criterion_integral(eq, r, ts, cache=cache, env=env)
        assert rows.shape == (2, ts.size)
        assert np.array_equal(rows[0], outer) and np.array_equal(rows[1], inner)


# -- properties -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 18.0),
    st.floats(0.0, 18.0),
    st.floats(0.0, 18.0),
    st.integers(1, 2),
)
def test_kernel_point_properties(a, b, c, r):
    eq = make_demo_equation()
    cache = _SHARED_PROPERTY_CACHE
    s, u, t = sorted((a, b, c))
    a_ts = decay_kernel(eq, r, t, s, cache=cache)
    a_tu = decay_kernel(eq, r, t, u, cache=cache)
    a_us = decay_kernel(eq, r, u, s, cache=cache)
    assert a_ts >= 1.0
    # multiplicative over adjacent intervals
    assert a_ts == pytest.approx(a_tu * a_us, rel=1e-7)
    # wider interval on either side never shrinks the kernel
    assert a_tu <= a_ts * (1.0 + 1e-9)
    assert a_us <= a_ts * (1.0 + 1e-9)
    # one extra recursion level never shrinks it either
    assert decay_kernel(eq, r + 1, t, s, cache=cache) >= a_ts * (1.0 - 1e-9)


_SHARED_PROPERTY_CACHE = KernelCache()


def test_depth_chain_on_demo(demo_eq, demo_cache):
    t, s = 13.1, 9.4
    vals = [decay_kernel(demo_eq, r, t, s, cache=demo_cache) for r in (1, 2, 3, 4)]
    assert all(v >= 1.0 for v in vals)
    assert vals == sorted(vals)
    # growth is genuinely steep: each level at least squares the margin
    assert vals[2] > vals[1] ** 1.5


def test_reversed_arguments_are_reciprocal(demo_eq, demo_cache):
    # the integral definition read literally for t < s flips the sign of
    # the exponent; needed because tau_i(z) can exceed a frozen h(t)
    for r in (1, 2):
        fwd = decay_kernel(demo_eq, r, 8.2, 6.9, cache=demo_cache)
        rev = decay_kernel(demo_eq, r, 6.9, 8.2, cache=demo_cache)
        assert rev == pytest.approx(1.0 / fwd, rel=1e-10)
        assert rev <= 1.0


def test_decay_kernel_on_arrays_equals_its_scalar_calls(demo_eq, demo_cache):
    rng = np.random.default_rng(8)
    t = rng.uniform(0.0, 40.0, (4, 25))
    s = rng.uniform(0.0, 40.0, (4, 25))
    s[0] = t[0]  # t == s
    for r in (1, 2, 5):
        got = decay_kernel(demo_eq, r, t, s, cache=demo_cache)
        assert got.shape == t.shape
        want = [decay_kernel(demo_eq, r, a, b, cache=demo_cache) for a, b in zip(t.flat, s.flat)]
        assert all(type(v) is float for v in want)
        assert got.tobytes() == np.array(want).reshape(t.shape).tobytes()
        assert (got[0] == 1.0).all()
    # broadcast against a scalar; the saturated depth 5 reversed is exactly 0.0
    assert (decay_kernel(demo_eq, 5, 37.0, np.array([40.0, 41.0]), cache=demo_cache) == 0.0).all()
    with pytest.raises(ValueError, match="finite"):
        decay_kernel(demo_eq, 1, np.array([2.0, math.nan]), 1.0)


def test_cache_transparency(demo_eq):
    warm = KernelCache()
    for r in (1, 2, 3):
        first = decay_kernel(demo_eq, r, 9.7, 5.2, cache=warm)
        again = decay_kernel(demo_eq, r, 9.7, 5.2, cache=warm)
        cold = decay_kernel(demo_eq, r, 9.7, 5.2)
        assert again == first
        assert abs(cold - first) <= 1e-8 * abs(first)


def test_level_zero_is_cached(demo_eq):
    # G_0 is read on every frozen lookup and by every depth-1 table build;
    # built fresh, it integrated the coefficient sum over a period each time
    cache = KernelCache()
    g0 = kernel._level(demo_eq, 0, cache, 1e-8)
    assert kernel._level(demo_eq, 0, cache, 1e-8) is g0
    assert g0.total == kernel._level(demo_eq, 0, KernelCache(), 1e-8).total


def test_depth_validation(demo_eq):
    with pytest.raises(ValueError, match="depth"):
        decay_kernel(demo_eq, 0, 2.0, 1.0)
    with pytest.raises(ValueError, match="depth"):
        decay_kernel(demo_eq, 9, 2.0, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        term_integral(demo_eq, 1, 5, 0.0, 1.0)
    with pytest.raises(ValueError, match="order"):
        term_integral(demo_eq, 1, 0, 2.0, 1.0)


def test_deep_kernel_saturates_to_inf(demo_eq, demo_cache):
    # doubly exponential growth overflows float range near depth 5; the
    # kernel saturates rather than raising
    big = decay_kernel(demo_eq, 5, 40.0, 37.0, cache=demo_cache)
    assert math.isinf(big) and big > 0
    assert decay_kernel(demo_eq, 5, 37.0, 40.0, cache=demo_cache) == 0.0


# -- table lookup -----------------------------------------------------------


def test_fit_matrices_equal_numpys():
    # the Vandermonde matrix and chebint by local numpy: the same floats, and
    # chebint's memory layout too, as a table's cumulative sums follow it
    u, deg = kernel._CHEB_U, kernel._CHEB_DEG
    assert np.array_equal(kernel._chebvander(u, deg), cheb.chebvander(u, deg))
    assert np.array_equal(kernel._CHEB_FIT, np.linalg.inv(cheb.chebvander(u, deg)))
    rng = np.random.default_rng(9)
    for scale in (1e-9, 1.0, 1e6):
        c = rng.standard_normal((2, 300, deg + 1)) * scale
        got, want = kernel._chebint(c), cheb.chebint(c, lbnd=-1.0, axis=2)
        assert np.array_equal(got, want)
        assert got.strides == want.strides


def _chebint_loop(c):
    """``kernel._chebint`` as a loop over the coefficients, numpy's order."""
    c = np.moveaxis(c, -1, 0)
    n = len(c)
    tmp = np.empty((n + 1,) + c.shape[1:])
    tmp[0] = c[0] * 0
    tmp[1] = c[0]
    tmp[2] = c[1] / 4
    for j in range(2, n):
        tmp[j + 1] = c[j] / (2 * (j + 1))
        tmp[j - 1] -= c[j] / (2 * (j - 1))
    tmp[0] += 0 - kernel._clenshaw(-1.0, tmp)
    return np.moveaxis(tmp, 0, -1)


def test_chebint_equals_the_loop():
    rng = np.random.default_rng(13)
    for shape in ((17,), (300, 17), (2, 300, 17), (3, 5)):
        c = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 7)
        got, want = kernel._chebint(c), _chebint_loop(c)
        assert np.array_equal(got, want) and got.strides == want.strides


def test_stacked_lookup_sums_each_set_as_alone():
    # F and W share pieces: one Clenshaw pass over both coefficient sets,
    # each gathered coefficient-major into a slab of its own
    rng = np.random.default_rng(6)
    slabs = rng.standard_normal((2, 18, 1000))
    u = rng.uniform(-1.0, 1.0, 1000)
    both = kernel._clenshaw(u, slabs.transpose(1, 0, 2))
    for k in range(2):
        alone = kernel._clenshaw(u, slabs[k])
        assert np.array_equal(both[k], alone)
        assert np.array_equal(alone, cheb.chebval(u, slabs[k], tensor=False))


def test_table_lookup_sums_like_chebval():
    # a gathered (18, n) block of antiderivative coefficients, as in a lookup
    rng = np.random.default_rng(5)
    block = np.asfortranarray(rng.standard_normal((300, 18))).T[:, rng.integers(0, 300, 1000)]
    u = rng.uniform(-1.0, 1.0, 1000)
    want = cheb.chebval(u, block, tensor=False)
    assert np.array_equal(kernel._clenshaw(u, block), want)


def _chebval_last_axis(u, c):
    """Row k of the coefficients ``c`` summed at ``u[k]``, Clenshaw along the
    last axis, over a stack of such sets too: the lookup's sum before it
    gathered coefficient-major."""
    u2 = 2.0 * u
    c0, c1 = c[..., -2], c[..., -1]
    for i in range(3, c.shape[-1] + 1):
        c0, c1 = c[..., -i] - c1, c0 + c1 * u2
    return c0 + c1 * u


def _within_reference(tables, xs):
    """The lookup of tables on common pieces as it was: each table's rows
    gathered row-major by a buffered ``np.take``, summed along the last axis."""
    edges = tables[0].edges
    shape = np.shape(xs)
    x = np.asarray(xs, dtype=float).ravel()
    j = np.minimum(np.maximum(np.searchsorted(edges, x, side="right") - 1, 0), len(edges) - 2)
    lo, hi = edges[j], edges[j + 1]
    u = (2.0 * x - lo - hi) / (hi - lo)
    coef = np.empty((len(tables), j.size, tables[0].coef.shape[1]))
    for t, block in zip(tables, coef):
        np.take(t.coef, j, axis=0, out=block)
    sums = _chebval_last_axis(u, coef)
    return [(t.cum[j] + s).reshape(shape) for t, s in zip(tables, sums)]


def _within(tables, xs):
    """Each table's antiderivative by ``kernel._within``: the integral up to
    each point's piece plus its series there."""
    j, sums = kernel._within(tables, xs)
    return [t.cum[j] + s for t, s in zip(tables, sums)]


def _random_tables(rng, nseg, count, period=1.0):
    """``count`` tables of random coefficients on common random pieces of
    [0, period], stored as ``_fit_table`` stores them."""
    inner = np.sort(rng.uniform(0.0, period, nseg - 1))
    edges = np.concatenate([[0.0], inner, [period]])
    tables = []
    for _ in range(count):
        coef = np.asfortranarray(rng.standard_normal((nseg, 18)) * 10.0 ** rng.integers(-6, 4))
        tables.append(kernel._Table(edges, coef))
    return tables


def _lookup_points(rng, edges, n):
    """Random points of [0, P] and every edge, 0 and P among them."""
    return rng.permutation(np.concatenate([rng.uniform(0.0, edges[-1], n), edges]))


@pytest.mark.parametrize("nseg", [1, 2, 17, 105, 2000])
def test_lookup_equals_the_row_major_reference(nseg):
    # a stacked F/W pair, and one table on other pieces: bitwise the lookups
    # as they were, in the shape of the points
    rng = np.random.default_rng(nseg)
    pair = _random_tables(rng, nseg, 2)
    single = _random_tables(rng, max(1, nseg // 3 + 1), 1)
    for tables in (pair, single):
        edges = tables[0].edges
        for n in (0, 1, 90, 1000):
            xs = _lookup_points(rng, edges, n)
            for x in (xs, xs.reshape(-1, 1)):
                got, want = _within(tables, x), _within_reference(tables, x)
                assert all(a.shape == x.shape and np.array_equal(a, b) for a, b in zip(got, want))
        # 0-d and empty points keep their shapes
        for x in (0.0, edges[-1], 0.37, np.empty(0), np.empty((2, 0))):
            got, want = _within(tables, x), _within_reference(tables, x)
            assert all(a.shape == np.shape(x) and np.array_equal(a, b) for a, b in zip(got, want))


def test_decay_kernel_reads_both_ends_in_one_lookup(demo_eq):
    # one lookup on both ends stacked: bitwise the two lookups, with
    # t == s, reversed pairs, G_0 exact at r = 1 and a saturated level
    # table (r = 6)
    rng = np.random.default_rng(11)
    ts = np.concatenate([rng.uniform(0.0, 40.0, 200), [0.0, 3.0, 7.5, 40.0]])
    ss = np.concatenate([rng.uniform(0.0, 40.0, 200), [0.0, 3.0, 2.5, 37.0]])
    ss[:50] = ts[:50]
    cache = KernelCache()
    for r in (1, 2, 3, 6):
        g = kernel._level(demo_eq, r - 1, cache, kernel.DEFAULT_TOL)
        assert g.saturated == (r == 6)
        for t, s in ((ts, ss), (ss, ts), (ts.reshape(4, -1), ss.reshape(4, -1))):
            lo, hi = np.minimum(t, s), np.maximum(t, s)
            expo = np.full(lo.shape, math.inf) if g.saturated else g.values(hi) - g.values(lo)
            with np.errstate(over="ignore"):
                value = np.where(expo > kernel._EXP_MAX, math.inf, np.exp(expo))
            want = np.where(t == s, 1.0, np.where(t >= s, value, 1.0 / value))
            got = decay_kernel(demo_eq, r, t, s, cache=cache)
            assert got.shape == t.shape and np.array_equal(got, want)


def test_decay_kernel_is_at_least_one_where_the_level_table_rounds(demo_eq):
    # G_4 reaches about 3e68, where one ulp is about 5e52: rounding alone
    # made G_4(hi) - G_4(lo) fall below -745 on some pairs, so K_5 read 0.0
    # and its reciprocal divided by zero
    rng = np.random.default_rng(11)
    ts, ss = rng.uniform(0.0, 40.0, 200), rng.uniform(0.0, 40.0, 200)
    cache = KernelCache()
    g = kernel._level(demo_eq, 4, cache, kernel.DEFAULT_TOL)
    assert (g.values(np.maximum(ts, ss)) - g.values(np.minimum(ts, ss)) < -745.0).any()
    for t, s in ((ts, ss), (ss, ts)):
        k = decay_kernel(demo_eq, 5, t, s, cache=cache)
        assert np.all(k[t >= s] >= 1.0) and np.all(k[t < s] <= 1.0)


# a tent lag rising from L/2 to L over half a period and falling back: its
# two lattice phases have about 2 L/P delay preimages
_LONG_SLOPED_LAG_RUN = """
import json, resource, sys, time
from delayosc import DelayEquation, KernelCache, PiecewisePeriodic, check_all, kernel

ratio = float(sys.argv[1])
lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.5 * ratio), (0.5, ratio)))
p = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 0.3 / ratio),))
eq = DelayEquation(coefficients=(p,), lags=(lag,))
start = time.perf_counter()
overall = check_all(eq, 2).overall
seconds = time.perf_counter() - start
kinks = len(kernel._phases(eq, KernelCache(), 1))
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(dict(overall=overall, kinks=kinks, seconds=seconds, rss_mb=rss_mb)))
"""


def _run_capped(code, *args):
    """The JSON that ``code`` prints, run in a child capped at 1 GiB of
    address space, so a regression fails here instead of exhausting the
    machine."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_memory,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def _run_long_sloped_lag(ratio):
    """``check_all`` at r=2 on the tent lag at L/P = ``ratio``, capped."""
    out = _run_capped(_LONG_SLOPED_LAG_RUN, ratio)
    assert out["overall"] == "inconclusive"
    assert out["seconds"] <= 10.0 and out["rss_mb"] <= 300.0, out
    return out


def _lattice(eq):
    """The breakpoint phases of every coefficient and lag."""
    return phase_lattice(eq.coefficients + eq.lags)


def test_kink_phases_stay_under_the_cap_on_a_long_sloped_lag():
    # the seeds hold the lattice and its 2000 delay preimages
    out = _run_long_sloped_lag(1000.0)
    lattice = len(_lattice(make_tent_lag_equation(1000.0)))
    assert lattice < out["kinks"] <= lattice + kernel._MAX_KINKS, out


def test_kink_phases_fall_back_to_the_lattice_past_the_cap():
    # at L/P = 1e4 the preimages would pass the cap: the lattice alone
    out = _run_long_sloped_lag(1e4)
    assert out["kinks"] == len(_lattice(make_tent_lag_equation(1e4))), out


def test_a_check_past_the_kink_cap_says_so_in_its_notes(demo_eq):
    # the fallback holds fewer kinks, so values may miss tol: never silently
    def capped(eq, r):
        note = f"kink cap reached: past {kernel._MAX_KINKS} delay preimages"
        return any(n.startswith(note) for n in check_all(eq, r).notes)

    assert capped(make_tent_lag_equation(1e4), 2)
    assert not any(capped(demo_eq, r) for r in (1, 2, 3, 4))


# The tent lag from 500 to 1000 periods settles at once, and h(0) lies about
# 500 periods below 0: the transient sliding table once spanned all of them,
# each tiled with the level-1 phases, 1e6 seeds, and took 2.2 GB at r = 1
_LONG_LAG_SMALL_TIMES_RUN = """
import json, resource, sys, time
import numpy as np
from delayosc import DelayEquation, PiecewisePeriodic, inner_criterion_integral

lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 500.0), (0.5, 1000.0)))
p = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 3e-4),))
eq = DelayEquation(coefficients=(p,), lags=(lag,))
start = time.perf_counter()
r = int(sys.argv[1])
values = [inner_criterion_integral(eq, r, 0.0), *inner_criterion_integral(eq, r, np.linspace(0.0, 20.0, 37))]
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(dict(finite=bool(np.isfinite(values).all()), seconds=seconds, rss_mb=rss_mb)))
"""


@pytest.mark.parametrize("r", [1, 2])
def test_small_times_on_a_long_lag_read_one_period_tables(r):
    out = _run_capped(_LONG_LAG_SMALL_TIMES_RUN, r)
    assert out["finite"] and out["seconds"] <= 10.0 and out["rss_mb"] <= 300.0, out


def test_small_times_read_where_the_envelope_rounds_below_its_start():
    # draw 7 of seed 777 settles at once and is flat near 0: h(5/9) rounds
    # two ulps below h(0), where the transient table once started, and the
    # inner lookup raised
    rng = np.random.default_rng(777)
    for _ in range(7):
        make_random_equation(rng)
    eq = make_random_equation(rng)
    env = combined_envelope(eq)
    assert env.t_stab == 0.0 and env.values(0.5555555555555556) < env.values(0.0)
    ts = np.linspace(0.0, 20.0, 37)
    cache = KernelCache()
    for r in (1, 2, 3):
        for lookup in (inner_criterion_integral, outer_criterion_integral):
            assert np.isfinite(lookup(eq, r, ts, cache=cache, env=env)).all()
    # below h(0) and across 0 the integral is additive; on an envelope that
    # settles after one period, below 0 and from t_stab on, the spans that
    # miss [0, t_stab)
    settles_late = make_random_equation(rng)
    while combined_envelope(settles_late).t_stab == 0.0:
        settles_late = make_random_equation(rng)
    h0 = float(env.values(0.0))
    late = combined_envelope(settles_late)
    t_stab = late.t_stab
    for eq, env, cuts in (
        (eq, env, [h0 - 0.1, h0, 0.0, 1.0]),
        (settles_late, late, [-2.0 * t_stab, -1.3 * t_stab, -0.5 * t_stab]),
        (settles_late, late, [t_stab, 1.5 * t_stab, 3.0 * t_stab]),
    ):
        whole = term_integral(eq, 1, 0, cuts[0], cuts[-1], cache=cache, env=env)
        parts = [term_integral(eq, 1, 0, a, b, cache=cache, env=env) for a, b in zip(cuts, cuts[1:])]
        assert whole == pytest.approx(sum(parts), rel=1e-13, abs=1e-15)


# -- the kink phase ladder against its loop version ---------------------------


def _preimage_phases_loop(lags, period, phases):
    """(the number of candidates, the preimages found among them)."""
    count, found = 0, []
    for lag in lags:
        nodes = list(zip(*(v.tolist() for v in kernel._tau_polyline(lag, 0.0, period))))
        for (z0, y0), (z1, y1) in zip(nodes, nodes[1:]):
            if z1 <= z0:
                continue
            slope = (y1 - y0) / (z1 - z0)
            if abs(slope) < 1e-13:
                continue
            ylo, yhi = (y0, y1) if y0 <= y1 else (y1, y0)
            for phi in phases:
                n0 = math.ceil((ylo - phi) / period - 1e-12)
                n1 = math.floor((yhi - phi) / period + 1e-12)
                count += max(n1 - n0 + 1, 0)
                for n in range(n0, n1 + 1):
                    z = z0 + (phi + n * period - y0) / slope
                    if z0 - 1e-12 <= z <= z1 + 1e-12:
                        z = min(max(z, 0.0), period)
                        if z < period:
                            found.append(z)
    return count, found


def _chain(lags, period):
    """The delay arguments of ``lags`` over one period, in one polyline."""
    polys = [kernel._tau_polyline(lag, 0.0, period) for lag in lags]
    return tuple(np.concatenate(part) for part in zip(*polys))


@pytest.mark.parametrize("case", range(10))
def test_kink_phases_equal_the_loop_versions(case, monkeypatch):
    eq = kink_cases()[case]
    lattice = _lattice(eq)
    tail = combined_envelope(eq).tail_lag
    counts, found = {}, {}
    for key, lags in (("lags", eq.lags), ("tail", [tail])):
        counts[key], found[key] = _preimage_phases_loop(lags, eq.period, list(lattice))
        # the preimages, or None exactly when the candidates pass the cap
        chain = _chain(lags, eq.period)
        for cap in (kernel._MAX_KINKS, counts[key], counts[key] - 1):
            got = kernel._lattice_preimages(chain, lattice, eq.period, cap)
            assert (got is None) == (counts[key] > cap)
            if got is not None:
                assert np.array_equal(np.sort(got[got < eq.period]), np.sort(found[key]))
    # rung 1, and rung 1 with the tail lag's preimages of the lattice: each
    # rung adds its preimages, or stays as it is past the cap
    for cap in (kernel._MAX_KINKS, counts["lags"], counts["lags"] - 1, counts["tail"], counts["tail"] - 1):
        monkeypatch.setattr(kernel, "_MAX_KINKS", cap)
        level1 = lattice
        if counts["lags"] <= cap:
            level1 = kernel._merge_close(np.concatenate([lattice, found["lags"]]))
        with_tail = level1
        if counts["tail"] <= cap:
            with_tail = kernel._merge_close(np.concatenate([level1, found["tail"]]))
        cache = KernelCache()
        assert np.array_equal(kernel._phases(eq, cache, 0), lattice)
        assert np.array_equal(kernel._phases(eq, cache, 1), level1)
        assert np.array_equal(kernel._phases(eq, cache, 1, tail), with_tail)


def test_preimage_phases_build_about_the_limit_at_most():
    # the tent lag at L/P = 1e6: its lattice has about 2 million preimages,
    # 16 MB per array; refused under the cap, they must not be built first
    eq = make_tent_lag_equation(1e6)
    lattice = _lattice(eq)
    tracemalloc.start()
    try:
        assert np.array_equal(kernel._phases(eq, KernelCache(), 1), lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# -- the joint fit of several integrands ---------------------------------------


def _assert_same_table(a, b):
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.coef, b.coef)
    assert np.array_equal(a.cum, b.cum)


@pytest.mark.parametrize("late", [False, True])
def test_an_overflowing_row_saturates_only_its_own_table(late):
    # the steep row overflows on the first samples of [0.4, 1], or (late)
    # only once that piece is bisected, its samples then nearer to 1
    edges = np.array([0.0, 0.4, 1.0])

    def smooth(zs):
        return np.cos(7.0 * zs) + zs * zs

    def both(zs):
        steep = 1e6 * (zs - 0.999) + 709.0 if late else 800.0 * zs
        return np.stack([np.exp(steep), smooth(zs)])

    # tol 1e-8: the tail test reads tol / 100; the seeds as hints, so every
    # cut halves
    steep, joint = kernel._fit_table(both, edges, 1e-8, edges)
    assert steep.saturated and steep.total == math.inf
    (alone,) = kernel._fit_table(lambda zs: smooth(zs)[None], edges, 1e-8, edges)
    if late:
        # the rows were bisected together until the overflow
        assert len(joint.edges) > len(alone.edges)
        assert joint.total == pytest.approx(alone.total, rel=1e-13)
    else:
        _assert_same_table(joint, alone)


def test_frozen_integral_reads_the_table_fitted_with_the_sliding_one(demo_eq):
    # W is keyed by the envelope: the same value from a shared cache, a fresh
    # cache, with the envelope passed and with it resolved
    env = combined_envelope(demo_eq)
    shared = KernelCache()
    for r in (1, 2, 3):
        args = (demo_eq, r, 1, 9.4, 13.1)
        sliding = term_integral(*args, cache=shared, env=env)
        got = {
            term_integral(*args, envelope_at=11.0, cache=shared, env=env),
            term_integral(*args, envelope_at=11.0, cache=shared),
            term_integral(*args, envelope_at=11.0, env=env),
            term_integral(*args, envelope_at=11.0),
        }
        assert len(got) == 1
        assert term_integral(*args, cache=shared, env=env) == sliding
        assert term_integral(*args) == sliding


def test_check_fits_each_sliding_and_frozen_pair_once(monkeypatch, demo_eq):
    # r = 3: G_1, G_2, then F and W in one fit (they took two)
    fits = []
    fit = kernel._fit_table

    def counting_fit(f, edges, tol, hints):
        fits.append(len(edges))
        return fit(f, edges, tol, hints)

    monkeypatch.setattr(kernel, "_fit_table", counting_fit)
    check_all(demo_eq, 3)
    assert len(fits) == 3


def test_integrand_calls_take_at_most_a_block(monkeypatch, demo_eq):
    # a round of the 1000-breakpoint coefficient's tables holds 47 243
    # points; the integrand is elementwise, so blocks change no value
    sizes = []
    weighted = kernel._weighted_sums

    def recording(eq, terms, level, zs, *args):
        sizes.append(zs.size)
        return weighted(eq, terms, level, zs, *args)

    monkeypatch.setattr(kernel, "_weighted_sums", recording)
    check_all(make_many_breakpoint_equation(), 1)
    assert 0 < max(sizes) <= kernel._BLOCK
    whole = repr(check_all(demo_eq, 3))
    monkeypatch.setattr(kernel, "_BLOCK", 100)
    assert repr(check_all(demo_eq, 3)) == whole


# -- cutting failing pieces at the delay preimages -------------------------------


def _cut_points_loop(lo, hi, hints, multi):
    """The pieces of ``kernel._cut_points``, sorted, by a loop over pieces."""
    out = []
    for a, b in zip(lo, hi):
        w, mid = b - a, 0.5 * (a + b)
        middle = [x for x in hints if a + 0.25 * w <= x <= b - 0.25 * w]
        inner = [x for x in hints if a + w / 64 < x < b - w / 64]
        if multi and 2 <= len(inner) <= kernel._CHEB_DEG:
            cuts = inner
        elif middle:
            cuts = [min(middle, key=lambda x: abs(x - mid))]
        else:
            cuts = [mid]
        ends = [a, *cuts, b]
        out += zip(ends[:-1], ends[1:])
    return sorted(out)


@pytest.mark.parametrize("multi", [False, True])
def test_cut_points_equal_the_loop_version(multi):
    rng = np.random.default_rng(3)
    for _ in range(200):
        edges = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 12))))
        fail = rng.random(edges.size - 1) < 0.7
        lo, hi = edges[:-1][fail], edges[1:][fail]
        # hints anywhere, on the pieces' ends and just inside them
        hints = np.concatenate(
            [rng.uniform(0.0, 1.0, int(rng.integers(1, 40))), edges, edges + 1e-12]
        )
        hints = np.sort(hints[rng.random(hints.size) < 0.6])
        if not hints.size:
            continue
        new_lo, new_hi = kernel._cut_points(lo, hi, hints, multi)
        assert sorted(zip(new_lo, new_hi)) == _cut_points_loop(lo, hi, hints, multi)


def test_cut_points_away_from_hints_are_plain_halving():
    # the same arrays in the same order as halving: a table with no hint in
    # reach is the plain halving table, bitwise
    lo, hi = np.array([0.0, 0.5, 2.0]), np.array([0.5, 1.0, 3.0])
    mid = 0.5 * (lo + hi)
    hints = np.array([0.01, 0.9, 2.1, 2.95])
    new_lo, new_hi = kernel._cut_points(lo, hi, hints, multi=False)
    assert np.array_equal(new_lo, np.concatenate([lo, mid]))
    assert np.array_equal(new_hi, np.concatenate([mid, hi]))


def _fitted(monkeypatch, eqs, rs, hints=True):
    """(samples, tables): the integrand samples and the tables of every fit
    that ``check_all`` makes for ``eqs`` at the depths ``rs``.  Without
    ``hints`` the seeds are the hints, so each failing piece is cut at its
    midpoint.  The tables do not depend on the scan grid, so the grid is
    small."""
    fit = kernel._fit_table
    samples, tables = [0], []

    def counting_fit(f, edges, tol, cuts):
        def counted(zs):
            samples[0] += zs.size
            return f(zs)

        out = fit(counted, edges, tol, cuts if hints else edges)
        tables.extend(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_fit_table", counting_fit)
        for eq in eqs:
            for r in rs:
                check_all(eq, r, n_grid=50)
    return samples[0], tables


def test_hints_cut_the_demo_tables_in_fewer_samples(monkeypatch, demo_eq):
    # depth 3 breaks the depth-3 sliding and frozen integrands at the
    # depth-2 preimages; halving took 7752 samples at r = 3, 33 422 at r = 4
    for r, most in ((3, 3200), (4, 13000)):
        cut, _ = _fitted(monkeypatch, [demo_eq], [r])
        halved, _ = _fitted(monkeypatch, [demo_eq], [r], hints=False)
        assert cut <= most < halved, (r, cut, halved)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hints_never_cost_samples_on_the_bench_piecewise_config(monkeypatch, r):
    eq = make_bench_piecewise_equation()
    cut, _ = _fitted(monkeypatch, [eq], [r])
    halved, _ = _fitted(monkeypatch, [eq], [r], hints=False)
    assert cut <= halved


def test_hints_cost_little_on_random_draws(monkeypatch):
    rng = np.random.default_rng(20261019)
    eqs = [make_random_equation(rng) for _ in range(12)]
    cut, _ = _fitted(monkeypatch, eqs, [2, 3])
    halved, _ = _fitted(monkeypatch, eqs, [2, 3], hints=False)
    assert cut <= 1.05 * halved, (cut, halved)


def test_hints_past_the_kink_cap_leave_plain_halving(monkeypatch):
    # at L/P = 1e4 even the first level of preimages passes _MAX_KINKS: the
    # hints are the lattice, which the seeds already hold
    eq = make_tent_lag_equation(1e4)
    cache = KernelCache()
    assert np.array_equal(kernel._phases(eq, cache, 2), kernel._phases(eq, cache, 0))
    cut, tables = _fitted(monkeypatch, [eq], [3])
    halved, plain = _fitted(monkeypatch, [eq], [3], hints=False)
    assert cut == halved
    assert len(tables) == len(plain)
    for a, b in zip(tables, plain):
        _assert_same_table(a, b)


def test_hint_levels_stop_at_the_last_one_under_the_cap(monkeypatch, demo_eq):
    # the demo's levels hold 3, 18, 105, 471, 2196 and 10 188 phases; the
    # next would pass _MAX_KINKS
    cache = KernelCache()
    sizes = [len(kernel._phases(demo_eq, cache, k)) for k in range(8)]
    assert sizes == [3, 18, 105, 471, 2196, 10188, 10188, 10188]
    monkeypatch.setattr(kernel, "_MAX_KINKS", 200)
    cache = KernelCache()
    assert [len(kernel._phases(demo_eq, cache, k)) for k in range(5)] == [3, 18, 105, 105, 105]


def test_tables_are_seeded_at_level_one_and_cut_at_level_depth_minus_one(monkeypatch, demo_eq):
    # G_L reads G_{L-1} at the delayed arguments, so it breaks at level L - 1;
    # the settled F/W table adds the tail lag's preimages to both.  G_1 and
    # G_2 are cut at levels 0 and 1, which their seeds hold: they halve
    fits = []
    fit = kernel._fit_table

    def recording_fit(f, edges, tol, hints):
        fits.append((edges, hints))
        return fit(f, edges, tol, hints)

    monkeypatch.setattr(kernel, "_fit_table", recording_fit)
    env = combined_envelope(demo_eq)
    cache = KernelCache()
    inner_criterion_integral(demo_eq, 4, 40.0, cache=cache, env=env)
    tail = env.tail_lag
    settled = EnvelopeFunction(0.0, (), tail).knots(0.0, demo_eq.period)
    seeds = kernel._seed_edges(kernel._phases(demo_eq, cache, 1), 0.0, demo_eq.period)
    want = [(seeds, kernel._phases(demo_eq, cache, k)) for k in range(3)]
    points = np.concatenate([kernel._phases(demo_eq, cache, 1, tail), settled])
    want.append((kernel._seed_edges(points, 0.0, demo_eq.period), kernel._phases(demo_eq, cache, 3, tail)))
    assert len(fits) == len(want)
    for (edges, hints), (want_edges, want_hints) in zip(fits, want):
        assert np.array_equal(edges, want_edges)
        assert np.array_equal(hints, want_hints)


def test_caps_hold_with_multi_way_cuts(monkeypatch, demo_eq):
    env = combined_envelope(demo_eq)

    def fw_table():
        calls = []

        def counting_fit(f, edges, tol, hints):
            return fit(lambda zs: calls.append(zs.size) or f(zs), edges, tol, hints)

        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_fit_table", counting_fit)
            cache = KernelCache()
            kernel._level(demo_eq, 2, cache, kernel.DEFAULT_TOL)
            calls.clear()
            tables = kernel._sliding_table(demo_eq, 3, (0, 1), env, cache, kernel.DEFAULT_TOL)
        return tables[0], len(calls)

    fit = kernel._fit_table
    table, rounds = fw_table()
    assert (len(table.edges) - 1, rounds) == (111, 4)
    # _MAX_PIECES counts the pieces a round makes, multi-way cuts included
    for cap in range(18, 112, 3):
        monkeypatch.setattr(kernel, "_MAX_PIECES", cap)
        assert len(fw_table()[0].edges) - 1 <= cap
    monkeypatch.undo()
    for cap in (0, 1, 2):
        monkeypatch.setattr(kernel, "_MAX_BISECT", cap)
        assert fw_table()[1] == cap + 1
