"""Asymptotic constants, fixed point, thresholds, and verdict assembly."""

import math
import os
from functools import partial
import subprocess
import sys
import warnings

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
    combined_envelope,
    hunt_yorke_liminf,
    kwong_limsup,
    lambda0,
    limsup_envelope_integral,
)
from delayosc import criteria
from delayosc.envelope import tau_max, tau_max_polyline

from conftest import (
    breakpoint_times_reference,
    fixed_point_lambda,
    kink_cases,
    make_bench_piecewise_equation,
    make_constant_equation,
    make_demo_equation,
    make_many_breakpoint_equation,
    make_random_equation,
    make_rescaled_equation,
    make_tent_lag_equation,
    nth_random_equation,
)

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


# -- extremum scan ----------------------------------------------------------


def _scan_extremum(f, cand, mode):
    """``(value, t)``: the extremum of the one-row profile ``f``.  The scan
    finds maxima; a minimum is the maximum of ``-f`` negated, which is
    exact."""
    sign = 1.0 if mode == "max" else -1.0
    (best,) = criteria._scan_maxima(lambda ts: [sign * f(ts)], cand)
    return sign * best.value, best.t


def _zoom_bracket(g, xs, gs, tie, xtol):
    """Scalar zoom about a bracket's best point: from ``xs = (a, c, b)`` and
    their values ``gs``, each side of c cut in 16 equal parts, the neighbours
    of the first best interior sample kept and centred on it, until the 33
    samples are straight to ``tie`` (finite, second differences within it)
    everywhere but at the best, the bracket is no wider than xtol, or a step
    fails to halve it."""
    (a, c, b), (ga, gc, gb) = xs, gs
    offsets = np.arange(-16.0, 17.0)
    while True:
        left, right = (c - a) / 16, (b - c) / 16
        xs = [a] + [c + (left if j < 0 else right) * j for j in offsets[1:-1]] + [b]
        gs = [ga] + [gc if j == 0 else g(x) for j, x in zip(offsets[1:-1], xs[1:-1])] + [gb]
        gs = [math.inf if math.isnan(v) else v for v in gs]
        k = 1 + gs[1:-1].index(min(gs[1:-1]))
        straight = all(math.isfinite(v) for v in gs) and all(
            abs(gs[i - 1] - 2.0 * gs[i] + gs[i + 1]) <= tie for i in range(1, 32) if i != k
        )
        width = b - a
        (a, c, b), (ga, gc, gb) = xs[k - 1 : k + 2], gs[k - 1 : k + 2]
        if straight or not (b - a > xtol and b - a <= 0.5 * width):
            return c, gc


def _zoom_bracket_7(g, a, b, xtol):
    """The 7-point zoom, 4x per step about the bracket's midpoint, that
    preceded the 31-point one: the neighbours of the first best interior
    sample kept, until the bracket is no wider than xtol or a step fails to
    halve it."""
    c, gc, mid = 0.5 * (a + b), None, 4
    while True:
        h = (b - a) / 8
        xs = [a] + [c + j * h for j in np.arange(1.0 - mid, mid)] + [b]
        gs = [gc if j == mid - 1 and gc is not None else g(x) for j, x in enumerate(xs[1:-1])]
        gs = [math.inf if math.isnan(v) else v for v in gs]
        k = gs.index(min(gs))
        width = b - a
        a, c, b, gc = xs[k], xs[k + 1], xs[k + 2], gs[k]
        if not (b - a > xtol and b - a <= 0.5 * width):
            return c, gc


def _golden_bracket(g, a, b, xtol):
    """Scalar golden-section search on [a, b] down to xtol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > xtol:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    x = 0.5 * (a + b)
    return x, g(x)


def _scan_reference(f, cand, mode, xtol=1e-10, search=None, tie_rel=1e-13):
    """One bracket at a time over the period ``[cand[0], cand[-1]]``, whose
    last candidate is the first one's periodic copy: each run of local
    extrema, neighbours taken cyclically and values within ``tie_rel`` of the
    largest finite one counting as equal, refined in the order of its first
    best point, by ``_zoom_bracket`` about that point or by a scalar
    ``search(g, a, b, xtol)`` between its outer neighbours, a neighbour past
    an end read a period away; a strictly better one wins, its location
    moved a period back into ``[cand[0], cand[-1])``."""
    sign = 1.0 if mode == "min" else -1.0

    def g(x):
        return sign * float(f(np.array([x]))[0])

    n, period = len(cand) - 1, float(cand[-1] - cand[0])
    vals = sign * np.asarray(f(cand[:-1]), dtype=float)
    best_val, best_t = float(vals.min()), float(cand[int(np.argmin(vals))])
    finite = [abs(v) for v in vals if math.isfinite(v)]
    tie = tie_rel * max(finite) if finite else 0.0
    is_min = [vals[j] <= vals[j - 1] + tie and vals[j] <= vals[(j + 1) % n] + tie for j in range(n)]
    # runs as (first, last) counted on past the last point; all of them one run
    flat = all(is_min)
    runs = [(0, n - 1)] if flat else []
    for j in range(n):
        if is_min[j] and not is_min[j - 1] and not flat:
            k = j
            while is_min[(k + 1) % n]:
                k += 1
            runs.append((j, k))

    def at(i):
        # point i, past either end a period away
        return float(cand[i]) if 0 <= i <= n else float(cand[i % n]) + period * (i // n)

    brackets = []
    for j0, j1 in runs:
        jc = min(range(j0, j1 + 1), key=lambda j: vals[j % n])  # first among equals
        lap = n * (jc // n)  # the best point back into the window
        brackets.append((jc - lap, j0 - 1 - lap, j1 + 1 - lap))
    for jc, i, k in sorted(brackets):
        a, b = at(i), at(k)
        if search is None:
            x, gx = _zoom_bracket(
                g, (a, at(jc), b), (vals[i % n], vals[jc], vals[k % n]), tie, xtol
            )
        else:
            x, gx = search(g, a, b, xtol)
        if gx < best_val:
            best_val, best_t = gx, x
    if best_t < cand[0]:
        best_t += period
    elif best_t >= cand[-1]:
        best_t -= period
    return sign * best_val, min(max(best_t, float(cand[0])), math.nextafter(cand[-1], cand[0]))


def _reference_profiles(demo_eq, control_eq):
    # flat runs and ties: a periodic staircase of three levels, a run of its
    # lowest level wrapping across the seam
    knots = np.linspace(0.0, 1.0, 201)
    steps = np.random.default_rng(3).integers(0, 3, knots.size).astype(float)
    steps[:3] = steps[-4:] = 0.0
    profiles = [(lambda ts: np.interp(ts, knots, steps, period=1.0), knots)]
    # two equal grid values either side of the peak and of the trough, which
    # sits at the seam: one bracket spans each pair
    cand = 0.0625 + 0.125 * np.arange(9)
    profiles.append((lambda ts: np.cos(2.0 * math.pi * (ts - 0.5)), cand))
    # the control profile is flat up to rounding: many noise brackets
    for eq in (demo_eq, control_eq):
        for kind in ("inner", "outer"):
            f, _, ts = criteria.criterion_profile(eq, 1, kind, n_grid=100)
            profiles.append((f, ts))
    return profiles


def test_scan_rows_together_equal_each_row_alone(demo_eq, control_eq):
    # rows scanned in one pass, the first negated, equal one-row scans
    for f, ts in _reference_profiles(demo_eq, control_eq):
        low, high = criteria._scan_maxima(lambda x: [-f(x), f(x)], ts)
        got = [(-low.value, low.t), (high.value, high.t)]
        assert got == [_scan_extremum(f, ts, mode) for mode in ("min", "max")]
    # the two criterion integrals, rows of one profile, each as if alone
    for eq in (demo_eq, control_eq):
        _, _, ts = criteria.criterion_profile(eq, 1, n_grid=100)
        rows = criteria._criterion(eq, 1, ("inner", "outer"), None, None, 1e-8)
        high, low = criteria._scan_maxima(lambda x: rows(x) * [[1.0], [-1.0]], ts)
        assert [(high.value, high.t), (-low.value, low.t)] == [
            _scan_extremum(lambda x: rows(x)[k], ts, mode) for k, mode in enumerate(("max", "min"))
        ]


def test_scan_reaches_the_zoom_reference(demo_eq, control_eq):
    # each extremum is the zoom's, or better, to 1e-14 of the profile's scale
    for f, ts in _reference_profiles(demo_eq, control_eq):
        scale = float(np.abs(f(ts)).max())
        for mode, sign in (("max", 1.0), ("min", -1.0)):
            new = _scan_extremum(f, ts, mode)[0]
            assert sign * (new - _scan_reference(f, ts, mode)[0]) >= -1e-14 * scale


def _assert_agrees_with_exact_ties(demo_eq, control_eq, search):
    # against the scan before rounding ties, a bracket per run of exactly
    # equal local extrema; relative to the profile's scale: the parabola
    # peaks at 0
    for f, ts in _reference_profiles(demo_eq, control_eq):
        scale = float(np.abs(f(ts)).max())
        for mode in ("min", "max"):
            new = _scan_extremum(f, ts, mode)[0]
            old = _scan_reference(f, ts, mode, search=search, tie_rel=0.0)[0]
            assert abs(new - old) <= 1e-13 * scale


def test_scan_agrees_with_the_exact_tie_zoom(demo_eq, control_eq):
    _assert_agrees_with_exact_ties(demo_eq, control_eq, _zoom_bracket_7)


def test_scan_agrees_with_golden_section(demo_eq, control_eq):
    _assert_agrees_with_exact_ties(demo_eq, control_eq, _golden_bracket)


def test_scan_finds_peaks_the_grid_misses():
    # one period, no point on a peak or a trough
    cand = 0.013 + np.linspace(0.0, 1.0, 51)

    def f(ts):
        return np.cos(6.0 * math.pi * ts)

    top, t_top = _scan_extremum(f, cand, "max")
    bottom, t_bottom = _scan_extremum(f, cand, "min")
    assert abs(top - 1.0) <= 1e-15 and abs(bottom + 1.0) <= 1e-15
    # equal extrema resolve to the first one
    assert t_top == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert t_bottom == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_scan_of_a_constant_profile_returns_the_first_candidate():
    cand = np.linspace(2.0, 3.0, 11)
    for mode in ("min", "max"):
        assert _scan_extremum(np.zeros_like, cand, mode) == (0.0, 2.0)


def test_scan_of_two_equal_peaks_returns_the_first():
    # flat-topped tents at 0.3 and 0.7 with tops of width 0.04 between grid points
    def f(ts):
        tent = lambda p: np.minimum(1.0, 2.0 - 50.0 * np.abs(ts - p))  # noqa: E731
        return np.maximum(tent(0.3), tent(0.7))

    cand = 0.025 + 0.05 * np.arange(20)
    assert f(cand).max() < 1.0
    value, t = _scan_extremum(f, cand, "max")
    assert value == 1.0
    assert abs(t - 0.3) <= 0.02


def test_brackets_centre_on_the_best_point_of_each_run():
    # runs of tied local minima: {1}, {3, 4} (4 is lower by less than the
    # tie) and {6, 7} (exactly equal: the first)
    vals = np.array([3.0, 1.0, 2.0, 1.0 + 1e-14, 1.0, 5.0, 0.0, 0.0, 4.0])
    lo, c, hi = criteria._brackets(vals, 1e-13).T
    assert (lo.tolist(), c.tolist(), hi.tolist()) == ([0, 2, 5], [1, 4, 6], [2, 5, 8])
    # neighbours are cyclic: a run wraps across the seam, its best point is
    # the first in run order, and its ends count on past the last point or
    # before the first; a flat circle is one run
    for vals, tie, want in [
        ([0.0, 5.0, 3.0, 4.0, 0.0], 0.0, ([1, 3], [2, 4], [3, 6])),
        ([0.05, 0.0, 5.0, 3.0, 4.0, 0.02], 0.1, ([-2, 2], [1, 3], [2, 4])),
        ([1.0, 1.0, 1.0], 0.0, ([-1], [0], [3])),
    ]:
        lo, c, hi = criteria._brackets(np.array(vals), tie).T
        assert (lo.tolist(), c.tolist(), hi.tolist()) == want


def test_kink_on_a_grid_knot_ends_after_one_step():
    # a lopsided V whose knot 0.37 is a scan point off its bracket's middle:
    # each side of it is straight and peaks at the knot, so the side pass
    # gives no candidate, and the knot's own value stands
    cand = np.union1d(np.linspace(0.0, 1.0, 11), [0.37])

    def f(ts):
        return 0.5 + np.where(ts < 0.37, 0.37 - ts, 3.0 * (ts - 0.37))

    for mode, sign in (("min", 1.0), ("max", -1.0)):
        calls = []
        value, t = _scan_extremum(_counted(lambda ts: sign * f(ts), calls), cand, mode)
        assert (value, t) == (sign * 0.5, 0.37)
        assert len(calls) == 2  # the grid, then the sides


@pytest.mark.parametrize("peak", [0.4 + 0.02 / 100, 0.02 / 100, 1.0 - 0.02 / 100])
def test_smooth_peak_just_off_a_grid_point(peak):
    # the peak sits 1/100 of a grid spacing from a scan point: the fit of
    # the side that holds it puts its maximiser on the peak, so the maximum
    # is 4 to the ulp (the zoom gave 3.9999999999999996).  Next to the seam
    # the bracket reaches a period over, and the peak found there is
    # reported back inside the window
    cand = np.linspace(0.0, 1.0, 51)

    def f(ts):
        return 3.0 + np.cos(2.0 * math.pi * (ts - peak))

    top, t_top = _scan_extremum(f, cand, "max")
    bottom, t_bottom = _scan_extremum(lambda ts: -f(ts), cand, "min")
    assert abs(top - 4.0) <= math.ulp(4.0) and bottom == -top
    assert t_top == t_bottom and abs(t_top - peak) <= 1e-6
    assert cand[0] <= t_top < cand[-1]
    assert top >= _scan_reference(f, cand, "max")[0]


@pytest.mark.parametrize("shift", [0.0, 0.013, 0.3, 0.3 - 1e-4, 0.3 + 1e-4, 0.8 + 1e-4, -0.71, 1e3])
def test_scan_is_the_same_on_a_shifted_window(shift):
    # a period-1 profile peaking at 0.3 and dipping at 0.8: moving the window,
    # the seam onto an extremum or beside it, moves neither
    def f(ts):
        return 3.0 + np.cos(2.0 * math.pi * (ts - 0.3))

    cand = np.linspace(0.0, 1.0, 51)
    for mode, want in (("max", 0.3), ("min", 0.8)):
        value, t = _scan_extremum(f, cand, mode)
        moved, t_moved = _scan_extremum(f, cand + shift, mode)
        assert abs(moved - value) <= 1e-13 * 4.0
        assert cand[0] + shift <= t_moved < cand[-1] + shift
        assert abs(t - want) <= 1e-6
        assert abs((t_moved - t + 0.5) % 1.0 - 0.5) <= 1e-6


def test_scan_refines_every_bracket_in_lockstep(monkeypatch):
    # const family of the benchmark: lag / period 100, p * lag 0.21.  Its
    # kernel profiles are flat up to rounding, so without the tie the grid
    # holds hundreds of noise brackets; refined one at a time they would
    # cost tens of thousands of calls
    eq = make_constant_equation(0.0021, 100.0)
    calls = _count_profile_calls(monkeypatch)
    assert alpha(eq) == pytest.approx(0.21, abs=1e-12)
    for kind in ("inner", "outer"):
        limsup_envelope_integral(eq, 1, kind)
    assert len(calls) == 2 and all(len(n) <= 20 for n in calls), calls


def _counted(f, calls, limit=200):
    """``f``, recording the size of each call and raising past ``limit``
    calls, so a refinement that never stops fails instead of hanging."""

    def counted(ts):
        calls.append(len(ts))
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} profile calls")
        return f(ts)

    return counted


def _count_profile_calls(monkeypatch):
    """Count the calls of every profile ``_scan_maxima`` refines, one list
    per scan, each raising past 200 calls."""
    calls = []
    scan = criteria._scan_maxima

    def counting_scan(f, cand, *args):
        calls.append([])
        return scan(_counted(f, calls[-1]), cand, *args)

    monkeypatch.setattr(criteria, "_scan_maxima", counting_scan)
    return calls


def test_scan_ends_where_float_spacing_is_coarse():
    # near t = 1e12 doubles are 1.2e-4 apart: the sides' samples are
    # rounded to them, which the fits' error allows for, so that rounding
    # gives no candidate at a side's end
    t0 = 1e12
    cand = t0 + np.linspace(0.0, 1.0, 11)
    fine = t0 + np.linspace(0.0, 1.0, 100001)
    for f in (lambda ts: np.cos(5.0 * math.pi * (ts - t0)), lambda ts: np.sin(math.pi * (ts - t0 - 0.33)) ** 2):
        for mode in ("min", "max"):
            calls = []
            value, t = _scan_extremum(_counted(f, calls), cand, mode)
            assert len(calls) <= 3
            assert cand[0] <= t <= cand[-1]
            assert value == pytest.approx(getattr(np, mode)(f(fine)), abs=1e-6)


@pytest.mark.parametrize("period", [1e-3, 1.0, 1e5, 1e8])
def test_constant_equation_at_any_scale(monkeypatch, period):
    # p * L = 0.4 > 1/e; the check at r=2 used to refine forever from 1e5 on
    calls = _count_profile_calls(monkeypatch)
    eq = make_constant_equation(0.4 / period, period, period=period)
    assert alpha(eq) == pytest.approx(0.4, abs=1e-12)
    assert check_all(eq, 2).overall == "oscillatory"
    # the kernel scan is the only one
    assert len(calls) == 1 and len(calls[0]) <= 60


def test_check_all_profile_calls_per_job(monkeypatch, demo_eq):
    # grid evaluation included; golden-section refinement took 42-51 per job,
    # the 7-point zoom 15-18, the 31-point zoom about the bracket's middle
    # 8-10, centred on the best grid point and stopped once straight 2-6;
    # fitting both sides of every bracket at once, 3: the grid, the sides
    # and their maximisers.  The liminf constants are exact, so the kernel
    # profile is the one scan
    calls = _count_profile_calls(monkeypatch)
    check_all(demo_eq, 2)
    assert len(calls) == 1
    assert len(calls[0]) == 3, len(calls[0])


def test_flat_profile_stops_after_one_step(monkeypatch):
    # the const family: the kernel profile is flat up to rounding, so its
    # rows are not refined: the grid is the one call
    calls = _count_profile_calls(monkeypatch)
    check_all(make_constant_equation(0.0021, 100.0), 1)
    assert len(calls) == 1 and len(calls[0]) == 1, calls


def _count_passes(monkeypatch):
    """Count the calls of every kernel profile ``check_all`` builds."""
    passes = []
    make = criteria._criterion

    def counting(*args):
        f = make(*args)

        def counted(ts):
            passes.append(np.size(ts))
            return f(ts)

        return counted

    monkeypatch.setattr(criteria, "_criterion", counting)
    return passes


def test_kernel_profile_passes_per_check(monkeypatch, demo_eq, control_eq):
    # the control's rows are flat to their tie: the grid alone.  The demo
    # peaks on knots at r = 1, so no side gives a candidate: the grid and
    # the sides.  The benchmark's deep checks, r = 2 and 3 at grid 100, and
    # r = 4 peak between grid points: the grid, the sides and the maximisers
    passes = _count_passes(monkeypatch)
    for eq, r, n_grid, want in [
        (control_eq, 1, 500, 1),
        (control_eq, 2, 500, 1),
        (control_eq, 3, 500, 1),
        (make_constant_equation(0.0021, 100.0), 1, 500, 1),
        (demo_eq, 1, 500, 2),
        (make_bench_piecewise_equation(), 1, 500, 2),
        (demo_eq, 2, 100, 3),
        (demo_eq, 3, 100, 3),
        (demo_eq, 4, 500, 3),
    ]:
        passes.clear()
        check_all(eq, r, n_grid=n_grid)
        assert len(passes) == want, (r, n_grid, passes)


@pytest.mark.parametrize("case", [8, 9])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_maxima_reach_the_zoom(case, r):
    # the tent lag at L/P = 1e3 and 1e4 (past the kink cap): each row peaks
    # at an envelope knot computed an ulp past the kink it stands for, so
    # the knot's value is up to 1.2e-12 below the profile's, and the fit of
    # the side before it shows the gap
    eq = kink_cases()[case]
    f, _, ts = criteria._kernel_profile(eq, r, ("inner", "outer"), None, None, 1e-8, 500, True)
    for k, got in enumerate(criteria._scan_maxima(f, ts)):
        want = _scan_reference(lambda x: f(x)[k], ts, "max")[0]
        assert got.value >= want - 1e-14 * abs(want), (k, got.value, want)


def test_deep_kernel_maxima_within_their_rounding_noise(demo_eq):
    # at r = 4 the demo's frozen-envelope row carried rounding noise of
    # about +-1e-12 of its value around its peak (W_P - W(a) cancelled).
    # The zoom's best of about 200 samples there was one of the noise's
    # highs; the fit's maximiser gives one sample, within the noise of it
    f, _, ts = criteria._kernel_profile(demo_eq, 4, ("inner", "outer"), None, None, 1e-8, 500, True)
    for k, got in enumerate(criteria._scan_maxima(f, ts)):
        want = _scan_reference(lambda x: f(x)[k], ts, "max")[0]
        assert got.value >= want - 2e-12 * abs(want), (k, got.value, want)


def test_frozen_row_at_depth_four_is_as_smooth_as_the_sliding_one(demo_eq):
    # rounding noise around each row's peak, as the residual of a quartic
    # fit to 2001 samples within 2e-5 of it: the frozen row's was 4.7e-13
    # of its value at r = 4, a thousand times the sliding row's, while its
    # table's W_P - W(a) cancelled about four digits and its exponent
    # G_3(h(t)) was rounded to a double of about 1508
    rep = check_all(demo_eq, 4)
    f, _, _ = criteria._kernel_profile(demo_eq, 4, ("inner", "outer"), None, None, 1e-8, 500)
    x = np.linspace(-1.0, 1.0, 2001)
    noise = []
    for k, name in enumerate(("main_2_8", "bcs_1_8")):
        y = f(rep[name].params["t"] + 2e-5 * x)[k]
        y = y / y.max()
        noise.append(float(np.std(y - np.polyval(np.polyfit(x, y, 4), x))))
    assert noise[1] <= 10.0 * noise[0], noise


def test_saturated_demo_warns_nothing(demo_eq):
    # at r = 5 the demo's rows saturate to +inf: the scan's flat-row test
    # reads finite values only, and no side is fitted on an infinite sample
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = check_all(demo_eq, 5)
    assert rep["bcs_1_8"].value == math.inf and rep.witness == "bcs_1_8"


def test_saturated_demo_reports_inf(demo_eq):
    # the depth-5 kernel overflows: a row whose best is +inf is not refined,
    # and a side with an infinite sample gives that sample
    rep = check_all(demo_eq, 5, n_grid=50)
    for name in ("bcs_1_8", "bcs_1_9", "main_2_8"):
        assert rep[name].value == math.inf and rep[name].satisfied


def _count_sides(monkeypatch):
    """Count the sides each ``_refine_sides`` call starts from, one entry
    per call."""
    sides = []
    refine = criteria._refine_sides

    def counting_refine(f, a, *args):
        sides.append(len(a))
        return refine(f, a, *args)

    monkeypatch.setattr(criteria, "_refine_sides", counting_refine)
    return sides


def test_flat_profile_is_one_bracket_not_hundreds(monkeypatch):
    # the const family again, through check_all: its alpha / Kwong profile
    # is flat up to rounding, and an exact-tie scan refined 2131 brackets,
    # 136394 points on that job alone.  Each kernel row is one bracket, and
    # flat to its tie, so it is not refined at all: the grid is the one call
    eq = make_constant_equation(0.0021, 100.0)
    f, _, ts = criteria.criterion_profile(eq, 1, "outer")
    row = f(ts[:-1])
    assert len(criteria._brackets(-row, 1e-13 * np.abs(row).max())) == 1
    sides = _count_sides(monkeypatch)
    calls = _count_profile_calls(monkeypatch)
    check_all(eq, 1)
    assert sides == [] and len(calls) == 1 and len(calls[0]) == 1, calls


@pytest.mark.parametrize("r", [1, 2, 3])
def test_the_seam_is_one_bracket(monkeypatch, demo_eq, control_eq, r):
    # the window's ends are one point: an extremum there used to be two
    # brackets, each with a side of zero width, 11 on the demo, 7 once they
    # were one.  Only the kernel rows are scanned now: 3 brackets, 6 sides,
    # on the demo.  The control's kernel profiles peak at the seam and are
    # flat to their tie, so they are not refined
    sides = _count_sides(monkeypatch)
    check_all(demo_eq, r)
    assert sides == [6]
    sides.clear()
    check_all(control_eq, r)
    assert sides == []


def test_check_does_not_import_numpy_ma():
    # np.unique / np.union1d import numpy.ma under numpy 2.4, and
    # numpy.polynomial takes a few milliseconds to import: costs paid by
    # every check process
    code = (
        "import sys\n"
        "from delayosc import check_all\n"
        "sys.path.insert(0, 'tests')\n"
        "from conftest import make_demo_equation\n"
        "check_all(make_demo_equation(), 2)\n"
        "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=root, env=env
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False False"


_CONTROL = os.path.join("configs", "single_lag_control.json")
_ENGINES = ("criteria", "envelope", "kernel")


@pytest.mark.parametrize(
    "run, loaded",
    [
        (f"delayosc.cli.load_equation({_CONTROL!r})", ()),
        (f"cli.main(['check', {_CONTROL!r}, '--out', os.devnull])", _ENGINES),
        (f"cli.main(['scan', {_CONTROL!r}, '--out', os.devnull])", _ENGINES),
        (f"cli.main(['simulate', {_CONTROL!r}, '--t-end', '5', '--out', os.devnull])", ("sim",)),
        ("try:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass", ()),
    ],
    ids=["load_equation", "check", "scan", "simulate", "help"],
)
def test_a_command_imports_only_the_engines_it_runs(run, loaded):
    # each engine loads on first use: set-up compiles the sources of every
    # module imported, when no bytecode cache is written
    code = (
        "import os, sys\n"
        "import delayosc\n"
        "import delayosc.cli as cli\n"
        f"{run}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('delayosc'))))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=root, env=env
    )
    assert proc.stderr == ""
    expected = {"delayosc", "delayosc.cli", "delayosc.model", *(f"delayosc.{m}" for m in loaded)}
    assert set(proc.stdout.splitlines()[-1].split()) == expected


def test_coeff_integral_curvature_is_the_per_coefficient_sum():
    # S'' is read off one table over the coefficients' breakpoint lattice:
    # to the bit, the sum over the coefficients of each one's own slope
    rng = np.random.default_rng(20261021)
    eqs = [make_bench_piecewise_equation()] + [make_random_equation(rng) for _ in range(10)]
    checked = 0
    for eq in eqs:
        env, w0, w1 = criteria._window(eq, None)
        for lower, poly in ((partial(tau_max, eq), partial(tau_max_polyline, eq)), (env.values, env.polyline)):
            _, knots, curvature = criteria._coeff_integral_profile(eq, lower, poly, env)
            if curvature is None:
                continue
            ts, ys = poly(w0, w1)
            dt = np.diff(ts)
            slope = np.diff(ys) / np.where(dt > 0.0, dt, 1.0)
            a, b = knots[:-1], knots[1:]
            mid = 0.5 * (a + b)
            j = np.clip(np.searchsorted(ts, mid, side="right") - 1, 0, len(ts) - 2)
            s = slope[j]

            def s2(x):
                return sum(c.slopes(x) for c in eq.coefficients)

            want = s2(mid) - s2(ys[j] + s * (mid - ts[j])) * s * s
            assert curvature(a, b).tobytes() == want.tobytes()
            checked += 1
    assert checked >= 10


def test_scan_grid_keeps_a_knot_not_the_grid_point_beside_it():
    # the knot 8 + 119/250 is 8.475999999999999, the grid point 8.476; the
    # second copy of a knot, a rounding away, goes too
    knots = 8.0 + np.arange(250) / 250
    cand = criteria._scan_grid(8.0, 9.0, np.concatenate([knots, knots + 1e-15]), 500)
    assert np.isin(knots, cand).all()
    assert np.diff(cand).min() > 1e-9
    assert len(cand) == 501


def test_scan_grid_ends_are_the_window_ends():
    # the ends are one point of the period's circle, so a knot a rounding
    # from an end is that end, and the grid neither starts nor ends on it
    w0, w1 = 6.0, 7.0
    knots = [w0 - 1e-12, w0 + 1e-12, 6.5, w1 - 1e-12, w1 + 1e-12]
    cand = criteria._scan_grid(w0, w1, knots, 4)
    assert cand.tolist() == [6.0, 6.25, 6.5, 6.75, 7.0]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_profiles_are_settled_a_period_before_the_window(demo_eq, r):
    # a bracket wrapped across the seam reads up to a period before w0: the
    # window's margin of a lag and a period past t_stab keeps the profiles
    # periodic there, at any depth
    rng = np.random.default_rng(777)
    for eq in (demo_eq, [make_random_equation(rng) for _ in range(2)][1]):
        env = combined_envelope(eq)
        lower, poly = partial(tau_max, eq), partial(tau_max_polyline, eq)
        profiles = [
            criteria._coeff_integral_profile(eq, lower, poly, env)[:2],
            criteria._coeff_integral_profile(eq, env.values, env.polyline, env)[:2],
            criteria._product_profile(eq, env)[:2],
        ]
        for kind in ("inner", "outer"):
            f, _, ts = criteria.criterion_profile(eq, r, kind, env=env)
            profiles.append((f, ts))
        for f, ts in profiles:
            now, before = f(ts), f(ts - eq.period)
            assert np.abs(before - now).max() <= 1e-13 * np.abs(now).max()


def test_many_knots_bracket_no_more_than_exact_ties(monkeypatch):
    # 250 coefficient knots, each on a grid point up to rounding: kept as
    # pairs a few ulps apart, every tied pair became a bracket on any slope,
    # 286 against 170 for exact ties; with the pairs merged, ties only join
    # brackets here
    rng = np.random.default_rng(11)
    coef = PiecewisePeriodic(
        period=1.0,
        breakpoints=tuple((k / 250, float(v)) for k, v in enumerate(rng.uniform(0.05, 0.3, 250))),
    )
    lag = PiecewisePeriodic(period=1.0, breakpoints=((0.0, 1.37), (0.3, 0.83), (0.7, 1.61)))
    eq = DelayEquation(coefficients=(coef,), lags=(lag,))
    sides = _count_sides(monkeypatch)
    tied = check_all(eq, 1)
    monkeypatch.setattr(criteria, "_TIE_REL", 0.0)
    exact = check_all(eq, 1)
    assert tied.overall == exact.overall
    assert sides[0] <= sides[1], sides


@pytest.mark.parametrize("r", [1, 2])
def test_many_breakpoints_refine_few_brackets(monkeypatch, r):
    # a coefficient of 1000 breakpoints: its alpha, Kwong and Hunt-Yorke
    # profiles kink at every one, and scanned they brought 554 brackets
    # (86 520 refinement points); exact, they bring none.  The kernel rows
    # brought 25 on the plain grid, and bring 96 on the grid that also
    # holds the table knots: the profile's real local maxima
    sides = _count_sides(monkeypatch)
    check_all(make_many_breakpoint_equation(), r)
    assert len(sides) == 1 and sides[0] <= 200, sides


# -- scan-grid knots: the vectorised preimages against a loop ------------------


def _preimages_loop(nodes, targets):
    """Times where the polyline of ``(t, y)`` nodes takes a value of
    ``targets``, segment by segment and target by target."""
    out = []
    for (t0, y0), (t1, y1) in zip(nodes, nodes[1:]):
        if y1 == y0:
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        for y in targets:
            if lo <= y <= hi:
                t = t0 + (y - y0) * (t1 - t0) / (y1 - y0)
                if t0 <= t <= t1:
                    out.append(t)
    return out


def _integral_profile_knots_loop(eq, nodes, w0, w1):
    """The knots of ``criteria._integral_profile_knots``, by loops: the
    coefficient lattice over the polyline's value range, and its preimages."""
    knots = set(breakpoint_times_reference(eq.coefficients, w0, w1))
    knots.update(t for t, _ in nodes)
    ys = [y for _, y in nodes]
    targets = breakpoint_times_reference(eq.coefficients, min(ys), max(ys))
    knots.update(_preimages_loop(nodes, targets))
    return sorted(t for t in knots if w0 <= t <= w1)


@pytest.mark.parametrize("case", range(11))
def test_integral_profile_knots_equal_the_loop_version(case):
    # the scan grids of the tau_max and envelope profiles over the real scan
    # window, far from t = 0, where the preimages are clamped to the
    # polyline's span; a rounding or two apart, as the two compute the
    # lattice values and the preimages in different orders
    eq = [*kink_cases(), make_bench_piecewise_equation()][case]
    env = combined_envelope(eq)
    _, w0, w1 = criteria._window(eq, env)
    for poly in (tau_max_polyline(eq, w0, w1), env.polyline(w0, w1)):
        got = criteria._integral_profile_knots(eq, poly, w0, w1)
        want = _integral_profile_knots_loop(eq, list(zip(*(v.tolist() for v in poly))), w0, w1)
        for n_grid in (8, 500, 2000):
            grid_got = criteria._scan_grid(w0, w1, got, n_grid)
            grid_want = criteria._scan_grid(w0, w1, want, n_grid)
            assert grid_got.size == grid_want.size
            assert np.abs(grid_got - grid_want).max() <= 1e-14 * max(1.0, abs(w1))


@pytest.mark.parametrize("ratio", [1e4, 1e5, 1e6])
def test_liminf_scans_at_long_lags_are_closed_form(ratio):
    # one term, p * d(t) from 0.15 to 0.3: the integral of p over
    # [tau(t), t] is p * d(t) too, whatever the lag's length
    eq = make_tent_lag_equation(ratio)
    assert alpha(eq) == pytest.approx(0.15, rel=1e-9)
    assert hunt_yorke_liminf(eq) == pytest.approx(0.15, rel=1e-9)
    assert kwong_limsup(eq) == pytest.approx(0.3, rel=1e-9)


# -- the exact constants against a 50-digit oracle -------------------------


class _Linear:
    """A periodic piecewise-linear function in mpmath numbers."""

    def __init__(self, fn, mp):
        self.mp, self.period = mp, mp.mpf(fn.period)
        ts = [mp.mpf(t) for t, _ in fn.breakpoints]
        vs = [mp.mpf(v) + mp.mpf(fn.offset) for _, v in fn.breakpoints]
        if ts[-1] != self.period:
            ts, vs = ts + [self.period], vs + [vs[0]]
        self.ts, self.vs = ts, vs
        self.slopes = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])]
        # the integral up to each knot, by trapezoids, which are exact here
        self.cum = [mp.mpf(0)]
        for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:]):
            self.cum.append(self.cum[-1] + (v0 + v1) * (t1 - t0) / 2)
        self.phases = ts[:-1]

    def segment(self, x):
        """``(k, j, u)``: x = k P + u, u on segment j, [ts[j], ts[j+1])."""
        k = self.mp.floor(x / self.period)
        u = x - k * self.period
        j = max(i for i, t in enumerate(self.ts[:-1]) if t <= u)
        return k, j, u

    def form(self, mid):
        """``(value, slope)`` at 0 of the linear piece holding ``mid``."""
        k, j, _ = self.segment(mid)
        s = self.slopes[j]
        return self.vs[j] - s * (self.ts[j] + k * self.period), s

    def integral(self, x):
        k, j, u = self.segment(x)
        du = u - self.ts[j]
        return k * self.cum[-1] + self.cum[j] + (self.vs[j] + self.slopes[j] * du / 2) * du


def _oracle_constants(eq):
    """``(alpha, Kwong, Hunt-Yorke)`` in 50-digit arithmetic, from the
    breakpoint data alone: over one period, cut where any function breaks,
    two lags cross, or tau_max meets a coefficient breakpoint, each profile
    is quadratic; its extrema are at the cuts, as one-sided limits, or at
    the exact vertex of a piece."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        return _oracle_extrema(eq, mp)


def _oracle_extrema(eq, mp):
    coeffs = [_Linear(c, mp) for c in eq.coefficients]
    lags = [_Linear(d, mp) for d in eq.lags]
    period = coeffs[0].period

    def forms(funcs, mid):
        return [f.form(mid) for f in funcs]

    def sorted_cuts(points, lo, hi):
        return sorted({p for p in points if lo <= p <= hi} | {lo, hi})

    cuts = sorted_cuts([t for f in coeffs + lags for t in f.phases], mp.mpf(0), period)
    crossings = []
    for a, b in zip(cuts, cuts[1:]):
        fs = forms(lags, (a + b) / 2)
        for (v0, s0), (v1, s1) in ((f0, f1) for i, f0 in enumerate(fs) for f1 in fs[i + 1 :]):
            if s0 != s1 and a < (v1 - v0) / (s0 - s1) < b:
                crossings.append((v1 - v0) / (s0 - s1))
    cuts = sorted_cuts(cuts + crossings, mp.mpf(0), period)

    def tau(mid):
        # tau_max = t - min_i d_i(t): the linear form (value at 0, slope)
        v, s = min(forms(lags, mid), key=lambda f: f[0] + f[1] * mid)
        return -v, 1 - s

    hits = []
    for a, b in zip(cuts, cuts[1:]):
        v, s = tau((a + b) / 2)
        lo, hi = sorted((v + s * a, v + s * b))
        if s == 0:
            continue
        for c in coeffs:
            for phase in c.phases:
                n = mp.ceil((lo - phase) / period)
                while phase + n * period <= hi:
                    hits.append((phase + n * period - v) / s)
                    n += 1
    cuts = sorted_cuts(cuts + hits, mp.mpf(0), period)

    def integral_profile(t):
        v, s = tau(t)
        return sum(c.integral(t) - c.integral(v + s * t) for c in coeffs)

    alpha_samples = [integral_profile(t) for t in cuts]
    hy_samples = []
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        # S'(t) - S'(tau(t)) tau'(t), linear on the piece
        v, s = tau(mid)
        terms = [(c.form(mid), c.form(v + s * mid)) for c in coeffs]
        d0 = sum(cv - (dv + ds * v) * s for (cv, _), (dv, ds) in terms)
        d1 = sum(cs - ds * s * s for (_, cs), (_, ds) in terms)
        if d1 != 0 and a < -d0 / d1 < b:
            alpha_samples.append(integral_profile(-d0 / d1))
        # sum_i p_i d_i: a quadratic from the linear forms, limits at the ends
        pairs = list(zip(forms(coeffs, mid), forms(lags, mid)))

        def product(t):
            return sum((pv + ps * t) * (dv + ds * t) for (pv, ps), (dv, ds) in pairs)

        hy_samples += [product(a), product(b)]
        curv = sum(2 * ps * ds for (_, ps), (_, ds) in pairs)
        slope0 = sum(pv * ds + ps * dv for (pv, ps), (dv, ds) in pairs)
        if curv != 0 and a < -slope0 / curv < b:
            hy_samples.append(product(-slope0 / curv))
    return min(alpha_samples), max(alpha_samples), min(hy_samples)


def _wrap_jump_equations():
    """A coefficient that falls to the wrap point and jumps up there, so the
    Hunt-Yorke liminf is a left limit never attained, and one that jumps
    down, so it is the right limit; at periods whose multiples round either
    way."""
    out = []
    for period in (1.0, 0.7, 0.3):
        lag = PiecewisePeriodic(period, ((0.0, 1.0), (0.5 * period, 1.4)))
        for values in ((0.1, 0.3, 0.05), (0.05, 0.3, 0.2)):
            coef = PiecewisePeriodic(
                period, ((0.0, values[0]), (0.4 * period, values[1]), (period, values[2]))
            )
            out.append(DelayEquation(coefficients=(coef,), lags=(lag,)))
    return out


def _oracle_cases():
    from delayosc.cli import load_equation

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = [
        load_equation(os.path.join(root, "configs", name))
        for name in ("two_delay_sawtooth.json", "single_lag_control.json")
    ]
    rng = np.random.default_rng(20261019)
    draws = [make_random_equation(rng) for _ in range(10)]
    return [*configs, make_bench_piecewise_equation(), *kink_cases(), *draws, *_wrap_jump_equations()]


def test_quadratic_extrema_sample_the_vertex_inside_a_piece():
    # (t - 0.25)^2 on one piece of the period [0, 1]: the minimum is the
    # vertex, the maximum the knot at 0 (the end at 1 is its copy)
    def f(ts):
        return (np.asarray(ts) - 0.25) ** 2

    knots = np.array([0.0, 1.0])
    got = criteria._quadratic_extrema(f, knots, lambda a, b: np.full(a.shape, 2.0))
    assert got == (0.0, 0.0625)
    # no curvature, no vertex; a zero curvature is no division, and one
    # whose product with the piece's width underflows (a coefficient of
    # 2.2e-309 found by the CLI fuzz) puts the vertex outside, silently
    assert criteria._quadratic_extrema(f, knots) == (0.0625, 0.0625)
    assert criteria._quadratic_extrema(f, knots, lambda a, b: 0.0 * a) == (0.0625, 0.0625)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tiny = criteria._quadratic_extrema(f, knots, lambda a, b: np.full(a.shape, 5e-324))
    assert tiny == (0.0625, 0.0625)


def test_quadratic_extrema_in_blocks_equal_one_block(monkeypatch):
    # pieces taken a few at a time, the seam's one-sided limits at the
    # first and last block
    eq = _wrap_jump_equations()[1]
    env = combined_envelope(eq)
    lower, poly = partial(tau_max, eq), partial(tau_max_polyline, eq)
    profiles = [
        (criteria._coeff_integral_profile(eq, lower, poly, env), False),
        (criteria._product_profile(eq, env), True),
    ]
    whole = [criteria._quadratic_extrema(*p, seam_jump=jump) for p, jump in profiles]
    monkeypatch.setattr(criteria, "_BLOCK", 2)
    assert [criteria._quadratic_extrema(*p, seam_jump=jump) for p, jump in profiles] == whole


def test_curvature_of_a_piece_of_adjacent_doubles():
    # the midpoint of a piece [a, b] of adjacent doubles rounds onto b; at
    # the window's end that used to read a polyline slope past its last knot
    eq = make_random_equation(np.random.default_rng(4))
    env = combined_envelope(eq)
    f, knots, curvature = criteria._coeff_integral_profile(
        eq, partial(tau_max, eq), partial(tau_max_polyline, eq), env
    )
    assert curvature is not None
    b = knots[-1:]
    assert np.isfinite(curvature(np.nextafter(b, 0.0), b)).all()


@pytest.mark.parametrize("case", range(29))
def test_exact_constants_against_a_50_digit_oracle(case):
    eq = _oracle_cases()[case]
    want = [float(v) for v in _oracle_constants(eq)]
    got = [alpha(eq), kwong_limsup(eq), hunt_yorke_liminf(eq)]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w), (got, want)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_scanners_reject_a_bad_tol(control_eq, tol):
    for scan in (alpha, alpha_over_envelope, kwong_limsup, hunt_yorke_liminf):
        with pytest.raises(ValueError, match="tol"):
            scan(control_eq, tol=tol)
    for scan in (limsup_envelope_integral, criteria.criterion_profile, check_all):
        with pytest.raises(ValueError, match="tol"):
            scan(control_eq, 1, tol=tol)


@pytest.mark.parametrize("n_grid", [0, -3])
def test_scanners_reject_a_grid_below_one(control_eq, n_grid):
    for scan in (alpha, alpha_over_envelope, kwong_limsup, hunt_yorke_liminf):
        with pytest.raises(ValueError, match="^n_grid must be >= 1"):
            scan(control_eq, n_grid=n_grid)
    for scan in (limsup_envelope_integral, criteria.criterion_profile, check_all):
        with pytest.raises(ValueError, match="^n_grid must be >= 1"):
            scan(control_eq, 1, n_grid=n_grid)
    with pytest.raises(ValueError, match="^n_grid_liminf must be >= 1"):
        check_all(control_eq, 1, n_grid_liminf=n_grid)


_RANDOM_EQS = [make_random_equation(np.random.default_rng(k)) for k in range(4)]


@pytest.mark.parametrize(
    "name, r, n_grid",
    [("demo", r, 100) for r in (1, 2, 3)]
    + [("control", r, 100) for r in (1, 2, 3)]
    + [("demo", 5, 50), ("zero", 1, 100)]
    + [(f"random{k}", 1 + k % 2, 100) for k in range(len(_RANDOM_EQS))],
)
def test_check_all_equals_the_separate_scans(request, name, r, n_grid):
    if name.startswith("random"):
        eq = _RANDOM_EQS[int(name[len("random"):])]
    else:
        eq = request.getfixturevalue(f"{name}_eq")
    liminf = dict(n_grid=300)
    rep = check_all(eq, r, n_grid=n_grid, n_grid_liminf=300)
    inner = limsup_envelope_integral(eq, r, "inner", n_grid=n_grid)
    outer = limsup_envelope_integral(eq, r, "outer", n_grid=n_grid)
    expected = {
        "ladde_1_3": (alpha(eq, **liminf), None),
        "hunt_yorke_1_4": (hunt_yorke_liminf(eq, **liminf), None),
        "kwong_1_5": (kwong_limsup(eq, **liminf), None),
        "bcs_1_8": (outer.value, outer.t),
        "bcs_1_9": (outer.value, outer.t),
        "main_2_8": (inner.value, inner.t),
    }
    for v in rep.verdicts:
        value, t = expected[v.name]
        # bitwise: == and the same sign of zero; inf == inf
        assert v.value == value and math.copysign(1.0, v.value) == math.copysign(1.0, value)
        assert v.params.get("t") == t, v.name
    if (name, r) == ("demo", 5):
        assert inner.value == outer.value == math.inf
        assert sum("saturated" in note for note in rep.notes) == 3


def test_check_all_refines_in_one_lockstep(monkeypatch, demo_eq):
    # one scan, of one profile whose rows are the two kernel integrals, on
    # the one grid check_all builds: the kernel grid, its sides refined in
    # one call
    rows, grids = [], []
    scan, grid = criteria._scan_maxima, criteria._scan_grid

    def counting_scan(f, cand, *args):
        rows.append(np.shape(f(cand[:4])))
        return scan(f, cand, *args)

    def counting_grid(w0, w1, knots, n_grid):
        grids.append(n_grid)
        return grid(w0, w1, knots, n_grid)

    sides = _count_sides(monkeypatch)
    monkeypatch.setattr(criteria, "_scan_maxima", counting_scan)
    monkeypatch.setattr(criteria, "_scan_grid", counting_grid)
    check_all(demo_eq, 2, n_grid=100, n_grid_liminf=300)
    assert len(sides) == 1 and rows == [(2, 4)] and grids == [100]


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


@pytest.mark.parametrize("a", [5e-324, 1e-308, 1e-200, INV_E])
def test_lambda0_at_the_ends_of_its_domain(a):
    # the old upper bracket -log(a)/a overflowed below about 1e-308 and hung
    lam = lambda0(a)
    assert 1.0 <= lam <= math.e
    # direct iteration converges only sublinearly at the tangency a = 1/e
    assert lam == pytest.approx(fixed_point_lambda(a), abs=1e-9 if a < INV_E else 1e-3)


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


def _rescaled_demo(c):
    return make_rescaled_equation(make_demo_equation(), c)


def _rescaled_draw(c):
    """Draw 4 of seed 20261019, which settles only after one period."""
    return make_rescaled_equation(nth_random_equation(20261019, 4), c)


def _two_piece_tent(c):
    """A two-piece coefficient on a tent lag from c to 2c, period c."""
    p = PiecewisePeriodic(c, ((0.0, 0.1 / c), (0.5 * c, 0.5 / c)))
    d = PiecewisePeriodic(c, ((0.0, c), (0.5 * c, 2.0 * c)))
    return DelayEquation(coefficients=(p,), lags=(d,))


@pytest.mark.parametrize(
    "make", [_rescaled_demo, _two_piece_tent, _rescaled_draw], ids=["demo", "tent", "draw4"]
)
def test_verdicts_do_not_depend_on_the_time_scale(make):
    # rescaling time leaves every criterion unchanged; at period 3e-20 the
    # demo's running maximum lost every kink to an absolute collinearity
    # floor and read inconclusive at r = 1, and from c = 1e-12 down draw 4
    # was taken as settled at 0, so bcs_1_8 read 0.2038 instead of 0.1868
    base = {r: check_all(make(1.0), r) for r in (1, 2, 3)}
    for c in (1e-150, 1e-50, 1e-20, 1e-13, 1e-6, 1e6, 1e50, 1e150):
        for r in (1, 2, 3):
            rep = check_all(make(c), r)
            assert (rep.overall, rep.witness) == (base[r].overall, base[r].witness), (c, r)
            if r > 1:
                continue  # the kernel's tail test is not free of scale yet
            got = [rep.alpha] + [v.value for v in rep.verdicts]
            want = [base[1].alpha] + [v.value for v in base[1].verdicts]
            for name, x, y in zip(["alpha", *CRITERIA_ORDER], got, want):
                assert x == y if y is None else x == pytest.approx(y, rel=1e-9), (c, name)


def test_every_criterion_reports_one_window_at_every_depth(demo_eq):
    # the liminf and kernel criteria scan one window, from the first period
    # multiple at or past t_stab + max_lag + P, whatever the depth; here on
    # the demo and on a draw that settles only after one period
    rng = np.random.default_rng(0)
    draws = (make_random_equation(rng) for _ in range(50))
    late = next(eq for eq in draws if combined_envelope(eq).t_stab > 0.0)
    for eq in (demo_eq, late):
        start = combined_envelope(eq).t_stab + eq.max_lag + eq.period
        windows = {v.params["window"] for r in (1, 2, 3, 4) for v in check_all(eq, r).verdicts}
        assert len(windows) == 1, windows
        ((w0, w1),) = windows
        assert w0 == eq.period * round(w0 / eq.period) and w1 == w0 + eq.period
        assert start - 1e-12 * eq.period <= w0 < start + eq.period


def test_kernel_verdicts_report_the_maximiser(demo_eq):
    rep = check_all(demo_eq)
    inner = limsup_envelope_integral(demo_eq, 1, "inner")
    outer = limsup_envelope_integral(demo_eq, 1, "outer")
    for name, ext in (("bcs_1_8", outer), ("bcs_1_9", outer), ("main_2_8", inner)):
        params = rep[name].params
        w0, w1 = params["window"]
        assert w0 <= params["t"] <= w1
        assert params["t"] == ext.t


def test_margin_matches_value_and_threshold(demo_eq):
    rep = check_all(demo_eq)
    for v in rep.verdicts:
        if v.value is not None and v.threshold is not None:
            assert v.margin == pytest.approx(v.value - v.threshold, abs=1e-15)
