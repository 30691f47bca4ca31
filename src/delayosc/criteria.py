"""Oscillation criteria evaluated as exact extrema over one period.

All limit inferior / limit superior quantities reduce to extrema of
periodic profiles once transients have passed, over one steady-state
period [w0, w0 + P].  alpha, Kwong and Hunt-Yorke read profiles that are
quadratic between known knots, so their extrema are exact: the best of
the profile's values at the knots and at the vertices inside the pieces
(``_quadratic_extrema``), with no grid.  The two kernel limsups are rows
of one profile (``_kernel_profile``), scanned for their maxima on a dense
grid seeded with every edge of the kernel tables the profile reads and
their preimages under the envelope, so the profile is smooth between grid
points; ``scan`` prints this grid.  The window's ends are one point of a
circle: neighbours are cyclic, a run of maxima may wrap across the seam,
and every location is reported in [w0, w0 + P).  Grid values within a
rounding tie (1e-13 of the row's largest magnitude) count as equal, so a
profile flat up to rounding gives one bracket, not hundreds, and a row
flat to the tie is not refined.
Each bracket is refined once (``_scan_maxima``): both sides of its best
grid point are fitted by degree-16 Chebyshev interpolants, all sides in
one profile call, and the fits' interior maxima are evaluated in one more
(Trefethen, ATAP ch. 18).  A check makes 1 kernel-profile call on a flat
profile, 2-3 on the demo, and at most 3 whatever the scale of the period
and lags.  A criterion counts as satisfied only when its margin
clears 10 * tol; anything closer is marginal and reported as not
satisfied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .envelope import (
    EnvelopeFunction,
    _lattice_preimages,
    combined_envelope,
    tau_max,
    tau_max_polyline,
)
from .kernel import (
    _BLOCK,
    _CHEB_DEG,
    _CHEB_FIT,
    _CHEB_U,
    _MAX_KINKS,
    DEFAULT_TOL,
    KernelCache,
    _breaks,
    _check_tol,
    _criterion,
)
from .model import DelayEquation, _merge_close, _piece, breakpoint_times, phase_lattice

__all__ = [
    "CRITERIA_ORDER",
    "CheckReport",
    "CriterionVerdict",
    "ScanExtremum",
    "alpha",
    "alpha_over_envelope",
    "check_all",
    "criterion_profile",
    "hunt_yorke_liminf",
    "kwong_limsup",
    "lambda0",
    "limsup_envelope_integral",
]

CRITERIA_ORDER = (
    "ladde_1_3",
    "hunt_yorke_1_4",
    "kwong_1_5",
    "bcs_1_8",
    "bcs_1_9",
    "main_2_8",
)

INV_E = math.exp(-1.0)
# Grid values this close, relative to the largest finite one, are equal for
# bracketing: profiles are sums and differences of table lookups whose
# rounding is a few eps of their magnitude, so a flat profile wiggles at
# about 1e-15 of its scale, and refining each wiggle finds nothing.
_TIE_REL = 1e-13
# Scan points this close, relative to the scan window, are one point up to
# rounding (a knot 8 + 119/250 = 8.475999999999999 beside the grid's 8.476):
# their values tie, and tie-tolerant bracketing would refine the pair as an
# extremum on any slope.
_SAME_POINT_REL = 1e-9
# A side's interpolant is maximised from the best of these nodes, uniform in
# theta = arccos(u), by Newton steps (``_side_maxima``)
_THETA = np.pi * np.arange(129) / 128
_K = np.arange(_CHEB_DEG + 1.0)
_NODE_COS = np.cos(_THETA[:, None] * _K)
_NEWTON_STEPS = 3
# An interpolant that peaks at an end of its side and tops the best grid
# value by this many times what rounding explains shows a break a rounding
# inside that end.
_KINK_FACTOR = 10.0
# width of ``lambda0``'s final bracket
_LAMBDA_XTOL = 1e-13


# -- root finding ----------------------------------------------------------


def lambda0(alpha_value: float) -> float:
    """Smaller root of lambda = exp(alpha * lambda), by bisection.

    Exists for alpha in (0, 1/e]; anything outside raises.  Returns the
    lower end of the final bracket, below the root by at most
    ``_LAMBDA_XTOL`` (1e-13), so the thresholds (1 + ln lambda) / lambda,
    which fall as lambda grows, are never understated.  The other way
    round, ``sim.check_envelope_ratio``, whose margin is the simulated
    ratio minus lambda, reads up to ``_LAMBDA_XTOL`` looser.
    """
    a = float(alpha_value)
    if not (0.0 < a <= INV_E):
        raise ValueError(
            f"the fixed point lambda = exp(alpha*lambda) needs alpha in (0, 1/e], "
            f"got {a}"
        )

    def f(lam):
        return math.exp(a * lam) - lam

    # f(1) > 0 and f(e) = e^(a e) - e <= 0, so the smaller root lies in
    # [1, e]; f is convex, so it is the only root there
    lo, hi = 1.0, math.e
    if f(hi) >= 0.0:
        # tangency at alpha == 1/e (up to rounding)
        return hi
    while hi - lo > _LAMBDA_XTOL:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# -- extremum scanning -----------------------------------------------------


@dataclass(frozen=True)
class ScanExtremum:
    value: float
    t: float


def _scan_grid(w0: float, w1: float, knots, n_grid: int) -> np.ndarray:
    """Uniform grid over [w0, w1] joined with the knots inside; its ends are
    exactly w0 and w1.  Points closer than ``_SAME_POINT_REL * (w1 - w0)`` are
    one point: a knot that close to an end is that end, and one elsewhere
    drops the grid points beside it and the knots just after it."""
    _check_grid(n_grid)
    same = _SAME_POINT_REL * (w1 - w0)
    grid = np.linspace(w0, w1, n_grid + 1)
    knots = np.asarray(knots, dtype=float)
    # sorted, and a knot within ``same`` of the one before it dropped: this
    # drops repeats too
    knots = _merge_close(knots[(knots > w0 + same) & (knots < w1 - same)], same)
    if knots.size:
        i = np.searchsorted(knots, grid)
        gap = np.minimum(
            np.abs(grid - knots[np.maximum(i - 1, 0)]),
            np.abs(grid - knots[np.minimum(i, knots.size - 1)]),
        )
        grid = grid[gap > same]
    # grid points can repeat where the float spacing is coarser than the grid
    return _merge_close(np.concatenate([grid, knots]), 0.0)


def _brackets(vals, tie: float):
    """Rows ``(lo, c, hi)`` of indices, one per run of local minima of the
    periodic ``vals``, values within ``tie`` of each other counting as equal:
    the run's outer neighbours and its best point (the first among equals),
    in the order of ``c``.  A run may wrap across the seam: ``c`` is in
    [0, n), and an ``lo`` or ``hi`` past an end stands for point i mod n."""
    n = len(vals)
    ext = np.concatenate([vals[-1:], vals, vals[:1]])  # cyclic neighbours
    is_min = (vals <= ext[:-2] + tie) & (vals <= ext[2:] + tie)
    # read the circle from a point that is no minimum, so no run wraps; when
    # every point is one, the whole circle is one run
    s = int(np.argmin(is_min))
    m = np.zeros(n + 2, dtype=bool)
    m[1 : n + 1 - s], m[n + 1 - s : n + 1] = is_min[s:], is_min[:s]
    v = np.concatenate([vals[s:], vals[:s]])
    ends = np.flatnonzero(m[1:] != m[:-1])
    j0, j1 = ends[::2], ends[1::2] - 1
    # each run's lowest value, and its first point at that value
    pts, size = np.flatnonzero(m[1:-1]), j1 - j0 + 1
    lowest = np.minimum.reduceat(v[pts], np.cumsum(size) - size)
    hits = pts[v[pts] == np.repeat(lowest, size)]
    c = hits[np.searchsorted(hits, j0)]
    # back from the rotated circle, each bracket shifted to centre in [0, n)
    shift = s - n * (c + s >= n)
    return (np.stack([j0 - 1, c, j1 + 1], axis=1) + shift[:, None])[np.argsort(c + shift)]


def _side_maxima(coef):
    """``(u, p)``: the maximiser on [-1, 1] and the maximum of each row of
    ``coef``, a Chebyshev series.  In u = cos(theta) a row is the cosine
    series sum_k c_k cos(k theta); the best of the nodes ``_THETA`` starts
    ``_NEWTON_STEPS`` Newton steps on its derivative, kept when the series
    is higher there.  That derivative is zero at either end, so a peak at an
    end node stays there, u = +-1 exactly."""
    vals = coef @ _NODE_COS.T
    j = np.argmax(vals, axis=1)
    th0, p0 = _THETA[j], vals[np.arange(j.size), j]
    th = th0
    for _ in range(_NEWTON_STEPS):
        kt = th[:, None] * _K
        d1, d2 = (np.sin(kt) * coef) @ _K, (np.cos(kt) * coef) @ _K**2
        th = np.clip(th - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0.0), 0.0, np.pi)
    p = (np.cos(th[:, None] * _K) * coef).sum(axis=1)
    better = p > p0
    return np.cos(np.where(better, th, th0)), np.where(better, p, p0)


def _scan_maxima(f, cand):
    """The maximum of each row of a vectorised periodic profile, with its
    location, as a list of ``ScanExtremum``.

    ``f`` maps times to an array of one row per profile, ``cand`` holds the
    sorted candidates over one period; each ``t`` is in
    ``[cand[0], cand[-1])``.  ``f`` is evaluated once on ``cand[:-1]``, the
    last candidate being the first one's periodic copy.  A row whose finite
    grid values lie within its tie (``_TIE_REL`` of its largest finite one),
    or whose best is +inf, is not refined.  In any other row each run of
    local maxima, neighbours cyclic and values within the tie counting as
    equal, brackets its best point c between its outer neighbours lo and
    hi, and ``_refine_sides`` refines the sides [lo, c] and [c, hi] of every
    bracket at once.  A candidate replaces the best grid value only when
    strictly better, and the earliest location wins a tie.
    """
    n, period = len(cand) - 1, cand[-1] - cand[0]
    w0, w1 = cand[0], cand[-1]
    rows = np.asarray(f(cand[:-1]), dtype=float).reshape(-1, n)
    k = np.argmax(rows, axis=1)
    top, at = rows[np.arange(len(rows)), k], cand[k]
    ties, sides = np.zeros(len(rows)), []
    for i, row in enumerate(rows):
        finite = row[np.isfinite(row)]
        if top[i] == math.inf or not finite.size:
            continue
        ties[i] = _TIE_REL * np.abs(finite).max()
        if finite.max() - finite.min() <= ties[i]:
            continue
        idx = _brackets(-row, ties[i])
        lap = np.where(idx == n, 0, idx // n)  # index n is the window's end
        x3 = cand[idx - lap * n] + period * lap
        sides.append((x3[:, :2].ravel(), x3[:, 1:].ravel(), np.full(2 * len(idx), i)))
    best, where = top.copy(), at.copy()
    if sides:
        a, b, row = (np.concatenate(part) for part in zip(*sides))
        x, gx, row = _refine_sides(f, a, b, row, top, ties)
        # a point refined past either end goes a period back, into [w0, w1)
        t = np.where(x < w0, x + period, np.where(x >= w1, x - period, x))
        t = np.clip(t, w0, np.nextafter(w1, w0))
        for j in np.lexsort((t, -gx)):
            if gx[j] > best[row[j]]:
                best[row[j]], where[row[j]] = gx[j], t[j]
    return [ScanExtremum(value=float(v), t=float(t)) for v, t in zip(best, where)]


def _refine_sides(f, a, b, row, top, tie):
    """``(x, value, row)`` of every candidate of the sides [a, b], side k of
    row ``row[k]``, whose best grid value is ``top[row]`` and tie
    ``tie[row]``.

    The grid holds every break of the profile (``kernel._breaks``), so one
    fit serves each side: all are sampled at the points ``_CHEB_U`` in one
    call of ``f``.  A side whose interpolant peaks inside it, within the tie
    of the best grid value or above it, gives a candidate at the peak.  A
    peak at an end gives one only when it tops the best grid value by
    ``_KINK_FACTOR`` times the rounding of the sample positions plus 1e-15
    of the row's magnitude: the profile then breaks a rounding inside the
    side, and the end's neighbour an ulp inside is the candidate.  Past
    ``kernel._MAX_KINKS`` preimages the grid holds only the tables' edges,
    and a kink between its points is not chased (no value moves for it on
    the tent lag at L/P = 5000 or 1e4).  A side with a non-finite sample
    gives its best sample.  The candidates take one more call.
    """
    m = _CHEB_DEG + 1
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    xs = mid[:, None] + half[:, None] * _CHEB_U
    vals = np.asarray(f(xs.ravel()), dtype=float)[np.repeat(row, m), np.arange(xs.size)]
    vals = vals.reshape(-1, m)
    bad = ~np.isfinite(vals).all(axis=1)
    j = np.argmax(np.where(np.isnan(vals[bad]), -math.inf, vals[bad]), axis=1)
    x_bad, row_bad = xs[bad, j], row[bad]
    a, b, mid, half, row, vals = (v[~bad] for v in (a, b, mid, half, row, vals))
    coef = vals @ _CHEB_FIT.T
    # |p'| <= sum_k k^2 |c_k| on [-1, 1]
    moved = np.abs(coef) @ _K**2 / half * np.spacing(np.maximum(abs(a), abs(b)))
    u, p = _side_maxima(coef)
    inside = np.abs(u) < 1.0
    kink = p > top[row] + _KINK_FACTOR * (moved + tie[row] / 100)
    want = np.where(inside, p >= top[row] - tie[row], kink)
    x = np.where(inside, mid + half * u, np.nextafter(np.where(u > 0.0, b, a), mid))
    x, row = np.concatenate([x_bad, x[want]]), np.concatenate([row_bad, row[want]])
    return x, np.asarray(f(x), dtype=float)[row, np.arange(x.size)] if x.size else x, row


def _quadratic_extrema(f, knots, curvature=None, seam_jump: bool = False):
    """``(min, max)`` of a periodic profile that is quadratic between its
    sorted ``knots``, over the period ``[knots[0], knots[-1])``.

    Both are samples of ``f`` itself: at every knot but the last, the first
    one's periodic copy, and at the vertex of each piece whose second
    derivative ``curvature(a, b)``, constant on the piece ``(a, b)``, is
    nonzero and whose vertex, found from the piece's end values, lies
    inside it.  ``curvature`` None means zero everywhere.  With
    ``seam_jump`` the profile jumps at the seam ``knots[0]``, a period
    multiple: each one-sided limit is sampled an ulp away, and stands for
    the end value of the piece on its side.  Pieces are taken in blocks of
    ``_BLOCK``, so memory stays bounded whatever the number of knots.
    """
    lo, hi = math.inf, -math.inf
    if seam_jump:
        left, right = (float(v) for v in f(np.nextafter(knots[0], [-math.inf, math.inf])))
        lo, hi = min(left, right), max(left, right)
    n = knots.size - 1
    for i in range(0, n, _BLOCK):
        t = knots[i : i + _BLOCK + 1]
        y = np.asarray(f(t), dtype=float)
        samples = [y[:-1]]
        if curvature is not None:
            ya, yb = y[:-1].copy(), y[1:].copy()
            if seam_jump and i == 0:
                ya[0] = right
            if seam_jump and i + _BLOCK >= n:
                yb[-1] = left
            c = curvature(t[:-1], t[1:])
            k = np.flatnonzero(c)
            a, b, c = t[k], t[k + 1], c[k]
            # q(t) = ya + m (t - a) - c (t - a)(b - t) / 2 has q' = 0 at
            # (a + b) / 2 - m / c, m the piece's chord slope; a curvature so
            # small that (b - a) c underflows puts it at infinity, outside
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                v = 0.5 * (a + b) - (yb[k] - ya[k]) / ((b - a) * c)
            v = v[(a < v) & (v < b)]
            if v.size:
                samples.append(np.asarray(f(v), dtype=float))
        lo = min(lo, *(float(s.min()) for s in samples))
        hi = max(hi, *(float(s.max()) for s in samples))
    return lo, hi


def _window(eq: DelayEquation, env: EnvelopeFunction | None):
    """``(env, w0, w1)``: the envelope, built when not given, and the
    period-aligned steady-state scan window ``[w0, w1 = w0 + P]`` of every
    criterion.  Its start is the first period multiple at or past t_stab +
    max_lag + P: from t_stab + max_lag on, h(t) >= t_stab, so every profile
    reads the settled envelope and one-period tables and is periodic, at any
    depth, and a bracket wrapped across the seam reads at most a period
    before w0."""
    env = env if env is not None else combined_envelope(eq)
    t0 = env.t_stab + eq.max_lag + eq.period
    w0 = eq.period * math.ceil(t0 / eq.period)
    return env, w0, w0 + eq.period


def _integral_profile_knots(eq, poly, w0, w1):
    """Kinks of t -> integral_{lower(t)}^t coeff-sum, where ``poly`` is the
    polyline of the lower limit over [w0, w1]: coefficient breakpoints hit by
    either integration limit, plus kinks of the lower limit itself.  Unsorted,
    with repeats, all in [w0, w1]."""
    pre = _lattice_preimages(poly, phase_lattice(eq.coefficients), eq.period)
    return np.concatenate([breakpoint_times(eq.coefficients, w0, w1), poly[0], pre])


def _check_grid(n_grid: int, name: str = "n_grid") -> None:
    if not n_grid >= 1:
        raise ValueError(f"{name} must be >= 1, got {n_grid}")


def _coeff_integral_profile(eq, lower, polyline, env):
    """``(f, knots, curvature)`` for ``_quadratic_extrema``: t -> integral
    over [lower(t), t] of the coefficient sum S', over one settled period;
    ``polyline(a, b)`` is the polyline of ``lower``.  Between the knots S'(t),
    lower(t) and S'(lower(t)) are linear, so f is quadratic, with second
    derivative S''(t) - S''(lower(t)) lower'(t)^2, zero when S' is constant.
    Knots a rounding apart are kept apart: merged, they could hide a kink
    inside a piece."""
    _, w0, w1 = _window(eq, env)
    anti = eq.coeff_sum_antiderivative

    def f(ts):
        both = anti(np.concatenate([ts, lower(ts)]))  # one lookup for both limits
        return both[: len(ts)] - both[len(ts) :]

    ts, ys = polyline(w0, w1)
    knots = _merge_close(_integral_profile_knots(eq, (ts, ys), w0, w1), 0.0)
    if all(c.min_value == c.max_value for c in eq.coefficients):
        return f, knots, None
    dt = np.diff(ts)
    slope = np.diff(ys) / np.where(dt > 0.0, dt, 1.0)
    # S'' per piece of the coefficients' joint lattice: a time is reduced once
    lattice = phase_lattice(eq.coefficients)
    s2 = sum(c.slopes(lattice) for c in eq.coefficients)
    edges, phase = np.append(lattice, eq.period), eq.coefficients[0]._phase

    def curvature(a, b):
        # each piece lies on one segment of the polyline: the one holding its
        # midpoint, which rounds onto b when a and b are adjacent doubles
        mid = 0.5 * (a + b)
        j = _piece(ts, mid)
        s = slope[j]
        k = _piece(edges, phase(np.concatenate([mid, ys[j] + s * (mid - ts[j])])))
        return s2[k[: len(mid)]] - s2[k[len(mid) :]] * s * s

    return f, knots, curvature


def _product_profile(eq, env):
    """``(f, knots, curvature)`` for ``_quadratic_extrema``: t -> sum_i
    p_i(t) d_i(t) over one settled period.  Between the knots every factor is
    linear, so f is quadratic, with second derivative 2 sum_i p_i' d_i'."""
    _, w0, w1 = _window(eq, env)
    terms = list(zip(eq.coefficients, eq.lags))

    def f(ts):
        return np.sum([c.values(ts) * d.values(ts) for c, d in terms], axis=0)

    def curvature(a, b):
        mid = 0.5 * (a + b)
        return 2.0 * sum(c.slopes(mid) * d.slopes(mid) for c, d in terms)

    inner = breakpoint_times(eq.coefficients + eq.lags, w0, w1)
    return f, _merge_close(np.concatenate([[w0], inner, [w1]]), 0.0), curvature


def _tau_max_extrema(eq, env):
    """``(alpha, Kwong)``: the extrema of the integral over [tau_max(t), t]."""
    lower, poly = partial(tau_max, eq), partial(tau_max_polyline, eq)
    return _quadratic_extrema(*_coeff_integral_profile(eq, lower, poly, env))


def _hunt_yorke_min(eq, env):
    # a coefficient jumps only at its wrap point, the window's seam
    jump = any(c.wrap_jump != 0.0 for c in eq.coefficients)
    return _quadratic_extrema(*_product_profile(eq, env), seam_jump=jump)[0]


# -- liminf quantities -----------------------------------------------------
#
# Each is an extremum of a profile that is quadratic between known knots, so
# it is taken exactly (``_quadratic_extrema``), with no grid.


def _check_liminf_args(tol: float, n_grid: int) -> None:
    _check_tol(tol)
    _check_grid(n_grid)


def alpha(
    eq: DelayEquation,
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = 2000,
    env: EnvelopeFunction | None = None,
) -> float:
    """liminf of integral over [tau_max(t), t] of the coefficient sum,
    exact; ``tol`` and ``n_grid`` are validated but change no result."""
    _check_liminf_args(tol, n_grid)
    return _tau_max_extrema(eq, env)[0]


def alpha_over_envelope(
    eq: DelayEquation,
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = 2000,
    env: EnvelopeFunction | None = None,
) -> float:
    """liminf of integral over [h(t), t]; equals ``alpha`` in the limit
    because the envelope only flattens the delay argument where it dips.
    Exact; ``tol`` and ``n_grid`` are validated but change no result."""
    _check_liminf_args(tol, n_grid)
    env = env if env is not None else combined_envelope(eq)
    return _quadratic_extrema(*_coeff_integral_profile(eq, env.values, env.polyline, env))[0]


def kwong_limsup(
    eq: DelayEquation,
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = 2000,
    env: EnvelopeFunction | None = None,
) -> float:
    """limsup of integral over [tau_max(t), t] of the coefficient sum,
    exact; ``tol`` and ``n_grid`` are validated but change no result."""
    _check_liminf_args(tol, n_grid)
    return _tau_max_extrema(eq, env)[1]


def hunt_yorke_liminf(
    eq: DelayEquation,
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = 2000,
    env: EnvelopeFunction | None = None,
) -> float:
    """liminf of sum_i p_i(t) * d_i(t) (coefficients weighted by their lags),
    exact; ``tol`` and ``n_grid`` are validated but change no result."""
    _check_liminf_args(tol, n_grid)
    return _hunt_yorke_min(eq, env)


# -- limsup of the criterion integrals -------------------------------------


def _kernel_profile(eq, r, kinds, env, cache, tol, n_grid):
    """``(f, w0, ts)``: the depth-``r`` criterion integrals of ``kinds``, one
    row each, over the envelope ``env`` (built when None), the start of
    their scan window ``[w0, w0 + P]``, and its grid, a uniform grid joined
    with every phase where the profile may break (``kernel._breaks``), so it
    is smooth between grid points."""
    env = env if env is not None else combined_envelope(eq)
    cache = cache if cache is not None else KernelCache()
    f = _criterion(eq, r, kinds, env, cache, tol)
    _, w0, w1 = _window(eq, env)
    # w0 is a period multiple, so the phases shift onto the window
    return f, w0, _scan_grid(w0, w1, w0 + _breaks(eq, r, env, cache, tol), n_grid)


def criterion_profile(
    eq: DelayEquation,
    r: int,
    kind: str = "inner",
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = 500,
    cache: KernelCache | None = None,
    env: EnvelopeFunction | None = None,
):
    """A criterion integral over one steady-state period.

    Returns ``(f, w0, ts)``: ``f`` maps an array of times to the integral,
    ``[w0, w0 + P]`` is the scan window and ``ts`` the grid that ``check``
    scans on it, a uniform grid joined with every break of the profile.
    ``kind`` selects the sliding-envelope ("inner") or frozen-envelope
    ("outer") integrand.
    """
    _check_tol(tol)
    rows, w0, ts = _kernel_profile(eq, r, (kind,), env, cache, tol, n_grid)
    return lambda t: rows(t)[0], w0, ts


def limsup_envelope_integral(
    eq: DelayEquation,
    r: int,
    kind: str = "inner",
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = 500,
    cache: KernelCache | None = None,
    env: EnvelopeFunction | None = None,
) -> ScanExtremum:
    """limsup over t of the criterion integral, with its maximiser.

    ``kind`` selects the sliding-envelope ("inner") or frozen-envelope
    ("outer") integrand.
    """
    _check_tol(tol)
    f, _, ts = _kernel_profile(eq, r, (kind,), env, cache, tol, n_grid)
    return _scan_maxima(f, ts)[0]


# -- verdicts --------------------------------------------------------------


@dataclass(frozen=True)
class CriterionVerdict:
    name: str
    value: float | None
    threshold: float | None
    satisfied: bool
    applicable: bool
    marginal: bool
    params: dict = field(compare=False)

    @property
    def margin(self) -> float | None:
        if self.value is None or self.threshold is None:
            return None
        return self.value - self.threshold


@dataclass(frozen=True)
class CheckReport:
    alpha: float
    lambda0: float | None
    verdicts: tuple[CriterionVerdict, ...]
    overall: str
    witness: str | None
    notes: tuple[str, ...] = ()

    def __getitem__(self, name: str) -> CriterionVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def _kink_cap_note(tol: float) -> str:
    """What a check or scan says when ``KernelCache.capped`` is set."""
    return (
        f"kink cap reached: past {_MAX_KINKS} delay preimages, the kernel tables "
        "and the scan grid hold fewer kinks, so values may be off by more than "
        f"tol ({tol:.1e})."
    )


def _is_monotone_delay(eq: DelayEquation) -> bool:
    """tau(t) = t - d(t) nondecreasing <=> every lag segment has slope <= 1."""
    return all(d.max_slope <= 1.0 + 1e-12 for d in eq.lags)


def check_all(
    eq: DelayEquation,
    r: int = 1,
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = 500,
    n_grid_liminf: int = 2000,
) -> CheckReport:
    """Evaluate every criterion and aggregate an overall verdict.

    The witness is the first satisfied criterion in the fixed order
    ``CRITERIA_ORDER``.  Margins within 10 * tol of a threshold are treated
    as marginal and never count as satisfied.  alpha, Hunt-Yorke and Kwong
    are exact; ``n_grid`` is the grid of the two kernel limsups, and
    ``n_grid_liminf`` is validated but changes no result.
    """
    _check_tol(tol)
    _check_grid(n_grid_liminf, "n_grid_liminf")
    env = combined_envelope(eq)
    cache = KernelCache()
    strict = 10.0 * tol

    # the liminf constants exactly; the two criterion integrals, rows of one
    # profile on one grid, in one scan
    a_val, kw = _tau_max_extrema(eq, env)
    hy = _hunt_yorke_min(eq, env)
    f, w0, ts = _kernel_profile(eq, r, ("inner", "outer"), env, cache, tol, n_grid)
    inner, outer = _scan_maxima(f, ts)
    lam = lambda0(a_val) if 0.0 < a_val <= INV_E else None

    # one window: every profile is periodic from it on, at any depth
    base_params = {"tol": tol, "r": None, "window": (w0, w0 + eq.period)}

    def params_kernel(t):
        return dict(base_params, r=r, n_grid=n_grid, t=t)

    lam_threshold = (1.0 + math.log(lam)) / lam if lam is not None else None
    sqrt_arg = 1.0 - 2.0 * a_val - a_val * a_val
    bcs19_threshold = (
        1.0 - (1.0 - a_val - math.sqrt(sqrt_arg)) / 2.0
        if (lam is not None and sqrt_arg >= 0.0)
        else None
    )

    def verdict(name, value, threshold, applicable, params):
        margin = None if (value is None or threshold is None) else value - threshold
        ok = bool(applicable and margin is not None and margin > strict)
        marginal = bool(
            applicable and margin is not None and abs(margin) <= strict
        )
        return CriterionVerdict(
            name=name,
            value=value,
            threshold=threshold,
            satisfied=ok,
            applicable=applicable,
            marginal=marginal,
            params=params,
        )

    verdicts = (
        verdict("ladde_1_3", a_val, INV_E, True, dict(base_params)),
        verdict("hunt_yorke_1_4", hy, INV_E, True, dict(base_params)),
        verdict(
            "kwong_1_5",
            kw,
            lam_threshold,
            eq.m == 1 and _is_monotone_delay(eq) and lam is not None,
            dict(base_params),
        ),
        verdict("bcs_1_8", outer.value, 1.0, True, params_kernel(outer.t)),
        verdict(
            "bcs_1_9", outer.value, bcs19_threshold, lam is not None, params_kernel(outer.t)
        ),
        verdict(
            "main_2_8", inner.value, lam_threshold, lam is not None, params_kernel(inner.t)
        ),
    )

    witness = next((v.name for v in verdicts if v.satisfied), None)
    overall = "oscillatory" if witness is not None else "inconclusive"

    notes = []
    by_name = {v.name: v for v in verdicts}
    if by_name["bcs_1_9"].satisfied and not by_name["bcs_1_8"].satisfied:
        notes.append(
            "bcs_1_9 is satisfied although bcs_1_8 is not: the frozen-envelope "
            "limsup clears the alpha-derived threshold "
            f"{by_name['bcs_1_9'].threshold:.6f} but stays below 1."
        )
    for v in verdicts:
        if v.marginal:
            notes.append(
                f"{v.name} is marginal: its margin {v.margin:.3e} is within "
                f"{strict:.1e} of the threshold, so it is not counted as satisfied."
            )
    for v in verdicts:
        if v.value is not None and not math.isfinite(v.value):
            notes.append(
                f"{v.name} saturated: its integrand overflows the double range, "
                "so its value is +inf and exceeds any threshold."
            )
    if cache.capped:
        notes.append(_kink_cap_note(tol))

    return CheckReport(
        alpha=a_val,
        lambda0=lam,
        verdicts=verdicts,
        overall=overall,
        witness=witness,
        notes=tuple(notes),
    )
