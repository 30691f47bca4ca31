"""Oscillation criteria evaluated as exact extrema over one period.

All limit inferior / limit superior quantities reduce to extrema of
periodic profiles once transients have passed, over one steady-state
period [w0, w0 + P].  alpha, Kwong and Hunt-Yorke read profiles that are
quadratic between known knots, so their extrema are exact: the best of
the profile's values at the knots and at the vertices inside the pieces
(``_quadratic_extrema``), with no grid.  The two kernel limsups are rows
of one profile (``_kernel_profile``), scanned for their maxima on a dense
grid seeded with every geometric breakpoint, every local maximum refined
by a zoom search, all brackets in lockstep (``_scan_maxima``).  The
window's ends are one point of a circle: neighbours are cyclic, a run of
maxima may wrap across the seam, and every location is reported in
[w0, w0 + P).  Grid values within a rounding tie (1e-13 of the row's
largest magnitude) count as equal, so a profile flat up to rounding gives
one bracket, not hundreds.  A check
takes 1 zoom step on a flat profile, 4-5 on the demo, and never more than
about 27 whatever the scale of the period and lags.  A criterion counts
as satisfied only when its margin clears 10 * tol; anything closer is
marginal and reported as not satisfied.
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
from .kernel import DEFAULT_TOL, KernelCache, _criterion
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
_REFINE_XTOL = 1e-10
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
# a zoom step cuts each side of a bracket's best point in 16 equal parts: 33
# samples, of which the ends and the best point are known, 30 new
_ZOOM_FRACTIONS = np.arange(-16.0, 17.0) / 16
_ZOOM_KNOWN = np.array([0, 16, 32])
_ZOOM_NEW = np.arange(33) % 16 != 0
# pieces per block of ``_quadratic_extrema``: a profile of the tent lag at
# L/P = 1e6 has a million knots
_BLOCK = 1 << 16


# -- root finding ----------------------------------------------------------


def lambda0(alpha_value: float, *, xtol: float = 1e-13) -> float:
    """Smaller root of lambda = exp(alpha * lambda), by bisection.

    Exists for alpha in (0, 1/e]; anything outside raises.  Returns the
    lower end of the final bracket, below the root by at most ``xtol``, so
    the thresholds (1 + ln lambda) / lambda, which fall as lambda grows, are
    never understated.  The other way round, ``sim.check_envelope_ratio``,
    whose margin is the simulated ratio minus lambda, reads up to ``xtol``
    looser.
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
    while hi - lo > xtol:
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


def _zoom_lockstep(g, x3, g3, tie, xtol: float):
    """Zoom search for the minimum of ``g`` on every bracket at once.  Row
    ``k`` of ``x3`` holds a bracket's ends and its best point, ``lo, c, hi``,
    and ``g3`` their values; ``tie[k]`` is the rounding tie of its profile.
    ``g(x, act)`` evaluates the points ``x``, point ``i`` in bracket
    ``act[i]``; ``act`` is always nondecreasing.

    Each step cuts each side of ``c`` in 16 equal parts, the sides' widths
    may differ, evaluates the new samples of every active bracket in one
    call of ``g``, and keeps the two neighbours of the best interior sample
    (the first among equals) as the next bracket, centred on it.  A bracket
    stops once the second differences of its 33 samples are within its tie
    at every sample but the best (the profile is straight to rounding on
    each side of it, so refining further moves the value by about the tie;
    an infinite sample is never straight), once it is no wider than
    ``xtol``, or once a step fails to halve it, which happens only where the
    float spacing is coarser than ``xtol``; so a scan ends at any scale.
    Returns the best sample of every bracket and its value; a NaN value
    counts as +inf.
    """
    act = np.arange(len(x3))
    while act.size:
        rows = np.arange(act.size)
        lo, c, hi = x3[act].T
        # each side of c cut in 16 parts, the bracket's own ends kept
        side = np.where(_ZOOM_FRACTIONS < 0, (c - lo)[:, None], (hi - c)[:, None])
        x = c[:, None] + side * _ZOOM_FRACTIONS
        x[:, 0], x[:, -1] = lo, hi
        gx = np.empty_like(x)
        gx[:, _ZOOM_KNOWN] = g3[act]
        gx[:, _ZOOM_NEW] = g(x[:, _ZOOM_NEW].ravel(), np.repeat(act, 30)).reshape(-1, 30)
        gx[np.isnan(gx)] = math.inf
        k = 1 + np.argmin(gx[:, 1:-1], axis=1)
        keep = k[:, None] + np.array([-1, 0, 1])
        x3[act], g3[act] = x[rows[:, None], keep], gx[rows[:, None], keep]
        with np.errstate(invalid="ignore"):
            bent = np.abs(gx[:, :-2] - 2.0 * gx[:, 1:-1] + gx[:, 2:]) > tie[act, None]
        bent[rows, k - 1] = False
        straight = ~bent.any(axis=1) & np.isfinite(gx).all(axis=1)
        width, new_width = hi - lo, x3[act, 2] - x3[act, 0]
        act = act[~straight & (new_width > xtol) & (new_width <= 0.5 * width)]
    return x3[:, 1], g3[:, 1]


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
    is_min = (vals <= np.roll(vals, 1) + tie) & (vals <= np.roll(vals, -1) + tie)
    # read the circle from a point that is no minimum, so no run wraps; when
    # every point is one, the whole circle is one run
    s = int(np.argmin(is_min))
    m, v = np.roll(is_min, -s), np.roll(vals, -s)
    ends = np.flatnonzero(np.diff(m, prepend=False, append=False))
    j0, j1 = ends[::2], ends[1::2] - 1
    # each run's lowest value, and its first point at that value
    lowest = np.minimum.reduceat(np.where(m, v, math.inf), j0)
    at_lowest = v == np.repeat(np.append(math.inf, lowest), np.diff(j0, prepend=0, append=n))
    hits = np.flatnonzero(m & at_lowest)
    c = hits[np.searchsorted(hits, j0)]
    # back from the rotated circle, each bracket shifted to centre in [0, n)
    shift = s - n * (c + s >= n)
    return (np.stack([j0 - 1, c, j1 + 1], axis=1) + shift[:, None])[np.argsort(c + shift)]


def _scan_maxima(f, cand, xtol=_REFINE_XTOL):
    """The maximum of each row of a vectorised periodic profile, with its
    location, as a list of ``ScanExtremum``.

    ``f`` maps times to an array of one row per profile, ``cand`` holds the
    sorted candidates over one period; each ``t`` is in
    ``[cand[0], cand[-1])``.  ``f`` is evaluated once on ``cand[:-1]``, the
    last candidate being the first one's periodic copy.  The zoom looks for
    minima, so it reads the rows negated, which is exact.  Every run of
    local minima of a negated row, neighbours cyclic and grid values within
    the row's tie (``_TIE_REL`` of its largest finite one) counting as
    equal, brackets one refinement between its outer neighbours, centred on
    the run's best point; the brackets of every row are refined in one
    ``_zoom_lockstep``, each step calling ``f`` once.  Kinks are grid
    points, so a kink extremum is a sample from the first step on.  A
    refinement replaces the best grid value only when strictly better, and
    the first bracket wins a tie.
    """
    n, period = len(cand) - 1, cand[-1] - cand[0]
    rows = -np.asarray(f(cand[:-1]), dtype=float).reshape(-1, n)
    best, xs, gs, ties, counts = [], [], [], [], []
    for row in rows:
        finite = np.abs(row[np.isfinite(row)])
        tie = _TIE_REL * finite.max() if finite.size else 0.0
        k = int(np.argmin(row))
        idx = _brackets(row, tie)
        lap = np.where(idx == n, 0, idx // n)  # index n is the window's end
        xs.append(cand[idx - lap * n] + period * lap)
        gs.append(row[idx % n])
        ties.append(tie)
        counts.append(len(idx))
        best.append([row[k], cand[k]])
    x3 = np.concatenate(xs)
    if x3.size:
        row_of = np.repeat(np.arange(len(rows)), counts)

        def g(x, act):
            return -np.asarray(f(x), dtype=float)[row_of[act], np.arange(x.size)]

        x, gx = _zoom_lockstep(g, x3, np.concatenate(gs), np.repeat(ties, counts), xtol)
        # a point refined past either end goes a period back, into [w0, w1)
        w0, w1 = cand[0], cand[-1]
        x = np.where(x < w0, x + period, np.where(x >= w1, x - period, x))
        x = np.clip(x, w0, np.nextafter(w1, w0))
        for entry, ks in zip(best, np.split(np.arange(x.size), np.cumsum(counts)[:-1])):
            if ks.size:
                k = ks[int(np.argmin(gx[ks]))]
                if gx[k] < entry[0]:
                    entry[:] = gx[k], x[k]
    return [ScanExtremum(value=float(-v), t=float(t)) for v, t in best]


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
            # (a + b) / 2 - m / c, m the piece's chord slope
            v = 0.5 * (a + b) - (yb[k] - ya[k]) / ((b - a) * c)
            v = v[(a < v) & (v < b)]
            if v.size:
                samples.append(np.asarray(f(v), dtype=float))
        lo = min(lo, *(float(s.min()) for s in samples))
        hi = max(hi, *(float(s.max()) for s in samples))
    return lo, hi


def _window(eq: DelayEquation, env: EnvelopeFunction | None, depth: int):
    """``(env, w0, w1)``: the envelope, built when not given, and the
    period-aligned steady-state scan window ``[w0, w1 = w0 + P]``.  Its start
    is (depth + 2)(max_lag + P) past t_stab, over a period more than the
    (depth + 1) lags ``depth`` nested kernel lookups reach back: a bracket
    wrapped across the seam reads at most a period before w0."""
    env = env if env is not None else combined_envelope(eq)
    t0 = env.t_stab + (depth + 2) * (eq.max_lag + eq.period)
    w0 = eq.period * math.ceil(t0 / eq.period - 1e-9)
    return env, w0, w0 + eq.period


def _integral_profile_knots(eq, poly, w0, w1):
    """Kinks of t -> integral_{lower(t)}^t coeff-sum, where ``poly`` is the
    polyline of the lower limit over [w0, w1]: coefficient breakpoints hit by
    either integration limit, plus kinks of the lower limit itself.  Unsorted,
    with repeats, all in [w0, w1]."""
    pre = _lattice_preimages(poly, phase_lattice(eq.coefficients), eq.period)
    return np.concatenate([breakpoint_times(eq.coefficients, w0, w1), poly[0], pre])


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _check_grid(n_grid: int, name: str = "n_grid") -> None:
    if not n_grid >= 1:
        raise ValueError(f"{name} must be >= 1, got {n_grid}")


def _refine_xtol(tol: float) -> float:
    _check_tol(tol)
    return min(float(tol), _REFINE_XTOL)


def _coeff_integral_profile(eq, lower, polyline, env):
    """``(f, knots, curvature)`` for ``_quadratic_extrema``: t -> integral
    over [lower(t), t] of the coefficient sum S', over one settled period;
    ``polyline(a, b)`` is the polyline of ``lower``.  Between the knots S'(t),
    lower(t) and S'(lower(t)) are linear, so f is quadratic, with second
    derivative S''(t) - S''(lower(t)) lower'(t)^2, zero when S' is constant.
    Knots a rounding apart are kept apart: merged, they could hide a kink
    inside a piece."""
    _, w0, w1 = _window(eq, env, 0)
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

    def s2(x):  # S''
        return sum(c.slopes(x) for c in eq.coefficients)

    def curvature(a, b):
        # each piece lies on one segment of the polyline: the one holding its
        # midpoint, which rounds onto b when a and b are adjacent doubles
        mid = 0.5 * (a + b)
        j = _piece(ts, mid)
        s = slope[j]
        return s2(mid) - s2(ys[j] + s * (mid - ts[j])) * s * s

    return f, knots, curvature


def _product_profile(eq, env):
    """``(f, knots, curvature)`` for ``_quadratic_extrema``: t -> sum_i
    p_i(t) d_i(t) over one settled period.  Between the knots every factor is
    linear, so f is quadratic, with second derivative 2 sum_i p_i' d_i'."""
    _, w0, w1 = _window(eq, env, 0)
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
    with every coefficient, lag and envelope knot."""
    env = env if env is not None else combined_envelope(eq)
    f = _criterion(eq, r, kinds, env, cache, tol)
    _, w0, w1 = _window(eq, env, r)
    knots = breakpoint_times(eq.coefficients + eq.lags, w0, w1)
    return f, w0, _scan_grid(w0, w1, np.concatenate([knots, env.knots(w0, w1)]), n_grid)


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
    ``[w0, w0 + P]`` is the scan window and ``ts`` the scan grid on it, a
    uniform grid joined with every coefficient, lag and envelope knot.
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
    xtol = _refine_xtol(tol)
    f, _, ts = _kernel_profile(eq, r, (kind,), env, cache, tol, n_grid)
    return _scan_maxima(f, ts, xtol)[0]


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
    xtol = _refine_xtol(tol)
    _check_grid(n_grid_liminf, "n_grid_liminf")
    env = combined_envelope(eq)
    cache = KernelCache()
    strict = 10.0 * tol

    # the liminf constants exactly; the two criterion integrals, rows of one
    # profile on one grid, in one lockstep scan
    a_val, kw = _tau_max_extrema(eq, env)
    hy = _hunt_yorke_min(eq, env)
    f, w0, ts = _kernel_profile(eq, r, ("inner", "outer"), env, cache, tol, n_grid)
    inner, outer = _scan_maxima(f, ts, xtol)
    lam = lambda0(a_val) if 0.0 < a_val <= INV_E else None

    window_liminf = _window(eq, env, 0)[1:]
    window_kernel = (w0, w0 + eq.period)
    base_params = {"tol": tol, "r": None}

    def params_liminf():
        return dict(base_params, window=window_liminf)

    def params_kernel(t):
        return dict(base_params, r=r, n_grid=n_grid, window=window_kernel, t=t)

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
        verdict("ladde_1_3", a_val, INV_E, True, params_liminf()),
        verdict("hunt_yorke_1_4", hy, INV_E, True, params_liminf()),
        verdict(
            "kwong_1_5",
            kw,
            lam_threshold,
            eq.m == 1 and _is_monotone_delay(eq) and lam is not None,
            params_liminf(),
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

    return CheckReport(
        alpha=a_val,
        lambda0=lam,
        verdicts=verdicts,
        overall=overall,
        witness=witness,
        notes=tuple(notes),
    )
