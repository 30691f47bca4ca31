"""Recursive exponential kernel and the envelope-weighted criterion integrals.

The kernel is defined by

    K_1(t, s) = exp( integral_s^t sum_i p_i )
    K_{r+1}(t, s) = exp( integral_s^t sum_i p_i(z) K_r(z, tau_i(z)) dz )

and always satisfies K_r >= 1 for t >= s, K_r nondecreasing in r.  Calling
it with t < s is allowed and returns the reciprocal (the exponent is read as
a signed integral), so K_r(t, s) * K_r(s, u) = K_r(t, u) holds for any
argument order.

The criterion integrals weight the coefficient sum by kernel values looked
up at the delay-argument envelope:

    sliding:  integral_a^b sum_i p_i(z) K_r(h(z), tau_i(z)) dz
    frozen:   same with h(z) replaced by a fixed reference value c

with h the combined envelope of the equation.

Every value is a lookup in an antiderivative table built by ``_fit_table``
(degree-16 Chebyshev pieces, kept once their trailing coefficients fall
below ``tol / 100``, cut otherwise):

    G_L  of g_L(z) = sum_i p_i(z) K_L(z, tau_i(z)), one period;
         K_r(t, s) = exp(G_{r-1}(t) - G_{r-1}(s)), G_0 exact
    F    of the sliding integrand over one period of the settled envelope,
         z - tail_lag(z); sliding = F(b) - F(a)
    W    of w(z) = sum_i p_i(z) exp(-G_{r-1}(tau_i(z))), one period, as
         w(z + P) = e^{-T} w(z); frozen = e^{G_{r-1}(c)} (W(b) - W(a)),
         its part from a to the period's end read off suffix sums

F and W differ only in the base of the exponent, G_{r-1}(h(z)) or 0, so
they are fitted together: one set of samples, one set of pieces, keyed by
the tail lag.  The envelope has its settled form below 0 and from t_stab
on (t_stab is 0 or a period), so a sliding integral is defined over spans
that do not meet [0, t_stab); the criteria read only past t_stab +
max_lag, where h(t) >= t_stab.  Every table is seeded and cut at the
rungs of one ladder of kink phases per equation (``_phases``): level 0 is
the breakpoint lattice, level k its delay preimages k deep.  Level 1 seeds
every table; F and W add the phases where h(z) hits the lattice.  A
depth-r table, whose integrand reads G_{r-1} at the delayed arguments,
also breaks at level r - 1, and a piece that fails its tail test is cut
there, at its hints, so its pieces end on the breaks; a piece with no
hint in reach is halved, as every cut of a table of depth 1 or 2 is,
its seeds holding its hints.  One set-up, ``_fit``, gives every table
its integrand, seeds and hints.  The preimages come from the polyline
toolkit in ``envelope``: ``_lattice_preimages``, the routine that also
gives the alpha and Kwong profile its knots where tau_max meets the
coefficient lattice.
``_within`` is the one lookup: the tables it reads in a call, on common
pieces, are gathered coefficient-major into one block and summed in one
Clenshaw pass.  ``_breaks`` lists the phases where the criterion integrals,
sums of such lookups, may break, for the grid of the limsup scan.
Kernel exponents past 709 saturate to +inf (reciprocals to 0.0), and so
does every integral over a table whose integrand overflows; each table
saturates on its own.
"""

from __future__ import annotations

import math

import numpy as np

from typing import TYPE_CHECKING

from .envelope import _lattice_preimages, _tau_polyline, combined_envelope
from .model import DEFAULT_TOL, DelayEquation, _merge_close, _piece, breakpoint_times, phase_lattice

if TYPE_CHECKING:
    from .envelope import EnvelopeFunction

__all__ = [
    "KernelCache",
    "MAX_DEPTH",
    "decay_kernel",
    "inner_criterion_integral",
    "outer_criterion_integral",
    "term_integral",
]

MAX_DEPTH = 8

_CHEB_DEG = 16
_CHEB_U = np.cos(
    np.pi * (2.0 * np.arange(_CHEB_DEG + 1) + 1.0) / (2.0 * (_CHEB_DEG + 1))
)


def _chebvander(x, deg: int) -> np.ndarray:
    """numpy's ``chebvander(x, deg)``, row k holding T_0..T_deg at x[k], by
    the same recurrence."""
    v = np.empty((deg + 1,) + x.shape)
    v[0] = x * 0 + 1
    x2 = 2 * x
    v[1] = x
    for i in range(2, deg + 1):
        v[i] = v[i - 1] * x2 - v[i - 2]
    return np.moveaxis(v, 0, -1)


# values at _CHEB_U -> Chebyshev coefficients of the interpolant
_CHEB_FIT = np.linalg.inv(_chebvander(_CHEB_U, _CHEB_DEG))
# A piece whose tail sits at the rounding noise of its samples cannot improve
# by cutting, whatever ``tol`` asks for.  Samples exp(x) carry a relative
# error of about eps * |x|, so the floor grows with the log of the scale.
_TAIL_FLOOR = 1e-14
# rounds of cuts per seed piece, and pieces per table, past which the
# remaining pieces are kept as they are
_MAX_BISECT = 40
_MAX_PIECES = 1 << 16
# points per integrand call of ``_fit_table``, and pieces per block of
# ``criteria._quadratic_extrema``: memory stays bounded whatever the number
# of pieces, terms or knots
_BLOCK = 1 << 14
# A piece is kept once its trailing coefficients fall below tol / _TAIL_DIV:
# across a break of a higher derivative, which the seeds do not hold, the
# tail understates a piece's error (at the default tol the sloped-lag oracle
# case is off by 8e-11 with tol / 10, by 1e-12 with tol / 100)
_TAIL_DIV = 100.0
# delay preimages per level past which the level is not built but repeats the
# one below: the seeds are then the breakpoint lattice alone, and the hints
# stop at the last level under the cap, the tail rule halving down to the
# kinks they miss
_MAX_KINKS = 20000
_EXP_MAX = 709.0


class KernelCache:
    """Antiderivative tables keyed by (kind, equation, level, terms, envelope,
    tol), plus the rungs of each equation's kink phase ladder (``_phases``)
    and the delay-argument polyline of each lag set they are built from.
    Level 1 seeds every table, and level r - 1 gives the hints a failing
    piece of a depth-r table is cut at, built with the table.  F and W, the
    sliding and frozen tables of a level, are fitted together, so they
    share F's pieces and one entry, keyed by the envelope's tail lag.
    Every table spans one period.
    ``capped`` records that some set of delay preimages passed _MAX_KINKS
    and was left out, so a table or a scan grid holds fewer kinks.

    A table is built on first use and read by every later lookup, so results
    with and without a shared cache are identical.
    """

    def __init__(self):
        self._tables: dict = {}
        self.capped = False

    def _table(self, key, build):
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]


def _check_depth(r: int) -> None:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise ValueError(f"kernel depth must be an integer, got {r!r}")
    if r < 1:
        raise ValueError(f"kernel depth must be >= 1, got {r}")
    if r > MAX_DEPTH:
        raise ValueError(
            f"kernel depth {r} exceeds the supported maximum {MAX_DEPTH}"
        )


# -- the table primitive -----------------------------------------------------


def _clenshaw(u, c):
    """The Chebyshev series with coefficients ``c[0], c[1], ...`` along the
    first axis of ``c``, summed at ``u``: numpy's ``chebval(u, c, tensor=False)``,
    by the same Clenshaw recurrence, minus its copy of ``c``.  Each step reads
    one coefficient row, contiguous when ``c`` is."""
    u2 = 2.0 * u
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * u2
    return c0 + c1 * u


def _chebint(c) -> np.ndarray:
    """Antiderivative coefficients, zero at u = -1, of the Chebyshev series
    along the last axis of ``c``: numpy's ``chebint(c, lbnd=-1, axis=-1)``,
    by the same operations in the same order (numpy.polynomial costs a few
    milliseconds to import)."""
    c = np.moveaxis(c, -1, 0)
    n = len(c)
    tmp = np.empty((n + 1,) + c.shape[1:])
    tmp[0] = c[0] * 0
    tmp[1] = c[0]
    tmp[2] = c[1] / 4
    # for j = 2..n-1, tmp[j + 1] = c[j] / (2 (j + 1)), then tmp[j - 1] -=
    # c[j] / (2 (j - 1)): every row is set before it is lowered, so two
    # array operations do what the loop did, in its order
    j = np.arange(2, n).reshape((-1,) + (1,) * (c.ndim - 1))
    tmp[3:] = c[2:] / (2 * (j + 1))
    tmp[1 : n - 1] -= c[2:] / (2 * (j - 1))
    # minus the series at u = -1
    tmp[0] += 0 - _clenshaw(-1.0, tmp)
    return np.moveaxis(tmp, 0, -1)


class _Table:
    """Antiderivative x -> integral_{edges[0]}^x f of a piecewise Chebyshev fit.

    ``coef`` holds one row of antiderivative coefficients per piece, shape
    (nseg, deg + 2), in the piece's local variable u in [-1, 1], stored
    column-major: lookups read it as ``coef.T``, one contiguous row per
    coefficient.  ``cum`` holds the integral up to each piece's left end,
    and ``rest`` the integral from there to the table's end, summed from
    that end.  Every table spans [0, P] and is read periodically.  A
    ``saturated`` table stands for an integrand that overflowed; it carries
    no coefficients.
    """

    __slots__ = ("edges", "coef", "cum", "rest", "total", "saturated")

    def __init__(self, edges=None, coef=None):
        self.edges = edges
        self.coef = coef
        self.saturated = coef is None
        self.cum = self.rest = None
        self.total = math.inf
        if not self.saturated:
            piece = coef.sum(axis=1)  # T_k(1) = 1
            self.cum = np.concatenate([[0.0], np.cumsum(piece)])
            self.rest = np.append(np.cumsum(piece[::-1])[::-1], 0.0)
            self.total = float(self.cum[-1])

    def values(self, xs):
        """Periodic continuation: A(x + P) = A(x) + total."""
        k, u = _split(self.edges[-1], xs)
        lump, part = self.parts(u)
        return k * self.total + (lump + part)

    def parts(self, us):
        """A at the points ``us`` of [0, P] in two parts, unsummed: its value
        at the left end of each point's piece, and the integral from there."""
        j, (s,) = _within([self], us)
        return self.cum[j], s


def _within(tables, xs):
    """``(j, [s, ...])`` at the points ``xs`` of the span of ``tables``,
    fitted on common pieces, in the shape of ``xs``: the piece j of each
    point, and each table's integral from that piece's left end, by one
    search of the pieces and one Clenshaw pass over every table's
    coefficients.

    Each table gathers its series coefficient-major, a column per point,
    into a contiguous slab of one block.  ``mode="clip"``: numpy buffers a
    gather into ``out`` in its default mode, and the indices are in range
    already."""
    edges = tables[0].edges
    shape = np.shape(xs)
    x = np.asarray(xs, dtype=float).ravel()
    j = _piece(edges, x)
    lo, hi = edges[j], edges[j + 1]
    u = (2.0 * x - lo - hi) / (hi - lo)
    block = np.empty((len(tables), tables[0].coef.shape[1], j.size))
    for t, slab in zip(tables, block):
        np.take(t.coef.T, j, axis=1, out=slab, mode="clip")
    sums = _clenshaw(u, block.transpose(1, 0, 2))
    return j.reshape(shape), [s.reshape(shape) for s in sums]


def _split(period: float, xs):
    """``(k, u)`` for x = k * P + u with u in [0, P]."""
    x = np.asarray(xs, dtype=float)
    k = np.floor(x / period)
    return k, np.minimum(np.maximum(x - k * period, 0.0), period)


class _CoeffSumLevel:
    """G_0, the exact coefficient-sum antiderivative, read like a level table."""

    saturated = False

    def __init__(self, eq: DelayEquation):
        self.values = eq.coeff_sum_antiderivative
        self.total = float(self.values(eq.period))

    def parts(self, us):
        return 0.0, self.values(us)


def _fit_table(f, edges, tol: float, hints) -> list[_Table]:
    """Antiderivative tables of ``k`` integrands over [edges[0], edges[-1]],
    on common pieces.

    ``f`` maps an array of n points to a (k, n) array of values, one row per
    integrand; it is called on at most _BLOCK points at a time.  Each piece
    between ``edges`` is interpolated in _CHEB_DEG + 1 Chebyshev points and
    kept once the two trailing coefficients of every row fall below
    ``tol / _TAIL_DIV`` (or the rounding floor); otherwise it is cut, at
    most _MAX_BISECT times and while the tables stay within _MAX_PIECES
    pieces.  This is chebfun's splitting rule (Pachon, Platte &
    Trefethen, IMA J. Numer. Anal. 30 (2010); Trefethen, ATAP ch. 3 and 8),
    which puts a break at a detected edge: a failing piece is cut at the
    sorted ``hints``, the points where the integrands may break, and at its
    midpoint when none is in reach (``_cut_points``).
    A row with a non-finite value saturates its own table and takes no
    further part in the splitting.
    """
    los = np.asarray(edges[:-1], dtype=float)
    his = np.asarray(edges[1:], dtype=float)
    kept_lo, kept_hi, kept_c = [], [], []
    dead = False
    pieces = 0
    for depth in range(_MAX_BISECT + 1):
        mids = 0.5 * (los + his)
        halves = 0.5 * (his - los)
        pts = mids[:, None] + halves[:, None] * _CHEB_U[None, :]
        x = pts.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.concatenate([f(x[i : i + _BLOCK]) for i in range(0, x.size, _BLOCK)], 1)
        vals = vals.reshape(len(vals), *pts.shape)
        dead = dead | ~np.isfinite(vals).all(axis=(1, 2))
        if dead.all():
            return [_Table()] * len(dead)
        # a saturated row reads as zero: it passes every tail test
        vals[dead] = 0.0
        c = vals @ _CHEB_FIT.T
        mag = np.abs(c)
        scale = mag.max(axis=2)
        floor = _TAIL_FLOOR * scale * np.maximum(1.0, np.abs(np.log(scale + 1e-300)))
        keep = (mag[:, :, -2:].max(axis=2) <= np.maximum(tol / _TAIL_DIV, floor)).all(axis=0)
        pieces += int(keep.sum())
        if not keep.all():
            cut = _cut_points(los[~keep], his[~keep], hints, multi=depth > 0)
            if depth == _MAX_BISECT or pieces + cut[0].size > _MAX_PIECES:
                keep[:] = True
        kept_lo.append(los[keep])
        kept_hi.append(his[keep])
        kept_c.append(c[:, keep])
        if keep.all():
            break
        los, his = cut

    lo = np.concatenate(kept_lo)
    order = np.argsort(lo)
    lo = lo[order]
    hi = np.concatenate(kept_hi)[order]
    c = np.concatenate(kept_c, axis=1)[:, order]
    coef = _chebint(c) * (0.5 * (hi - lo))[:, None]
    edges = np.append(lo, hi[-1])
    tables = []
    for cj, saturated in zip(coef, dead):
        # a one-row fit's memory layout, so numpy sums each row in its order
        table = _Table(edges, np.asfortranarray(cj))
        tables.append(table if not saturated and math.isfinite(table.total) else _Table())
    return tables


def _cut_points(lo, hi, hints, multi: bool):
    """The pieces that the failing pieces [lo, hi] are cut into, as (lows,
    highs), given the sorted ``hints``.  A piece is cut at the hint nearest
    its midpoint among those in its middle half, or at its midpoint when
    that half holds none.  With ``multi`` (the pieces failed before), a
    piece holding 2 to _CHEB_DEG hints farther than 1/64 of its width from
    its ends is cut at all of them.  A cut never falls at or next to an end:
    a single cut leaves at most 3/4 of a piece, and a multi-way cut uses up
    the hints it cuts at, so breaks the hints miss are still found."""
    width = hi - lo
    mid = 0.5 * (lo + hi)
    a = np.searchsorted(hints, lo + 0.25 * width, side="left")
    b = np.searchsorted(hints, hi - 0.25 * width, side="right")
    # the hint nearest the midpoint: of the two beside it, those in [a, b)
    k = np.searchsorted(hints, mid)
    top = np.minimum(np.maximum(b - 1, a), hints.size - 1)
    left = hints[np.minimum(np.maximum(k - 1, a), top)]
    right = hints[np.minimum(np.maximum(k, a), top)]
    nearest = np.where(np.abs(right - mid) < np.abs(left - mid), right, left)
    single = np.where(b > a, nearest, mid)
    first = np.searchsorted(hints, lo + width / 64, side="right")
    count = np.searchsorted(hints, hi - width / 64, side="left") - first
    every = multi & (count >= 2) & (count <= _CHEB_DEG)
    n = np.where(every, count, 1)
    ends = np.cumsum(n)
    rank = np.arange(n.sum()) - np.repeat(ends - n, n)
    at = np.minimum(np.repeat(first, n) + rank, hints.size - 1)
    cuts = np.where(np.repeat(every, n), hints[at], np.repeat(single, n))
    # piece k: [lo_k, its first cut], then from each cut to the next or hi_k
    nxt = np.empty_like(cuts)
    nxt[:-1] = cuts[1:]
    nxt[ends - 1] = hi
    return np.concatenate([lo, cuts]), np.concatenate([cuts[ends - n], nxt])


# -- kink phases that seed the tables -------------------------------------------


def _seed_edges(points, lo: float, hi: float) -> np.ndarray:
    inner = _merge_close(points)
    inner = inner[(lo + 1e-9 < inner) & (inner < hi - 1e-9)]
    return np.concatenate([[lo], inner, [hi]])


def _chain(eq: DelayEquation, cache: KernelCache, lags):
    """The polylines of the delay arguments z - d(z) over [0, P], one per lag
    of ``lags``, chained into one, cached."""
    return cache._table(
        ("chain", lags),
        lambda: tuple(
            np.concatenate(part) for part in zip(*(_tau_polyline(d, 0.0, eq.period) for d in lags))
        ),
    )


def _preimages(eq: DelayEquation, cache: KernelCache, lags, phases):
    """Where some z - d(z), d of ``lags``, hits ``phases`` over [0, P]
    (``_lattice_preimages``); None past _MAX_KINKS, recorded on ``cache``."""
    z = _lattice_preimages(_chain(eq, cache, lags), phases, eq.period, _MAX_KINKS)
    cache.capped |= z is None
    return z


def _phases(eq: DelayEquation, cache: KernelCache, levels: int, lag=None) -> np.ndarray:
    """Rung ``levels`` of the kink phase ladder of ``eq``, cached.  Level 0 is
    the breakpoint lattice, and level k adds the delay preimages of level
    k - 1, where some tau_i(z) hits it; a level whose preimages would pass
    _MAX_KINKS, counted before any is built, repeats level k - 1.  With
    ``lag``, the rung also holds the preimages of level ``levels - 1`` under
    it, where z - lag(z) hits that level.

    A level integrand g_L jumps only where a coefficient jumps, at a lattice
    point, so the first derivative of G_L(tau_i(z)) breaks only where
    tau_i(z) hits the lattice: level 1 seeds every table.  Level k breaks
    the k-th derivative, so a depth-r table is cut at level r - 1."""

    def build():
        if levels == 0:
            return phase_lattice(eq.coefficients + eq.lags)
        below = _phases(eq, cache, levels - 1)
        base, lags = (below, eq.lags) if lag is None else (_phases(eq, cache, levels), (lag,))
        z = _preimages(eq, cache, lags, below)
        return base if z is None else _merge_close(np.concatenate([base, z[z < eq.period]]))

    return cache._table(("phases", eq, levels, lag), build)


# -- the tables ---------------------------------------------------------------


def _weighted_sums(eq: DelayEquation, terms, level, zs, base_at, rows: int):
    """Row 0: the sum over ``terms`` of p_i(z) * exp(G(base_at) - G(tau_i(z))),
    G = ``level``; with ``rows`` 2, row 1 the same with the base 0.  The base
    points and every delayed argument take one lookup."""
    n = zs.size
    g = level.values(np.concatenate([base_at, *(zs - eq.lags[i].values(zs) for i in terms)]))
    bases = g[None, :n] if rows == 1 else np.stack([g[:n], np.zeros(n)])
    acc = 0.0
    for k, i in enumerate(terms, 1):
        acc = acc + eq.coefficients[i].values(zs) * np.exp(bases - g[k * n : (k + 1) * n])
    return acc


def _fit(eq, r, terms, cache, tol, lag=None) -> list[_Table]:
    """The tables of the depth-``r`` integrands over one period, on common
    pieces: the sum over ``terms`` of p_i(z) * exp(G(base(z)) - G(tau_i(z))),
    G = G_{r-1}, whose base is z (G_r) or, with ``lag``, z - lag(z) (F),
    followed then by the same with the base 0 (W).  Seeded at level 1 of the
    phase ladder under ``lag`` and the lag's breakpoints, and cut at level
    r - 1 (``_phases``)."""
    rows = 1 if lag is None else 2
    g = _level(eq, r - 1, cache, tol)
    if g.saturated:
        return [_Table()] * rows
    knots = () if lag is None else breakpoint_times([lag], 0.0, eq.period)
    edges = _seed_edges(np.concatenate([_phases(eq, cache, 1, lag), knots]), 0.0, eq.period)

    def f(zs):
        return _weighted_sums(eq, terms, g, zs, zs if lag is None else zs - lag.values(zs), rows)

    return _fit_table(f, edges, tol, _phases(eq, cache, r - 1, lag))


def _level(eq: DelayEquation, level: int, cache: KernelCache, tol: float):
    """G_level, cached: exact for level 0, else the periodic table of
    g_level."""

    def build():
        if level == 0:
            return _CoeffSumLevel(eq)
        return _fit(eq, level, range(eq.m), cache, tol)[0]

    return cache._table(("G", eq, level, None, None, tol), build)


def _sliding_table(eq, r, terms, env, cache, tol) -> list[_Table]:
    """``[F, W]``, fitted together over one period of the settled envelope
    z - tail_lag(z), which hits a level at its preimages under the tail
    lag."""
    lag = env.tail_lag
    return cache._table(("F", eq, r, terms, lag, tol), lambda: _fit(eq, r, terms, cache, tol, lag))


def _integrals(eq, r, terms, env, cache, tol, kinds, c, a, b):
    """One row per kind of ``kinds``, elementwise:

        "inner"  integral_a^b sum_{i in terms} p_i(z) K_r(h(z), tau_i(z)) dz
        "outer"  integral_a^b sum_{i in terms} p_i(z) K_r(c, tau_i(z)) dz

    the sliding envelope h of ``env``, or the reference ``c`` frozen (read
    by "outer" rows only).  F and W are fitted on the same pieces, so the
    rows share one search of them and one Clenshaw pass.  An "inner" row
    whose span [a, b] meets [0, t_stab), where h has not settled, raises."""
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)))
    if env.t_stab > 0.0 and "inner" in kinds and ((a < env.t_stab) & (b >= 0.0)).any():
        raise ValueError(
            f"the sliding envelope settles at t_stab = {env.t_stab}: a sliding integral "
            "needs its span [a, b] below 0 or from t_stab on"
        )
    per = _sliding_table(eq, r, terms, env, cache, tol)
    tables = [per[0] if kind == "inner" else per[1] for kind in kinds]
    live = [t for t in tables if not t.saturated]
    k, u = _split(eq.period, np.stack([a, b]))
    j, sums = _within(live, u) if live else (None, [])
    sums = iter(sums)
    rows = []
    for kind, table in zip(kinds, tables):
        if table.saturated:
            rows.append(np.where(b > a, math.inf, 0.0))
        elif kind == "inner":
            out = k * table.total + (table.cum[j] + next(sums))
            rows.append(out[1] - out[0])
        else:
            rows.append(_frozen(eq, r, cache, tol, table, c, k, j, next(sums)))
    return np.stack(rows)


def _frozen(eq, r, cache, tol, w, c, k, j, s):
    """integral_a^b of the frozen integrand at ``c``, from the periods ``k``,
    the pieces ``j`` and the sums ``s`` of W at ``(a, b)``."""
    g = _level(eq, r - 1, cache, tol)
    big_t = g.total
    (ka, kb), (ja, jb), (sa, sb) = k, j, s
    n = kb - ka
    wb = w.cum[jb] + sb
    # e^{k_a T} (W(b) - W(a)), as W(kP + u) = W_P geo(k) + e^{-kT} W(u) with
    # geo(k) = sum_{j<k} e^{-jT}: within a period, W(b) - W(a); across
    # periods, the rest of a's period (suffix sums, so W_P - W(a) does not
    # cancel), the n - 1 whole periods and the start of b's, none negative
    whole = np.maximum(n - 1, 0)
    geo = whole if big_t == 0.0 else np.expm1(-whole * big_t) / np.expm1(-big_t)
    across = (w.rest[ja] - sa) + math.exp(-big_t) * w.total * geo + np.exp(-n * big_t) * wb
    # the integral of a nonnegative function, so rounding below 0 is clipped
    inside = np.maximum(np.where(n == 0, wb - (w.cum[ja] + sa), across), 0.0)
    # times e^{G(c) - k_a T} = e^{(k_c - k_a) T + G(u_c)}, saturating past
    # float range; G(u_c) in two parts, as rounding their sum would cost the
    # factor an ulp of G(u_c)
    kc, uc = _split(eq.period, c)
    lump, part = g.parts(uc)
    expo = (kc - ka) * big_t + lump
    with np.errstate(over="ignore", invalid="ignore"):
        out = inside * np.where(expo + part > _EXP_MAX, math.inf, np.exp(expo) * np.exp(part))
    return np.where(inside == 0.0, 0.0, out)


def _breaks(eq, r, env, cache, tol) -> np.ndarray:
    """Phases in [0, P] where the depth-``r`` criterion integrals over
    ``env``, sums of table lookups at t and h(t), may break: the edges of
    the settled F/W table and of G_{r-1}, and where the settled envelope
    z - tail_lag(z) meets them, unless those number more than _MAX_KINKS
    (they grow with L/P).  Unsorted, with repeats."""
    tables = [_sliding_table(eq, r, tuple(range(eq.m)), env, cache, tol)[0]]
    tables += [_level(eq, r - 1, cache, tol)] if r > 1 else []
    edges = [t.edges[:-1] for t in tables if not t.saturated]
    if not edges:
        return np.empty(0)
    phases = np.concatenate(edges)
    pre = _preimages(eq, cache, (env.tail_lag,), phases)
    return phases if pre is None else np.concatenate([phases, pre])


# -- public lookups -------------------------------------------------------------


def decay_kernel(
    eq: DelayEquation,
    r: int,
    t: float,
    s: float,
    *,
    tol: float = DEFAULT_TOL,
    cache: KernelCache | None = None,
) -> float:
    """Kernel value K_r(t, s).  Reversed arguments give the reciprocal.

    ``t`` and ``s`` may be arrays; the result then has their broadcast shape.
    """
    _check_depth(r)
    ts, ss = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in (t, s)))
    if not (np.isfinite(ts).all() and np.isfinite(ss).all()):
        raise ValueError(f"kernel arguments must be finite, got t={t}, s={s}")
    g = _level(eq, r - 1, cache if cache is not None else KernelCache(), tol)
    lo, hi = np.minimum(ts, ss), np.maximum(ts, ss)
    if g.saturated:
        expo = np.full(lo.shape, math.inf)
    else:
        # both ends in one lookup; G_{r-1} is nondecreasing, so K_r >= 1,
        # though far up its rounding alone can make G(hi) - G(lo) negative
        expo = np.maximum(np.subtract(*g.values(np.stack([hi, lo]))), 0.0)
    # deep kernels grow doubly exponentially in r; saturate past float range
    with np.errstate(over="ignore"):
        value = np.where(expo > _EXP_MAX, math.inf, np.exp(expo))
    out = np.where(ts == ss, 1.0, np.where(ts >= ss, value, 1.0 / value))
    return _as_output(out, t, s)


def _times(t):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if (ts < 0.0).any():
        raise ValueError(f"envelope is defined for t >= 0, got {ts.min()}")
    return ts


def _as_output(values, *args):
    """A float for scalar arguments, else the array ``values``."""
    return float(values[0]) if all(np.ndim(a) == 0 for a in args) else values


def _criterion(eq, r, kinds, env, cache, tol):
    """The vectorised criterion integrals ``ts -> integral_{h(t)}^t``, times
    past 0, one row per kind of ``kinds``, over the tables of ``env`` (built
    when None): the sliding envelope h(z) for "inner", the envelope frozen
    at h(t) for "outer".  The rows share one envelope lookup; h(t) may lie
    below 0, where h takes its settled form, but an "inner" row raises where
    [h(t), t] meets [0, t_stab)."""
    for kind in kinds:
        if kind not in ("inner", "outer"):
            raise ValueError(f"kind must be 'inner' or 'outer', got {kind!r}")
    _check_depth(r)
    env = env if env is not None else combined_envelope(eq)
    cache = cache if cache is not None else KernelCache()
    terms = tuple(range(eq.m))

    def f(ts):
        h = env.values(ts)
        return _integrals(eq, r, terms, env, cache, tol, kinds, h, h, ts)

    return f


def inner_criterion_integral(
    eq: DelayEquation,
    r: int,
    t: float,
    *,
    tol: float = DEFAULT_TOL,
    cache: KernelCache | None = None,
    env: EnvelopeFunction | None = None,
) -> float:
    """integral_{h(t)}^t sum_i p_i(z) K_r(h(z), tau_i(z)) dz.

    ``t`` may be an array of times; the result then has its shape.  Defined
    where the envelope has settled along [h(t), t]: for every t when t_stab
    is 0, and from t_stab + max_lag on in any case.  A ``ValueError`` names
    t_stab for a t whose span [h(t), t] meets [0, t_stab).
    """
    return _as_output(_criterion(eq, r, ("inner",), env, cache, tol)(_times(t))[0], t)


def outer_criterion_integral(
    eq: DelayEquation,
    r: int,
    t: float,
    *,
    tol: float = DEFAULT_TOL,
    cache: KernelCache | None = None,
    env: EnvelopeFunction | None = None,
) -> float:
    """integral_{h(t)}^t sum_i p_i(z) K_r(h(t), tau_i(z)) dz (envelope frozen at t).

    ``t`` may be an array of times; the result then has its shape.  Defined
    for every t >= 0: the integrand reads the envelope at t alone.
    """
    return _as_output(_criterion(eq, r, ("outer",), env, cache, tol)(_times(t))[0], t)


def term_integral(
    eq: DelayEquation,
    r: int,
    i: int,
    a: float,
    b: float,
    *,
    envelope_at: float | None = None,
    tol: float = DEFAULT_TOL,
    cache: KernelCache | None = None,
    env: EnvelopeFunction | None = None,
) -> float:
    """Single-term integral  integral_a^b p_i(z) K_r(ref(z), tau_i(z)) dz.

    ``ref`` is the sliding envelope h(z) by default, or the fixed value
    ``envelope_at`` when given; either way the tables are keyed by ``env``,
    built when not given.  Every bound reads a one-period table.  With
    ``envelope_at``, any a <= b will do.  Without it, the span [a, b] must
    lie where h has its settled form, below 0 or from t_stab on; a span
    that meets [0, t_stab) raises a ``ValueError`` naming t_stab.
    """
    _check_depth(r)
    if not 0 <= i < eq.m:
        raise ValueError(f"term index {i} out of range for m={eq.m}")
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")
    cache = cache if cache is not None else KernelCache()
    env = env if env is not None else combined_envelope(eq)
    kind, c = ("inner", a) if envelope_at is None else ("outer", envelope_at)
    return float(_integrals(eq, r, (i,), env, cache, tol, (kind,), c, a, b)[0])
