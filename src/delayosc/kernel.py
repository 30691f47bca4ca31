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
below ``tol``, bisected otherwise):

    G_L  of g_L(z) = sum_i p_i(z) K_L(z, tau_i(z)), one period;
         K_r(t, s) = exp(G_{r-1}(t) - G_{r-1}(s)), G_0 exact
    F    of the sliding integrand, one period past env.t_stab plus one
         non-periodic piece below it; sliding = F(b) - F(a)
    W    of w(z) = sum_i p_i(z) exp(-G_{r-1}(tau_i(z))), one period, as
         w(z + P) = e^{-T} w(z); frozen = e^{G_{r-1}(c)} (W(b) - W(a))

Kernel exponents past 709 saturate to +inf (reciprocals to 0.0), and so
does every integral over a table whose integrand overflows.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .envelope import EnvelopeFunction, _tau_polyline, combined_envelope
from .model import DelayEquation

__all__ = [
    "KernelCache",
    "MAX_DEPTH",
    "decay_kernel",
    "inner_criterion_integral",
    "outer_criterion_integral",
    "term_integral",
]

MAX_DEPTH = 8
DEFAULT_TOL = 1e-8

_CHEB_DEG = 16
_CHEB_U = np.cos(
    np.pi * (2.0 * np.arange(_CHEB_DEG + 1) + 1.0) / (2.0 * (_CHEB_DEG + 1))
)
# values at _CHEB_U -> Chebyshev coefficients of the interpolant
_CHEB_FIT = np.linalg.inv(cheb.chebvander(_CHEB_U, _CHEB_DEG))
# A piece whose tail sits at the rounding noise of its samples cannot improve
# by bisection, whatever ``tol`` asks for.  Samples exp(x) carry a relative
# error of about eps * |x|, so the floor grows with the log of the scale.
_TAIL_FLOOR = 1e-14
# bisection rounds per seed piece, and pieces per table, past which the
# remaining pieces are kept as they are
_MAX_BISECT = 40
_MAX_PIECES = 1 << 16
# kink phases per level past which the set is frozen: the seeds then miss
# kinks, and the tail rule bounds the error by bisecting where they fall
_MAX_KINKS = 20000
_EXP_MAX = 709.0


class KernelCache:
    """Antiderivative tables keyed by (kind, equation, level, terms, envelope,
    tol), plus the kink phases that seed them.

    A table is built on first use and read by every later lookup, so results
    with and without a shared cache are identical.
    """

    def __init__(self):
        self._tables: dict = {}

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


def _chebval_rows(u, c):
    """Row k of the Chebyshev coefficients ``c`` summed at ``u[k]``: numpy's
    ``chebval(u, c.T, tensor=False)``, by the same Clenshaw recurrence, minus
    its copy of ``c``."""
    u2 = 2.0 * u
    c0, c1 = c[:, -2], c[:, -1]
    for i in range(3, c.shape[1] + 1):
        c0, c1 = c[:, -i] - c1, c0 + c1 * u2
    return c0 + c1 * u


class _Table:
    """Antiderivative x -> integral_{edges[0]}^x f of a piecewise Chebyshev fit.

    ``coef`` holds one row of antiderivative coefficients per piece, shape
    (nseg, deg + 2), in the piece's local variable u in [-1, 1]; ``cum`` the
    integral up to each piece's left end.  A table on [0, P] is also read
    periodically.  A ``saturated`` table stands for an integrand that
    overflowed; it carries no coefficients.
    """

    __slots__ = ("edges", "coef", "cum", "total", "saturated")

    def __init__(self, edges=None, coef=None, cum=None):
        self.edges = edges
        self.coef = coef
        self.cum = cum
        self.saturated = cum is None
        self.total = math.inf if self.saturated else float(cum[-1])

    def within(self, xs):
        shape = np.shape(xs)
        x = np.asarray(xs, dtype=float).ravel()
        # np.minimum/np.maximum: np.clip's wrapper costs more than the lookup
        j = np.minimum(
            np.maximum(np.searchsorted(self.edges, x, side="right") - 1, 0),
            len(self.coef) - 1,
        )
        lo, hi = self.edges[j], self.edges[j + 1]
        u = (2.0 * x - lo - hi) / (hi - lo)
        out = self.cum[j] + _chebval_rows(u, self.coef[j])
        return out.reshape(shape)

    def split(self, xs):
        """(k, A(u)) for x = k * P + u with u in [0, P]."""
        x = np.asarray(xs, dtype=float)
        period = self.edges[-1]
        k = np.floor(x / period)
        return k, self.within(np.minimum(np.maximum(x - k * period, 0.0), period))

    def values(self, xs):
        """Periodic continuation: A(x + P) = A(x) + total."""
        k, frac = self.split(xs)
        return k * self.total + frac


class _CoeffSumLevel:
    """G_0, the exact coefficient-sum antiderivative, read like a level table."""

    saturated = False

    def __init__(self, eq: DelayEquation):
        self.values = eq.coeff_sum_antiderivative
        self.total = float(self.values(eq.period))


def _fit_table(f, edges, tol: float) -> _Table:
    """Antiderivative table of ``f`` over [edges[0], edges[-1]].

    Each piece between ``edges`` is interpolated in _CHEB_DEG + 1 Chebyshev
    points and kept once its two trailing coefficients fall below ``tol`` (or
    the rounding floor); otherwise it is bisected, at most _MAX_BISECT times
    and while the table stays within _MAX_PIECES pieces.  This is chebfun's
    splitting rule (Pachon, Platte & Trefethen, IMA J. Numer. Anal. 30
    (2010); Trefethen, ATAP ch. 3 and 8).  ``f`` maps an array of points to
    an array of values; a non-finite value saturates the table.
    """
    los = np.asarray(edges[:-1], dtype=float)
    his = np.asarray(edges[1:], dtype=float)
    kept_lo, kept_hi, kept_c = [], [], []
    pieces = 0
    for depth in range(_MAX_BISECT + 1):
        mids = 0.5 * (los + his)
        halves = 0.5 * (his - los)
        pts = mids[:, None] + halves[:, None] * _CHEB_U[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f(pts.ravel()).reshape(pts.shape)
        if not np.isfinite(vals).all():
            return _Table()
        c = vals @ _CHEB_FIT.T
        mag = np.abs(c)
        scale = mag.max(axis=1)
        floor = _TAIL_FLOOR * scale * np.maximum(1.0, np.abs(np.log(scale + 1e-300)))
        keep = mag[:, -2:].max(axis=1) <= np.maximum(tol, floor)
        pieces += int(keep.sum())
        if depth == _MAX_BISECT or pieces + 2 * int((~keep).sum()) > _MAX_PIECES:
            keep[:] = True
        kept_lo.append(los[keep])
        kept_hi.append(his[keep])
        kept_c.append(c[keep])
        if keep.all():
            break
        split = ~keep
        los = np.concatenate([los[split], mids[split]])
        his = np.concatenate([mids[split], his[split]])

    lo = np.concatenate(kept_lo)
    order = np.argsort(lo)
    lo = lo[order]
    hi = np.concatenate(kept_hi)[order]
    c = np.concatenate(kept_c)[order]
    coef = cheb.chebint(c, lbnd=-1.0, axis=1) * (0.5 * (hi - lo))[:, None]
    cum = np.concatenate([[0.0], np.cumsum(coef.sum(axis=1))])  # T_k(1) = 1
    if not math.isfinite(cum[-1]):
        return _Table()
    return _Table(np.append(lo, hi[-1]), coef, cum)


# -- kink phases that seed the tables -------------------------------------------


def _merge_close(values, tol: float = 1e-9):
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(float(v))
    return out


def _seed_edges(points, lo: float, hi: float) -> np.ndarray:
    inner = [p for p in _merge_close(points) if lo + 1e-9 < p < hi - 1e-9]
    return np.array([lo, *inner, hi])


def _preimage_phases(lags, period: float, phases, limit: float = math.inf):
    """All z in [0, P) where some z - lag(z) hits a phase of ``phases`` mod P,
    or None as soon as the preimages of one phase take them past ``limit``."""
    found: list[float] = []
    for lag in lags:
        poly = _tau_polyline(lag, 0.0, period)
        for (z0, y0), (z1, y1) in zip(poly, poly[1:]):
            if z1 <= z0:
                continue
            slope = (y1 - y0) / (z1 - z0)
            if abs(slope) < 1e-13:
                continue  # plateau: kinks sit at its ends, already lattice points
            ylo, yhi = (y0, y1) if y0 <= y1 else (y1, y0)
            for phi in phases:
                n0 = math.ceil((ylo - phi) / period - 1e-12)
                n1 = math.floor((yhi - phi) / period + 1e-12)
                for n in range(n0, n1 + 1):
                    z = z0 + (phi + n * period - y0) / slope
                    if z0 - 1e-12 <= z <= z1 + 1e-12:
                        z = min(max(z, 0.0), period)
                        if z < period:
                            found.append(z)
                if len(found) > limit:
                    return None
    return found


def _kink_phases(eq: DelayEquation, level: int, cache: KernelCache):
    """Kink phases of the level-``level`` integrand g_level in [0, P).

    Level 0 is the breakpoint lattice; each further level adds the delay
    preimages of the previous set, unless that would take it past
    _MAX_KINKS phases: the level then keeps the previous set.
    """

    def build():
        if level == 0:
            funcs = eq.coefficients + eq.lags
            return sorted({t for f in funcs for t in f.interior_times})
        prev = _kink_phases(eq, level - 1, cache)
        new = _preimage_phases(eq.lags, eq.period, prev, _MAX_KINKS - len(prev))
        return prev if new is None else _merge_close(prev + new)

    return cache._table(("kinks", eq, level, None, None, None), build)


# -- the tables ---------------------------------------------------------------


def _weighted_sum(eq: DelayEquation, terms, level, zs, base):
    """sum over ``terms`` of p_i(z) * exp(base - G(tau_i(z))), G = ``level``."""
    acc = 0.0
    for i in terms:
        tau = zs - eq.lags[i].values(zs)
        acc = acc + eq.coefficients[i].values(zs) * np.exp(base - level.values(tau))
    return acc


def _level(eq: DelayEquation, level: int, cache: KernelCache, tol: float):
    """G_level: exact for level 0, else the periodic table of g_level."""
    if level == 0:
        return _CoeffSumLevel(eq)

    def build():
        prev = _level(eq, level - 1, cache, tol)
        if prev.saturated:
            return _Table()
        return _fit_table(
            lambda zs: _weighted_sum(eq, range(eq.m), prev, zs, prev.values(zs)),
            _seed_edges(_kink_phases(eq, level, cache), 0.0, eq.period),
            tol,
        )

    return cache._table(("G", eq, level, None, None, tol), build)


def _sliding_table(eq, r, terms, env, cache, tol, transient: bool) -> _Table:
    """F over one period of the settled envelope, or (``transient``) over
    [min(h(0), 0), t_stab) where the envelope has not settled yet."""
    period = eq.period

    def build():
        g = _level(eq, r - 1, cache, tol)
        if g.saturated:
            return _Table()
        kinks = _kink_phases(eq, r, cache)
        if transient:
            h, lo, hi = env, min(env(0.0), 0.0), env.t_stab
            k0, k1 = math.floor(lo / period), math.ceil(hi / period)
            points = [phi + k * period for k in range(k0, k1) for phi in kinks]
        else:
            # the settled envelope, continued periodically
            h, lo, hi = EnvelopeFunction(0.0, (), env.tail_lag), 0.0, period
            prev = _kink_phases(eq, r - 1, cache)
            points = kinks + _preimage_phases([env.tail_lag], period, prev)
        return _fit_table(
            lambda zs: _weighted_sum(eq, terms, g, zs, g.values(h.values(zs))),
            _seed_edges(points + h.knots(lo, hi), lo, hi),
            tol,
        )

    kind = "F-" if transient else "F"
    return cache._table((kind, eq, r, terms, env, tol), build)


def _sliding(eq, r, terms, env, cache, tol, a, b):
    """integral_a^b sum_{i in terms} p_i(z) K_r(h(z), tau_i(z)) dz, elementwise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    per = _sliding_table(eq, r, terms, env, cache, tol, False)
    if per.saturated:
        return np.where(b > a, math.inf, 0.0)
    x = np.stack([a, b])
    out = per.values(x)
    pre = x < env.t_stab
    if pre.any():
        tr = _sliding_table(eq, r, terms, env, cache, tol, True)
        if tr.saturated:
            return np.where(b > a, math.inf, 0.0)
        lo = tr.edges[0]
        if (x[pre] < lo).any():
            raise ValueError(
                f"the sliding envelope integral starts at {lo}; got a lower limit "
                f"of {x[pre].min()}"
            )
        # F(x) = F(t_stab) - integral_x^{t_stab}
        out[pre] = per.values(env.t_stab) - (tr.total - tr.within(x[pre]))
    return out[1] - out[0]


def _frozen(eq, r, terms, cache, tol, c, a, b):
    """integral_a^b sum_{i in terms} p_i(z) K_r(c, tau_i(z)) dz, elementwise."""
    a, b, c = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    )
    g = _level(eq, r - 1, cache, tol)

    def build():
        if g.saturated:
            return _Table()
        return _fit_table(
            lambda zs: _weighted_sum(eq, terms, g, zs, 0.0),
            _seed_edges(_kink_phases(eq, r, cache), 0.0, eq.period),
            tol,
        )

    w = cache._table(("W", eq, r, terms, None, tol), build)
    if w.saturated:
        return np.where(b > a, math.inf, 0.0)
    big_t = g.total
    (ka, kb), (wa, wb) = w.split(np.stack([a, b]))
    n = kb - ka
    # sum_{j=0}^{n-1} e^{-jT}: the periods between a and b
    geo = n if big_t == 0.0 else np.expm1(-n * big_t) / np.expm1(-big_t)
    # e^{k_a T} (W(b) - W(a)), as W(kP + u) = W_P geo(k) + e^{-kT} W(u); the
    # integral of a nonnegative function, so rounding below 0 is clipped
    inside = np.maximum(w.total * geo - wa + np.exp(-n * big_t) * wb, 0.0)
    # times e^{G(c) - k_a T}, saturating past float range
    expo = g.values(c) - ka * big_t
    with np.errstate(over="ignore", invalid="ignore"):
        out = inside * np.where(expo > _EXP_MAX, math.inf, np.exp(expo))
    return np.where(inside == 0.0, 0.0, out)


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
    """Kernel value K_r(t, s).  Reversed arguments give the reciprocal."""
    _check_depth(r)
    if not (math.isfinite(t) and math.isfinite(s)):
        raise ValueError(f"kernel arguments must be finite, got t={t}, s={s}")
    if t == s:
        return 1.0
    g = _level(eq, r - 1, cache if cache is not None else KernelCache(), tol)
    lo, hi = (s, t) if s < t else (t, s)
    expo = math.inf if g.saturated else float(g.values(hi) - g.values(lo))
    # deep kernels grow doubly exponentially in r; saturate past float range
    value = math.inf if expo > _EXP_MAX else math.exp(expo)
    return value if t >= s else 1.0 / value


def _resolve_env(eq, env):
    return env if env is not None else combined_envelope(eq)


def _times(t):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if (ts < 0.0).any():
        raise ValueError(f"envelope is defined for t >= 0, got {ts.min()}")
    return ts


def _as_output(values, t):
    return float(values[0]) if np.ndim(t) == 0 else values


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

    ``t`` may be an array of times; the result then has its shape.
    """
    _check_depth(r)
    env = _resolve_env(eq, env)
    cache = cache if cache is not None else KernelCache()
    ts = _times(t)
    out = _sliding(eq, r, tuple(range(eq.m)), env, cache, tol, env.values(ts), ts)
    return _as_output(out, t)


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

    ``t`` may be an array of times; the result then has its shape.
    """
    _check_depth(r)
    env = _resolve_env(eq, env)
    cache = cache if cache is not None else KernelCache()
    ts = _times(t)
    c = env.values(ts)
    return _as_output(_frozen(eq, r, tuple(range(eq.m)), cache, tol, c, c, ts), t)


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
    ``envelope_at`` when given.
    """
    _check_depth(r)
    if not 0 <= i < eq.m:
        raise ValueError(f"term index {i} out of range for m={eq.m}")
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")
    cache = cache if cache is not None else KernelCache()
    if envelope_at is None:
        env = _resolve_env(eq, env)
        return float(_sliding(eq, r, (i,), env, cache, tol, a, b))
    return float(_frozen(eq, r, (i,), cache, tol, envelope_at, a, b))
