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
below ``tol / 100``, bisected otherwise).  Every table of an equation is
seeded from one set of kink phases, the breakpoint lattice and its delay
preimages, one level deep:

    G_L  of g_L(z) = sum_i p_i(z) K_L(z, tau_i(z)), one period;
         K_r(t, s) = exp(G_{r-1}(t) - G_{r-1}(s)), G_0 exact
    F    of the sliding integrand, one period past env.t_stab plus one
         non-periodic piece below it; sliding = F(b) - F(a)
    W    of w(z) = sum_i p_i(z) exp(-G_{r-1}(tau_i(z))), one period, as
         w(z + P) = e^{-T} w(z); frozen = e^{G_{r-1}(c)} (W(b) - W(a))

The settled F and W differ only in the base of the exponent, G_{r-1}(h(z))
or 0, so they are fitted together on F's seeds: one set of samples, one
set of pieces, W keyed by the envelope like F; their seeds add the phases
where h(z) hits the lattice.  Both kinds of preimage come from the
polyline toolkit in ``envelope``: ``_lattice_preimages``, the routine that
also puts the preimages of the coefficient lattice into the criteria's
scan grids.  Kernel exponents past 709 saturate to +inf (reciprocals to
0.0), and so does every integral over a table whose integrand overflows;
each table saturates on its own.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .envelope import EnvelopeFunction, _lattice_preimages, _tau_polyline, combined_envelope
from .model import DelayEquation, _merge_close, phase_lattice

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
# A piece is kept once its trailing coefficients fall below tol / _TAIL_DIV:
# across a break of a higher derivative, which the seeds do not hold, the
# tail understates a piece's error (at the default tol the sloped-lag oracle
# case is off by 8e-11 with tol / 10, by 1e-12 with tol / 100)
_TAIL_DIV = 100.0
# delay preimages past which the seeds are the breakpoint lattice alone, the
# tail rule then bisecting to the kinks they miss
_MAX_KINKS = 20000
_EXP_MAX = 709.0


class KernelCache:
    """Antiderivative tables keyed by (kind, equation, level, terms, envelope,
    tol), plus the one set of kink phases per equation that seeds them all
    (the breakpoint lattice alone when its delay preimages would pass
    _MAX_KINKS).  The settled sliding table F and the frozen table W of a
    level are fitted together, so they share F's pieces and one entry, keyed
    by the envelope.

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


def _fit_table(f, edges, tol: float) -> list[_Table]:
    """Antiderivative tables of ``k`` integrands over [edges[0], edges[-1]],
    on common pieces.

    ``f`` maps an array of n points to a (k, n) array of values, one row per
    integrand.  Each piece between ``edges`` is interpolated in _CHEB_DEG + 1
    Chebyshev points and kept once the two trailing coefficients of every
    row fall below ``tol / _TAIL_DIV`` (or the rounding floor); otherwise it
    is bisected, at most _MAX_BISECT times and while the tables stay within
    _MAX_PIECES pieces.  This is chebfun's splitting rule (Pachon, Platte &
    Trefethen, IMA J. Numer. Anal. 30 (2010); Trefethen, ATAP ch. 3 and 8).
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
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f(pts.ravel())
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
        if depth == _MAX_BISECT or pieces + 2 * int((~keep).sum()) > _MAX_PIECES:
            keep[:] = True
        kept_lo.append(los[keep])
        kept_hi.append(his[keep])
        kept_c.append(c[:, keep])
        if keep.all():
            break
        split = ~keep
        los = np.concatenate([los[split], mids[split]])
        his = np.concatenate([mids[split], his[split]])

    lo = np.concatenate(kept_lo)
    order = np.argsort(lo)
    lo = lo[order]
    hi = np.concatenate(kept_hi)[order]
    c = np.concatenate(kept_c, axis=1)[:, order]
    coef = cheb.chebint(c, lbnd=-1.0, axis=2) * (0.5 * (hi - lo))[:, None]
    edges = np.append(lo, hi[-1])
    tables = []
    for cj, saturated in zip(coef, dead):
        # a one-row fit's memory layout, so numpy sums each row in its order
        cj = np.asfortranarray(cj)
        cum = np.concatenate([[0.0], np.cumsum(cj.sum(axis=1))])  # T_k(1) = 1
        ok = not saturated and math.isfinite(cum[-1])
        tables.append(_Table(edges, cj, cum) if ok else _Table())
    return tables


# -- kink phases that seed the tables -------------------------------------------


def _seed_edges(points, lo: float, hi: float) -> np.ndarray:
    inner = _merge_close(points)
    inner = inner[(lo + 1e-9 < inner) & (inner < hi - 1e-9)]
    return np.concatenate([[lo], inner, [hi]])


def _preimage_phases(lags, period: float, phases):
    """All z in [0, P) where some z - lag(z) hits a phase of ``phases`` mod P,
    or None when the candidates number more than _MAX_KINKS; the delay
    arguments of ``lags`` over one period, chained into one polyline, go
    through one ``_lattice_preimages`` call, so the cap counts them all."""
    polys = [_tau_polyline(lag, 0.0, period) for lag in lags]
    chain = tuple(np.concatenate(part) for part in zip(*polys))
    z = _lattice_preimages(chain, phases, period, _MAX_KINKS)
    return None if z is None else z[z < period]


def _with_preimages(lags, period: float, phases) -> np.ndarray:
    """``phases`` and their delay preimages under ``lags``, or ``phases``
    alone when the preimages would pass _MAX_KINKS."""
    pre = _preimage_phases(lags, period, phases)
    return phases if pre is None else np.concatenate([phases, pre])


def _kink_phases(eq: DelayEquation, cache: KernelCache) -> np.ndarray:
    """The seed phases of every table of ``eq``: the breakpoint lattice and
    its delay preimages.  A level integrand g_L jumps only where a
    coefficient jumps, at a lattice point, so the first derivative of
    G_L(tau_i(z)) breaks only where tau_i(z) hits the lattice; deeper
    preimages break a higher derivative, left to the tail rule."""
    funcs = eq.coefficients + eq.lags
    return cache._table(
        ("kinks", eq),
        lambda: _merge_close(_with_preimages(eq.lags, eq.period, phase_lattice(funcs))),
    )


# -- the tables ---------------------------------------------------------------


def _weighted_sums(eq: DelayEquation, terms, level, zs, bases):
    """Row k: the sum over ``terms`` of p_i(z) * exp(bases[k] - G(tau_i(z))),
    G = ``level``; ``bases`` is a (k, n) array."""
    acc = 0.0
    for i in terms:
        tau = zs - eq.lags[i].values(zs)
        acc = acc + eq.coefficients[i].values(zs) * np.exp(bases - level.values(tau))
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
            lambda zs: _weighted_sums(eq, range(eq.m), prev, zs, prev.values(zs)[None]),
            _seed_edges(_kink_phases(eq, cache), 0.0, eq.period),
            tol,
        )[0]

    return cache._table(("G", eq, level, None, None, tol), build)


def _sliding_table(eq, r, terms, env, cache, tol, transient: bool) -> list[_Table]:
    """``[F, W]``, fitted together over one period of the settled envelope,
    or (``transient``) ``[F]`` over [min(h(0), 0), t_stab) where the
    envelope has not settled yet."""
    period = eq.period

    def build():
        g = _level(eq, r - 1, cache, tol)
        if g.saturated:
            return [_Table()] if transient else [_Table(), _Table()]
        kinks = _kink_phases(eq, cache)
        if transient:
            h, lo, hi = env, min(env(0.0), 0.0), env.t_stab
            k0, k1 = math.floor(lo / period), math.ceil(hi / period)
            points = (kinks[None, :] + np.arange(k0, k1)[:, None] * period).ravel()

            def f(zs):
                return _weighted_sums(eq, terms, g, zs, g.values(h.values(zs))[None])

        else:
            # the settled envelope, continued periodically
            h, lo, hi = EnvelopeFunction(0.0, (), env.tail_lag), 0.0, period
            # h(z) = z - tail_lag(z) hits the lattice at its preimages
            lattice = phase_lattice(eq.coefficients + eq.lags)
            tail = _with_preimages([env.tail_lag], period, lattice)
            points = np.concatenate([kinks, tail])

            def f(zs):
                # F's integrand and W's, exp(0.0 - G(tau_i)), on one lookup
                bases = np.zeros((2, zs.size))
                bases[0] = g.values(h.values(zs))
                return _weighted_sums(eq, terms, g, zs, bases)

        edges = _seed_edges(np.concatenate([points, h.knots(lo, hi)]), lo, hi)
        return _fit_table(f, edges, tol)

    kind = "F-" if transient else "F"
    return cache._table((kind, eq, r, terms, env, tol), build)


def _sliding(eq, r, terms, env, cache, tol, a, b):
    """integral_a^b sum_{i in terms} p_i(z) K_r(h(z), tau_i(z)) dz, elementwise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    per = _sliding_table(eq, r, terms, env, cache, tol, False)[0]
    if per.saturated:
        return np.where(b > a, math.inf, 0.0)
    x = np.stack([a, b])
    out = per.values(x)
    pre = x < env.t_stab
    if pre.any():
        (tr,) = _sliding_table(eq, r, terms, env, cache, tol, True)
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


def _frozen(eq, r, terms, env, cache, tol, c, a, b):
    """integral_a^b sum_{i in terms} p_i(z) K_r(c, tau_i(z)) dz, elementwise;
    W is the one fitted with the sliding table of ``env``."""
    a, b, c = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    )
    w = _sliding_table(eq, r, terms, env, cache, tol, False)[1]
    if w.saturated:
        return np.where(b > a, math.inf, 0.0)
    g = _level(eq, r - 1, cache, tol)
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
    """Kernel value K_r(t, s).  Reversed arguments give the reciprocal.

    ``t`` and ``s`` may be arrays; the result then has their broadcast shape.
    """
    _check_depth(r)
    ts, ss = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in (t, s)))
    if not (np.isfinite(ts).all() and np.isfinite(ss).all()):
        raise ValueError(f"kernel arguments must be finite, got t={t}, s={s}")
    g = _level(eq, r - 1, cache if cache is not None else KernelCache(), tol)
    lo, hi = np.minimum(ts, ss), np.maximum(ts, ss)
    expo = np.full(lo.shape, math.inf) if g.saturated else g.values(hi) - g.values(lo)
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


def _criterion(eq, r, kind, env, cache, tol):
    """The vectorised criterion integral ``ts -> integral_{h(t)}^t``, times
    past 0, over the tables of ``env`` (built when None): the sliding
    envelope h(z) for ``kind`` "inner", the envelope frozen at h(t) for
    "outer"."""
    if kind not in ("inner", "outer"):
        raise ValueError(f"kind must be 'inner' or 'outer', got {kind!r}")
    _check_depth(r)
    env = env if env is not None else combined_envelope(eq)
    cache = cache if cache is not None else KernelCache()
    terms = tuple(range(eq.m))

    def f(ts):
        h = env.values(ts)
        if kind == "inner":
            return _sliding(eq, r, terms, env, cache, tol, h, ts)
        return _frozen(eq, r, terms, env, cache, tol, h, h, ts)

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

    ``t`` may be an array of times; the result then has its shape.
    """
    return _as_output(_criterion(eq, r, "inner", env, cache, tol)(_times(t)), t)


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
    return _as_output(_criterion(eq, r, "outer", env, cache, tol)(_times(t)), t)


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
    built when not given.
    """
    _check_depth(r)
    if not 0 <= i < eq.m:
        raise ValueError(f"term index {i} out of range for m={eq.m}")
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")
    cache = cache if cache is not None else KernelCache()
    env = env if env is not None else combined_envelope(eq)
    if envelope_at is None:
        return float(_sliding(eq, r, (i,), env, cache, tol, a, b))
    return float(_frozen(eq, r, (i,), env, cache, tol, envelope_at, a, b))
