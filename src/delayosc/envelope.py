"""Running suprema of non-monotone delay arguments, on one polyline toolkit.

A polyline is a pair of knot arrays ``(ts, ys)``: times in increasing
order and the values there, linear in between.  Every piecewise-linear
operation of the package works on this one format: evaluation
(``_eval``), the running maximum, the pointwise maximum of two
polylines, and the lattice preimages (the times where a polyline takes a
value ``phase + n * period``), which seed the kernel tables and give the
alpha and Kwong profile its knots alike.

For delay arguments tau_i(t) = t - d_i(t) that need not be monotone, the
envelope h(t) = sup_{0 <= s <= t} max_i tau_i(s) is nondecreasing and
eventually periodic in lag form: e(t) = t - h(t) repeats with the common
period from the second period onward (the running supremum only ever
looks one period back once a full period has been swept).  It is built
by one running maximum over the first two periods and stored as an
optional transient polyline on [0, t_stab) plus a periodic tail lag.
Below 0 the envelope takes its settled form, z - tail_lag(z), too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DelayEquation, PiecewisePeriodic, _merge_close, _piece, breakpoint_times

__all__ = [
    "EnvelopeFunction",
    "running_sup",
    "combined_envelope",
    "tau_max",
    "tau_min",
    "tau_max_polyline",
]

def _eval(poly, x):
    """The polyline at ``x``, elementwise; its end segments extend past its
    span."""
    ts, ys = poly
    j = _piece(ts, x)
    t0, t1, y0, y1 = ts[j], ts[j + 1], ys[j], ys[j + 1]
    flat = t1 == t0
    return np.where(flat, y0, y0 + (y1 - y0) * (x - t0) / np.where(flat, 1.0, t1 - t0))


def _closed(ts, a: float, b: float) -> np.ndarray:
    """The sorted times ``ts`` of [a, b], with ``a`` and ``b`` added where
    missing."""
    ts = np.asarray(ts, dtype=float)
    head = [a] if not ts.size or ts[0] > a else []
    tail = [b] if not ts.size or ts[-1] < b else []
    return np.concatenate([head, ts, tail])


def _canonical(poly):
    """Drop interior knots collinear with their neighbours, to 1e-13 of the
    three values: free of scale, with no product of time differences."""
    ts, ys = poly
    if ts.size <= 2:
        return poly
    t0, t1, t2 = ts[:-2], ts[1:-1], ts[2:]
    y0, y1, y2 = ys[:-2], ys[1:-1], ys[2:]
    interp = y0 + (y2 - y0) * ((t1 - t0) / (t2 - t0))
    keep = np.ones(ts.size, dtype=bool)
    keep[1:-1] = np.abs(interp - y1) > 1e-13 * np.abs([y0, y1, y2]).max(axis=0)
    return ts[keep], ys[keep]


def _tau_polyline(lag: PiecewisePeriodic, a: float, b: float):
    """Polyline of the delay argument t - lag(t) on [a, b]."""
    ts = _closed(breakpoint_times([lag], a, b), a, b)
    return ts, ts - lag.values(ts)


def _running_max(poly):
    """Running maximum of a polyline, again as a polyline: the maximum so
    far at each knot, plus the point where a segment rises across it."""
    ts, ys = poly
    m = np.maximum.accumulate(ys)
    ta, tb, ya, yb, mp = ts[:-1], ts[1:], ys[:-1], ys[1:], m[:-1]
    k = np.flatnonzero((ya < mp) & (yb > mp))
    if k.size:
        c = ta[k] + (mp[k] - ya[k]) * (tb[k] - ta[k]) / (yb[k] - ya[k])
        inside = c > ta[k]
        k, c = k[inside], c[inside]
        ts, m = np.insert(ts, k + 1, c), np.insert(m, k + 1, mp[k])
    return _canonical((ts, m))


def _max_overlay(p1, p2):
    """Pointwise maximum of two polylines over the same span."""
    ts = _merge_close(np.concatenate([p1[0], p2[0]]), 0.0)
    f, g = _eval(p1, ts), _eval(p2, ts)
    ys = np.maximum(f, g)
    d = f - g
    # the two lines cross strictly inside a cell where f - g changes sign
    k = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    if k.size:
        tp, t = ts[k], ts[k + 1]
        c = tp + (t - tp) * d[k] / (d[k] - d[k + 1])
        inside = (tp < c) & (c < t)
        k, c = k[inside], c[inside]
        ts, ys = np.insert(ts, k + 1, c), np.insert(ys, k + 1, _eval(p1, c))
    return _canonical((ts, ys))


def _lattice_preimages(poly, phases, period: float, cap: float | None = None):
    """Every time in the span of ``poly`` where it takes a value
    ``phase + n * period``, for a phase of ``phases`` and an integer n; or
    None when the candidates number more than ``cap``.  They are counted,
    over all segments, before any is built, so a refused set is never built.

    A flat segment is skipped, as a plateau's preimages are its ends, knots
    already; so is a segment whose time does not increase, so ``poly`` may
    chain several polylines over one span.
    """
    ts, ys = poly
    phases = np.asarray(phases, dtype=float)
    dz, dy = ts[1:] - ts[:-1], ys[1:] - ys[:-1]
    slope = dy / np.where(dz > 0.0, dz, 1.0)
    s = np.flatnonzero((dz > 0.0) & (np.abs(slope) >= 1e-13))
    z0, y0, z1, slope = ts[s], ys[s], ts[s + 1], slope[s]
    ylo, yhi = np.minimum(y0, ys[s + 1]), np.maximum(y0, ys[s + 1])
    # entry (s, q): the periods n0..n1 in which segment s meets phase q
    n0 = np.ceil((ylo[:, None] - phases) / period - 1e-12).ravel()
    n1 = np.floor((yhi[:, None] - phases) / period + 1e-12).ravel()
    counts = np.maximum(n1 - n0 + 1.0, 0.0)
    if cap is not None and counts.sum() > cap:
        return None
    counts = counts.astype(np.intp)
    pair = np.arange(counts.size).repeat(counts)
    s, q = np.divmod(pair, phases.size)
    # the candidates of a pair are n = n0, n0 + 1, ...
    n = n0[pair] + (np.arange(pair.size) - (counts.cumsum() - counts).repeat(counts))
    z = z0[s] + (phases[q] + n * period - y0[s]) / slope[s]
    z = z[(z0[s] - 1e-12 <= z) & (z <= z1[s] + 1e-12)]
    return np.minimum(np.maximum(z, ts[0]), ts[-1])


def _window_form(poly, w0: float, w1: float):
    """Polyline restricted to [w0, w1], shifted to start at 0."""
    ts, ys = poly
    inside = (w0 <= ts) & (ts < w1)
    t, y = ts[inside] - w0, ys[inside]
    y0, y1 = _eval(poly, np.array([w0, w1]))
    if not t.size or t[0] > 0.0:
        t, y = np.append(0.0, t), np.append(y0, y)
    return _canonical((np.append(t, w1 - w0), np.append(y, y1)))


@dataclass(frozen=True)
class EnvelopeFunction:
    """Nondecreasing envelope of a delay argument.

    ``h(t) = t - tail_lag(t)`` for ``t >= t_stab`` and for ``t < 0``; on
    ``[0, t_stab)`` the transient polyline applies, given as ``(t, y)``
    pairs so the envelope stays hashable (it keys the kernel tables).
    ``t_stab`` is 0 or one period.  Below 0 the lag form is periodic, so h
    never falls below max_i tau_i; h may drop at 0 when ``t_stab`` > 0, and
    is nondecreasing on each side of 0.
    """

    t_stab: float
    transient: tuple[tuple[float, float], ...]
    tail_lag: PiecewisePeriodic

    def __post_init__(self):
        nodes = np.asarray(self.transient, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "_transient", (nodes[:, 0], nodes[:, 1]))

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValueError(f"envelope is defined for t >= 0, got {t}")
        return float(self.values(t))

    def values(self, ts) -> np.ndarray:
        x = np.asarray(ts, dtype=float)
        out = x - self.tail_lag.values(x)
        if self.t_stab > 0.0:
            pre = (0.0 <= x) & (x < self.t_stab)
            if pre.any():
                out = np.array(out)
                out[pre] = _eval(self._transient, x[pre])
        return out[()]

    def knots(self, a: float, b: float) -> np.ndarray:
        """Kink locations of the envelope inside [a, b], sorted: the tail
        lag's breakpoints where h takes its settled form, below 0 and from
        t_stab on, and the transient's knots between."""
        tail = breakpoint_times([self.tail_lag], a, b)
        tt = self._transient[0]
        parts = [
            tail[(tail < 0.0) | (tail >= self.t_stab)],
            tt[(a <= tt) & (tt <= b)],
            [self.t_stab] if a <= self.t_stab <= b else [],
        ]
        return _merge_close(np.concatenate(parts), 0.0)

    def polyline(self, a: float, b: float):
        """The envelope on [a, b] as a polyline ``(ts, ys)``; [a, b] may not
        hold a drop at 0."""
        ts = _closed(self.knots(a, b), a, b)
        return ts, self.values(ts)


def _pairs(ts, ys) -> tuple[tuple[float, float], ...]:
    """The knots as hashable ``(t, y)`` pairs of floats."""
    return tuple(zip(ts.tolist(), ys.tolist()))


def _envelope_from_polyline(period: float, tau_poly) -> EnvelopeFunction:
    """Build the transient + periodic-tail form from a 2-period sweep of a
    delay argument, the polyline ``tau_poly``.

    Lags are periodic, so tau(s + P) = tau(s) + P.  Hence from P on, h(t)
    is the maximum of tau over [t - P, t], and its lag form t - h(t)
    repeats; it repeats from 0 on exactly when tau peaks over [0, P] at P,
    up to the rounding that ``_canonical`` allows.
    """
    h_poly = _running_max(tau_poly)
    ts, ys = h_poly
    first = np.append(tau_poly[1][tau_poly[0] <= period], _eval(tau_poly, period))
    t_stab = 0.0 if first.max() - first[-1] <= 1e-13 * np.abs(first).max() else period
    tail_ts, tail_ys = _window_form(_canonical((ts, ts - ys)), t_stab, t_stab + period)

    # final knot sits at t = period; it only restates continuity, so it is
    # dropped (the lag form of a running supremum is continuous)
    body = tail_ts < period
    tail = PiecewisePeriodic(period, _pairs(tail_ts[body], tail_ys[body]))
    transient = ()
    if t_stab > 0.0:
        # the transient polyline must close AT t_stab: a knot beyond it may
        # carry the segment that covers [last kept knot, t_stab)
        pre = ts < t_stab
        transient = _pairs(np.append(ts[pre], t_stab), np.append(ys[pre], _eval(h_poly, t_stab)))
    return EnvelopeFunction(t_stab=t_stab, transient=transient, tail_lag=tail)


def running_sup(lag: PiecewisePeriodic) -> EnvelopeFunction:
    """Envelope of the delay argument t - lag(t)."""
    period = lag.period
    return _envelope_from_polyline(period, _tau_polyline(lag, 0.0, 2.0 * period))


def combined_envelope(eq: DelayEquation) -> EnvelopeFunction:
    """Envelope of max_i tau_i, the pointwise maximum of the per-term
    envelopes: the running supremum of a maximum is the maximum of the
    running suprema."""
    period = eq.period
    return _envelope_from_polyline(period, tau_max_polyline(eq, 0.0, 2.0 * period))


def tau_max(eq: DelayEquation, t):
    """Largest delay argument at t (smallest lag), in the shape of ``t``."""
    x = np.asarray(t, dtype=float)
    out = x - np.min([d.values(x) for d in eq.lags], axis=0)
    return float(out) if out.ndim == 0 else out


def tau_min(eq: DelayEquation, t):
    """Smallest delay argument at t (largest lag), in the shape of ``t``."""
    x = np.asarray(t, dtype=float)
    out = x - np.max([d.values(x) for d in eq.lags], axis=0)
    return float(out) if out.ndim == 0 else out


def tau_max_polyline(eq: DelayEquation, a: float, b: float):
    """Polyline of max_i tau_i on [a, b], crossings inserted."""
    acc = _tau_polyline(eq.lags[0], a, b)
    for d in eq.lags[1:]:
        acc = _max_overlay(acc, _tau_polyline(d, a, b))
    return acc
