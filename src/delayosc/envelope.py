"""Running suprema of non-monotone delay arguments.

For a delay argument tau(t) = t - d(t) that need not be monotone, the
envelope h(t) = sup_{0 <= s <= t} tau(s) is nondecreasing and eventually
periodic in lag form: e(t) = t - h(t) repeats with the common period from
the second period onward (the running supremum only ever looks one period
back once a full period has been swept).  The envelope is stored as an
optional transient polyline on [0, t_stab) plus a periodic tail lag.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import DelayEquation, PiecewisePeriodic, breakpoint_times

__all__ = [
    "EnvelopeFunction",
    "running_sup",
    "combined_envelope",
    "tau_max",
    "tau_min",
    "tau_max_polyline",
]

# Two period windows of the lag form are considered identical when node times
# and values agree to this tolerance, relative to the windows' largest time or
# value (at least 1): they are differences of absolute times up to 3 periods.
_PERIODIC_TOL = 1e-12

# A polyline is a list of (t, y) nodes, linear in between, strictly
# increasing in t.


def _canonical(poly):
    """Drop interior nodes that are collinear with their neighbours."""
    if len(poly) <= 2:
        return list(poly)
    out = [poly[0]]
    for k in range(1, len(poly) - 1):
        t0, y0 = out[-1]
        t1, y1 = poly[k]
        t2, y2 = poly[k + 1]
        interp = y0 + (y2 - y0) * (t1 - t0) / (t2 - t0)
        if abs(interp - y1) > 1e-13 * max(1.0, abs(y1)):
            out.append(poly[k])
    out.append(poly[-1])
    return out


def _poly_eval(poly, t: float) -> float:
    ts = [p[0] for p in poly]
    j = bisect_right(ts, t) - 1
    j = min(max(j, 0), len(poly) - 2)
    t0, y0 = poly[j]
    t1, y1 = poly[j + 1]
    if t1 == t0:
        return y0
    return y0 + (y1 - y0) * (t - t0) / (t1 - t0)


def _tau_polyline(lag: PiecewisePeriodic, a: float, b: float):
    """Polyline of the delay argument t - lag(t) on [a, b]."""
    ts = breakpoint_times([lag], a, b)
    if not ts or ts[0] > a:
        ts.insert(0, a)
    if ts[-1] < b:
        ts.append(b)
    return [(t, t - lag(t)) for t in ts]


def _running_max(poly):
    """Running maximum of a polyline, again as a polyline."""
    t0, y0 = poly[0]
    out = [(t0, y0)]
    m = y0
    for (ta, ya), (tb, yb) in zip(poly, poly[1:]):
        if ya >= m and yb >= ya:
            # rising (or flat) above the old maximum
            out.append((tb, yb))
            m = yb
        elif yb <= m:
            # stays below: the maximum is flat here
            out.append((tb, m))
        else:
            # crosses the running maximum inside the segment
            c = ta + (m - ya) * (tb - ta) / (yb - ya)
            if c > out[-1][0]:
                out.append((c, m))
            out.append((tb, yb))
            m = yb
    return _canonical(out)


def _max_overlay(p1, p2):
    """Pointwise maximum of two polylines over the same span."""
    ts = sorted({t for t, _ in p1} | {t for t, _ in p2})
    nodes = []
    for t in ts:
        nodes.append((t, _poly_eval(p1, t), _poly_eval(p2, t)))
    out = []
    for k, (t, f, g) in enumerate(nodes):
        if k > 0:
            tp, fp, gp = nodes[k - 1]
            dp, dc = fp - gp, f - g
            if dp * dc < 0.0:
                # the two lines cross strictly inside the cell
                c = tp + (t - tp) * dp / (dp - dc)
                if tp < c < t:
                    out.append((c, _poly_eval(p1, c)))
        out.append((t, max(f, g)))
    return _canonical(out)


def _window_form(poly, w0: float, w1: float):
    """Nodes of a polyline restricted to [w0, w1), shifted to start at 0."""
    nodes = [(t - w0, y) for t, y in poly if w0 <= t < w1]
    if not nodes or nodes[0][0] > 0.0:
        nodes.insert(0, (0.0, _poly_eval(poly, w0)))
    return _canonical(nodes + [(w1 - w0, _poly_eval(poly, w1))])


def _windows_match(wa, wb) -> bool:
    if len(wa) != len(wb):
        return False
    tol = _PERIODIC_TOL * max(1.0, *(max(abs(t), abs(y)) for t, y in wa + wb))
    return all(
        abs(ta - tb) <= tol and abs(ya - yb) <= tol for (ta, ya), (tb, yb) in zip(wa, wb)
    )


@dataclass(frozen=True)
class EnvelopeFunction:
    """Nondecreasing envelope of a delay argument.

    ``h(t) = t - tail_lag(t)`` for ``t >= t_stab``; on ``[0, t_stab)`` the
    transient polyline applies.  ``t_stab`` is 0 or one period.
    """

    t_stab: float
    transient: tuple[tuple[float, float], ...]
    tail_lag: PiecewisePeriodic

    def __post_init__(self):
        nodes = np.asarray(self.transient, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "_transient_ts", nodes[:, 0])
        object.__setattr__(self, "_transient_ys", nodes[:, 1])

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValueError(f"envelope is defined for t >= 0, got {t}")
        if t < self.t_stab:
            return _poly_eval(list(self.transient), t)
        return t - self.tail_lag(t)

    def values(self, ts) -> np.ndarray:
        x = np.asarray(ts, dtype=float)
        out = x - self.tail_lag.values(x)
        if self.t_stab > 0.0:
            pre = x < self.t_stab
            if pre.any():
                out = np.array(out)
                out[pre] = self._transient_values(x[pre])
        return out[()]

    def _transient_values(self, x):
        """``_poly_eval`` of the transient polyline, elementwise."""
        ts, ys = self._transient_ts, self._transient_ys
        j = np.searchsorted(ts, x, side="right") - 1
        j = np.minimum(np.maximum(j, 0), len(ts) - 2)
        t0, t1, y0, y1 = ts[j], ts[j + 1], ys[j], ys[j + 1]
        flat = t1 == t0
        step = np.where(flat, 1.0, t1 - t0)
        return np.where(flat, y0, y0 + (y1 - y0) * (x - t0) / step)

    def knots(self, a: float, b: float) -> list[float]:
        """Kink locations of the envelope inside [a, b]."""
        out = {t for t, _ in self.transient if a <= t <= min(b, self.t_stab)}
        lo = max(a, self.t_stab)
        out.update(breakpoint_times([self.tail_lag], lo, b))
        if a <= self.t_stab <= b:
            out.add(self.t_stab)
        return sorted(out)

    def polyline(self, a: float, b: float):
        ts = self.knots(a, b)
        if not ts or ts[0] > a:
            ts.insert(0, a)
        if ts[-1] < b:
            ts.append(b)
        return [(t, self(t)) for t in ts]


def _envelope_from_polyline(period: float, h_poly) -> EnvelopeFunction:
    """Build the transient + periodic-tail form from a 3-period sweep of h."""
    e_poly = _canonical([(t, t - y) for t, y in h_poly])
    w0 = _window_form(e_poly, 0.0, period)
    w1 = _window_form(e_poly, period, 2.0 * period)
    w2 = _window_form(e_poly, 2.0 * period, 3.0 * period)
    if not _windows_match(w1, w2):
        raise ValueError(
            "lag form of the running supremum failed to settle after one period"
        )
    if _windows_match(w0, w1):
        t_stab = 0.0
        tail_nodes = w0
    else:
        t_stab = period
        tail_nodes = w1

    # final node sits at t = period; it only restates continuity, so it is
    # dropped unless it records a genuine closing value (it never does here:
    # the lag form of a running supremum is continuous)
    bps = [(t, y) for t, y in tail_nodes if t < period]
    tail = PiecewisePeriodic(period, tuple(bps))
    if t_stab > 0.0:
        # the transient polyline must close AT t_stab: a node beyond it may
        # carry the segment that covers [last kept node, t_stab)
        nodes = [p for p in h_poly if p[0] < t_stab]
        nodes.append((t_stab, _poly_eval(h_poly, t_stab)))
        transient = tuple(nodes)
    else:
        transient = ()
    return EnvelopeFunction(t_stab=t_stab, transient=transient, tail_lag=tail)


def running_sup(lag: PiecewisePeriodic) -> EnvelopeFunction:
    """Envelope of the delay argument t - lag(t)."""
    period = lag.period
    tau_poly = _tau_polyline(lag, 0.0, 3.0 * period)
    h_poly = _running_max(tau_poly)
    return _envelope_from_polyline(period, h_poly)


def combined_envelope(eq: DelayEquation) -> EnvelopeFunction:
    """Pointwise maximum of the per-term envelopes."""
    period = eq.period
    polys = [running_sup(d).polyline(0.0, 3.0 * period) for d in eq.lags]
    acc = polys[0]
    for p in polys[1:]:
        acc = _max_overlay(acc, p)
    return _envelope_from_polyline(period, acc)


def tau_max(eq: DelayEquation, t: float) -> float:
    """Largest delay argument at t (smallest lag)."""
    return t - min(d(t) for d in eq.lags)


def tau_min(eq: DelayEquation, t: float) -> float:
    """Smallest delay argument at t (largest lag)."""
    return t - max(d(t) for d in eq.lags)


def tau_max_values(eq: DelayEquation, ts) -> np.ndarray:
    x = np.asarray(ts, dtype=float)
    lag_min = eq.lags[0].values(x)
    for d in eq.lags[1:]:
        lag_min = np.minimum(lag_min, d.values(x))
    return x - lag_min


def tau_max_polyline(eq: DelayEquation, a: float, b: float):
    """Polyline of max_i tau_i on [a, b], crossings inserted."""
    acc = _tau_polyline(eq.lags[0], a, b)
    for d in eq.lags[1:]:
        acc = _max_overlay(acc, _tau_polyline(d, a, b))
    return acc
