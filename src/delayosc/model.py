"""Periodic piecewise-linear functions and the delay equation container.

Everything downstream works with one representation: a periodic function
given by breakpoints over a single period plus a constant offset.  Both the
coefficients and the lags of the delay equation

    x'(t) + sum_i p_i(t) * x(t - d_i(t)) = 0,   t >= 0

are stored this way (lags d_i, so the delay argument is tau_i(t) = t - d_i(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PiecewisePeriodic", "DelayEquation", "breakpoint_times", "phase_lattice"]

# Lags have to close up continuously at the wrap point; a mismatch above this
# is rejected.  Coefficients may jump there (sawtooth and piecewise-constant
# profiles are legitimate).
WRAP_TOL = 1e-12
# the criteria's default accuracy; here, so the CLI's options load no engine
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class PiecewisePeriodic:
    """Periodic piecewise-linear function  f(t) = interp(t mod period) + offset.

    ``breakpoints`` is a sequence of (t_j, v_j) pairs with
    0 = t_0 < t_1 < ... <= period.  On [t_j, t_{j+1}) the value is the linear
    interpolant between consecutive pairs.  The last segment runs to
    (period, v_0) unless a closing pair with t == period is given explicitly,
    which pins the left limit at the wrap point instead; that is how jump
    discontinuities are written down.  The value AT the wrap point is always
    v_0, so breakpoint evaluation is exact.
    """

    period: float
    breakpoints: tuple[tuple[float, float], ...]
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "period", float(self.period))
        object.__setattr__(self, "offset", float(self.offset))
        bps = tuple((float(t), float(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)

        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")
        if not bps:
            raise ValueError("breakpoints must be non-empty")
        for t, v in bps:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError(f"non-finite breakpoint ({t}, {v})")
        if bps[0][0] != 0.0:
            raise ValueError(f"first breakpoint must sit at t=0, got t={bps[0][0]}")
        for (a, _), (b, _) in zip(bps, bps[1:]):
            if not b > a:
                raise ValueError(
                    f"breakpoint times must be strictly increasing, got {a} then {b}"
                )
        if bps[-1][0] > self.period:
            raise ValueError(
                f"breakpoint t={bps[-1][0]} lies beyond the period {self.period}"
            )

        # Knot arrays covering the closed period [0, period].  A trailing pair
        # at t == period, when present, supplies the closing value; otherwise
        # the last segment interpolates back to v_0 (continuous wraparound).
        if bps[-1][0] == self.period and len(bps) == 1:
            raise ValueError("a lone breakpoint cannot sit at t=period")
        ts = [t for t, _ in bps]
        vs = [v for _, v in bps]
        if bps[-1][0] != self.period:
            ts.append(self.period)
            vs.append(bps[0][1])

        ts_arr = np.asarray(ts, dtype=float)
        vs_arr = np.asarray(vs, dtype=float)
        seg_len = np.diff(ts_arr)
        slopes = np.diff(vs_arr) / seg_len
        # exact running integral of the interpolant at each knot
        seg_int = 0.5 * (vs_arr[:-1] + vs_arr[1:]) * seg_len
        cum = np.concatenate(([0.0], np.cumsum(seg_int)))

        object.__setattr__(self, "_ts", ts_arr)
        object.__setattr__(self, "_vs", vs_arr)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_period_integral", float(cum[-1]))
        object.__setattr__(self, "_nseg", len(ts) - 1)
        object.__setattr__(self, "_interior_times", tuple(ts[:-1]))

    # -- basic queries -----------------------------------------------------

    @property
    def wrap_jump(self) -> float:
        """Jump at the wrap point: f(period-) minus f(period)."""
        return float(self._vs[-1] - self._vs[0])

    @property
    def min_value(self) -> float:
        """Minimum over one period (attained at a knot: pieces are linear)."""
        return float(self._vs.min()) + self.offset

    @property
    def max_value(self) -> float:
        return float(self._vs.max()) + self.offset

    @property
    def max_slope(self) -> float:
        return float(self._slopes.max())

    @property
    def interior_times(self) -> tuple[float, ...]:
        """Breakpoint times inside [0, period), wrap-closing pair excluded."""
        return self._interior_times

    # -- evaluation --------------------------------------------------------

    def __call__(self, t: float) -> float:
        return float(self.values(t))

    def values(self, ts) -> np.ndarray:
        """Vectorised evaluation."""
        u = self._phase(ts)
        j = self._segment(u)
        return self._vs[j] + self._slopes[j] * (u - self._ts[j]) + self.offset

    def slopes(self, ts) -> np.ndarray:
        """Vectorised slope of the segment holding each time; at a
        breakpoint, the segment to its right."""
        u = self._phase(ts)
        return np.zeros_like(u) + self._slopes[self._segment(u)]

    def _phase(self, ts):
        """Each time mod the period, in [0, period)."""
        u = np.mod(np.asarray(ts, dtype=float), self.period)
        return np.where(u >= self.period, u - self.period, u)

    def _segment(self, u):
        """Segment index of each phase ``u`` in [0, period); the scalar 0,
        without a search, when there is only one segment."""
        return 0 if self._nseg == 1 else _piece(self._ts, u)

    # -- exact integration -------------------------------------------------

    def antiderivative(self, ts) -> np.ndarray:
        """Vectorised exact antiderivative  x -> integral of f over [0, x]."""
        x = np.asarray(ts, dtype=float)
        k = np.floor(x / self.period)
        u = x - k * self.period
        low = u < 0.0
        if low.any():
            u = np.where(low, u + self.period, u)
            k = np.where(low, k - 1.0, k)
        high = u >= self.period
        if high.any():
            u = np.where(high, u - self.period, u)
            k = np.where(high, k + 1.0, k)
        j = self._segment(u)
        du = u - self._ts[j]
        part = self._cum[j] + (self._vs[j] + 0.5 * self._slopes[j] * du) * du
        return k * self._period_integral + part + self.offset * x


@dataclass(frozen=True)
class DelayEquation:
    """Coefficients p_i and lags d_i sharing one period.

    Admissibility is enforced on construction: coefficients are nonnegative,
    lags are strictly positive and continuous (including at the wrap point),
    and all functions share the same period exactly.
    """

    coefficients: tuple[PiecewisePeriodic, ...]
    lags: tuple[PiecewisePeriodic, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        object.__setattr__(self, "lags", tuple(self.lags))
        if not self.coefficients:
            raise ValueError("at least one coefficient/lag pair is required")
        if len(self.coefficients) != len(self.lags):
            raise ValueError(
                f"got {len(self.coefficients)} coefficients but {len(self.lags)} lags"
            )
        period = self.coefficients[0].period
        for i, c in enumerate(self.coefficients):
            if c.period != period:
                raise ValueError(
                    f"coefficients[{i}]: period {c.period} differs from {period}"
                )
            if c.min_value < 0.0:
                raise ValueError(
                    f"coefficients[{i}]: negative value {c.min_value} over a period"
                )
        for i, d in enumerate(self.lags):
            if d.period != period:
                raise ValueError(f"lags[{i}]: period {d.period} differs from {period}")
            if not d.min_value > 0.0:
                raise ValueError(
                    f"lags[{i}]: lag must stay positive, minimum over a period is "
                    f"{d.min_value}"
                )
            if abs(d.wrap_jump) > WRAP_TOL:
                raise ValueError(
                    f"lags[{i}]: discontinuous at the wrap point "
                    f"(jump {d.wrap_jump:.3e}); lags must be continuous"
                )
        # the equation keys every kernel-table lookup: hash its fields once
        object.__setattr__(self, "_hash", hash((self.coefficients, self.lags)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.coefficients)

    @property
    def period(self) -> float:
        return self.coefficients[0].period

    @property
    def min_lag(self) -> float:
        return min(d.min_value for d in self.lags)

    @property
    def max_lag(self) -> float:
        return max(d.max_value for d in self.lags)

    # -- exact integral of the coefficient sum ------------------------------

    def coeff_sum_antiderivative(self, ts) -> np.ndarray:
        out = self.coefficients[0].antiderivative(ts)
        for c in self.coefficients[1:]:
            out = out + c.antiderivative(ts)
        return out


def _piece(edges, x):
    """The piece of the sorted ``edges`` that holds each ``x``: the last edge
    at or below it, so the end pieces extend past the span."""
    # np.minimum/np.maximum: np.clip's wrapper costs more than the search
    return np.minimum(np.maximum(np.searchsorted(edges, x, side="right") - 1, 0), len(edges) - 2)


def _merge_close(values, tol: float) -> np.ndarray:
    """The sorted values, each dropped when within ``tol`` of the one before
    it; ``tol = 0`` drops repeats (np.unique would import numpy.ma)."""
    v = np.sort(np.asarray(values, dtype=float))
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] - v[:-1] > tol
    return v[keep]


def phase_lattice(funcs) -> np.ndarray:
    """The breakpoint phases in [0, period) of the periodic functions
    ``funcs``: their ``interior_times``, sorted and distinct."""
    return _merge_close(np.concatenate([f.interior_times for f in funcs]), 0.0)


def breakpoint_times(funcs, a: float, b: float) -> np.ndarray:
    """All absolute times in [a, b] where any of the periodic functions, of
    one period, has a breakpoint (the periodic lattice k*period + t_j), sorted
    and distinct.  Each phase's k*period + t_j at or below ``a`` is stepped by
    the period in sequence, the same floats as a loop would give."""
    period = funcs[0].period
    phases = phase_lattice(funcs)
    first = np.floor((a - phases) / period) * period + phases
    steps = int(np.ceil((b - first.min()) / period)) + 2
    ts = np.full((phases.size, max(steps, 1)), period)
    ts[:, 0] = first
    np.add.accumulate(ts, axis=1, out=ts)
    return _merge_close(ts[(ts >= a) & (ts <= b)], 0.0)
