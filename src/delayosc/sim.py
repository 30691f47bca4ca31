"""Method-of-steps integration and empirical checks of the kernel bounds.

The right-hand side x'(t) = -sum_i p_i(t) x(tau_i(t)) does not involve the
current value x(t), so the classic RK4 step collapses to Simpson's rule on
the derivative (the two middle stages coincide).  Delayed values are read
from the stored past with cubic Hermite interpolation.

Since tau_i(t) <= t - min_lag, the stages of the B = max(1, floor(min_lag /
h) - 1) steps from step k0 on read only steps up to k0 (Bellen & Zennaro,
*Numerical Methods for Delay Differential Equations*, 2003, ch. 3).  So a
block of B steps is computed as arrays, and x advances over it by a
sequential ``np.add.accumulate``: the same additions in the same order as
one step at a time.  Each block costs a fixed number of numpy calls, so a
lag of a few steps costs more per step than a long one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import DelayEquation

if TYPE_CHECKING:
    from .kernel import KernelCache

__all__ = [
    "History",
    "Trajectory",
    "integrate",
    "count_sign_changes",
    "KernelBoundReport",
    "EnvelopeRatioReport",
    "check_kernel_bound",
    "check_envelope_ratio",
]

# steps whose x-independent stage data are prepared at once, rounded to
# whole blocks, so their memory stays bounded on long runs
_CHUNK_STEPS = 1024


@dataclass(frozen=True)
class History:
    """Initial data on (-inf, 0] (or [times[0], 0] when tabulated)."""

    kind: str
    level: float = 1.0
    rate: float = 0.0
    times: tuple[float, ...] = ()
    samples: tuple[float, ...] = ()

    def __post_init__(self):
        values = (self.level, self.rate, *self.times, *self.samples)
        bad = [x for x in values if not math.isfinite(x)]
        if bad:
            raise ValueError(f"the {self.kind} history needs finite values, got {bad[0]}")

    @classmethod
    def constant(cls, level: float = 1.0) -> "History":
        return cls(kind="constant", level=float(level))

    @classmethod
    def exponential(cls, rate: float) -> "History":
        """x(t) = exp(-rate * t) for t <= 0."""
        return cls(kind="exponential", rate=float(rate))

    @classmethod
    def tabulated(cls, times, samples) -> "History":
        ts = tuple(float(t) for t in times)
        xs = tuple(float(x) for x in samples)
        if len(ts) != len(xs):
            raise ValueError("times and samples must have equal length")
        if len(ts) < 2:
            raise ValueError("a tabulated history needs at least two samples")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("tabulated history times must be strictly increasing")
        if ts[-1] < 0.0:
            raise ValueError("tabulated history must extend to t = 0")
        return cls(kind="tabulated", times=ts, samples=xs)

    @property
    def start(self) -> float:
        return self.times[0] if self.kind == "tabulated" else -math.inf

    def __call__(self, t: float) -> float:
        return float(self.values(t))

    def values(self, ts) -> np.ndarray:
        """Vectorised evaluation."""
        t = np.asarray(ts, dtype=float)
        if self.kind == "constant":
            return np.full(t.shape, self.level)
        if self.kind == "exponential":
            return np.exp(-self.rate * t)
        if t.size and t.min() < self.times[0] - 1e-12:
            raise ValueError(
                f"history lookup at t={t.min()} precedes the tabulated start "
                f"{self.times[0]}: insufficient history extent"
            )
        return np.interp(t, self.times, self.samples)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution with derivative values for dense output."""

    h_step: float
    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    history: History
    sign_changes: tuple[tuple[float, float], ...]

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def __call__(self, t: float) -> float:
        return float(self.at(t))

    def at(self, ts) -> np.ndarray:
        """Dense evaluation: history for t <= 0, cubic Hermite inside steps."""
        t = np.asarray(ts, dtype=float)
        if t.size and t.max() > self.times[-1] + 1e-12:
            raise ValueError(f"lookup at t={t.max()} beyond trajectory end {self.times[-1]}")
        plan = _lookup_plan(t, len(self.times) - 2, self.h_step, self.history)
        return _dense(plan, self.values, self.derivs)


def _lookup_plan(theta, jmax, h, history):
    """What a dense lookup at ``theta`` needs that does not depend on the
    solution: the points with theta <= 0 and their history values (None
    when there are none), the step j = int(theta / h) clamped per point to
    ``jmax``, and the cubic Hermite weights of x_j, x'_j, x_{j+1}, x'_{j+1}
    stacked on a leading axis."""
    past = theta <= 0.0
    hist = history.values(np.minimum(theta, 0.0)) if past.any() else None
    j = np.maximum(np.minimum((theta / h).astype(np.intp), jmax), 0)
    s = (theta - j * h) / h
    s2 = s * s
    s3 = s2 * s
    h00, h01 = 2.0 * s3 - 3.0 * s2 + 1.0, -2.0 * s3 + 3.0 * s2
    w = np.stack((h00, (s3 - 2.0 * s2 + s) * h, h01, (s3 - s2) * h))
    return past, hist, j, w


def _dense(plan, xs, ds):
    """The solution at a plan's points, from its values and derivatives."""
    past, hist, j, (w0, w1, w2, w3) = plan
    y = w0 * xs[j] + w1 * ds[j] + w2 * xs[j + 1] + w3 * ds[j + 1]
    return y if hist is None else np.where(past, hist, y)


def _stages(eq, t, jmax, h, history):
    """The coefficients at the stage times ``t`` and the lookup plan of the
    delayed arguments there, one row per term."""
    p = np.array([c.values(t) for c in eq.coefficients])
    theta = np.array([t - d.values(t) for d in eq.lags])
    return p, _lookup_plan(theta, jmax, h, history)


def _rhs(p, plan, xs, ds):
    """x' = -sum_i p_i x(tau_i), summed term by term from 0.0."""
    acc = 0.0
    for p_i, x_i in zip(p, _dense(plan, xs, ds)):
        acc = acc + p_i * x_i
    return -acc


def integrate(
    eq: DelayEquation, history: History, t_end: float, h_step: float
) -> Trajectory:
    """Integrate forward from 0 to t_end with uniform step h_step; raises
    ValueError at the first time where x leaves the double range."""
    if not h_step > 0.0:
        raise ValueError(f"h_step must be positive, got {h_step}")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    d_min = eq.min_lag
    if h_step >= d_min:
        raise ValueError(
            f"h_step {h_step} must be smaller than the smallest lag {d_min}; "
            "delayed lookups would hit the step being computed"
        )
    if history.start > -eq.max_lag:
        raise ValueError(
            f"history starts at {history.start} but the equation looks back "
            f"{eq.max_lag}: insufficient history extent"
        )

    n = int(round(t_end / h_step))
    if abs(n * h_step - t_end) > 1e-9 * t_end:
        n = int(math.ceil(t_end / h_step - 1e-12))
    h = h_step
    block = max(1, math.floor(d_min / h) - 1)
    chunk = block * max(1, _CHUNK_STEPS // block)

    # an overflow is reported below, by the first time x is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.zeros(n + 1)
        ds = np.zeros(n + 1)
        xs[0] = history(0.0)
        ds[0] = _rhs(*_stages(eq, np.zeros(1), -1, h, history), xs, ds)[0]
        for c0 in range(0, n, chunk):
            c1 = min(c0 + chunk, n)
            # Simpson's rule (RK4 with k2 == k3): step k's stages sit at
            # t_k + h/2 and t_k + h, and their lookups read steps up to k
            t = h * np.arange(c0, c1)
            stage_t = np.stack((t + 0.5 * h, t + h))
            p, plan = _stages(eq, stage_t, np.arange(c0 - 1, c1 - 1), h, history)
            for k0 in range(c0, c1, block):
                k1 = min(k0 + block, c1)
                cut = np.s_[..., k0 - c0 : k1 - c0]
                part = tuple(a if a is None else a[cut] for a in plan)
                fm, f1 = _rhs(p[cut], part, xs, ds)
                ds[k0 + 1 : k1 + 1] = f1
                dx = (h / 6.0) * (ds[k0:k1] + 4.0 * fm + f1)
                # x_{k+1} = x_k + dx_k, added in sequence from x_{k0}
                dx[0] += xs[k0]
                np.add.accumulate(dx, out=xs[k0 + 1 : k1 + 1])

    times = h * np.arange(n + 1)
    bad = np.flatnonzero(~np.isfinite(xs))
    if bad.size:
        raise ValueError(f"the solution leaves the double range at t={times[bad[0]]}")
    return Trajectory(
        h_step=h,
        times=times,
        values=xs,
        derivs=ds,
        history=history,
        sign_changes=_detect_sign_changes(times, xs),
    )


def _detect_sign_changes(times, values):
    """Strict alternations between samples; exact zeros count once per run."""
    zero = values == 0.0
    event = zero.copy()
    event[1:] &= ~zero[:-1]
    sign = np.sign(values)  # a product of the values themselves may overflow
    event[1:] |= sign[:-1] * sign[1:] < 0.0
    k = np.flatnonzero(event)
    lo = times[np.where(zero[k], k, k - 1)]
    return tuple(zip(lo.tolist(), times[k].tolist()))


def count_sign_changes(traj: Trajectory, window=None) -> int:
    """Number of sign changes whose bracket lies inside the window."""
    if window is None:
        return len(traj.sign_changes)
    a, b = window
    if a < -1e-12 or b > traj.t_end + 1e-12:
        raise ValueError(f"window [{a}, {b}] outside trajectory span [0, {traj.t_end}]")
    return sum(1 for lo, hi in traj.sign_changes if lo >= a and hi <= b)


@dataclass(frozen=True)
class KernelBoundReport:
    r: int
    pairs_checked: int
    max_violation: float
    max_relative_violation: float
    tolerance: float
    flagged_pairs: tuple[tuple[float, float], ...]

    @property
    def ok(self) -> bool:
        return self.max_relative_violation <= self.tolerance


def check_kernel_bound(
    eq: DelayEquation,
    traj: Trajectory,
    r: int,
    sample_pairs,
    *,
    tol: float = 1e-5,
    cache: KernelCache | None = None,
) -> KernelBoundReport:
    """Test the decay bound x(t) * K_r(t, s) <= x(s) on sample pairs (s, t).

    The premise needs a positive solution; a non-positive sample raises, and
    so does an empty set of pairs.  Violations are measured relative to x(s)
    and flagged beyond ``tol``.
    """
    from .kernel import decay_kernel  # imported here: `integrate` needs no engine
    pairs = np.asarray(sample_pairs, dtype=float).reshape(-1, 2)
    if not pairs.size:
        raise ValueError("the decay bound needs at least one sample pair")
    s, t = pairs.T
    k = np.flatnonzero(s > t)
    if k.size:
        raise ValueError(f"sample pair out of order: s={s[k[0]]} > t={t[k[0]]}")
    x_s, x_t = traj.at(pairs).T
    k = np.flatnonzero((x_s <= 0.0) | (x_t <= 0.0))
    if k.size:
        i = k[0]
        raise ValueError(
            "the decay bound premise needs a positive trajectory; "
            f"got x({s[i]})={x_s[i]}, x({t[i]})={x_t[i]}"
        )
    raw = x_t * decay_kernel(eq, r, t, s, cache=cache) - x_s
    rel = raw / x_s
    flagged = rel > tol
    return KernelBoundReport(
        r=r,
        pairs_checked=len(pairs),
        max_violation=float(raw.max()),
        max_relative_violation=float(rel.max()),
        tolerance=tol,
        flagged_pairs=tuple(zip(s[flagged].tolist(), t[flagged].tolist())),
    )


@dataclass(frozen=True)
class EnvelopeRatioReport:
    min_ratio: float
    lambda0: float
    margin: float
    window: tuple[float, float]
    n_samples: int


def check_envelope_ratio(
    eq: DelayEquation,
    traj: Trajectory,
    alpha_val: float | None = None,
    *,
    n_samples: int = 2000,
) -> EnvelopeRatioReport:
    """Test the envelope ratio bound  min x(h(t))/x(t) >= lambda0(alpha)
    on the window [t_stab + max_lag + P, t_end].

    Applies to nonoscillatory (eventually positive) solutions with
    alpha in (0, 1/e]; a trajectory that ends before the window starts or
    is not positive on it raises, and so does ``n_samples`` below 1.
    """
    from .criteria import alpha, lambda0
    from .envelope import combined_envelope
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    env = combined_envelope(eq)
    if alpha_val is None:
        alpha_val = alpha(eq, env=env)
    lam = lambda0(alpha_val)

    a, b = env.t_stab + eq.max_lag + eq.period, traj.t_end
    if not a < b:
        raise ValueError(
            f"ratio window [{a}, {b}] not usable for a trajectory on "
            f"[0, {traj.t_end}]"
        )

    ts = np.linspace(a, b, n_samples)
    x_t = traj.at(ts)
    x_h = traj.at(env.values(ts))
    bad = np.flatnonzero((x_t <= 0.0) | (x_h <= 0.0))
    if bad.size:
        raise ValueError(
            "the envelope ratio bound applies to eventually positive "
            f"solutions; found a non-positive value near t={ts[bad[0]]}"
        )
    min_ratio = float((x_h / x_t).min())
    return EnvelopeRatioReport(
        min_ratio=min_ratio,
        lambda0=lam,
        margin=min_ratio - lam,
        window=(float(a), float(b)),
        n_samples=n_samples,
    )
