"""Method-of-steps integration and empirical checks of the kernel bounds.

The right-hand side x'(t) = -sum_i p_i(t) x(tau_i(t)) does not involve the
current value x(t), so the classic RK4 step collapses to Simpson's rule on
the derivative (the two middle stages coincide).  Delayed values are read
from the stored past with cubic Hermite interpolation; lags exceed the step
size by assumption, so a lookup never lands inside the step being computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import criteria as criteria_mod
from .envelope import combined_envelope
from .kernel import KernelCache, decay_kernel
from .model import DelayEquation

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


@dataclass(frozen=True)
class History:
    """Initial data on (-inf, 0] (or [times[0], 0] when tabulated)."""

    kind: str
    level: float = 1.0
    rate: float = 0.0
    times: tuple[float, ...] = ()
    samples: tuple[float, ...] = ()

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
        if self.kind == "constant":
            return self.level
        if self.kind == "exponential":
            return math.exp(-self.rate * t)
        if t < self.times[0] - 1e-12:
            raise ValueError(
                f"history lookup at t={t} precedes the tabulated start "
                f"{self.times[0]}: insufficient history extent"
            )
        return float(np.interp(t, self.times, self.samples))


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
        """Dense evaluation: history for t <= 0, cubic Hermite inside steps."""
        if t <= 0.0:
            return self.history(t)
        if t > self.times[-1] + 1e-12:
            raise ValueError(f"lookup at t={t} beyond trajectory end {self.times[-1]}")
        h = self.h_step
        j = min(int(t / h), len(self.times) - 2)
        return _hermite(
            t - self.times[j],
            h,
            self.values[j],
            self.values[j + 1],
            self.derivs[j],
            self.derivs[j + 1],
        )


def _hermite(dt, h, y0, y1, m0, m1):
    s = dt / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * y0 + h10 * h * m0 + h01 * y1 + h11 * h * m1


def integrate(
    eq: DelayEquation, history: History, t_end: float, h_step: float
) -> Trajectory:
    """Integrate forward from 0 to t_end with uniform step h_step."""
    if h_step <= 0.0:
        raise ValueError(f"h_step must be positive, got {h_step}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
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
    if abs(n * h_step - t_end) > 1e-9 * max(1.0, t_end):
        n = int(math.ceil(t_end / h_step - 1e-12))
    h = h_step

    coeffs = eq.coefficients
    lags = eq.lags
    xs = [0.0] * (n + 1)
    ds = [0.0] * (n + 1)

    def lookup(theta: float, completed: int) -> float:
        if theta <= 0.0:
            return history(theta)
        j = int(theta / h)
        if j > completed - 1:
            j = completed - 1
        # the interval [t_j, t_{j+1}] is fully computed: lags exceed h
        return _hermite(theta - j * h, h, xs[j], xs[j + 1], ds[j], ds[j + 1])

    def deriv(t: float, completed: int) -> float:
        acc = 0.0
        for c, d in zip(coeffs, lags):
            acc += c(t) * lookup(t - d(t), completed)
        return -acc

    xs[0] = history(0.0)
    ds[0] = deriv(0.0, 0)
    for k in range(n):
        t = k * h
        # RK4 with an x-independent right-hand side: k2 == k3, so the update
        # is Simpson's rule over the step
        f0 = ds[k]
        fm = deriv(t + 0.5 * h, k)
        f1 = deriv(t + h, k)
        xs[k + 1] = xs[k] + (h / 6.0) * (f0 + 4.0 * fm + f1)
        ds[k + 1] = f1

    times = h * np.arange(n + 1)
    values = np.asarray(xs)
    derivs = np.asarray(ds)
    changes = _detect_sign_changes(times, values)
    return Trajectory(
        h_step=h,
        times=times,
        values=values,
        derivs=derivs,
        history=history,
        sign_changes=changes,
    )


def _detect_sign_changes(times, values):
    """Strict alternations between samples; exact zeros count once per run."""
    changes = []
    in_zero = False
    for k in range(len(values)):
        v = values[k]
        if v == 0.0:
            if not in_zero:
                changes.append((float(times[k]), float(times[k])))
                in_zero = True
        else:
            in_zero = False
            if k > 0 and values[k - 1] != 0.0 and values[k - 1] * v < 0.0:
                changes.append((float(times[k - 1]), float(times[k])))
    return tuple(changes)


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
    quad_tol: float = 1e-8,
    cache: KernelCache | None = None,
) -> KernelBoundReport:
    """Test the decay bound x(t) * K_r(t, s) <= x(s) on sample pairs.

    The premise needs a positive solution; a non-positive sample raises.
    Violations are measured relative to x(s) and flagged beyond ``tol``.
    """
    cache = cache if cache is not None else KernelCache()
    pairs = [(float(s), float(t)) for s, t in sample_pairs]
    for s, t in pairs:
        if s > t:
            raise ValueError(f"sample pair out of order: s={s} > t={t}")
    max_raw = -math.inf
    max_rel = -math.inf
    flagged = []
    for s, t in pairs:
        x_s = traj(s)
        x_t = traj(t)
        if x_s <= 0.0 or x_t <= 0.0:
            raise ValueError(
                "the decay bound premise needs a positive trajectory; "
                f"got x({s})={x_s}, x({t})={x_t}"
            )
        raw = x_t * decay_kernel(eq, r, t, s, tol=quad_tol, cache=cache) - x_s
        rel = raw / x_s
        max_raw = max(max_raw, raw)
        max_rel = max(max_rel, rel)
        if rel > tol:
            flagged.append((s, t))
    return KernelBoundReport(
        r=r,
        pairs_checked=len(pairs),
        max_violation=max_raw,
        max_relative_violation=max_rel,
        tolerance=tol,
        flagged_pairs=tuple(flagged),
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
    window=None,
    n_samples: int = 2000,
) -> EnvelopeRatioReport:
    """Test the envelope ratio bound  min x(h(t))/x(t) >= lambda0(alpha).

    Applies to nonoscillatory (eventually positive) solutions with
    alpha in (0, 1/e]; a trajectory that is not positive on the window
    raises.
    """
    env = combined_envelope(eq)
    if alpha_val is None:
        alpha_val = criteria_mod.alpha(eq, env=env)
    lam = criteria_mod.lambda0(alpha_val)

    if window is None:
        start = env.t_stab + eq.max_lag + eq.period
        window = (start, traj.t_end)
    a, b = window
    if not (0.0 <= a < b <= traj.t_end + 1e-12):
        raise ValueError(
            f"ratio window [{a}, {b}] not usable for a trajectory on "
            f"[0, {traj.t_end}]"
        )

    ts = np.linspace(a, b, n_samples)
    min_ratio = math.inf
    for t, h in zip(ts.tolist(), env.values(ts).tolist()):
        x_t = traj(t)
        x_h = traj(h)
        if x_t <= 0.0 or x_h <= 0.0:
            raise ValueError(
                "the envelope ratio bound applies to eventually positive "
                f"solutions; found a non-positive value near t={t}"
            )
        min_ratio = min(min_ratio, x_h / x_t)
    return EnvelopeRatioReport(
        min_ratio=min_ratio,
        lambda0=lam,
        margin=min_ratio - lam,
        window=(float(a), float(b)),
        n_samples=n_samples,
    )
