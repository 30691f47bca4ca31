"""Seeded inputs for the benchmark: equation configs the CLI reads.

The benchmark never reads the repository's own ``configs/`` directory; it
writes every config it runs from here, so the program sees only inputs the
benchmark generated.  ``demo`` and ``control`` are the two shipped equations,
copied verbatim; ``const`` and ``piecewise`` are the two stress families.

Each stress family fixes ``max_lag / period`` so a seed moves the
parameters but not the cost class:

* ``const``: ``x'(t) + p x(t - L) = 0`` with ``L / period = 100`` exactly.
  The period is a power of two, so ``L = 100 * period`` is exact in binary
  floating point.  ``p * L`` is held at 0.21.  The scans' refinements chase
  rounding noise on this flat profile, so the cost depends on the low bits
  of ``p`` (at periods 1 and 0.5, ``p * L`` = 0.20, 0.21, 0.22, 0.23 and
  0.25 cost about 7, 11-14, 10-12, 13-14 and 8-9 s on one Xeon core); a
  free ``p * L`` would turn the seed into a cost lottery.  0.21 is among the
  dearest, so the defect shows in full.  The seed draws the period; with
  ``p * L`` and ``L / period`` fixed that is an exact change of time scale,
  so the values and the cost do not move with the seed.
* ``piecewise``: one term with a two-piece coefficient and a three-piece,
  non-monotone lag whose maximum is ``20 * period`` exactly.  The seed
  jitters breakpoint times by 5% and values by 10% around a fixed template.
"""

from __future__ import annotations

import json
import os

import numpy as np

DEMO = {
    "period": 3.0,
    "coefficients": [
        {"kind": "constant", "value": 0.135},
        {"kind": "constant", "value": 0.135},
    ],
    "delays": [
        {"kind": "lag", "breakpoints": [[0.0, 1.0], [1.0, 1.0], [2.0, 5.0]]},
        {"kind": "lag", "breakpoints": [[0.0, 1.0], [1.0, 1.0], [2.0, 5.0]], "offset": 0.1},
    ],
}

CONTROL = {
    "period": 1.0,
    "coefficients": [{"kind": "constant", "value": 0.2}],
    "delays": [{"kind": "lag", "breakpoints": [[0.0, 1.0]]}],
}

WORKLOADS = ("deep_kernel", "flat_long_lag")
WORKLOAD_CONFIGS = {
    "deep_kernel": ("demo",),
    "flat_long_lag": ("demo", "control", "const", "piecewise"),
}

CONST_RATIO = 100.0
CONST_ALPHA = 0.21
PIECEWISE_RATIO = 20.0


def constant_config(rng: np.random.Generator) -> dict:
    period = 2.0 ** int(rng.integers(-1, 2))
    lag = CONST_RATIO * period
    p = CONST_ALPHA / lag
    return {
        "period": period,
        "coefficients": [{"kind": "constant", "value": p}],
        "delays": [{"kind": "lag", "breakpoints": [[0.0, lag]]}],
    }


def piecewise_config(rng: np.random.Generator) -> dict:
    period = 1.0

    def jitter(x: float, frac: float) -> float:
        return float(x * (1.0 + frac * rng.uniform(-1.0, 1.0)))

    coeff = [[0.0, jitter(0.012, 0.1)], [jitter(0.5, 0.05) * period, jitter(0.012, 0.1)]]
    lag = [
        [0.0, PIECEWISE_RATIO * period],
        [jitter(0.35, 0.05) * period, jitter(12.0, 0.05) * period],
        [jitter(0.6, 0.05) * period, jitter(16.0, 0.05) * period],
    ]
    return {
        "period": period,
        "coefficients": [{"kind": "piecewise", "breakpoints": coeff}],
        "delays": [{"kind": "lag", "breakpoints": lag}],
    }


def configs_for(seed: int) -> dict[str, dict]:
    """Every config a workload may use, drawn from one seed."""
    rng = np.random.default_rng(seed)
    return {
        "demo": DEMO,
        "control": CONTROL,
        "const": constant_config(rng),
        "piecewise": piecewise_config(rng),
    }


def write_configs(directory: str, configs: dict[str, dict]) -> dict[str, str]:
    """Write each config as ``<name>.json``; return name -> path."""
    paths = {}
    for name, config in configs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        paths[name] = path
    return paths
