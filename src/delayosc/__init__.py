"""Oscillation tests for first-order delay differential equations.

The library decides oscillation of

    x'(t) + sum_i p_i(t) x(tau_i(t)) = 0,   tau_i(t) <= t,

with periodic piecewise-linear coefficients p_i >= 0 and lags
d_i(t) = t - tau_i(t) > 0 that need not be monotone.  Six numeric
criteria are evaluated (see `criteria.check_all`), and a method-of-steps
simulator (`sim.integrate`) provides an independent cross-check.

Each engine loads on first use: ``import delayosc`` loads no submodule,
and a public name imports the submodule that defines it when it is first
read.  So the command line loads ``cli`` and ``model``, then what its
command runs: ``check`` and ``scan`` add ``criteria``, ``kernel`` and
``envelope``; ``simulate`` adds ``sim``; ``--help`` adds nothing.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    "PiecewisePeriodic": "model",
    "DelayEquation": "model",
    "EnvelopeFunction": "envelope",
    "running_sup": "envelope",
    "combined_envelope": "envelope",
    "tau_max": "envelope",
    "tau_min": "envelope",
    "KernelCache": "kernel",
    "decay_kernel": "kernel",
    "inner_criterion_integral": "kernel",
    "outer_criterion_integral": "kernel",
    "term_integral": "kernel",
    "alpha": "criteria",
    "alpha_over_envelope": "criteria",
    "hunt_yorke_liminf": "criteria",
    "kwong_limsup": "criteria",
    "lambda0": "criteria",
    "limsup_envelope_integral": "criteria",
    "check_all": "criteria",
    "CheckReport": "criteria",
    "CriterionVerdict": "criteria",
    "ScanExtremum": "criteria",
    "CRITERIA_ORDER": "criteria",
    "History": "sim",
    "Trajectory": "sim",
    "integrate": "sim",
    "count_sign_changes": "sim",
    "check_kernel_bound": "sim",
    "check_envelope_ratio": "sim",
    "KernelBoundReport": "sim",
    "EnvelopeRatioReport": "sim",
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy(namespace: dict, table: dict):
    """A PEP 562 ``__getattr__`` for the module whose globals are
    ``namespace``: each name in ``table`` (name -> submodule of this
    package) is imported on first read and kept in ``namespace``, where a
    later read or a rebinding finds it."""

    def __getattr__(name):
        if name not in table:
            module = namespace["__name__"]
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{table[name]}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)


def __dir__():
    return sorted({*globals(), *__all__})
