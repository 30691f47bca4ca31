"""Benchmark operations and the workloads built from them.

An operation is one ``check`` or ``simulate`` invocation of the CLI entry
``delayosc.cli.main``, or one structural cross-check from ``delayosc.sim``.
``run`` executes it as a user would and times only that call.  ``traced``
makes the same ``cli.main`` call inside a span, with a span around each
library function the CLI calls, so the CLI's own time is the outer span
minus those; a ``check`` then calls each part of ``check_all`` on its own,
with a span around each, so per-layer time can be read off.  Both return
the operation's correctness failures (see ``checker``).
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from delayosc import (
    History,
    KernelCache,
    alpha,
    check_all,
    check_envelope_ratio,
    check_kernel_bound,
    combined_envelope,
    decay_kernel,
    hunt_yorke_liminf,
    inner_criterion_integral,
    integrate,
    kwong_limsup,
    limsup_envelope_integral,
    outer_criterion_integral,
)
from delayosc import cli
from delayosc.cli import build_parser, load_equation

import checker
from gen import WORKLOAD_CONFIGS

DEPTHS = (1, 2, 3)
DECAY_DEPTHS = (1, 2)
# At the default 500-point grid the r=3 check alone takes about 35 s, so a
# run could time it only once.  At 100 points both checks still spend their
# time in the kernel tables, and a 55 s run times the r=3 check about three
# times, so its time is a median.
DEEP_GRID = 100
WARM_EVALS = 32  # warm criterion-integral calls per check, over one period
DECAY_PAIRS = 16  # decay_kernel calls per equation and depth
PROBE_POINTS = 1_000_000  # points per vectorised model / envelope probe
CONTROL_P = 0.2  # coefficient of the control equation (gen.CONTROL)
LIMINF_GRID = inspect.signature(check_all).parameters["n_grid_liminf"].default


@dataclass
class CheckOp:
    name: str
    config: str
    r: int
    grid: int | None
    out: str
    verify: Callable[[dict, int], list[str]]

    def argv(self) -> list[str]:
        argv = ["check", self.config, "--r", str(self.r)]
        if self.grid is not None:
            argv += ["--grid", str(self.grid)]
        return argv + ["--out", self.out]

    def run(self):
        argv = self.argv()
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
        with open(self.out, encoding="utf-8") as fh:
            report = json.load(fh)
        return seconds, self.verify(report, code)

    def traced(self, tr):
        with tr.span("cli.check") as whole, cli_library_spans(tr):
            code = cli.main(self.argv())
        tr.add("cli.check_overhead", whole.seconds - tr.child_seconds(whole))
        with open(self.out, encoding="utf-8") as fh:
            fails = self.verify(json.load(fh), code)

        # the parts of check_all, each called on its own
        r = self.r
        args = build_parser().parse_args(self.argv())
        eq = load_equation(args.config)
        with tr.span("envelope.build"):
            env = combined_envelope(eq)
        liminf = dict(tol=args.tol, n_grid=LIMINF_GRID, env=env)
        with tr.span("criteria.alpha"):
            alpha(eq, **liminf)
        with tr.span("criteria.hunt_yorke"):
            hunt_yorke_liminf(eq, **liminf)
        with tr.span("criteria.kwong"):
            kwong_limsup(eq, **liminf)
        cache = KernelCache()
        scan = dict(tol=args.tol, n_grid=args.grid, cache=cache, env=env)
        with tr.span(f"criteria.limsup_inner.r{r}"):
            inner = limsup_envelope_integral(eq, r, "inner", **scan)
        with tr.span(f"criteria.limsup_outer.r{r}"):
            outer = limsup_envelope_integral(eq, r, "outer", **scan)

        kw = dict(tol=args.tol, env=env)
        with tr.span(f"kernel.cold_call.r{r}", count=1):
            inner_criterion_integral(eq, r, inner.t, cache=KernelCache(), **kw)
        for kind, fn, start in (
            ("inner", inner_criterion_integral, inner.t),
            ("outer", outer_criterion_integral, outer.t),
        ):
            ts = start + eq.period * np.arange(WARM_EVALS) / WARM_EVALS
            with tr.span(f"kernel.{kind}_evals.r{r}", count=WARM_EVALS):
                for t in ts:
                    fn(eq, r, float(t), cache=cache, **kw)
        return fails


@contextlib.contextmanager
def cli_library_spans(tr):
    """Record a span around each library call ``cli.main`` makes, by
    rebinding the public names the ``cli`` module calls them by.
    (``unittest.mock`` would do this too, but importing it adds about 9 MB
    to the worker's peak memory.)"""

    def spanned(name, fn, count=lambda *a: 0):
        def call(*args, **kwargs):
            with tr.span(name, count=count(*args)):
                return fn(*args, **kwargs)

        return call

    steps = lambda eq, history, t_end, h_step: int(round(t_end / h_step))
    real = {name: getattr(cli, name) for name in ("load_equation", "check_all", "integrate")}
    cli.load_equation = spanned("model.load", real["load_equation"])
    cli.check_all = spanned("criteria.check_all", real["check_all"])
    cli.integrate = spanned("sim.integrate", real["integrate"], steps)
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(cli, name, fn)


@dataclass
class SimulateOp:
    name: str
    config: str
    history: str | None
    out: str
    verify: Callable[[int, str, str], list[str]]

    def argv(self) -> list[str]:
        argv = ["simulate", self.config]
        if self.history is not None:
            argv += ["--history", self.history]
        return argv + ["--out", self.out]

    def _main(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv())
        return code, buf.getvalue().strip()

    def run(self):
        t0 = time.perf_counter()
        code, summary = self._main()
        seconds = time.perf_counter() - t0
        return seconds, self.verify(code, summary, self.out)

    def traced(self, tr):
        with tr.span("cli.simulate") as whole, cli_library_spans(tr):
            code, summary = self._main()
        tr.add("cli.csv_write", whole.seconds - tr.child_seconds(whole))
        return self.verify(code, summary, self.out)


@dataclass
class StructuralOp:
    name: str
    kind: str  # "kernel_bound" or "envelope_ratio"
    call: Callable[[], object]

    def run(self):
        t0 = time.perf_counter()
        rep = self.call()
        seconds = time.perf_counter() - t0
        return seconds, checker.against_structural(self.kind, rep)

    def traced(self, tr):
        with tr.span(f"sim.{self.kind}"):
            rep = self.call()
        return checker.against_structural(self.kind, rep)


def structural_ops(control_path: str, seed: int, tr=None) -> list[StructuralOp]:
    """Decay bound at r=1, 2 and the envelope ratio bound on the control
    equation's exact solution e^{-mu t}, integrated once up front."""
    eq = load_equation(control_path)
    mu = checker.char_root(CONTROL_P)
    steps = 25_000
    with (tr.span("sim.integrate", count=steps) if tr else contextlib.nullcontext()):
        traj = integrate(eq, History.exponential(mu), 25.0, 1e-3)
    rng = np.random.default_rng(seed)
    pairs = [tuple(np.sort(rng.uniform(5.0, 20.0, 2))) for _ in range(100)]
    ops = [
        StructuralOp(
            f"kernel_bound.r{r}",
            "kernel_bound",
            partial(check_kernel_bound, eq, traj, r, pairs, tol=1e-5),
        )
        for r in (1, 2)
    ]
    ops.append(StructuralOp("envelope_ratio", "envelope_ratio", partial(check_envelope_ratio, eq, traj)))
    return ops


class Inputs:
    """Generated config paths, their parameters, pinned references and the
    directory operation outputs go to."""

    def __init__(self, paths: dict, configs: dict, refs: dict, outdir: str, seed: int):
        self.paths = paths
        self.configs = configs
        self.refs = refs
        self.outdir = outdir
        self.seed = seed

    def out(self, name: str, ext: str) -> str:
        return os.path.join(self.outdir, f"{name}.{ext}")

    def check(self, cfg: str, r: int, grid: int | None = None) -> CheckOp:
        name = f"check.{cfg}.r{r}"
        if cfg in ("demo", "control"):
            key = name if grid is None else f"{name}.grid{grid}"
            verify = partial(checker.against_reference, ref=self.refs["check"][key])
        elif cfg == "const":
            c = self.configs["const"]
            p = c["coefficients"][0]["value"]
            lag = c["delays"][0]["breakpoints"][0][1]
            verify = lambda rep, code: checker.against_constant(rep, code, p, lag, r)
        else:
            verify = checker.against_piecewise
        return CheckOp(name, self.paths[cfg], r, grid, self.out(name, "json"), verify)

    def simulate(self, cfg: str) -> SimulateOp:
        name = f"simulate.{cfg}"
        verify = lambda code, summary, csv: checker.against_simulate_reference(
            code, summary, checker.sha256_of(csv), self.refs["simulate"][cfg]
        )
        return SimulateOp(name, self.paths[cfg], None, self.out(name, "csv"), verify)

    def simulate_exponential(self) -> SimulateOp:
        mu = checker.char_root(CONTROL_P)
        name = "simulate.control.exp_mu"
        verify = lambda code, summary, csv: checker.against_exponential(code, summary, csv, mu)
        return SimulateOp(name, self.paths["control"], f"exp:{mu!r}", self.out(name, "csv"), verify)


def workload_ops(workload: str, inp: Inputs) -> list:
    if workload == "deep_kernel":
        return [inp.check("demo", 2, DEEP_GRID), inp.check("demo", 3, DEEP_GRID)]
    if workload == "flat_long_lag":
        return [inp.check(cfg, 1) for cfg in WORKLOAD_CONFIGS[workload]]
    raise ValueError(f"unknown workload {workload!r}")


def simulate_ops(inp: Inputs, tr) -> list:
    """``simulate`` at CLI defaults on both shipped equations, the control
    equation from its exact history, and the structural cross-checks."""
    return [
        inp.simulate("demo"),
        inp.simulate("control"),
        inp.simulate_exponential(),
    ] + structural_ops(inp.paths["control"], inp.seed, tr)


def fill_in_ops(ops: list, inp: Inputs, tr) -> list:
    """Operations for the layers a workload never reaches, so a traced run
    reports every per-layer metric: control-equation checks at the depths
    the workload lacks, and the simulate operations."""
    depths = {op.r for op in ops}
    extra = [inp.check("control", r) for r in DEPTHS if r not in depths]
    return extra + simulate_ops(inp, tr)


def layer_probes(eqs: list, seed: int, tr) -> None:
    """Fixed-size calls timing vectorised evaluation and point kernel
    lookups on each of the workload's equations."""
    rng = np.random.default_rng(seed)
    for eq in eqs:
        P, L = eq.period, eq.max_lag
        xs = np.linspace(0.0, 50.0 * (L + P), PROBE_POINTS)
        with tr.span("model.antider", count=PROBE_POINTS):
            eq.coeff_sum_antiderivative(xs)
        env = combined_envelope(eq)
        with tr.span("envelope.values", count=PROBE_POINTS):
            env.values(xs)
        base = 10.0 * (L + P)
        for r in DECAY_DEPTHS:
            s = base + P * rng.uniform(0.0, 1.0, DECAY_PAIRS)
            t = s + L * rng.uniform(0.5, 1.5, DECAY_PAIRS)
            cache = KernelCache()
            with tr.span(f"kernel.decay_calls.r{r}", count=DECAY_PAIRS):
                for si, ti in zip(s, t):
                    decay_kernel(eq, r, float(ti), float(si), cache=cache)
