"""One benchmark process: set up, then run a workload untraced or traced.

    python3 bench/worker.py setup CONFIG...
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR

``bench/run.py`` starts this in a fresh interpreter with one BLAS/OpenMP
thread.  The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def _setup(config_paths):
    """Import the library and load and validate every config: the set-up a
    user pays before the first operation.  Returns (seconds, equations)."""
    import delayosc  # noqa: F401
    from delayosc.cli import load_equation

    eqs = [load_equation(p) for p in config_paths]
    return time.perf_counter() - T0, eqs


def _attempt(fn, failures, name):
    try:
        return fn()
    except (Exception, SystemExit) as exc:
        failures.append((name, [f"raised {type(exc).__name__}: {exc}"]))
        return None


def _timed(op):
    """Run one operation; an attempt that raises counts its time too."""
    t0 = time.perf_counter()
    try:
        return op.run()
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]


def untraced(ops, seconds):
    """One pass over the operations, then keep cycling through them for the
    rest of ``seconds``, running each one whose median time so far still
    fits, so every operation's samples spread over the whole run.  Each
    operation keeps its timings."""
    times = {op.name: [] for op in ops}
    failures = []
    attempted = 0
    start = time.perf_counter()

    def attempt(op):
        nonlocal attempted
        attempted += 1
        dt, fails = _timed(op)
        times[op.name].append(dt)
        if fails:
            failures.append((op.name, fails))

    for op in ops:
        attempt(op)
    while True:
        ran = False
        for op in ops:
            left = seconds - (time.perf_counter() - start)
            if statistics.median(times[op.name]) <= left:
                attempt(op)
                ran = True
        if not ran:
            break
    per_op = {name: statistics.median(v) for name, v in times.items()}
    for name, seconds in per_op.items():
        samples = " ".join(f"{t:.4f}" for t in times[name])
        print(f"# op {name} median_s={seconds:.4f} samples={len(times[name])}: {samples}")
    medians = list(per_op.values())
    metrics = {
        "wall_s": sum(medians),
        "slowest_op_s": max(medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, attempted, failures


def per_layer(tr, traced_wall):
    from ops import DECAY_DEPTHS, DEPTHS
    from tracer import span_cost

    m = {
        "model.load_s": tr.total("model.load"),
        "model.antider_mpts_per_s": tr.rate("model.antider") / 1e6,
        "envelope.build_s": tr.total("envelope.build"),
        "envelope.values_mpts_per_s": tr.rate("envelope.values") / 1e6,
        "criteria.alpha_s": tr.total("criteria.alpha"),
        "criteria.hunt_yorke_s": tr.total("criteria.hunt_yorke"),
        "criteria.kwong_s": tr.total("criteria.kwong"),
    }
    parts = m["envelope.build_s"] + m["criteria.alpha_s"] + m["criteria.hunt_yorke_s"]
    parts += m["criteria.kwong_s"]
    for r in DEPTHS:
        inner = tr.total(f"criteria.limsup_inner.r{r}")
        outer = tr.total(f"criteria.limsup_outer.r{r}")
        parts += inner + outer
        inner_rate = tr.rate(f"kernel.inner_evals.r{r}")
        outer_rate = tr.rate(f"kernel.outer_evals.r{r}")
        m[f"criteria.limsup_inner_s.r{r}"] = inner
        m[f"criteria.limsup_outer_s.r{r}"] = outer
        m[f"criteria.limsup_implied_evals.r{r}"] = inner * inner_rate + outer * outer_rate
        m[f"kernel.cold_call_s.r{r}"] = tr.total(f"kernel.cold_call.r{r}")
        m[f"kernel.inner_evals_per_s.r{r}"] = inner_rate
        m[f"kernel.outer_evals_per_s.r{r}"] = outer_rate
    m["criteria.check_all_s"] = tr.total("criteria.check_all")
    m["criteria.glue_s"] = m["criteria.check_all_s"] - parts
    for r in DECAY_DEPTHS:
        m[f"kernel.decay_calls_per_s.r{r}"] = tr.rate(f"kernel.decay_calls.r{r}")
    m["sim.steps_per_s"] = tr.rate("sim.integrate")
    m["sim.kernel_bound_s"] = tr.total("sim.kernel_bound")
    m["sim.envelope_ratio_s"] = tr.total("sim.envelope_ratio")
    m["cli.check_overhead_s"] = tr.values.get("cli.check_overhead", 0.0)
    m["cli.csv_write_s"] = tr.values.get("cli.csv_write", 0.0)
    # The traced pass does other work than an untraced one (the parts of
    # check_all run again on their own, plus probes), so the two wall times
    # do not compare; this is the time the spans themselves took instead.
    m["trace.overhead_frac"] = len(tr.spans) * span_cost() / traced_wall
    return m


def traced(workload, inp, eqs, seed):
    from ops import fill_in_ops, layer_probes, workload_ops
    from tracer import Tracer

    tr = Tracer()
    failures = []
    t0 = time.perf_counter()
    tr.run_id = f"{workload}-{seed}-prep"
    ops = workload_ops(workload, inp)
    ops += fill_in_ops(ops, inp, tr)
    for i, op in enumerate(ops):
        tr.run_id = f"{workload}-{seed}-{i}"
        with tr.span(f"op.{op.name}"):
            fails = _attempt(lambda: op.traced(tr), failures, op.name)
        if fails:
            failures.append((op.name, fails))
    tr.run_id = f"{workload}-{seed}-probes"
    _attempt(lambda: layer_probes(eqs, seed, tr), failures, "layer_probes")
    wall = time.perf_counter() - t0
    # the work directory is removed after the run; the spans stay beside it
    tr.dump(os.path.join(os.path.dirname(inp.outdir), f"spans-{workload}-{seed}.jsonl"))
    return per_layer(tr, wall), len(ops) + 1, failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("configs", nargs="+")
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_run.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        seconds, _ = _setup(args.configs)
        print(json.dumps({"setup_s": seconds}))
        return 0

    from gen import WORKLOAD_CONFIGS, configs_for

    configs = configs_for(args.seed)
    paths = {name: os.path.join(args.workdir, f"{name}.json") for name in configs}
    setup_s, eqs = _setup([paths[c] for c in WORKLOAD_CONFIGS[args.workload]])

    import delayosc

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.realpath(os.path.join(os.path.dirname(here), "src"))
    if not os.path.realpath(delayosc.__file__).startswith(src + os.sep):
        print(f"error: imported delayosc from {delayosc.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy

    from ops import Inputs

    with open(os.path.join(here, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    inp = Inputs(paths, configs, refs, args.workdir, args.seed)

    if args.trace:
        metrics, attempted, failures = traced(args.workload, inp, eqs, args.seed)
    else:
        from ops import workload_ops

        ops = workload_ops(args.workload, inp)
        metrics, attempted, failures = untraced(ops, args.seconds)
    for name, fails in failures:
        for f in fails:
            print(f"FAIL {name}: {f}")
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "metrics": metrics,
                "attempted": attempted,
                "failed": len(failures),
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
