"""Benchmark entry point: one workload run, one JSON result line.

    python3 bench/run.py --workload deep_kernel --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository.  The benchmark writes its seeded
configs under ``bench/_work/``, times set-up in several fresh processes,
then runs the workload in one more fresh process with BLAS/OpenMP limited to
one thread (see ``worker.py``).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of ``BENCHMARK.json`` when ``--trace 0`` and
its per-layer metrics when ``--trace 1``.  The line before it records the
machine.  Exit code 0 means a result was printed; a missing ``src/delayosc``,
a crashed or timed-out worker, or a missing metric exits 1 with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 8  # fresh processes timing set-up before the workload, and again after
DEADLINE_S = 170.0  # every run must end within 180 s

sys.path.insert(0, HERE)

import gen  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, deadline: float) -> dict:
    """Run worker.py with ``args``; return the JSON of its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out") from None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def machine(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def bench(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "delayosc", "__init__.py")):
        raise BenchError(f"no delayosc sources under {SRC}")
    wanted = declared_metrics(args.trace)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(HERE, "_work"))
    try:
        paths = gen.write_configs(workdir, gen.configs_for(args.seed))
        used = [paths[c] for c in gen.WORKLOAD_CONFIGS[args.workload]]
        # the first probe only warms the bytecode and file caches; the others
        # straddle the workload so one slow spell of the machine weighs less
        setup = lambda: run_child(["setup", *used], deadline)["setup_s"]
        setups = [setup() for _ in range(SETUP_PROBES + 1)][1:]
        res = run_child(
            [
                "run",
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", workdir,
            ],
            deadline,
        )
        setups += [setup() for _ in range(SETUP_PROBES)]
        print("# setup_s " + " ".join(f"{s:.4f}" for s in setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    got = dict(res["metrics"])
    got["setup_s"] = statistics.median(setups + [res["setup_s"]])
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print("# machine " + json.dumps(machine(res["numpy"])))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
