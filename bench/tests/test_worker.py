"""The worker reports a result when operations fail, and traced operations
time the CLI's own work from the real ``cli.main`` call."""

import dataclasses
import json
import os
import time

import gen
import ops
import worker
from tracer import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


class Raises:
    def __init__(self, name):
        self.name = name

    def run(self):
        raise RuntimeError("broken")


def test_every_operation_raising_still_gives_a_result():
    metrics, attempted, failures = worker.untraced([Raises("a"), Raises("b")], seconds=0.0)
    assert attempted == 2
    assert len(failures) == attempted
    assert {"wall_s", "slowest_op_s", "peak_rss_mb"} <= set(metrics)
    assert metrics["wall_s"] >= metrics["slowest_op_s"] >= 0.0


class Takes:
    """An operation that reports ``seconds`` but sleeps only ``sleep``."""

    def __init__(self, name, seconds, sleep=0.0):
        self.name, self.seconds, self.sleep = name, seconds, sleep

    def run(self):
        time.sleep(self.sleep)
        return self.seconds, []


def test_run_time_left_after_one_pass_goes_to_operations_that_fit():
    t0 = time.perf_counter()
    metrics, attempted, failures = worker.untraced(
        [Takes("long", 1.0), Takes("short", 0.01, sleep=0.01)], seconds=0.2
    )
    assert time.perf_counter() - t0 < 0.5
    assert failures == []
    assert attempted >= 6  # "long" once, "short" in the time left
    assert metrics["slowest_op_s"] == 1.0
    assert metrics["wall_s"] == 1.01


def test_per_layer_reports_every_metric_without_spans():
    metrics = worker.per_layer(Tracer(), traced_wall=1.0)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)


def control_r1(tmp_path):
    configs = gen.configs_for(0)
    paths = gen.write_configs(tmp_path, configs)
    with open(os.path.join(BENCH, "refs.json")) as fh:
        refs = json.load(fh)
    return ops.Inputs(paths, configs, refs, str(tmp_path), 0).check("control", 1)


def test_traced_check_times_the_cli_around_its_library_calls(tmp_path):
    tr = Tracer()
    real = ops.cli.check_all
    assert control_r1(tmp_path).traced(tr) == []
    assert ops.cli.check_all is real
    (whole,) = [s for s in tr.spans if s.name == "cli.check"]
    children = sorted(s.name for s in tr.spans if s.parent == whole.id)
    assert children == ["criteria.check_all", "model.load"]
    assert 0.0 <= tr.values["cli.check_overhead"] < whole.seconds


def test_traced_check_verifies_what_the_cli_wrote(tmp_path, monkeypatch):
    real = ops.cli.check_all

    def skewed(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, alpha=report.alpha + 1e-5)

    monkeypatch.setattr(ops.cli, "check_all", skewed)
    fails = control_r1(tmp_path).traced(Tracer())
    assert any("alpha" in f for f in fails)
