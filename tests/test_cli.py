"""Config parsing, command dispatch, report emission, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayosc import cli
from delayosc.cli import (
    ConfigError,
    equation_to_config,
    main,
    parse_config,
)

_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = str(_ROOT / "configs" / "two_delay_sawtooth.json")
CONTROL_CONFIG = str(_ROOT / "configs" / "single_lag_control.json")


def write_config(tmp_path, body, name="eq.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body) if isinstance(body, dict) else body)
    return str(path)


ZERO_BODY = {
    "period": 1.0,
    "coefficients": [{"kind": "constant", "value": 0.0}],
    "delays": [{"kind": "lag", "breakpoints": [[0.0, 1.0]]}],
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# -- config round-trips -----------------------------------------------------


def test_round_trip_shipped_configs():
    for path in (DEMO_CONFIG, CONTROL_CONFIG):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        eq = parse_config(cfg)
        again = equation_to_config(eq)
        assert parse_config(again) == eq
        assert equation_to_config(parse_config(again)) == again


def test_round_trip_piecewise_with_offset():
    cfg = {
        "period": 2.0,
        "coefficients": [
            {"kind": "piecewise", "breakpoints": [[0.0, 0.1], [1.0, 0.3], [2.0, 0.5]]},
            {"kind": "constant", "value": 0.2},
        ],
        "delays": [
            {"kind": "lag", "breakpoints": [[0.0, 1.0], [0.5, 1.4]], "offset": 0.25},
            {"kind": "lag", "breakpoints": [[0.0, 0.7]]},
        ],
    }
    eq = parse_config(cfg)
    assert eq.m == 2
    assert eq.lags[0](0.0) == pytest.approx(1.25)
    assert eq.coefficients[0].wrap_jump == pytest.approx(0.4)  # explicit closing pair
    again = equation_to_config(eq)
    assert parse_config(again) == eq


def test_parse_errors_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match=r"coefficients\[0\]"):
        parse_config(
            {
                "period": 1.0,
                "coefficients": [{"kind": "constant", "value": "x"}],
                "delays": [{"kind": "lag", "breakpoints": [[0.0, 1.0]]}],
            }
        )
    with pytest.raises(ConfigError, match=r"delays\[0\].*kind"):
        parse_config(
            {
                "period": 1.0,
                "coefficients": [{"kind": "constant", "value": 0.1}],
                "delays": [{"kind": "piecewise", "breakpoints": [[0.0, 1.0]]}],
            }
        )
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(
            {
                "period": 1.0,
                "coefficients": [{"kind": "constant", "value": 0.1}],
                "delays": [],
            }
        )
    with pytest.raises(ConfigError, match="must pair up"):
        parse_config(
            {
                "period": 1.0,
                "coefficients": [{"kind": "constant", "value": 0.1}] * 2,
                "delays": [{"kind": "lag", "breakpoints": [[0.0, 1.0]]}],
            }
        )
    with pytest.raises(ConfigError, match="unexpected key"):
        parse_config(dict(ZERO_BODY, extra=1))


# -- check ------------------------------------------------------------------


def test_check_demo_report(capsys):
    code = main(["check", DEMO_CONFIG])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["overall"] == "oscillatory"
    assert rep["witness"] == "bcs_1_9"
    assert rep["alpha"] == pytest.approx(0.27, abs=1e-6)
    by_name = {c["name"]: c for c in rep["criteria"]}
    assert by_name["main_2_8"]["satisfied"] is True
    assert by_name["main_2_8"]["value"] == pytest.approx(0.948354, abs=5e-4)
    assert by_name["bcs_1_8"]["satisfied"] is False
    assert rep["notes"]


def test_check_control_inconclusive(capsys):
    code = main(["check", CONTROL_CONFIG])
    rep = json.loads(capsys.readouterr().out)
    assert code == 3
    assert rep["overall"] == "inconclusive"
    assert rep["witness"] is None
    assert rep["alpha"] == pytest.approx(0.2, abs=1e-6)


def test_check_zero_equation(tmp_path, capsys):
    path = write_config(tmp_path, ZERO_BODY)
    code = main(["check", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 3
    assert all(not c["satisfied"] for c in rep["criteria"])


def test_check_is_deterministic(capsys):
    main(["check", DEMO_CONFIG])
    first = capsys.readouterr().out
    main(["check", DEMO_CONFIG])
    assert capsys.readouterr().out == first


def test_check_saturated_report_is_strict_json(capsys):
    # the depth-5 kernel overflows on the demo: every limsup saturates
    code = main(["check", DEMO_CONFIG, "--r", "5", "--grid", "50"])
    out = capsys.readouterr().out

    rep = json.loads(out, parse_constant=_reject_constant)
    assert code == 0
    by_name = {c["name"]: c for c in rep["criteria"]}
    for name in ("bcs_1_8", "bcs_1_9", "main_2_8"):
        assert by_name[name]["value"] is None and by_name[name]["margin"] is None
        assert any(note.startswith(f"{name} saturated") for note in rep["notes"])
    assert by_name["bcs_1_8"]["satisfied"] is True
    assert rep["witness"] == "bcs_1_8"


def test_check_input_errors(tmp_path, capsys):
    bad = dict(ZERO_BODY, coefficients=[{"kind": "constant", "value": -0.2}])
    assert main(["check", write_config(tmp_path, bad)]) == 1
    assert "coefficients[0]" in capsys.readouterr().err

    assert main(["check", write_config(tmp_path, "{not json", name="broken.json")]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["check", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_check_rejects_a_bad_tol(capsys, tol):
    assert main(["check", DEMO_CONFIG, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "tol" in captured.err


@pytest.mark.parametrize("command", ["check", "scan"])
def test_negative_grid_is_an_error_naming_the_argument(capsys, command):
    assert main([command, DEMO_CONFIG, "--grid", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_grid must be >= 1, got -3\n"


@pytest.mark.parametrize(
    "config,args,code,sha",
    [
        (CONTROL_CONFIG, ["--r", "1"], 3, "f8511acbe64470952f3cd5c70c6dc875d4246b4f60ffe231d36eed22bd764b69"),
        (CONTROL_CONFIG, ["--r", "2"], 3, "2b2201b25cd0c09e0924798c758b62e19db1f8243dde6d9fa41bdf41d62da1d2"),
        (CONTROL_CONFIG, ["--r", "3"], 3, "e790a47ec55af8a51f4e544e50fe25dd0ec72f3ce498f804df00b6699af71f3f"),
        (DEMO_CONFIG, ["--r", "1"], 0, "09af804dee9553de2c3d0be013b0ac09c05a514352119e626144ee6c7b44a6bb"),
        (DEMO_CONFIG, ["--r", "2"], 0, "590c2bf643b1c4461aeaa89232b208eebdc30891fc33591a7eec7adc12bcd871"),
        (DEMO_CONFIG, ["--r", "3"], 0, "7deba4db07d866636a8eb7999015f75ef0cb27fc7a130024801d6c747b70a526"),
        # the benchmark's deep_kernel checks, and the deepest table cut at its hints
        (DEMO_CONFIG, ["--r", "2", "--grid", "100"], 0, "9eff5af9b95361e7663edbaf997f9e2d8784f715e22b83ec049e0f1084971256"),
        (DEMO_CONFIG, ["--r", "3", "--grid", "100"], 0, "3a25b56891d725a177a1f6a1d3339ffc4346376586ee877a5a953b8a64a010ec"),
        (DEMO_CONFIG, ["--r", "4"], 0, "78dec22eda0a83cfab8bf2a75c4409ff27e82da6906ded4f90996ad43ee36495"),
    ],
    ids=[
        "control-r1", "control-r2", "control-r3", "demo-r1", "demo-r2", "demo-r3",
        "demo-r2-grid100", "demo-r3-grid100", "demo-r4",
    ],
)
def test_check_stdout_pinned(capsys, config, args, code, sha):
    assert main(["check", config, *args]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


@pytest.mark.parametrize(
    "args,sha",
    [
        (["--r", "2", "--kind", "outer"], "6f386be2d1cff291fda751082c75afe30c378f33e59e0c05c463a778b9e96edd"),
        (["--r", "3", "--grid", "100", "--kind", "inner"], "69c7edb7a140cb57fc89f46ee3ead68f0842db3d774d3bb0d2ec3c859b2edadf"),
    ],
    ids=["demo-r2-outer", "demo-r3-grid100-inner"],
)
def test_scan_stdout_pinned(capsys, args, sha):
    assert main(["scan", DEMO_CONFIG, *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


def test_check_on_a_steep_lag_ends_in_a_verdict(tmp_path, capsys):
    # a lag piece of slope about 1.4e4 was refused as "failed to settle"
    body = {
        "period": 2.9804741486000266,
        "coefficients": [{"kind": "constant", "value": 0.1}],
        "delays": [
            {
                "kind": "lag",
                "breakpoints": [
                    [0.0, 2.8539954245261505],
                    [2.2741552739231317, 2.063625038784237],
                    [2.980318567379336, 0.6869745183789657],
                ],
            }
        ],
    }
    assert main(["check", write_config(tmp_path, body)]) in (0, 3)
    assert capsys.readouterr().err == ""


def test_check_internal_error_is_one_error_line(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "check_all", out_of_memory)
    assert main(["check", CONTROL_CONFIG]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "MemoryError" in lines[0]
    assert "Traceback" not in captured.err


# a BaseException, so that the catch-all in main cannot turn a hang into exit 1
class _Timeout(BaseException):
    pass


_INTERNAL_FAULT = re.compile(r"error: [A-Z]\w*:")


def _alarm(signum, frame):
    raise _Timeout("check ran past its wall-time bound")


_FRACTIONS = st.lists(st.integers(1, 15), max_size=2, unique=True).map(
    lambda ks: [0.0] + sorted(k / 16.0 for k in ks)
)


@st.composite
def _admissible_configs(draw):
    """Period 10^U(-3, 8) and one or two terms, each a coefficient of up to
    1 / period and a lag of 0.1 to 50 periods, both piecewise linear with up
    to three breakpoints at multiples of period / 16."""
    period = 10.0 ** draw(st.floats(-3.0, 8.0))
    coefficients, delays = [], []
    for _ in range(draw(st.integers(1, 2))):
        values = st.floats(0.0, 1.0)
        coefficients.append(
            {
                "kind": "piecewise",
                "breakpoints": [[f * period, draw(values) / period] for f in draw(_FRACTIONS)],
            }
        )
        ratios = st.floats(0.1, 50.0)
        delays.append(
            {
                "kind": "lag",
                "breakpoints": [[f * period, draw(ratios) * period] for f in draw(_FRACTIONS)],
            }
        )
    return {"period": period, "coefficients": coefficients, "delays": delays}


@settings(max_examples=30, deadline=None)
@given(config=_admissible_configs(), r=st.sampled_from([1, 2]))
# a coefficient this small used to hang the fixed point lambda0
@example(
    config={
        "period": 1.0,
        "coefficients": [{"kind": "piecewise", "breakpoints": [[0.0, 1.1125369292536007e-308]]}],
        "delays": [{"kind": "lag", "breakpoints": [[0.0, 1.0]]}],
    },
    r=1,
)
def test_check_fuzz_ends_in_a_verdict_or_an_error(tmp_path_factory, config, r):
    path = write_config(tmp_path_factory.mktemp("fuzz"), config)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path, "--r", str(r), "--grid", "50"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 3)
    if code == 1:
        # an input error, not an internal fault: only main's catch-all writes
        # "error: <ExceptionType>: ..."
        assert err.getvalue().startswith("error: ")
        assert not _INTERNAL_FAULT.match(err.getvalue()), err.getvalue()
    else:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["overall"] == ("oscillatory" if code == 0 else "inconclusive")


# -- scan -------------------------------------------------------------------


def test_scan_demo_profile(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", DEMO_CONFIG, "--grid", "150", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,F"
    ts, fs = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
    assert min(ts) >= 0.0 and max(ts) < 3.0
    assert list(ts) == sorted(ts)
    # knot seeding guarantees the kink maximiser t = 2.6 is on the grid
    assert max(fs) == pytest.approx(0.948354, abs=5e-4)
    assert ts[fs.index(max(fs))] == pytest.approx(2.6, abs=1e-9)

    code = main(["scan", DEMO_CONFIG, "--grid", "150", "--out", str(tmp_path / "b.csv")])
    assert code == 0
    assert (tmp_path / "b.csv").read_bytes() == out.read_bytes()


def test_scan_constant_equation_flat(capsys):
    code = main(["scan", CONTROL_CONFIG, "--kind", "outer", "--grid", "40"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fs = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert max(fs) - min(fs) < 1e-7
    assert fs[0] == pytest.approx(math.expm1(0.2), rel=1e-7)


def test_scan_rows_at_a_tiny_period(tmp_path, capsys):
    # the demo with time scaled by 2^-66: the grid scales exactly, so the
    # window's 503 rows are all printed, at the same scaled times
    c = 2.0**-66
    lag = {"kind": "lag", "breakpoints": [[0.0, c], [c, c], [2 * c, 5 * c]]}
    coef = {"kind": "constant", "value": 0.135 / c}
    delays = [lag, dict(lag, offset=0.1 * c)]
    body = {"period": 3 * c, "coefficients": [coef, coef], "delays": delays}
    rows = {}
    for name, config in (("tiny", write_config(tmp_path, body)), ("demo", DEMO_CONFIG)):
        assert main(["scan", config]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        rows[name] = [tuple(map(float, ln.split(","))) for ln in lines]
    assert len(rows["tiny"]) == len(rows["demo"]) == 503
    for (t, f), (t_demo, f_demo) in zip(rows["tiny"], rows["demo"]):
        assert t == t_demo * c and f == pytest.approx(f_demo, rel=1e-12)


def test_scan_says_when_the_kink_cap_is_reached(tmp_path, capsys):
    # the tent lag at L/P = 1e4 passes the kink cap, which `check` reports in
    # its notes: `scan` says so on stderr, and prints the profile alone
    body = {
        "period": 1.0,
        "coefficients": [{"kind": "constant", "value": 3e-05}],
        "delays": [{"kind": "lag", "breakpoints": [[0, 5000], [0.5, 10000]]}],
    }
    assert main(["scan", write_config(tmp_path, body), "--r", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("note: kink cap reached: past 20000 delay preimages")
    assert captured.err.count("\n") == 1
    assert captured.out.startswith("t,F\n") and len(captured.out.splitlines()) == 502
    assert main(["scan", DEMO_CONFIG, "--r", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_scan_unwritable_out(capsys):
    code = main(["scan", CONTROL_CONFIG, "--out", "/nonexistent-dir/x.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# -- simulate ---------------------------------------------------------------


def test_simulate_zero_equation(tmp_path, capsys):
    path = write_config(tmp_path, ZERO_BODY)
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", path, "--t-end", "5", "--step", "0.01", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "# sign_changes=0 first_change_t=none"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x"
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_simulate_demo_reports_first_change(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code = main(
        ["simulate", DEMO_CONFIG, "--t-end", "20", "--step", "0.002", "--out", str(out)]
    )
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("# sign_changes=2 first_change_t=4.84")


@pytest.mark.parametrize(
    "config,summary,sha",
    [
        (
            DEMO_CONFIG,
            "# sign_changes=6 first_change_t=4.8488252807368939",
            "3cad278911a88f32059150672cd7ed2e6421fedcb0fb955568b26b6791165d45",
        ),
        (
            CONTROL_CONFIG,
            "# sign_changes=0 first_change_t=none",
            "9a80ac6aea03c80e1cef7567bb5134e415bfe552b4918c8b6463209a3f2e2231",
        ),
    ],
    ids=["demo", "control"],
)
def test_simulate_defaults_pinned(tmp_path, capsys, config, summary, sha):
    # the same bytes as the benchmark's pinned references
    out = tmp_path / "traj.csv"
    assert main(["simulate", config, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == summary
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_simulate_histories(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    hist.write_text("".join(f"{t:.3f},1.0\n" for t in [-1.5, -1.0, -0.5, 0.0]))
    code = main(
        [
            "simulate",
            CONTROL_CONFIG,
            "--history",
            f"file:{hist}",
            "--t-end",
            "5",
            "--step",
            "0.01",
        ]
    )
    assert code == 0
    capsys.readouterr()

    # tabulated history too short for the demo equation's 5.1 max lag
    code = main(["simulate", DEMO_CONFIG, "--history", f"file:{hist}", "--t-end", "5"])
    assert code == 1
    assert "history" in capsys.readouterr().err


def test_simulate_history_spec_errors(tmp_path, capsys):
    nan_time = tmp_path / "nan.csv"
    nan_time.write_text("nan,1.0\n-0.5,1.0\n0.0,1.0\n")
    inf_sample = tmp_path / "inf.csv"
    inf_sample.write_text("-2.0,1.0\n-0.5,inf\n0.0,1.0\n")
    specs = ("const", "wave:1.0", "const:abc", "file:/no/such/file.csv", "const:nan",
             "const:inf", "exp:inf", f"file:{nan_time}", f"file:{inf_sample}")
    out = str(tmp_path / "x.csv")
    # exp:800 is finite, but x(-1) = e^800 is not: x overflows at the first step
    for spec, where in [*((spec, "") for spec in specs), ("exp:800", "at t=0.001")]:
        for action in ("error", "always"):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter(action, RuntimeWarning)
                assert main(["simulate", CONTROL_CONFIG, "--history", spec, "--out", out]) == 1
            captured = capsys.readouterr()
            assert not seen and captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert where in captured.err


def test_simulate_counts_sign_changes_near_the_double_range(capsys):
    # the product of neighbouring values of a history at 1e308 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        args = ["--history", "const:1e308", "--t-end", "5", "--out", "-"]
        assert main(["simulate", CONTROL_CONFIG, *args]) == 0
    assert capsys.readouterr().out.endswith("# sign_changes=0 first_change_t=none\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "delayosc", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "check" in proc.stdout and "simulate" in proc.stdout
