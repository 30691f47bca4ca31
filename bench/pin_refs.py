"""Regenerate ``refs.json``: the reference outputs the checker pins.

    PYTHONPATH=src python3 bench/pin_refs.py

Runs, through the CLI, every ``check`` on a shipped config and every
default ``simulate`` that the benchmark runs, and records the verdicts,
values, exit codes, summary lines and CSV digests.  Only rerun this when a
change is meant to alter those outputs, and say so in the change.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import gen  # noqa: E402
from delayosc import cli  # noqa: E402
from ops import DEEP_GRID, DEPTHS  # noqa: E402

CHECKS = [("demo", 1, None), ("demo", 2, DEEP_GRID), ("demo", 3, DEEP_GRID)]
CHECKS += [("control", r, None) for r in DEPTHS]


def main() -> int:
    refs = {"check": {}, "simulate": {}}
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.write_configs(tmp, {"demo": gen.DEMO, "control": gen.CONTROL})
        out = os.path.join(tmp, "out")
        for cfg, r, grid in CHECKS:
            argv = ["check", paths[cfg], "--r", str(r), "--out", out]
            key = f"check.{cfg}.r{r}"
            if grid is not None:
                argv += ["--grid", str(grid)]
                key += f".grid{grid}"
            code = cli.main(argv)
            with open(out, encoding="utf-8") as fh:
                rep = json.load(fh)
            refs["check"][key] = {
                "exit_code": code,
                "overall": rep["overall"],
                "witness": rep["witness"],
                "alpha": rep["alpha"],
                "lambda0": rep["lambda0"],
                "criteria": [
                    {"name": c["name"], "value": c["value"], "threshold": c["threshold"]}
                    for c in rep["criteria"]
                ],
            }
            print(key, rep["overall"], rep["witness"], flush=True)
        for cfg in ("demo", "control"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["simulate", paths[cfg], "--out", out])
            if code != 0:
                raise SystemExit(f"simulate {cfg} exited with code {code}")
            refs["simulate"][cfg] = {
                "summary": buf.getvalue().strip(),
                "csv_sha256": checker.sha256_of(out),
            }
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
