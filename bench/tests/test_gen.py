import json
import os

import pytest

import gen
from delayosc.cli import load_equation


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_same_seed_same_configs(seed):
    assert json.dumps(gen.configs_for(seed)) == json.dumps(gen.configs_for(seed))


def test_seed_moves_parameters():
    drawn = {json.dumps(gen.configs_for(s)["piecewise"]) for s in range(5)}
    assert len(drawn) == 5


@pytest.mark.parametrize("seed", range(12))
def test_families_keep_their_lag_ratio(tmp_path, seed):
    paths = gen.write_configs(tmp_path, gen.configs_for(seed))
    const = load_equation(paths["const"])
    assert const.max_lag / const.period == 100.0
    piecewise = load_equation(paths["piecewise"])
    assert piecewise.max_lag / piecewise.period == 20.0


def test_shipped_configs_are_copied_verbatim(tmp_path):
    paths = gen.write_configs(tmp_path, gen.configs_for(3))
    for name, shipped in (("demo", "two_delay_sawtooth"), ("control", "single_lag_control")):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(gen.__file__)))
        with open(paths[name]) as a, open(os.path.join(repo, "configs", f"{shipped}.json")) as b:
            assert json.load(a) == json.load(b)
