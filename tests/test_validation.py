"""Every input check raises with its own message."""

import argparse
import json
import re

import numpy as np
import pytest

from conftest import scalar_space
from packing_sim import cli
from packing_sim.config_space import (
    ConfigSpaceError,
    ResourceProfile,
    enumerate_configs,
    validate_explicit_configs,
)
from packing_sim.fluid import token_odes
from packing_sim.harness import batch_means
from packing_sim.optimizer import (
    Demand,
    StatePoint,
    class_totals,
    neutral_allocation,
    solve_aggregate_optimum,
    solve_optimum,
)
from packing_sim.simulator import AltPlacement, SimConfig, SystemState, place_greedy_ac

B3 = ResourceProfile((3.0,), ((1.0,), (2.0,)))
K12_CFG = {"space": {"configs": [[1], [2]]}, "arrival": [1.0], "service": [1.0]}


def unit_demand(n=1):
    return Demand(np.ones(n), np.ones(n))


def sim_config(**kw):
    return SimConfig(**{"space": scalar_space(2), "demand": unit_demand(), "r": 10.0,
                        "alpha": 1.0, **kw})


def write_json(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def cli_sim_config(cfg):
    return cli._sim_config(cfg, argparse.Namespace())


def cli_command(tmp, command, cfg):
    args = argparse.Namespace(config=write_json(tmp, cfg), out=str(tmp / "out"), check=False,
                              T=None, dt=None, x0=None)
    return getattr(cli, f"cmd_{command}")(args)


# A k12 config with one value of the wrong type, and the subcommand that
# reads it: each is an input error, reported as ``error: ...`` with exit 1.
BAD_VALUES = {
    "cli-alt-epsilon-type": ("simulate", {"alt_placement": {"epsilon": "abc"}},
                             "config entry 'epsilon' must be a number, got 'abc'"),
    "cli-alt-mix-type": ("simulate", {"alt_placement": {"epsilon": 0.5, "mix": "x"}},
                         "config entry 'mix' must be a number, got 'x'"),
    "cli-horizon-type": ("simulate", {"horizon": [1]},
                         r"config entry 'horizon' must be a number, got \[1\]"),
    "cli-r-type": ("simulate", {"r": [1]}, r"config entry 'r' must be a number, got \[1\]"),
    "cli-seed-type": ("experiment", {"seed": [1]},
                      r"config entry 'seed' must be a number, got \[1\]"),
    "cli-r-grid-type": ("experiment", {"r_grid": 5},
                        "config entry 'r_grid' must be a list, got 5"),
    "cli-r-grid-entry": ("experiment", {"r_grid": [[1]]},
                         r"config entry 'r_grid' must be a number, got \[1\]"),
    "cli-metrics-type": ("experiment", {"metrics": 5},
                         "config entry 'metrics' must be a list, got 5"),
    "cli-arrival-type": ("solve", {"arrival": {"a": 1}},
                         "'arrival' and 'service' must be lists of numbers"),
    "cli-space-type": ("solve", {"space": 5}, "space must be an object, got 5"),
    "cli-configs-type": ("solve", {"space": {"configs": 5}},
                         "'configs' must be a list of integer lists, got 5"),
    "cli-configs-entry": ("enumerate", {"space": {"configs": [[[1]], [2]]}},
                          "must have nonnegative integer entries"),
    "cli-x0-entry": ("fluid", {"x0": {"1": [1]}},
                     r"config entry 'x0' must be a number, got \[1\]"),
    "cli-x0-list-entry": ("fluid", {"x0": [{}, 1]},
                          r"config entry 'x0' must be a number, got \{\}"),
    "cli-x0-type": ("fluid", {"x0": 5}, "config entry 'x0' must be a list or an object, got 5"),
    "cli-profile-entry": ("enumerate", {"space": {"profile": {"B": [[3]], "b": [[1]]}}},
                          "profile dict needs 'B' and 'b' arrays"),
}


CASES = {
    "sim-discipline": (lambda tmp: sim_config(discipline="greedy-x"),
                       ValueError, "discipline must be one of"),
    "sim-types": (lambda tmp: sim_config(demand=unit_demand(2)),
                  ValueError, "disagree on the number of types"),
    "sim-horizon": (lambda tmp: sim_config(horizon=-1.0),
                    ValueError, "horizon and burn_in must be nonnegative"),
    "sim-burn-in": (lambda tmp: sim_config(burn_in=-1.0),
                    ValueError, "horizon and burn_in must be nonnegative"),
    "sim-interval": (lambda tmp: sim_config(sample_interval=0.0),
                     ValueError, "sample_interval must be positive"),
    "sim-token-rate": (lambda tmp: sim_config(mode="open", discipline="greedy-dm",
                                              token_rate=0.0),
                       ValueError, "token_rate must be positive"),
    "demand-shape": (lambda tmp: Demand(np.ones(2), np.ones(3)),
                     ValueError, "1-d arrays of equal length"),
    "state-alpha": (lambda tmp: StatePoint(np.ones(2), 0.0), ValueError, "alpha must be positive"),
    "solve-alpha": (lambda tmp: solve_optimum(scalar_space(2), unit_demand(), 0.0),
                    ValueError, "alpha must be positive"),
    "aggregate-alpha": (lambda tmp: solve_aggregate_optimum(
        enumerate_configs(B3), unit_demand(2), -1.0), ValueError, "alpha must be positive"),
    "neutral-off-polytope": (lambda tmp: neutral_allocation(
        scalar_space(2), StatePoint(np.array([5.0, 5.0]), 1.0), unit_demand()),
        ValueError, "off the feasible polytope"),
    "profile-keys": (lambda tmp: ResourceProfile.from_dict({"B": [1.0]}),
                     ConfigSpaceError, "needs 'B' and 'b' arrays"),
    "configs-length": (lambda tmp: validate_explicit_configs([(1,), (1, 0)]),
                       ConfigSpaceError, r"has 2 entries, expected 1"),
    "configs-negative": (lambda tmp: validate_explicit_configs([(1,), (-1,)]),
                         ConfigSpaceError, "nonnegative integer entries"),
    "configs-fraction": (lambda tmp: validate_explicit_configs([(1,), (1.5,)]),
                         ConfigSpaceError, "nonnegative integer entries"),
    "configs-empty": (lambda tmp: validate_explicit_configs([]),
                      ConfigSpaceError, "empty configuration set"),
    "configs-profile-types": (lambda tmp: validate_explicit_configs([(1,)], profile=B3),
                              ConfigSpaceError, "profile has 2 types, configurations have 1"),
    "token-odes-start": (lambda tmp: token_odes(unit_demand(), 1.0, [-1.0], [0.0], 1.0, 0.1),
                         ValueError, "initial values must be nonnegative"),
    "state-counts": (lambda tmp: SystemState.from_counts(scalar_space(2), 1.0, [1]),
                     ValueError, "need 2 counts"),
    "class-placement-no-classes": (lambda tmp: place_greedy_ac(
        SystemState.from_counts(scalar_space(2), 1.0, [1, 0]), 0, None),
        ConfigSpaceError, "space has no aggregate classes"),
    "class-totals-no-classes": (lambda tmp: class_totals(scalar_space(2), [0.5, 0.25]),
                                ConfigSpaceError, "space has no aggregate classes"),
    "cli-not-object": (lambda tmp: cli._load(write_json(tmp, [K12_CFG])),
                       ValueError, "config must be a JSON object"),
    "cli-no-space": (lambda tmp: cli_sim_config({"arrival": [1.0], "service": [1.0]}),
                     ValueError, "config needs a 'space' entry"),
    "cli-no-arrival": (lambda tmp: cli_sim_config({"space": K12_CFG["space"], "service": [1.0]}),
                       ValueError, "config needs an 'arrival' entry"),
    "cli-alt-epsilon": (lambda tmp: cli_sim_config({**K12_CFG, "alt_placement": {"epsilon": 0}}),
                        ValueError, r"epsilon must lie in \(0, 1\]"),
    "cli-alt-mix": (lambda tmp: cli_sim_config(
        {**K12_CFG, "alt_placement": {"epsilon": 0.5, "mix": 2.0}}),
        ValueError, r"mix must lie in \[0, 1\]"),
    "cli-alt-no-epsilon": (lambda tmp: cli_sim_config({**K12_CFG, "alt_placement": {"mix": 0.5}}),
                           ValueError, "alt_placement must be an object with an 'epsilon' entry"),
    "cli-alt-not-object": (lambda tmp: cli_sim_config({**K12_CFG, "alt_placement": 0.5}),
                           ValueError, "alt_placement must be an object with an 'epsilon' entry"),
    "batch-means-zero": (lambda tmp: batch_means(np.ones(10), 0),
                         ValueError, "num_batches must be at least 1, got 0"),
    "batch-means-negative": (lambda tmp: batch_means(np.ones(10), -1),
                             ValueError, "num_batches must be at least 1, got -1"),
}
CASES.update({
    name: (lambda tmp, command=command, bad=bad: cli_command(tmp, command, {**K12_CFG, **bad}),
           ValueError, match)
    for name, (command, bad, match) in BAD_VALUES.items()
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_invalid_input_raises_its_message(name, tmp_path):
    build, exc, match = CASES[name]
    with pytest.raises(exc, match=match):
        build(tmp_path)


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_cli_reports_bad_value_without_traceback(name, tmp_path, capsys):
    command, bad, match = BAD_VALUES[name]
    assert cli.main([command, "--config", write_json(tmp_path, {**K12_CFG, **bad})]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(match, err)
    assert "Traceback" not in err


def test_cli_fluid_x0_flag_reports_bad_entry(tmp_path, capsys):
    # The list form of --x0, like the config entry, converts entry by entry.
    assert cli.main(["fluid", "--config", write_json(tmp_path, K12_CFG),
                     "--x0", "[{}, 1]"]) == 1
    err = capsys.readouterr().err
    assert err == "error: config entry 'x0' must be a number, got {}\n"


def test_cli_parses_alt_placement():
    config = cli_sim_config({**K12_CFG, "alt_placement": {"epsilon": 0.25, "mix": 0.5}})
    assert config.alt_placement == AltPlacement(epsilon=0.25, mix=0.5)
    assert cli_sim_config({**K12_CFG, "alt_placement": {"epsilon": 1}}).alt_placement.mix == 0.0
