"""The event engine against its frozen predecessor (``oracle_engine``),
plus engine edge cases: draw overshoot and invariants under ``python -O``."""

import json
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import oracle_engine
from packing_sim.config_space import (
    ResourceProfile,
    enumerate_configs,
    validate_explicit_configs,
)
from packing_sim.optimizer import Demand
from packing_sim.simulator import (
    AltPlacement,
    SimConfig,
    Simulation,
    SystemState,
    place_greedy_ac,
    run,
)

PROFILE_48 = ResourceProfile((1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05)))
PROFILE_428 = ResourceProfile(
    (1.0, 1.0), ((0.15, 0.05), (0.05, 0.15), (0.1, 0.1), (0.2, 0.03))
)


def k12():
    return validate_explicit_configs([(1,), (2,)]), Demand(np.ones(1), np.ones(1))


def b3(service=(1.0, 1.0)):
    space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
    return space, Demand(np.array([0.5, 0.25]), np.array(service))


def p48_uniform():
    # Non-integer arrival and service rates: tree sums and linear scans
    # then round differently, and the runs must still agree.
    rng = np.random.default_rng(48)
    demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
    return enumerate_configs(PROFILE_48), demand


def p428():
    return enumerate_configs(PROFILE_428), Demand(np.ones(4), np.ones(4))


def partial_admission():
    # Class {(0,1), (2,0)} admits type 0 only through (2,0): (1,1) is not
    # in the space.
    space = validate_explicit_configs([(1, 0), (2, 0), (3, 0), (0, 1)],
                                      profile=ResourceProfile((4.0,), ((1.0,), (2.0,))))
    return space, Demand(np.array([1.0, 0.5]), np.ones(2))


CASES = {
    "k12-closed-d": (k12, dict(r=1000, seed=1, horizon=30.0, burn_in=5.0)),
    "k12-closed-i": (k12, dict(r=1000, seed=2, horizon=30.0, burn_in=5.0,
                               discipline="greedy-i")),
    "k12-closed-alt": (k12, dict(r=1000, seed=3, horizon=30.0, burn_in=5.0,
                                 alt_placement=AltPlacement(0.5))),
    "b3-token-ac": (b3, dict(r=1000, seed=4, horizon=20.0, burn_in=5.0, mode="open",
                             discipline="greedy-dm-ac", token_rate=20.0)),
    # Criterion 5's instance shape.
    "k12-token": (k12, dict(r=1000, seed=12, horizon=20.0, burn_in=5.0, mode="open",
                            discipline="greedy-dm", token_rate=1.0)),
    # Non-integral departure and expiry coefficients on a small space.
    "b3-token-dm": (lambda: b3((0.7, 1.3)), dict(r=1000, seed=13, horizon=20.0, burn_in=5.0,
                                                 mode="open", discipline="greedy-dm",
                                                 token_rate=1.7)),
    "b3-closed-d": (b3, dict(r=1000, seed=10, horizon=20.0, burn_in=5.0)),
    "b3-open-i": (lambda: b3((0.7, 1.3)), dict(r=1000, seed=5, horizon=20.0, burn_in=5.0,
                                               mode="open", discipline="greedy-i")),
    "p48-closed-d-ac": (p48_uniform, dict(r=500, seed=6, horizon=4.0, burn_in=1.0,
                                          sample_interval=0.2, discipline="greedy-d-ac")),
    "p48-closed-i": (p48_uniform, dict(r=500, seed=11, horizon=4.0, burn_in=1.0,
                                       sample_interval=0.2, discipline="greedy-i")),
    "p48-token": (p48_uniform, dict(r=200, seed=7, horizon=4.0, burn_in=1.0,
                                    sample_interval=0.2, mode="open",
                                    discipline="greedy-dm", token_rate=1.7)),
    "p428-closed-d": (p428, dict(r=400, seed=8, horizon=3.0, burn_in=1.0,
                                 sample_interval=0.1)),
    "p428-token": (p428, dict(r=30, seed=9, horizon=3.0, burn_in=1.0,
                              sample_interval=0.1, mode="open", discipline="greedy-dm")),
    "partial-closed-d-ac": (partial_admission, dict(r=50, seed=3, horizon=20.0, burn_in=2.0,
                                                    discipline="greedy-d-ac")),
}


def assert_matches_oracle(cfg):
    new = run(cfg)
    old = oracle_engine.run(cfg)
    assert new.summary["n_events"] > 0
    assert json.dumps(new.summary, sort_keys=True) == json.dumps(old.summary, sort_keys=True)
    assert len(new.snapshots) == len(old.snapshots)
    if new.snapshots:
        assert vars(new.snapshots[-1]) == vars(old.snapshots[-1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_frozen_engine(name):
    make, fields = CASES[name]
    space, demand = make()
    assert_matches_oracle(SimConfig(space=space, demand=demand, alpha=1.0, **fields))


def test_token_engines_with_other_rates_share_one_space():
    # A, then B, then A again on one space object: the state rates belong
    # to each engine, not to the space.
    space, _ = b3()
    fields = dict(r=300, alpha=1.0, horizon=10.0, burn_in=2.0, mode="open",
                  discipline="greedy-dm")
    a = dict(demand=Demand(np.array([0.5, 0.25]), np.array([1.0, 1.0])), token_rate=20.0,
             seed=14)
    b = dict(demand=Demand(np.array([0.5, 0.25]), np.array([0.7, 1.3])), token_rate=1.7,
             seed=15)
    for rates in (a, b, a):
        assert_matches_oracle(SimConfig(space=space, **rates, **fields))


def test_class_rule_skips_a_class_that_cannot_admit_the_type():
    space, _ = partial_admission()
    agg = space.aggregates
    q = agg.class_of[space.config_index((0, 1))]
    assert agg.class_of[space.config_index((2, 0))] == q
    counts = [0] * space.num_configs
    counts[space.config_index((0, 1))] = 2
    counts[space.config_index((1, 0))] = 1
    state = SystemState.from_counts(space, 1.0, counts)
    # As a candidate, class q would score S[class of (3,0)] - S[q] = 0 - 2
    # and win; with (2,0) empty no member of q can take type 0.
    for seed in range(5):
        got = place_greedy_ac(state, 0, random.Random(seed))
        assert got[0] != q
        assert got == oracle_engine.place_greedy_ac(state, 0, random.Random(seed))


def test_empty_closed_system_samples_to_the_horizon():
    # At r = 0.1 every closed population rounds to 0: no event can occur.
    space, demand = k12()
    cfg = SimConfig(space=space, demand=demand, r=0.1, alpha=1.0, horizon=3.0, burn_in=1.0)
    assert not Simulation(cfg).step()
    res = run(cfg)
    assert res.summary["n_events"] == 0
    assert res.summary["final_time"] == 3.0
    assert [s.t for s in res.snapshots] == [1.5, 2.0, 2.5, 3.0]
    assert all(s.x == {} for s in res.snapshots)


def _engines():
    space = validate_explicit_configs([(1,), (2,)])
    d = Demand(np.ones(1), np.ones(1))
    return {
        "closed": Simulation(SimConfig(space=space, demand=d, r=10, alpha=1.0)),
        "open": Simulation(SimConfig(space=space, demand=d, r=10, alpha=1.0,
                                     mode="open", discipline="greedy-d")),
        "token": Simulation(SimConfig(space=space, demand=d, r=10, alpha=1.0,
                                      mode="open", discipline="greedy-dm")),
    }


@pytest.mark.parametrize("mode", ["closed", "open", "token"])
def test_draw_at_total_falls_back_to_last_positive_leaf(mode):
    # u equal to the total overshoots every slice; the event must still be
    # one with positive rate (the closed engine holds only singles, the
    # empty open engines only arrivals).
    sim = _engines()[mode]
    space = sim.space
    idle = [e for e in range(space.num_edges) if sim.X[space.edge_target[e]] == 0]
    sim._apply(sim.total_rate())
    assert all(sim.departures[e] == 0 for e in idle)
    counts = sim.X + sim.Yhat + sim.Ytilde + (sim.Xc if mode == "token" else [])
    assert min(counts) >= 0
    assert sim.total_rate() == pytest.approx(sim._analytic_rate())


@pytest.mark.parametrize("make", [lambda: b3(service=(0.7, 1.3)), p428], ids=["b3", "428"])
def test_edge_leaves_are_the_per_edge_rates(make):
    # Leaf of edge (k, i): k_i times mu_i, the float numpy's product gives.
    space, demand = make()
    mu = demand.service
    size = None
    for mode in ("closed", "open"):
        sim = Simulation(SimConfig(space=space, demand=demand, r=100, alpha=1.0, mode=mode))
        size = sim._size
        expect = [[] for _ in space.configs]
        for e, (i, t) in enumerate(zip(space.edge_type, space.edge_target)):
            expect[t].append((size + space.num_types + e, float(space.configs[t][i] * mu[i])))
        assert list(map(list, sim._into)) == expect
        assert all(type(coef) is float for leaves in sim._into for _, coef in leaves)
    token = Simulation(SimConfig(space=space, demand=demand, r=100, alpha=1.0, mode="open",
                                 discipline="greedy-dm"))
    assert not hasattr(token, "_into")


def test_departure_remainder_past_last_row_takes_it():
    # One server in state (2,) with h = 1: rows are the customer's departure
    # (mu 1) and the token's expiry (mu0 1).  u equal to the total leaves a
    # remainder past both rows, which must take the last one: the expiry.
    sim = _engines()["token"]
    k2 = sim.space.config_index((2,))
    sim._cc_move(-1, sim._cc_first[k2] + sim._cc_stride[k2])
    sim.Yhat[0] = 1
    sim.Ytilde[0] = 1
    sim._apply(sim.total_rate())
    assert sum(sim.exp_dep) == 1
    assert sim.Ytilde[0] == 0
    assert sim.Yhat[0] == 1
    assert sim.total_rate() == sim._analytic_rate()


def test_invariants_survive_optimize_flag():
    code = textwrap.dedent("""
        import numpy as np
        from packing_sim import Demand, InvariantError, SimConfig, Simulation
        from packing_sim.config_space import validate_explicit_configs
        assert False, "assertions must be off under -O"
        space = validate_explicit_configs([(1,), (2,)])
        sim = Simulation(SimConfig(space=space, demand=Demand(np.ones(1), np.ones(1)),
                                   r=10, alpha=1.0))
        sim._bump(-1, 0, 5)
        try:
            for _ in range(20):
                sim.step()
        except InvariantError as exc:
            print("InvariantError:", exc)
        else:
            print("stepped on")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("InvariantError: event-rate bookkeeping drifted")
