"""The token engine's flat server-state table and per-state records against
the tuple-keyed enumeration of (config, held config) pairs, rebuilt here on
its own, plus the state cap and repeated engines on one space."""

import json
from itertools import product
from operator import attrgetter, sub

import numpy as np
import pytest

import oracle_engine
from packing_sim.config_space import ConfigSpaceError, validate_explicit_configs
from packing_sim.optimizer import Demand
from packing_sim.simulator import SimConfig, Simulation, derive_seed, run
from test_engine_oracle import b3, k12, p48_uniform, p428

TOKEN_RATE = 1.7


def token_config(space, demand, **fields):
    fields.setdefault("r", 10)
    return SimConfig(space=space, demand=demand, alpha=1.0, mode="open",
                     discipline="greedy-dm", token_rate=TOKEN_RATE, **fields)


def reference_states(space):
    """Every (config index, held config index or -1), held vectors in
    lexicographic order within a config, and the index of each pair."""
    states = []
    for k_idx, k in enumerate(space.configs):
        for held in product(*(range(v + 1) for v in k)):
            states.append((k_idx, space.index[held] if any(held) else -1))
    return states, {key: c for c, key in enumerate(states)}


def held_plus(space, khat_idx, i):
    return space.unit_index[i] if khat_idx < 0 else space.up_index[khat_idx][i]


@pytest.mark.parametrize("make", [k12, b3, p48_uniform, p428],
                         ids=["k12", "b3", "48", "428"])
def test_state_table_matches_enumeration(make):
    space, demand = make()
    sim = Simulation(token_config(space, demand))
    states, index = reference_states(space)
    I = space.num_types
    mu = [float(v) for v in demand.service]
    first, stride = sim._cc_first, sim._cc_stride
    up, down = sim._cc_up, sim._cc_down
    assert first[-1] == len(states) == len(sim.Xc)
    for i in range(I):
        u = space.unit_index[i]
        assert first[u] == index[(u, -1)]
        assert first[u] + stride[u * I + i] == index[(u, u)]
    for c, (k_idx, khat_idx) in enumerate(states):
        k = space.configs[k_idx]
        held = space.configs[khat_idx] if khat_idx >= 0 else (0,) * I
        row = slice(c * I, (c + 1) * I)
        assert sim._cc_config[c] == k_idx
        assert tuple(sim._cc_held[row]) == held
        assert tuple(sim._cc_free[row]) == tuple(map(sub, k, held))
        # Left to right from 0, the order of the built-in sum.
        rate = 0
        for h, m in zip(held, mu):
            rate += h * m
        rec_rate, rec_k, reps, rows = sim._record(c)
        assert rec_rate == rate + (sum(k) - sum(held)) * TOKEN_RATE
        assert rec_k == k_idx
        # Per type an actual departure, then a token expiry; none at rate 0.
        expect_rows, expect_reps = [], []
        for i in range(I):
            k_down = space.down_index[k_idx][i]
            if held[i]:
                nxt = -1 if k_down < 0 else index[(k_down, space.down_index[khat_idx][i])]
                expect_rows.append((held[i] * mu[i], i, True, space.edge_index(k, i), nxt))
            if k[i] > held[i]:
                nxt = -1 if k_down < 0 else index[(k_down, khat_idx)]
                expect_rows.append(((k[i] - held[i]) * TOKEN_RATE, i, False,
                                    space.edge_index(k, i), nxt))
                expect_reps.append((i, k[i] - held[i]))
        assert rows == tuple(expect_rows)
        assert len(reps) == len(expect_reps)
        for (tree, f), (i, free) in zip(reps, expect_reps):
            assert tree is sim._rep_trees[i] and f == free
        for i in range(I):
            k_up = space.up_index[k_idx][i]
            k_down = space.down_index[k_idx][i]
            # The same held vector one type-i slot up or down.
            assert up[c * I + i] == (-1 if k_up is None else index[(k_up, khat_idx)])
            fits = k_down is not None and k_down >= 0 and held[i] < k[i]
            assert down[c * I + i] == (index[(k_down, khat_idx)] if fits else -1)
            # One more or one fewer actual customer, by the strides.
            one_more = held_plus(space, khat_idx, i)
            if held[i] < k[i]:
                assert c + stride[k_idx * I + i] == index[(k_idx, one_more)]
            if k_up is not None:
                assert up[c * I + i] + stride[k_up * I + i] == index[(k_up, one_more)]
            if held[i]:
                fewer = c - stride[k_idx * I + i]
                expect = -1 if k_down < 0 else index[(k_down, space.down_index[khat_idx][i])]
                assert down[fewer * I + i] == expect


def test_token_cells_share_one_space():
    # As in an experiment: one space object, one engine per cell.
    space, demand = p428()
    for ri, r in enumerate((10, 30, 20)):
        cfg = token_config(space, demand, r=r, seed=derive_seed(428, ri, 0),
                           horizon=3.0, burn_in=1.0, sample_interval=0.1)
        new = run(cfg)
        old = oracle_engine.run(cfg)
        assert new.summary["n_events"] > 0
        assert json.dumps(new.summary, sort_keys=True) == json.dumps(old.summary,
                                                                     sort_keys=True)
        state = attrgetter("t", "x", "y", "yhat", "ytilde")
        assert list(map(state, new.snapshots)) == list(map(state, old.snapshots))
        assert vars(new.snapshots[-1]) == vars(old.snapshots[-1])


def test_state_cap():
    space, demand = b3()  # 15 complete states
    with pytest.raises(ConfigSpaceError, match="more than 14 server states"):
        Simulation(token_config(space, demand, max_complete_configs=14))
    cfg = token_config(space, demand, max_complete_configs=15, horizon=5.0, burn_in=1.0)
    assert run(cfg).summary["n_events"] > 0


def test_default_cap_stops_before_building():
    # 2,000 scalar configs have 2,003,000 states: over the default cap of 1M.
    space = validate_explicit_configs([(j,) for j in range(1, 2001)])
    with pytest.raises(ConfigSpaceError, match="more than 1000000 server states"):
        Simulation(token_config(space, Demand(np.ones(1), np.ones(1))))
