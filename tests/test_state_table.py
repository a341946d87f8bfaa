"""The token engine's per-state records, decoded from state indexes,
against a tuple-keyed enumeration of (config, held config) pairs rebuilt
here on its own, plus the state cap and repeated engines on one space."""

import json
import math
from itertools import product
from operator import attrgetter

import numpy as np
import pytest

import oracle_engine
from packing_sim.config_space import (
    ConfigSpaceError,
    enumerate_configs,
    validate_explicit_configs,
)
from packing_sim.optimizer import Demand
from packing_sim.simulator import SimConfig, Simulation, derive_seed, run
from test_config_space_oracle import FIVE_TYPES, PROFILE_E
from test_engine_oracle import b3, k12, p48_uniform, p428

TOKEN_RATE = 1.7


def token_config(space, demand, **fields):
    fields.setdefault("r", 10)
    return SimConfig(space=space, demand=demand, alpha=1.0, mode="open",
                     discipline="greedy-dm", token_rate=TOKEN_RATE, **fields)


class Reference:
    """The states (config index, held config index or -1): configs in index
    order, the held vectors of a config in lexicographic order.  A config's
    states are enumerated when first asked for."""

    def __init__(self, space):
        self.space = space
        self.first = [0]
        for k in space.configs:
            self.first.append(self.first[-1] + math.prod(v + 1 for v in k))
        self._local = {}

    def held_of(self, k_idx):
        """The held config indexes of k's states, in state order."""
        held = self._local.get(k_idx)
        if held is None:
            space = self.space
            held = self._local[k_idx] = [
                space.index[h] if any(h) else -1
                for h in product(*(range(v + 1) for v in space.configs[k_idx]))]
        return held

    def index(self, k_idx, khat_idx):
        return self.first[k_idx] + self.held_of(k_idx).index(khat_idx)

    def states(self, k_idx):
        """(state, config index, held config index) of every state of k."""
        return [(c, k_idx, khat_idx)
                for c, khat_idx in enumerate(self.held_of(k_idx), self.first[k_idx])]


def held_plus(space, khat_idx, i):
    return space.unit_index[i] if khat_idx < 0 else space.up_index[khat_idx][i]


def check_states(sim, ref, states):
    """Every fact of the records of ``states`` against the enumeration."""
    space = sim.space
    I = space.num_types
    mu = [float(v) for v in sim.demand.service]
    first, stride = sim._cc_first, sim._cc_stride
    assert first[-1] == ref.first[-1] == len(sim.Xc)
    assert list(first) == ref.first
    for i in range(I):
        u = space.unit_index[i]
        assert first[u] == ref.index(u, -1)
        assert first[u] + stride[u * I + i] == ref.index(u, u)
    for c, k_idx, khat_idx in states:
        k = space.configs[k_idx]
        held = space.configs[khat_idx] if khat_idx >= 0 else (0,) * I
        # Left to right from 0, the order of the built-in sum.
        rate = 0
        for h, m in zip(held, mu):
            rate += h * m
        rec = rec_rate, rec_k, reps, rows, up = sim._record(c)
        assert sim._rec[c] is rec
        assert rec_rate == rate + (sum(k) - sum(held)) * TOKEN_RATE
        assert rec_k == k_idx
        # Per type an actual departure, then a token expiry; none at rate 0.
        expect_rows, expect_reps = [], []
        for i in range(I):
            k_down = space.down_index[k_idx][i]
            if held[i]:
                nxt = -1 if k_down < 0 else ref.index(k_down, space.down_index[khat_idx][i])
                expect_rows.append((held[i] * mu[i], i, True, space.edge_index(k, i), nxt))
            if k[i] > held[i]:
                nxt = -1 if k_down < 0 else ref.index(k_down, khat_idx)
                expect_rows.append(((k[i] - held[i]) * TOKEN_RATE, i, False,
                                    space.edge_index(k, i), nxt))
                expect_reps.append((i, k[i] - held[i]))
        assert rows == tuple(expect_rows)
        assert len(reps) == len(expect_reps)
        for (tree, f), (i, free) in zip(reps, expect_reps):
            assert tree is sim._rep_trees[i] and f == free
        assert len(up) == I
        for i in range(I):
            k_up = space.up_index[k_idx][i]
            # The same held vector one type-i slot up.
            assert up[i] == (-1 if k_up is None else ref.index(k_up, khat_idx))
            # One more actual customer, by the strides.
            one_more = held_plus(space, khat_idx, i)
            if held[i] < k[i]:
                assert c + stride[k_idx * I + i] == ref.index(k_idx, one_more)
            if k_up is not None:
                assert up[i] + stride[k_up * I + i] == ref.index(k_up, one_more)


@pytest.mark.parametrize("make", [k12, b3, p48_uniform, p428],
                         ids=["k12", "b3", "48", "428"])
def test_state_table_matches_enumeration(make):
    space, demand = make()
    sim = Simulation(token_config(space, demand))
    ref = Reference(space)
    check_states(sim, ref, [s for k_idx in range(space.num_configs)
                            for s in ref.states(k_idx)])
    assert None not in sim._rec


@pytest.mark.parametrize("profile", [PROFILE_E, FIVE_TYPES], ids=["profile-E", "five-types"])
def test_large_space_records_on_a_sample(profile):
    # Every state of the 20 configurations with the most states, plus
    # every 101st state.
    space = enumerate_configs(profile)
    I = space.num_types
    demand = Demand(np.ones(I), np.linspace(0.7, 1.9, I))
    sim = Simulation(token_config(space, demand))
    ref = Reference(space)
    sizes = np.diff(ref.first)
    largest = sorted(np.argsort(-sizes, kind="stable")[:20].tolist())
    sample = {}
    for c in range(0, ref.first[-1], 101):
        k_idx = int(np.searchsorted(ref.first, c, side="right")) - 1
        sample[c] = k_idx, ref.held_of(k_idx)[c - ref.first[k_idx]]
    for k_idx in largest:
        sample.update((c, (k, khat)) for c, k, khat in ref.states(k_idx))
    assert len(sample) > 3000
    check_states(sim, ref, sorted((c, k, khat) for c, (k, khat) in sample.items()))


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
