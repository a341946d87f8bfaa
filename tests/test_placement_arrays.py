"""The plain greedy rules against the frozen edge scans of
``oracle_engine``, on random counts and on engine states after random
events.  The types of k12 and b3 have at most 4 edges and are scanned;
those of the 48- and 428-config spaces have 15 to 321 and are scored on
the cached weight arrays."""

import math
from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st

import oracle_engine
from packing_sim.config_space import enumerate_configs
from packing_sim.optimizer import Demand
from packing_sim.simulator import (
    SimConfig,
    Simulation,
    SystemState,
    place_greedy_d,
    place_greedy_i,
)
from test_engine_oracle import PROFILE_48, PROFILE_428, b3, k12

SPACES = ("k12", "b3", "48", "428")
ALPHAS = (0.25, 1.0, 2.5)


@cache
def instance(name):
    if name == "k12":
        return k12()
    if name == "b3":
        return b3()
    space = enumerate_configs(PROFILE_48 if name == "48" else PROFILE_428)
    return space, Demand(np.ones(4), np.ones(4))


def expected_weights(counts, alpha, rule):
    """(up, down) by definition: edge (b, t) scores up[t] + down[b]."""
    if rule == "d":
        up = [x ** alpha for x in counts]
        down = [-(x ** alpha) if x else math.inf for x in counts]
    else:
        p = 1.0 + alpha
        up = [(x + 1) ** p - x ** p for x in counts]
        down = [(x - 1) ** p - x ** p if x else math.inf for x in counts]
    return up + [0.0], down + [0.0]


def assert_matches_scan(state):
    for i in range(state.space.num_types):
        assert place_greedy_d(state, i) == oracle_engine.place_greedy_d(state, i)
        assert place_greedy_i(state, i) == oracle_engine.place_greedy_i(state, i)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(SPACES), st.sampled_from(ALPHAS), st.data())
def test_placement_matches_frozen_scan(name, alpha, data):
    # Small counts give ties and empty bases; large ones distinct scores.
    space, _ = instance(name)
    n = space.num_configs
    counts = data.draw(st.lists(st.integers(0, 3) | st.integers(0, 5000),
                                min_size=n, max_size=n))
    state = SystemState.from_counts(space, alpha, counts)
    assert_matches_scan(state)
    assert sorted(state.weights) == ([] if name in ("k12", "b3") else ["d", "i"])


ENGINES = {
    "closed-d": dict(discipline="greedy-d"),
    "closed-i": dict(discipline="greedy-i"),
    "open-d": dict(mode="open", discipline="greedy-d"),
    "token-dm": dict(mode="open", discipline="greedy-dm"),
}


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from(ALPHAS), st.integers(0, 2**31 - 1), st.integers(1, 300))
def test_engine_weights_follow_counts(alpha, seed, steps):
    # Every engine on both spaces: ``_bump`` keeps every entry of the
    # rule's arrays current after every event, with no lag.
    for name in ("48", "428"):
        space, demand = instance(name)
        for engine, fields in ENGINES.items():
            sim = Simulation(SimConfig(space=space, demand=demand, r=30, alpha=alpha,
                                       seed=seed, **fields))
            rule = "i" if engine == "closed-i" else "d"
            sim._place(0)  # the engine's own rule builds its weights
            state = sim.state
            w_up, w_down = state.weights[rule]
            for _ in range(steps):
                if not sim.step():
                    break
                up, down = expected_weights(sim.X, alpha, rule)
                assert w_up.tolist() == up, engine
                assert w_down.tolist() == down, engine
            assert list(state.weights) == [rule]
            up, down = state.rule_weights(rule)
            assert up is w_up and down is w_down
            assert_matches_scan(state)
