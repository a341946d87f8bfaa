"""The optimizer against its frozen predecessor (``oracle_optimizer``).

The aggregate (Phi) solver must solve every instance the frozen solver
solves, at a value no higher than the frozen one plus 1e-7, and its
failures must be fewer and carry a state.  The projection must succeed
wherever the frozen one does, no farther from the projected point.  The
class functions must agree byte for byte on random states.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_optimizer as oracle
import oracle_phi
from packing_sim.config_space import ResourceProfile, enumerate_configs
from packing_sim.optimizer import (
    Demand,
    NonconvergenceError,
    StatePoint,
    aggregate_objective,
    class_totals,
    project_to_polytope,
    solve_aggregate_optimum,
)

ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
SPACES = {
    "b3": enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,)))),
    "p48": enumerate_configs(
        ResourceProfile((1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05)))
    ),
    "p428": enumerate_configs(
        ResourceProfile((1.0, 1.0), ((0.15, 0.05), (0.05, 0.15), (0.1, 0.1), (0.2, 0.03)))
    ),
}


def uniform_demand(seed):
    rng = np.random.default_rng(seed)
    return Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))


# Draws 3 and 5 include instances where the frozen solver fails: a
# duality-gap failure (draw 3, alpha 0.25) and projection failures that
# carry no state (alpha 2 and 4).
INSTANCES = (
    [("b3", Demand(np.array([0.5, 0.25]), np.ones(2)), a) for a in ALPHAS]
    + [("p48", uniform_demand(seed), a) for seed in (3, 5) for a in ALPHAS]
    + [("p428", Demand(np.ones(4), np.ones(4)), 1.0)]
)


def close(new, old, rel=1e-12):
    return np.max(np.abs(np.asarray(new) - old), initial=0.0) <= rel * np.max(np.abs(old))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", ["p48", "p428"])
def test_phi_iteration_matches_frozen_solver(name, alpha):
    # The iteration that forms the K columns of W^-1 [K, r] once and reads
    # the duality gap last against the one before it: the same optimum.
    space = SPACES[name]
    for demand in (Demand(np.ones(4), np.ones(4)), uniform_demand(21), uniform_demand(22)):
        got = outcome(solve_aggregate_optimum, space, demand, alpha)
        ref = outcome(oracle_phi.solve_aggregate_optimum, space, demand, alpha)
        if isinstance(ref, NonconvergenceError):
            assert isinstance(got, NonconvergenceError) and str(got) == str(ref)
            continue
        (state, value), (ref_state, ref_value) = got, ref
        assert close(value, ref_value)
        assert close(state.x, ref_state.x)


def outcome(solver, space, demand, alpha):
    """The state and value, or the error."""
    try:
        return solver(space, demand, alpha)
    except NonconvergenceError as exc:
        return exc


@pytest.mark.parametrize(
    "name,demand,alpha", INSTANCES,
    ids=[f"{name}-{i}-alpha{a}" for i, (name, _, a) in enumerate(INSTANCES)],
)
def test_solve_aggregate_matches_oracle(name, demand, alpha):
    space = SPACES[name]
    got = outcome(solve_aggregate_optimum, space, demand, alpha)
    ref = outcome(oracle.solve_aggregate_optimum, space, demand, alpha)
    if isinstance(got, NonconvergenceError):
        assert isinstance(ref, NonconvergenceError), f"frozen solver solves: {got}"
        assert got.state is not None
        return
    if not isinstance(ref, NonconvergenceError):
        assert got[1] <= ref[1] + 1e-7


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", sorted(SPACES))
def test_projection_no_worse_than_oracle(name, seed):
    """Random feasible polytopes of the three spaces and points z at scales
    1e-3 to 1e6."""
    space = SPACES[name]
    A = space.constraint_matrix
    rng = np.random.default_rng(seed)
    for _ in range(10):
        b = A @ (rng.uniform(0.0, 1.0, space.num_configs) * (rng.random(space.num_configs) < 0.3))
        z = rng.normal(size=space.num_configs) * 10.0 ** rng.uniform(-3, 6)
        try:
            ref = oracle.project_to_polytope(A, b, z)
        except NonconvergenceError:
            continue
        x = project_to_polytope(A, b, z)
        assert np.min(x) >= 0.0
        # An exact solve on the optimal face leaves rounding only.
        assert float(np.max(np.abs(A @ x - b))) <= 1e-13 * max(1.0, float(np.max(np.abs(z))))
        assert (x - z) @ (x - z) <= (ref - z) @ (ref - z) * (1.0 + 1e-12)


@st.composite
def random_states(draw):
    space = SPACES[draw(st.sampled_from(["b3", "p48", "p428"]))]
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = space.num_configs
    x = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 2, n)
    # Exact zeros, so that idle members and empty classes occur.
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    alpha = draw(st.sampled_from(ALPHAS + (0.7, 3.3)))
    return space, StatePoint(x, alpha)


@settings(max_examples=100, deadline=None)
@given(random_states())
def test_class_functions_match_oracle(case):
    space, state = case
    x = state.x
    assert class_totals(space, x).tobytes() == oracle.class_totals(space, x).tobytes()
    assert aggregate_objective(space, state) == oracle.aggregate_objective(space, state)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_members_ascend_in_lexicographic_order(name):
    space = SPACES[name]
    agg = space.aggregates
    table = agg.member_table
    assert table.shape == (agg.num_classes, max(len(m) for m in agg.members))
    for q in range(1, agg.num_classes + 1):
        members = agg.members[q]
        configs = [space.configs[t] for t in members]
        assert configs == sorted(configs) and len(set(configs)) == len(configs)
        row = table[q - 1].tolist()
        assert row == list(members) + [space.num_configs] * (table.shape[1] - len(members))
