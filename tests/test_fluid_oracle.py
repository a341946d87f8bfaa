"""The fluid layer against its frozen predecessor (``oracle_fluid``):
Euler paths and greedy rate allocations must agree to 1e-12."""

from functools import lru_cache

import numpy as np
import pytest

import oracle_fluid
import oracle_optimizer
from packing_sim import fluid, optimizer
from packing_sim.config_space import (
    ResourceProfile,
    enumerate_configs,
    validate_explicit_configs,
)
from packing_sim.fluid import DEFAULT_FEAS_EPS, greedy_rate_allocation, integrate
from packing_sim.optimizer import Demand, StatePoint, objective

PROFILE_48 = ResourceProfile((1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05)))
PROFILE_428 = ResourceProfile(
    (1.0, 1.0), ((0.15, 0.05), (0.05, 0.15), (0.1, 0.1), (0.2, 0.03))
)
ALPHAS = [0.25, 0.5, 1.0, 2.0, 4.0]
TOL = 1e-12


@lru_cache(maxsize=None)
def instance(name):
    if name == "k12":
        return validate_explicit_configs([(1,), (2,)]), Demand(np.ones(1), np.ones(1))
    if name == "b3":
        space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
        return space, Demand(np.array([0.5, 0.25]), np.ones(2))
    if name == "48":
        return enumerate_configs(PROFILE_48), Demand(np.ones(4), np.ones(4))
    if name == "48-mixed":
        return enumerate_configs(PROFILE_48), Demand(np.array([0.7, 1.9, 0.4, 1.3]),
                                                     np.array([1.1, 0.6, 2.2, 0.9]))
    return enumerate_configs(PROFILE_428), Demand(np.ones(4), np.ones(4))


@lru_cache(maxsize=None)
def oracle_path(name, alpha):
    space, demand = instance(name)
    x0 = np.zeros(space.num_configs)
    x0[list(space.unit_index)] = demand.rho
    return x0, oracle_fluid.integrate(space, x0, demand, alpha, horizon=5.0, dt=0.01)


def assert_same_allocation(space, demand, x, alpha):
    st = StatePoint(x, alpha)
    got = greedy_rate_allocation(space, st, demand)
    want = oracle_fluid.greedy_rate_allocation(space, st, demand).gamma
    assert np.max(np.abs(got - want)) <= TOL


NAMES = ["k12", "b3", "48", "48-mixed", "428"]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", NAMES)
def test_integrate_follows_oracle(name, alpha):
    space, demand = instance(name)
    x0, want = oracle_path(name, alpha)
    got = integrate(space, x0, demand, alpha, horizon=5.0, dt=0.01)
    assert np.array_equal(got.times, want.times)
    assert got.states.shape == want.states.shape
    assert np.max(np.abs(got.states - want.states)) <= TOL
    assert np.max(np.abs(got.objective_values - want.objective_values)) <= TOL


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", NAMES)
def test_objective_values_are_the_objective_of_each_state(name, alpha):
    # integrate computes the whole column in one pass; it must give the
    # bits that objective() gives row by row.
    space, demand = instance(name)
    x0, _ = oracle_path(name, alpha)
    got = integrate(space, x0, demand, alpha, horizon=5.0, dt=0.01)
    want = [objective(StatePoint(x, alpha)) for x in got.states]
    assert np.array_equal(got.objective_values, want)


@pytest.mark.parametrize("name,calls", [("48", 347), ("428", 657)])
def test_projections_met_along_fluid_paths(monkeypatch, name, calls):
    """Every clip-and-project of the alpha sweep against the active-set
    oracle, with the branch each projection took: the face {z > 0} at
    once, or the fallback through dual Newton."""
    space, demand = instance(name)
    x0, _ = oracle_path(name, 1.0)
    real_project, real_face, real_newton = (
        optimizer.project_to_polytope, optimizer._face_projection, optimizer._dual_newton)
    seen, branch = [], {}

    def face(*a):
        branch["faces"] += 1
        return real_face(*a)

    def newton(*a, **kw):
        branch["newton"] = True
        return real_newton(*a, **kw)

    def project(A, b, z):
        branch.update(faces=0, newton=False)
        x = real_project(A, b, z)
        seen.append((A, b, z.copy(), x, dict(branch)))
        return x

    monkeypatch.setattr(optimizer, "_face_projection", face)
    monkeypatch.setattr(optimizer, "_dual_newton", newton)
    monkeypatch.setattr(fluid, "project_to_polytope", project)
    for alpha in ALPHAS:
        integrate(space, x0, demand, alpha, horizon=5.0, dt=0.01)
    assert len(seen) == calls
    for A, b, z, x, _ in seen:
        scale = max(1.0, np.abs(b).max(), np.abs(z).max())
        assert np.max(np.abs(x - oracle_optimizer.project_to_polytope(A, b, z))) <= TOL
        assert np.max(np.abs(A @ x - b)) <= 1e-13 * scale
    taken = [br for *_, br in seen]
    assert {"faces": 1, "newton": False} in taken
    assert any(br["newton"] for br in taken)


def test_flows_buffer_does_not_leak():
    space, demand = instance("48")
    flows = fluid._greedy_flows(space, demand, 1.0)
    x0, path = oracle_path("48", 1.0)
    x1, x2 = path.states[100], path.states[-1]
    first = flows(x1)
    kept = [a.copy() for a in first]
    flows(x2)
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)
    start = x0.copy()
    got = integrate(space, x0, demand, 1.0, horizon=1.0, dt=0.01)
    assert np.array_equal(got.states[0], start)
    assert np.array_equal(x0, start)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", NAMES)
def test_allocation_along_oracle_path(name, alpha):
    space, demand = instance(name)
    _, path = oracle_path(name, alpha)
    for x in path.states[::25]:
        assert_same_allocation(space, demand, x, alpha)


class TestHandStates:
    """Exact zeros, exact ties, near ties and the availability threshold."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [
        [0.0, 0.0],
        [0.4, 0.0],
        [0.0, 0.5],
        [0.25, 0.5],            # alpha 1: both edges differ by exactly 0.25
        [0.25, 0.5 + 5e-11],    # within the tie tolerance
        [0.25, 0.5 + 2e-10],    # just outside it
        [0.25, 0.5 - 2e-10],
        [DEFAULT_FEAS_EPS, 0.0],      # base at the threshold: unavailable
        [2 * DEFAULT_FEAS_EPS, 0.0],
        [-1e-3, 0.5],           # a negative coordinate reads as 0
    ])
    def test_k12(self, x, alpha):
        space, demand = instance("k12")
        assert_same_allocation(space, demand, np.array(x), alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("name", ["b3", "48", "428"])
    def test_equal_coordinates_tie_every_stacking_edge(self, name, alpha):
        # Every edge with a nonzero base has differential exactly 0: many
        # exact winners per type share the unit edges' mass.
        space, demand = instance(name)
        x = np.full(space.num_configs, 0.05)
        assert_same_allocation(space, demand, x, alpha)
        for offset in (5e-11, 2e-10):
            y = x.copy()
            y[::3] += offset
            assert_same_allocation(space, demand, y, alpha)
        z = x.copy()
        z[::2] = 0.0
        assert_same_allocation(space, demand, z, alpha)
