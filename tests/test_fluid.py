import numpy as np
import pytest

from conftest import scalar_space
from packing_sim.config_space import (
    ResourceProfile,
    enumerate_configs,
    validate_explicit_configs,
)
from packing_sim.fluid import (
    greedy_rate_allocation,
    integrate,
    token_odes,
)
from packing_sim.optimizer import (
    Demand,
    StatePoint,
    drift,
    neutral_allocation,
    solve_optimum,
)


@pytest.fixture(scope="module")
def k12():
    return scalar_space(2), Demand(np.ones(1), np.ones(1))


class TestRateAllocation:
    def test_routes_everything_to_lightest_target(self, k12):
        space, demand = k12
        st = StatePoint(np.array([0.6, 0.2]), 1.0)
        gamma = greedy_rate_allocation(space, st, demand)
        # weight diffs: new server 0.6, stack 0.2 - 0.6 = -0.4; stacking wins
        assert gamma[space.edge_index((1,), 0)] == 0.0
        assert gamma[space.edge_index((2,), 0)] == 1.0

    def test_unique_winner_collects_all_mass(self):
        space = scalar_space(3)
        demand = Demand(np.ones(1), np.ones(1))
        st = StatePoint(np.array([0.3, 0.3, 1.0 / 30.0]), 1.0)
        gamma = greedy_rate_allocation(space, st, demand)
        # weight diffs 0.3, 0.0, -0.2667: the triple stack wins alone
        assert gamma[space.edge_index((3,), 0)] == pytest.approx(1.0)
        assert gamma[space.edge_index((1,), 0)] == 0.0
        assert gamma[space.edge_index((2,), 0)] == 0.0

    def test_optimum_is_neutral_with_zero_drift(self, k12):
        space, demand = k12
        xstar, _ = solve_optimum(space, demand, 1.0)
        alloc = greedy_rate_allocation(space, xstar, demand)
        neutral = neutral_allocation(space, xstar, demand)
        # at the optimum every departure routes back where it came from
        assert np.allclose(alloc, neutral, atol=1e-12)
        assert abs(drift(space, alloc, xstar, demand)) <= 1e-9

    def test_single_config_space_is_always_neutral(self):
        space = validate_explicit_configs([(1,)])
        demand = Demand(np.ones(1), np.ones(1))
        st = StatePoint(np.array([1.0]), 1.0)
        alloc = greedy_rate_allocation(space, st, demand)
        assert np.allclose(alloc, neutral_allocation(space, st, demand))


class TestSharedRule:
    """One integrate step is x + dt * M (gamma - gamma_neutral), where M
    adds an edge's flow to its target and takes it from its base."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("which", ["b3", "48"])
    def test_step_follows_greedy_rate_allocation(self, which, alpha):
        if which == "b3":
            space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
            demand = Demand(np.array([0.5, 0.25]), np.array([1.0, 1.0]))
        else:
            space = enumerate_configs(ResourceProfile(
                (1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05))))
            demand = Demand(np.array([0.7, 1.9, 0.4, 1.3]), np.array([1.1, 0.6, 2.2, 0.9]))
        M = np.zeros((space.num_configs, space.num_edges))
        for e in range(space.num_edges):
            M[space.edge_target[e], e] += 1.0
            if space.edge_base[e] >= 0:
                M[space.edge_base[e], e] -= 1.0
        x0 = np.zeros(space.num_configs)
        x0[list(space.unit_index)] = demand.rho
        dt = 1e-3
        path = integrate(space, x0, demand, alpha, horizon=0.05, dt=dt).states
        moved = 0
        for x, nxt in zip(path, path[1:]):
            st = StatePoint(x, alpha)
            net = (greedy_rate_allocation(space, st, demand)
                   - neutral_allocation(space, st, demand))
            expected = x + dt * (M @ net)
            assert np.min(expected) >= 0.0  # no coordinate clips
            assert np.max(np.abs(nxt - expected)) <= 1e-12
            moved += bool(np.any(net != 0.0))
        assert moved  # the path is not a fixed point


class TestIntegrate:
    def test_fixed_point_stays_put(self, k12):
        space, demand = k12
        xstar, _ = solve_optimum(space, demand, 1.0)
        traj = integrate(space, xstar.x, demand, 1.0, horizon=10.0, dt=1e-3)
        assert np.max(np.abs(traj.final - xstar.x)) < 1e-6

    def test_converges_from_all_singles(self, k12):
        space, demand = k12
        traj = integrate(space, np.array([1.0, 0.0]), demand, 1.0,
                         horizon=40.0, dt=1e-3)
        xstar, _ = solve_optimum(space, demand, 1.0)
        assert np.linalg.norm(traj.final - xstar.x) < 1e-3

    def test_objective_decreases_along_path(self, k12):
        space, demand = k12
        traj = integrate(space, np.array([1.0, 0.0]), demand, 1.0,
                         horizon=20.0, dt=1e-3)
        vals = traj.objective_values
        # forward Euler wobbles by O(dt^2) once the path reaches the
        # fixed point, so allow a discretization-sized uptick
        assert np.all(np.diff(vals) <= 1e-5)
        assert vals[-1] < vals[0]

    def test_conservation_along_trajectory(self):
        space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
        demand = Demand(np.array([0.5, 0.25]), np.array([1.0, 1.0]))
        rho = demand.rho
        x0 = np.zeros(space.num_configs)
        for i, u in enumerate(space.unit_index):
            x0[u] = rho[i]
        traj = integrate(space, x0, demand, 1.0, horizon=15.0, dt=1e-3)
        A = np.array([[k[i] for k in space.configs]
                      for i in range(space.num_types)], dtype=float)
        for x in traj.states[::500]:
            assert np.max(np.abs(A @ x - rho)) < 1e-6
            assert np.all(x >= -1e-12)

    def test_rejects_bad_arguments(self, k12):
        space, demand = k12
        xstar, _ = solve_optimum(space, demand, 1.0)
        with pytest.raises(ValueError):
            integrate(space, xstar.x, demand, 1.0, horizon=1.0, dt=0.0)
        with pytest.raises(ValueError):
            # off the polytope
            integrate(space, np.array([0.9, 0.2]), demand, 1.0,
                      horizon=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            integrate(space, np.array([1.0]), demand, 1.0,
                      horizon=1.0, dt=1e-3)

    @pytest.mark.parametrize("dt", [0.5, 2.0, 10.0])
    def test_large_steps_stay_in_bounds(self, dt):
        # x >= 0 and A x = rho bound every coordinate by max rho (to the
        # conservation tolerance), however far one step overshoots.
        space = enumerate_configs(ResourceProfile(
            (1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05))))
        rng = np.random.default_rng(11)
        for _ in range(4):
            demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
            x0 = np.zeros(space.num_configs)
            x0[list(space.unit_index)] = demand.rho
            for alpha in (0.25, 1.0, 4.0):
                states = integrate(space, x0, demand, alpha, horizon=20 * dt, dt=dt).states
                assert states.min() >= 0.0
                assert states.max() <= np.max(demand.rho) + 1e-6

    def test_trajectory_shape_and_times(self, k12):
        space, demand = k12
        traj = integrate(space, np.array([1.0, 0.0]), demand, 1.0,
                         horizon=2.0, dt=0.5)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(2.0)
        assert traj.states.shape == (len(traj.times), space.num_configs)
        assert traj.objective_values.shape == (len(traj.times),)


class TestTokenOdes:
    def test_equilibrium_is_stationary(self):
        demand = Demand(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
        rho = demand.rho
        t, yh, yt = token_odes(demand, token_rate=1.0, yhat0=rho,
                               ytilde0=np.zeros(2), horizon=5.0, dt=1e-3)
        assert np.max(np.abs(yh[-1] - rho)) < 1e-9
        assert np.max(np.abs(yt[-1])) < 1e-9

    def test_matches_closed_form_from_empty(self):
        demand = Demand(np.array([1.0]), np.array([1.0]))
        lam, mu = demand.arrival[0], demand.service[0]
        t, yh, yt = token_odes(demand, token_rate=2.0, yhat0=np.zeros(1),
                               ytilde0=np.zeros(1), horizon=8.0, dt=1e-4)
        yh_exact = (lam / mu) * (1.0 - np.exp(-mu * t))
        # from an empty start the unfloored token solution is nonpositive,
        # so the floor keeps it pinned at zero throughout
        assert np.max(np.abs(yh[:, 0] - yh_exact)) < 1e-4
        assert np.max(yt) == 0.0

    def test_overloaded_start_decays_to_equilibrium(self):
        demand = Demand(np.array([1.0]), np.array([1.0]))
        rho = demand.rho
        t, yh, yt = token_odes(demand, token_rate=1.0, yhat0=2 * rho,
                               ytilde0=np.ones(1), horizon=30.0, dt=1e-3)
        assert abs(yh[-1, 0] - rho[0]) < 1e-6
        assert yt[-1, 0] < 1e-6
        assert np.all(np.diff(yh[:, 0]) <= 1e-12)

    def test_rejects_bad_arguments(self):
        demand = Demand(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            token_odes(demand, token_rate=-1.0, yhat0=np.zeros(1),
                       ytilde0=np.zeros(1), horizon=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            token_odes(demand, token_rate=1.0, yhat0=np.zeros(2),
                       ytilde0=np.zeros(1), horizon=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            token_odes(demand, token_rate=1.0, yhat0=np.zeros(1),
                       ytilde0=np.zeros(1), horizon=1.0, dt=0.0)


class TestConservationCheck:
    """``integrate`` re-checks A x = rho after every step and names the first
    type that drifted; a projection that leaves the polytope must trip it."""

    @staticmethod
    def b3():
        space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
        demand = Demand(np.array([0.5, 0.25]), np.ones(2))
        x0 = np.zeros(space.num_configs)
        x0[list(space.unit_index)] = demand.rho
        return space, demand, x0

    def test_real_projection_passes(self):
        space, demand, x0 = self.b3()
        # dt = 0.5 overshoots and clips on this path.
        traj = integrate(space, x0, demand, 1.0, horizon=2.0, dt=0.5)
        assert len(traj.times) == 5

    @pytest.mark.parametrize("config,value,drifted", [((0, 1), 0.01, 1),
                                                      ((1, 0), np.nan, 0)])
    def test_off_polytope_projection_raises(self, monkeypatch, config, value, drifted):
        import packing_sim.fluid as fluid_mod
        from packing_sim.config_space import InvariantError

        space, demand, x0 = self.b3()
        real = fluid_mod.project_to_polytope
        calls = []

        def off_polytope(A, b, z):
            calls.append(z)
            x = real(A, b, z)
            x[space.config_index(config)] += value
            return x

        monkeypatch.setattr(fluid_mod, "project_to_polytope", off_polytope)
        with pytest.raises(InvariantError, match=f"type {drifted}: per-type conservation"):
            integrate(space, x0, demand, 1.0, horizon=2.0, dt=0.5)
        assert len(calls) == 1
