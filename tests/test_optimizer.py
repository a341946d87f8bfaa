import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from packing_sim import optimizer
from packing_sim.config_space import (
    ResourceProfile,
    enumerate_configs,
)
from packing_sim.optimizer import (
    Demand,
    NonconvergenceError,
    StatePoint,
    aggregate_objective,
    class_totals,
    drift,
    feasibility_gap,
    kkt_certificate,
    min_drift,
    neutral_allocation,
    objective,
    project_to_polytope,
    simple_improving_allocations,
    solve_aggregate_optimum,
    solve_optimum,
)

from conftest import scalar_space
from oracle_grid import grid_search
import oracle_optimizer as oracle


def unit_demand(n=1):
    return Demand(np.ones(n), np.ones(n))


def p48_space():
    return enumerate_configs(ResourceProfile(
        (1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05))))


def p428_space():
    return enumerate_configs(ResourceProfile(
        (1.0, 1.0), ((0.15, 0.05), (0.05, 0.15), (0.1, 0.1), (0.2, 0.03))))


def b3_instance():
    space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
    return space, Demand(np.array([0.5, 0.25]), np.array([1.0, 1.0]))


class TestDemand:
    def test_normalizes_total_load(self):
        d = Demand(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        assert np.isclose(np.sum(d.rho), 1.0)
        assert np.allclose(d.arrival, [0.5, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Demand(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Demand(np.array([1.0]), np.array([-1.0]))


class TestProjection:
    def test_hand_case(self):
        # project (0.5, 0.1) onto x1 + 2 x2 = 1, x >= 0
        A = np.array([[1.0, 2.0]])
        b = np.array([1.0])
        x = project_to_polytope(A, b, np.array([0.5, 0.1]))
        assert np.allclose(x, [0.56, 0.22], atol=1e-12)

    def test_negative_gets_pinned(self):
        A = np.array([[1.0, 2.0]])
        b = np.array([1.0])
        x = project_to_polytope(A, b, np.array([-5.0, 0.0]))
        assert x[0] == 0.0
        assert np.isclose(x[1], 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_projection_optimality(self, seed):
        check_projection(seed)

    # Seeds on which the former active-set projection cycled (331078322),
    # the dual Newton projection alone was 1e-8 off in x (760: A is 2x2,
    # so the polytope is a single point), or dual Newton fails when it
    # starts from the multipliers of the face {z > 0}, that is, unless the
    # all-coordinates face is tried before it (9, 14, 118).
    @pytest.mark.parametrize("seed", [331078322, 760, 9, 14, 118])
    def test_projection_optimality_regressions(self, seed):
        check_projection(seed)


def check_projection(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, min(3, n) + 1))
    A = rng.uniform(0.0, 2.0, size=(m, n))
    xf = rng.uniform(0.0, 1.0, size=n)  # guarantees feasibility
    b = A @ xf
    z = rng.uniform(-1.0, 1.0, size=n)
    x = project_to_polytope(A, b, z)
    assert np.min(x) >= -1e-12
    assert np.max(np.abs(A @ x - b)) < 1e-8
    # no feasible perturbation may be closer than the projection
    for _ in range(20):
        y = project_to_polytope(A, b, x + rng.normal(scale=0.1, size=n))
        assert np.dot(x - z, x - z) <= np.dot(y - z, y - z) + 1e-9


class TestObjective:
    def test_value(self):
        assert np.isclose(objective(StatePoint(np.array([0.2, 0.4]), 1.0)), 0.1)

    def test_class_totals_and_aggregate(self):
        space, demand = b3_instance()
        x = np.ones(space.num_configs) * 0.1
        s = class_totals(space, x)
        assert s[0] == 0.0
        assert np.isclose(np.sum(s), 0.5)
        val = aggregate_objective(space, StatePoint(x, 1.0))
        assert np.isclose(val, np.sum(s[1:] ** 2) / 2.0)


class TestSolveOptimum:
    def test_two_config_closed_form(self):
        space = scalar_space(2)
        state, cert = solve_optimum(space, unit_demand(), 1.0)
        assert np.max(np.abs(state.x - [0.2, 0.4])) < 1e-9
        assert cert.residual <= 1e-10
        assert np.isclose(cert.eta[0], 0.2, atol=1e-9)

    def test_three_config_closed_form(self):
        space = scalar_space(3)
        state, cert = solve_optimum(space, unit_demand(), 1.0)
        assert np.max(np.abs(state.x - [1 / 14, 2 / 14, 3 / 14])) < 1e-9
        assert cert.residual <= 1e-10

    def test_feasibility(self):
        space, demand = b3_instance()
        state, cert = solve_optimum(space, demand, 1.0)
        assert feasibility_gap(space, state, demand) < 1e-9
        assert cert.residual <= 1e-8

    def test_matches_grid_oracle_alpha_half(self):
        space = scalar_space(3)
        d = unit_demand()
        state, _ = solve_optimum(space, d, 0.5)
        _, x_grid = grid_search(space, d, 0.5, step=2e-3)
        assert np.max(np.abs(state.x - x_grid)) < 4e-3

    def test_newton_point_off_the_polytope_is_projected(self, monkeypatch):
        # perfbench solve-fluid seed 3, draw 14: the 15th U(.2, 3) demand of
        # default_rng(3), on the 428-config space at alpha 4.  Dual Newton's
        # x misses A x = rho by 1e-5; its projection passes the certificate.
        rng = np.random.default_rng(3)
        for _ in range(15):
            demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
        space = p428_space()
        calls = []
        real = optimizer.project_to_polytope

        def spy(A, b, z):
            calls.append(float(np.max(np.abs(A @ z - b))))
            return real(A, b, z)

        monkeypatch.setattr(optimizer, "project_to_polytope", spy)
        state, cert = solve_optimum(space, demand, 4.0)
        assert len(calls) == 1 and calls[0] > 1e-6
        assert feasibility_gap(space, state, demand) <= 1e-9
        assert cert.residual <= 1e-9

    def test_certificate_flags_non_optimal_point(self):
        space = scalar_space(2)
        x = np.array([0.6, 0.2])  # feasible but not optimal
        cert = kkt_certificate(space, StatePoint(x, 1.0))
        assert cert.residual > 0.05


class TestAggregateSolve:
    def test_b3_value_against_grid(self):
        space, demand = b3_instance()
        state, value = solve_aggregate_optimum(space, demand, 1.0)
        val_grid, _ = grid_search(space, demand, 1.0, step=2e-3, aggregate=True)
        assert abs(value - val_grid) < 2e-3
        assert feasibility_gap(space, state, demand) < 1e-7

    def test_aggregate_never_above_plain(self):
        # the class objective optimum cannot exceed the value the plain
        # optimizer achieves for the same instance
        space, demand = b3_instance()
        plain, _ = solve_optimum(space, demand, 1.0)
        _, value = solve_aggregate_optimum(space, demand, 1.0)
        assert value <= aggregate_objective(space, plain) + 1e-9

    def test_singleton_classes_match_plain(self):
        prof = ResourceProfile((2.0,), ((1.0,),))
        space = enumerate_configs(prof)
        d = unit_demand()
        plain, _ = solve_optimum(space, d, 1.0)
        agg, value = solve_aggregate_optimum(space, d, 1.0)
        assert np.max(np.abs(plain.x - agg.x)) < 1e-6
        assert np.isclose(value, objective(plain), atol=1e-9)

    def test_former_no_positive_class_instance_solves(self):
        # The 14th U(.2, 3) demand draw of default_rng(3005) on the
        # 428-config space at alpha 2, where the former dual ascent ended
        # with no class scoring positive and the solve failed.
        space = p428_space()
        rng = np.random.default_rng(3005)
        for _ in range(14):
            demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
        state, value = solve_aggregate_optimum(space, demand, 2.0)
        assert feasibility_gap(space, state, demand) <= 1e-7
        assert value == aggregate_objective(space, state)

    # perfbench solve-fluid draws at alpha 0.25 on which the former
    # projected-gradient solver stopped short of its duality gap.  Draw n
    # is the n-th U(.2, 3) demand of default_rng(seed); draws 0-9 are on
    # the 48-config space, draws 10-14 on the 428-config space.
    @pytest.mark.parametrize("seed,draw", [
        (1, 10), (3, 1), (4, 1), (4, 10), (5, 10), (6, 0), (6, 10), (9, 0), (9, 10)])
    def test_former_alpha_quarter_failures_solve(self, seed, draw):
        space = p428_space() if draw >= 10 else p48_space()
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
        state, value = solve_aggregate_optimum(space, demand, 0.25)
        assert feasibility_gap(space, state, demand) <= 1e-7
        assert value == aggregate_objective(space, state)


# The 48-config U(.2, 3) demand draws on which the former active-set
# projection cycled, so that both solvers raised without a state.
@pytest.mark.parametrize("seed,alpha", [(3, 2.0), (3, 4.0), (5, 4.0)])
@pytest.mark.parametrize("solver", [solve_optimum, solve_aggregate_optimum])
def test_solvers_fail_only_with_a_state(solver, seed, alpha):
    space = p48_space()
    rng = np.random.default_rng(seed)
    demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
    try:
        state = solver(space, demand, alpha)[0]
    except NonconvergenceError as exc:
        state = exc.state
    assert state is not None
    assert feasibility_gap(space, state, demand) <= 1e-7


class TestDrift:
    def test_weight_diff_hand_values(self):
        space = scalar_space(2)
        state = StatePoint(np.array([3.0, 5.0]), 1.0)
        e1 = space.edge_index((1,), 0)
        e2 = space.edge_index((2,), 0)
        w = optimizer._space_weight_diffs(space, state)
        assert w[e1] == 3.0
        assert w[e2] == 2.0

    def test_neutral_allocation_is_zero_drift(self):
        space = scalar_space(2)
        demand = unit_demand()
        state = StatePoint(np.array([0.6, 0.2]), 1.0)
        gamma = neutral_allocation(space, state, demand)
        assert np.isclose(drift(space, gamma, state, demand), 0.0, atol=1e-12)
        e2 = space.edge_index((2,), 0)
        assert np.isclose(gamma[e2], 2 * 0.2)

    def test_si_moves_find_the_improvement(self):
        space = scalar_space(2)
        demand = unit_demand()
        state = StatePoint(np.array([0.6, 0.2]), 1.0)
        found = simple_improving_allocations(space, state, demand)
        assert found, "expected at least one improving move"
        drifts = [drift(space, a, state, demand) for a, _ in found]
        assert min(drifts) < 0
        # full donor mass 0.6 moved from the unit edge to the pair edge
        assert np.isclose(min(drifts), -0.6)

    def test_min_drift_zero_at_optimum(self):
        space = scalar_space(2)
        demand = unit_demand()
        state, _ = solve_optimum(space, demand, 1.0)
        assert min_drift(space, state, demand) == 0.0

    def test_min_drift_negative_off_optimum(self):
        space = scalar_space(2)
        demand = unit_demand()
        assert min_drift(space, StatePoint(np.array([0.6, 0.2]), 1.0), demand) < -0.5

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("make", ["b3", "p48"])
    def test_min_drift_is_least_swap_drift(self, make, alpha):
        if make == "b3":
            space, demand = b3_instance()
        else:
            rng = np.random.default_rng(48)
            space = p48_space()
            demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
        rng = np.random.default_rng(int(alpha * 10))
        A = space.constraint_matrix
        states = [solve_optimum(space, demand, alpha)[0],
                  StatePoint(solve_aggregate_optimum(space, demand, alpha)[0].x, alpha)]
        states += [StatePoint(project_to_polytope(A, demand.rho, rng.uniform(0, 1, len(A[0]))),
                              alpha) for _ in range(4)]
        for state in states:
            swaps = simple_improving_allocations(space, state, demand)
            want = min([drift(space, a, state, demand) for a, _ in swaps], default=0.0)
            got = min_drift(space, state, demand)
            assert (got == 0.0) == (not swaps)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_min_drift_on_428_configs(self):
        space = p428_space()
        demand = unit_demand(4)
        state, _ = solve_aggregate_optimum(space, demand, 1.0)
        assert -1e-4 < min_drift(space, state, demand) < 0.0

    def test_no_simple_improvement_witness(self):
        # The class-level check lives on in the frozen oracle only.
        space, demand = b3_instance()
        state, _ = solve_aggregate_optimum(space, demand, 1.0)
        ok, witness = oracle.no_simple_improvement(space, state)
        assert ok and witness is None
        x = np.zeros(space.num_configs)
        rho = demand.rho
        x[space.unit_index[0]] = rho[0]
        x[space.unit_index[1]] = rho[1]
        ok, witness = oracle.no_simple_improvement(space, StatePoint(x, 1.0))
        assert not ok
        assert witness is not None


@st.composite
def small_instances(draw):
    m = draw(st.integers(2, 4))
    space = scalar_space(m)
    lam = draw(st.floats(0.5, 2.0))
    mu = draw(st.floats(0.5, 2.0))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return space, Demand(np.array([lam]), np.array([mu])), alpha


@settings(max_examples=25, deadline=None)
@given(small_instances())
def test_solver_properties(inst):
    space, demand, alpha = inst
    state, cert = solve_optimum(space, demand, alpha)
    assert cert.residual <= 1e-8
    assert feasibility_gap(space, state, demand) < 1e-9
    assert np.min(state.x) >= 0.0
    # the optimum admits no improving move
    assert min_drift(space, state, demand) >= -1e-9


@settings(max_examples=25, deadline=None)
@given(small_instances(), st.integers(0, 2**31 - 1))
def test_drift_nonpositive_everywhere(inst, seed):
    space, demand, alpha = inst
    rng = np.random.default_rng(seed)
    A = space.constraint_matrix
    z = rng.uniform(0.0, 1.0, size=space.num_configs)
    x = project_to_polytope(A, demand.rho, z)
    assert min_drift(space, StatePoint(x, alpha), demand) <= 1e-12
