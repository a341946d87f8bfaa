"""Acceptance gate: one test per shipped criterion, one printed line each.

Run with -s (or read captured output) to see the per-criterion lines;
every test also enforces its stated tolerance and runtime budget.
"""

import json
import time

import numpy as np
import pytest

from conftest import scalar_space
from oracle_grid import grid_search
from packing_sim.config_space import (
    ResourceProfile,
    enumerate_configs,
    validate_explicit_configs,
)
from packing_sim.fluid import integrate, token_odes
from packing_sim.harness import Experiment, batch_means, run_experiment
from packing_sim.optimizer import (
    Demand,
    StatePoint,
    min_drift,
    simple_improving_allocations,
    solve_aggregate_optimum,
    solve_optimum,
)
from packing_sim.simulator import (
    SimConfig,
    SystemState,
    place_alt,
    place_greedy_ac,
    place_greedy_d,
    place_greedy_i,
    run,
)


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def k12():
    return scalar_space(2), Demand(np.ones(1), np.ones(1))


@pytest.fixture(scope="module")
def b3():
    space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
    return space, Demand(np.array([0.5, 0.25]), np.array([1.0, 1.0]))


class ScriptedRNG:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_criterion_01_optimizer_exactness(k12):
    t0 = time.perf_counter()
    space, demand = k12
    st, cert = solve_optimum(space, demand, 1.0)
    err2 = float(np.max(np.abs(st.x - np.array([0.2, 0.4]))))
    st3, cert3 = solve_optimum(scalar_space(3), demand, 1.0)
    target3 = np.array([1 / 14, 1 / 7, 3 / 14])
    err3 = float(np.max(np.abs(st3.x - target3)))
    dt = time.perf_counter() - t0
    ok = (err2 < 1e-6 and cert.residual <= 1e-8
          and err3 < 1e-6 and cert3.residual <= 1e-8 and dt < 1.0)
    _report(1, ok, f"closed-form optima err={max(err2, err3):.2e}, "
                   f"kkt={max(cert.residual, cert3.residual):.2e}, {dt:.2f}s")


def test_criterion_02_grid_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)

    def draw(n):
        lam = rng.uniform(0.5, 2.0, size=n)
        mu = rng.uniform(0.5, 2.0, size=n)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        return Demand(lam, mu), alpha

    instances = [
        scalar_space(2),
        scalar_space(3),
        scalar_space(4),
        validate_explicit_configs([(1, 0), (0, 1), (1, 1)]),
        validate_explicit_configs([(1, 0), (0, 1), (2, 0), (1, 1)]),
    ]
    worst = 0.0
    for space in instances:
        demand, alpha = draw(space.num_types)
        st, _ = solve_optimum(space, demand, alpha)
        _, x_grid = grid_search(space, demand, alpha, step=1e-3)
        worst = max(worst, float(np.max(np.abs(st.x - x_grid))))
    dt = time.perf_counter() - t0
    ok = worst <= 2e-3 and dt < 60.0
    _report(2, ok, f"5 instances vs grid search, worst per-coordinate "
                   f"deviation {worst:.2e}, {dt:.1f}s")


def test_criterion_03_drift_oracle(k12):
    t0 = time.perf_counter()
    space, demand = k12
    xstar, _ = solve_optimum(space, demand, 1.0)
    at_opt = min_drift(space, xstar, demand)
    si_at_opt = simple_improving_allocations(space, xstar, demand)
    rng = np.random.default_rng(3)
    drifts = []
    while len(drifts) < 20:
        x1 = float(rng.uniform(0.0, 1.0))
        x = np.array([x1, (1.0 - x1) / 2.0])  # the feasible segment
        if np.linalg.norm(x - xstar.x) < 0.05:
            continue
        drifts.append(min_drift(space, StatePoint(x, 1.0), demand))
    dt = time.perf_counter() - t0
    ok = (at_opt == 0.0 and si_at_opt == [] and max(drifts) < -1e-3
          and dt < 10.0)
    _report(3, ok, f"min drift 0 at optimum ({len(si_at_opt)} improving "
                   f"swaps), max over 20 off-optimum states "
                   f"{max(drifts):.3g} < -1e-3, {dt:.1f}s")


def test_criterion_04_closed_system_convergence(k12):
    t0 = time.perf_counter()
    space, demand = k12
    base = SimConfig(space=space, demand=demand, r=1, alpha=1.0, seed=1234)
    report = run_experiment(Experiment(base=base, r_grid=[100, 1000, 10000],
                                       replications=10))
    means = [c["stats"]["l2_to_optimum"]["mean"] for c in report["cells"]]
    verdict = report["verdicts"]["l2_to_optimum"]["decreasing"]
    dt = time.perf_counter() - t0
    ok = verdict is True and means[-1] < 0.02 and dt < 600.0
    _report(4, ok, f"closed sweep l2 means {['%.2e' % m for m in means]}, "
                   f"decreasing={verdict}, final < 0.02, {dt:.0f}s")


def test_criterion_05_open_token_convergence(k12):
    t0 = time.perf_counter()
    space, demand = k12
    base = SimConfig(space=space, demand=demand, r=1, alpha=1.0, mode="open",
                     discipline="greedy-dm", seed=1235,
                     token_rate=float(demand.service[0]))
    report = run_experiment(Experiment(base=base, r_grid=[100, 1000, 10000],
                                       replications=5))
    l2 = [c["stats"]["l2_to_optimum"]["mean"] for c in report["cells"]]
    tf = [c["stats"]["token_fraction"]["mean"] for c in report["cells"]]
    tf_verdict = report["verdicts"]["token_fraction"]["decreasing"]
    dt = time.perf_counter() - t0
    ok = (l2[-1] < 0.03 and tf[-1] < 0.02 and tf_verdict is True
          and dt < 600.0)
    _report(5, ok, f"token sweep l2 final {l2[-1]:.4f} < 0.03, token "
                   f"fraction {['%.4f' % v for v in tf]} decreasing and "
                   f"final < 0.02, {dt:.0f}s")


def test_criterion_06_aggregate_convergence(b3):
    t0 = time.perf_counter()
    space, demand = b3
    _, phistar = solve_aggregate_optimum(space, demand, 1.0)
    grid_value, _ = grid_search(space, demand, 1.0, step=1e-3, aggregate=True)
    oracle_err = abs(phistar - grid_value)

    closed = SimConfig(space=space, demand=demand, r=1, alpha=1.0,
                       mode="closed", discipline="greedy-d-ac", seed=1236)
    rep_c = run_experiment(Experiment(base=closed,
                                      r_grid=[100, 1000, 10000],
                                      replications=5))
    # Token expiry is set an order faster than service here: the occupied
    # state carries extra token mass that raises the class objective by
    # about 2*optimum*(token fraction), and the 1% threshold at r=1e4
    # needs that finite-scale inflation below half a percent.  The
    # asymptotic claim holds for any positive expiry rate.
    open_ac = SimConfig(space=space, demand=demand, r=1, alpha=1.0,
                        mode="open", discipline="greedy-dm-ac", seed=1237,
                        token_rate=20.0)
    rep_o = run_experiment(Experiment(base=open_ac,
                                      r_grid=[100, 1000, 10000],
                                      replications=5,
                                      metrics=["aggregate_objective_gap"]))
    gc = [c["stats"]["aggregate_objective_gap"]["mean"] for c in rep_c["cells"]]
    go = [c["stats"]["aggregate_objective_gap"]["mean"] for c in rep_o["cells"]]
    vc = rep_c["verdicts"]["aggregate_objective_gap"]["decreasing"]
    vo = rep_o["verdicts"]["aggregate_objective_gap"]["decreasing"]
    dt = time.perf_counter() - t0
    ok = (oracle_err <= 2e-3 and vc is True and vo is True
          and gc[-1] < 0.01 * phistar and go[-1] < 0.01 * phistar
          and dt < 900.0)
    _report(6, ok, f"class-objective gaps closed {gc[-1]:.2e} / open "
                   f"{go[-1]:.2e} < {0.01 * phistar:.2e}, both sweeps "
                   f"decreasing, optimum vs grid {oracle_err:.1e}, {dt:.0f}s")


def test_criterion_07_exact_stochastic_laws(k12, b3):
    t0 = time.perf_counter()
    checks = []

    def poisson_checks(space, demand, r, seed):
        cfg = SimConfig(space=space, demand=demand, r=r, alpha=1.0,
                        mode="open", seed=seed, burn_in=10.0, horizon=810.0,
                        sample_interval=2.0)
        res = run(cfg)
        for i in range(space.num_types):
            ys = np.array([s.y[i] for s in res.snapshots], dtype=float)
            target = demand.rho[i] * r
            mean, se_mean = batch_means(ys, num_batches=20)
            batches = ys[: 20 * (len(ys) // 20)].reshape(20, -1)
            bvars = batches.var(axis=1, ddof=1)
            var = float(bvars.mean())
            se_var = float(bvars.std(ddof=1) / np.sqrt(len(bvars)))
            checks.append(abs(mean - target) <= 3 * se_mean)
            checks.append(abs(var - target) <= 3 * se_var)

    k12_space, k12_demand = k12
    b3_space, b3_demand = b3
    poisson_checks(k12_space, k12_demand, 500, seed=77)
    poisson_checks(b3_space, b3_demand, 600, seed=78)

    constant = True
    for space, demand, r in ((k12_space, k12_demand, 50),
                             (b3_space, b3_demand, 30)):
        cfg = SimConfig(space=space, demand=demand, r=r, alpha=1.0,
                        mode="closed", seed=9, horizon=30.0, burn_in=0.0,
                        sample_interval=0.5)
        res = run(cfg)
        y0 = res.snapshots[0].y
        constant = constant and all(s.y == y0 for s in res.snapshots)

    dt = time.perf_counter() - t0
    ok = all(checks) and constant
    _report(7, ok, f"open populations Poisson ({sum(checks)}/{len(checks)} "
                   f"mean/variance checks within 3 SE), closed populations "
                   f"exactly constant, {dt:.0f}s")


def test_criterion_08_fluid_module(k12):
    t0 = time.perf_counter()
    space, demand = k12
    xstar, _ = solve_optimum(space, demand, 1.0)
    traj = integrate(space, np.array([1.0, 0.0]), demand, 1.0,
                     horizon=50.0, dt=5e-4)
    dist = float(np.linalg.norm(traj.final - xstar.x))
    max_uptick = float(np.max(np.diff(traj.objective_values)))

    t, yh, _ = token_odes(demand, token_rate=1.0, yhat0=np.zeros(1),
                          ytilde0=np.zeros(1), horizon=8.0, dt=1e-4)
    rho, mu = demand.rho[0], demand.service[0]
    ode_err = float(np.max(np.abs(yh[:, 0] - rho * (1 - np.exp(-mu * t)))))
    dt_s = time.perf_counter() - t0
    ok = (dist < 1e-3 and max_uptick <= 1e-6 and ode_err < 1e-4
          and dt_s < 10.0)
    _report(8, ok, f"integrator dist {dist:.1e} < 1e-3 by T=50, objective "
                   f"uptick {max_uptick:.1e} <= 1e-6, token path err "
                   f"{ode_err:.1e} < 1e-4, {dt_s:.1f}s")


def test_criterion_09_placement_hand_cases(b3):
    space = scalar_space(2)
    e1, e2 = space.edge_index((1,), 0), space.edge_index((2,), 0)

    def st(counts, sp=space):
        return SystemState.from_counts(sp, 1.0, counts)

    checks = [
        place_greedy_d(st([3, 5]), 0) == e2,   # stack: 2 < 3
        place_greedy_d(st([0, 0]), 0) == e1,   # empty system opens a server
        place_greedy_d(st([3, 6]), 0) == e1,   # tie 3 == 3: smaller target
        place_greedy_i(st([3, 5]), 0) == e2,   # increments 3 < 3.5
        place_greedy_i(st([0, 0]), 0) == e1,
        # candidate not strictly lighter: departing customer goes back
        place_alt(st([3, 5]), 0, e2, ScriptedRNG([0.0]), epsilon=1.0) == e2,
        # nothing to sample in an empty system
        place_alt(st([0, 0]), 0, e1, ScriptedRNG([0.9]), epsilon=0.5) == e1,
        # strictly lighter sampled stack wins
        place_alt(st([5, 1]), 0, e1, ScriptedRNG([0.5, 0.2]),
                  epsilon=0.01) == e2,
    ]

    b3_space, _ = b3
    idx = b3_space.config_index
    counts = [0] * b3_space.num_configs
    counts[idx((2, 0))] = 2
    b3_state = st(counts, b3_space)
    q, e = place_greedy_ac(b3_state, 0, ScriptedRNG([0.9]))
    checks.append(b3_space.edge_target[e] == idx((3, 0)))
    checks.append(q == b3_space.aggregates.class_of[idx((2, 0))])
    empty = st([0] * b3_space.num_configs, b3_space)
    q0, e0 = place_greedy_ac(empty, 1, ScriptedRNG([0.5]))
    checks.append(q0 == 0 and b3_space.edge_target[e0] == idx((0, 1)))

    ok = all(checks)
    _report(9, ok, f"{sum(checks)}/{len(checks)} hand-evaluated placement "
                   f"choices reproduced (ties, empty states, all four rules)")


def test_criterion_10_determinism(k12):
    space, demand = k12
    cfg = dict(space=space, demand=demand, r=80, alpha=1.0, mode="open",
               discipline="greedy-dm", seed=424242, horizon=25.0)
    s1 = json.dumps(run(SimConfig(**cfg)).summary, sort_keys=True)
    s2 = json.dumps(run(SimConfig(**cfg)).summary, sort_keys=True)

    base = SimConfig(space=space, demand=demand, r=1, alpha=1.0, seed=5,
                     horizon=8.0, burn_in=2.0)
    exp = Experiment(base=base, r_grid=[20, 40], replications=2)
    r1 = json.dumps(run_experiment(exp), sort_keys=True)
    r2 = json.dumps(run_experiment(exp), sort_keys=True)

    ok = s1 == s2 and r1 == r2
    _report(10, ok, "repeated seeded runs give byte-identical summaries "
                    "and experiment reports")
