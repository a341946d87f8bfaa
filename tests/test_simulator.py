import json
import math

import numpy as np
import pytest

from conftest import scalar_space
from packing_sim.config_space import (
    InvariantError,
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
    _pick,
    derive_seed,
    place_alt,
    place_greedy_ac,
    place_greedy_d,
    place_greedy_i,
    run,
    write_snapshots_csv,
)


class ScriptedRNG:
    """Deterministic stand-in for random.Random in placement tests."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def unit_demand(n=1):
    return Demand(np.ones(n), np.ones(n))


def b3_instance():
    space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
    return space, Demand(np.array([0.5, 0.25]), np.array([1.0, 1.0]))


def state_of(space, counts, alpha=1.0):
    return SystemState.from_counts(space, alpha, counts)


def cc_state(sim, k_idx, khat_idx):
    """Index of the complete state (config k_idx, held config khat_idx or -1)."""
    I = sim.space.num_types
    held = sim.space.configs[khat_idx] if khat_idx >= 0 else (0,) * I
    return sim._cc_first[k_idx] + sum(
        h * sim._cc_stride[k_idx * I + j] for j, h in enumerate(held))


class TestPlaceGreedyD:
    def test_prefers_stacking_on_pairs(self):
        space = scalar_space(2)
        st = state_of(space, [3, 5])
        # empty-server score 3 vs stack score 5 - 3 = 2
        assert place_greedy_d(st, 0) == space.edge_index((2,), 0)

    def test_empty_state_opens_new_server(self):
        space = scalar_space(2)
        st = state_of(space, [0, 0])
        assert place_greedy_d(st, 0) == space.edge_index((1,), 0)

    def test_balanced_counts(self):
        space = scalar_space(2)
        st = state_of(space, [5, 5])
        assert place_greedy_d(st, 0) == space.edge_index((2,), 0)

    def test_tie_breaks_to_smaller_target(self):
        space = scalar_space(2)
        st = state_of(space, [3, 6])  # both candidates score 3
        assert place_greedy_d(st, 0) == space.edge_index((1,), 0)

    def test_unavailable_base_skipped(self):
        space = scalar_space(3)
        st = state_of(space, [0, 2, 1])
        # stacking onto a single is impossible: no singles around
        e = place_greedy_d(st, 0)
        assert e in (space.edge_index((1,), 0), space.edge_index((3,), 0))
        # scores: empty 0, (2)->(3): 1 - 2 = -1
        assert e == space.edge_index((3,), 0)


class TestPlaceGreedyI:
    def test_objective_increment_rule(self):
        space = scalar_space(2)
        st = state_of(space, [3, 5])
        # increments: empty (16-9)/2 = 3.5, stack ((36-25)+(4-9))/2 = 3
        assert place_greedy_i(st, 0) == space.edge_index((2,), 0)

    def test_empty_state(self):
        space = scalar_space(2)
        st = state_of(space, [0, 0])
        assert place_greedy_i(st, 0) == space.edge_index((1,), 0)

    def test_agrees_with_weight_rule_at_large_counts(self):
        space = scalar_space(3)
        rng = np.random.default_rng(7)
        disagreements = 0
        for _ in range(300):
            counts = rng.integers(100, 2000, size=3).tolist()
            st = state_of(space, counts)
            if place_greedy_d(st, 0) != place_greedy_i(st, 0):
                disagreements += 1
        assert disagreements / 300 <= 0.01


class TestPlaceGreedyAc:
    def test_singleton_classes_reduce_to_plain_rule(self):
        space = enumerate_configs(ResourceProfile((2.0,), ((1.0,),)))
        assert all(len(m) <= 1 for m in space.aggregates.members)
        rng = np.random.default_rng(3)
        for _ in range(100):
            st = state_of(space, rng.integers(0, 9, size=2).tolist())
            _, e = place_greedy_ac(st, 0, ScriptedRNG([0.5]))
            assert e == place_greedy_d(st, 0)

    def test_uniform_draw_within_class(self):
        space, _ = b3_instance()
        idx = space.config_index
        counts = [0] * space.num_configs
        counts[idx((2, 0))] = 2
        counts[idx((0, 1))] = 2
        st = state_of(space, counts)
        rng = np.random.default_rng(11)
        hits = {idx((3, 0)): 0, idx((1, 1)): 0}
        n = 100_000
        for _ in range(n):
            q, e = place_greedy_ac(st, 0, rng)
            hits[space.edge_target[e]] += 1
        assert q == space.aggregates.class_of[idx((2, 0))]
        for t, c in hits.items():
            assert abs(c / n - 0.5) < 0.01

    def test_empty_member_excluded_from_draw(self):
        space, _ = b3_instance()
        idx = space.config_index
        counts = [0] * space.num_configs
        counts[idx((2, 0))] = 3
        st = state_of(space, counts)
        for _ in range(20):
            _, e = place_greedy_ac(st, 0, ScriptedRNG([0.99]))
            assert space.edge_target[e] == idx((3, 0))

    def test_draw_restricted_to_admitting_members(self):
        # explicit space omitting (3,0): of the usage-2 class only (0,1)
        # can still take a type-1 customer
        prof = ResourceProfile((3.0,), ((1.0,), (2.0,)))
        space = validate_explicit_configs(
            [(1, 0), (0, 1), (2, 0), (1, 1)], profile=prof
        )
        idx = space.config_index
        agg = space.aggregates
        q2 = agg.class_of[idx((2, 0))]
        assert agg.class_of[idx((0, 1))] == q2
        assert list(agg.admit_bases[q2][0]) == [idx((0, 1))]
        counts = [0] * space.num_configs
        counts[idx((2, 0))] = 5
        counts[idx((0, 1))] = 1
        st = state_of(space, counts)
        q, e = place_greedy_ac(st, 0, ScriptedRNG([0.97]))
        assert q == q2
        assert space.edge_target[e] == idx((1, 1))


class TestPlaceAlt:
    def test_unit_candidate_not_lighter_stays(self):
        space = scalar_space(2)
        st = state_of(space, [3, 5])
        dep = space.edge_index((2,), 0)
        # epsilon=1 always proposes the unit edge: 3 >= 2, go back
        assert place_alt(st, 0, dep, ScriptedRNG([0.0]), epsilon=1.0) == dep

    def test_candidate_equal_to_departed_stays(self):
        space = scalar_space(2)
        st = state_of(space, [3, 5])
        dep = space.edge_index((1,), 0)
        assert place_alt(st, 0, dep, ScriptedRNG([0.0]), epsilon=1.0) == dep

    def test_no_servers_to_sample_goes_back(self):
        space = scalar_space(2)
        st = state_of(space, [0, 0])
        dep = space.edge_index((1,), 0)
        # coin skips the unit candidate, then there is nothing to sample
        out = place_alt(st, 0, dep, ScriptedRNG([0.9]), epsilon=0.5)
        assert out == dep

    def test_sampled_server_with_full_stack_no_candidate(self):
        space = scalar_space(2)
        st = state_of(space, [3, 5])
        dep = space.edge_index((2,), 0)
        # server draw lands on a pair; pairs cannot grow, so stay
        out = place_alt(st, 0, dep, ScriptedRNG([0.9, 0.9]), epsilon=0.01)
        assert out == dep

    def test_sampled_server_strictly_lighter_moves(self):
        space = scalar_space(2)
        st = state_of(space, [5, 1])
        dep = space.edge_index((1,), 0)
        out = place_alt(st, 0, dep, ScriptedRNG([0.5, 0.2]), epsilon=0.01)
        assert out == space.edge_index((2,), 0)

    @staticmethod
    def alt_engine(space, demand, counts, **fields):
        sim = Simulation(SimConfig(space=space, demand=demand, r=10, **fields))
        for t, v in enumerate(counts):
            sim._bump(t, v - sim.X[t])
        return sim

    def test_mix_falls_through_to_standard_rule(self):
        space = scalar_space(2)
        sim = self.alt_engine(space, unit_demand(), [3, 5], alpha=1.0,
                              alt_placement=AltPlacement(epsilon=1.0, mix=1.0))
        dep = space.edge_index((1,), 0)
        assert sim._put(0, departed_edge=dep) == space.edge_index((2,), 0)

    def test_mix_uses_the_run_discipline(self):
        # Type 1 at these counts: Greedy-D stacks on (1, 0) (edge 5),
        # Greedy-I opens a (0, 1) server (edge 4).
        space, demand = b3_instance()
        counts = [1, 4, 4, 0, 2]
        assert place_greedy_d(state_of(space, counts, 2.0), 1) == 5
        sim = self.alt_engine(space, demand, counts, alpha=2.0, discipline="greedy-i",
                              alt_placement=AltPlacement(epsilon=0.5, mix=1.0))
        assert sim._put(1, departed_edge=5) == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AltPlacement(epsilon=0.0)
        with pytest.raises(ValueError):
            AltPlacement(epsilon=1.5)
        with pytest.raises(ValueError):
            AltPlacement(epsilon=0.5, mix=-0.1)


class TestSimConfig:
    def test_token_discipline_needs_open_mode(self):
        space = scalar_space(2)
        with pytest.raises(ValueError, match="open"):
            SimConfig(space=space, demand=unit_demand(), r=10, alpha=1.0,
                      mode="closed", discipline="greedy-dm")

    def test_class_discipline_needs_aggregates(self):
        space = scalar_space(2)
        with pytest.raises(ValueError, match="aggregate"):
            SimConfig(space=space, demand=unit_demand(), r=10, alpha=1.0,
                      discipline="greedy-d-ac")

    def test_alt_placement_scope(self):
        space = scalar_space(2)
        with pytest.raises(ValueError, match="placement"):
            SimConfig(space=space, demand=unit_demand(), r=10, alpha=1.0,
                      mode="open", discipline="greedy-d",
                      alt_placement=AltPlacement(epsilon=1.0))

    def test_defaults_scale_with_service_rate(self):
        space = scalar_space(2)
        d = Demand(np.array([1.0]), np.array([2.0]))
        cfg = SimConfig(space=space, demand=d, r=10, alpha=1.0)
        assert cfg.burn_in == 5.0
        assert cfg.horizon == 55.0
        assert cfg.sample_interval == 0.25
        assert cfg.token_rate == 2.0

    def test_bad_values(self):
        space = scalar_space(2)
        with pytest.raises(ValueError):
            SimConfig(space=space, demand=unit_demand(), r=0, alpha=1.0)
        with pytest.raises(ValueError):
            SimConfig(space=space, demand=unit_demand(), r=1, alpha=0.0)
        with pytest.raises(ValueError):
            SimConfig(space=space, demand=unit_demand(), r=1, alpha=1.0,
                      mode="batch")


class TestClosedRuns:
    def test_initial_population_rounding(self):
        space, demand = b3_instance()
        cfg = SimConfig(space=space, demand=demand, r=10, alpha=1.0, horizon=0.0)
        sim = Simulation(cfg)
        assert sim.Y == [7, 3]  # round-half-up of (20/3, 10/3)
        assert sim.X[space.unit_index[0]] == 7
        assert sim.X[space.unit_index[1]] == 3

    def test_zero_horizon_returns_initial_state(self):
        space = scalar_space(2)
        cfg = SimConfig(space=space, demand=unit_demand(), r=10, alpha=1.0,
                        horizon=0.0)
        res = run(cfg)
        assert res.snapshots == []
        assert res.summary["x_bar"] == {"1": 1.0}
        assert res.summary["n_events"] == 0

    def test_single_customer_identity_dynamics(self):
        space = validate_explicit_configs([(1,)])
        cfg = SimConfig(space=space, demand=unit_demand(), r=1, alpha=1.0,
                        horizon=30.0, burn_in=0.0, sample_interval=1.0)
        res = run(cfg)
        for s in res.snapshots:
            assert s.x == {0: 1.0}
        e = space.edge_index((1,), 0)
        last = res.snapshots[-1]
        assert last.arrivals[e] == last.departures[e] > 0

    def test_only_final_sample_carries_counters(self):
        space = scalar_space(2)
        cfg = SimConfig(space=space, demand=unit_demand(), r=20, alpha=1.0, seed=3,
                        horizon=5.0, burn_in=1.0, sample_interval=0.5)
        snaps = run(cfg).snapshots
        assert len(snaps) >= 3
        assert all(s.arrivals is None and s.departures is None for s in snaps[:-1])
        last = snaps[-1]
        assert sum(last.arrivals.values()) == sum(last.departures.values()) > 0
        assert last.token_arrivals is None

    def test_every_sample_checks_conservation(self):
        space = scalar_space(2)
        sim = Simulation(SimConfig(space=space, demand=unit_demand(), r=20, alpha=1.0))
        sim.snapshot(0.0)
        sim.arrivals[space.edge_index((2,), 0)] += 1
        with pytest.raises(InvariantError, match="edge counters disagree"):
            sim.snapshot(0.0)

    def test_population_constant_and_absorbing_average(self):
        space = scalar_space(2)
        cfg = SimConfig(space=space, demand=unit_demand(), r=50, alpha=1.0, seed=9)
        res = run(cfg)
        assert res.summary["y_bar"] == [1.0]
        assert abs(res.summary["x_bar"]["1"] - 0.2) < 1e-12
        assert abs(res.summary["x_bar"]["2"] - 0.4) < 1e-12
        assert res.summary["conservation_error"] == 0.0

    def test_alt_placement_run_reaches_optimum(self):
        space = scalar_space(2)
        cfg = SimConfig(space=space, demand=unit_demand(), r=100, alpha=1.0,
                        seed=2, alt_placement=AltPlacement(epsilon=0.5))
        res = run(cfg, xstar=np.array([0.2, 0.4]))
        assert res.summary["l2_to_target"] < 0.05


class TestOpenRuns:
    def test_population_tracks_load(self):
        space = scalar_space(2)
        cfg = SimConfig(space=space, demand=unit_demand(), r=200, alpha=1.0,
                        mode="open", seed=4)
        res = run(cfg)
        assert abs(res.summary["y_bar"][0] - 1.0) < 0.1
        assert res.summary["conservation_error"] == 0.0

    def test_step_advances_clock(self):
        space = scalar_space(2)
        cfg = SimConfig(space=space, demand=unit_demand(), r=20, alpha=1.0,
                        mode="open", seed=1)
        sim = Simulation(cfg)
        for _ in range(50):
            assert sim.step()
        assert sim.t > 0
        assert sim.n_events == 50


class TestTokenRuns:
    def make_sim(self, r=20.0, seed=0, space=None, demand=None):
        space = space or scalar_space(2)
        demand = demand or unit_demand()
        cfg = SimConfig(space=space, demand=demand, r=r, alpha=1.0,
                        mode="open", discipline="greedy-dm", seed=seed)
        return Simulation(cfg)

    def test_complete_states_enumerated(self):
        sim = self.make_sim()
        I = sim.space.num_types
        # (1) holds 0..1 actuals, (2) holds 0..2
        assert sim._cc_first[-1] == 5
        for c in range(sim._cc_first[-1]):
            k = sim.space.configs[sim._cc_config[c]]
            khat = sim._cc_held[c * I:(c + 1) * I]
            assert all(h <= v for h, v in zip(khat, k))

    def test_lone_token_expires_to_empty(self):
        sim = self.make_sim()
        k0 = sim.space.config_index((1,))
        sim._cc_move(-1, cc_state(sim, k0, -1))
        sim.Y[0] += 1
        sim.Ytilde[0] += 1
        arr = sum(sim._arr_rate)
        assert math.isclose(sim.total_rate(), arr + sim.config.token_rate)
        assert math.isclose(sim._analytic_rate(), arr + sim.config.token_rate)
        sim._apply(arr + 1e-9)
        assert all(v == 0 for v in sim.Xc)
        assert all(v == 0 for v in sim.X)
        assert sim.Ytilde[0] == 0
        assert sum(sim.exp_dep) == 1

    def test_arrival_without_tokens_matches_plain_rule(self):
        sim = self.make_sim()
        k0 = sim.space.config_index((1,))
        sim._cc_move(-1, cc_state(sim, k0, k0))
        sim.Y[0] += 1
        sim.Yhat[0] += 1
        predicted = place_greedy_d(sim.state, 0)
        assert sim.Ytilde[0] == 0
        sim._apply(1e-9)  # lands in the arrival slice
        assert sim.fresh_arr[predicted] == 1
        assert sim.rep_arr[predicted] == 0

    def test_arrival_with_token_replaces_it(self):
        sim = self.make_sim()
        k0 = sim.space.config_index((1,))
        sim._cc_move(-1, cc_state(sim, k0, -1))
        sim.Y[0] += 1
        sim.Ytilde[0] += 1
        y_before = list(sim.Y)
        sim._apply(1e-9)
        assert sim.Y == y_before  # replacement leaves totals alone
        assert sim.Yhat[0] == 1
        assert sim.Ytilde[0] == 0
        assert sum(sim.rep_arr) == 1
        assert sum(sim.arrivals) == 0  # replacements are not edge arrivals
        assert sim.Xc[cc_state(sim, k0, k0)] == 1

    def test_departure_places_token_immediately(self):
        sim = self.make_sim()
        k0 = sim.space.config_index((1,))
        sim._cc_move(-1, cc_state(sim, k0, k0))
        sim.Y[0] += 1
        sim.Yhat[0] += 1
        arr = sum(sim._arr_rate)
        sim._apply(arr + 1e-9)  # the only non-arrival event: actual departure
        assert sim.Yhat[0] == 0
        assert sim.Ytilde[0] == 1
        assert sim.Y[0] == 1
        assert sum(sim.act_dep) == 1
        assert sum(sim.tok_arr) == 1

    def test_final_sample_carries_token_counters(self):
        cfg = SimConfig(space=scalar_space(2), demand=unit_demand(), r=50, alpha=1.0,
                        mode="open", discipline="greedy-dm", seed=6)
        snaps = run(cfg).snapshots
        names = ("arrivals", "departures", "token_arrivals", "replacement_arrivals",
                 "fresh_arrivals", "actual_departures", "expiries")
        assert all(getattr(s, n) is None for s in snaps[:-1] for n in names)
        assert all(isinstance(getattr(snaps[-1], n), dict) and getattr(snaps[-1], n)
                   for n in names)

    def test_run_conserves_and_keeps_tokens_modest(self):
        sim_cfg = SimConfig(space=scalar_space(2), demand=unit_demand(), r=200,
                            alpha=1.0, mode="open", discipline="greedy-dm", seed=12)
        res = run(sim_cfg, xstar=np.array([0.2, 0.4]))
        assert res.summary["conservation_error"] == 0.0
        assert res.summary["token_fraction"] < 0.15
        assert res.summary["l2_to_target"] < 0.1

    def test_ac_variant_runs(self):
        space, demand = b3_instance()
        cfg = SimConfig(space=space, demand=demand, r=100, alpha=1.0,
                        mode="open", discipline="greedy-dm-ac", seed=5,
                        horizon=30.0, burn_in=5.0)
        res = run(cfg)
        assert res.summary["conservation_error"] == 0.0
        assert res.summary["n_events"] > 0


class TestCountWriter:
    """``_bump`` alone writes X, the class totals and the stale set."""

    def test_token_replacement_keeps_counts_and_weights(self):
        space = enumerate_configs(ResourceProfile(
            (1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05))))
        sim = Simulation(SimConfig(space=space, demand=unit_demand(4), r=30, alpha=1.0,
                                   mode="open", discipline="greedy-dm", seed=3))
        while not (sim.state.weights and any(sim.Ytilde)):
            assert sim.step()
        sim.state.rule_weights("d")  # brings every weight up to date
        i = next(j for j, v in enumerate(sim.Ytilde) if v)
        x_before = list(sim.X)
        sim._apply(sum(sim._arr_rate[:i]) + 0.5 * sim._arr_rate[i])  # type-i arrival
        assert sum(sim.rep_arr) == 1
        # The server changes state, not configuration.
        assert sim.X == x_before
        assert not sim.state.stale

    @pytest.mark.parametrize("discipline,mode", [("greedy-d", "closed"),
                                                 ("greedy-dm", "open")])
    def test_plain_rules_keep_no_class_totals(self, discipline, mode):
        space, demand = b3_instance()
        sim = Simulation(SimConfig(space=space, demand=demand, r=20, alpha=1.0,
                                   mode=mode, discipline=discipline, seed=1))
        assert sim.state.class_counts is None

    def test_pick_draws_by_cumulative_weight(self):
        weights = [2, 0, 3]
        assert [_pick(range(3), weights, u) for u in (0.0, 1.99, 2.0, 4.99)] == [0, 0, 2, 2]
        with pytest.raises(InvariantError, match="past the total"):
            _pick(range(3), weights, 5.0)


class TestDeterminism:
    def test_same_seed_same_summary(self):
        space, demand = b3_instance()
        cfg = dict(space=space, demand=demand, r=50, alpha=1.0, seed=33,
                   mode="open", discipline="greedy-dm", horizon=20.0)
        a = run(SimConfig(**cfg))
        b = run(SimConfig(**cfg))
        assert json.dumps(a.summary, sort_keys=True) == json.dumps(b.summary, sort_keys=True)

    def test_different_seeds_differ(self):
        space = scalar_space(2)
        mk = lambda s: run(SimConfig(space=space, demand=unit_demand(), r=50,
                                     alpha=1.0, mode="open", seed=s)).summary
        assert mk(1) != mk(2)

    def test_derive_seed_stable(self):
        assert derive_seed(42, 0, 1) == derive_seed(42, 0, 1)
        assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)


class TestSnapshotCsv:
    def test_round_trip_fields(self, tmp_path):
        space = scalar_space(2)
        cfg = SimConfig(space=space, demand=unit_demand(), r=20, alpha=1.0,
                        seed=8, horizon=15.0, burn_in=5.0, sample_interval=1.0)
        res = run(cfg)
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(space, res.snapshots, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x,y0,yhat0,ytilde0"
        assert len(lines) == len(res.snapshots) + 1
        import csv

        row = next(csv.DictReader(lines))
        x = json.loads(row["x"])
        first = res.snapshots[0]
        assert x == {",".join(map(str, space.configs[t])): v
                     for t, v in first.x.items()}
        assert int(row["y0"]) == first.y[0]
