import json

import numpy as np
import pytest

from conftest import scalar_space
from packing_sim.config_space import (
    ResourceProfile,
    enumerate_configs,
)
from packing_sim.harness import (
    Experiment,
    WindowTooShortError,
    batch_means,
    run_experiment,
)
from packing_sim.optimizer import Demand, NonconvergenceError
from packing_sim.simulator import SimConfig


def base_config(**over):
    kw = dict(space=scalar_space(2), demand=Demand(np.ones(1), np.ones(1)),
              r=50, alpha=1.0, seed=7, horizon=12.0, burn_in=4.0,
              sample_interval=0.5)
    kw.update(over)
    return SimConfig(**kw)


class TestBatchMeans:
    def test_constant_series(self):
        mean, se = batch_means([2.5] * 40, num_batches=4)
        assert mean == 2.5
        assert se == 0.0

    def test_two_batch_hand_case(self):
        mean, se = batch_means([1.0, 1.0, 3.0, 3.0], num_batches=2)
        assert mean == 2.0
        # batch means 1 and 3: sample std sqrt(2), over sqrt(2) batches
        assert se == pytest.approx(1.0)

    def test_remainder_only_affects_se(self):
        mean, se = batch_means([1.0, 1.0, 3.0, 3.0, 100.0], num_batches=2)
        assert mean == pytest.approx(21.6)  # overall mean keeps the tail
        assert se == pytest.approx(1.0)  # batches drop it

    def test_single_batch_has_no_spread_estimate(self):
        mean, se = batch_means([1.0, 2.0, 3.0], num_batches=1)
        assert mean == 2.0
        assert se == 0.0

    def test_short_window_raises(self):
        with pytest.raises(WindowTooShortError, match="extend the horizon"):
            batch_means([1.0, 2.0], num_batches=20)


class TestExperimentValidation:
    def test_default_metrics_follow_discipline(self):
        exp = Experiment(base=base_config(), r_grid=[10])
        assert exp.metrics == ["l2_to_optimum"]
        dm = Experiment(base=base_config(mode="open", discipline="greedy-dm"),
                        r_grid=[10])
        assert dm.metrics == ["l2_to_optimum", "token_fraction"]

    def test_class_discipline_defaults_to_objective_gap(self):
        space = enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))
        demand = Demand(np.array([0.5, 0.25]), np.array([1.0, 1.0]))
        cfg = base_config(space=space, demand=demand, discipline="greedy-d-ac")
        exp = Experiment(base=cfg, r_grid=[10])
        assert exp.metrics == ["aggregate_objective_gap"]

    def test_rejects_bad_grid_and_metrics(self):
        with pytest.raises(ValueError, match="positive"):
            Experiment(base=base_config(), r_grid=[10, 0])
        with pytest.raises(ValueError, match="replications"):
            Experiment(base=base_config(), r_grid=[10], replications=0)
        with pytest.raises(ValueError, match="unknown metric"):
            Experiment(base=base_config(), r_grid=[10], metrics=["wat"])

    def test_metric_compatibility(self):
        with pytest.raises(ValueError, match="aggregate"):
            Experiment(base=base_config(), r_grid=[10],
                       metrics=["aggregate_objective_gap"])
        with pytest.raises(ValueError, match="token"):
            Experiment(base=base_config(), r_grid=[10],
                       metrics=["token_fraction"])


class TestRunExperiment:
    def test_report_structure_and_verdict(self):
        exp = Experiment(base=base_config(), r_grid=[50, 200], replications=2)
        report = run_experiment(exp)
        assert report["version"] == 1
        assert report["partial"] is False
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            stats = cell["stats"]["l2_to_optimum"]
            assert stats["n"] == 2
            assert stats["mean"] >= 0.0
            assert len(cell["replications"]) == 2
        # closed runs absorb at the optimum, so the sweep cannot fail
        assert report["verdicts"]["l2_to_optimum"]["decreasing"] is True
        assert report["experiment"]["r_grid"] == [50.0, 200.0]
        assert "x" in report["optimum"]

    def test_reports_are_deterministic(self):
        exp = Experiment(base=base_config(), r_grid=[30], replications=2)
        a = json.dumps(run_experiment(exp), sort_keys=True)
        b = json.dumps(run_experiment(exp), sort_keys=True)
        assert a == b

    def test_replication_seeds_differ(self):
        exp = Experiment(base=base_config(mode="open"), r_grid=[30],
                         replications=3)
        reps = run_experiment(exp)["cells"][0]["replications"]
        assert len({rep["seed"] for rep in reps}) == 3

    def test_empty_grid_warns(self):
        exp = Experiment(base=base_config(), r_grid=[])
        with pytest.warns(UserWarning, match="empty r_grid"):
            report = run_experiment(exp)
        assert report["cells"] == []
        assert report["verdicts"]["l2_to_optimum"]["decreasing"] is None

    def test_failed_cells_marked_partial(self, monkeypatch):
        def boom(config, xstar=None, phistar=None):
            raise RuntimeError("boom")

        monkeypatch.setattr("packing_sim.harness.run_simulation", boom)
        exp = Experiment(base=base_config(), r_grid=[10, 20])
        report = run_experiment(exp)
        assert report["partial"] is True
        for cell in report["cells"]:
            assert cell["missing"] == 1
            assert cell["stats"]["l2_to_optimum"] is None
            assert "RuntimeError: boom" in cell["replications"][0]["error"]
        assert report["verdicts"]["l2_to_optimum"]["decreasing"] is None

    def test_partial_failure_keeps_good_cells(self, monkeypatch):
        from packing_sim import harness as hmod

        real = hmod.run_simulation

        def flaky(config, xstar=None, phistar=None):
            if config.r >= 20:
                raise ValueError("no")
            return real(config, xstar=xstar, phistar=phistar)

        monkeypatch.setattr(hmod, "run_simulation", flaky)
        exp = Experiment(base=base_config(horizon=6.0, burn_in=2.0),
                         r_grid=[10, 20])
        report = run_experiment(exp)
        assert report["partial"] is True
        assert report["cells"][0]["stats"]["l2_to_optimum"] is not None
        assert report["cells"][1]["stats"]["l2_to_optimum"] is None

    def test_traces_written(self, tmp_path):
        exp = Experiment(base=base_config(horizon=6.0, burn_in=2.0),
                         r_grid=[10], replications=2,
                         output_dir=str(tmp_path))
        run_experiment(exp)
        assert (tmp_path / "cells" / "cell00_rep00.csv").exists()
        assert (tmp_path / "cells" / "cell00_rep01.csv").exists()

    def test_worker_pool_matches_sequential(self):
        exp = Experiment(base=base_config(horizon=6.0, burn_in=2.0),
                         r_grid=[10, 20], replications=2)
        seq = run_experiment(exp, workers=1)
        par = run_experiment(exp, workers=2)
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_objective_timeseries_has_no_scalar_stats(self):
        exp = Experiment(base=base_config(horizon=6.0, burn_in=2.0),
                         r_grid=[10],
                         metrics=["l2_to_optimum", "objective_timeseries"])
        report = run_experiment(exp)
        cell = report["cells"][0]
        assert "objective_timeseries" not in cell["stats"]
        series = cell["replications"][0]["objective_timeseries"]
        assert len(series["t"]) == len(series["objective"]) > 0
        assert "objective_timeseries" not in report["verdicts"]

    def test_token_discipline_reports_fraction(self):
        cfg = base_config(mode="open", discipline="greedy-dm",
                          horizon=8.0, burn_in=2.0)
        exp = Experiment(base=cfg, r_grid=[30], replications=2)
        report = run_experiment(exp)
        stats = report["cells"][0]["stats"]["token_fraction"]
        assert 0.0 <= stats["mean"] < 1.0
        assert report["experiment"]["token_rate"] == cfg.token_rate


class TestSolverFailure:
    """A solver that does not converge nulls its optimum fields and fails
    exactly the cells whose metrics need that optimum."""

    @staticmethod
    def p48_gap_failure(monkeypatch):
        """A 48-config instance whose aggregate solve is made to fail; the
        plain solver converges."""
        def stalled(space, demand, alpha):
            raise NonconvergenceError("aggregate solver gap 2.955e-06, feasibility "
                                      "1.110e-16 exceed tol 1.0e-07")

        monkeypatch.setattr("packing_sim.harness.solve_aggregate_optimum", stalled)
        rng = np.random.default_rng(3)
        demand = Demand(rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4))
        profile = ResourceProfile((1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05)))
        return base_config(space=enumerate_configs(profile), demand=demand, alpha=0.25,
                           discipline="greedy-d-ac", r=10, horizon=2.0, burn_in=0.5,
                           sample_interval=0.1)

    def test_aggregate_failure_fails_gap_cells(self, monkeypatch):
        exp = Experiment(base=self.p48_gap_failure(monkeypatch), r_grid=[10, 20],
                         metrics=["aggregate_objective_gap", "y_conservation"])
        report = run_experiment(exp)
        optimum = report["optimum"]
        assert optimum["aggregate_objective"] is None
        message = optimum["errors"]["solve_aggregate_optimum"]
        assert message.startswith("NonconvergenceError: aggregate solver gap 2.955e-06")
        assert list(optimum["errors"]) == ["solve_aggregate_optimum"]
        assert optimum["kkt_residual"] <= 1e-9 and optimum["x"]
        assert report["partial"] is True
        for cell in report["cells"]:
            assert cell["replications"][0]["error"] == message
            assert cell["stats"]["aggregate_objective_gap"] is None
        assert report["verdicts"]["aggregate_objective_gap"]["decreasing"] is None

    def test_cells_without_that_metric_still_run(self, monkeypatch):
        exp = Experiment(base=self.p48_gap_failure(monkeypatch), r_grid=[10, 20],
                         metrics=["l2_to_optimum"])
        report = run_experiment(exp)
        assert "solve_aggregate_optimum" in report["optimum"]["errors"]
        assert report["partial"] is False
        assert all(c["stats"]["l2_to_optimum"]["n"] == 1 for c in report["cells"])

    def test_plain_failure_nulls_its_fields(self, monkeypatch):
        from packing_sim.optimizer import NonconvergenceError

        def stalled(space, demand, alpha):
            raise NonconvergenceError("optimum solver stalled")

        monkeypatch.setattr("packing_sim.harness.solve_optimum", stalled)
        report = run_experiment(Experiment(base=base_config(), r_grid=[10, 20]))
        optimum = report["optimum"]
        assert optimum["x"] is None and optimum["eta"] is None
        assert optimum["kkt_residual"] is None
        assert optimum["errors"] == {
            "solve_optimum": "NonconvergenceError: optimum solver stalled"}
        assert report["partial"] is True
        assert all(c["missing"] == 1 for c in report["cells"])
