import csv
import json
from pathlib import Path

import pytest

from packing_sim.cli import main


def write_config(tmp_path, name="config.json", **body):
    doc = {
        "space": {"configs": [[1], [2]]},
        "arrival": [1.0],
        "service": [1.0],
        "alpha": 1.0,
    }
    doc.update(body)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestEnumerate:
    def test_prints_space_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, space={"B": [3.0], "b": [[1.0], [2.0]]})
        assert main(["enumerate", "--config", cfg]) == 0
        doc = read_json(capsys)
        assert doc["num_configs"] == 5
        assert doc["num_edges"] == 6
        assert doc["num_classes"] == 3
        assert [0, 1] in doc["configs"]

    def test_writes_file_with_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "results"
        assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "space.json").read_text())
        assert doc["num_configs"] == 2
        assert "wrote" in capsys.readouterr().out


class TestSolve:
    def test_stacked_pairs_optimum(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg]) == 0
        doc = read_json(capsys)
        assert doc["x"]["1"] == pytest.approx(0.2, abs=1e-8)
        assert doc["x"]["2"] == pytest.approx(0.4, abs=1e-8)
        assert doc["objective"] == pytest.approx(0.1, abs=1e-8)
        assert doc["kkt_residual"] < 1e-8

    def test_alpha_override_changes_solution(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg, "--alpha", "0.5"]) == 0
        doc = read_json(capsys)
        assert doc["alpha"] == 0.5
        assert doc["x"]["2"] > 0.4  # heavier tail pushes more into pairs

    def test_aggregate_block_present_with_profile(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            space={"B": [3.0], "b": [[1.0], [2.0]]},
            arrival=[0.5, 0.25],
            service=[1.0, 1.0],
        )
        assert main(["solve", "--config", cfg]) == 0
        doc = read_json(capsys)
        # class totals dominate per-config terms, so the aggregate
        # optimum sits above the plain one
        assert doc["aggregate"]["objective"] >= doc["objective"] - 1e-9
        assert doc["aggregate"]["x"]


class TestSimulate:
    def test_writes_summary_and_snapshots(self, tmp_path):
        cfg = write_config(tmp_path, r=30, seed=3, horizon=8.0, burn_in=2.0,
                           sample_interval=0.5)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["r"] == 30
        assert summary["mode"] == "closed"
        assert summary["l2_to_target"] >= 0.0
        with open(out / "snapshots.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary["n_samples"]
        assert json.loads(rows[0]["x"])  # sparse state parses

    def test_cli_overrides_reach_the_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, r=10, horizon=4.0, burn_in=1.0)
        assert main(["simulate", "--config", cfg, "--r", "25", "--mode",
                     "open", "--seed", "11"]) == 0
        summary = read_json(capsys)
        assert summary["r"] == 25
        assert summary["mode"] == "open"
        assert summary["seed"] == 11

    def test_token_discipline_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, r=20, mode="open",
                           discipline="greedy-dm", horizon=6.0, burn_in=1.0)
        assert main(["simulate", "--config", cfg]) == 0
        summary = read_json(capsys)
        assert summary["discipline"] == "greedy-dm"
        assert "token_fraction" in summary


class TestFluid:
    def test_default_start_converges(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["fluid", "--config", cfg, "--T", "30", "--dt", "1e-3"]) == 0
        doc = read_json(capsys)
        assert doc["final_t"] == pytest.approx(30.0)
        assert doc["final_x"]["2"] == pytest.approx(0.4, abs=1e-3)
        assert doc["steps"] == 30000

    def test_x0_map_and_trajectory_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "fl"
        assert main(["fluid", "--config", cfg, "--T", "1", "--dt", "0.5",
                     "--x0", '{"1": 1.0}', "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert json.loads(rows[0]["x"]) == {"1": 1.0}

    def test_x0_list_form(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["fluid", "--config", cfg, "--T", "0", "--dt", "0.1",
                     "--x0", "[0.2, 0.4]"]) == 0
        doc = read_json(capsys)
        assert doc["steps"] == 0
        assert doc["final_x"] == {"1": 0.2, "2": 0.4}


class TestExperiment:
    def test_report_written_and_verdict_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, r_grid=[20, 50], replications=2,
                           horizon=8.0, burn_in=2.0, seed=5)
        out = tmp_path / "exp"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["version"] == 2
        assert (out / "cells" / "cell00_rep00.csv").exists()
        assert "verdict l2_to_optimum: decreasing=" in capsys.readouterr().out

    def test_check_flag_passes_good_sweep(self, tmp_path):
        cfg = write_config(tmp_path, r_grid=[20, 50], horizon=8.0,
                           burn_in=2.0, seed=5)
        assert main(["experiment", "--config", cfg, "--check"]) == 0

    def test_check_flag_fails_bad_verdict(self, tmp_path, monkeypatch):
        import packing_sim.cli as cli_mod

        def fake(exp, workers=1):
            return {
                "version": 2,
                "partial": False,
                "cells": [],
                "verdicts": {"l2_to_optimum": {"decreasing": False}},
            }

        monkeypatch.setattr(cli_mod, "run_experiment", fake)
        cfg = write_config(tmp_path, r_grid=[10])
        assert main(["experiment", "--config", cfg]) == 0
        assert main(["experiment", "--config", cfg, "--check"]) == 2

    def test_check_flag_fails_real_bad_sweep(self, tmp_path, capsys):
        # Open greedy-d is closer to the optimum at r=2000 than at r=20.
        cfg = write_config(tmp_path, mode="open", r_grid=[2000, 20], horizon=12.0,
                           burn_in=2.0, seed=3)
        assert main(["experiment", "--config", cfg, "--check"]) == 2
        assert "verdict l2_to_optimum: decreasing=False" in capsys.readouterr().out

    def test_check_flag_fails_partial_report(self, tmp_path, monkeypatch):
        import packing_sim.cli as cli_mod

        def fake(exp, workers=1):
            return {"version": 2, "partial": True, "cells": [], "verdicts": {}}

        monkeypatch.setattr(cli_mod, "run_experiment", fake)
        cfg = write_config(tmp_path, r_grid=[10])
        assert main(["experiment", "--config", cfg, "--check"]) == 2

    def test_profile_e_token_config(self, tmp_path, capsys):
        # The committed smoke config on the largest space (2,787 configs,
        # 331,128 server states).
        cfg = Path(__file__).parent.parent / "experiments" / "profile-e-token.json"
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(cfg), "--out", str(out), "--check"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"]["space"]["num_configs"] == 2787
        assert not report["partial"]
        (cell,) = report["cells"]
        (rep,) = cell["replications"]
        assert rep["n_events"] > 0
        assert rep["y_conservation"] == 0


class TestPlumbing:
    def test_out_env_var(self, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("PACKING_SIM_OUT", str(out))
        cfg = write_config(tmp_path)
        assert main(["enumerate", "--config", cfg]) == 0
        assert (out / "space.json").exists()

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err != ""

    def test_invalid_space_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, space={"configs": [[2]]})  # no unit config
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "unit configuration" in err

    def test_bad_sim_parameters_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, r=10, discipline="greedy-dm")
        # token discipline in closed mode is rejected
        assert main(["simulate", "--config", cfg]) == 1

    @pytest.mark.parametrize("argv", [["enumerate", "--alpha", "2"], ["solve", "--r", "5"]])
    def test_subcommand_rejects_overrides_it_does_not_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", write_config(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_console_script_installed(self):
        import shutil

        assert shutil.which("packing-sim") is not None


class TestSolverFailure:
    """A solver that does not converge, forced by replacing it in the harness."""

    @staticmethod
    def stall(monkeypatch, name):
        from packing_sim.optimizer import NonconvergenceError

        def stalled(space, demand, alpha):
            raise NonconvergenceError(f"{name} stalled")

        monkeypatch.setattr(f"packing_sim.harness.{name}", stalled)

    def test_check_exits_two_when_aggregate_solver_fails(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        self.stall(monkeypatch, "solve_aggregate_optimum")
        rng = np.random.default_rng(3)
        cfg = write_config(
            tmp_path,
            space={"B": [1.0, 1.0], "b": [[0.3, 0.1], [0.1, 0.3], [0.2, 0.2], [0.45, 0.05]]},
            arrival=rng.uniform(0.2, 3.0, 4).tolist(),
            service=rng.uniform(0.2, 3.0, 4).tolist(),
            alpha=0.25, discipline="greedy-d-ac", r_grid=[10, 20],
            horizon=2.0, burn_in=0.5, sample_interval=0.1, seed=1,
        )
        out = tmp_path / "exp"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--check"]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["partial"] is True
        assert report["optimum"]["aggregate_objective"] is None
        assert "solve_aggregate_optimum" in report["optimum"]["errors"]
        assert "decreasing=None" in capsys.readouterr().out

    def test_simulate_keeps_aggregate_gap_when_plain_solver_fails(self, tmp_path, capsys,
                                                                  monkeypatch):
        import numpy as np

        self.stall(monkeypatch, "solve_optimum")
        rng = np.random.default_rng(5)
        cfg = write_config(
            tmp_path,
            space={"B": [1.0, 1.0], "b": [[0.3, 0.1], [0.1, 0.3], [0.2, 0.2], [0.45, 0.05]]},
            arrival=rng.uniform(0.2, 3.0, 4).tolist(),
            service=rng.uniform(0.2, 3.0, 4).tolist(),
            alpha=0.25, discipline="greedy-d-ac", r=10,
            horizon=2.0, burn_in=0.5, sample_interval=0.1, seed=1,
        )
        assert main(["simulate", "--config", cfg]) == 0
        summary = read_json(capsys)
        assert "l2_to_target" not in summary
        assert "aggregate_objective_gap" in summary

    @pytest.mark.parametrize("failed", ["solve_aggregate_optimum", "solve_optimum"])
    def test_solve_keeps_the_converged_optimum(self, tmp_path, capsys, monkeypatch, failed):
        self.stall(monkeypatch, failed)
        cfg = write_config(tmp_path, space={"B": [3.0], "b": [[1.0], [2.0]]},
                           arrival=[0.5, 0.25], service=[1.0, 1.0])
        assert main(["solve", "--config", cfg]) == 2
        doc = read_json(capsys)
        assert doc["errors"] == {failed: f"NonconvergenceError: {failed} stalled"}
        plain = (doc["x"], doc["eta"], doc["kkt_residual"], doc["objective"])
        aggregate = (doc["aggregate"]["x"], doc["aggregate"]["objective"])
        nulls, values = (plain, aggregate) if failed == "solve_optimum" else (aggregate, plain)
        assert all(v is None for v in nulls)
        assert all(v is not None for v in values)
