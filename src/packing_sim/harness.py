"""Experiment orchestration: scale sweeps, replications, reporting.

An experiment runs a grid of scales r with several independent
replications per scale, compares time-averaged simulation states to the
exactly computed optimum, and emits a versioned, fully deterministic
report (same experiment and seed give identical bytes).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config_space import space_summary, sparse_state
from .optimizer import NonconvergenceError, solve_aggregate_optimum, solve_optimum
from .simulator import (
    _CLASS_DISCIPLINES,
    SimConfig,
    derive_seed,
    run as run_simulation,
    write_snapshots_csv,
)

REPORT_VERSION = 2

# Per-cell metrics: scalar metrics aggregate to (mean, se, n) across
# replications; "objective_timeseries" records a per-replication series
# instead and carries no aggregate row.
METRICS = (
    "l2_to_optimum",
    "aggregate_objective_gap",
    "token_fraction",
    "objective_timeseries",
    "y_conservation",
)
_SUMMARY_KEY = {
    "l2_to_optimum": "l2_to_target",
    "aggregate_objective_gap": "aggregate_objective_gap",
    "token_fraction": "token_fraction",
    "y_conservation": "conservation_error",
}
# The solver whose optimum a metric is measured against.
_NEEDS_SOLVER = {
    "l2_to_optimum": "solve_optimum",
    "aggregate_objective_gap": "solve_aggregate_optimum",
}


class WindowTooShortError(ValueError):
    """Sampling window has fewer snapshots than requested batches."""


@dataclass
class Experiment:
    """A sweep over scales with replications of a template run.

    ``base`` supplies everything but the scale and the seed: per cell
    (r index, replication index) the seed is derived deterministically
    from ``base.seed`` and the two indexes.
    """

    base: SimConfig
    r_grid: Sequence[float]
    replications: int = 1
    metrics: Optional[Sequence[str]] = None
    output_dir: Optional[str] = None

    def __post_init__(self):
        self.r_grid = [float(r) for r in self.r_grid]
        if any(r <= 0 for r in self.r_grid):
            raise ValueError("every scale in r_grid must be positive")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.metrics is None:
            self.metrics = self._default_metrics()
        self.metrics = list(self.metrics)
        for m in self.metrics:
            if m not in METRICS:
                raise ValueError(f"unknown metric {m!r}; pick from {METRICS}")
        if "aggregate_objective_gap" in self.metrics and not self.base.space.has_aggregates:
            raise ValueError("aggregate_objective_gap needs a space with aggregate classes")
        if "token_fraction" in self.metrics and not self.base.uses_tokens:
            raise ValueError("token_fraction applies to token disciplines only")

    def _default_metrics(self) -> list:
        if self.base.discipline in _CLASS_DISCIPLINES:
            m = ["aggregate_objective_gap"]
        else:
            m = ["l2_to_optimum"]
        if self.base.uses_tokens:
            m.append("token_fraction")
        return m


def batch_means(values: Sequence[float], num_batches: int = 20) -> tuple[float, float]:
    """Mean and batch-means standard error of a stationary series.

    Splits the series into ``num_batches`` contiguous batches of equal
    size (trailing remainder dropped) and estimates the standard error
    of the overall mean from the spread of batch means.
    """
    if num_batches < 1:
        raise ValueError(f"num_batches must be at least 1, got {num_batches}")
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < num_batches:
        raise WindowTooShortError(
            f"window has {n} samples, fewer than {num_batches} batches;"
            " extend the horizon or lower the batch count"
        )
    size = n // num_batches
    used = v[: size * num_batches].reshape(num_batches, size)
    bm = used.mean(axis=1)
    mean = float(v.mean())
    if num_batches < 2:
        return mean, 0.0
    se = float(np.std(bm, ddof=1) / math.sqrt(num_batches))
    return mean, se


def _objective_series(snapshots, alpha: float) -> tuple[list, list]:
    times = []
    vals = []
    p = 1.0 + alpha
    for s in snapshots:
        times.append(s.t)
        vals.append(sum(v ** p for v in s.x.values()) / p)
    return times, vals


def _run_cell(args):
    config, xstar, phistar, metrics, trace_path, solver_error = args
    if solver_error is not None:
        return {"seed": config.seed, "error": solver_error}
    try:
        result = run_simulation(config, xstar=xstar, phistar=phistar)
    except Exception as exc:  # noqa: BLE001 - cells are isolated
        return {"seed": config.seed, "error": f"{type(exc).__name__}: {exc}"}
    if trace_path is not None:
        write_snapshots_csv(config.space, result.snapshots, trace_path)
    out = {"seed": config.seed, "n_events": result.summary["n_events"]}
    for m in metrics:
        if m == "objective_timeseries":
            times, vals = _objective_series(result.snapshots, config.alpha)
            out["objective_timeseries"] = {"t": times, "objective": vals}
        else:
            val = float(result.summary[_SUMMARY_KEY[m]])
            if m == "aggregate_objective_gap":
                # Integer rounding of closed-mode populations can push the
                # signed gap a hair below zero; convergence is |gap| -> 0.
                val = abs(val)
            out[m] = val
    return out


def solve_optima(space, demand, alpha: float):
    """Both fluid optima, each solver guarded on its own.

    Returns (state, certificate, aggregate state, phistar, errors).  A
    solver that does not converge leaves its fields None and its message
    in ``errors`` under the solver's name; the aggregate fields are None
    on a space without classes.
    """
    errors = {}
    state = cert = agg_state = phistar = None
    try:
        state, cert = solve_optimum(space, demand, alpha)
    except NonconvergenceError as exc:
        errors["solve_optimum"] = f"NonconvergenceError: {exc}"
    if space.has_aggregates:
        try:
            agg_state, phistar = solve_aggregate_optimum(space, demand, alpha)
        except NonconvergenceError as exc:
            errors["solve_aggregate_optimum"] = f"NonconvergenceError: {exc}"
    return state, cert, agg_state, phistar, errors


def run_experiment(exp: Experiment, workers: int = 1) -> dict:
    """Run every (scale, replication) cell and assemble the report.

    Failed cells are recorded with an error marker and skipped by the
    verdicts; the report then carries ``partial: true``.  A solver that
    does not converge leaves its optimum fields null and its message under
    ``optimum.errors``; the cells whose metrics need that optimum fail.
    """
    base = exp.base
    space = base.space
    if not exp.r_grid:
        warnings.warn("empty r_grid: nothing to simulate", stacklevel=2)

    state, cert, _agg_state, phistar, errors = solve_optima(space, base.demand, base.alpha)
    xstar = None if state is None else state.x
    blocked = [errors[_NEEDS_SOLVER[m]] for m in exp.metrics if _NEEDS_SOLVER.get(m) in errors]
    solver_error = blocked[0] if blocked else None

    trace_dir = None
    if exp.output_dir is not None:
        trace_dir = os.path.join(exp.output_dir, "cells")
        os.makedirs(trace_dir, exist_ok=True)

    jobs = []
    for ri, r in enumerate(exp.r_grid):
        for rep in range(exp.replications):
            seed = derive_seed(base.seed, ri, rep)
            config = replace(base, r=r, seed=seed)
            trace = None
            if trace_dir is not None:
                trace = os.path.join(trace_dir, f"cell{ri:02d}_rep{rep:02d}.csv")
            jobs.append((config, xstar, phistar, exp.metrics, trace, solver_error))

    if workers > 1 and jobs:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_cell, jobs))
    else:
        raw = [_run_cell(job) for job in jobs]

    scalar_metrics = [m for m in exp.metrics if m != "objective_timeseries"]
    cells = []
    partial = False
    idx = 0
    for ri, r in enumerate(exp.r_grid):
        reps = raw[idx : idx + exp.replications]
        idx += exp.replications
        cell = {"r": r, "replications": reps, "stats": {}}
        good = [rep for rep in reps if "error" not in rep]
        if len(good) < len(reps):
            partial = True
            cell["missing"] = len(reps) - len(good)
        for m in scalar_metrics:
            vals = [rep[m] for rep in good]
            if not vals:
                cell["stats"][m] = None
                continue
            mean = float(np.mean(vals))
            se = 0.0
            if len(vals) > 1:
                se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
            cell["stats"][m] = {"mean": mean, "se": se, "n": len(vals)}
        cells.append(cell)

    verdicts = {}
    for m in scalar_metrics:
        rows = [c["stats"][m] for c in cells]
        if any(row is None for row in rows) or len(rows) < 2:
            verdicts[m] = {"decreasing": None}
            continue
        ok = True
        for a, b in zip(rows, rows[1:]):
            slack = math.sqrt(a["se"] ** 2 + b["se"] ** 2)
            # Non-strict: cells that sit exactly on the optimum give
            # identical means with zero spread and must not fail.
            if not b["mean"] <= a["mean"] + slack:
                ok = False
                break
        verdicts[m] = {"decreasing": ok}

    report = {
        "version": REPORT_VERSION,
        "experiment": {
            "space": space_summary(space),
            "arrival": [float(v) for v in base.demand.arrival],
            "service": [float(v) for v in base.demand.service],
            "alpha": base.alpha,
            "mode": base.mode,
            "discipline": base.discipline,
            "seed": base.seed,
            "horizon": base.horizon,
            "burn_in": base.burn_in,
            "sample_interval": base.sample_interval,
            "token_rate": base.token_rate if base.uses_tokens else None,
            "r_grid": exp.r_grid,
            "replications": exp.replications,
            "metrics": exp.metrics,
        },
        "optimum": {
            "x": None if state is None else sparse_state(space, xstar),
            "eta": None if cert is None else [float(v) for v in cert.eta],
            "kkt_residual": None if cert is None else float(cert.residual),
            "aggregate_objective": None if phistar is None else float(phistar),
        },
        "cells": cells,
        "verdicts": verdicts,
        "partial": partial,
    }
    if errors:
        report["optimum"]["errors"] = errors
    return report
