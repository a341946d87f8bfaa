#!/usr/bin/env python3
"""Benchmark for packing-sim: three workloads, one process, one worker.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each one exists):

    sweep-small  `packing-sim experiment` on the acceptance instances
                 (k12 closed greedy-d, b3 open greedy-dm-ac), r in {100, 1000}
    sweep-428    the same entry point on the 428-config profile: one closed
                 greedy-d sweep and one open greedy-dm (token) sweep
    solve-fluid  seeded random demands on the 48- and 428-config profiles at
                 five alphas through both optimum solvers, plus a fluid
                 integration sweep over the same alphas

The program under test is imported from ``src/`` next to this directory.
With ``--trace 0`` only stable top-level API is called; ``--trace 1``
additionally wraps the module-level names the layers call each other
through, records spans in memory, probes single layers and reports the
per-layer figures.  The last stdout line is the result object; the line
before it carries the machine record and every workload figure.
A failed correctness check prints the result with ``correct: false``
and exits 1.  Without ``src/packing_sim`` it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep-small", "sweep-428", "solve-fluid")
ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
PROFILE_48 = {"B": [1.0, 1.0], "b": [[0.3, 0.1], [0.1, 0.3], [0.2, 0.2], [0.45, 0.05]]}
PROFILE_428 = {"B": [1.0, 1.0], "b": [[0.15, 0.05], [0.05, 0.15], [0.1, 0.1], [0.2, 0.03]]}

# Solver tolerances at their defaults; the gate applies them unloosened.
PLAIN_TOL = 1e-9
AGG_TOL = 1e-7
# integrate() itself rejects a start state off A x = rho by more than this.
FLUID_FEAS_TOL = 1e-9

# Set-up is timed in blocks spread over the run: one block before every
# measured pass, each block repeating set-up for at least this long.
SETUP_BLOCK_SECONDS = 0.1
MIN_PASSES = 3
# criterion 4's bound on the k12 closed-system distance at the largest r.
K12_L2_MAX = 0.02
# Seeded demand draws per (space, alpha) in solve-fluid: 48 and 428 configs.
SOLVE_DRAWS = (2, 1)
FLUID_HORIZON = 5.0
FLUID_DT = 1e-2

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}
FIGURE_UNITS = {
    "events_per_s": "1/s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solve_fail_frac": "ratio",
    "fluid_steps_per_s": "1/s",
    "cells_fail_frac": "ratio",
}
LAYER_UNITS = {
    "simulator.total_rate_us": "us",
    "simulator.select_apply_us": "us",
    "simulator.place_us": "us",
    "simulator.setup_s": "s",
    "simulator.snapshot_us": "us",
    "simulator.events": "count",
    "simulator.opens": "count",
    "simulator.stacks": "count",
    "simulator.fresh_arrivals": "count",
    "simulator.replacements": "count",
    "simulator.token_placements": "count",
    "simulator.expiries": "count",
    "optimizer.solve_optimum_s": "s",
    "optimizer.solve_aggregate_s": "s",
    "optimizer.project_s": "s",
    "optimizer.project_calls": "count",
    "optimizer.nonconverged": "count",
    "optimizer.state_missing": "count",
    "optimizer.kkt_residual_max": "1",
    "fluid.integrate_s": "s",
    "fluid.allocation_us": "us",
    "fluid.final_dist": "1",
    "harness.run_experiment_s": "s",
    "harness.cell_s": "s",
    "harness.solve_s": "s",
    "harness.self_s": "s",
    "harness.cells": "count",
    "harness.cells_failed": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "config_space.enumerate_s": "s",
    "config_space.num_configs": "count",
    "config_space.num_edges": "count",
    "config_space.num_classes": "count",
}
SPAN_LAYER = {
    "cli.main": "cli",
    "config_space.space_from_dict": "config_space",
    "harness.run_experiment": "harness",
    "simulator.run": "simulator",
    "optimizer.solve_optimum": "optimizer",
    "optimizer.solve_aggregate_optimum": "optimizer",
    "optimizer.project_to_polytope": "optimizer",
    "fluid.project_to_polytope": "optimizer",
    "fluid.integrate": "fluid",
}


class Reference:
    """A fixed loop of dict updates and small numpy operations, timed between
    measured units.

    On a virtual machine shared with other tenants a core can switch
    between a fast and a slow state many times a second, with the share of
    slow time drifting over minutes.  The loop's mean time over a run,
    against ``NOMINAL_S``, is how much slower than nominal the machine ran.
    A workload slows by between none and all of that, depending on the
    kind of contention and on its own mix of work, so end-to-end times are
    divided by the square root of the loop's slowdown: the geometric middle
    of the two ends, which halves the error at either end.  The loop is the
    benchmark's own code, so a change to the package cannot move it.
    """

    NOMINAL_S = 3.0e-3

    def __init__(self, np):
        self.np = np
        self.times = []

    def sample(self):
        np = self.np
        for _ in range(3):
            t0 = time.perf_counter()
            counts = {}
            for i in range(20000):
                counts[i % 97] = counts.get(i % 97, 0) + i
            a = np.arange(20000.0)
            for _ in range(50):
                (a * 1.0001).sum()
            self.times.append(time.perf_counter() - t0)

    def scale(self):
        return math.sqrt(self.NOMINAL_S / statistics.mean(self.times))


class Gate:
    """Collects correctness violations; any one fails the run."""

    def __init__(self):
        self.problems = []

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  Below 22 samples that percentile is not
    above the median, so the maximum (percentile 100) is returned instead;
    the caller states the sample count.
    """
    if not values:
        return 0.0, 0.0
    v = sorted(values)
    if len(v) < 22:
        return v[-1], 100.0
    k = len(v) - 11
    return v[k], 100.0 * k / (len(v) - 1)


def per_call_us(fn, budget=0.25, max_calls=2000):
    """Median wall time of one call in microseconds."""
    times = []
    end = time.perf_counter() + budget
    while len(times) < max_calls and (len(times) < 5 or time.perf_counter() < end):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def constraint_rows(space, np):
    """A with A[i, t] = (config t)_i, so feasibility reads A x = rho."""
    return np.asarray(space.configs, dtype=float).T


def check_plain(gate, np, space, demand, state, cert, where):
    A = constraint_rows(space, np)
    feas = float(np.max(np.abs(A @ state.x - demand.rho)))
    gate.require(cert.residual <= PLAIN_TOL,
                 f"{where}: KKT residual {cert.residual:.3e} > tol {PLAIN_TOL:.0e}")
    gate.require(feas <= PLAIN_TOL and float(np.min(state.x)) >= -PLAIN_TOL,
                 f"{where}: infeasible optimum (|Ax - rho| = {feas:.3e})")


def check_aggregate(gate, np, space, demand, state, where):
    # The aggregate solver's own test is duality gap plus feasibility; the
    # gap is not exposed, so feasibility and sign are checked here.
    A = constraint_rows(space, np)
    feas = float(np.max(np.abs(A @ state.x - demand.rho)))
    gate.require(feas <= AGG_TOL and float(np.min(state.x)) >= -AGG_TOL,
                 f"{where}: infeasible aggregate optimum (|Ax - rho| = {feas:.3e})")


# -- machine record --------------------------------------------------------


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():  # never report an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record(np, seed):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- sweep workloads -------------------------------------------------------


def experiments(workload, seed):
    """(name, experiment config, gate on verdicts) for a sweep workload.

    The gated k12 experiment must give `decreasing` verdicts and end below
    criterion 4's distance bound.  The b3 class-objective gap is already
    within noise at r = 100, so its two-scale verdict fails on some seeds
    for correct code, and at r = 1000 it is above criterion 6's
    0.01 * phistar on most seeds (criterion 6 applies it at r = 10000); it
    is reported, not gated.  Conservation is gated on every cell of every
    experiment.
    """
    rng = random.Random(seed)
    if workload == "sweep-small":
        exps = [
            ("k12-closed", {
                "space": {"configs": [[1], [2]]},
                "arrival": [1.0], "service": [1.0], "alpha": 1.0,
                "mode": "closed", "discipline": "greedy-d",
                "r_grid": [100, 1000], "replications": 1,
                "metrics": ["l2_to_optimum", "y_conservation"],
            }, True),
            ("b3-token", {
                "space": {"profile": {"B": [3.0], "b": [[1.0], [2.0]]}},
                "arrival": [0.5, 0.25], "service": [1.0, 1.0], "alpha": 1.0,
                "mode": "open", "discipline": "greedy-dm-ac", "token_rate": 20.0,
                "r_grid": [100, 1000], "replications": 1,
                "metrics": ["aggregate_objective_gap", "y_conservation"],
            }, False),
        ]
    else:
        base = {"space": {"profile": PROFILE_428}, "arrival": [1.0] * 4,
                "service": [1.0] * 4, "alpha": 1.0, "replications": 1}
        # Short horizons: a 428-config token event costs milliseconds.  A
        # token cell has only 60-180 events, so the token sweep runs three
        # replications to keep its work per pass from varying with the seed.
        exps = [
            ("428-closed", dict(base, mode="closed", discipline="greedy-d",
                                r_grid=[100, 400], horizon=5.0, burn_in=1.5,
                                sample_interval=0.175,
                                metrics=["l2_to_optimum", "y_conservation"]), False),
            ("428-token", dict(base, mode="open", discipline="greedy-dm",
                               r_grid=[10, 30], horizon=3.0, burn_in=1.0,
                               sample_interval=0.1, replications=3,
                               metrics=["l2_to_optimum", "token_fraction",
                                        "y_conservation"]), False),
        ]
    for _name, cfg, _check in exps:
        cfg["seed"] = rng.getrandbits(32)
        cfg["workers"] = 1
    return exps


def sim_config(pkg, np, space, cfg, r, seed, **override):
    fields = {k: float(cfg[k]) for k in ("horizon", "burn_in", "sample_interval",
                                          "token_rate") if k in cfg}
    fields.update(override)
    return pkg.SimConfig(
        space=space,
        demand=pkg.Demand(np.asarray(cfg["arrival"], dtype=float),
                          np.asarray(cfg["service"], dtype=float)),
        r=float(r), alpha=float(cfg["alpha"]), mode=cfg["mode"],
        discipline=cfg["discipline"], seed=seed, **fields)


def sweep_setup(pkg, np, exps, gate):
    """One set-up of every experiment: space, optimum solves, engine.

    Returns ((enumerate, solve, engine seconds), spaces).
    """
    t_enum = t_solve = t_engine = 0.0
    spaces = []
    for name, cfg, _check in exps:
        t0 = time.perf_counter()
        space = pkg.space_from_dict(cfg["space"])
        t1 = time.perf_counter()
        demand = pkg.Demand(np.asarray(cfg["arrival"], dtype=float),
                            np.asarray(cfg["service"], dtype=float))
        state, cert = pkg.solve_optimum(space, demand, cfg["alpha"])
        agg = None
        if space.has_aggregates:
            agg, _value = pkg.solve_aggregate_optimum(space, demand, cfg["alpha"])
        t2 = time.perf_counter()
        pkg.run(sim_config(pkg, np, space, cfg, max(cfg["r_grid"]), cfg["seed"],
                           horizon=0.0))
        t3 = time.perf_counter()
        t_enum += t1 - t0
        t_solve += t2 - t1
        t_engine += t3 - t2
        check_plain(gate, np, space, demand, state, cert, f"{name} set-up optimum")
        if agg is not None:
            check_aggregate(gate, np, space, demand, agg, f"{name} set-up aggregate optimum")
        spaces.append(space)
    return (t_enum, t_solve, t_engine), spaces


def direct(_name, fn, *args, **kwargs):
    """The untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


def sweep_pass(pkg, exps, paths, gate, ref, call=direct):
    """Run every experiment once through cli.main; returns pass figures."""
    wall = 0.0
    fig = {"events": 0, "cells": 0, "cells_failed": 0, "report_bytes": 0, "kkt_max": 0.0,
           "verdicts": {}, "experiment_s": []}
    for (name, _cfg, check), (cfg_path, out_dir) in zip(exps, paths):
        argv = ["experiment", "--config", str(cfg_path), "--out", str(out_dir)]
        if check:
            argv.append("--check")
        sink = io.StringIO()
        ref.sample()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = call("cli.main", pkg.cli.main, argv)
        fig["experiment_s"].append(time.perf_counter() - t0)
        wall += fig["experiment_s"][-1]
        gate.require(rc == 0, f"{name}: packing-sim experiment exited {rc}")
        report_path = out_dir / "report.json"
        fig["report_bytes"] += report_path.stat().st_size
        report = json.loads(report_path.read_text())
        kkt = report["optimum"]["kkt_residual"]
        gate.require(kkt <= PLAIN_TOL, f"{name}: report KKT residual {kkt:.3e}")
        fig["kkt_max"] = max(fig["kkt_max"], kkt)
        for cell in report["cells"]:
            for rep in cell["replications"]:
                fig["cells"] += 1
                if "error" in rep:
                    fig["cells_failed"] += 1
                    continue
                fig["events"] += rep["n_events"]
                gate.require(rep["y_conservation"] == 0,
                             f"{name} r={cell['r']}: conservation_error "
                             f"{rep['y_conservation']}")
        fig["verdicts"][name] = {m: v["decreasing"] for m, v in report["verdicts"].items()}
        if check:
            for metric, verdict in report["verdicts"].items():
                gate.require(verdict["decreasing"] is True,
                             f"{name}: verdict {metric} decreasing={verdict['decreasing']}")
            final = report["cells"][-1]["stats"]["l2_to_optimum"]
            gate.require(final is not None and final["mean"] < K12_L2_MAX,
                         f"{name}: l2_to_optimum at r={report['cells'][-1]['r']} is "
                         f"{final and final['mean']}, not < {K12_L2_MAX}")
    fig["wall"] = wall
    return fig


def probe_simulator(pkg, np, space, cfg):
    """Per-event layer costs on the end-of-run state of the largest-r cell."""
    from packing_sim import simulator

    ri = len(cfg["r_grid"]) - 1
    seed = simulator.derive_seed(cfg["seed"], ri, 0)
    config = sim_config(pkg, np, space, cfg, cfg["r_grid"][ri], seed)
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        sim = simulator.Simulation(config)
        builds.append(time.perf_counter() - t0)
    while sim.t < config.horizon and sim.step():
        pass
    if config.discipline in ("greedy-d-ac", "greedy-dm-ac"):
        def place(i):
            return simulator.place_greedy_ac(sim.state, i, sim.rng)
    elif config.discipline == "greedy-i":
        def place(i):
            return simulator.place_greedy_i(sim.state, i)
    else:
        def place(i):
            return simulator.place_greedy_d(sim.state, i)
    place_us = statistics.mean(per_call_us(lambda i=i: place(i))
                               for i in range(space.num_types))
    snapshot_us = per_call_us(lambda: sim.snapshot(sim.t))
    # step() = total_rate() + selection and application; the two are timed
    # back to back and differenced per event, so that a change in machine
    # speed between two separate timings cannot make the difference negative.
    rate, rest = [], []
    end = time.perf_counter() + 0.25
    while len(rate) < 2000 and (len(rate) < 5 or time.perf_counter() < end):
        t0 = time.perf_counter()
        sim.total_rate()
        t1 = time.perf_counter()
        sim.step()
        t2 = time.perf_counter()
        rate.append(t1 - t0)
        rest.append((t2 - t1) - (t1 - t0))
    return {
        "simulator.setup_s": statistics.median(builds),
        "simulator.total_rate_us": 1e6 * statistics.median(rate),
        "simulator.select_apply_us": 1e6 * statistics.median(rest),
        "simulator.place_us": place_us,
        "simulator.snapshot_us": snapshot_us,
    }


def run_counts(results):
    """Event counters summed over cells, read from final snapshots."""
    c = dict.fromkeys(("simulator.events", "simulator.opens", "simulator.stacks",
                       "simulator.fresh_arrivals", "simulator.replacements",
                       "simulator.token_placements", "simulator.expiries"), 0)
    for res in results:
        c["simulator.events"] += res.summary["n_events"]
        if not res.snapshots:
            continue
        snap = res.snapshots[-1]
        base = res.config.space.edge_base
        for e, v in snap.arrivals.items():
            c["simulator.opens" if base[e] < 0 else "simulator.stacks"] += v
        for key, attr in (("simulator.fresh_arrivals", "fresh_arrivals"),
                          ("simulator.replacements", "replacement_arrivals"),
                          ("simulator.token_placements", "token_arrivals"),
                          ("simulator.expiries", "expiries")):
            c[key] += sum((getattr(snap, attr) or {}).values())
    return c


def install_sweep_tracing(tracer, results):
    from packing_sim import cli, harness, optimizer

    tracer.wrap(cli, "run_experiment", "harness.run_experiment")
    tracer.wrap(cli, "space_from_dict", "config_space.space_from_dict")
    tracer.wrap(harness, "run_simulation", "simulator.run", on_result=results.append)
    tracer.wrap(harness, "solve_optimum", "optimizer.solve_optimum")
    tracer.wrap(harness, "solve_aggregate_optimum", "optimizer.solve_aggregate_optimum")
    tracer.wrap(optimizer, "project_to_polytope", "optimizer.project_to_polytope")


def setup_block(setup, ref):
    """Call ``setup`` once, then again until SETUP_BLOCK_SECONDS have passed.

    ``setup`` returns its timing and keeps only its latest products alive,
    so repeated set-ups do not inflate the peak RSS.  Returns the timings.
    """
    ref.sample()
    timings = []
    end = time.perf_counter() + SETUP_BLOCK_SECONDS
    while not timings or time.perf_counter() < end:
        timings.append(setup())
    return timings


def measure(seconds, ref, plain_pass, traced_pass=None, setup=None, min_passes=MIN_PASSES):
    """Repeat passes until ``seconds`` have passed and ``min_passes`` are done.

    A set-up block precedes every plain pass, so that set-up is timed over
    the whole run, as the passes are, not in one stretch at its start.
    With ``traced_pass`` given, traced and plain passes alternate so that
    both see the same machine conditions; the plain ones give the
    end-to-end figures and the traced/plain ratio the tracing overhead.
    Returns (plain passes, traced passes, set-up timings).
    """
    plain, traced, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while (len(plain) < min_passes or time.perf_counter() < deadline
           or (traced_pass is not None and len(traced) < len(plain))):
        if traced_pass is not None and len(traced) < len(plain):
            traced.append(traced_pass(len(traced) + 1))
        else:
            if setup is not None:
                setups += setup_block(setup, ref)
            plain.append(plain_pass())
    return plain, traced, setups


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_figures(ref, setup_walls, sweep_walls):
    """The bounded end-to-end figures: mean times scaled by the reference.

    Means, not medians: a unit's time grows linearly with the share of slow
    machine time during it, and the reference mean tracks that share over
    the run.  The mean wall times as measured and the scale go to the
    notes.
    """
    setup_wall = statistics.mean(setup_walls)
    sweep_wall = statistics.mean(sweep_walls)
    scale = ref.scale()
    figures = {"setup_s": setup_wall * scale, "sweep_s": sweep_wall * scale,
               "peak_rss_mb": peak_rss_mb()}
    notes = {"setup_wall_s": setup_wall, "sweep_wall_s": sweep_wall, "speed_scale": scale,
             "reference_samples": len(ref.times)}
    return figures, notes


def space_counts(spaces, enumerate_s):
    return {
        "config_space.enumerate_s": enumerate_s,
        "config_space.num_configs": sum(s.num_configs for s in spaces),
        "config_space.num_edges": sum(s.num_edges for s in spaces),
        "config_space.num_classes": sum(
            s.aggregates.num_classes for s in spaces if s.has_aggregates),
    }


def sweep_workload(args, pkg, np, gate):
    exps = experiments(args.workload, args.seed)
    built = {}

    def setup():
        timing, built["spaces"] = sweep_setup(pkg, np, exps, gate)
        return timing

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        paths = []
        for name, cfg, _check in exps:
            cfg_path = Path(work) / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            paths.append((cfg_path, Path(work) / name))
        return sweep_measure(args, pkg, np, gate, exps, paths, setup, built)


def sweep_measure(args, pkg, np, gate, exps, paths, setup, built):
    ref = Reference(np)

    def plain_pass():
        return sweep_pass(pkg, exps, paths, gate, ref)

    tracer = traced_pass = None
    results = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

        def traced_pass(request):
            tracer.request = request
            install_sweep_tracing(tracer, results if request == 1 else [])
            try:
                return sweep_pass(pkg, exps, paths, gate, ref, tracer.call)
            finally:
                tracer.unwrap_all()

    plain, traced, setups = measure(args.seconds, ref, plain_pass, traced_pass, setup)
    pass_s = median([p["wall"] for p in plain])
    # The harness repeats the set-up optimum solves inside the sweep.
    solve_s = median([s[1] for s in setups])
    figures, notes = time_figures(ref, [sum(s) for s in setups], [p["wall"] for p in plain])
    figures.update({
        "events_per_s": plain[0]["events"] / (pass_s - solve_s),
        "cells_fail_frac": (sum(p["cells_failed"] for p in plain)
                            / sum(p["cells"] for p in plain)),
    })
    notes.update({"passes": len(plain), "setups": len(setups),
                  "events_per_pass": plain[0]["events"],
                  "pass_s": [p["wall"] for p in plain],
                  "experiment_s": [p["experiment_s"] for p in plain],
                  "optimum_solve_s_per_pass": solve_s, "verdicts": plain[0]["verdicts"]})
    passes = plain + traced
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["cells_failed"] for p in passes)
    if tracer is None:
        return figures, notes, attempted, failed, None

    layers = sweep_layers(pkg, np, tracer, traced, results, exps, built["spaces"], setups,
                          notes)
    overhead = median([p["wall"] for p in traced]) / pass_s - 1.0
    return figures, notes, attempted, failed, (layers, tracer, overhead)


def failure_label(pkg, exc):
    label = type(exc).__name__
    if isinstance(exc, pkg.NonconvergenceError) and exc.state is None:
        label += " (state=None)"
    return label


def solve_failure_counts(labels):
    return {
        "optimizer.nonconverged": sum(x.startswith("NonconvergenceError") for x in labels),
        "optimizer.state_missing": sum(x.endswith("(state=None)") for x in labels),
    }


def sweep_layers(pkg, np, tracer, traced, results, exps, spaces, setups, notes):
    from tracing import totals

    per_pass = [totals(tracer.select([k + 1])) for k in range(len(traced))]

    def med(name, field=0):
        return median([t[name][field] if name in t else 0.0 for t in per_pass])

    solve_names = ("optimizer.solve_optimum", "optimizer.solve_aggregate_optimum")
    solve_spans = [s for s in tracer.spans if s[2] in solve_names]
    solve_times = [s[4] - s[3] for s in solve_spans]
    notes["solves"] = len(solve_times)
    notes["solve_tail_percentile"] = tail(solve_times)[1]
    excs = [failure_label(pkg, s[6]) for s in solve_spans if s[6] is not None]
    sim_s = med("simulator.run")
    probes = [probe_simulator(pkg, np, space, cfg)
              for space, (_name, cfg, _check) in zip(spaces, exps)]
    layers = {key: statistics.mean(p[key] for p in probes) for key in probes[0]}
    layers.update(run_counts(results))
    layers.update(solve_failure_counts(excs))
    layers.update(space_counts(spaces, median([s[0] for s in setups])))
    solve_s = med(solve_names[0]) + med(solve_names[1])
    layers.update({
        "events_per_s": layers["simulator.events"] / sim_s,
        "solve_s_p50": median(solve_times),
        "solve_s_tail": tail(solve_times)[0],
        "solve_fail_frac": len(excs) / len(solve_spans),
        "fluid_steps_per_s": 0.0,
        "cells_fail_frac": (sum(p["cells_failed"] for p in traced)
                            / sum(p["cells"] for p in traced)),
        "optimizer.solve_optimum_s": med(solve_names[0]),
        "optimizer.solve_aggregate_s": med(solve_names[1]),
        "optimizer.project_s": med("optimizer.project_to_polytope"),
        "optimizer.project_calls": med("optimizer.project_to_polytope", 2),
        "optimizer.kkt_residual_max": max(p["kkt_max"] for p in traced),
        "fluid.integrate_s": 0.0,
        "fluid.allocation_us": 0.0,
        "fluid.final_dist": 0.0,
        "harness.run_experiment_s": med("harness.run_experiment"),
        "harness.cell_s": sim_s,
        "harness.solve_s": solve_s,
        "harness.self_s": med("harness.run_experiment", 1),
        "harness.cells": traced[0]["cells"],
        "harness.cells_failed": traced[0]["cells_failed"],
        "cli.main_s": med("cli.main"),
        "cli.self_s": med("cli.main", 1),
        "cli.report_bytes": traced[0]["report_bytes"],
    })
    return layers


# -- solve-fluid -----------------------------------------------------------


def draw_instances(pkg, np, seed, spaces):
    """Seeded Demand(U(.2, 3), U(.2, 3)) per (space, alpha, draw)."""
    rng = np.random.default_rng(seed)
    out = []
    for space, draws in zip(spaces, SOLVE_DRAWS):
        for alpha in ALPHAS:
            for _ in range(draws):
                demand = pkg.Demand(rng.uniform(0.2, 3.0, space.num_types),
                                    rng.uniform(0.2, 3.0, space.num_types))
                out.append((space, alpha, demand))
    return out


def solve_instance(pkg, np, n, instance, gate, call):
    """Both solvers on one instance; a failed solve is counted, not fatal.

    Returns one (solver, seconds, failure label or None, residual) row per
    solve.
    """
    space, alpha, demand = instance
    where = f"instance {n} ({space.num_configs} configs, alpha {alpha})"
    rows = []
    for solver in (pkg.solve_optimum, pkg.solve_aggregate_optimum):
        exc = None
        residual = 0.0
        t0 = time.perf_counter()
        try:
            out = call(f"optimizer.{solver.__name__}", solver, space, demand, alpha)
        except Exception as err:  # noqa: BLE001 - counted as a failed solve
            exc = failure_label(pkg, err)
        seconds = time.perf_counter() - t0
        if exc is None and solver is pkg.solve_optimum:
            check_plain(gate, np, space, demand, out[0], out[1], where)
            residual = float(out[1].residual)
        elif exc is None:
            check_aggregate(gate, np, space, demand, out[0], where)
        rows.append((solver.__name__, seconds, exc, residual))
    return rows


def fluid_sweep(pkg, np, space, demand, gate, ref, call):
    """integrate() from the unit start at every alpha; checks A x = rho."""
    A = constraint_rows(space, np)
    x0 = np.zeros(space.num_configs)
    x0[list(space.unit_index)] = demand.rho
    wall = 0.0
    steps = 0
    finals = []
    for alpha in ALPHAS:
        ref.sample()
        t0 = time.perf_counter()
        traj = call("fluid.integrate", pkg.integrate, space, x0, demand, alpha,
                    horizon=FLUID_HORIZON, dt=FLUID_DT)
        wall += time.perf_counter() - t0
        steps += len(traj.times) - 1
        feas = float(np.max(np.abs(traj.states @ A.T - demand.rho)))
        gate.require(feas <= FLUID_FEAS_TOL,
                     f"integrate alpha {alpha}: |Ax - rho| = {feas:.3e} on the path")
        finals.append((alpha, traj.final.copy()))  # not a view of every state
    return {"wall": wall, "steps": steps, "finals": finals}


def solve_fluid_workload(args, pkg, np, gate):
    ref = Reference(np)
    built = {}

    def setup():
        t0 = time.perf_counter()
        built["spaces"] = [pkg.enumerate_configs(pkg.ResourceProfile.from_dict(p))
                           for p in (PROFILE_48, PROFILE_428)]
        return time.perf_counter() - t0

    setups = setup_block(setup, ref)
    spaces = built["spaces"]
    instances = draw_instances(pkg, np, args.seed, spaces)
    space48 = spaces[0]
    # The fluid input is fixed so that the sweep time does not depend on
    # the seed; the seeded inputs are the solver instances.
    fluid_demand = pkg.Demand(np.ones(space48.num_types), np.ones(space48.num_types))

    tracer = traced_pass = None
    if args.trace:
        from packing_sim import fluid, optimizer
        from tracing import Tracer

        tracer = Tracer()

        def run_traced(request, fn, *a):
            tracer.request = request
            tracer.wrap(optimizer, "project_to_polytope", "optimizer.project_to_polytope")
            tracer.wrap(fluid, "project_to_polytope", "fluid.project_to_polytope")
            try:
                return fn(*a, tracer.call)
            finally:
                tracer.unwrap_all()

        sweep_requests = itertools.count(1)  # request 0 holds the solves

        def traced_pass(_request=None):
            return run_traced(next(sweep_requests), fluid_sweep, pkg, np, space48,
                              fluid_demand, gate, ref)

    def plain_pass():
        return fluid_sweep(pkg, np, space48, fluid_demand, gate, ref, direct)

    # A set-up block and a fluid sweep follow every instance, so that both
    # sample the machine over the whole run rather than in one stretch.
    t0 = time.perf_counter()
    rows, plain, traced = [], [], []
    for n, instance in enumerate(instances):
        if tracer is None:
            rows += solve_instance(pkg, np, n, instance, gate, direct)
        else:
            rows += run_traced(0, solve_instance, pkg, np, n, instance, gate)
            traced.append(traced_pass())
        setups += setup_block(setup, ref)
        plain.append(plain_pass())
    more_plain, more_traced, more_setups = measure(
        args.seconds - (time.perf_counter() - t0), ref, plain_pass, traced_pass, setup,
        min_passes=0)
    plain += more_plain
    traced += more_traced
    setups += more_setups

    times = [r[1] for r in rows]
    excs = [r[2] for r in rows if r[2] is not None]
    solve_tail, tail_pct = tail(times)
    integrate_s = sum(p["wall"] for p in plain)
    figures, notes = time_figures(ref, setups, [p["wall"] for p in plain])
    figures.update({
        "solve_s_p50": median(times),
        "solve_s_tail": solve_tail,
        "solve_fail_frac": len(excs) / len(rows),
        "fluid_steps_per_s": sum(p["steps"] for p in plain) / integrate_s,
    })
    errors = {}
    for label in excs:
        errors[label] = errors.get(label, 0) + 1
    notes.update({"passes": len(plain), "setups": len(setups),
                  "pass_s": [p["wall"] for p in plain], "solves": len(rows),
                  "solve_tail_percentile": tail_pct, "solve_errors": errors,
                  "instances": len(instances)})
    attempted = len(rows) + len(ALPHAS) * (len(plain) + len(traced))
    failed = len(excs)
    if tracer is None:
        return figures, notes, attempted, failed, None

    from tracing import totals

    sweep_totals = [totals(tracer.select([k + 1])) for k in range(len(traced))]
    integrate_s = median([t["fluid.integrate"][0] for t in sweep_totals])
    solve_totals = totals(tracer.select([0]))
    layers = dict.fromkeys(LAYER_UNITS, 0)
    layers.update(space_counts(spaces, median(setups)))
    layers.update(solve_failure_counts(excs))
    finals = traced[0]["finals"]
    layers.update({
        "events_per_s": 0.0,
        "solve_s_p50": figures["solve_s_p50"],
        "solve_s_tail": figures["solve_s_tail"],
        "solve_fail_frac": figures["solve_fail_frac"],
        "fluid_steps_per_s": traced[0]["steps"] / integrate_s,
        "cells_fail_frac": 0.0,
        "optimizer.solve_optimum_s": sum(r[1] for r in rows if r[0] == "solve_optimum"),
        "optimizer.solve_aggregate_s": sum(
            r[1] for r in rows if r[0] == "solve_aggregate_optimum"),
        "optimizer.project_s": solve_totals["optimizer.project_to_polytope"][0],
        "optimizer.project_calls": solve_totals["optimizer.project_to_polytope"][2],
        "optimizer.kkt_residual_max": max(r[3] for r in rows),
        "fluid.integrate_s": integrate_s,
        "fluid.allocation_us": statistics.mean(
            per_call_us(lambda: pkg.greedy_rate_allocation(
                space48, pkg.StatePoint(x, alpha), fluid_demand))
            for alpha, x in finals),
        "fluid.final_dist": fluid_final_dist(pkg, np, space48, fluid_demand, finals),
    })
    overhead = median([p["wall"] for p in traced]) / notes["sweep_wall_s"] - 1.0
    return figures, notes, attempted, failed, (layers, tracer, overhead)


def fluid_final_dist(pkg, np, space, demand, finals):
    """Largest distance of a final fluid state to the optimum at its alpha."""
    dist = 0.0
    for alpha, x in finals:
        try:
            state, _cert = pkg.solve_optimum(space, demand, alpha)
        except pkg.NonconvergenceError:
            continue
        dist = max(dist, float(np.linalg.norm(x - state.x)))
    return dist


# -- entry point -----------------------------------------------------------


def layer_self_times(tracer):
    from tracing import totals

    out = {}
    for name, (_total, self_s, _calls) in totals(tracer.spans).items():
        layer = SPAN_LAYER.get(name)
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + self_s
    return out


def metric_block(values, units):
    """The named values with their units; names missing from values are skipped."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "packing_sim" / "__init__.py").is_file():
        print(f"perfbench: no packing_sim sources under {SRC}", file=sys.stderr)
        return 2
    # One worker and no BLAS helper threads: the figures are single-core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import packing_sim as pkg
    import packing_sim.cli  # noqa: F401 - makes pkg.cli available

    gate = Gate()
    run = solve_fluid_workload if args.workload == "solve-fluid" else sweep_workload
    figures, notes, attempted, failed, traced = run(args, pkg, np, gate)

    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(np, args.seed),
        "figures": metric_block(figures, {**END_TO_END_UNITS, **FIGURE_UNITS}),
        "notes": notes,
        "problems": gate.problems,
    }
    if traced is None:
        metrics = metric_block(figures, END_TO_END_UNITS)
    else:
        layers, tracer, overhead = traced
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["layer_self_s"] = layer_self_times(tracer)
        info["trace_overhead_frac"] = overhead
        metrics = metric_block(layers, {**LAYER_UNITS, **FIGURE_UNITS})
    print(json.dumps({"perfbench": info}))
    for problem in gate.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not gate.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if gate.problems else 0


if __name__ == "__main__":
    sys.exit(main())
