"""Command-line interface.

Subcommands:
    enumerate   build a configuration space from a resource profile
    solve       compute the optimal fluid state with its certificate
    simulate    run one stochastic simulation
    fluid       integrate the deterministic dynamics
    experiment  sweep scales with replications, write report.json

Each subcommand reads a JSON config via --config.  Results go to the
directory named by --out (or the PACKING_SIM_OUT environment variable);
without one, the main JSON result is printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config_space import ConfigSpaceError, space_from_dict, space_to_dict, sparse_state
from .fluid import integrate
from .optimizer import Demand, NonconvergenceError, objective
from .harness import Experiment, run_experiment, solve_optima
from .simulator import (
    AltPlacement,
    SimConfig,
    run as run_simulation,
    write_snapshots_csv,
)

_OVERRIDES = ("seed", "alpha", "r", "mode", "discipline")


def _parent_parsers() -> tuple[argparse.ArgumentParser, ...]:
    """The options every subcommand takes, the ``--alpha`` override, and
    the overrides only the simulating subcommands read."""
    base, alpha, sim = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    base.add_argument("--config", required=True, help="path to a JSON config file")
    base.add_argument("--out", default=None, help="output directory (default: stdout)")
    alpha.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--r", type=float, default=None)
    sim.add_argument("--mode", choices=("open", "closed"), default=None)
    sim.add_argument("--discipline", default=None)
    return base, alpha, sim


def _load(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _value(kind, name: str, v):
    """``kind(v)`` for the config entry ``name``: a value of the wrong type
    is an input error, not a crash."""
    try:
        return kind(v)
    except (TypeError, ValueError):
        raise ValueError(f"config entry {name!r} must be a number, got {v!r}") from None


def _list(cfg: dict, name: str, default=None):
    v = cfg.get(name, default)
    if not (v is None or isinstance(v, list)):
        raise ValueError(f"config entry {name!r} must be a list, got {v!r}")
    return v


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    for name in _OVERRIDES:
        v = getattr(args, name, None)
        if v is not None:
            cfg[name] = v
    return cfg


def _space(cfg: dict):
    if "space" not in cfg:
        raise ValueError("config needs a 'space' entry")
    return space_from_dict(cfg["space"])


def _demand(cfg: dict) -> Demand:
    try:
        return Demand(np.asarray(cfg["arrival"], dtype=float),
                      np.asarray(cfg["service"], dtype=float))
    except KeyError as exc:
        raise ValueError(f"config needs an {exc.args[0]!r} entry") from None
    except TypeError:
        raise ValueError("'arrival' and 'service' must be lists of numbers") from None


def _out_dir(args):
    out = args.out or os.environ.get("PACKING_SIM_OUT")
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _emit(obj: dict, out, filename: str):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out:
        path = os.path.join(out, filename)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _sim_config(cfg: dict, args) -> SimConfig:
    cfg = _apply_overrides(cfg, args)
    space = _space(cfg)
    demand = _demand(cfg)
    alt = cfg.get("alt_placement")
    if alt is not None:
        if not isinstance(alt, dict) or "epsilon" not in alt:
            raise ValueError("alt_placement must be an object with an 'epsilon' entry")
        alt = AltPlacement(epsilon=_value(float, "epsilon", alt["epsilon"]),
                           mix=_value(float, "mix", alt.get("mix", 0.0)))
    kwargs = {name: _value(float, name, cfg[name])
              for name in ("horizon", "burn_in", "sample_interval", "token_rate")
              if cfg.get(name) is not None}
    return SimConfig(
        space=space,
        demand=demand,
        r=_value(float, "r", cfg.get("r", 1.0)),
        alpha=_value(float, "alpha", cfg.get("alpha", 1.0)),
        mode=cfg.get("mode", "closed"),
        discipline=cfg.get("discipline", "greedy-d"),
        seed=_value(int, "seed", cfg.get("seed", 0)),
        alt_placement=alt,
        **kwargs,
    )


def cmd_enumerate(args) -> int:
    cfg = _load(args.config)
    space = _space(cfg)
    out = _out_dir(args)
    _emit(space_to_dict(space), out, "space.json")
    return 0


def cmd_solve(args) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    space = _space(cfg)
    alpha = _value(float, "alpha", cfg.get("alpha", 1.0))
    # A solver that fails leaves its fields null and its message under
    # "errors"; the other solver's optimum is still written.
    state, cert, agg_state, phistar, errors = solve_optima(space, _demand(cfg), alpha)
    doc = {
        "x": None if state is None else sparse_state(space, state.x),
        "eta": None if cert is None else [float(v) for v in cert.eta],
        "kkt_residual": None if cert is None else float(cert.residual),
        "objective": None if state is None else objective(state),
        "alpha": alpha,
    }
    if space.has_aggregates:
        doc["aggregate"] = {
            "x": None if agg_state is None else sparse_state(space, agg_state.x),
            "objective": None if phistar is None else float(phistar),
        }
    if errors:
        doc["errors"] = errors
    _emit(doc, _out_dir(args), "solution.json")
    return 2 if errors else 0


def cmd_simulate(args) -> int:
    cfg = _load(args.config)
    config = _sim_config(cfg, args)
    # The summary omits the distance fields of a solver that fails.
    state, _cert, _agg_state, phistar, _errors = solve_optima(
        config.space, config.demand, config.alpha
    )
    xstar = None if state is None else state.x
    result = run_simulation(config, xstar=xstar, phistar=phistar)
    out = _out_dir(args)
    if out:
        write_snapshots_csv(config.space, result.snapshots, os.path.join(out, "snapshots.csv"))
        print(f"wrote {os.path.join(out, 'snapshots.csv')}")
    _emit(result.summary, out, "summary.json")
    return 0


def cmd_fluid(args) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    space = _space(cfg)
    demand = _demand(cfg)
    alpha = _value(float, "alpha", cfg.get("alpha", 1.0))
    horizon = args.T if args.T is not None else _value(float, "horizon",
                                                       cfg.get("horizon", 50.0))
    dt = args.dt if args.dt is not None else _value(float, "dt", cfg.get("dt", 1e-3))
    x0_raw = json.loads(args.x0) if args.x0 is not None else cfg.get("x0")
    if x0_raw is None:
        x0 = np.zeros(space.num_configs)
        x0[list(space.unit_index)] = demand.rho
    elif isinstance(x0_raw, dict):
        x0 = np.zeros(space.num_configs)
        for key, v in x0_raw.items():
            k = tuple(int(s) for s in str(key).split(","))
            x0[space.config_index(k)] = _value(float, "x0", v)
    elif isinstance(x0_raw, list):
        x0 = np.array([_value(float, "x0", v) for v in x0_raw])
    else:
        raise ValueError(f"config entry 'x0' must be a list or an object, got {x0_raw!r}")
    traj = integrate(space, x0, demand, alpha, horizon=horizon, dt=dt)
    out = _out_dir(args)
    if out:
        import csv

        path = os.path.join(out, "trajectory.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "objective"])
            for t, x, f in zip(traj.times, traj.states, traj.objective_values):
                w.writerow([t, json.dumps(sparse_state(space, x), sort_keys=True), f])
        print(f"wrote {path}")
    doc = {
        "final_t": float(traj.times[-1]),
        "final_x": sparse_state(space, traj.final),
        "final_objective": float(traj.objective_values[-1]),
        "steps": len(traj.times) - 1,
    }
    _emit(doc, out, "fluid.json")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load(args.config)
    base = _sim_config(cfg, args)
    out = _out_dir(args)
    exp = Experiment(
        base=base,
        r_grid=[_value(float, "r_grid", r) for r in _list(cfg, "r_grid", [])],
        replications=_value(int, "replications", cfg.get("replications", 1)),
        metrics=_list(cfg, "metrics"),
        output_dir=out,
    )
    report = run_experiment(exp, workers=_value(int, "workers", cfg.get("workers", 1)))
    _emit(report, out, "report.json")
    failed = report["partial"] or any(
        v["decreasing"] is False for v in report["verdicts"].values()
    )
    for m, v in sorted(report["verdicts"].items()):
        print(f"verdict {m}: decreasing={v['decreasing']}")
    if args.check and failed:
        return 2
    return 0


def main(argv=None) -> int:
    base, alpha, sim = _parent_parsers()
    parser = argparse.ArgumentParser(
        prog="packing-sim",
        description="simulation and optimization of service systems with packing constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("enumerate", parents=[base]).set_defaults(func=cmd_enumerate)
    sub.add_parser("solve", parents=[base, alpha]).set_defaults(func=cmd_solve)
    sub.add_parser("simulate", parents=[base, alpha, sim]).set_defaults(func=cmd_simulate)
    pf = sub.add_parser("fluid", parents=[base, alpha])
    pf.add_argument("--T", type=float, default=None, help="integration horizon")
    pf.add_argument("--dt", type=float, default=None, help="step size")
    pf.add_argument("--x0", default=None, help="start state as JSON (list or {\"k\": v} map)")
    pf.set_defaults(func=cmd_fluid)
    pe = sub.add_parser("experiment", parents=[base, alpha, sim])
    pe.add_argument("--check", action="store_true",
                    help="exit 2 unless every monotonicity verdict holds")
    pe.set_defaults(func=cmd_experiment)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConfigSpaceError, NonconvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
