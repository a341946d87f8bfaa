"""Simulation and optimization toolkit for infinite-server systems where
customers are packed into servers subject to monotone configuration
constraints.

Layout:
    config_space   configuration sets, edges, aggregate classes
    optimizer      optimal fluid states, certificates, drift analysis
    simulator      continuous-time stochastic simulation of greedy rules
    fluid          deterministic integration of the fluid dynamics
    harness        scale sweeps, replications, reports
    cli            command-line entry points
"""

from .config_space import (
    AggregateInfo,
    ConfigSpace,
    ConfigSpaceError,
    InvariantError,
    ResourceProfile,
    enumerate_configs,
    space_from_dict,
    space_to_dict,
    validate_explicit_configs,
)
from .optimizer import (
    Allocation,
    Demand,
    KktCertificate,
    NonconvergenceError,
    StatePoint,
    aggregate_objective,
    drift,
    kkt_certificate,
    min_drift,
    neutral_allocation,
    objective,
    simple_improving_allocations,
    solve_aggregate_optimum,
    solve_optimum,
)
from .fluid import (
    FluidTrajectory,
    IntegrationError,
    greedy_rate_allocation,
    integrate,
    token_odes,
)
from .simulator import (
    AltPlacement,
    RunResult,
    SimConfig,
    Simulation,
    Snapshot,
    SystemState,
    derive_seed,
    place_alt,
    place_greedy_ac,
    place_greedy_d,
    place_greedy_i,
    run,
    write_snapshots_csv,
)
from .harness import (
    Experiment,
    WindowTooShortError,
    batch_means,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateInfo",
    "Allocation",
    "AltPlacement",
    "ConfigSpace",
    "ConfigSpaceError",
    "Demand",
    "Experiment",
    "FluidTrajectory",
    "IntegrationError",
    "InvariantError",
    "KktCertificate",
    "NonconvergenceError",
    "ResourceProfile",
    "RunResult",
    "SimConfig",
    "Simulation",
    "Snapshot",
    "StatePoint",
    "SystemState",
    "WindowTooShortError",
    "aggregate_objective",
    "batch_means",
    "derive_seed",
    "drift",
    "enumerate_configs",
    "greedy_rate_allocation",
    "integrate",
    "kkt_certificate",
    "min_drift",
    "neutral_allocation",
    "objective",
    "place_alt",
    "place_greedy_ac",
    "place_greedy_d",
    "place_greedy_i",
    "run",
    "run_experiment",
    "simple_improving_allocations",
    "solve_aggregate_optimum",
    "solve_optimum",
    "space_from_dict",
    "space_to_dict",
    "token_odes",
    "validate_explicit_configs",
    "write_snapshots_csv",
]
