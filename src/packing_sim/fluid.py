"""Deterministic fluid dynamics of greedy placement.

At fluid scale, departures drain each edge (k, i) at rate k_i mu_i x_k
and the drained mass is immediately re-placed along the lightest
available same-type edge (smallest weight differential).  Availability
means the edge target is a unit configuration or the configuration below
it carries more than ``DEFAULT_FEAS_EPS`` mass; the donor's own edge is
always available to its own mass, because the departing customer can go
back into the server it just left.  When the donor edge already attains
the minimum (within ``DEFAULT_TIE_TOL``) its mass stays put; otherwise it
is split equally among the minimizing available edges.  This keeps the
objective minimizer an exact fixed point of the integrator.

The integrator is explicit Euler on one state vector: a step that leaves
a negative coordinate is clipped and exactly re-projected onto the
feasible polytope.  Token dynamics of the deferred-placement (token)
discipline reduce to per-type scalar ODEs and are integrated separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config_space import ConfigSpace, InvariantError
from .optimizer import (
    Demand,
    StatePoint,
    _edge_mass_coefficients,
    _weight_diffs,
    project_to_polytope,
)

DEFAULT_FEAS_EPS = 1e-6
DEFAULT_TIE_TOL = 1e-10


@dataclass(eq=False)
class FluidTrajectory:
    """Recorded Euler path: times, states (row per time), objective values."""

    times: np.ndarray
    states: np.ndarray
    objective_values: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _greedy_flows(space: ConfigSpace, demand: Demand, alpha: float):
    """The greedy re-placement rule as ``flows(x)``: per edge, its
    departure mass ``k_i mu_i x_k`` and its net re-placement rate.

    Each type's edges are one contiguous range from ``starts[i]``, so
    per-type minima and sums are ``reduceat`` over those ranges.  Edges
    not tied with their type's minimum lose their departure mass, which
    is split equally among the type's winners (available tied edges).
    """
    edge_type, target, base = space.edge_arrays
    starts = np.array([edges[0] for edges in space.edges_of_type], dtype=np.intp)
    coef = _edge_mass_coefficients(space, demand)
    n = space.num_configs
    # max(x, 0), then the 0 that base -1 (the empty server) reads; never returned.
    xp = np.zeros(n + 1)
    head = xp[:n]

    def flows(x):
        np.maximum(x, 0.0, out=head)
        delta = _weight_diffs(xp, alpha, target, base)
        pos = xp > DEFAULT_FEAS_EPS
        pos[n] = True  # an empty-server base is always available
        avail = pos[base]
        m = np.minimum.reduceat(np.where(avail, delta, np.inf), starts)
        tied = delta <= m[edge_type] + DEFAULT_TIE_TOL
        winners = avail & tied
        mass = coef * xp[target]
        moved = np.where(tied, 0.0, mass)
        share = np.add.reduceat(moved, starts) / np.add.reduceat(winners, starts)
        return mass, np.where(winners, share[edge_type], -moved)

    return flows


def greedy_rate_allocation(space: ConfigSpace, state: StatePoint, demand: Demand) -> np.ndarray:
    """Edge-ordered placement rates induced by greedy re-placement at the
    given state: each edge's own departure mass plus the net re-placement
    flow."""
    mass, flow = _greedy_flows(space, demand, state.alpha)(state.x)
    return mass + flow


def integrate(
    space: ConfigSpace,
    x0,
    demand: Demand,
    alpha: float,
    horizon: float,
    dt: float,
) -> FluidTrajectory:
    """Euler integration of the greedy fluid dynamics from a feasible state.

    One step is ``x + dt * M @ flow`` with ``flow`` the net rates of
    ``flows(x)`` and M the configs x edges
    incidence matrix (+1 at an edge's target, -1 at its base); a step
    that leaves a negative coordinate is clipped and re-projected.  The
    objective column is computed once, over all rows of the finished
    path, with the bits ``objective`` gives row by row.
    """
    if dt <= 0 or horizon < 0:
        raise ValueError("need dt > 0 and horizon >= 0")
    x = np.array(x0, dtype=float)
    n = space.num_configs
    if x.shape != (n,):
        raise ValueError(f"x0 must have {n} entries")
    A = space.constraint_matrix
    rho = demand.rho
    if float(np.max(np.abs(A @ x - rho))) > 1e-9 or np.min(x) < -1e-12:
        raise ValueError("x0 is not on the feasible polytope")

    n_steps = int(round(horizon / dt))
    flows = _greedy_flows(space, demand, alpha)
    _, target, base = space.edge_arrays
    # C order: a strided M falls off numpy's fast matrix-vector path.
    M = np.zeros((n, len(target)))
    edges = np.arange(len(target))
    M[target, edges] = 1.0
    inner = base >= 0  # base -1, the empty server, has no row
    M[base[inner], edges[inner]] = -1.0

    states = np.empty((n_steps + 1, n))
    states[0] = x
    for s in range(1, n_steps + 1):
        x = x + dt * (M @ flows(x)[1])
        if x.min() < 0.0:
            x = project_to_polytope(A, rho, np.maximum(x, 0.0))
        err = np.abs(A @ x - rho)
        if not err.max() < 1e-6:  # NaN fails too
            drifted = np.flatnonzero(~(err < 1e-6))
            raise InvariantError(f"type {drifted[0]}: per-type conservation drifted")
        states[s] = x

    p = 1.0 + alpha
    return FluidTrajectory(
        times=np.arange(n_steps + 1) * dt,
        states=states,
        objective_values=np.sum(np.maximum(states, 0.0) ** p, axis=1) / p,
    )


def token_odes(
    demand: Demand,
    token_rate: float,
    yhat0,
    ytilde0,
    horizon: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler path of the per-type customer/token fluid pair.

    Actual mass follows dyhat/dt = lambda - mu*yhat; token mass follows
    dytilde/dt = -lambda + mu*yhat - token_rate*ytilde, floored so token
    mass never goes negative.  Returns (times, yhat path, ytilde path)
    with one row per step.
    """
    if dt <= 0 or horizon < 0:
        raise ValueError("need dt > 0 and horizon >= 0")
    if token_rate < 0:
        raise ValueError("token_rate must be nonnegative")
    lam = demand.arrival
    mu = demand.service
    yhat = np.asarray(yhat0, dtype=float).copy()
    ytilde = np.asarray(ytilde0, dtype=float).copy()
    if yhat.shape != lam.shape or ytilde.shape != lam.shape:
        raise ValueError("initial values must have one entry per type")
    if np.min(yhat) < 0 or np.min(ytilde) < 0:
        raise ValueError("initial values must be nonnegative")

    n_steps = int(round(horizon / dt))
    times = np.arange(n_steps + 1) * dt
    yh = np.empty((n_steps + 1, len(lam)))
    yt = np.empty_like(yh)
    yh[0] = yhat
    yt[0] = ytilde
    for s in range(n_steps):
        dh = lam - mu * yhat
        dtl = -lam + mu * yhat - token_rate * ytilde
        # At an empty token buffer the outflow cannot exceed the inflow.
        dtl = np.where((ytilde <= 0.0) & (dtl < 0.0), 0.0, dtl)
        yhat = yhat + dt * dh
        ytilde = np.maximum(ytilde + dt * dtl, 0.0)
        yh[s + 1] = yhat
        yt[s + 1] = ytilde
    return times, yh, yt
