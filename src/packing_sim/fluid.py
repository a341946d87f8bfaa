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

The integrator is explicit Euler with negative-coordinate clipping
followed by exact re-projection onto the feasible polytope.  Token
dynamics of the deferred-placement (token) discipline reduce to
per-type scalar ODEs and are integrated separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config_space import ConfigSpace, InvariantError
from .optimizer import (
    Allocation,
    Demand,
    StatePoint,
    _edge_mass_coefficients,
    constraint_matrix,
    objective,
    project_to_polytope,
)

DEFAULT_FEAS_EPS = 1e-6
DEFAULT_TIE_TOL = 1e-10


class IntegrationError(RuntimeError):
    """Raised when the integrator leaves the plausible state region."""


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
    """The greedy re-placement rule as ``flows(xl)``: the net rate per edge.

    Static edge tables are built once as plain lists; ``flows`` takes the
    state as a list and moves each donor edge's departure mass off the
    edge and onto the minimizing available edges in equal shares.  Mass
    whose own edge attains the minimum returns to it: no net flow.
    """
    e_target = list(space.edge_target)
    e_base = list(space.edge_base)
    e_coef = _edge_mass_coefficients(space, demand).tolist()
    per_type = [list(space.edges_of_type[i]) for i in range(space.num_types)]
    num_edges = space.num_edges

    def flows(xl):
        out = [0.0] * num_edges
        for edges in per_type:
            deltas = []
            for e in edges:
                t = e_target[e]
                b = e_base[e]
                hi = xl[t] ** alpha if xl[t] > 0.0 else 0.0
                lo = (xl[b] ** alpha if xl[b] > 0.0 else 0.0) if b >= 0 else 0.0
                deltas.append(hi - lo)
            m = None
            winners = []
            for j, e in enumerate(edges):
                b = e_base[e]
                if b < 0 or xl[b] > DEFAULT_FEAS_EPS:
                    if m is None or deltas[j] < m:
                        m = deltas[j]
            for j, e in enumerate(edges):
                b = e_base[e]
                if (b < 0 or xl[b] > DEFAULT_FEAS_EPS) and deltas[j] <= m + DEFAULT_TIE_TOL:
                    winners.append(j)
            share = 1.0 / len(winners)
            for j, e in enumerate(edges):
                t = e_target[e]
                mass = e_coef[e] * xl[t] if xl[t] > 0.0 else 0.0
                if mass <= 0.0 or deltas[j] <= m + DEFAULT_TIE_TOL:
                    continue
                out[e] -= mass
                for jw in winners:
                    out[edges[jw]] += mass * share
        return out

    return flows


def greedy_rate_allocation(space: ConfigSpace, state: StatePoint, demand: Demand) -> Allocation:
    """Placement rates induced by greedy re-placement at the given state:
    each edge's own departure mass plus the net re-placement flow."""
    x = state.x
    mass = _edge_mass_coefficients(space, demand) * np.maximum(x, 0.0)[list(space.edge_target)]
    flows = _greedy_flows(space, demand, state.alpha)(list(x))
    return Allocation(gamma=mass + np.asarray(flows))


def integrate(
    space: ConfigSpace,
    x0,
    demand: Demand,
    alpha: float,
    horizon: float,
    dt: float,
) -> FluidTrajectory:
    """Euler integration of the greedy fluid dynamics from a feasible state."""
    if dt <= 0 or horizon < 0:
        raise ValueError("need dt > 0 and horizon >= 0")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (space.num_configs,):
        raise ValueError(f"x0 must have {space.num_configs} entries")
    A = constraint_matrix(space)
    rho = demand.rho
    if float(np.max(np.abs(A @ x - rho))) > 1e-9 or np.min(x) < -1e-12:
        raise ValueError("x0 is not on the feasible polytope")

    n_steps = int(round(horizon / dt))
    bound = 2.0 * float(np.max(rho))
    flows_at = _greedy_flows(space, demand, alpha)
    e_target = list(space.edge_target)
    e_base = list(space.edge_base)

    xs = [x.copy()]
    fs = [objective(StatePoint(x, alpha))]
    times = [0.0]
    xl = list(x)
    for step in range(n_steps):
        flows = flows_at(xl)
        clip = False
        for e in range(space.num_edges):
            f = flows[e]
            if f == 0.0:
                continue
            t = e_target[e]
            b = e_base[e]
            xl[t] += dt * f
            if b >= 0:
                xl[b] -= dt * f
            if xl[t] < 0.0 or (b >= 0 and xl[b] < 0.0):
                clip = True
        if clip:
            x = project_to_polytope(A, rho, np.maximum(np.asarray(xl), 0.0))
            xl = list(x)
        xs.append(np.asarray(xl))
        drifted = np.flatnonzero(~(np.abs(A @ xs[-1] - rho) < 1e-6))
        if len(drifted):
            raise InvariantError(f"type {drifted[0]}: per-type conservation drifted")
        hi = max(xl)
        if hi > bound:
            raise IntegrationError(
                f"state coordinate {hi:.3g} exceeds bound {bound:.3g}; reduce dt"
            )
        fs.append(objective(StatePoint(xs[-1], alpha)))
        times.append((step + 1) * dt)

    return FluidTrajectory(
        times=np.asarray(times),
        states=np.asarray(xs),
        objective_values=np.asarray(fs),
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
