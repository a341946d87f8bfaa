"""Frozen copy of the greedy fluid layer before the array rewrite.

A differential oracle for ``packing_sim.fluid``: ``_greedy_flows``,
``greedy_rate_allocation`` and ``integrate`` below are the fluid layer as
it was when the state was mirrored in a Python list, every edge was
scored in per-type Python loops and each Euler step was applied one edge
at a time.  ``_edge_mass_coefficients`` is frozen with them.  The current
integrator must follow these trajectories, and its allocations must match
these, to 1e-12.  Do not edit this file to follow changes of the fluid
layer; it is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oracle_optimizer import constraint_matrix
from packing_sim.config_space import InvariantError
from packing_sim.fluid import FluidTrajectory
from packing_sim.optimizer import StatePoint, objective, project_to_polytope

DEFAULT_FEAS_EPS = 1e-6
DEFAULT_TIE_TOL = 1e-10


class IntegrationError(RuntimeError):
    """Raised by the frozen ``integrate`` when a coordinate leaves its bound."""


@dataclass(eq=False)
class Allocation:
    """Placement rates per edge, aligned with ``ConfigSpace`` edge order."""

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)


def _edge_mass_coefficients(space, demand):
    # Edge (k, i) carries departure mass k_i * mu_i * x_k.
    coef = np.empty(space.num_edges)
    for e in range(space.num_edges):
        i = space.edge_type[e]
        coef[e] = space.configs[space.edge_target[e]][i] * demand.service[i]
    return coef


def _greedy_flows(space, demand, alpha):
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


def greedy_rate_allocation(space, state, demand):
    x = state.x
    mass = _edge_mass_coefficients(space, demand) * np.maximum(x, 0.0)[list(space.edge_target)]
    flows = _greedy_flows(space, demand, state.alpha)(list(x))
    return Allocation(gamma=mass + np.asarray(flows))


def integrate(space, x0, demand, alpha, horizon, dt):
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
