"""Frozen copy of the interior-point Phi solver before its iteration
shared the K columns of W^-1 [K, r] between the two Mehrotra directions
and read the duality gap last.

A differential oracle for ``packing_sim.optimizer.solve_aggregate_optimum``:
the current solver must return the same optimum to 1e-12 relative (see
``test_optimizer_oracle``).  Do not edit this file to follow changes of the
optimizer; it is the reference.
"""

from __future__ import annotations

import numpy as np

from packing_sim.config_space import ConfigSpace, _require_aggregates
from packing_sim.optimizer import Demand, NonconvergenceError, StatePoint

_AGGREGATE_TOL = 1e-7


def _class_rows(space: ConfigSpace, v: np.ndarray, pad: float) -> np.ndarray:
    return np.append(v, pad)[_require_aggregates(space).member_table]


def aggregate_objective(space: ConfigSpace, state: StatePoint) -> float:
    rows = _class_rows(space, np.asarray(state.x, dtype=float), 0.0)
    s = np.maximum(np.concatenate(([0.0], rows.sum(axis=1))), 0.0)
    return float(np.sum(s[1:] ** (1.0 + state.alpha)) / (1.0 + state.alpha))


def solve_aggregate_optimum(
    space: ConfigSpace,
    demand: Demand,
    alpha: float,
) -> tuple[StatePoint, float]:
    """Minimize the class-total objective Phi over the feasible polytope.

    Mehrotra's predictor-corrector interior-point method on A x = rho,
    x >= 0, with bound multipliers z and type multipliers eta.  The Newton
    matrix W = Hess Phi + Z/X is block diagonal by class, each block a
    diagonal plus a s_q^(a-1) 1 1^T, so W^-1 is applied per class by
    Sherman-Morrison and each step solves one m x m system in eta.  x, z
    and eta move by one common step, 0.99 times the largest feasible one.
    The loop stops at |A x - rho| <= 1e-12 max(1, |rho|), duality gap
    Phi(x) - g(eta) <= 1e-10 and x.z <= 1e-16 n, where g is the class dual

        g(eta) = rho . eta - a/(1+a) * sum_q max(0, max_{k in q} k.eta)^((1+a)/a),

    or when the reduced system turns singular.  Phi fixes only class
    totals, and x, which stays positive, is near the analytic centre of the
    optimal face.  Acceptance requires duality gap and feasibility within
    1e-7.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    agg = _require_aggregates(space)
    cls = np.asarray(agg.class_of) - 1
    nq = agg.num_classes
    A = space.constraint_matrix
    K = A.T
    rho = demand.rho
    m, n = A.shape
    inv = 1.0 / alpha
    # Flat (class, column) bins of an n x (m + 1) block, for class sums.
    flat = (cls[:, None] * (m + 1) + np.arange(m + 1)).ravel()
    feas_tol = 1e-12 * max(1.0, float(np.max(np.abs(rho))))

    def dual(eta):
        u = np.maximum(_class_rows(space, K @ eta, -np.inf).max(axis=1), 0.0)
        return float(rho @ eta) - alpha / (1.0 + alpha) * float(np.sum(u ** (1.0 + inv)))

    def step(dx, dz, frac):
        """min(1, frac times the largest t keeping x + t dx, z + t dz >= 0)."""
        return frac / max(float(np.max(-dx / x)), float(np.max(-dz / z)), frac)

    x = np.full(n, max(float(np.max(rho)), 1.0) / n)
    z = np.ones(n)
    eta = np.zeros(m)
    for _ in range(100):
        s = np.bincount(cls, x, nq)
        rp = A @ x - rho
        gap = float(np.sum(s ** (1.0 + alpha))) / (1.0 + alpha) - dual(eta)
        xz = float(x @ z)
        if float(np.max(np.abs(rp))) <= feas_tol and gap <= 1e-10 and xz <= 1e-16 * n:
            break
        rd = s[cls] ** alpha - K @ eta - z
        dinv = x / z
        den = s ** (1.0 - alpha) / alpha + np.bincount(cls, dinv, nq)

        def direction(rc):
            # W^-1 [K, r] in one pass: D^-1 V minus, per class, D^-1 1
            # (1^T D^-1 V) / (s^(1-a)/a + 1^T D^-1 1).
            V = np.column_stack((K, rd + rc / x)) * dinv[:, None]
            S = np.bincount(flat, V.ravel(), nq * (m + 1)).reshape(nq, m + 1)
            V -= dinv[:, None] * (S / den[:, None])[cls]
            deta = np.linalg.solve(A @ V[:, :m], A @ V[:, m] - rp)
            dx = V[:, :m] @ deta - V[:, m]
            return dx, -(rc + z * dx) / x, deta

        try:
            # Affine predictor, then the centred corrector with its dx dz term.
            dx, dz, _ = direction(x * z)
            t = step(dx, dz, 1.0)
            mu = xz / n
            sigma = (float((x + t * dx) @ (z + t * dz)) / n / mu) ** 3
            dx, dz, deta = direction(x * z + dx * dz - sigma * mu)
        except np.linalg.LinAlgError:
            break
        t = step(dx, dz, 0.99)
        x, z, eta = x + t * dx, z + t * dz, eta + t * deta

    state = StatePoint(x, alpha)
    value = aggregate_objective(space, state)
    gap = value - dual(eta)
    feas = float(np.max(np.abs(A @ x - rho)))
    if max(gap, feas) > _AGGREGATE_TOL:
        raise NonconvergenceError(
            f"aggregate solver gap {gap:.3e}, feasibility {feas:.3e} "
            f"exceed tol {_AGGREGATE_TOL:.1e}",
            state=state,
        )
    return state, value
