"""Frozen copy of the aggregate (Phi) solver before the array-backed classes.

A differential oracle for ``packing_sim.optimizer``: the functions below
are the class-level code as it was when every per-class quantity was a
Python loop over ``AggregateInfo.members``, with the active-set
projection of that time.  The class functions must agree with it byte
for byte; the current solvers must solve whatever it solves, no worse
(see ``test_optimizer_oracle``).  Do not edit this file to follow
changes of the optimizer; it is the reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from packing_sim.config_space import ConfigSpace, ConfigSpaceError
from packing_sim.optimizer import (
    DEFAULT_SUPPORT_EPS,
    Demand,
    KktCertificate,
    NonconvergenceError,
    StatePoint,
)


def constraint_matrix(space: ConfigSpace) -> np.ndarray:
    """Per-type conservation matrix A with A[i, t] = (config t)_i."""
    A = np.zeros((space.num_types, space.num_configs))
    for t, k in enumerate(space.configs):
        for i, v in enumerate(k):
            A[i, t] = v
    return A


def project_to_polytope(
    A: np.ndarray,
    b: np.ndarray,
    z: np.ndarray,
    max_iter: Optional[int] = None,
) -> np.ndarray:
    """Exact Euclidean projection of z onto {x >= 0, A x = b}.

    Primal active-set iteration: solve the equality-constrained projection
    on the currently free coordinates, pin the most negative coordinate,
    release pinned coordinates with negative bound multipliers, repeat.
    """
    m, n = A.shape
    z = np.asarray(z, dtype=float)
    active = np.zeros(n, dtype=bool)
    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(z))))
    if max_iter is None:
        max_iter = 6 * n + 30

    nu = np.zeros(m)
    for _ in range(max_iter):
        free = ~active
        AF = A[:, free]
        G = AF @ AF.T
        rhs = b - AF @ z[free]
        try:
            nu = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            nu = np.linalg.lstsq(G, rhs, rcond=None)[0]
        xf = z[free] + AF.T @ nu
        if np.max(np.abs(AF @ xf - b)) > 1e-8 * scale:
            # Equality system inconsistent on this face: release the pinned
            # coordinate that best helps feasibility.
            if not np.any(active):
                raise NonconvergenceError("projection target polytope looks empty")
            resid = b - AF @ xf
            scores = A[:, active].T @ resid
            idx = np.flatnonzero(active)[int(np.argmax(np.abs(scores)))]
            active[idx] = False
            continue
        jmin = int(np.argmin(xf)) if len(xf) else -1
        if jmin >= 0 and xf[jmin] < -1e-12 * scale:
            active[np.flatnonzero(free)[jmin]] = True
            continue
        if np.any(active):
            kappa = -(z[active] + A[:, active].T @ nu)
            kmin = int(np.argmin(kappa))
            if kappa[kmin] < -1e-10 * scale:
                active[np.flatnonzero(active)[kmin]] = False
                continue
        x = np.zeros(n)
        x[free] = np.maximum(xf, 0.0)
        return x
    raise NonconvergenceError("projection active-set iteration did not settle")


def class_totals(space: ConfigSpace, x: Sequence[float]) -> np.ndarray:
    """Per-class sums of a configuration vector; entry 0 is the zero class."""
    agg = space.aggregates
    if agg is None:
        raise ConfigSpaceError("space has no aggregate classes (no resource profile)")
    x = np.asarray(x, dtype=float)
    out = np.zeros(agg.num_classes + 1)
    for q in range(1, agg.num_classes + 1):
        out[q] = float(np.sum(x[list(agg.members[q])])) if agg.members[q] else 0.0
    return out


def aggregate_objective(space: ConfigSpace, state: StatePoint, weights=None) -> float:
    """Phi(x): class-total variant of the objective."""
    if weights is not None:
        raise NotImplementedError("per-class weights are not supported")
    s = np.maximum(class_totals(space, state.x), 0.0)
    return float(np.sum(s[1:] ** (1.0 + state.alpha)) / (1.0 + state.alpha))


def _config_rows(space: ConfigSpace) -> np.ndarray:
    return constraint_matrix(space).T


def _feasible_start(space: ConfigSpace, demand: Demand) -> np.ndarray:
    x = np.zeros(space.num_configs)
    for i, t in enumerate(space.unit_index):
        x[t] += demand.rho[i]
    return x


def _pg_minimize(A, rho, x0, alpha, w, grad, value, iters=250):
    """Projected gradient with backtracking and Barzilai-Borwein steps."""
    x = project_to_polytope(A, rho, x0)
    g = grad(x)
    step = 1.0
    fx = value(x)
    for _ in range(iters):
        y = x
        for _ in range(60):
            y = project_to_polytope(A, rho, x - step * g)
            d = y - x
            dn = float(d @ d)
            if dn <= 1e-30:
                break
            if value(y) <= fx + float(g @ d) + 0.5 / step * dn + 1e-15:
                break
            step *= 0.5
        d = y - x
        dn = float(d @ d)
        if dn <= 1e-28:
            return y
        g_new = grad(y)
        dg = g_new - g
        denom = float(d @ dg)
        step = min(max(dn / denom, 1e-8), 1e8) if denom > 1e-30 else step * 2.0
        x, g, fx = y, g_new, value(y)
    return x


def kkt_certificate_aggregate(
    space: ConfigSpace,
    state: StatePoint,
    demand: Demand,
    support_eps: float = DEFAULT_SUPPORT_EPS,
) -> KktCertificate:
    """``kkt_certificate(..., aggregate=True)``."""
    x = np.maximum(state.x, 0.0)
    alpha = state.alpha
    agg = space.aggregates
    if agg is None:
        raise ConfigSpaceError("space has no aggregate classes (no resource profile)")
    s = class_totals(space, x)
    sa = s ** alpha
    thr = support_eps * max(float(np.max(x, initial=0.0)), 1.0)

    # Class-level weight differential along (q, i); entry 0 is the zero class.
    def delta_qi(q, i):
        down = agg.minus_type[q][i]
        return sa[q] - (sa[down] if down else 0.0)

    eta = np.zeros(space.num_types)
    for i in range(space.num_types):
        vals = []
        for t, k in enumerate(space.configs):
            if k[i] >= 1 and x[t] > thr:
                vals.append(delta_qi(agg.class_of[t], i))
        if not vals:
            continue
        hi, lo = max(vals), min(vals)
        eta[i] = hi if hi > 0 else lo

    K = _config_rows(space)
    u = np.maximum(K @ eta, 0.0)
    residual = 0.0
    for q in range(1, agg.num_classes + 1):
        umax = max(u[t] for t in agg.members[q])
        residual = max(residual, abs(sa[q] - umax))
        for t in agg.members[q]:
            if u[t] < umax - 1e-12 * max(1.0, umax):
                residual = max(residual, x[t] ** alpha)
    return KktCertificate(eta=eta, residual=float(residual))


def solve_aggregate_optimum(
    space: ConfigSpace,
    demand: Demand,
    alpha: float,
    tol: float = 1e-7,
    max_iter: int = 400,
) -> tuple[StatePoint, float]:
    """Minimize the class-total objective Phi over the feasible polytope.

    Projected gradient phase, then ascent on the closed-form concave dual

        g(eta) = rho . eta - a/(1+a) * sum_q max(0, max_{k in q} k.eta)^((1+a)/a),

    followed by primal recovery constrained to per-class argmax supports.
    Acceptance requires duality gap and feasibility within tol.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    agg = space.aggregates
    if agg is None:
        raise ConfigSpaceError("space has no aggregate classes (no resource profile)")
    A = constraint_matrix(space)
    rho = demand.rho
    K = _config_rows(space)
    members = [list(m) for m in agg.members]
    n_classes = agg.num_classes

    def phi(x):
        return aggregate_objective(space, StatePoint(x, alpha))

    def grad(x):
        s = class_totals(space, x) ** alpha
        g = np.empty(space.num_configs)
        for t in range(space.num_configs):
            g[t] = s[agg.class_of[t]]
        return g

    x = _pg_minimize(
        A, rho, _feasible_start(space, demand), alpha, np.ones(space.num_configs),
        grad, phi, iters=max_iter,
    )

    def dual_value(eta):
        ke = K @ eta
        total = float(rho @ eta)
        for q in range(1, n_classes + 1):
            uq = max(0.0, max(ke[t] for t in members[q]))
            total -= alpha / (1.0 + alpha) * uq ** ((1.0 + alpha) / alpha)
        return total

    def dual_grad_hess(eta):
        ke = K @ eta
        g = rho.copy()
        H = np.zeros((space.num_types, space.num_types))
        for q in range(1, n_classes + 1):
            t_best = max(members[q], key=lambda t: (ke[t], [-v for v in space.configs[t]]))
            uq = ke[t_best]
            if uq <= 0:
                continue
            kvec = K[t_best]
            g -= uq ** (1.0 / alpha) * kvec
            H -= (1.0 / alpha) * min(uq ** (1.0 / alpha - 1.0), 1e12) * np.outer(kvec, kvec)
        return g, H

    eta = kkt_certificate_aggregate(space, StatePoint(x, alpha), demand).eta.copy()
    gval = dual_value(eta)
    for _ in range(120):
        g, H = dual_grad_hess(eta)
        if float(np.max(np.abs(g))) <= 1e-14:
            break
        M = -H + np.eye(space.num_types) * (1e-12 * (1.0 + abs(np.trace(H))))
        try:
            step = np.linalg.solve(M, g)
        except np.linalg.LinAlgError:
            step = g
        t = 1.0
        moved = False
        while t > 1e-13:
            cand = eta + t * step
            cval = dual_value(cand)
            if cval > gval + 1e-18:
                eta, gval, moved = cand, cval, True
                break
            t *= 0.5
        if not moved:
            break

    x_rec = _recover_aggregate_primal(space, A, rho, K, eta, alpha, x)
    val_rec = phi(x_rec)
    if val_rec < phi(x):
        x = x_rec
    value = phi(x)
    gap = value - gval
    feas = float(np.max(np.abs(A @ x - rho)))
    if max(gap, feas) > tol:
        raise NonconvergenceError(
            f"aggregate solver gap {gap:.3e}, feasibility {feas:.3e} exceed tol {tol:.1e}",
            state=StatePoint(x, alpha),
        )
    return StatePoint(x, alpha), value


def _recover_aggregate_primal(space, A, rho, K, eta, alpha, fallback):
    """Distribute per-class totals implied by eta over argmax members."""
    agg = space.aggregates
    ke = K @ eta
    allowed = np.zeros(space.num_configs, dtype=bool)
    rows = [A]
    rhs = [rho]
    for q in range(1, agg.num_classes + 1):
        umax = max(ke[t] for t in agg.members[q])
        if umax <= 0:
            continue
        sel = [t for t in agg.members[q] if ke[t] >= umax - 1e-10 * max(1.0, abs(umax))]
        row = np.zeros(space.num_configs)
        row[sel] = 1.0
        for t in sel:
            allowed[t] = True
        rows.append(row[None, :])
        rhs.append(np.array([umax ** (1.0 / alpha)]))
    C = np.vstack(rows)[:, allowed]
    d = np.concatenate(rhs)
    try:
        z = project_to_polytope(C, d, np.maximum(fallback[allowed], 0.0))
    except NonconvergenceError:
        return project_to_polytope(A, rho, fallback)
    x = np.zeros(space.num_configs)
    x[allowed] = z
    if float(np.max(np.abs(A @ x - rho))) > 1e-9:
        return project_to_polytope(A, rho, fallback)
    return x


def no_simple_improvement(
    space: ConfigSpace,
    state: StatePoint,
    zero_tol: float = 1e-9,
    delta_tol: float = 1e-9,
) -> tuple[bool, Optional[tuple[tuple[int, int], tuple[int, int]]]]:
    """Class-level check that no mass can move to a lighter same-type edge.

    True when for every pair of class edges (q, i), (q', i) with the
    second strictly lighter, either no member of q holds both mass and a
    type-i customer, or the recipient class below q' is nonzero and empty.
    Returns a witness ((q, i), (q', i)) for the first violation found.
    """
    agg = space.aggregates
    if agg is None:
        raise ConfigSpaceError("space has no aggregate classes (no resource profile)")
    x = np.maximum(state.x, 0.0)
    s = class_totals(space, x)
    sa = s ** state.alpha
    nq = agg.num_classes

    def delta_qi(q, i):
        down = agg.minus_type[q][i]
        return sa[q] - (sa[down] if down else 0.0)

    for i in range(space.num_types):
        qs = [q for q in range(1, nq + 1) if agg.minus_type[q][i] is not None]
        for q in qs:
            donors = any(
                space.configs[t][i] >= 1 and x[t] > zero_tol for t in agg.members[q]
            )
            if not donors:
                continue
            dq = delta_qi(q, i)
            for qp in qs:
                if qp == q:
                    continue
                if delta_qi(qp, i) >= dq - delta_tol:
                    continue
                down = agg.minus_type[qp][i]
                if down == 0 or s[down] > zero_tol:
                    return False, ((q, i), (qp, i))
    return True, None
