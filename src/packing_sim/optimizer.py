"""Fluid-scale optimization and drift analysis for packing systems.

At fluid scale the state is a nonnegative vector x over nonzero
configurations.  Feasible states live on the polytope

    X = { x >= 0 : sum_k k_i x_k = rho_i for every type i },

where rho_i is the normalized offered load of type i.  The placement
objective is the separable strictly convex function

    F(x) = sum_k x_k^(1+alpha) / (1+alpha),    alpha > 0,

whose unique minimizer over X is the target profile of the greedy
placement disciplines.  With aggregate classes the objective sums class
totals instead (Phi).  This module provides:

* exact Euclidean projection onto X (exact solve on the optimal face),
* the F-minimum, by semismooth Newton ascent on its concave dual (the
  routine that also finds the projection's free set), with an a
  posteriori certificate (multipliers eta with x_k^alpha = max(k . eta, 0)),
* the Phi-minimum, by a primal-dual interior-point method whose duality
  gap is its acceptance test,
* per-edge weight differentials, allocations of placement rates, their
  drift D (the derivative of F along the induced fluid motion), and the
  search for simple improving reallocations whose drift is negative
  exactly when x is suboptimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config_space import ConfigSpace, _require_aggregates

DEFAULT_SUPPORT_EPS = 1e-9
# Acceptance bounds of the F and Phi solves, the distance from the polytope
# past which a state has no neutral allocation, and the mass read as zero by
# the drift search.
_PLAIN_TOL, _AGGREGATE_TOL, _NEUTRAL_FEAS_TOL = 1e-9, 1e-7, 1e-6
_DRIFT_ZERO_TOL = 1e-12


class NonconvergenceError(RuntimeError):
    """Solver failed to meet its certificate; carries the best iterate."""

    def __init__(self, message, state=None, certificate=None):
        super().__init__(message)
        self.state = state
        self.certificate = certificate


@dataclass(frozen=True, eq=False)
class Demand:
    """Per-type arrival and service rates, normalized to unit total load.

    The constructor rescales arrival rates so that sum_i lambda_i/mu_i = 1;
    the factor is not kept, since only the normalized rates enter the model.
    """

    arrival: np.ndarray
    service: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.arrival, dtype=float).copy()
        mu = np.asarray(self.service, dtype=float).copy()
        if lam.ndim != 1 or mu.shape != lam.shape:
            raise ValueError("arrival and service must be 1-d arrays of equal length")
        if not np.all(lam > 0) or not np.all(mu > 0):
            raise ValueError("arrival and service rates must be positive")
        lam /= np.sum(lam / mu)
        lam.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "arrival", lam)
        object.__setattr__(self, "service", mu)

    @property
    def num_types(self) -> int:
        return len(self.arrival)

    @property
    def rho(self) -> np.ndarray:
        return self.arrival / self.service


@dataclass(eq=False)
class StatePoint:
    """Fluid state: vector over nonzero configurations plus the exponent."""

    x: np.ndarray
    alpha: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(eq=False)
class Allocation:
    """Placement rates per edge, aligned with ``ConfigSpace`` edge order."""

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)


@dataclass(frozen=True, eq=False)
class KktCertificate:
    """Multipliers eta and the worst-case violation of the optimality law."""

    eta: np.ndarray
    residual: float


def constraint_matrix(space: ConfigSpace) -> np.ndarray:
    """The space's read-only conservation matrix A, A[i, t] = (config t)_i."""
    return space.constraint_matrix


def feasibility_gap(space: ConfigSpace, state: StatePoint, demand: Demand) -> float:
    """Max violation of conservation and nonnegativity at the state."""
    A = space.constraint_matrix
    gap = float(np.max(np.abs(A @ state.x - demand.rho)))
    neg = float(max(0.0, -np.min(state.x))) if len(state.x) else 0.0
    return max(gap, neg)


def project_to_polytope(A: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of z onto {x >= 0, A x = b}.

    Solves the equality-constrained projection on the face {z > 0}, then on
    all coordinates.  When neither is optimal, dual Newton (alpha 1, shift
    z) finds the free set {z + A^T nu > 0}, and the projection is solved
    exactly on that face.
    """
    z = np.asarray(z, dtype=float)
    scale = max(1.0, float(abs(b).max()), float(abs(z).max()))
    for free in (z > 0, np.ones(len(z), dtype=bool)):
        x, nu = _face_projection(A, b, z, free, scale)
        if x is not None:
            return x
    # Newton starts from the multipliers of the projection onto A x = b.
    nu, _ = _dual_newton(A.T, b, 1.0, nu, z=z)
    v = z + A.T @ nu
    x, _ = _face_projection(A, b, z, v > 0, scale)
    if x is None:
        x = np.maximum(v, 0.0)
        if float(np.max(np.abs(A @ x - b))) > 1e-8 * scale:
            raise NonconvergenceError("projection dual Newton did not converge")
    return x


def _face_projection(A, b, z, free, scale):
    """The projection of z if its free coordinates are ``free``, else None,
    and the multipliers nu of the equality-constrained projection."""
    AF = A[:, free]
    G = AF @ AF.T
    rhs = b - AF @ z[free]
    try:
        nu = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        nu = np.linalg.lstsq(G, rhs, rcond=None)[0]
    # Free coordinates of v are the face's solution, pinned ones its bound
    # multipliers with the sign flipped.
    v = z + nu @ A
    xf = v[free]
    if np.abs(AF @ xf - b).max() > 1e-8 * scale:
        return None, nu  # the equality system is inconsistent on this face
    if xf.min(initial=np.inf) < -1e-12 * scale:
        return None, nu
    if v[~free].max(initial=-np.inf) > 1e-10 * scale:
        return None, nu  # a pinned coordinate has a negative bound multiplier
    return np.maximum(np.where(free, v, 0.0), 0.0), nu


def _dual_newton(K, b, alpha, eta0, z=None):
    """Semismooth Newton ascent on the concave dual shared by F and the
    projection,

        g(eta) = b.eta - a/(1+a) * sum_k max(0, z_k + k.eta)^((1+a)/a),

    with shift z (zero when None).  Its gradient is b - A x(eta), where
    x_k = u_k^(1/a), u_k = max(0, z_k + k.eta).  Each step solves (H + lam
    (1 + tr H)/m) d = grad with Armijo backtracking on g; lam starts at
    1e-14, grows by 1e3 when backtracking fails above t = 1e-6 and shrinks
    by 1e3 after a full step.  Stops at |A x - b| <= 1e-12 scale or when no
    regularization yields ascent.  Returns eta and g(eta).
    """
    n, m = K.shape
    inv = 1.0 / alpha
    shift = np.zeros(n) if z is None else z
    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(shift))))

    def at(eta):
        u = np.maximum(shift + K @ eta, 0.0)
        g = float(b @ eta) - alpha / (1.0 + alpha) * float(np.sum(u ** (1.0 + inv)))
        return u, g

    eta = np.array(eta0, dtype=float)
    u, g = at(eta)
    lam = 1e-14
    for _ in range(200):
        on = u > 0
        kb = K[on]
        grad = b - kb.T @ u[on] ** inv
        if float(np.max(np.abs(grad))) <= 1e-12 * scale:
            break
        # Guard the exploding derivative near the kink for alpha > 1.
        kb *= np.sqrt(np.minimum(inv * u[on] ** (inv - 1.0), 1e12))[:, None]
        H = kb.T @ kb
        diag = H.diagonal().copy()
        reg = (1.0 + diag.sum()) / m
        # Rounding slack of the Armijo test, at the size of g's two terms.
        lin = float(b @ eta)
        slack = 1e-15 * (abs(lin) + abs(lin - g))
        t = 0.0
        while t == 0.0 and lam < 1e10:
            H.flat[:: m + 1] = diag + lam * reg
            d = np.linalg.solve(H, grad)
            slope = float(grad @ d)
            t = 1.0
            while t >= 1e-6:
                cand = eta + t * d
                uc, gc = at(cand)
                if gc >= g + 1e-4 * t * slope - slack:
                    break
                t *= 0.5
            else:
                t = 0.0
                lam *= 1e3
        if t == 0.0:
            break
        if t == 1.0:
            lam = max(lam / 1e3, 1e-14)
        eta, u, g = cand, uc, gc
    return eta, g


def objective(state: StatePoint) -> float:
    """F(x): separable placement objective."""
    x = np.maximum(state.x, 0.0)
    return float(np.sum(x ** (1.0 + state.alpha)) / (1.0 + state.alpha))


def _class_rows(space: ConfigSpace, v: np.ndarray, pad: float) -> np.ndarray:
    """Entries of a per-configuration vector laid out as ``member_table``:
    one row per nonzero class, members in configuration order, then ``pad``."""
    return np.append(v, pad)[_require_aggregates(space).member_table]


def class_totals(space: ConfigSpace, x: Sequence[float]) -> np.ndarray:
    """Per-class sums of a configuration vector; entry 0 is the zero class."""
    rows = _class_rows(space, np.asarray(x, dtype=float), 0.0)
    return np.concatenate(([0.0], rows.sum(axis=1)))


def aggregate_objective(space: ConfigSpace, state: StatePoint) -> float:
    """Phi(x): class-total variant of the objective."""
    s = np.maximum(class_totals(space, state.x), 0.0)
    return float(np.sum(s[1:] ** (1.0 + state.alpha)) / (1.0 + state.alpha))


def solve_optimum(
    space: ConfigSpace,
    demand: Demand,
    alpha: float,
) -> tuple[StatePoint, KktCertificate]:
    """Minimize F over the feasible polytope.

    Dual Newton gives x = max(K eta, 0)^(1/alpha), which is projected onto
    the polytope unless the ascent met |A x - rho| <= 1e-12 (a projection
    moves tiny coordinates by as much as large ones, which costs their
    x^alpha its precision when alpha < 1).  The returned certificate is
    re-derived from x and must satisfy max(optimality residual,
    feasibility gap) <= 1e-9, otherwise ``NonconvergenceError`` carries it.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    A = space.constraint_matrix
    rho = demand.rho
    x = _plain_primal(A, rho, alpha)
    if float(np.max(np.abs(A @ x - rho))) > 1e-12:
        x = project_to_polytope(A, rho, x)
    state = StatePoint(x, alpha)
    cert = kkt_certificate(space, state)
    score = max(cert.residual, float(np.max(np.abs(A @ x - rho))))
    if score > _PLAIN_TOL:
        raise NonconvergenceError(
            f"optimum solver stalled at certificate score {score:.3e} (tol {_PLAIN_TOL:.1e})",
            state=state,
            certificate=cert,
        )
    return state, cert


def _plain_primal(A, rho, alpha):
    """x = max(K eta, 0)^(1/alpha) at the dual Newton point of F.

    The start eta = (max rho / n)^alpha puts little mass on every
    configuration; from above, the first Newton steps of alpha > 1 leave
    every configuration off and the ascent creeps back.
    """
    eta0 = np.full(len(rho), (float(np.max(rho)) / A.shape[1]) ** alpha)
    eta, _ = _dual_newton(A.T, rho, alpha, eta0)
    return np.maximum(A.T @ eta, 0.0) ** (1.0 / alpha)


def kkt_certificate(space: ConfigSpace, state: StatePoint) -> KktCertificate:
    """Fit multipliers at a state of F and report the optimality residual.

    eta is fitted by least squares on the support, and the residual is the
    worst violation of x_k^alpha = max(k . eta, 0).  Feasibility is not
    part of it; ``feasibility_gap`` measures that.
    """
    x = np.maximum(state.x, 0.0)
    K = space.constraint_matrix.T
    xa = x ** state.alpha
    thr = DEFAULT_SUPPORT_EPS * max(float(np.max(x, initial=0.0)), 1.0)
    support = x > thr
    if np.any(support):
        eta, *_ = np.linalg.lstsq(K[support], xa[support], rcond=None)
    else:
        eta = np.zeros(space.num_types)
    residual = float(np.max(np.abs(xa - np.maximum(K @ eta, 0.0))))
    return KktCertificate(eta=eta, residual=residual)


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
    # Flat (class, column) bins of an n x m block, for class sums.
    flat = (cls[:, None] * m + np.arange(m)).ravel()
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
        xz = float(x @ z)
        # The dual is read only once feasibility and complementarity hold.
        if (float(np.max(np.abs(rp))) <= feas_tol and xz <= 1e-16 * n
                and float(np.sum(s ** (1.0 + alpha))) / (1.0 + alpha) - dual(eta) <= 1e-10):
            break
        rd = s[cls] ** alpha - K @ eta - z
        dinv = x / z
        den = s ** (1.0 - alpha) / alpha + np.bincount(cls, dinv, nq)

        def w_inv(cols, out, bins):
            # W^-1 cols into out: D^-1 cols minus, per class, D^-1 1
            # (1^T D^-1 cols) / (s^(1-a)/a + 1^T D^-1 1).
            out[:] = cols * dinv[:, None]
            S = np.bincount(bins, out.ravel(), nq * out.shape[1]).reshape(nq, -1)
            out -= dinv[:, None] * (S / den[:, None])[cls]

        # W^-1 [K, r] as one column-major block, like K: the K columns and
        # their reduced matrix serve both directions, and each direction
        # refills the last column, wr.
        V = np.empty((n, m + 1), order="F")
        WK, wr = V[:, :m], V[:, m]
        w_inv(K, WK, flat)
        AWK = A @ WK

        def direction(rc):
            w_inv((rd + rc / x)[:, None], V[:, m:], cls)
            deta = np.linalg.solve(AWK, A @ wr - rp)
            dx = WK @ deta - wr
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


def _weight_diffs(xp: np.ndarray, alpha: float, target, base) -> np.ndarray:
    """Every edge's weight differential x_target^alpha - x_base^alpha.

    ``xp`` is max(x, 0) with one zero appended, so that base -1 (the empty
    server) reads 0; ``target`` and ``base`` list the edges' ends.
    """
    w = xp ** alpha
    return w[target] - w[base]


def _space_weight_diffs(space: ConfigSpace, state: StatePoint) -> np.ndarray:
    _, target, base = space.edge_arrays
    return _weight_diffs(np.append(np.maximum(state.x, 0.0), 0.0), state.alpha, target, base)


def _edge_mass_coefficients(space: ConfigSpace, demand: Demand) -> np.ndarray:
    # Edge (k, i) carries departure mass k_i * mu_i * x_k.
    i, target, _ = space.edge_arrays
    return space.constraint_matrix[i, target] * demand.service[i]


def neutral_allocation(space: ConfigSpace, state: StatePoint, demand: Demand) -> Allocation:
    """Allocation that routes every edge's departure mass back to itself.

    Its drift is identically zero.  Raises when the state is farther than
    1e-6 from the feasible polytope.
    """
    gap = feasibility_gap(space, state, demand)
    if gap > _NEUTRAL_FEAS_TOL:
        raise ValueError(f"state is off the feasible polytope by {gap:.3e}")
    coef = _edge_mass_coefficients(space, demand)
    gamma = coef * np.maximum(state.x, 0.0)[space.edge_arrays[1]]
    return Allocation(gamma=gamma)


def drift(space: ConfigSpace, alloc: Allocation, state: StatePoint, demand: Demand) -> float:
    """D(gamma, x): rate of change of F under the given placement rates."""
    neutral = neutral_allocation(space, state, demand)
    return float(_space_weight_diffs(space, state) @ (alloc.gamma - neutral.gamma))


def _swap_terms(space: ConfigSpace, state: StatePoint, demand: Demand) -> tuple:
    """Edge masses of the neutral allocation, weight differentials, donors
    (target mass present) and available recipients of single swaps."""
    _, target, base = space.edge_arrays
    x = np.append(state.x, np.inf)  # base -1 (the unit edge) is always available
    return (neutral_allocation(space, state, demand).gamma,
            _space_weight_diffs(space, state),
            x[target] > _DRIFT_ZERO_TOL,
            x[base] > _DRIFT_ZERO_TOL)


def simple_improving_allocations(
    space: ConfigSpace, state: StatePoint, demand: Demand
) -> list[tuple[Allocation, tuple[int, int]]]:
    """All single-swap reallocations with strictly smaller weight differential.

    A donor edge with mass present moves its entire departure mass onto a
    same-type recipient edge that is available (unit target, or positive
    mass below it) and has strictly smaller weight differential.  Returns
    (allocation, (donor_edge, recipient_edge)) pairs; empty exactly at the
    optimum.
    """
    neutral, delta, donor, available = _swap_terms(space, state, demand)
    out = []
    for edges in space.edges_of_type:
        for e1 in edges:
            if not donor[e1]:
                continue
            for e2 in edges:
                if available[e2] and delta[e2] < delta[e1]:
                    gamma = neutral.copy()
                    gamma[e2] += gamma[e1]
                    gamma[e1] = 0.0
                    out.append((Allocation(gamma=gamma), (e1, e2)))
    return out


def min_drift(space: ConfigSpace, state: StatePoint, demand: Demand) -> float:
    """Smallest drift over the neutral and all simple improving allocations.

    Moving donor e1's mass g to recipient e2 has drift g (delta_e2 -
    delta_e1), so each donor's best swap is to the lightest available edge
    of its type.  Zero exactly when no simple improving allocation exists.
    """
    mass, delta, donor, available = _swap_terms(space, state, demand)
    etype = space.edge_arrays[0]
    lightest = np.full(space.num_types, np.inf)
    np.minimum.at(lightest, etype[available], delta[available])
    m = lightest[etype]
    donor &= delta > m
    return float(np.min(mass[donor] * (m[donor] - delta[donor]), initial=0.0))

