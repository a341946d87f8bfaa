"""Frozen copy of the event engine before the sum-tree rewrite.

A differential oracle for ``packing_sim.simulator``: the classes and
functions below are the engine as it was when every event re-summed the
whole rate table and scanned it linearly, and every placement rule
scanned the edges or classes of the type one by one; no placement code
is shared with the engine.  Seeded runs of the current engine must
produce byte-identical summaries to ``run`` here.  Do not edit this
file to follow changes of the engine; it is the reference.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Optional

import numpy as np

from packing_sim.config_space import ConfigSpaceError
from packing_sim.optimizer import StatePoint, aggregate_objective, objective
from packing_sim.simulator import (
    _CLASS_DISCIPLINES,
    RunResult,
    SimConfig,
    Snapshot,
    SystemState,
    _round_half_up,
)


def place_greedy_d(state: SystemState, i: int) -> int:
    """Edge minimizing the weight differential of the target on raw counts.

    Candidates: the unit edge, plus edges whose base configuration holds
    at least one server.  Ties go to the lexicographically smallest
    target configuration.
    """
    space = state.space
    X = state.counts
    a = state.alpha
    best = math.inf
    best_e = -1
    for e in space.edges_of_type[i]:
        b = space.edge_base[e]
        if b >= 0 and X[b] <= 0:
            continue
        score = X[space.edge_target[e]] ** a
        if b >= 0:
            score -= X[b] ** a
        if score < best:
            best = score
            best_e = e
    return best_e


def place_greedy_i(state: SystemState, i: int) -> int:
    """Edge whose placement increases the objective F the least."""
    space = state.space
    X = state.counts
    p = 1.0 + state.alpha
    best = math.inf
    best_e = -1
    for e in space.edges_of_type[i]:
        b = space.edge_base[e]
        if b >= 0 and X[b] <= 0:
            continue
        xt = X[space.edge_target[e]]
        score = (xt + 1) ** p - xt ** p
        if b >= 0:
            xb = X[b]
            score += (xb - 1) ** p - xb ** p
        score /= p
        if score < best:
            best = score
            best_e = e
    return best_e


def _edge_weight_diff(space, X, a: float, e: int) -> float:
    b = space.edge_base[e]
    v = X[space.edge_target[e]] ** a
    if b >= 0:
        v -= X[b] ** a
    return v


def place_alt(
    state: SystemState,
    i: int,
    departed_edge: int,
    rng,
    epsilon: float,
    mix: float = 0.0,
) -> int:
    """Departure-anchored placement: move only to a strictly lighter edge.

    Draws one candidate (unit edge with probability epsilon, otherwise
    the edge above a count-weighted random occupied server) and compares
    weight differentials against the departed edge on current counts.
    Falls through to the standard greedy rule with probability ``mix``.
    """
    if mix > 0.0 and rng.random() < mix:
        return place_greedy_d(state, i)
    space = state.space
    X = state.counts
    a = state.alpha
    cand = -1
    if rng.random() < epsilon:
        cand = space.edge_by_target[i][space.unit_index[i]]
    else:
        total = 0
        for v in X:
            total += v
        if total > 0:
            u = rng.random() * total
            acc = 0
            chosen = -1
            for t, v in enumerate(X):
                acc += v
                if u < acc:
                    chosen = t
                    break
            up = space.up_index[chosen][i]
            if up is not None:
                cand = space.edge_by_target[i][up]
    if cand >= 0 and cand != departed_edge:
        if _edge_weight_diff(space, X, a, cand) < _edge_weight_diff(
            space, X, a, departed_edge
        ):
            return cand
    return departed_edge


def place_greedy_ac(state: SystemState, i: int, rng, mode: str = "D") -> tuple[int, int]:
    """Class-level greedy placement.

    Scores candidate aggregate classes on class totals (mode "D": weight
    differential; mode "I": objective increment), then draws the concrete
    base server uniformly within the winning class, weighted by counts of
    members that can accept the type.  Returns (class id, edge index);
    class id 0 means a previously empty server.
    """
    space = state.space
    agg = space.aggregates
    if agg is None:
        raise ConfigSpaceError("class-level placement needs aggregate classes")
    S = state.class_counts
    X = state.counts
    a = state.alpha
    p = 1.0 + a
    best = math.inf
    best_q = -1
    best_bases = None
    for q in range(agg.num_classes + 1):
        tq = agg.plus_type[q][i]
        if tq is None:
            continue
        if q == 0:
            bases = None
        else:
            if S[q] <= 0:
                continue
            bases = [t for t in agg.admit_bases[q][i] if X[t] > 0]
            if not bases:
                continue
        st = S[tq]
        if mode == "D":
            score = st ** a
            if q:
                score -= S[q] ** a
        else:
            score = (st + 1) ** p - st ** p
            if q:
                score += (S[q] - 1) ** p - S[q] ** p
            score /= p
        if score < best:
            best = score
            best_q = q
            best_bases = bases
    if best_q < 0:
        raise RuntimeError("no feasible placement class")
    if best_q == 0:
        return 0, space.edge_by_target[i][space.unit_index[i]]
    total = 0
    for t in best_bases:
        total += X[t]
    u = rng.random() * total
    acc = 0
    chosen = best_bases[-1]
    for t in best_bases:
        acc += X[t]
        if u < acc:
            chosen = t
            break
    return best_q, space.edge_by_target[i][space.up_index[chosen][i]]


class Simulation:
    """Stepwise simulation engine; ``run`` drives it with sampling."""

    def __init__(self, config: SimConfig):
        self.config = config
        space = config.space
        self.space = space
        self.demand = config.demand
        self.rng = random.Random(config.seed)
        self.r = config.r
        self.t = 0.0
        n = space.num_configs
        I = space.num_types
        self.X = [0] * n
        if space.has_aggregates:
            self.S = [0] * (space.aggregates.num_classes + 1)
        else:
            self.S = None
        self.state = SystemState(
            space=space, alpha=config.alpha, counts=self.X, class_counts=self.S
        )
        self.Y = [0] * I
        self.Yhat = [0] * I
        self.Ytilde = [0] * I
        E = space.num_edges
        self.arrivals = [0] * E
        self.departures = [0] * E
        self.tok_arr = [0] * E if config.uses_tokens else None
        self.rep_arr = [0] * E if config.uses_tokens else None
        self.fresh_arr = [0] * E if config.uses_tokens else None
        self.act_dep = [0] * E if config.uses_tokens else None
        self.exp_dep = [0] * E if config.uses_tokens else None
        self.n_events = 0

        mu = self.demand.service
        self._edge_coef = [
            space.configs[space.edge_target[e]][space.edge_type[e]]
            * mu[space.edge_type[e]]
            for e in range(E)
        ]
        self._arr_rate = [float(self.demand.arrival[i]) * self.r for i in range(I)]
        self._mu = [float(v) for v in mu]

        if config.mode == "closed":
            for i in range(I):
                count = _round_half_up(float(self.demand.rho[i]) * self.r)
                self._bump(space.unit_index[i], count)
                self.Y[i] = count
                self.Yhat[i] = count
            self._y0 = list(self.Y)
        else:
            self._y0 = [0] * I
        self._x0 = list(self.X)

        if config.uses_tokens:
            self._build_complete(config.max_complete_configs)

    # -- low-level count updates ------------------------------------------

    def _bump(self, t_idx: int, delta: int):
        self.X[t_idx] += delta
        if self.S is not None:
            self.S[self.space.aggregates.class_of[t_idx]] += delta

    def _build_complete(self, cap: int):
        space = self.space
        cc_list = []
        cc_index = {}
        by_config = [[] for _ in range(space.num_configs)]
        for k_idx, k in enumerate(space.configs):
            for held in product(*(range(v + 1) for v in k)):
                khat_idx = space.index[held] if any(held) else -1
                c = len(cc_list)
                cc_list.append((k_idx, khat_idx))
                cc_index[(k_idx, khat_idx)] = c
                by_config[k_idx].append(c)
                if len(cc_list) > cap:
                    raise ConfigSpaceError(
                        f"token bookkeeping needs more than {cap} server states"
                    )
        self.cc_list = cc_list
        self.cc_index = cc_index
        self.by_config = by_config
        self.Xc = [0] * len(cc_list)

        # Flat event table: per (server state, type), actual-departure and
        # token-expiry rates with precomputed successors.
        mu0 = self.config.token_rate
        ev = []
        for c, (k_idx, khat_idx) in enumerate(cc_list):
            k = space.configs[k_idx]
            khat = space.configs[khat_idx] if khat_idx >= 0 else (0,) * space.num_types
            for i in range(space.num_types):
                e = space.edge_by_target[i].get(k_idx)
                if khat[i] >= 1:
                    kd = space.down_index[k_idx][i]
                    hd = space.down_index[khat_idx][i]
                    nxt = -1 if kd < 0 else self.cc_index[(kd, hd)]
                    ev.append((c, i, khat[i] * self._mu[i], e, nxt, True))
                if k[i] - khat[i] >= 1:
                    kd = space.down_index[k_idx][i]
                    nxt = -1 if kd < 0 else self.cc_index[(kd, khat_idx)]
                    ev.append((c, i, (k[i] - khat[i]) * mu0, e, nxt, False))
        self._cc_events = ev
        token_slots = [[] for _ in range(space.num_types)]
        for c, (k_idx, khat_idx) in enumerate(cc_list):
            k = space.configs[k_idx]
            for i in range(space.num_types):
                free = k[i] - (space.configs[khat_idx][i] if khat_idx >= 0 else 0)
                if free >= 1:
                    up = (
                        space.up_index[khat_idx][i]
                        if khat_idx >= 0
                        else space.unit_index[i]
                    )
                    nxt = self.cc_index[(k_idx, up)]
                    token_slots[i].append((c, free, nxt, space.edge_by_target[i][k_idx]))
        self._token_slots = token_slots

    def _cc_move(self, c_from: int, c_to: int):
        """Move one server between complete states, updating projections."""
        if c_from >= 0:
            self.Xc[c_from] -= 1
            self._bump(self.cc_list[c_from][0], -1)
        if c_to >= 0:
            self.Xc[c_to] += 1
            self._bump(self.cc_list[c_to][0], +1)

    # -- placement dispatch ------------------------------------------------

    def _place(self, i: int) -> int:
        d = self.config.discipline
        if d == "greedy-i":
            return place_greedy_i(self.state, i)
        if d in _CLASS_DISCIPLINES:
            return place_greedy_ac(self.state, i, self.rng)[1]
        return place_greedy_d(self.state, i)

    def _place_anchored(self, i: int, departed_edge: int) -> int:
        alt = self.config.alt_placement
        if alt is not None:
            return place_alt(self.state, i, departed_edge, self.rng, alt.epsilon, alt.mix)
        return self._place(i)

    # -- event drawing and application --------------------------------------

    def total_rate(self) -> float:
        if self.config.uses_tokens:
            total = sum(self._arr_rate)
            for c, i, coef, e, nxt, actual in self._cc_events:
                total += coef * self.Xc[c]
            return total
        total = 0.0
        X = self.X
        tgt = self.space.edge_target
        for e, coef in enumerate(self._edge_coef):
            total += coef * X[tgt[e]]
        if self.config.mode == "open":
            total += sum(self._arr_rate)
        return total

    def _analytic_rate(self) -> float:
        mu = self._mu
        if self.config.uses_tokens:
            base = sum(self._arr_rate)
            base += sum(m * y for m, y in zip(mu, self.Yhat))
            base += self.config.token_rate * sum(self.Ytilde)
            return base
        base = sum(m * y for m, y in zip(mu, self.Y))
        if self.config.mode == "open":
            base += sum(self._arr_rate)
        return base

    def step(self) -> bool:
        """Advance one event; False when no event can occur."""
        total = self.total_rate()
        ana = self._analytic_rate()
        assert abs(total - ana) <= 1e-9 * (1.0 + ana), "event-rate bookkeeping drifted"
        if total <= 0.0:
            return False
        self.t += self.rng.expovariate(total)
        self._apply(self.rng.random() * total)
        self.n_events += 1
        if self.config.mode == "closed":
            assert self.Y == self._y0, "closed population changed"
        return True

    def _apply(self, u: float):
        if self.config.uses_tokens:
            self._apply_token_mode(u)
        elif self.config.mode == "closed":
            self._apply_closed(u)
        else:
            self._apply_open_plain(u)

    def _apply_closed(self, u: float):
        space = self.space
        X = self.X
        acc = 0.0
        chosen = -1
        for e, coef in enumerate(self._edge_coef):
            acc += coef * X[space.edge_target[e]]
            if u < acc:
                chosen = e
                break
        if chosen < 0:
            chosen = space.num_edges - 1
        i = space.edge_type[chosen]
        self._bump(space.edge_target[chosen], -1)
        b = space.edge_base[chosen]
        if b >= 0:
            self._bump(b, +1)
        self.departures[chosen] += 1
        e2 = self._place_anchored(i, chosen)
        self._bump(space.edge_target[e2], +1)
        b2 = space.edge_base[e2]
        if b2 >= 0:
            self._bump(b2, -1)
        self.arrivals[e2] += 1

    def _apply_open_plain(self, u: float):
        space = self.space
        for i, rate in enumerate(self._arr_rate):
            if u < rate:
                e2 = self._place(i)
                self._bump(space.edge_target[e2], +1)
                b2 = space.edge_base[e2]
                if b2 >= 0:
                    self._bump(b2, -1)
                self.arrivals[e2] += 1
                self.Y[i] += 1
                self.Yhat[i] += 1
                return
            u -= rate
        X = self.X
        acc = 0.0
        chosen = -1
        for e, coef in enumerate(self._edge_coef):
            acc += coef * X[space.edge_target[e]]
            if u < acc:
                chosen = e
                break
        if chosen < 0:
            chosen = space.num_edges - 1
        i = space.edge_type[chosen]
        self._bump(space.edge_target[chosen], -1)
        b = space.edge_base[chosen]
        if b >= 0:
            self._bump(b, +1)
        self.departures[chosen] += 1
        self.Y[i] -= 1
        self.Yhat[i] -= 1

    def _place_token_or_customer(self, i: int, actual: bool, departed_edge: int = -1):
        """Greedy placement in token mode; updates complete states."""
        space = self.space
        if departed_edge >= 0:
            e2 = self._place_anchored(i, departed_edge)
        else:
            e2 = self._place(i)
        t2 = space.edge_target[e2]
        b2 = space.edge_base[e2]
        if b2 < 0:
            khat = space.unit_index[i] if actual else -1
            self._cc_move(-1, self.cc_index[(t2, khat)])
        else:
            u = self.rng.random() * self.X[b2]
            acc = 0
            chosen = -1
            for c in self.by_config[b2]:
                acc += self.Xc[c]
                if u < acc:
                    chosen = c
                    break
            if chosen < 0:
                for c in reversed(self.by_config[b2]):
                    if self.Xc[c] > 0:
                        chosen = c
                        break
            khat_idx = self.cc_list[chosen][1]
            if actual:
                khat_new = (
                    space.up_index[khat_idx][i]
                    if khat_idx >= 0
                    else space.unit_index[i]
                )
            else:
                khat_new = khat_idx
            self._cc_move(chosen, self.cc_index[(t2, khat_new)])
        return e2

    def _apply_token_mode(self, u: float):
        space = self.space
        for i, rate in enumerate(self._arr_rate):
            if u < rate:
                if self.Ytilde[i] >= 1:
                    # Replace a uniformly chosen token of this type.
                    v = self.rng.random() * self.Ytilde[i]
                    acc = 0
                    hit = None
                    for c, free, nxt, e in self._token_slots[i]:
                        acc += free * self.Xc[c]
                        if v < acc:
                            hit = (c, nxt, e)
                            break
                    if hit is None:
                        for c, free, nxt, e in reversed(self._token_slots[i]):
                            if self.Xc[c] > 0:
                                hit = (c, nxt, e)
                                break
                    c, nxt, e = hit
                    self._cc_move(c, nxt)
                    self.rep_arr[e] += 1
                    self.Yhat[i] += 1
                    self.Ytilde[i] -= 1
                else:
                    e2 = self._place_token_or_customer(i, actual=True)
                    self.fresh_arr[e2] += 1
                    self.arrivals[e2] += 1
                    self.Y[i] += 1
                    self.Yhat[i] += 1
                return
            u -= rate
        acc = 0.0
        for c, i, coef, e, nxt, actual in self._cc_events:
            acc += coef * self.Xc[c]
            if u < acc:
                self._cc_move(c, nxt)
                if actual:
                    self.act_dep[e] += 1
                    self.departures[e] += 1
                    self.Y[i] -= 1
                    self.Yhat[i] -= 1
                    e2 = self._place_token_or_customer(i, actual=False, departed_edge=e)
                    self.tok_arr[e2] += 1
                    self.arrivals[e2] += 1
                    self.Y[i] += 1
                    self.Ytilde[i] += 1
                else:
                    self.exp_dep[e] += 1
                    self.departures[e] += 1
                    self.Y[i] -= 1
                    self.Ytilde[i] -= 1
                return
        raise AssertionError("event draw fell off the rate table")

    # -- sampling ------------------------------------------------------------

    def snapshot(self, at: float) -> Snapshot:
        r = self.r
        x = {t: v / r for t, v in enumerate(self.X) if v}
        snap = Snapshot(
            t=at,
            x=x,
            y=tuple(self.Y),
            yhat=tuple(self.Yhat),
            ytilde=tuple(self.Ytilde),
            arrivals={e: v for e, v in enumerate(self.arrivals) if v},
            departures={e: v for e, v in enumerate(self.departures) if v},
        )
        if self.config.uses_tokens:
            snap.token_arrivals = {e: v for e, v in enumerate(self.tok_arr) if v}
            snap.replacement_arrivals = {e: v for e, v in enumerate(self.rep_arr) if v}
            snap.fresh_arrivals = {e: v for e, v in enumerate(self.fresh_arr) if v}
            snap.actual_departures = {e: v for e, v in enumerate(self.act_dep) if v}
            snap.expiries = {e: v for e, v in enumerate(self.exp_dep) if v}
        self._check_conservation(snap)
        return snap

    def _check_conservation(self, snap: Snapshot):
        space = self.space
        for i in range(space.num_types):
            edges = space.edges_of_type[i]
            a = sum(self.arrivals[e] for e in edges)
            d = sum(self.departures[e] for e in edges)
            assert a - d == self.Y[i] - self._y0[i], (
                f"type {i}: arrivals - departures != population change"
            )
            if self.config.uses_tokens:
                placed = sum(self.tok_arr[e] for e in edges)
                actual = sum(self.act_dep[e] for e in edges)
                assert placed == actual, (
                    f"type {i}: token placements diverged from departures"
                )


def run(
    config: SimConfig,
    xstar: Optional[np.ndarray] = None,
    phistar: Optional[float] = None,
) -> RunResult:
    """Simulate one run, sampling snapshots after burn-in.

    ``xstar`` and ``phistar`` are optional optimizer outputs; when given,
    the summary includes the distance of the time-averaged state to the
    optimum and the class-objective gap.
    """
    sim = Simulation(config)
    horizon = config.horizon
    interval = config.sample_interval
    next_sample = config.burn_in + interval
    snapshots = []
    while True:
        total = sim.total_rate()
        ana = sim._analytic_rate()
        assert abs(total - ana) <= 1e-9 * (1.0 + ana), "event-rate bookkeeping drifted"
        if total <= 0.0:
            t_next = horizon
        else:
            t_next = sim.t + sim.rng.expovariate(total)
        while next_sample <= t_next and next_sample <= horizon:
            snapshots.append(sim.snapshot(next_sample))
            next_sample += interval
        if t_next >= horizon:
            sim.t = horizon
            break
        sim.t = t_next
        sim._apply(sim.rng.random() * total)
        sim.n_events += 1
        if config.mode == "closed":
            assert sim.Y == sim._y0, "closed population changed"

    summary = _summarize(sim, snapshots, xstar, phistar)
    return RunResult(config=config, snapshots=snapshots, summary=summary)


def _summarize(sim: Simulation, snapshots, xstar, phistar) -> dict:
    config = sim.config
    space = sim.space
    n = space.num_configs
    I = space.num_types
    r = sim.r
    if snapshots:
        xbar = np.zeros(n)
        ybar = np.zeros(I)
        yhat_bar = np.zeros(I)
        ytilde_bar = np.zeros(I)
        for s in snapshots:
            for t, v in s.x.items():
                xbar[t] += v
            ybar += np.asarray(s.y, dtype=float)
            yhat_bar += np.asarray(s.yhat, dtype=float)
            ytilde_bar += np.asarray(s.ytilde, dtype=float)
        m = len(snapshots)
        xbar /= m
        ybar /= m * r
        yhat_bar /= m * r
        ytilde_bar /= m * r
    else:
        xbar = np.asarray([v / r for v in sim.X])
        ybar = np.asarray([v / r for v in sim.Y])
        yhat_bar = np.asarray([v / r for v in sim.Yhat])
        ytilde_bar = np.asarray([v / r for v in sim.Ytilde])

    cons = 0.0
    for i in range(I):
        edges = space.edges_of_type[i]
        a = sum(sim.arrivals[e] for e in edges)
        d = sum(sim.departures[e] for e in edges)
        cons = max(cons, abs(a - d - (sim.Y[i] - sim._y0[i])))
        if config.uses_tokens:
            placed = sum(sim.tok_arr[e] for e in edges)
            actual = sum(sim.act_dep[e] for e in edges)
            cons = max(cons, abs(placed - actual))

    state = StatePoint(xbar, config.alpha)
    summary = {
        "mode": config.mode,
        "discipline": config.discipline,
        "r": config.r,
        "alpha": config.alpha,
        "seed": config.seed,
        "horizon": config.horizon,
        "burn_in": config.burn_in,
        "sample_interval": config.sample_interval,
        "n_samples": len(snapshots),
        "n_events": sim.n_events,
        "final_time": sim.t,
        "x_bar": {",".join(map(str, space.configs[t])): float(v)
                  for t, v in enumerate(xbar) if v},
        "y_bar": [float(v) for v in ybar],
        "yhat_bar": [float(v) for v in yhat_bar],
        "ytilde_bar": [float(v) for v in ytilde_bar],
        "token_fraction": float(np.sum(ytilde_bar)),
        "objective_x_bar": objective(state),
        "objective_initial": objective(
            StatePoint(np.asarray(sim._x0, dtype=float) / r, config.alpha)
        ),
        "objective_final": objective(
            StatePoint(np.asarray(sim.X, dtype=float) / r, config.alpha)
        ),
        "conservation_error": cons,
    }
    if space.has_aggregates:
        summary["aggregate_objective_x_bar"] = aggregate_objective(space, state)
        if phistar is not None:
            summary["aggregate_objective_gap"] = (
                summary["aggregate_objective_x_bar"] - float(phistar)
            )
    if xstar is not None:
        diff = xbar - np.asarray(xstar, dtype=float)
        summary["l2_to_target"] = float(np.sqrt(np.sum(diff * diff)))
    return summary

