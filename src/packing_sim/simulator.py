"""Event-driven simulation of greedy packing disciplines.

One exponential clock drives the system: every step draws the waiting
time from the total event rate and then picks one event by its rate
share, walking down a binary sum tree of the event rates (O(I log n) per
event for I types and n events).  Supported regimes:

* closed: a fixed population; each service completion immediately
  re-places the same customer by the configured greedy rule,
* open: Poisson arrivals with per-customer departures,
* open with tokens: departures leave placeholder "tokens" behind (placed
  greedily at departure time); arrivals first replace an existing token
  of their type, picked uniformly at random, and tokens also expire at
  their own rate.  Servers then carry a pair (held counts, actual
  counts); counts seen by placement rules always include tokens.

Placement rules score candidate target configurations on the raw counts
X and break ties toward the lexicographically smallest target (for
class-level rules: the smallest class id).  All randomness comes from a
single ``random.Random`` seeded from the config, so runs with equal
seeds are reproducible event for event.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, count, repeat
from operator import mul, truediv
from typing import Optional

import numpy as np

from .config_space import (
    ConfigSpace,
    ConfigSpaceError,
    InvariantError,
    config_key,
    sparse_state,
)
from .optimizer import Demand, StatePoint, aggregate_objective, objective

MODES = ("closed", "open")
DISCIPLINES = ("greedy-i", "greedy-d", "greedy-dm", "greedy-d-ac", "greedy-dm-ac")
_TOKEN_DISCIPLINES = ("greedy-dm", "greedy-dm-ac")
_CLASS_DISCIPLINES = ("greedy-d-ac", "greedy-dm-ac")


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


@dataclass(frozen=True)
class AltPlacement:
    """Departure-anchored placement variant.

    With probability ``mix`` the run's own greedy rule places instead.
    Otherwise a single candidate edge is drawn: the unit edge of the
    type with probability ``epsilon``, or else the edge above a occupied
    server drawn with weight proportional to its count (no candidate if
    the draw cannot accept the type).  The customer moves along the
    candidate only when its weight differential is strictly smaller than
    that of the edge it departed; otherwise it goes back.
    """

    epsilon: float
    mix: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError("mix must lie in [0, 1]")


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    space: ConfigSpace
    demand: Demand
    r: float
    alpha: float
    mode: str = "closed"
    discipline: str = "greedy-d"
    seed: int = 0
    horizon: Optional[float] = None
    burn_in: Optional[float] = None
    sample_interval: Optional[float] = None
    token_rate: Optional[float] = None
    alt_placement: Optional[AltPlacement] = None
    max_complete_configs: int = 1_000_000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.discipline not in DISCIPLINES:
            raise ValueError(f"discipline must be one of {DISCIPLINES}")
        if self.space.num_types != self.demand.num_types:
            raise ValueError("space and demand disagree on the number of types")
        if self.r <= 0:
            raise ValueError("scale r must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.discipline in _TOKEN_DISCIPLINES and self.mode != "open":
            raise ValueError("token disciplines run in open mode only")
        if self.discipline in _CLASS_DISCIPLINES and not self.space.has_aggregates:
            raise ValueError("class-level disciplines need a space with aggregate classes")
        if self.alt_placement is not None and not (
            self.mode == "closed" or self.discipline in _TOKEN_DISCIPLINES
        ):
            raise ValueError(
                "alternative placement applies to re-placements and token placements only"
            )
        mmin = float(np.min(self.demand.service))
        if self.burn_in is None:
            self.burn_in = 10.0 / mmin
        if self.horizon is None:
            self.horizon = self.burn_in + 100.0 / mmin
        if self.sample_interval is None:
            self.sample_interval = 0.5 / mmin
        if self.token_rate is None:
            self.token_rate = mmin
        if self.horizon < 0 or self.burn_in < 0:
            raise ValueError("horizon and burn_in must be nonnegative")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.token_rate <= 0:
            raise ValueError("token_rate must be positive")

    @property
    def uses_tokens(self) -> bool:
        return self.discipline in _TOKEN_DISCIPLINES


def _weights_d(X: list, a: float, configs, up, down) -> None:
    # Edge (base b, target t) scores X[t]**a - X[b]**a.
    for t in configs:
        x = X[t]
        w = x ** a
        up[t] = w
        down[t] = -w if x else math.inf


def _weights_i(X: list, a: float, configs, up, down) -> None:
    # Edge (base b, target t) scores (1 + a) times the change of F: the
    # increment at t plus the decrement at b.
    p = 1.0 + a
    for t in configs:
        x = X[t]
        w = x ** p
        up[t] = (x + 1) ** p - w
        down[t] = (x - 1) ** p - w if x else math.inf


_RULE_WEIGHTS = {"d": _weights_d, "i": _weights_i}


@dataclass(eq=False)
class SystemState:
    """Live counts seen by placement rules.

    ``counts[t]`` is the number of servers in configuration t (tokens
    included); ``class_counts`` mirrors it per aggregate class (index 0
    unused).  An engine keeps it only for the class-level rules, its readers.

    ``weights`` holds, for each plain greedy rule ("d" or "i") that has
    placed a type of more than ``_SCAN_EDGES`` edges on this state, the two
    arrays its edge scores add up: edge (b, t) scores ``up[t] + down[b]``,
    with ``down[b]`` = +inf where b holds no server and a 0.0 sentinel at
    index n for the empty base -1.  Once a rule has weights, add t to
    ``stale`` after every change of ``counts[t]``; the next placement
    recomputes the weights of t.
    """

    space: ConfigSpace
    alpha: float
    counts: list
    class_counts: Optional[list] = None
    weights: dict = field(default_factory=dict, init=False, repr=False)
    stale: set = field(default_factory=set, init=False, repr=False)

    @classmethod
    def from_counts(cls, space: ConfigSpace, alpha: float, counts) -> "SystemState":
        counts = [int(v) for v in counts]
        if len(counts) != space.num_configs:
            raise ValueError(f"need {space.num_configs} counts")
        cc = None
        if space.has_aggregates:
            agg = space.aggregates
            cc = [0] * (agg.num_classes + 1)
            for t, v in enumerate(counts):
                cc[agg.class_of[t]] += v
        return cls(space=space, alpha=alpha, counts=counts, class_counts=cc)

    def rule_weights(self, rule: str) -> tuple:
        """(up, down) of a plain greedy rule at the current counts; built
        on its first call."""
        if self.stale:
            for r, (up, down) in self.weights.items():
                _RULE_WEIGHTS[r](self.counts, self.alpha, self.stale, up, down)
            self.stale.clear()
        w = self.weights.get(rule)
        if w is None:
            n = len(self.counts)
            w = self.weights[rule] = (np.zeros(n + 1), np.zeros(n + 1))
            _RULE_WEIGHTS[rule](self.counts, self.alpha, range(n), *w)
        return w


# A type with at most this many edges is placed by a loop over its edges.
# Below about 12 edges numpy's fixed cost per call and the upkeep of the
# weight arrays exceed the loop; both give the same edge.
_SCAN_EDGES = 12


def place_greedy_d(state: SystemState, i: int) -> int:
    """Edge minimizing the weight differential of the target on raw counts.

    Candidates: the unit edge, plus edges whose base configuration holds
    at least one server.  Ties go to the lexicographically smallest
    target configuration (``argmin`` returns the first minimum).
    """
    space = state.space
    if len(space.edges_of_type[i]) > _SCAN_EDGES:
        up, down = state.rule_weights("d")
        first, target, base = space.type_edges[i]
        return first + int((up[target] + down[base]).argmin())
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
    p = 1.0 + state.alpha
    if len(space.edges_of_type[i]) > _SCAN_EDGES:
        up, down = state.rule_weights("i")
        first, target, base = space.type_edges[i]
        score = up[target] + down[base]
        score /= p
        return first + int(score.argmin())
    X = state.counts
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


def _pick(items, weight, u):
    """First item whose cumulative integer weight exceeds ``u``: the draw
    ``u = random() * total`` picks an item with probability weight / total."""
    acc = 0
    for t in items:
        acc += weight[t]
        if u < acc:
            return t
    raise InvariantError(f"draw {u!r} at or past the total weight {acc}")


def place_greedy_ac(state: SystemState, i: int, rng) -> tuple[int, int]:
    """Class-level greedy placement.

    Scores candidate aggregate classes by their weight differential on
    class totals, then draws the concrete base server uniformly within
    the winning class, weighted by counts of members that can accept the
    type.  Returns (class id, edge index); class id 0 means a previously
    empty server, and always qualifies through the unit configuration.
    """
    space = state.space
    agg = space.aggregates
    if agg is None:
        raise ConfigSpaceError("class-level placement needs aggregate classes")
    S = state.class_counts
    X = state.counts
    a = state.alpha
    best = math.inf
    best_q = -1
    for q in range(len(agg.plus_type)):
        tq = agg.plus_type[q][i]
        if tq is None:
            continue
        if q:
            if S[q] <= 0:
                continue
            for t in agg.admit_bases[q][i]:
                if X[t] > 0:
                    break
            else:
                continue
        score = S[tq] ** a
        if q:
            score -= S[q] ** a
        if score < best:
            best = score
            best_q = q
    if best_q == 0:
        return 0, space.edge_by_target[i][space.unit_index[i]]
    bases = agg.admit_bases[best_q][i]
    total = 0
    for t in bases:
        total += X[t]
    chosen = _pick(bases, X, rng.random() * total)
    return best_q, space.edge_by_target[i][space.up_index[chosen][i]]


def _edge_weight_diff(space: ConfigSpace, X, a: float, e: int) -> float:
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
) -> int:
    """Departure-anchored placement: move only to a strictly lighter edge.

    Draws one candidate (unit edge with probability epsilon, otherwise
    the edge above a count-weighted random occupied server) and compares
    weight differentials against the departed edge on current counts.
    """
    space = state.space
    X = state.counts
    a = state.alpha
    cand = -1
    if rng.random() < epsilon:
        cand = space.edge_by_target[i][space.unit_index[i]]
    else:
        total = sum(X)
        if total > 0:
            up = space.up_index[_pick(range(len(X)), X, rng.random() * total)][i]
            if up is not None:
                cand = space.edge_by_target[i][up]
    if cand >= 0 and cand != departed_edge:
        if _edge_weight_diff(space, X, a, cand) < _edge_weight_diff(
            space, X, a, departed_edge
        ):
            return cand
    return departed_edge


@dataclass(eq=False)
class Snapshot:
    """State sampled at one instant.  Only a run's final sample carries the
    cumulative edge counters (the token ones in token mode); others hold None."""

    t: float
    x: dict
    y: tuple
    yhat: tuple
    ytilde: tuple
    arrivals: Optional[dict] = None
    departures: Optional[dict] = None
    token_arrivals: Optional[dict] = None
    replacement_arrivals: Optional[dict] = None
    fresh_arrivals: Optional[dict] = None
    actual_departures: Optional[dict] = None
    expiries: Optional[dict] = None


@dataclass(eq=False)
class RunResult:
    config: SimConfig
    snapshots: list
    summary: dict


def _tree_size(leaves: int) -> int:
    """Smallest power of two holding ``leaves`` leaves."""
    return 1 << max(leaves - 1, 0).bit_length()


def _tree_set(tree: list, p: int, w) -> None:
    """Set the leaf at array position ``p`` to ``w`` and re-add its ancestors.

    ``tree`` is a complete binary sum tree over ``len(tree) // 2`` leaves
    (leaf j at position size + j, node p summing children 2p and 2p+1,
    root at 1).  Every parent is recomputed from its two children rather
    than shifted by a delta, so the tree is a function of its leaves alone:
    float weights never drift, however long the run.
    """
    tree[p] = w
    while p > 1:
        v = tree[p] + tree[p ^ 1]
        p >>= 1
        tree[p] = v


def _tree_find(tree: list, size: int, u: float) -> tuple:
    """Leaf whose slice of the cumulative weights holds ``u``, and the offset
    of ``u`` inside that slice.

    Equals the first leaf j with u < w_0 + ... + w_j, the choice a linear
    scan makes.  A draw at or past the total (rounding) never lands on a
    zero leaf: it falls back to the last leaf with positive weight.
    """
    p = 1
    while p < size:
        p <<= 1
        left = tree[p]
        if u >= left and tree[p + 1] > 0:
            u -= left
            p += 1
    return p - size, u


class Simulation:
    """Stepwise simulation engine; ``run`` drives it with sampling.

    Every possible event owns one leaf of a binary sum tree, in a fixed
    order: first the arrival of each type (weight 0 in closed mode), then
    either one leaf per edge e with weight k_i mu_i X_k (closed and open
    mode), or one leaf per complete server state c with weight R_c Xc[c],
    R_c being the summed rate of the departure and expiry rows of c
    (token mode).  ``_bump`` is the only writer of X and the class totals
    S; counts push their leaves on every change (``_bump``, ``_cc_move``),
    so the total rate is the root and one draw walks down the tree: an
    event costs O(I log n) for I types and n leaves.  Token replacements
    draw the replaced token from one such tree per type, over the complete
    states weighted by their free type-i slots.  Each step
    checks the root against the O(I) formula of ``_analytic_rate``.
    """

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
        E = space.num_edges
        self._ntypes = I
        self._closed = config.mode == "closed"
        self._tokens = config.uses_tokens
        self.X = [0] * n
        # Class totals are kept for the class-level rules, their only reader.
        if config.discipline in _CLASS_DISCIPLINES:
            self.S = [0] * (space.aggregates.num_classes + 1)
            self._class_of = space.aggregates.class_of
        else:
            self.S = None
        self.state = SystemState(
            space=space, alpha=config.alpha, counts=self.X, class_counts=self.S
        )
        self._weights = self.state.weights
        self._stale = self.state.stale
        # Under a closed plain greedy rule a re-placement is a function of X
        # and the departed edge alone.  ``_stay`` holds the departed edges
        # whose re-placement went back to them at the current X.
        self._memo = self._closed and not (
            config.alt_placement is not None or config.discipline in _CLASS_DISCIPLINES)
        self._stay = set()
        self.Y = [0] * I
        self.Yhat = [0] * I
        self.Ytilde = [0] * I
        self.arrivals = [0] * E
        self.departures = [0] * E
        self.tok_arr = [0] * E if self._tokens else None
        self.rep_arr = [0] * E if self._tokens else None
        self.fresh_arr = [0] * E if self._tokens else None
        self.act_dep = [0] * E if self._tokens else None
        self.exp_dep = [0] * E if self._tokens else None
        self.n_events = 0

        mu = self.demand.service
        self._mu = [float(v) for v in mu]
        self._arr_rate = [float(self.demand.arrival[i]) * self.r for i in range(I)]
        self._arr_total = 0.0 if self._closed else sum(self._arr_rate)
        self._bind_placement()

        if self._tokens:
            self._build_complete(config.max_complete_configs)
            leaves = I + len(self.Xc)
        else:
            leaves = I + E
        self._size = size = _tree_size(leaves)
        self._tree = [0.0] * (2 * size)
        self._cc_leaf0 = size + I
        # Edge leaves pushed when X[t] changes: (tree position, k_i mu_i)
        # for every edge into t.  Token mode keeps no edge leaves.
        into = [[] for _ in range(n)]
        if not self._tokens:
            for e in range(E):
                i = space.edge_type[e]
                t = space.edge_target[e]
                into[t].append((size + I + e, float(space.configs[t][i] * mu[i])))
        self._into = [tuple(v) for v in into]
        if not self._closed:
            for i, rate in enumerate(self._arr_rate):
                _tree_set(self._tree, size + i, rate)

        if self._closed:
            for i in range(I):
                count = _round_half_up(float(self.demand.rho[i]) * self.r)
                self._bump(space.unit_index[i], count)
                self.Y[i] = count
                self.Yhat[i] = count
            self._y0 = list(self.Y)
        else:
            self._y0 = [0] * I
        self._x0 = list(self.X)

    def _bind_placement(self):
        """Fix the placement rules once: ``_place(i)`` for arrivals and
        ``_place_anchored(i, departed_edge)`` for re-placements."""
        state = self.state
        rng = self.rng
        d = self.config.discipline
        if d in _CLASS_DISCIPLINES:
            def place(i):
                return place_greedy_ac(state, i, rng)[1]
        else:
            place = partial(place_greedy_i if d == "greedy-i" else place_greedy_d, state)
        alt = self.config.alt_placement

        def anchored(i, departed_edge):
            if alt is None or (alt.mix > 0.0 and rng.random() < alt.mix):
                return place(i)
            return place_alt(state, i, departed_edge, rng, alt.epsilon)
        self._place = place
        self._place_anchored = anchored

    # -- low-level count updates ------------------------------------------

    def _bump(self, t_idx: int, delta: int, push: bool = True):
        """Change X[t_idx] by delta, with the class totals, the staleness of
        the placement weights, the memo of re-placements and (``push``) the
        edge leaves.  The memo is replaced, not cleared: a closed
        re-placement that goes back to its edge restores X and the memo it
        held before."""
        self.X[t_idx] += delta
        if self.S is not None:
            self.S[self._class_of[t_idx]] += delta
        if self._weights:
            self._stale.add(t_idx)
        if self._stay:
            self._stay = set()
        if push:
            self._push(t_idx)

    def _push(self, t_idx: int):
        """Refresh the leaves of the edges into config t_idx."""
        x = self.X[t_idx]
        tree = self._tree
        for p, coef in self._into[t_idx]:
            _tree_set(tree, p, coef * x)

    def _shift(self, e: int, delta: int, push: bool = True):
        """Add (delta 1) or remove (delta -1) one customer on edge e."""
        self._bump(self.space.edge_target[e], delta, push)
        b = self.space.edge_base[e]
        if b >= 0:
            self._bump(b, -delta, push)

    def _build_complete(self, cap: int):
        """Complete server states: (config k, held actual customers h <= k).

        The tables of ``ConfigSpace.server_states`` are shared by every
        engine on the space; ``_cc_*`` name them here.  A server in state c
        leaves at rate ``_cc_rate[c]``: held_i mu_i per type for actual
        departures plus free_i mu0 for token expiries.
        """
        space = self.space
        if space.num_server_states > cap:
            raise ConfigSpaceError(f"token bookkeeping needs more than {cap} server states")
        (self._cc_first, self._cc_stride, self._cc_config, self._cc_held,
         self._cc_free, self._cc_up, self._cc_down) = space.server_states
        S = len(self._cc_config)
        held = np.frombuffer(self._cc_held, dtype=np.intc).reshape(S, -1)
        free = np.frombuffer(self._cc_free, dtype=np.intc).reshape(S, -1)
        mu0 = float(self.config.token_rate)
        # Summed type by type, as a Python sum over held_i mu_i would.
        rate = np.zeros(S)
        for i, m in enumerate(self._mu):
            rate += held[:, i] * m
        rate += free.sum(axis=1) * mu0
        self._cc_rate = array("d", rate.tobytes())
        self._mu0 = mu0
        self.Xc = [0] * S
        # One tree per type over the states, weighted by free_i * Xc[c]:
        # its total is Ytilde[i], and a draw picks a token uniformly.
        self._rep_size = _tree_size(S)
        self._rep_trees = [[0] * (2 * self._rep_size) for _ in range(space.num_types)]

    def _cc_move(self, c_from: int, c_to: int):
        """Move one server between complete states (-1: no server).  The
        configuration counts change only with the configuration: a token
        replacement keeps it."""
        k_from = k_to = -1
        if c_from >= 0:
            k_from = self._cc_config[c_from]
            self._cc_set(c_from, self.Xc[c_from] - 1)
        if c_to >= 0:
            k_to = self._cc_config[c_to]
            self._cc_set(c_to, self.Xc[c_to] + 1)
        if k_from != k_to:
            if k_from >= 0:
                self._bump(k_from, -1, push=False)
            if k_to >= 0:
                self._bump(k_to, 1, push=False)

    def _cc_set(self, c: int, x: int):
        """Set Xc[c] to x and push its event and replacement leaves."""
        self.Xc[c] = x
        _tree_set(self._tree, self._cc_leaf0 + c, self._cc_rate[c] * x)
        p = self._rep_size + c
        j = c * self._ntypes
        for tree in self._rep_trees:
            free = self._cc_free[j]
            if free:
                _tree_set(tree, p, free * x)
            j += 1

    def _put(self, i: int, departed_edge: int = -1, actual: bool = True) -> int:
        """Place one type-i customer, or a token when not ``actual``; a
        re-placement after a departure from ``departed_edge`` uses the
        anchored rule.  Returns the edge taken."""
        space = self.space
        if departed_edge >= 0:
            e2 = self._place_anchored(i, departed_edge)
        else:
            e2 = self._place(i)
        t2 = space.edge_target[e2]
        b2 = space.edge_base[e2]
        if not self._tokens:
            # Closed mode pushes the leaves after the re-placement.
            self._shift(e2, +1, push=not self._closed)
        elif b2 < 0:
            # A new server holding only a token, or only the customer.
            c = self._cc_first[t2]
            self._cc_move(-1, c + self._cc_stride[t2 * self._ntypes + i] if actual else c)
        else:
            # A server in config b2, drawn by its count, takes the customer.
            chosen = _pick(range(self._cc_first[b2], self._cc_first[b2 + 1]), self.Xc,
                           self.rng.random() * self.X[b2])
            nxt = self._cc_up[chosen * self._ntypes + i]
            if actual:
                nxt += self._cc_stride[t2 * self._ntypes + i]
            self._cc_move(chosen, nxt)
        return e2

    def _state_row(self, c: int, u: float) -> tuple:
        """(type, actual, edge, next state) of the event of state c whose
        slice of the rate R_c Xc[c] holds ``u``.

        The rows of c are, per type, an actual departure (held_i mu_i),
        then a token expiry (free_i mu0), each times Xc[c].  A remainder
        past the last row (rounding) takes the last one.  The next state
        is -1 when the server empties.
        """
        I = self._ntypes
        x = self.Xc[c]
        held = self._cc_held
        free = self._cc_free
        mu = self._mu
        acc = 0.0
        j0 = c * I
        for j in range(I):
            h = held[j0 + j]
            if h:
                acc += h * mu[j] * x
                i, actual = j, True
                if u < acc:
                    break
            f = free[j0 + j]
            if f:
                acc += f * self._mu0 * x
                i, actual = j, False
                if u < acc:
                    break
        k_idx = self._cc_config[c]
        if actual:
            # The departure leaves the state that held one customer less.
            c -= self._cc_stride[k_idx * I + i]
        return i, actual, self.space.edge_by_target[i][k_idx], self._cc_down[c * I + i]

    # -- event drawing and application --------------------------------------

    def total_rate(self) -> float:
        return self._tree[1]

    def _analytic_rate(self) -> float:
        if self._tokens:
            return (self._arr_total + sum(map(mul, self._mu, self.Yhat))
                    + self._mu0 * sum(self.Ytilde))
        return self._arr_total + sum(map(mul, self._mu, self.Y))

    def _next_event(self) -> tuple:
        """(time of the next event or inf, total rate); checks the rate."""
        total = self._tree[1]
        ana = self._analytic_rate()
        if not abs(total - ana) <= 1e-9 * (1.0 + ana):
            raise InvariantError(
                f"event-rate bookkeeping drifted: tree {total!r}, counts {ana!r}"
            )
        if total <= 0.0:
            return math.inf, total
        return self.t + self.rng.expovariate(total), total

    def _fire(self, t_next: float, total: float):
        """Advance the clock to t_next and apply one event drawn from total."""
        self.t = t_next
        self._apply(self.rng.random() * total)
        self.n_events += 1
        if self._closed and self.Y != self._y0:
            raise InvariantError("closed population changed")

    def step(self) -> bool:
        """Advance one event; False when no event can occur."""
        t_next, total = self._next_event()
        if total <= 0.0:
            return False
        self._fire(t_next, total)
        return True

    def _apply(self, u: float):
        """Fire the event whose slice of the cumulative rates holds ``u``."""
        leaf, u = _tree_find(self._tree, self._size, u)
        I = self._ntypes
        if leaf < I:
            i = leaf
            if self._tokens and self.Ytilde[i]:
                # Replace a uniformly chosen token of this type.
                c, _ = _tree_find(
                    self._rep_trees[i], self._rep_size, self.rng.random() * self.Ytilde[i]
                )
                k_idx = self._cc_config[c]
                self._cc_move(c, c + self._cc_stride[k_idx * I + i])
                self.rep_arr[self.space.edge_by_target[i][k_idx]] += 1
                self.Ytilde[i] -= 1
            else:
                e2 = self._put(i)
                if self._tokens:
                    self.fresh_arr[e2] += 1
                self.arrivals[e2] += 1
                self.Y[i] += 1
            self.Yhat[i] += 1
            return

        space = self.space
        if self._tokens:
            c = leaf - I
            i, actual, e, nxt = self._state_row(c, u)
            self._cc_move(c, nxt)
            (self.act_dep if actual else self.exp_dep)[e] += 1
        else:
            e = leaf - I
            stay = self._stay
            if e in stay:
                # The last re-placement from e went back to e at this same X.
                self.departures[e] += 1
                self.arrivals[e] += 1
                return
            i = space.edge_type[e]
            actual = True
            self._shift(e, -1, push=not self._closed)
        self.departures[e] += 1
        self.Y[i] -= 1
        if not actual:
            self.Ytilde[i] -= 1
            return
        self.Yhat[i] -= 1
        if not (self._closed or self._tokens):
            return
        # The customer goes back in at once (closed), or leaves a token
        # behind (token mode).
        e2 = self._put(i, departed_edge=e, actual=not self._tokens)
        if self._closed and e2 != e:
            for t in (space.edge_target[e], space.edge_base[e],
                      space.edge_target[e2], space.edge_base[e2]):
                if t >= 0:
                    self._push(t)
        elif self._memo:
            # Most re-placements go back to e: X, every leaf and so every
            # memoised re-placement are as they were before the event.
            stay.add(e)
            self._stay = stay
        self.arrivals[e2] += 1
        self.Y[i] += 1
        if self._tokens:
            self.tok_arr[e2] += 1
            self.Ytilde[i] += 1
        else:
            self.Yhat[i] += 1

    # -- sampling ------------------------------------------------------------

    def snapshot(self, at: float) -> Snapshot:
        if self._conservation_error():
            raise InvariantError(
                "edge counters disagree with the population change "
                "(or token placements with actual departures)"
            )
        X = self.X
        return Snapshot(
            t=at,
            x=dict(zip(compress(count(), X), map(truediv, filter(None, X), repeat(self.r)))),
            y=tuple(self.Y),
            yhat=tuple(self.Yhat),
            ytilde=tuple(self.Ytilde),
        )

    def _copy_counters(self, snap: Snapshot) -> None:
        """Copy the cumulative edge counters onto ``snap``, the final sample."""
        snap.arrivals = _nonzero(self.arrivals)
        snap.departures = _nonzero(self.departures)
        if self._tokens:
            snap.token_arrivals = _nonzero(self.tok_arr)
            snap.replacement_arrivals = _nonzero(self.rep_arr)
            snap.fresh_arrivals = _nonzero(self.fresh_arr)
            snap.actual_departures = _nonzero(self.act_dep)
            snap.expiries = _nonzero(self.exp_dep)

    def _conservation_error(self) -> float:
        """Largest per-type gap between arrivals minus departures and the
        population change; in token mode also between token placements and
        actual departures.  Zero unless the bookkeeping is broken."""
        err = 0.0
        for i, edges in enumerate(self.space.edges_of_type):
            # The edges of a type are one ascending run of indexes.
            span = slice(edges[0], edges[-1] + 1)
            net = sum(self.arrivals[span]) - sum(self.departures[span])
            err = max(err, abs(net - (self.Y[i] - self._y0[i])))
            if self._tokens:
                err = max(err, abs(sum(self.tok_arr[span]) - sum(self.act_dep[span])))
        return err


def _nonzero(values) -> dict:
    """{index: value} of the nonzero entries, in index order."""
    return dict(zip(compress(count(), values), filter(None, values)))


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
        t_next, total = sim._next_event()
        while next_sample <= t_next and next_sample <= horizon:
            snapshots.append(sim.snapshot(next_sample))
            next_sample += interval
            if next_sample > horizon:
                sim._copy_counters(snapshots[-1])
        if t_next >= horizon:
            sim.t = horizon
            break
        sim._fire(t_next, total)

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
        "x_bar": sparse_state(space, xbar),
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
        "conservation_error": sim._conservation_error(),
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


def write_snapshots_csv(space: ConfigSpace, snapshots, path) -> None:
    """Snapshot rows as CSV: time, sparse state as one JSON field, then
    per-type totals (all slots, actual customers, tokens)."""
    import csv
    import json

    I = space.num_types
    keys = [config_key(k) for k in space.configs]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t", "x"]
            + [f"y{i}" for i in range(I)]
            + [f"yhat{i}" for i in range(I)]
            + [f"ytilde{i}" for i in range(I)]
        )
        for s in snapshots:
            xs = {keys[t]: v for t, v in sorted(s.x.items())}
            w.writerow(
                [s.t, json.dumps(xs, sort_keys=True)]
                + list(s.y)
                + list(s.yhat)
                + list(s.ytilde)
            )


def derive_seed(base_seed: int, *indices: int) -> int:
    """Deterministic child seed from a base seed and integer indices."""
    ss = np.random.SeedSequence(entropy=[int(base_seed) & ((1 << 64) - 1)] +
                                [int(v) for v in indices])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
