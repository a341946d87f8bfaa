"""Server configuration spaces for systems with packing constraints.

A configuration is a vector of customer counts, one entry per customer
type, describing what a single server currently holds.  A configuration
space is a finite, coordinate-monotone family of such vectors: removing
one customer from a valid configuration leaves a valid configuration.
Spaces are either enumerated from a vector-packing resource profile or
supplied explicitly and validated.

Conventions used throughout the package:

* the zero configuration is never stored; index ``-1`` stands for it in
  edge tables,
* nonzero configurations are sorted lexicographically and addressed by
  their position in ``ConfigSpace.configs``,
* an "edge" is a pair (configuration, type) with at least one customer
  of that type present; placements and departures move a server along
  an edge,
* when a resource profile is available, configurations with identical
  resource usage are grouped into aggregate classes.  Usage is compared
  per resource as a share of capacity rounded to 12 decimals, so float
  sums that differ by rounding share a class.  Class id 0 is the zero
  class; nonzero classes are numbered by lexicographic order of those
  shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

Configuration = tuple[int, ...]

# Relative slack for capacity comparisons so float profiles behave.
_FEAS_RTOL = 1e-12


class ConfigSpaceError(ValueError):
    """Raised for invalid profiles, config sets, or oversized spaces."""


class InvariantError(RuntimeError):
    """Raised when internal bookkeeping breaks an invariant (rates, counts,
    conservation).  Unlike ``assert``, it stays on under ``python -O``."""


@dataclass(frozen=True)
class ResourceProfile:
    """Vector-packing description: capacities and per-type requirements.

    ``capacity[n]`` is the amount of resource n one server offers and
    ``requirement[i][n]`` the amount one type-i customer occupies.
    """

    capacity: tuple[float, ...]
    requirement: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        cap = tuple(float(v) for v in self.capacity)
        req = tuple(tuple(float(v) for v in row) for row in self.requirement)
        object.__setattr__(self, "capacity", cap)
        object.__setattr__(self, "requirement", req)
        if not cap:
            raise ConfigSpaceError("profile needs at least one resource")
        if not req:
            raise ConfigSpaceError("profile needs at least one customer type")
        for n, v in enumerate(cap):
            if not v > 0:
                raise ConfigSpaceError(f"capacity of resource {n} must be positive, got {v}")
        for i, row in enumerate(req):
            if len(row) != len(cap):
                raise ConfigSpaceError(
                    f"requirement row {i} has {len(row)} entries, expected {len(cap)}"
                )
            if any(v < 0 for v in row):
                raise ConfigSpaceError(f"requirement row {i} has a negative entry")
            if all(v == 0 for v in row):
                raise ConfigSpaceError(f"type {i} uses no resource at all")

    @property
    def num_types(self) -> int:
        return len(self.requirement)

    @property
    def num_resources(self) -> int:
        return len(self.capacity)

    def usage(self, config: Sequence[int]) -> tuple[float, ...]:
        """Total resource usage of one server in the given configuration."""
        return tuple(
            sum(k * self.requirement[i][n] for i, k in enumerate(config))
            for n in range(self.num_resources)
        )

    def fits(self, config: Sequence[int]) -> bool:
        used = self.usage(config)
        return all(u <= c * (1.0 + _FEAS_RTOL) for u, c in zip(used, self.capacity))

    @classmethod
    def from_dict(cls, d: dict) -> "ResourceProfile":
        try:
            cap = tuple(d["B"])
            req = tuple(tuple(row) for row in d["b"])
            return cls(cap, req)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigSpaceError(f"profile dict needs 'B' and 'b' arrays: {exc}") from exc

    def to_dict(self) -> dict:
        return {"B": list(self.capacity), "b": [list(r) for r in self.requirement]}


@dataclass(frozen=True)
class AggregateInfo:
    """Partition of a configuration space by resource usage.

    ``class_of[t]`` is the class id of configuration index t (always >= 1;
    id 0 is reserved for the zero configuration).  ``members[q]`` lists the
    configuration indexes of class q, ``usage[q]`` the usage vector of its
    first member (all members agree up to rounding).
    ``plus_type[q][i]`` is the class reached by adding one type-i customer
    (None when that does not fit), ``minus_type[q][i]`` the class reached by
    removing one (None when no member holds type i; 0 means the zero class).
    ``admit_bases[q][i]`` lists members of q that can accept one type-i
    customer within the space.  ``member_table`` repeats ``members[1:]`` as
    one index array, row q-1 for class q, padded to the largest class with
    the configuration count n: indexing a length-(n+1) vector whose last
    entry is neutral (0 for sums, -inf for maxima) gives every class its
    row, so per-class reductions run as one array reduction.
    """

    class_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    usage: tuple[tuple[float, ...], ...]
    plus_type: tuple[tuple[Optional[int], ...], ...]
    minus_type: tuple[tuple[Optional[int], ...], ...]
    admit_bases: tuple[tuple[tuple[int, ...], ...], ...]
    member_table: np.ndarray = field(compare=False, repr=False)

    @property
    def num_classes(self) -> int:
        """Number of nonzero classes."""
        return len(self.members) - 1


@dataclass(frozen=True)
class ConfigSpace:
    """A finite monotone family of server configurations plus lookup tables."""

    num_types: int
    configs: tuple[Configuration, ...]
    profile: Optional[ResourceProfile] = None
    aggregates: Optional[AggregateInfo] = field(default=None, repr=False)
    # Edge e moves a server between edge_base[e] (-1 for empty) and
    # edge_target[e] by one customer of type edge_type[e].  Edges are
    # ordered by (type, target index); per-type slices in edges_of_type.
    index: dict = field(default=None, repr=False, compare=False)
    edge_type: tuple[int, ...] = field(default=(), repr=False)
    edge_target: tuple[int, ...] = field(default=(), repr=False)
    edge_base: tuple[int, ...] = field(default=(), repr=False)
    edges_of_type: tuple[tuple[int, ...], ...] = field(default=(), repr=False)
    up_index: tuple[tuple[Optional[int], ...], ...] = field(default=(), repr=False)
    down_index: tuple[tuple[Optional[int], ...], ...] = field(default=(), repr=False)
    unit_index: tuple[int, ...] = field(default=(), repr=False)
    edge_by_target: tuple[dict, ...] = field(default=(), repr=False, compare=False)

    @property
    def num_configs(self) -> int:
        return len(self.configs)

    @property
    def num_edges(self) -> int:
        return len(self.edge_type)

    def config_index(self, config: Sequence[int]) -> int:
        """Index of a nonzero configuration; -1 for the zero configuration."""
        key = tuple(int(v) for v in config)
        if all(v == 0 for v in key):
            return -1
        try:
            return self.index[key]
        except KeyError:
            raise ConfigSpaceError(f"configuration {key} not in space") from None

    def edge_index(self, config: Sequence[int], i: int) -> int:
        """Edge index for (configuration, type)."""
        t = self.config_index(config)
        if t < 0:
            raise ConfigSpaceError("the zero configuration has no edges")
        try:
            return self.edge_by_target[i][t]
        except KeyError:
            raise ConfigSpaceError(f"({tuple(config)}, {i}) is not an edge") from None

    @property
    def has_aggregates(self) -> bool:
        return self.aggregates is not None

    @cached_property
    def constraint_matrix(self) -> np.ndarray:
        """Read-only per-type conservation matrix A, A[i, t] = (config t)_i."""
        A = np.ascontiguousarray(np.asarray(self.configs, dtype=float).T)
        A.flags.writeable = False
        return A

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only intp arrays of ``edge_type``, ``edge_target`` and
        ``edge_base``.  Base -1 (an empty server) indexes the last entry of
        a vector of length n + 1."""
        arrays = tuple(np.asarray(e, dtype=np.intp)
                       for e in (self.edge_type, self.edge_target, self.edge_base))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def type_edges(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """Per type i: (first edge, targets, bases) of its edges, slices of
        ``edge_arrays``."""
        _, target, base = self.edge_arrays
        return tuple((e[0], target[e[0]:e[-1] + 1], base[e[0]:e[-1] + 1])
                     for e in self.edges_of_type)

    @cached_property
    def config_keys(self) -> tuple[str, ...]:
        """``config_key`` of every configuration, built once per space."""
        return tuple(map(config_key, self.configs))

    @cached_property
    def state_places(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(first, stride) of the token engine's server states (k, h):
        configuration k holding h <= k actual customers, the other k - h
        slots being tokens.

        The states of k are consecutive from ``first[k]``, in lexicographic
        order of h, numbered by the mixed radix k_i + 1: state
        ``first[k] + sum_i h_i stride[k * I + i]``.  ``first`` ends with
        the number of states, so it can be checked against a cap before
        anything of that size is allocated.
        """
        first, stride = [0], []
        for k in self.configs:
            places = []
            size = 1
            for v in reversed(k):
                places.append(size)
                size *= v + 1
            stride += reversed(places)
            first.append(first[-1] + size)
        return tuple(first), tuple(stride)


def _check_vector(config: Sequence[int], num_types: int) -> Configuration:
    vec = tuple(config)
    if len(vec) != num_types:
        raise ConfigSpaceError(
            f"configuration {vec} has {len(vec)} entries, expected {num_types}"
        )
    out = []
    for v in vec:
        iv = int(v) if isinstance(v, (int, float, np.integer)) else -1
        if iv != v or iv < 0:
            raise ConfigSpaceError(f"configuration {vec} must have nonnegative integer entries")
        out.append(iv)
    return tuple(out)


def _runs(values: np.ndarray, ends: list) -> list:
    """``values`` cut into consecutive tuples ending at the positions ``ends``."""
    values = values.tolist()
    return list(map(tuple, map(values.__getitem__, map(slice, [0] + ends[:-1], ends))))


def _build_aggregates(U: np.ndarray, capacity: tuple[float, ...], near: np.ndarray,
                      valid: np.ndarray, unit_index: np.ndarray) -> AggregateInfo:
    """Classes of the usage rows U; ``near`` and ``valid`` as in ``_assemble``."""
    n, num_types = U.shape[0], near.shape[2]
    # Group configuration indexes by usage over capacity, rounded at the
    # feasibility slack so that 0.15 + 0.05 and 0.1 + 0.1 share a class.
    # Python's round, once per distinct share (np.round rounds differently).
    shares = (U / capacity).ravel().tolist()
    rounded = {v: round(v, 12) for v in set(shares)}
    key = np.array(list(map(rounded.__getitem__, shares))).reshape(U.shape)
    # Class ids follow the lexicographic order of the keys, with 0 kept for
    # the zero class; the sort is stable, so members ascend by index.
    order = np.lexsort(key.T[::-1])
    key = key[order]
    new = np.ones(n, dtype=bool)
    new[1:] = np.logical_or.reduce(key[1:] != key[:-1], 1)
    starts = new.nonzero()[0]
    ends = np.concatenate((starts[1:], [n]))
    Q, sizes = len(starts), ends - starts
    # One trailing 0 so that the zero configuration (-1) maps to class 0.
    class_of = np.zeros(n + 1, dtype=int)
    class_of[order] = new.cumsum()
    table = np.full((Q, np.maximum.reduce(sizes)), n)
    table[np.arange(table.shape[1]) < sizes[:, None]] = order
    table.flags.writeable = False

    # All members of a class step along +-e_i into one class; take the
    # class reached from the first member with that neighbour (k + e_i for
    # plus_type, k - e_i for minus_type): the least member * (Q + 1) + class.
    reached = np.arange(n)[:, None] * (Q + 1) + class_of[near]
    first = np.minimum.reduceat(
        np.where(valid, reached, n * (Q + 1))[:, order], starts, axis=1)
    plus, minus = np.where(first < n * (Q + 1), first % (Q + 1), None).tolist()
    # Members of q that admit type i, by type, then class.
    admits = valid[0, order]
    counts = np.add.reduceat(admits, starts, axis=0, dtype=int)
    admit = _runs(order[admits.T.nonzero()[1]], counts.T.cumsum().tolist())
    return AggregateInfo(
        class_of=tuple(class_of[:-1].tolist()),
        members=((),) + tuple(_runs(order, ends.tolist())),
        usage=((0.0,) * len(capacity),) + tuple(map(tuple, U[order[starts]].tolist())),
        plus_type=(tuple(class_of[unit_index].tolist()),) + tuple(map(tuple, plus)),
        minus_type=((None,) * num_types,) + tuple(map(tuple, minus)),
        admit_bases=(((),) * num_types,)
        + tuple(zip(*(admit[i * Q:(i + 1) * Q] for i in range(num_types)))),
        member_table=table,
    )


def _assemble(K: np.ndarray, profile: Optional[ResourceProfile],
              check_fit: bool = False) -> ConfigSpace:
    """The space whose configurations are the distinct rows of K, one of
    which is the zero configuration; rows may come in any order."""
    # Mixed-radix codes order like the rows, and leave room for one more
    # count in every column, so k +- e_i has code code(k) +- place[i].
    # Python ints where int64 could overflow.
    place = [1]
    for r in reversed((np.maximum.reduce(K) + 2).tolist()):
        place.insert(0, place[0] * r)
    place = np.array(place[1:], dtype=np.int64 if place[0] < 2**63 else object)
    codes = K @ place
    order = codes.argsort()
    # Sorted, the zero configuration comes first, so a position minus one
    # is a configuration index, and -1 the zero configuration.
    codes, K = codes[order], K[order[1:]]
    n, num_types = K.shape
    configs = tuple(map(tuple, K.tolist()))
    if profile is not None:
        # Summed type by type as in ResourceProfile.usage, so the floats agree.
        U = np.zeros((n, profile.num_resources))
        for i, row in enumerate(np.array(profile.requirement)):
            U = U + K[:, i, None] * row
        if check_fit:
            fit = np.logical_and.reduce(U <= np.array(profile.capacity) * (1.0 + _FEAS_RTOL), 1)
            if not fit.all():
                raise ConfigSpaceError(f"configuration {configs[fit.argmin()]} does not fit"
                                       " the profile")

    # e_i, then k + e_i and k - e_i for every (configuration, type).
    code = codes[1:, None]
    near = np.concatenate((place[None], code + place, code - place))
    pos = codes.searchsorted(near)
    found = codes.take(pos, mode="clip") == near
    pos -= 1
    if not found[0].all():
        raise ConfigSpaceError(f"unit configuration for type {found[0].argmin()} is missing")
    unit_index, near, has_up = pos[0], pos[1:].reshape(2, n, num_types), found[1:n + 1]
    # A missing k - e_i breaks monotonicity.
    held = K > 0
    missing = held > found[n + 1:]
    if missing.any():
        t, i = divmod(int(missing.argmax()), num_types)
        k = configs[t]
        raise ConfigSpaceError(f"set is not monotone: {k} present but "
                               f"{k[:i] + (k[i] - 1,) + k[i + 1:]} missing")

    # Edge (i, t) exists where t holds type i; edges are ordered by
    # (type, target index).
    edge_type, edge_target = held.T.nonzero()
    ends = edge_type.searchsorted(range(num_types), "right").tolist()
    spans = list(zip([0] + ends[:-1], ends))
    targets = edge_target.tolist()
    # None where k + e_i is outside the space or k holds no type i.
    valid = np.array((has_up, held))
    up_index, down_index = np.where(valid, near, None).tolist()
    return ConfigSpace(
        num_types=num_types,
        configs=configs,
        profile=profile,
        aggregates=None if profile is None else _build_aggregates(
            U, profile.capacity, near, valid, unit_index),
        index=dict(zip(configs, range(n))),
        edge_type=tuple(edge_type.tolist()),
        edge_target=tuple(targets),
        edge_base=tuple(near[1].T[held.T].tolist()),
        edges_of_type=tuple(tuple(range(a, b)) for a, b in spans),
        up_index=tuple(map(tuple, up_index)),
        down_index=tuple(map(tuple, down_index)),
        unit_index=tuple(unit_index.tolist()),
        edge_by_target=tuple(dict(zip(targets[a:b], range(a, b))) for a, b in spans),
    )


def enumerate_configs(profile: ResourceProfile, max_configs: int = 1_000_000) -> ConfigSpace:
    """Enumerate every nonzero configuration that fits the profile.

    Type by type over arrays of prefixes with running capacity; raises if
    a unit configuration does not fit (``ResourceProfile.fits``) or the
    space would exceed ``max_configs``.
    """
    for i in range(profile.num_types):
        if not profile.fits([int(j == i) for j in range(profile.num_types)]):
            raise ConfigSpaceError(
                f"no nonzero feasible configurations for type {i}: one customer does not fit"
            )
    cap = np.array(profile.capacity)
    floor = -cap * _FEAS_RTOL
    K = np.zeros((1, profile.num_types), dtype=np.int64)
    rem = cap[None]
    for i, r in enumerate(np.array(profile.requirement)):
        # Count c extends the prefixes whose capacity survives c subtractions
        # of r, one per count as a depth-first search makes them, so
        # boundary configurations are decided by the same floats.
        alive = np.arange(len(K))
        parents, rems, size = [alive], [rem], len(K)
        while len(alive):
            rem = rem - r
            ok = np.logical_and.reduce(rem >= floor, 1)
            alive, rem = alive[ok], rem.compress(ok, axis=0)
            parents.append(alive)
            rems.append(rem)
            # Each prefix ends at least one configuration (the zero prefix
            # only the zero configuration), so the cap applies already.
            size += len(alive)
            if size - 1 > max_configs:
                raise ConfigSpaceError(f"configuration space exceeds cap of {max_configs}")
        K = K[np.concatenate(parents)]
        K[:, i] = np.arange(len(parents)).repeat(list(map(len, parents)))
        rem = np.concatenate(rems)
    return _assemble(K, profile)


def validate_explicit_configs(
    configs: Iterable[Sequence[int]],
    profile: Optional[ResourceProfile] = None,
    max_configs: int = 1_000_000,
) -> ConfigSpace:
    """Build a space from an explicit configuration set.

    The number of types is the length of the first configuration, and
    every other one must have that length.  The set must be
    coordinate-monotone and contain every unit vector; the zero
    configuration may be listed but is never stored.  When a profile is
    supplied, it must have that many types, every configuration must fit
    it, and aggregate classes are derived from resource usage.
    """
    raw = [tuple(c) for c in configs]
    if not raw:
        raise ConfigSpaceError("empty configuration set")
    num_types = len(raw[0])
    if profile is not None and profile.num_types != num_types:
        raise ConfigSpaceError(
            f"profile has {profile.num_types} types, configurations have {num_types}"
        )
    rows = {(0,) * num_types}
    rows.update(_check_vector(c, num_types) for c in raw)
    if len(rows) - 1 > max_configs:
        raise ConfigSpaceError(f"configuration space exceeds cap of {max_configs}")
    # Counts near the int64 limit belong to sets that cannot be monotone; an
    # object array still names the first missing configuration.
    big = max(chain.from_iterable(rows), default=0) >= 2**62
    K = np.array(list(rows), dtype=object if big else np.int64)
    return _assemble(K, profile, check_fit=True)


def config_key(config: Sequence[int]) -> str:
    """Comma-joined counts: the key of a configuration in sparse state maps."""
    return ",".join(map(str, config))


def sparse_state(space: ConfigSpace, x) -> dict:
    """The nonzero coordinates of a state vector, keyed by ``config_key``."""
    keys = space.config_keys
    return {keys[t]: float(v) for t, v in enumerate(x) if v}


def _require_aggregates(space: ConfigSpace) -> AggregateInfo:
    if space.aggregates is None:
        raise ConfigSpaceError("space has no aggregate classes (no resource profile)")
    return space.aggregates


def space_from_dict(d: dict) -> ConfigSpace:
    """Build a space from a config dict with 'profile' and/or 'configs' keys.

    Accepts either the nested form {"profile": {"B":..,"b":..}} or a flat
    {"B":..,"b":..}; explicit sets use {"configs": [[..],..]}.  The
    builders' default cap of 1,000,000 configurations applies.
    """
    if not isinstance(d, dict):
        raise ConfigSpaceError(f"space must be an object, got {d!r}")
    profile = None
    if "profile" in d:
        profile = ResourceProfile.from_dict(d["profile"])
    elif "B" in d and "b" in d:
        profile = ResourceProfile.from_dict(d)
    if "configs" in d:
        configs = d["configs"]
        if not isinstance(configs, list) or not all(isinstance(c, list) for c in configs):
            raise ConfigSpaceError(f"'configs' must be a list of integer lists, got {configs!r}")
        return validate_explicit_configs(configs, profile=profile)
    if profile is None:
        raise ConfigSpaceError("config dict needs a 'profile' or a 'configs' entry")
    return enumerate_configs(profile)


def space_summary(space: ConfigSpace) -> dict:
    """The profile (when there is one) and the configurations, from which
    ``space_from_dict`` rebuilds the space, plus the sizes of its tables."""
    out = {} if space.profile is None else {"profile": space.profile.to_dict()}
    out["configs"] = [list(k) for k in space.configs]
    out["num_configs"] = space.num_configs
    out["num_edges"] = space.num_edges
    if space.aggregates is not None:
        out["num_classes"] = space.aggregates.num_classes
    return out


def space_to_dict(space: ConfigSpace) -> dict:
    """JSON-ready dump: the summary plus the edges and aggregate classes."""
    out = space_summary(space)
    out["num_types"] = space.num_types
    out["edges"] = [
        {"config": list(space.configs[t]), "type": i}
        for i, t in zip(space.edge_type, space.edge_target)
    ]
    if space.aggregates is not None:
        agg = space.aggregates
        out["classes"] = [
            {
                "id": q,
                "usage": list(agg.usage[q]),
                "configs": [list(space.configs[t]) for t in agg.members[q]],
            }
            for q in range(1, agg.num_classes + 1)
        ]
    return out
