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

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

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
    def num_server_states(self) -> int:
        """Number of pairs (configuration k, held counts h <= k)."""
        return sum(math.prod(v + 1 for v in k) for k in self.configs)

    @cached_property
    def server_states(self) -> "ServerStates":
        """The token engine's table of server states, built once per space.

        Check ``num_server_states`` against a cap before the first access:
        the table holds that many rows.
        """
        return _server_states(self)


class ServerStates(NamedTuple):
    """Flat int32 tables over the server states (k, h): configuration k
    holding h <= k actual customers, the other k - h slots being tokens.

    The states of k are consecutive from ``first[k]``, in lexicographic
    order of h: state ``first[k] + sum_i h_i stride[k * I + i]``, so one
    more type-i customer is the index plus ``stride[k * I + i]``.
    Indexed state times I plus type, ``held`` holds h_i, ``free`` the
    k_i - h_i tokens, and ``up``/``down`` the state with the same h in
    configuration k + e_i or k - e_i (-1 when that configuration is
    empty, absent or cannot hold h).  ``config_of[c]`` is k.
    """

    first: array
    stride: array
    config_of: array
    held: array
    free: array
    up: array
    down: array


def _server_states(space: ConfigSpace) -> ServerStates:
    K = np.array(space.configs, dtype=np.intc)
    radix = K + 1
    sizes = radix.prod(axis=1, dtype=np.intc)
    first = np.append(0, sizes).cumsum(dtype=np.intc)
    S = int(first[-1])
    stride = sizes[:, None] // radix.cumprod(axis=1, dtype=np.intc)
    config_of = np.repeat(np.arange(len(K), dtype=np.intc), sizes)
    local = (np.arange(S, dtype=np.intc) - first[config_of])[:, None]
    place = stride[config_of]
    held = local // place % radix[config_of]
    free = K[config_of] - held
    # In k +- e_i digit i counts one value more or less, so every higher
    # digit's place value moves by its count times stride_i.
    shift = local // (place * radix[config_of]) * place

    def same_held(near, offset):
        # None (no such config) reads as nan, which fmax turns into -1.
        near = np.fmax(np.array(near, dtype=float), -1).astype(np.intc)[config_of]
        return np.where(near >= 0, first[near] + offset, -1)

    up = same_held(space.up_index, local + shift)
    down = same_held(space.down_index, local - shift)
    down[free == 0] = -1

    def ints(a):
        return array("i", a.astype(np.intc).tobytes())

    return ServerStates(ints(first), ints(stride), ints(config_of), ints(held),
                        ints(free), ints(up), ints(down))


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


def _unit(num_types: int, i: int) -> Configuration:
    return tuple(1 if j == i else 0 for j in range(num_types))


def _build_aggregates(
    configs: tuple[Configuration, ...],
    up_index: tuple[tuple[Optional[int], ...], ...],
    down_index: tuple[tuple[Optional[int], ...], ...],
    unit_index: tuple[int, ...],
    profile: ResourceProfile,
) -> AggregateInfo:
    usages = [profile.usage(k) for k in configs]
    # Group configuration indexes by usage over capacity, rounded at the
    # feasibility slack so that 0.15 + 0.05 and 0.1 + 0.1 share a class.
    # Class ids follow the order of these keys, with 0 kept for the zero
    # class; members ascend by index, hence by lexicographic order.
    groups: dict[tuple[float, ...], list[int]] = {}
    for t, u in enumerate(usages):
        key = tuple(round(v / c, 12) for v, c in zip(u, profile.capacity))
        groups.setdefault(key, []).append(t)
    ordered = [tuple(groups[key]) for key in sorted(groups)]
    # One trailing 0 so that the zero configuration (-1) maps to class 0.
    class_of = [0] * (len(configs) + 1)
    for q, ts in enumerate(ordered, start=1):
        for t in ts:
            class_of[t] = q
    width = max(map(len, ordered))
    table = np.array([ts + (len(configs),) * (width - len(ts)) for ts in ordered])
    table.flags.writeable = False

    # All members of a class step along +-e_i into one class, so any
    # admitting (holding) member gives the class reached.
    num_types = len(unit_index)
    plus_type = [tuple(class_of[u] for u in unit_index)]
    minus_type = [(None,) * num_types]
    admit_bases = [((),) * num_types]
    for ts in ordered:
        prow, mrow, arow = [], [], []
        for i in range(num_types):
            bases = tuple(t for t in ts if up_index[t][i] is not None)
            prow.append(class_of[up_index[bases[0]][i]] if bases else None)
            arow.append(bases)
            down = next((down_index[t][i] for t in ts if down_index[t][i] is not None), None)
            mrow.append(None if down is None else class_of[down])
        plus_type.append(tuple(prow))
        minus_type.append(tuple(mrow))
        admit_bases.append(tuple(arow))

    return AggregateInfo(
        class_of=tuple(class_of[:-1]),
        members=((),) + tuple(ordered),
        usage=((0.0,) * profile.num_resources,) + tuple(usages[ts[0]] for ts in ordered),
        plus_type=tuple(plus_type),
        minus_type=tuple(minus_type),
        admit_bases=tuple(admit_bases),
        member_table=table,
    )


def _assemble(
    num_types: int,
    config_set: set[Configuration],
    profile: Optional[ResourceProfile],
) -> ConfigSpace:
    configs = tuple(sorted(config_set))
    index = {k: t for t, k in enumerate(configs)}
    units = {k.index(1): t for t, k in enumerate(configs) if sum(k) == 1}
    for i in range(num_types):
        if i not in units:
            raise ConfigSpaceError(f"unit configuration for type {i} is missing")
    unit_index = tuple(units[i] for i in range(num_types))

    # The one neighbour pass: k + e_i and k - e_i for every (configuration,
    # type).  None marks a neighbour outside the space, -1 the zero
    # configuration; a missing k - e_i breaks monotonicity.
    up_index: list = []
    down_index: list = []
    for t, k in enumerate(configs):
        up_row: list[Optional[int]] = []
        down_row: list[Optional[int]] = []
        for i, ki in enumerate(k):
            head, tail = k[:i], k[i + 1:]
            up_row.append(index.get(head + (ki + 1,) + tail))
            if ki == 0:
                down_row.append(None)
            elif t == unit_index[i]:
                down_row.append(-1)
            else:
                down = head + (ki - 1,) + tail
                base = index.get(down)
                if base is None:
                    raise ConfigSpaceError(
                        f"set is not monotone: {k} present but {down} missing"
                    )
                down_row.append(base)
        up_index.append(tuple(up_row))
        down_index.append(tuple(down_row))
    up_index, down_index = tuple(up_index), tuple(down_index)

    # Edge (i, t) exists where t holds type i; edges are ordered by
    # (type, target index).
    edge_type: list[int] = []
    edge_target: list[int] = []
    edge_base: list[int] = []
    edges_of_type: list[tuple[int, ...]] = []
    for i in range(num_types):
        start = len(edge_type)
        for t, row in enumerate(down_index):
            if row[i] is not None:
                edge_type.append(i)
                edge_target.append(t)
                edge_base.append(row[i])
        edges_of_type.append(tuple(range(start, len(edge_type))))

    aggregates = None
    if profile is not None:
        aggregates = _build_aggregates(configs, up_index, down_index, unit_index, profile)

    return ConfigSpace(
        num_types=num_types,
        configs=configs,
        profile=profile,
        aggregates=aggregates,
        index=index,
        edge_type=tuple(edge_type),
        edge_target=tuple(edge_target),
        edge_base=tuple(edge_base),
        edges_of_type=tuple(edges_of_type),
        up_index=up_index,
        down_index=down_index,
        unit_index=unit_index,
        edge_by_target=tuple(
            {edge_target[e]: e for e in edges_of_type[i]} for i in range(num_types)
        ),
    )


def enumerate_configs(profile: ResourceProfile, max_configs: int = 1_000_000) -> ConfigSpace:
    """Enumerate every nonzero configuration that fits the profile.

    Depth-first over types with running capacity; raises if a unit
    configuration does not fit or the space would exceed ``max_configs``.
    """
    num_types = profile.num_types
    for i in range(num_types):
        if not profile.fits(_unit(num_types, i)):
            raise ConfigSpaceError(
                f"no nonzero feasible configurations for type {i}: one customer does not fit"
            )

    cap = profile.capacity
    found: set[Configuration] = set()

    def extend(prefix: list[int], remaining: tuple[float, ...], i: int):
        if i == num_types:
            key = tuple(prefix)
            if any(key):
                found.add(key)
                if len(found) > max_configs:
                    raise ConfigSpaceError(
                        f"configuration space exceeds cap of {max_configs}"
                    )
            return
        req = profile.requirement[i]
        count = 0
        rem = remaining
        while True:
            extend(prefix + [count], rem, i + 1)
            nxt = tuple(r - v for r, v in zip(rem, req))
            if any(n < -c * _FEAS_RTOL for n, c in zip(nxt, cap)):
                break
            count += 1
            rem = nxt

    extend([], cap, 0)
    return _assemble(num_types, found, profile)


def validate_explicit_configs(
    configs: Iterable[Sequence[int]],
    num_types: Optional[int] = None,
    profile: Optional[ResourceProfile] = None,
    max_configs: int = 1_000_000,
) -> ConfigSpace:
    """Build a space from an explicit configuration set.

    The set must be coordinate-monotone and contain every unit vector;
    the zero configuration may be listed but is never stored.  When a
    profile is supplied, every configuration must fit it and aggregate
    classes are derived from resource usage.
    """
    raw = [tuple(c) for c in configs]
    if not raw:
        raise ConfigSpaceError("empty configuration set")
    if num_types is None:
        num_types = len(raw[0])
    if profile is not None and profile.num_types != num_types:
        raise ConfigSpaceError(
            f"profile has {profile.num_types} types, configurations have {num_types}"
        )
    checked: set[Configuration] = set()
    for c in raw:
        vec = _check_vector(c, num_types)
        if any(vec):
            checked.add(vec)
    if len(checked) > max_configs:
        raise ConfigSpaceError(f"configuration space exceeds cap of {max_configs}")
    if profile is not None:
        for vec in sorted(checked):
            if not profile.fits(vec):
                raise ConfigSpaceError(f"configuration {vec} does not fit the profile")
    return _assemble(num_types, checked, profile)


def config_key(config: Sequence[int]) -> str:
    """Comma-joined counts: the key of a configuration in sparse state maps."""
    return ",".join(map(str, config))


def sparse_state(space: ConfigSpace, x) -> dict:
    """The nonzero coordinates of a state vector, keyed by ``config_key``."""
    return {config_key(space.configs[t]): float(v) for t, v in enumerate(x) if v}


def _require_aggregates(space: ConfigSpace) -> AggregateInfo:
    if space.aggregates is None:
        raise ConfigSpaceError("space has no aggregate classes (no resource profile)")
    return space.aggregates


def space_from_dict(d: dict, max_configs: int = 1_000_000) -> ConfigSpace:
    """Build a space from a config dict with 'profile' and/or 'configs' keys.

    Accepts either the nested form {"profile": {"B":..,"b":..}} or a flat
    {"B":..,"b":..}; explicit sets use {"configs": [[..],..]}.
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
        return validate_explicit_configs(configs, profile=profile, max_configs=max_configs)
    if profile is None:
        raise ConfigSpaceError("config dict needs a 'profile' or a 'configs' entry")
    return enumerate_configs(profile, max_configs=max_configs)


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
