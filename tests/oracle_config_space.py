"""Frozen copy of the configuration-space builder before the array passes.

A differential oracle for ``packing_sim.config_space``: the functions
below build a space as it was built when enumeration was a recursive
depth-first search, and every neighbour, edge and aggregate table was
filled by per-configuration Python loops.  The current builder must give
an equal space, field for field, and the same exception with the same
message on every invalid input (see ``test_config_space_oracle``).  Do
not edit this file to follow changes of the builder; it is the
reference.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from packing_sim.config_space import (
    AggregateInfo,
    ConfigSpace,
    ConfigSpaceError,
    Configuration,
    ResourceProfile,
)

# Relative slack for capacity comparisons so float profiles behave.
_FEAS_RTOL = 1e-12


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
