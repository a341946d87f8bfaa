import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import scalar_space
from packing_sim.config_space import (
    ConfigSpaceError,
    ResourceProfile,
    enumerate_configs,
    space_from_dict,
    space_to_dict,
    validate_explicit_configs,
)


def b3_space():
    # single resource of size 3, type sizes 1 and 2
    return enumerate_configs(ResourceProfile((3.0,), ((1.0,), (2.0,))))


ALL_SPACES = pytest.mark.parametrize("make", [
    lambda: scalar_space(2),
    b3_space,
    lambda: enumerate_configs(ResourceProfile(
        (1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05)))),
    lambda: enumerate_configs(ResourceProfile(
        (1.0, 1.0), ((0.15, 0.05), (0.05, 0.15), (0.1, 0.1), (0.2, 0.03)))),
    lambda: validate_explicit_configs([
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1),
        (1, 0, 1), (0, 0, 2), (1, 1, 1), (0, 1, 2)]),
], ids=["k12", "b3", "48", "428", "explicit-3-types"])


class TestProfile:
    def test_usage_and_fits(self):
        prof = ResourceProfile((3.0,), ((1.0,), (2.0,)))
        assert prof.usage((1, 1)) == (3.0,)
        assert prof.fits((1, 1))
        assert not prof.fits((2, 1))
        assert not prof.fits((4, 0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigSpaceError):
            ResourceProfile((), ((1.0,),))
        with pytest.raises(ConfigSpaceError):
            ResourceProfile((1.0,), ())
        with pytest.raises(ConfigSpaceError, match="positive"):
            ResourceProfile((0.0,), ((1.0,),))
        with pytest.raises(ConfigSpaceError, match="expected"):
            ResourceProfile((1.0, 1.0), ((1.0,),))
        with pytest.raises(ConfigSpaceError, match="negative"):
            ResourceProfile((1.0,), ((-1.0,),))
        with pytest.raises(ConfigSpaceError, match="no resource"):
            ResourceProfile((1.0,), ((0.0,),))

    def test_dict_round_trip(self):
        prof = ResourceProfile((3.0, 2.0), ((1.0, 0.0), (2.0, 1.0)))
        again = ResourceProfile.from_dict(prof.to_dict())
        assert again.capacity == prof.capacity
        assert again.requirement == prof.requirement


class TestEnumerate:
    def test_scalar_capacity_two(self):
        space = enumerate_configs(ResourceProfile((2.0,), ((1.0,),)))
        assert space.configs == ((1,), (2,))

    def test_b3_contents(self):
        space = b3_space()
        assert space.configs == ((0, 1), (1, 0), (1, 1), (2, 0), (3, 0))
        assert space.num_edges == 6

    def test_exceeds_cap(self):
        with pytest.raises(ConfigSpaceError, match="cap"):
            enumerate_configs(ResourceProfile((50.0,), ((1.0,),)), max_configs=10)

    def test_type_that_never_fits(self):
        with pytest.raises(ConfigSpaceError, match="does not fit"):
            enumerate_configs(ResourceProfile((2.0,), ((1.0,), (5.0,))))


class TestValidateExplicit:
    def test_rejects_non_monotone(self):
        with pytest.raises(ConfigSpaceError, match=r"\(2, 1\).*\(1, 1\)"):
            validate_explicit_configs([(1, 0), (0, 1), (2, 0), (2, 1)])

    def test_names_first_missing_configuration(self):
        # (0, 1, 2) lacks both (0, 0, 2) and (0, 1, 1), and (1, 1, 1) lacks
        # (0, 1, 1): configurations are checked in order, then types.
        configs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 2)]
        with pytest.raises(ConfigSpaceError) as err:
            validate_explicit_configs(configs)
        assert str(err.value) == "set is not monotone: (0, 1, 2) present but (0, 0, 2) missing"

    def test_rejects_missing_unit(self):
        with pytest.raises(ConfigSpaceError, match="type 1"):
            validate_explicit_configs([(1, 0), (2, 0)], num_types=2)

    def test_zero_config_tolerated_but_not_stored(self):
        space = validate_explicit_configs([(0,), (1,), (2,)])
        assert space.configs == ((1,), (2,))
        assert space.config_index((0,)) == -1

    def test_profile_mismatch(self):
        prof = ResourceProfile((2.0,), ((1.0,),))
        with pytest.raises(ConfigSpaceError, match="does not fit"):
            validate_explicit_configs([(1,), (2,), (3,)], profile=prof)

    def test_without_profile_no_aggregates(self):
        space = scalar_space(2)
        assert not space.has_aggregates


class TestEdges:
    def test_scalar_edges(self):
        space = scalar_space(2)
        # one type, targets (1) and (2)
        assert space.num_edges == 2
        e1 = space.edge_index((1,), 0)
        e2 = space.edge_index((2,), 0)
        assert space.edge_base[e1] == -1
        assert space.edge_base[e2] == space.config_index((1,))
        assert space.edge_target[e2] == space.config_index((2,))

    def test_every_positive_coordinate_is_an_edge(self):
        space = b3_space()
        for t, k in enumerate(space.configs):
            for i in range(space.num_types):
                if k[i] >= 1:
                    e = space.edge_index(k, i)
                    assert space.edge_target[e] == t
                    assert space.edge_type[e] == i

    def test_non_edges_raise(self):
        space = b3_space()
        with pytest.raises(ConfigSpaceError, match="not an edge"):
            space.edge_index((0, 1), 0)
        with pytest.raises(ConfigSpaceError, match="no edges"):
            space.edge_index((0, 0), 0)
        with pytest.raises(ConfigSpaceError, match="not in space"):
            space.config_index((5, 5))

    def test_up_down_inverse(self):
        space = b3_space()
        for t, k in enumerate(space.configs):
            for i in range(space.num_types):
                up = space.up_index[t][i]
                if up is not None:
                    assert space.down_index[up][i] == t

    @ALL_SPACES
    def test_edges_of_type_are_contiguous_ranges(self, make):
        # The simulator sums per-type edge counters over list slices.
        space = make()
        start = 0
        for edges in space.edges_of_type:
            assert edges == tuple(range(start, start + len(edges)))
            start += len(edges)
        assert start == space.num_edges

    @ALL_SPACES
    def test_array_tables_are_cached_read_only_copies(self, make):
        space = make()
        A = space.constraint_matrix
        assert A.dtype == float and A.flags.c_contiguous
        assert A.tolist() == [list(row) for row in zip(*space.configs)]
        arrays = space.edge_arrays
        tables = (space.edge_type, space.edge_target, space.edge_base)
        for a, table in zip(arrays, tables):
            assert a.dtype == np.intp and a.tolist() == list(table)
        for a in (A,) + arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert space.constraint_matrix is A and space.edge_arrays is arrays
        _, target, base = arrays
        for (first, t, b), edges in zip(space.type_edges, space.edges_of_type):
            assert first == edges[0]
            assert t.base is target and b.base is base
            assert t.tolist() == [space.edge_target[e] for e in edges]
            assert b.tolist() == [space.edge_base[e] for e in edges]


class TestAggregates:
    def test_b3_partition(self):
        space = b3_space()
        agg = space.aggregates
        assert agg.num_classes == 3
        by_usage = {agg.usage[q][0]: set(agg.members[q]) for q in range(1, 4)}
        idx = space.config_index
        assert by_usage[1.0] == {idx((1, 0))}
        assert by_usage[2.0] == {idx((2, 0)), idx((0, 1))}
        assert by_usage[3.0] == {idx((3, 0)), idx((1, 1))}

    def test_plus_type_and_admit(self):
        space = b3_space()
        agg = space.aggregates
        idx = space.config_index
        q2 = agg.class_of[idx((2, 0))]
        q3 = agg.class_of[idx((3, 0))]
        assert agg.plus_type[q2][0] == q3
        # both members of the usage-2 class can take one type-1 customer
        assert set(agg.admit_bases[q2][0]) == {idx((2, 0)), idx((0, 1))}
        # nothing fits on top of a full server
        assert agg.plus_type[q3][0] is None
        assert agg.plus_type[q3][1] is None

    def test_minus_type(self):
        space = b3_space()
        agg = space.aggregates
        idx = space.config_index
        q1 = agg.class_of[idx((1, 0))]
        q2 = agg.class_of[idx((2, 0))]
        assert agg.minus_type[q1][0] == 0  # down to the zero class
        assert agg.minus_type[q2][0] == q1
        assert agg.minus_type[q1][1] is None

    def test_zero_class_reaches_units(self):
        space = b3_space()
        agg = space.aggregates
        idx = space.config_index
        assert agg.plus_type[0][0] == agg.class_of[idx((1, 0))]
        assert agg.plus_type[0][1] == agg.class_of[idx((0, 1))]


class TestSerialization:
    def test_round_trip_profile(self):
        space = b3_space()
        again = space_from_dict(space_to_dict(space))
        assert again.configs == space.configs
        assert again.aggregates.members == space.aggregates.members

    def test_round_trip_explicit(self):
        space = scalar_space(3)
        again = space_from_dict(space_to_dict(space))
        assert again.configs == space.configs

    def test_flat_profile_dict(self):
        space = space_from_dict({"B": [3], "b": [[1], [2]]})
        assert space.num_configs == 5

    def test_missing_keys(self):
        with pytest.raises(ConfigSpaceError):
            space_from_dict({})


@st.composite
def profiles(draw):
    num_types = draw(st.integers(1, 3))
    num_res = draw(st.integers(1, 2))
    cap = [float(draw(st.integers(1, 6))) for _ in range(num_res)]
    req = []
    for _ in range(num_types):
        row = [float(draw(st.integers(0, 3))) for _ in range(num_res)]
        if all(v == 0 for v in row):
            row[draw(st.integers(0, num_res - 1))] = 1.0
        req.append(tuple(row))
    return ResourceProfile(tuple(cap), tuple(req))


@settings(max_examples=60, deadline=None)
@given(profiles())
def test_enumerated_space_invariants(prof):
    try:
        space = enumerate_configs(prof, max_configs=5000)
    except ConfigSpaceError:
        # a type that cannot fit even alone is a legitimate rejection
        assert any(not prof.fits(tuple(int(j == i) for j in range(prof.num_types)))
                   for i in range(prof.num_types))
        return

    seen = set(space.configs)
    for k in space.configs:
        assert prof.fits(k)
        # monotone closure: all one-step-down neighbors present
        for i in range(space.num_types):
            if k[i] >= 1:
                down = tuple(v - (j == i) for j, v in enumerate(k))
                assert any(down) is False or down in seen

    for i in range(space.num_types):
        unit = tuple(int(j == i) for j in range(space.num_types))
        assert unit in seen

    # edges cover exactly the positive coordinates
    assert space.num_edges == sum(
        int(k[i] >= 1) for k in space.configs for i in range(space.num_types)
    )

    # classes partition configs by usage vector
    agg = space.aggregates
    for q in range(1, agg.num_classes + 1):
        usages = {prof.usage(space.configs[t]) for t in agg.members[q]}
        assert len(usages) == 1
    assert sorted(t for q in range(1, agg.num_classes + 1) for t in agg.members[q]) \
        == list(range(space.num_configs))


def assert_classes_step_together(space):
    """Every member of a class steps along +-e_i into the one class that
    plus_type and minus_type name, and members share their usage."""
    agg = space.aggregates
    cap = space.profile.capacity
    for q in range(1, agg.num_classes + 1):
        usages = np.array([space.profile.usage(space.configs[t]) for t in agg.members[q]])
        assert np.all(np.ptp(usages, axis=0) <= 1e-12 * np.array(cap))
        for i in range(space.num_types):
            ups = {agg.class_of[space.up_index[t][i]]
                   for t in agg.members[q] if space.up_index[t][i] is not None}
            downs = {0 if d < 0 else agg.class_of[d] for d in
                     (space.down_index[t][i] for t in agg.members[q]) if d is not None}
            assert ups == ({agg.plus_type[q][i]} - {None})
            assert downs == ({agg.minus_type[q][i]} - {None})
            assert agg.admit_bases[q][i] == tuple(
                t for t in agg.members[q] if space.up_index[t][i] is not None)


@st.composite
def fractional_profiles(draw):
    """Requirements in multiples of 0.05, whose float sums differ by rounding."""
    num_types = draw(st.integers(1, 4))
    num_res = draw(st.integers(1, 2))
    cap = [0.05 * draw(st.integers(10, 20)) for _ in range(num_res)]
    req = []
    for _ in range(num_types):
        row = [0.05 * draw(st.integers(0, 8)) for _ in range(num_res)]
        if all(v == 0 for v in row):
            row[draw(st.integers(0, num_res - 1))] = 0.1
        req.append(tuple(row))
    return ResourceProfile(tuple(cap), tuple(req))


@settings(max_examples=60, deadline=None)
@given(fractional_profiles())
def test_fractional_classes_step_together(prof):
    try:
        space = enumerate_configs(prof, max_configs=3000)
    except ConfigSpaceError as exc:
        assert "cap" in str(exc)
        return
    assert_classes_step_together(space)


@pytest.mark.parametrize("req,num_classes,largest", [
    (((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05)), 34, 3),
    (((0.15, 0.05), (0.05, 0.15), (0.1, 0.1), (0.2, 0.03)), 216, 6),
], ids=["48", "428"])
def test_profile_classes_step_together(req, num_classes, largest):
    space = enumerate_configs(ResourceProfile((1.0, 1.0), req))
    assert space.aggregates.num_classes == num_classes
    assert max(map(len, space.aggregates.members)) == largest
    assert_classes_step_together(space)
