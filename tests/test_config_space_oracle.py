"""The array-pass space builder against its frozen predecessor
(``oracle_config_space``): equal spaces, field for field, and the same
exception with the same message on invalid input."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_config_space as oracle
from packing_sim.config_space import (
    ConfigSpaceError,
    ResourceProfile,
    enumerate_configs,
    validate_explicit_configs,
)
from test_config_space import fractional_profiles, profiles

B3 = ResourceProfile((3.0,), ((1.0,), (2.0,)))
P48 = ResourceProfile((1.0, 1.0), ((0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.45, 0.05)))
P428 = ResourceProfile((1.0, 1.0), ((0.15, 0.05), (0.05, 0.15), (0.1, 0.1), (0.2, 0.03)))
# Profile E (2,787 configurations, 1,093 classes) and the 428-config
# profile plus a fifth type (2,711 configurations, 845 classes).
PROFILE_E = ResourceProfile(
    (1.0, 1.0), ((0.08, 0.03), (0.03, 0.08), (0.06, 0.06), (0.12, 0.02)))
FIVE_TYPES = ResourceProfile((1.0, 1.0), P428.requirement + ((0.04, 0.04),))
NEAR_EQUAL = ResourceProfile((1.0,), ((0.3,), (0.3 + 2e-12,), (0.1,)))
# Python's round(0.4000000000005, 12) is 0.400000000001, np.round's 0.4.
ROUND_HALF = ResourceProfile((1.0,), ((0.4000000000005,), (0.400000000001,), (0.4,)))
SLACK_BOUNDARY = ResourceProfile(
    (1.0,), ((0.33333333333366666,), (0.2000000000002,), (0.33333333333366666,)))
# (5, 1) misses by 1.00009e-12 after six subtractions, but fits when type 1
# starts from 1 - 5 r0.
SLACK_ACROSS_TYPES = ResourceProfile((1.0,), ((0.09719315040812043,), (0.5140342479603976,)))

SPACE_FIELDS = ("num_types", "configs", "profile", "index", "edge_type", "edge_target",
                "edge_base", "edges_of_type", "up_index", "down_index", "unit_index",
                "edge_by_target")
AGGREGATE_FIELDS = ("class_of", "members", "usage", "plus_type", "minus_type", "admit_bases")


def assert_same_space(new, old):
    """Equal, and equal in repr: Python ints (not numpy scalars) and the
    same floats, signed zeros included."""
    assert type(new) is type(old)
    for name in SPACE_FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a == b and repr(a) == repr(b), name
    assert (new.aggregates is None) == (old.aggregates is None)
    if old.aggregates is not None:
        for name in AGGREGATE_FIELDS:
            a, b = getattr(new.aggregates, name), getattr(old.aggregates, name)
            assert a == b and repr(a) == repr(b), name
        a, b = new.aggregates.member_table, old.aggregates.member_table
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert not a.flags.writeable
    assert new == old


def assert_same_outcome(build, *args, **kwargs):
    """Both builders return equal spaces, or raise the same error."""
    outcomes = []
    for fn in (build, getattr(oracle, build.__name__)):
        try:
            outcomes.append(fn(*args, **kwargs))
        except ConfigSpaceError as exc:
            outcomes.append((type(exc), str(exc)))
    new, old = outcomes
    if isinstance(old, tuple):
        assert new == old
    else:
        assert_same_space(new, old)
    return new


SPACES = {
    "k12": lambda m: m.validate_explicit_configs([(1,), (2,)]),
    "b3": lambda m: m.enumerate_configs(B3),
    # conftest.scalar_space(5)
    "scalar-5": lambda m: m.validate_explicit_configs([(j,) for j in range(1, 6)]),
    "48": lambda m: m.enumerate_configs(P48),
    "428": lambda m: m.enumerate_configs(P428),
    "profile-E": lambda m: m.enumerate_configs(PROFILE_E),
    "five-types": lambda m: m.enumerate_configs(FIVE_TYPES),
    # Usage shares 2e-12 apart: two classes at 12 decimals, one at 11.
    "near-equal-usage": lambda m: m.enumerate_configs(NEAR_EQUAL),
    "round-half": lambda m: m.enumerate_configs(ROUND_HALF),
    # Three of type 0 (or of types 0 and 2) fit by 1 - r - r - r but not by
    # 1 - 3 r; five of type 1 fit by 1 - 5 r but not by five subtractions.
    "slack-boundary": lambda m: m.enumerate_configs(SLACK_BOUNDARY),
    "slack-across-types": lambda m: m.enumerate_configs(SLACK_ACROSS_TYPES),
    "explicit-3-types": lambda m: m.validate_explicit_configs([
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1),
        (1, 0, 1), (0, 0, 2), (1, 1, 1), (0, 1, 2)]),
    "explicit-b3-profile": lambda m: m.validate_explicit_configs(
        [(0, 0), (3, 0), (1, 0), (0, 1), (1, 1), (2, 0), (1, 0)], profile=B3),
    "explicit-428-profile": lambda m: m.validate_explicit_configs(
        reversed(oracle.enumerate_configs(P428).configs), profile=P428),
    "explicit-428-no-profile": lambda m: m.validate_explicit_configs(
        oracle.enumerate_configs(P428).configs),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_equals_oracle(name):
    import packing_sim.config_space as current

    new, old = SPACES[name](current), SPACES[name](oracle)
    assert_same_space(new, old)
    assert new.state_places == old.state_places


@pytest.mark.parametrize("name,prof,num_configs,num_classes", [
    ("profile-E", PROFILE_E, 2787, 1093),
    ("five-types", FIVE_TYPES, 2711, 845),
])
def test_large_profiles_have_their_sizes(name, prof, num_configs, num_classes):
    space = enumerate_configs(prof)
    assert space.num_configs == num_configs
    assert space.aggregates.num_classes == num_classes


ERRORS = {
    # (0, 1, 2) lacks (0, 0, 2) and (0, 1, 1); (1, 1, 1) lacks (0, 1, 1):
    # the first missing one, in configuration-then-type order.
    "non-monotone": (validate_explicit_configs, (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 2)],), {}),
    "non-monotone-second-type": (validate_explicit_configs, (
        [(1, 0), (0, 1), (2, 0), (2, 1), (0, 2), (1, 2)],), {}),
    "missing-unit": (validate_explicit_configs, ([(1, 0), (2, 0)],), {"num_types": 2}),
    "missing-first-unit": (validate_explicit_configs, ([(0, 1), (0, 0)],), {}),
    "only-zero": (validate_explicit_configs, ([(0, 0)],), {}),
    "does-not-fit": (validate_explicit_configs, ([(1,), (2,), (3,)],),
                     {"profile": ResourceProfile((2.0,), ((1.0,),))}),
    "does-not-fit-first": (validate_explicit_configs, ([(0, 2), (0, 1), (1, 0), (4, 0)],),
                           {"profile": B3}),
    "never-fits": (enumerate_configs, (ResourceProfile((2.0,), ((1.0,), (5.0,))),), {}),
    "never-fits-at-slack": (enumerate_configs, (
        ResourceProfile((1.0, 1.0), ((0.5, 0.5), (0.2, 1.0 + 3e-12))),), {}),
    "enumerate-cap": (enumerate_configs, (ResourceProfile((50.0,), ((1.0,),)),),
                      {"max_configs": 10}),
    "enumerate-cap-late-type": (enumerate_configs, (P428,), {"max_configs": 427}),
    "enumerate-at-cap": (enumerate_configs, (P428,), {"max_configs": 428}),
    "explicit-cap": (validate_explicit_configs, ([(1,), (2,), (3,)],), {"max_configs": 2}),
    "counts-beyond-int64": (validate_explicit_configs, ([(1,), (2**63,), (10**30,)],), {}),
    "counts-beyond-int64-profile": (validate_explicit_configs, ([(1,), (2**63,)],),
                                    {"profile": ResourceProfile((2.0,), ((1.0,),))}),
    # 3**45 codes do not fit int64.
    "many-types": (validate_explicit_configs, (
        [tuple(int(i == j) for j in range(45)) for i in range(45)] + [(1, 1) + (0,) * 43],),
        {}),
    "many-types-non-monotone": (validate_explicit_configs, (
        [tuple(int(i == j) for j in range(45)) for i in range(45)] + [(2, 1) + (0,) * 43],),
        {}),
    "no-types": (validate_explicit_configs, ([()],), {}),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_same_outcome_as_oracle(name):
    build, args, kwargs = ERRORS[name]
    assert_same_outcome(build, *args, **kwargs)


def test_cap_is_checked_before_the_rows_are_built():
    # A million counts of one type: the cap must stop enumeration at 11.
    t0 = time.perf_counter()
    with pytest.raises(ConfigSpaceError, match="exceeds cap of 10"):
        enumerate_configs(ResourceProfile((1e6,), ((1.0,),)), max_configs=10)
    assert time.perf_counter() - t0 < 1.0


def check_against_oracle(prof, max_configs, drop):
    space = assert_same_outcome(enumerate_configs, prof, max_configs=max_configs)
    if isinstance(space, tuple):
        return
    configs = list(space.configs)
    assert_same_outcome(validate_explicit_configs, configs[::-1], profile=prof)
    assert_same_outcome(validate_explicit_configs, configs)
    # Without one configuration the set misses a unit or is not monotone,
    # unless it was a maximal one.
    del configs[drop % len(configs)]
    if configs:
        assert_same_outcome(validate_explicit_configs, configs, num_types=prof.num_types,
                            profile=prof)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(profiles(), st.integers(0, 10**6))
def test_integer_profiles_match_oracle(prof, drop):
    check_against_oracle(prof, 5000, drop)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fractional_profiles(), st.integers(0, 10**6))
def test_fractional_profiles_match_oracle(prof, drop):
    check_against_oracle(prof, 3000, drop)
