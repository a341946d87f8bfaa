"""Helpers shared by the test modules."""

from packing_sim.config_space import validate_explicit_configs


def scalar_space(m):
    """One type; configurations (1,), (2,), ..., (m,)."""
    return validate_explicit_configs([(j,) for j in range(1, m + 1)])
