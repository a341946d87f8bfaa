"""The frozen oracles import only these names from ``packing_sim``.

An oracle is a reference copy of an older layer; each name it takes from
the live package ties that name to the oracle.  Listing them here makes a
new dependency a visible test edit, and shows which live names an oracle
still needs before the name is removed.
"""

import ast
from pathlib import Path

ORACLE_IMPORTS = {
    "oracle_config_space.py": {
        "config_space.AggregateInfo",
        "config_space.ConfigSpace",
        "config_space.ConfigSpaceError",
        "config_space.Configuration",
        "config_space.ResourceProfile",
    },
    "oracle_engine.py": {
        "config_space.ConfigSpaceError",
        "optimizer.StatePoint",
        "optimizer.aggregate_objective",
        "optimizer.objective",
        "simulator._CLASS_DISCIPLINES",
        "simulator.RunResult",
        "simulator.SimConfig",
        "simulator.Snapshot",
        "simulator.SystemState",
        "simulator._round_half_up",
    },
    "oracle_fluid.py": {
        "config_space.InvariantError",
        "fluid.FluidTrajectory",
        "optimizer.StatePoint",
        "optimizer.objective",
        "optimizer.project_to_polytope",
    },
    "oracle_grid.py": set(),
    "oracle_optimizer.py": {
        "config_space.ConfigSpace",
        "config_space.ConfigSpaceError",
        "optimizer.DEFAULT_SUPPORT_EPS",
        "optimizer.Demand",
        "optimizer.KktCertificate",
        "optimizer.NonconvergenceError",
        "optimizer.StatePoint",
    },
    "oracle_phi.py": {
        "config_space.ConfigSpace",
        "config_space._require_aggregates",
        "optimizer.Demand",
        "optimizer.NonconvergenceError",
        "optimizer.StatePoint",
    },
}


def package_imports(path):
    """``module.name`` for every name the file imports from packing_sim."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("packing_sim"):
            module = node.module.removeprefix("packing_sim").lstrip(".")
            found.update(f"{module}.{alias.name}".lstrip(".") for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name.startswith("packing_sim"))
    return found


def test_every_oracle_is_listed():
    here = Path(__file__).parent
    assert sorted(p.name for p in here.glob("oracle_*.py")) == sorted(ORACLE_IMPORTS)


def test_oracles_import_only_the_listed_names():
    here = Path(__file__).parent
    for name, want in ORACLE_IMPORTS.items():
        assert package_imports(here / name) == want, name
