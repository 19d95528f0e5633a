"""Static checks of the package source: every module-level import is used in
its module, covariances are factored only where they are checked, and
cameras are built only where a scenario or a sensor hypothesis is made."""

import ast
from pathlib import Path

import pytest

import disptrack

MODULES = sorted(Path(disptrack.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - used, f"unused imports in {path.name}: {sorted(imported - used)}"


# Each covariance is factored once, where it is checked; the factor then
# travels with it (GaussianState.chol, Observation.chol). innovation_factor
# factors S = H P H^T + R, which no state carries.
CHOLESKY_OWNERS = {
    "single_object.ensure_spd",
    "single_object.GaussianState.__post_init__",
    "single_object.Observation.__post_init__",
    "single_object.innovation_factor",
}


def callers(path, name):
    """Qualified names of the functions in ``path`` that call a ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith(name):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), (path.stem,))
    return found


def test_cholesky_only_where_a_covariance_is_checked():
    found = set().union(*(callers(p, "cholesky") for p in MODULES))
    assert found <= CHOLESKY_OWNERS, f"re-factoring in {sorted(found - CHOLESKY_OWNERS)}"


# A scenario's cameras are built once, when its config is loaded, into the
# rig its runs share; a sensor particle builds its right camera once, from
# its pose hypothesis.
CAMERA_BUILDERS = {"sim._camera", "calibration._build_rig"}


def test_cameras_built_only_at_load_and_per_sensor_hypothesis():
    found = set().union(*(callers(p, "build_camera") for p in MODULES))
    assert found <= CAMERA_BUILDERS, f"camera rebuilt in {sorted(found - CAMERA_BUILDERS)}"
