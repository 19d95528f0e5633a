"""Static checks of the package source: every module-level import is used in
its module, and covariances are factored only where they are checked."""

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


def cholesky_callers(path):
    """Qualified names of the functions in ``path`` that call a ``cholesky``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("cholesky"):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), (path.stem,))
    return found


def test_cholesky_only_where_a_covariance_is_checked():
    callers = set().union(*(cholesky_callers(p) for p in MODULES))
    assert callers <= CHOLESKY_OWNERS, f"re-factoring in {sorted(callers - CHOLESKY_OWNERS)}"
