"""Layout gate: every public top-level name under src/critheat reaches a caller
there, or is one of the test-only names listed here and in the README."""

import ast
import re
from pathlib import Path

import critheat

#: public top-level names that no module under src/ references: only tests
#: call them. A new one must be added here and to the README's list.
TEST_ONLY = {
    "energy_identity_residual", "energy_nonincreasing", "lyapunov_tail_index",
    "default_grid", "pohozaev_residual", "decay_bounds_check", "save_spectrum",
    "low_freq_mass",
}


def unreferenced_public_names(package: Path) -> set[str]:
    """Functions, classes and assignments at the top level of the package's
    modules, without a leading underscore, that no module of it names: as a
    name, an attribute or an import."""
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return {name for name in defined - referenced if not name.startswith("_")}


def test_only_the_listed_names_are_test_only():
    assert unreferenced_public_names(Path(critheat.__file__).parent) == TEST_ONLY


def test_the_readme_lists_the_test_only_names():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [name for name in sorted(TEST_ONLY)
            if not re.search(rf"`(\w+\.)?{name}`", text)] == []
