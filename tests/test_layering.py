"""The package's layering: the oracle is the definition alone, and the code
that only the tests or the scripts reach lives outside the package."""

import ast
from pathlib import Path

import rstknn

PACKAGE = Path(rstknn.__file__).resolve().parent

# moved to tests/refimpl.py or scripts/find_counterexamples.py, or deleted
MOVED = {"counterexample_search", "CounterexampleFixture", "check_bound_sandwich",
         "SandwichReport", "ej_dominance_counterexample", "fdim_ratio", "NonPositiveInput",
         "min_dist", "max_dist", "_view", "min_text_sim", "max_text_sim", "_TEXT"}
MOVED_METHODS = {"is_ancestor_or_equal", "overlaps", "covering"}  # of IurTree


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_the_oracle_imports_only_core_of_the_package():
    imported = set()
    for node in ast.walk(_tree("oracle")):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("rstknn"):
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("rstknn"))
    assert imported == {"core"}


def test_every_export_resolves():
    assert len(rstknn.__all__) == len(set(rstknn.__all__))
    for name in rstknn.__all__:
        assert getattr(rstknn, name) is not None, name


def _defined(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """The names that the statements of a module or class body define."""
    names: dict[str, ast.stmt] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        names[t.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names[node.target.id] = node
    return names


def test_no_moved_name_is_defined_in_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        assert not MOVED & set(_defined(ast.parse(path.read_text(encoding="utf-8")).body)), path
    tree_class = _defined(_tree("iur_tree").body)["IurTree"]
    assert not MOVED_METHODS & set(_defined(tree_class.body))
    assert not MOVED & set(rstknn.__all__)
