"""Checks on the package source itself."""
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_every_module_level_function_and_class_is_named_by_the_program():
    """Each function and class defined at the top of a module under
    ``src/gpsloran`` is named again in the package or the benchmark: as a
    name, an attribute, an import, or a string (the benchmark wraps
    functions by name).  One that only tests call is not part of the
    program."""
    sources = [*sorted(REPO.glob("src/gpsloran/*.py")), *sorted(REPO.glob("bench/*.py"))]
    defined, named = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.parent.name == "gpsloran":
            defined += [(path.name, node.name) for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    assert defined
    assert [f"{module}:{name}" for module, name in defined if name not in named] == []
