"""Checks on the package source itself."""
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_every_module_level_function_and_class_is_named_by_the_program():
    """Each function, class and assigned name defined at the top of a
    module under ``src/gpsloran`` is read again in the package or the
    benchmark: as a name, an attribute, an import, or a string (the
    benchmark wraps functions by name).  A name counts only where it is
    read, not where it is bound; dunder names are exempt.  One that only
    tests read is not part of the program."""
    sources = [*sorted(REPO.glob("src/gpsloran/*.py")), *sorted(REPO.glob("bench/*.py"))]
    defined, named = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.parent.name == "gpsloran":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((path.name, node.name))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined += [(path.name, name.id) for target in targets
                                for name in ast.walk(target) if isinstance(name, ast.Name)
                                and not (name.id.startswith("__") and name.id.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    assert defined
    assert [f"{module}:{name}" for module, name in defined if name not in named] == []


def _calls(node, function=None):
    """Each call under *node*, with the name of the function it is in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield function, child
        yield from _calls(child, function)


def test_only_fsutil_and_the_raw_segment_write_files():
    """Every output file goes through ``fsutil`` (its ``OutputSet``, the
    event log); the one other writer is capture's raw segment.  A writer is
    an ``open`` whose mode is not a read-only literal, or a ``write_bytes``
    or ``write_text`` call."""
    writers = []
    for path in sorted(REPO.glob("src/gpsloran/*.py")):
        if path.name == "fsutil.py":
            continue
        for function, call in _calls(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            callee = call.func
            if isinstance(callee, ast.Attribute) and callee.attr in ("write_bytes", "write_text"):
                writes = True
            elif isinstance(callee, ast.Name) and callee.id == "open":
                mode = call.args[1] if len(call.args) > 1 else next(
                    (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
                writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                              and not set(mode.value) & set("wax+"))
            else:
                continue
            if writes and (path.name, function) != ("record.py", "_open_segment"):
                writers.append(f"{path.name}:{call.lineno}")
    assert writers == []
