"""Package-wide checks on the source of ``src/crosswise``."""

import ast
from collections import Counter
from pathlib import Path

import crosswise

PACKAGE = Path(crosswise.__file__).parent


def _parsed_modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree) -> Counter:
    """Every name read in ``tree``, as a ``Name`` or as an ``Attribute``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names[node.attr] += 1
    return names


def _definitions(tree):
    """(name, node) of every function, class and method in a module, and of
    every module-level constant; dunder names are called implicitly."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def test_every_definition_is_used():
    # a definition that nothing in the package names is dead code; a name
    # that __init__.py re-exports is the public interface and counts as used
    modules = _parsed_modules()
    used = sum((_loaded_names(tree) for tree in modules.values()), Counter())
    exported = {alias.asname or alias.name for node in ast.walk(modules["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, tree in modules.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if used[name] <= _loaded_names(node)[name]:  # only its own body names it
                unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []
