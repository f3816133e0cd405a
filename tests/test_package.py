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


# bench's reps have no caller in the package: the CLI and perfbench take the
# default, and TestBench cuts them to keep tier-1 short on a bench-size model
UNSET_DEFAULTS_ALLOWED = ("bench(forward_reps)",)


def _defaulted_params(tree):
    """(callable name, parameter, positional index or None, self offset) of
    every defaulted parameter in ``tree``; a method's ``__init__`` is called
    by its class's name, and a method's index counts its ``self``."""
    methods = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        offset = 0
        if id(node) in methods:
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            offset = 0 if static else 1
            if name == "__init__":
                name = methods[id(node)]
        args = node.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield name, positional[i].arg, i, offset
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, offset


def _call_sites(trees):
    """{called name: [(positional args passed, keyword names passed)]}, where
    a ``*args`` passes every position and a ``**kwargs`` every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            n_pos = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((n_pos, keywords))
    return calls


def test_every_default_is_set_by_a_caller():
    # a default that no call in the package or in perfbench overrides has one
    # value in use outside the tests: it is a constant, not a setting
    callers = [*_parsed_modules().values(),
               *(ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted((PACKAGE.parent.parent / "perfbench").glob("*.py")))]
    calls = _call_sites(callers)
    unset = []
    for tree in _parsed_modules().values():
        for name, param, index, offset in _defaulted_params(tree):
            if not any(None in keywords or param in keywords
                       or index is not None and n_pos > index - offset
                       for n_pos, keywords in calls.get(name, ())):
                unset.append(f"{name}({param})")
    assert sorted(unset) == sorted(UNSET_DEFAULTS_ALLOWED)
