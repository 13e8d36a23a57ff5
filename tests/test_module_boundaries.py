"""Module boundaries: a private name stays inside the module that defines it."""

import ast
from pathlib import Path

import bkfact

PACKAGE = Path(bkfact.__file__).resolve().parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(tree: ast.Module) -> set[str]:
    # Names a module defines: defs, classes, assignment targets (plain or
    # attribute, as in self._x = ...) and __slots__ entries.
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return names


def test_no_module_imports_a_private_name():
    # A module may change its private helpers (say, poly's Bernstein
    # kernel) without touching any other module.
    imports = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "bkfact"
                                                     or node.module.startswith("bkfact.")):
                imports += [(name, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert imports == []


def test_no_module_reads_another_modules_private_attribute():
    # x._name is read only where _name is defined, so a class may change its
    # representation (say, Poly2's term dict) inside its own module.
    reads = []
    for name, tree in _trees():
        defined = _defined_names(tree)
        reads += [(name, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and _is_private(node.attr) and node.attr not in defined]
    assert reads == []
