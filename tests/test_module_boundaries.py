"""Module boundaries: a private name stays inside the module that defines it."""

import ast
from pathlib import Path

import bkfact

PACKAGE = Path(bkfact.__file__).resolve().parent


def test_no_module_imports_a_private_name():
    # A module may change its private helpers (say, poly's Bernstein
    # kernel) without touching any other module.
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "bkfact"
                                                     or node.module.startswith("bkfact.")):
                imports += [(path.name, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert imports == []
