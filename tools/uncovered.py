"""List the statements of src/bkfact/*.py that a pytest run never executes.

    python3 tools/uncovered.py [pytest args]

Runs pytest in this process, with its arguments passed through, under a
line tracer (sys.settrace, and threading.settrace for new threads) that
records only frames of src/bkfact/*.py.  The statements come from each
file's ast; defs, classes, imports, global/nonlocal declarations and
docstrings are left out, since they run at import or generate no code.
A compound statement (if, for, while, with, try) counts as run when a line
of its header runs; any other statement when one of its lines runs.

Prints one line per statement never run,

    src/bkfact/F.py:LINE  first line of the statement

in file and line order, then one count line per file,

    src/bkfact/F.py  N of M statements not run

and exits with pytest's status.  Only this process is traced: code run in
subprocesses is not seen, which includes the CLI tests that start bkfact
as a child process (e.g. the broken-pipe tests).  Tracing makes the run
several times slower than an untraced one.  Run from the root of a
checkout; bkfact is imported from ./src.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bkfact"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines whose execution counts as running it) per statement."""
    found = []
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if (not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED)
                    or _is_docstring(node, parent)):
                continue
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            found.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(found)


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}
    wanted: dict[str, str | None] = {}  # co_filename -> key of files, or None

    def trace_global(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            real = os.path.realpath(filename)
            wanted[filename] = real if real in files else None
        key = wanted[filename]
        if key is None:
            return None
        lines = hits[key]

        def trace_local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_local
        return trace_local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_global)
    sys.settrace(trace_global)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = []
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        found = statements(source)
        missed = [line for line, span in found if hits[name].isdisjoint(span)]
        shown = path.relative_to(ROOT).as_posix()
        for line in missed:
            print(f"{shown}:{line}  {text[line - 1].strip()}")
        counts.append(f"{shown}  {len(missed)} of {len(found)} statements not run")
    print("\n".join(counts))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
