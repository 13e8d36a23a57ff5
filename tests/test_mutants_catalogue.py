"""tools/mutants.py's catalogue fits today's code: every old snippet occurs
exactly once in its file, every replacement differs and still parses, and
every named test file exists.  No mutant is run here; the full run takes
minutes (python3 tools/mutants.py)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_catalogue_matches_source():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for mutant in mutants.MUTANTS:
        source = (ROOT / "src" / "bkfact" / mutant.file).read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        ast.parse(source.replace(mutant.old, mutant.new))
        assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests), mutant.name


def test_stale_snippets_and_unknown_names_stop_the_run():
    stale = mutants.Mutant("stale", "poly.py", "no such snippet", "x", ("tests/test_poly.py",))
    assert mutants.check([stale]) == ["stale: old snippet occurs 0 times in src/bkfact/poly.py"]
    assert mutants.check() == []
    assert mutants.main(["no-such-mutant"]) == 2
