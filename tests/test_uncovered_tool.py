"""tools/uncovered.py runs pytest under its line tracer, passes pytest's exit
status through, and prints one line per statement never run followed by
one count line per file of src/bkfact.  No coverage threshold is set."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "uncovered.py"
STATEMENT = re.compile(r"src/bkfact/(\w+\.py):(\d+)  (\S.*)")
COUNT = re.compile(r"src/bkfact/(\w+\.py)  (\d+) of (\d+) statements not run")


def _run(*pytest_args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", *pytest_args]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_report_format():
    result = _run("tests/test_module_boundaries.py")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [line for line in result.stdout.splitlines() if line.startswith("src/bkfact/")]
    files = sorted(path.name for path in (ROOT / "src" / "bkfact").glob("*.py"))
    counts = [COUNT.fullmatch(line) for line in lines[-len(files):]]
    assert all(counts) and [match[1] for match in counts] == files
    missed: dict[str, int] = {}
    for line in lines[:-len(files)]:
        match = STATEMENT.fullmatch(line)
        assert match, line
        name, number, text = match[1], int(match[2]), match[3]
        source = (ROOT / "src" / "bkfact" / name).read_text(encoding="utf-8").splitlines()
        assert source[number - 1].strip() == text
        missed[name] = missed.get(name, 0) + 1
    assert {match[1]: int(match[2]) for match in counts} == {name: missed.get(name, 0)
                                                              for name in files}
    assert all(int(match[2]) <= int(match[3]) for match in counts)


def test_exit_status_is_pytests():
    # pytest exits 5 when no test is collected.
    result = _run("tests/test_module_boundaries.py", "-k", "no_such_test")
    assert result.returncode == 5, result.stdout + result.stderr
