"""README examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # The example names public API; a removed or renamed function fails here.
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (## Library)", "exec"), {})
    assert capsys.readouterr().out.startswith("parameters: eps = 2, m = 1, n = 1\n")
