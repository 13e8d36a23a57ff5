"""README examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from bkfact import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _cli_examples() -> list[tuple[list[str], list[str]]]:
    # Each example of ## CLI is a "$ bkfact ..." line and the output it shows, if any,
    # up to the next blank line; a "#" comment on the command line is not an argument.
    section = TEXT.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"\nExamples:\n\n```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.split("\n")
        prog, *argv = shlex.split(command.removeprefix("$ "), comments=True)
        assert prog == "bkfact", command
        examples.append((argv, shown))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_library_example_runs(capsys):
    # The example names public API; a removed or renamed function fails here.
    section = TEXT.split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (## Library)", "exec"), {})
    assert capsys.readouterr().out.startswith("parameters: eps = 2, m = 1, n = 1\n")


@pytest.mark.parametrize("argv, shown", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example_runs(argv, shown, capsys):
    # In-process, as the bkfact command runs it: no error, and the output shown, if any.
    status = cli.main(argv)
    out, err = capsys.readouterr()
    assert status in (0, 1, 2) and err == ""
    if shown:
        assert out.splitlines() == shown
