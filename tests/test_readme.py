"""README examples: every ``$ surfops ...`` example whose full output is shown prints exactly that
output through ``cli.main``, with its exit code, and the Python block runs."""

import re
import shlex
from pathlib import Path

import pytest

from surfops.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _examples():
    """(command, shown output lines) for each ``$ surfops`` line of the untagged blocks."""
    found = []
    for lang, body in BLOCKS:
        if lang:
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.MULTILINE):
            if chunk.startswith("$ surfops "):
                command, *output = chunk.splitlines()
                found.append((command[2:], output))
    return found


EXAMPLES = _examples()
FULL = [(command, output) for command, output in EXAMPLES if "|" not in shlex.split(command) and "..." not in output]


def test_examples_are_found():
    skipped = [command.split()[1] for command, output in EXAMPLES if (command, output) not in FULL]
    assert (len(FULL), sorted(skipped)) == (11, ["check-envelope", "render"])  # an elided output, a pipe


@pytest.mark.parametrize("command, output", FULL, ids=[command for command, _ in FULL])
def test_example_prints_its_shown_output(capsys, command, output):
    code = main(shlex.split(command)[1:])
    assert capsys.readouterr() == ("".join(line + "\n" for line in output), "")
    assert code == (3 if output == ["inequivalent"] else 0)  # the one verdict that exits 3


def test_python_block_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
