"""The README's command-line examples print what the README shows below them.

Each ``$ crn ...`` line of the "Examples" block, a line ending in ``\\``
continued on the next, runs through `crnkit.cli.main` from the repository
root, and its standard output must be the text up to the next blank line.
"""

import shlex
from pathlib import Path

import pytest

from crnkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text.split("Examples against the bundled files", 1)[1]
    block = after.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip("\n").split("\n\n"):
        lines = chunk.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        examples.append((shlex.split(command), "".join(line + "\n" for line in lines)))
    return examples


EXAMPLES = readme_examples()


def test_the_examples_cover_the_partition_and_steady_state_commands():
    assert [argv[:3] for argv, _ in EXAMPLES] == [
        ["$", "crn", command] for command in ("decompose", "check", "numbers", "steady-state")
    ]


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[argv[2] for argv, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(argv, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(argv[2:])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")
