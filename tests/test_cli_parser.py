"""A `crn` call that starts with a command registers that command alone.

Such a call can print no other command's name: the others appear only in the
top-level help and the "invalid choice" error.  Every other call (help, no
words, a word that is no command, options or ``--`` before the command)
registers and fills in all five.  The tests below compare `main` against a
reference parser that fills in every command from the same table, on the
interpreter under test (argparse's wording differs between Python versions),
and check that `main` keeps no state between calls.
"""

import argparse
import os
import subprocess
import sys

import pytest

import crnkit
from crnkit import cli, parse_file
from conftest import NETWORKS_DIR
from test_one_elimination import callers

BACCAM = str(NETWORKS_DIR / "baccam.crn")
STEADY = ["--rates", "R1=1,R2=1,R3=1,R4=1", "--point", "T=1,V=1,I=1"]
DESCRIPTION = cli._build_parser(()).description


def reference_parser(commands):
    """The parser with every command's arguments, whatever ``commands`` are."""
    parser = cli._ArgumentParser(prog="crn", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


ARGVS = [
    # help, for the top level and for each command
    ["-h"],
    ["--help"],
    *([name, flag] for name in cli._COMMANDS for flag in ("-h", "--help")),
    ["-h", "analyze"],
    ["--help", "check", BACCAM],
    ["analyze", BACCAM, "-h"],
    # no command, or a word that is not one
    [],
    ["bogus"],
    ["help"],
    ["ana"],
    ["bogus", BACCAM],
    ["-"],
    ["-1"],
    ["-1", "analyze", BACCAM],
    [""],
    ["--"],
    ["--", "analyze", BACCAM],
    # options before the command
    ["--format", "json", "analyze", BACCAM],
    ["-x", "analyze", BACCAM],
    ["--parts", "R1", "check", BACCAM],
    ["--", "check", BACCAM, "--parts", "R1,R2|R3,R4"],
    # another command's name after the command
    ["analyze", BACCAM, "check"],
    ["check", "analyze", "--parts", "R1"],
    ["numbers", "--", BACCAM],
    ["steady-state", "-h", "analyze"],
    # argument errors inside a command
    ["analyze"],
    ["check"],
    ["steady-state"],
    ["analyze", BACCAM, "--format", "xml"],
    ["analyze", BACCAM, "extra"],
    ["check", BACCAM],
    ["decompose", BACCAM, "--bogus"],
    ["steady-state", BACCAM, *STEADY, "--tol", "-inf"],
    ["steady-state", BACCAM, *STEADY, "--tol", "abc"],
    ["steady-state", BACCAM, "--rates", "R1=1"],
    ["steady-state", BACCAM, "--rates", "R1=1,R2=1,R3=1,R4=1", "--point", "X1=1"],
    ["analyze", str(NETWORKS_DIR / "no_such_file.crn")],
    # runs of each command, abbreviated options included
    ["analyze", BACCAM],
    ["analyze", BACCAM, "--form", "json"],
    ["decompose", BACCAM],
    ["decompose", BACCAM, "--cont", "R1"],
    ["check", BACCAM, "--parts", "R1,R2|R3,R4"],
    ["numbers", BACCAM],
    ["numbers", BACCAM, "--parts", "R1,R2|R3,R4"],
    ["steady-state", BACCAM, *STEADY],
    ["steady-state", BACCAM, *STEADY, "--tol=-1"],
]


def outcome(capsys, argv):
    """``main``'s exit code (or ``SystemExit`` code), stdout and stderr for ``argv``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_argv_cases_cover_the_listed_kinds():
    assert len(ARGVS) >= 35


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "<none>")
def test_main_matches_the_parser_of_every_command(capsys, monkeypatch, argv):
    got = outcome(capsys, list(argv))
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", reference_parser)
        want = outcome(capsys, list(argv))
    assert got == want
    assert got[0] in (0, 1, 3, ("SystemExit", 0))


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["crn", "check", BACCAM, "--parts", "R1,R2|R3,R4"])
    got = outcome(capsys, None)
    monkeypatch.setattr(cli, "_build_parser", reference_parser)
    assert got == outcome(capsys, None)
    assert got[0] == 0


def subparsers(parser):
    (action,) = parser._subparsers._group_actions
    return action.choices


def built_commands(capsys, monkeypatch, argv):
    """The subparsers of the one parser ``main`` builds for ``argv``."""
    built = []
    real = cli._build_parser

    def recording(commands):
        built.append(real(commands))
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", recording)
    outcome(capsys, argv)
    (parser,) = built
    return subparsers(parser)


def dests(choices):
    return {name: [action.dest for action in p._actions] for name, p in choices.items()}


def test_a_call_that_starts_with_a_command_registers_it_alone(capsys, monkeypatch):
    choices = built_commands(capsys, monkeypatch, ["check", BACCAM, "--parts", "R1,R2|R3,R4"])
    assert dests(choices) == {"check": ["help", "file", "parts"]}


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["-h", "check"], ["bogus"], ["-"], ["--", "analyze"]],
    ids=lambda argv: " ".join(argv) or "<none>",
)
def test_help_and_usage_errors_fill_in_every_command(capsys, monkeypatch, argv):
    choices = built_commands(capsys, monkeypatch, argv)
    assert dests(choices) == dests(subparsers(reference_parser(None)))


def test_the_table_lists_each_commands_arguments():
    assert dests(subparsers(reference_parser(None))) == {
        "analyze": ["help", "file", "format"],
        "decompose": ["help", "file", "contains"],
        "check": ["help", "file", "parts"],
        "numbers": ["help", "file", "parts"],
        "steady-state": ["help", "file", "rates", "point", "tol"],
    }


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["analyze"], ["numbers", BACCAM]])
def test_each_main_call_builds_one_parser(capsys, monkeypatch, argv):
    built_commands(capsys, monkeypatch, argv)


def test_only_main_builds_the_parser():
    assert callers("_build_parser") == {"cli.main"}


RUNS = [
    ["analyze", BACCAM],
    ["decompose", BACCAM],
    ["check", BACCAM, "--parts", "R1,R2|R3,R4"],
    ["numbers", BACCAM],
    ["steady-state", BACCAM, *STEADY],
]


@pytest.mark.parametrize(
    "argv, parsers",
    [*((argv, 2) for argv in RUNS), (["-h"], 6), (["bogus"], 6)],
    ids=lambda case: case[0] if isinstance(case, list) else str(case),
)
def test_argument_parsers_built_per_call(capsys, monkeypatch, argv, parsers):
    # The top-level parser plus one subparser per registered command.
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
    code = outcome(capsys, argv)[0]
    assert code in (0, 1, 3, ("SystemExit", 0))
    assert len(built) == parsers


def test_each_parser_is_built_anew():
    assert cli._build_parser(["check"]) is not cli._build_parser(["check"])


def stateless_sequence():
    """All five commands on three corpus networks, a usage error after each call."""
    errors = [["bogus"], ["analyze"], ["check", BACCAM, "--parts", "R1|R9"]]
    sequence = []
    for name in ("baccam.crn", "two_chains.crn", "yeast.crn"):
        path = str(NETWORKS_DIR / name)
        net = parse_file(path)
        labels = net.labels
        half = len(labels) // 2
        parts = f"{','.join(labels[:half])}|{','.join(labels[half:])}"
        rates = ",".join(f"{label}=1" for label in labels)
        point = ",".join(f"{species}=1" for species in net.species_names)
        for argv in (
            ["analyze", path, "--format", "json"],
            ["decompose", path],
            ["check", path, "--parts", parts],
            ["numbers", path, "--parts", parts],
            ["steady-state", path, "--rates", rates, "--point", point],
        ):
            sequence += [argv, errors[len(sequence) // 2 % len(errors)]]
    return sequence


def test_main_keeps_no_state_between_calls(capsys, monkeypatch):
    # The child imports the crnkit under test, installed or not, and reads
    # the same terminal width and colour settings as this process.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    src = os.path.dirname(os.path.dirname(crnkit.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    fresh = {}
    sequence = stateless_sequence()
    for argv in sequence:
        key = tuple(argv)
        if key not in fresh:
            proc = subprocess.run(
                [sys.executable, "-m", "crnkit.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            fresh[key] = (proc.returncode, proc.stdout, proc.stderr)
    codes = set()
    for _ in range(2):
        for argv in sequence:
            got = outcome(capsys, list(argv))
            assert got == fresh[tuple(argv)], argv
            codes.add(got[0])
    assert codes == {0, 1, 3}
