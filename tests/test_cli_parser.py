"""A `crn` call that starts with a command builds one parser, the command's own.

The full parser would hand every word after the command to that command's
subparser, so such a call can print no other command's name: the others
appear only in the top-level help and the "invalid choice" error.  Every
other call (help, no words, a word that is no command, options or ``--``
before the command) builds the full parser, with all five commands filled
in.  Each call builds its parser anew; what each process builds once is
each command's argument declarations, ``-h`` included (`cli._arguments`),
which every call's parser copies in unchanged.  The tests below compare
`main` against a reference parser that fills in every command from the same
table, and against its subparser of each command, on the interpreter under
test (argparse's wording differs between Python versions), and check that
`main` keeps no state between calls beyond those declarations.
"""

import argparse
import copy
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
DESCRIPTION = cli._build_parser().description


def reference_parser():
    """The parser with every command's arguments."""
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


def subparsers(parser):
    (action,) = parser._subparsers._group_actions
    return action.choices


def reference_command_parser(name):
    """The reference parser's subparser of command ``name``."""
    parser = subparsers(reference_parser())[name]
    assert parser.prog == f"crn {name}"
    return parser


def use_reference_parsers(monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", reference_parser)
    monkeypatch.setattr(cli, "_command_parser", reference_command_parser)


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
        use_reference_parsers(m)
        want = outcome(capsys, list(argv))
    assert got == want
    assert got[0] in (0, 1, 3, ("SystemExit", 0))


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["crn", "check", BACCAM, "--parts", "R1,R2|R3,R4"])
    got = outcome(capsys, None)
    use_reference_parsers(monkeypatch)
    assert got == outcome(capsys, None)
    assert got[0] == 0


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_a_command_prints_the_same_help_through_either_parser(capsys, name):
    # After "-x" the full parser hands "-h" to the command's subparser, which
    # prints its help before the unknown "-x" is reported.
    own = outcome(capsys, [name, "-h"])
    assert own == outcome(capsys, ["-x", name, "-h"])
    assert own[0] == ("SystemExit", 0)
    assert own[1].startswith(f"usage: crn {name} ")


def built_parsers(capsys, monkeypatch, argv):
    """(factory, parser) for each parser ``main`` builds for ``argv``."""
    built = []

    def recording(factory):
        real = getattr(cli, factory)

        def record(*args):
            built.append((factory, real(*args)))
            return built[-1][1]

        return record

    for factory in ("_build_parser", "_command_parser"):
        monkeypatch.setattr(cli, factory, recording(factory))
    outcome(capsys, argv)
    return built


def dests(choices):
    return {name: [action.dest for action in p._actions] for name, p in choices.items()}


def test_a_call_that_starts_with_a_command_registers_it_alone(capsys, monkeypatch):
    argv = ["check", BACCAM, "--parts", "R1,R2|R3,R4"]
    ((factory, parser),) = built_parsers(capsys, monkeypatch, argv)
    assert factory == "_command_parser"
    assert parser.prog == "crn check"
    assert parser._subparsers is None
    assert [action.dest for action in parser._actions] == ["help", "file", "parts"]


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["-h", "check"], ["bogus"], ["-"], ["--", "analyze"]],
    ids=lambda argv: " ".join(argv) or "<none>",
)
def test_help_and_usage_errors_fill_in_every_command(capsys, monkeypatch, argv):
    ((factory, parser),) = built_parsers(capsys, monkeypatch, argv)
    assert factory == "_build_parser"
    assert dests(subparsers(parser)) == dests(subparsers(reference_parser()))


def test_the_table_lists_each_commands_arguments():
    assert dests(subparsers(reference_parser())) == {
        "analyze": ["help", "file", "format"],
        "decompose": ["help", "file", "contains"],
        "check": ["help", "file", "parts"],
        "numbers": ["help", "file", "parts"],
        "steady-state": ["help", "file", "rates", "point", "tol"],
    }


@pytest.mark.parametrize(
    "argv, factory",
    [
        ([], "_build_parser"),
        (["-h"], "_build_parser"),
        (["bogus"], "_build_parser"),
        (["analyze"], "_command_parser"),
        (["numbers", BACCAM], "_command_parser"),
    ],
    ids=lambda case: " ".join(case) if isinstance(case, list) else case,
)
def test_each_main_call_builds_one_parser(capsys, monkeypatch, argv, factory):
    assert [name for name, _ in built_parsers(capsys, monkeypatch, argv)] == [factory]


def test_only_main_builds_the_parser():
    assert callers("_build_parser") == {"cli.main"}
    assert callers("_command_parser") == {"cli.main"}


RUNS = [
    ["analyze", BACCAM],
    ["decompose", BACCAM],
    ["check", BACCAM, "--parts", "R1,R2|R3,R4"],
    ["numbers", BACCAM],
    ["steady-state", BACCAM, *STEADY],
]


@pytest.mark.parametrize(
    "argv, parsers",
    [*((argv, 1) for argv in RUNS), (["-h"], 6), (["bogus"], 6)],
    ids=lambda case: case[0] if isinstance(case, list) else str(case),
)
def test_argument_parsers_built_per_call(capsys, monkeypatch, argv, parsers):
    # A run builds its command's parser; help and usage errors build the
    # top-level parser and one subparser per command.
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
    assert cli._build_parser() is not cli._build_parser()
    assert cli._command_parser("check") is not cli._command_parser("check")


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


def fresh_outcome(argv):
    """The exit code, stdout and stderr of ``argv`` in a new ``crn`` process.

    The child imports the crnkit under test, installed or not, and reads the
    same terminal width and colour settings as this process.
    """
    src = os.path.dirname(os.path.dirname(crnkit.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crnkit.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_keeps_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    fresh = {}
    sequence = stateless_sequence()
    for argv in sequence:
        key = tuple(argv)
        if key not in fresh:
            fresh[key] = fresh_outcome(argv)
    codes = set()
    for _ in range(2):
        for argv in sequence:
            got = outcome(capsys, list(argv))
            assert got == fresh[tuple(argv)], argv
            codes.add(got[0])
    assert codes == {0, 1, 3}


def test_a_commands_help_follows_the_terminal_width_of_each_call(capsys, monkeypatch):
    # Each call's parser reads the terminal width when it formats its help,
    # so a width set between in-process calls shows in the next help.
    monkeypatch.setenv("NO_COLOR", "1")
    widths = ("40", "120")
    fresh = {}
    for columns in widths:
        monkeypatch.setenv("COLUMNS", columns)
        for name in cli._COMMANDS:
            code, out, err = fresh_outcome([name, "-h"])
            assert code == 0
            fresh[columns, name] = (("SystemExit", 0), out, err)
    for name in cli._COMMANDS:
        assert fresh["40", name] != fresh["120", name]
    for columns in (*widths, *widths):
        monkeypatch.setenv("COLUMNS", columns)
        for name in cli._COMMANDS:
            assert outcome(capsys, [name, "-h"]) == fresh[columns, name], (columns, name)


def add_argument_calls(monkeypatch):
    """The (prog, flags) of each ``add_argument`` call made from now on.

    ``prog`` is None for a call on an argument group.
    """
    calls = []
    real = argparse._ActionsContainer.add_argument

    def recording(self, *args, **kwargs):
        calls.append((getattr(self, "prog", None), args))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    return calls


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
def test_a_commands_arguments_are_declared_once_per_process(capsys, monkeypatch, argv):
    cli._arguments.cache_clear()
    calls = add_argument_calls(monkeypatch)
    name = argv[0]
    assert outcome(capsys, list(argv))[0] in (0, 3)
    declared = [("-h", "--help"), *(flags for flags, _ in cli._COMMANDS[name][2])]
    assert calls == [(f"crn {name}", flags) for flags in declared]
    calls.clear()
    assert outcome(capsys, list(argv))[0] in (0, 3)
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["-h", "check"], ["bogus"], ["-x", "analyze", "-h"]],
    ids=lambda argv: " ".join(argv) or "<none>",
)
def test_help_and_usage_errors_declare_only_the_top_level_help(capsys, monkeypatch, argv):
    # The subparsers copy each command's declarations; only the top-level
    # parser's own -h is declared by the call.
    for run in RUNS:
        outcome(capsys, list(run))
    calls = add_argument_calls(monkeypatch)
    assert outcome(capsys, list(argv))[0] in (1, ("SystemExit", 0))
    assert calls == [("crn", ("-h", "--help"))]


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_each_parser_shares_its_commands_declarations(name):
    first, second = cli._command_parser(name), cli._command_parser(name)
    assert first is not second
    assert first._actions is not second._actions
    shared = cli._arguments(name)._actions
    for parser in (first, second, subparsers(cli._build_parser())[name]):
        assert len(parser._actions) == len(shared)
        assert all(a is b for a, b in zip(parser._actions, shared))


def declarations():
    """A deep copy of every command's declared actions, each with its identity.

    argparse writes ``container`` into an action each time a parser copies
    it in; only ``conflict_handler="resolve"``, which crn does not use, reads it.
    """
    return {
        name: [
            (id(action), copy.deepcopy({k: v for k, v in vars(action).items() if k != "container"}))
            for action in cli._arguments(name)._actions
        ]
        for name in cli._COMMANDS
    }


def test_no_call_changes_the_shared_declarations(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    before = declarations()
    codes = set()
    for argv in [*stateless_sequence(), ["-h"], *([name, "-h"] for name in cli._COMMANDS)]:
        codes.add(outcome(capsys, list(argv))[0])
    assert codes == {0, 1, 3, ("SystemExit", 0)}
    assert declarations() == before


def test_importing_the_cli_builds_no_argument_parser():
    # A fresh interpreter, so no earlier call has built a parser.
    probe = (
        "import argparse; built = []; real = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self); real(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import crnkit.cli; print(len(built))"
    )
    src = os.path.dirname(os.path.dirname(crnkit.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", BACCAM, "--parts", "R1,R2|R3,R4"],
        ["check", "-h"],
        ["-h"],
        ["check", BACCAM],
        ["bogus"],
    ],
    ids=" ".join,
)
def test_main_needs_no_program_name_in_sys_argv(capsys, monkeypatch, argv):
    # Every parser and declaration names its prog, so none reads sys.argv[0].
    want = outcome(capsys, list(argv))
    cli._arguments.cache_clear()
    monkeypatch.setattr(sys, "argv", [])
    assert outcome(capsys, list(argv)) == want
    assert want[0] in (0, 1, ("SystemExit", 0))
