"""Each `crn` process builds one argument parser, on its first call, and parses each call once.

`cli._build_parser`, cached once per process, declares each command's
subparser with its arguments and sets the command's handler as the
subparser's ``run`` default.  A call whose first word names a command is
parsed by that command's subparser alone, so it can print no other
command's name: the others appear only in the top-level help and the
"invalid choice" error.  The top-level parser answers only the calls that
name no command.  argparse reads the terminal width and colour settings
each time it formats help, so help follows each call's settings.  The tests
below compare `main` against a reference that parses the whole argv with a
top-level parser built anew for each call by the same declarations (the
uncached `_build_parser`) and runs the handler, on the interpreter under
test (argparse's wording differs between Python versions), and check that
`main` keeps no state between calls and that no call changes the one parser.
"""

import argparse
import copy
import io
import sys

import pytest

from crnkit import cli, parse_file
from conftest import NETWORKS_DIR, outcomes
from test_one_elimination import callers
from test_stdlib_only import fresh

BACCAM = str(NETWORKS_DIR / "baccam.crn")
STEADY = ["--rates", "R1=1,R2=1,R3=1,R4=1", "--point", "T=1,V=1,I=1"]
# Taken at import: `reference_outcome` replaces `cli._build_parser` itself.
BUILD_PARSER = cli._build_parser.__wrapped__
# Each command and the flags of its arguments, in the order they are declared.
ARGUMENTS = {
    "analyze": [("file",), ("--format",)],
    "decompose": [("file",), ("--contains",)],
    "check": [("file",), ("--parts",)],
    "numbers": [("file",), ("--parts",)],
    "steady-state": [("file",), ("--rates",), ("--point",), ("--tol",)],
}


def top_level_only():
    """A parser built anew by the same declarations, with no command for `main` to route to.

    `main` then parses the whole argv with the top-level parser, which hands
    a command's words on to its subparser, and runs the handler: the route
    every call took before a call naming a command went to its own parser.
    """
    parser, _ = BUILD_PARSER()
    return parser, {}


# A ``crn`` process whose `main` takes the top-level route, for `outcomes`.
TOP_LEVEL_MAIN = (
    "import sys; from crnkit import cli; build = cli._build_parser.__wrapped__; "
    "cli._build_parser = lambda: (build()[0], {}); sys.exit(cli.main())"
)

ARGVS = [
    # help, for the top level and for each command
    ["-h"],
    ["--help"],
    *([name, flag] for name in ARGUMENTS for flag in ("-h", "--help")),
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
    # the words after the command, as the top-level parser hands them on
    ["analyze", "-x", BACCAM],
    ["check", BACCAM, "--parts", "R1,R2|R3,R4", "extra"],
    ["steady-state", "--", BACCAM, *STEADY],
    ["decompose", "--contains"],
]


def parses(monkeypatch):
    """From now on, the ``prog`` of each parser that parses, and "subparsers" for each hand-on.

    A hand-on is the top-level parser's subparsers action passing a command's
    words to its subparser.
    """
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    hand_on = argparse._SubParsersAction.__call__

    def recording(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    def handing_on(self, *args, **kwargs):
        calls.append("subparsers")
        return hand_on(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    monkeypatch.setattr(argparse._SubParsersAction, "__call__", handing_on)
    return calls


def outcome(capsys, argv):
    """``main``'s exit code (or ``SystemExit`` code), stdout and stderr for ``argv``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_outcome(capsys, monkeypatch, argv):
    """``outcome`` on the top-level route, which the call is checked to have taken."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", top_level_only)
        calls = parses(m)
        got = outcome(capsys, argv)
    assert calls[0] == "crn" and calls.count("crn") == 1, calls
    return got


def test_the_argv_cases_cover_the_listed_kinds():
    assert len(ARGVS) >= 35


WIDTHS = ("40", "120")


def argv_ids(argv):
    return " ".join(argv) or "<none>"


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("argv", ARGVS, ids=argv_ids)
def test_main_matches_the_top_level_route(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    got = outcome(capsys, list(argv))
    assert got == reference_outcome(capsys, monkeypatch, list(argv))
    assert got[0] in (0, 1, 3, ("SystemExit", 0))


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("name", [None, *ARGUMENTS], ids=lambda name: name or "crn")
def test_help_is_argparses_own(capsys, monkeypatch, name, columns):
    # The routes above share `cli._ArgumentParser.print_help`; here its text is
    # checked against argparse's own, written to a stream of the caller's.
    monkeypatch.setenv("COLUMNS", columns)
    parser, commands = cli._build_parser()
    own = io.StringIO()
    argparse.ArgumentParser.print_help(parser if name is None else commands[name], file=own)
    got = outcome(capsys, ["-h"] if name is None else [name, "-h"])
    assert got == (("SystemExit", 0), own.getvalue(), "")
    assert own.getvalue().startswith("usage: crn")


@pytest.mark.parametrize("columns", WIDTHS)
def test_crn_processes_match_the_top_level_route(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    got = outcomes(ARGVS, text=True)
    want = outcomes(ARGVS, TOP_LEVEL_MAIN, text=True)
    for argv, one, other in zip(ARGVS, got, want):
        assert one == other, argv
    assert {code for code, _, _ in got} == {0, 1, 3}


@pytest.mark.parametrize("argv", ARGVS, ids=argv_ids)
def test_each_call_is_parsed_once(capsys, monkeypatch, argv):
    # A call naming a command runs that command's parser alone; any other call
    # runs the top-level parser once, which may hand a command's words on.
    cli._build_parser()
    calls = parses(monkeypatch)
    outcome(capsys, list(argv))
    if argv and argv[0] in ARGUMENTS:
        assert calls == [f"crn {argv[0]}"]
    else:
        assert calls[0] == "crn" and calls.count("crn") == 1, calls


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["crn", "check", BACCAM, "--parts", "R1,R2|R3,R4"])
    got = outcome(capsys, None)
    assert got == reference_outcome(capsys, monkeypatch, None)
    assert got[0] == 0


@pytest.mark.parametrize("name", ARGUMENTS)
def test_a_command_prints_the_same_help_after_an_unknown_option(capsys, name):
    # The top-level parser, reading "-x" first, still hands "-h" to the
    # command's subparser, which prints the help that the command's own
    # route prints, before the unknown "-x" is reported.
    own = outcome(capsys, [name, "-h"])
    assert own == outcome(capsys, ["-x", name, "-h"])
    assert own[0] == ("SystemExit", 0)
    assert own[1].startswith(f"usage: crn {name} ")


def parsers_asked_for(capsys, monkeypatch, argv):
    """Each parser ``main`` gets from `cli._build_parser` for ``argv``."""
    asked = []
    real = cli._build_parser

    def record():
        asked.append(real())
        return asked[-1]

    monkeypatch.setattr(cli, "_build_parser", record)
    outcome(capsys, argv)
    return asked


def dests(choices):
    return {name: [action.dest for action in p._actions] for name, p in choices.items()}


def test_each_command_declares_its_arguments():
    assert dests(BUILD_PARSER()[1]) == {
        "analyze": ["help", "file", "format"],
        "decompose": ["help", "file", "contains"],
        "check": ["help", "file", "parts"],
        "numbers": ["help", "file", "parts"],
        "steady-state": ["help", "file", "rates", "point", "tol"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["-h", "check"],
        ["bogus"],
        ["-"],
        ["--", "analyze"],
        ["analyze"],
        ["numbers", BACCAM],
        ["check", BACCAM, "--parts", "R1,R2|R3,R4"],
    ],
    ids=argv_ids,
)
def test_each_main_call_parses_with_the_one_parser(capsys, monkeypatch, argv):
    # Help and usage errors name every command, so the one parser fills in all five.
    built = cli._build_parser()
    assert parsers_asked_for(capsys, monkeypatch, argv) == [built]
    assert dests(built[1]) == dests(BUILD_PARSER()[1])


def test_only_main_builds_the_parser():
    assert callers("_build_parser") == {"cli.main"}


RUNS = [
    ["analyze", BACCAM],
    ["decompose", BACCAM],
    ["check", BACCAM, "--parts", "R1,R2|R3,R4"],
    ["numbers", BACCAM],
    ["steady-state", BACCAM, *STEADY],
]
HELP_AND_ERRORS = [
    [],
    ["-h"],
    ["-h", "check"],
    ["bogus"],
    ["-x", "analyze", "-h"],
    ["check", BACCAM],
]


def test_each_process_builds_one_parser():
    assert cli._build_parser() is cli._build_parser()


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
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    sequence = stateless_sequence()
    calls = list(dict.fromkeys(map(tuple, sequence)))
    fresh = dict(zip(calls, outcomes(calls, text=True)))
    codes = set()
    for _ in range(2):
        for argv in sequence:
            got = outcome(capsys, list(argv))
            assert got == fresh[tuple(argv)], argv
            codes.add(got[0])
    assert codes == {0, 1, 3}


def test_a_commands_help_follows_the_terminal_width_of_each_call(capsys, monkeypatch):
    # The one parser reads the terminal width each time it formats help, so
    # a width set between in-process calls shows in the next help.  In new
    # processes, "crn -x CMD -h", where the top-level parser hands "-h" to
    # the command's parser, prints what "crn CMD -h" prints, at each width
    # and with COLUMNS unset.
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.delenv("COLUMNS", raising=False)
    argvs = [argv for name in ARGUMENTS for argv in ([name, "-h"], ["-x", name, "-h"])]
    fresh = {}
    for columns in (None, "40", "120"):
        runs = outcomes(argvs, env={} if columns is None else {"COLUMNS": columns}, text=True)
        for name, direct, routed in zip(ARGUMENTS, runs[::2], runs[1::2]):
            assert direct == routed and direct[0] == 0, (columns, name)
            fresh[columns, name] = (("SystemExit", 0), *direct[1:])
    for name in ARGUMENTS:
        assert fresh["40", name] != fresh["120", name]
    for columns in ("40", "120", "40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for name in ARGUMENTS:
            assert outcome(capsys, [name, "-h"]) == fresh[columns, name], (columns, name)


def parsers_and_declarations(monkeypatch):
    """The parsers built, and the (prog, flags) of each ``add_argument`` call made, from now on.

    ``prog`` is None for a call on an argument group.
    """
    built, calls = [], []
    init, add_argument = argparse.ArgumentParser.__init__, argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording(self, *args, **kwargs):
        calls.append((getattr(self, "prog", None), args))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    return built, calls


@pytest.mark.parametrize("argv", ARGVS, ids=argv_ids)
def test_the_first_call_builds_the_parser_and_later_calls_build_none(capsys, monkeypatch, argv):
    # Whatever the first call is, it builds the top-level parser and one
    # subparser per command, declaring each argument once; later calls of
    # every kind build no parser and declare nothing.
    cli._build_parser.cache_clear()
    built, calls = parsers_and_declarations(monkeypatch)
    outcome(capsys, list(argv))
    assert len(built) == 1 + len(ARGUMENTS)
    assert calls == [("crn", ("-h", "--help"))] + [
        (f"crn {name}", flags)
        for name, arguments in ARGUMENTS.items()
        for flags in [("-h", "--help"), *arguments]
    ]
    built.clear()
    calls.clear()
    codes = {outcome(capsys, list(later))[0] for later in [*RUNS, *HELP_AND_ERRORS, argv]}
    assert codes >= {0, 1, 3, ("SystemExit", 0)}
    assert built == [] and calls == []


@pytest.mark.parametrize("name", ARGUMENTS)
def test_each_command_has_one_subparser_with_the_hooks(name):
    # The subparser is an _ArgumentParser, so its errors and help go through
    # the same three hooks as the top-level parser's; `main` runs its handler.
    parser = cli._build_parser()[1][name]
    assert parser is cli._build_parser()[1][name]
    assert type(parser) is cli._ArgumentParser
    assert parser.prog == f"crn {name}"
    declared = [("-h", "--help"), *ARGUMENTS[name]]
    assert [tuple(a.option_strings) or (a.dest,) for a in parser._actions] == declared
    assert parser.get_default("run") is getattr(cli, "_cmd_" + name.replace("-", "_"))


def declarations():
    """The one parser's identity, and a deep copy of every subparser's actions.

    ``container``, the argument group that holds an action, is kept by its
    identity: a deep copy of it would copy, and so never equal, the parser.
    """
    parser, commands = cli._build_parser()
    return id(parser), {
        name: [
            (
                id(action),
                id(action.container),
                copy.deepcopy({k: v for k, v in vars(action).items() if k != "container"}),
            )
            for action in command._actions
        ]
        for name, command in commands.items()
    }


def test_no_call_changes_the_shared_declarations(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    before = declarations()
    codes = set()
    for argv in [*stateless_sequence(), ["-h"], *([name, "-h"] for name in ARGUMENTS)]:
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
    assert fresh(probe) == 0


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
    # Every parser names its prog, so none reads sys.argv[0].
    want = outcome(capsys, list(argv))
    cli._build_parser.cache_clear()
    monkeypatch.setattr(sys, "argv", [])
    assert outcome(capsys, list(argv)) == want
    assert want[0] in (0, 1, ("SystemExit", 0))
