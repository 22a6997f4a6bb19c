"""Command-line interface: ``crn analyze|decompose|check|numbers|steady-state``.

Exit codes: 0 success / affirmative verdict, 1 usage or parse error or a
failed write to stdout (a closed stdout included), 2 internal invariant
violation, 3 negative verdict.

`_build_parser` declares each command's subparser, its arguments and its
handler, set as the subparser's ``run`` default.  Each process builds that
one parser on its first call.  A call whose first word names a command is
parsed by that command's subparser alone; the top-level parser answers only
the calls that name none.  A handler writes nothing: it returns its exit code,
then the pieces of its stdout text, which `main` hands to `_write`, the one
function that touches ``sys.stdout``.  Help goes through `_write` too.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import math
import os
import sys
from typing import Sequence

from .analysis import Kinetics, _steady_state, _structures
from .decomposition import (
    InternalError,
    PartitionError,
    find_independent_decomposition,
    verify_decomposition,
)
from .model import Network, NetworkError
from .parser import parse_file
from .report import (
    build_report,
    format_numbers_table,
    independence_to_dict,
    json_dumps,
    numbers_to_dict,
    rank_condition_lines,
    render_text,
    rank_equation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_NEGATIVE = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # The exit-code contract reserves 1 for usage errors (argparse uses 2).
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)

    # argparse would print help to stderr when stdout is closed, and would hide a failed write.
    def print_help(self, file=None):  # noqa: D102 - argparse hook
        if file is None:
            _write(self.format_help())
        else:
            super().print_help(file)


def _parse_parts(spec: str, net: Network) -> list[list[int]]:
    index = net.label_index()
    parts: list[list[int]] = []
    seen: set[str] = set()
    for chunk in spec.split("|"):
        labels = [x.strip() for x in chunk.split(",") if x.strip()]
        if not labels:
            raise _UsageError("empty part in --parts")
        part = []
        for label in labels:
            if label not in index:
                raise _UsageError(f"unknown reaction label {label!r}")
            if label in seen:
                raise _UsageError(f"reaction label {label!r} listed twice")
            seen.add(label)
            part.append(index[label])
        parts.append(part)
    missing = [lab for lab in net.labels if lab not in seen]
    if missing:
        raise _UsageError(f"labels not covered by --parts: {', '.join(missing)}")
    return parts


def _parse_assignments(spec: str, what: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for chunk in spec.split(","):
        item = chunk.strip()
        if not item:
            continue
        name, equals, raw = item.partition("=")
        name = name.strip()
        if not equals or not name:
            raise _UsageError(f"expected NAME=VALUE in --{what}, got {item!r}")
        try:
            value = float(raw.strip())
        except ValueError:
            raise _UsageError(f"invalid number {raw.strip()!r} for {name!r}") from None
        if not math.isfinite(value):
            raise _UsageError(f"non-finite number {raw.strip()!r} for {name!r} in --{what}")
        if name in values:
            raise _UsageError(f"{name!r} assigned twice in --{what}")
        values[name] = value
    return values


def _in_order(
    values: dict[str, float], names: Sequence[str], missing: str, unknown: str
) -> list[float]:
    """The values in ``names`` order; a name left out or not in ``names`` is a usage error."""
    absent = [name for name in names if name not in values]
    if absent:
        raise _UsageError(f"{missing}: {', '.join(absent)}")
    extra = [name for name in values if name not in names]
    if extra:
        raise _UsageError(f"{unknown}: {', '.join(extra)}")
    return [values[name] for name in names]


def _cmd_analyze(args: argparse.Namespace, net: Network) -> tuple:
    report = build_report(net).to_dict()
    if args.format == "json":
        return EXIT_OK, json_dumps(report), "\n"
    return EXIT_OK, render_text(report)


def _cmd_decompose(args: argparse.Namespace, net: Network) -> tuple:
    if args.contains is not None:
        index = net.label_index()
        if args.contains not in index:
            raise _UsageError(f"unknown reaction label {args.contains!r}")
        chosen, subset = index[args.contains], f"{{{args.contains}}}"
        rest = [i for i in range(net.reaction_count) if i != chosen]
        if not rest:
            return EXIT_NEGATIVE, f"{subset} is the whole network (trivial decomposition)\n"
        rep = verify_decomposition(net, [[chosen], rest])
        eq = rank_equation(rep.network_rank, list(rep.part_ranks))
        verb = "form" if rep.independent else "do not form"
        line = f"{subset} and its complement {verb} an independent decomposition ({eq})\n"
        return (EXIT_OK if rep.independent else EXIT_NEGATIVE), line

    decomposition = find_independent_decomposition(net)
    if decomposition is None:
        return EXIT_NEGATIVE, "trivial only\n"
    parts = decomposition.labels(net)
    return EXIT_OK, "".join(f"P{k}: {', '.join(part)}\n" for k, part in enumerate(parts, 1))


def _cmd_check(args: argparse.Namespace, net: Network) -> tuple:
    parts = _parse_parts(args.parts, net)
    rep = verify_decomposition(net, parts)
    lines = rank_condition_lines(independence_to_dict(rep))
    return (EXIT_OK if rep.independent else EXIT_NEGATIVE), "\n".join(lines), "\n"


def _cmd_numbers(args: argparse.Namespace, net: Network) -> tuple:
    # One elimination of the network; each part's column is read from it.
    parts = () if args.parts is None else _parse_parts(args.parts, net)
    whole, structures = _structures(net, parts)
    columns = [("N", numbers_to_dict(whole.numbers))]
    columns += [(f"N{k}", numbers_to_dict(st.numbers)) for k, st in enumerate(structures, 1)]
    return EXIT_OK, format_numbers_table(columns), "\n"


def _cmd_steady_state(args: argparse.Namespace, net: Network) -> tuple:
    rates_by_label = _parse_assignments(args.rates, "rates")
    point_by_name = _parse_assignments(args.point, "point")
    rates = _in_order(
        rates_by_label,
        net.labels,
        "missing rate constants for",
        "unknown reaction labels in --rates",
    )
    names = net.species_names
    x = _in_order(
        point_by_name, names, "missing coordinates for species", "unknown species in --point"
    )
    try:
        f, steady = _steady_state(net, Kinetics.mass_action(net, rates), x, args.tol)
    except ValueError as exc:  # DimensionError and NonPositivePointError included
        raise _UsageError(str(exc)) from None
    except OverflowError:
        raise _UsageError(
            "the rates overflow the floating-point range at this point"
        ) from None
    formatted = ", ".join(
        f"{name}: {value + 0.0:.12g}" for name, value in zip(names, f)
    )  # +0.0 folds negative zero into zero
    verdict = "steady state\n" if steady else "not a steady state\n"
    return (EXIT_OK if steady else EXIT_NEGATIVE), f"f(x) = ({formatted})\n", verdict


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``crn`` parser, and its subparsers by command name, each with its handler as ``run``.

    Each process builds them on its first `main` call, never at import, and
    every later call parses with them.  argparse reads the terminal width and
    colour settings each time it formats help, so help still follows the
    settings of each call.
    """
    parser = _ArgumentParser(
        prog="crn",
        description="Analyze chemical reaction networks: independent decompositions, "
        "network numbers, deficiency theorems, and steady-state checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full analysis report")
    analyze.add_argument("file", help="reaction network file (.crn)")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(run=_cmd_analyze)

    decompose = sub.add_parser("decompose", help="finest independent decomposition")
    decompose.add_argument("file")
    decompose.add_argument(
        "--contains",
        metavar="LABEL",
        help="check whether {LABEL} and its complement form an independent decomposition",
    )
    decompose.set_defaults(run=_cmd_decompose)

    check = sub.add_parser("check", help="verify a user-supplied partition")
    check.add_argument("file")
    check.add_argument(
        "--parts", required=True, help="partition by labels: ',' within a part, '|' between parts"
    )
    check.set_defaults(run=_cmd_check)

    numbers = sub.add_parser("numbers", help="network numbers table")
    numbers.add_argument("file")
    numbers.add_argument("--parts", help="optionally add one column per part")
    numbers.set_defaults(run=_cmd_numbers)

    steady = sub.add_parser("steady-state", help="test a point for steady state")
    steady.add_argument("file")
    steady.add_argument("--rates", required=True, help="per-reaction rate constants, e.g. R1=1,R2=2")
    steady.add_argument("--point", required=True, help="per-species concentrations, e.g. X1=2,X2=3")
    steady.add_argument("--tol", type=float, default=1e-9, help="relative tolerance (default 1e-9)")
    steady.set_defaults(run=_cmd_steady_state)
    return parser, sub.choices


def _write(*pieces: str) -> None:
    """Write ``pieces`` to stdout, through to its file; the only code in crnkit that touches it.

    Python sets ``sys.stdout`` to None when file descriptor 1 is closed at
    start-up, and that fails as a write to a closed descriptor does.
    Unbuffered, stdout's buffer is the raw file, and its text layer drops the
    rest of a short write to a closed pipe without an error, so every byte is
    written to the raw file here.  A failed write points stdout's descriptor
    at ``os.devnull`` before the error propagates: what it left in the buffer
    would fail again when the interpreter flushes stdout at exit, and print
    "Exception ignored" (see the note on SIGPIPE in the `signal` documentation).
    """
    stdout = sys.stdout
    if stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    raw = getattr(stdout, "buffer", None)
    try:
        if isinstance(raw, io.RawIOBase):
            for piece in pieces:
                if os.linesep != "\n":  # the text layer's newline translation, as on Windows
                    piece = piece.replace("\n", os.linesep)
                data = memoryview(piece.encode(stdout.encoding, stdout.errors))
                while data:
                    data = data[raw.write(data) :]
        else:
            for piece in pieces:
                stdout.write(piece)
            stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``crn`` call, ``argv`` being the words after ``crn``; return its exit code.

    A call whose first word names a command is parsed by that command's
    parser alone, with the words after it: the top-level parser would hand
    it the same words.  Any other call is parsed by the top-level parser.
    Both come from the process's one `_build_parser`.  The command's handler
    returns its text, and `_write` writes it once.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser, commands = _build_parser()
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        code, *text = args.run(args, parse_file(args.file))
        # A write that fails here, not at interpreter exit, keeps the exit code.
        _write(*text)
        return code
    except (_UsageError, NetworkError, PartitionError, OSError) as exc:
        # OSError: the file cannot be read, or stdout cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
