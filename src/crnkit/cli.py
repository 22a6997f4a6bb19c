"""Command-line interface: ``crn analyze|decompose|check|numbers|steady-state``.

Exit codes: 0 success / affirmative verdict, 1 usage or parse error or a
failed write to stdout (a closed stdout included), 2 internal invariant
violation, 3 negative verdict.

`_build_parser` declares each command's subparser, its arguments and its
handler, set as the subparser's ``run`` default.  Each process builds that
one parser on its first call.  A call whose first word names a command is
parsed by that command's subparser alone; the top-level parser answers only
the calls that name none.
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

    # With stdout closed, argparse would print help to stderr instead; `exit` reports it.
    def print_help(self, file=None):  # noqa: D102 - argparse hook
        if file is not None or sys.stdout is not None:
            super().print_help(file)

    # Only help reaches this hook: its text is flushed while `main` can catch a failed write.
    def exit(self, status: int = 0, message: str | None = None):  # noqa: D102 - argparse hook
        _flush_stdout()
        super().exit(status, message)


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


def _cmd_analyze(args: argparse.Namespace, net: Network) -> int:
    report = build_report(net).to_dict()
    if args.format == "json":
        print(json_dumps(report))
    else:
        print(render_text(report), end="")
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace, net: Network) -> int:
    if args.contains is not None:
        index = net.label_index()
        if args.contains not in index:
            raise _UsageError(f"unknown reaction label {args.contains!r}")
        chosen = index[args.contains]
        rest = [i for i in range(net.reaction_count) if i != chosen]
        if not rest:
            print(f"{{{args.contains}}} is the whole network (trivial decomposition)")
            return EXIT_NEGATIVE
        rep = verify_decomposition(net, [[chosen], rest])
        eq = rank_equation(rep.network_rank, list(rep.part_ranks))
        verb = "form" if rep.independent else "do not form"
        print(f"{{{args.contains}}} and its complement {verb} an independent decomposition ({eq})")
        return EXIT_OK if rep.independent else EXIT_NEGATIVE

    decomposition = find_independent_decomposition(net)
    if decomposition is None:
        print("trivial only")
        return EXIT_NEGATIVE
    for k, part in enumerate(decomposition.labels(net), 1):
        print(f"P{k}: {', '.join(part)}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace, net: Network) -> int:
    parts = _parse_parts(args.parts, net)
    rep = verify_decomposition(net, parts)
    print("\n".join(rank_condition_lines(independence_to_dict(rep))))
    return EXIT_OK if rep.independent else EXIT_NEGATIVE


def _cmd_numbers(args: argparse.Namespace, net: Network) -> int:
    # One elimination of the network; each part's column is read from it.
    parts = () if args.parts is None else _parse_parts(args.parts, net)
    whole, structures = _structures(net, parts)
    columns = [("N", numbers_to_dict(whole.numbers))]
    columns += [(f"N{k}", numbers_to_dict(st.numbers)) for k, st in enumerate(structures, 1)]
    print(format_numbers_table(columns))
    return EXIT_OK


def _cmd_steady_state(args: argparse.Namespace, net: Network) -> int:
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
    print(f"f(x) = ({formatted})")
    print("steady state" if steady else "not a steady state")
    return EXIT_OK if steady else EXIT_NEGATIVE


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


def _flush_stdout() -> None:
    """Flush stdout; a closed stdout fails as a write to a closed descriptor does.

    Python sets ``sys.stdout`` to None when file descriptor 1 is closed at
    start-up, and `print` then writes nothing, so the failure is raised here.
    """
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.flush()


def _settle_stdout() -> None:
    """Flush stdout, or else point its file descriptor at ``os.devnull``.

    What a failed write leaves in the buffer would fail again when the
    interpreter flushes stdout at exit, and print "Exception ignored" (see
    the note on SIGPIPE in the `signal` documentation).  The ``sys.stdout``
    object itself is kept, so an in-process caller gets back the one it had.
    A closed stdout (None) holds nothing, and descriptor 1 may since belong
    to another file, so it is left alone.
    """
    if sys.stdout is None:
        return
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``crn`` call, ``argv`` being the words after ``crn``; return its exit code.

    A call whose first word names a command is parsed by that command's
    parser alone, with the words after it: the top-level parser would hand
    it the same words.  Any other call is parsed by the top-level parser.
    Both come from the process's one `_build_parser`.
    """
    if argv is None:
        argv = sys.argv[1:]
    stdout = sys.stdout
    # Unbuffered, stdout's buffer is the raw file, and its text layer drops the
    # rest of a short write to a closed pipe without an error.  A buffered
    # writer retries the rest, so the closed pipe raises EPIPE below.
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(stdout.buffer), stdout.encoding, stdout.errors
        )
    try:
        parser, commands = _build_parser()
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        net = parse_file(args.file)
        code = args.run(args, net)
        # A write that fails here, not at interpreter exit, keeps the exit code.
        _flush_stdout()
        return code
    except (_UsageError, NetworkError, PartitionError, OSError) as exc:
        # OSError: the file cannot be read, or stdout cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            _settle_stdout()
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if sys.stdout is not stdout:
            # Flushed, or pointed at os.devnull; the raw file stays stdout's.
            sys.stdout.detach().detach()
            sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
