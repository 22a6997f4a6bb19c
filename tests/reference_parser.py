"""A frozen copy of the DSL parser, the oracle for `crnkit.parser`.

`parse_network` and `parse_file` below are the parser as it was before it
computed reaction vectors as it read and left the `Species` and `Complex`
records to be built on demand.  They are kept verbatim, except that they
return the parts they read, not a `Network`: the species names, each
complex's sorted (species index, coefficient) pairs, the reactions, the
labels and each reaction's sparse vector.  They raise crnkit's own errors,
so an error can be compared by type, message and line.
"""

from __future__ import annotations

import os
import re

from crnkit.model import (
    DuplicateLabelError,
    DuplicateReactionError,
    EmptyNetworkError,
    Reaction,
    SelfLoopError,
)
from crnkit.parser import DslSyntaxError

Parts = tuple

_IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"  # a species name or a reaction label
_LABEL_RE = re.compile(rf"^({_IDENTIFIER})\s*:\s*(.*)$")
_TERM_RE = re.compile(rf"^([0-9]+)?\s*({_IDENTIFIER})$")


def _difference(
    product: tuple[tuple[int, int], ...], reactant: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Product minus reactant as sorted (species index, nonzero change) pairs."""
    diff = dict(product)
    for i, c in reactant:
        diff[i] = diff.get(i, 0) - c
    return tuple(sorted((i, c) for i, c in diff.items() if c))


def parse_network(text: str) -> Parts:
    """Parse DSL source into the parts of a `Network`.

    Raises `DslSyntaxError`, `SelfLoopError`, `DuplicateReactionError`,
    `DuplicateLabelError`, or `EmptyNetworkError`, each pointing at the
    offending line where one exists.
    """
    species_index: dict[str, int] = {}
    complex_index: dict[tuple[tuple[int, int], ...], int] = {}
    # Each distinct side and term text is parsed once; only text that parsed
    # without error is ever stored, so a repeat cannot hide an error.
    side_index: dict[str, int] = {}
    term_index: dict[str, tuple[int, int]] = {}
    reactions: list[Reaction] = []
    defaulted: list[int] = []
    pair_lines: dict[tuple[int, int], int] = {}
    label_lines: dict[str, int] = {}

    def parse_term(term: str, line_no: int) -> tuple[int, int]:
        m = _TERM_RE.match(term)
        if not m:
            raise DslSyntaxError(f"invalid term {term!r}", line_no)
        digits = m.group(1)
        try:
            coeff = int(digits) if digits else 1
        except ValueError:  # beyond the interpreter's int/str conversion limit
            raise DslSyntaxError(
                f"stoichiometric coefficient with {len(digits)} digits is too large",
                line_no,
            ) from None
        if coeff < 1:
            raise DslSyntaxError(
                f"stoichiometric coefficient must be positive in {term!r}", line_no
            )
        return species_index.setdefault(m.group(2), len(species_index)), coeff

    def parse_complex(s: str, line_no: int) -> int:
        if not s:
            raise DslSyntaxError("missing complex", line_no)
        coeffs: dict[int, int] = {}
        if s != "0":
            for chunk in s.split("+"):
                term = chunk.strip()
                found = term_index.get(term)
                if found is None:
                    found = term_index[term] = parse_term(term, line_no)
                idx, coeff = found
                coeffs[idx] = coeffs.get(idx, 0) + coeff
        return complex_index.setdefault(tuple(sorted(coeffs.items())), len(complex_index))

    def complex_of(src: str, line_no: int) -> int:
        s = src.strip()
        found = side_index.get(s)
        if found is None:
            found = side_index[s] = parse_complex(s, line_no)
        return found

    def add_reaction(reactant: int, product: int, label: str | None, line_no: int) -> None:
        pair = (reactant, product)
        if pair in pair_lines:
            raise DuplicateReactionError(
                f"reaction duplicates the one on line {pair_lines[pair]}", line_no
            )
        pair_lines[pair] = line_no
        if label is not None:
            if label in label_lines:
                raise DuplicateLabelError(
                    f"label {label!r} already used on line {label_lines[label]}", line_no
                )
            label_lines[label] = line_no
        else:
            defaulted.append(len(reactions))
            label = f"R{len(reactions) + 1}"
        reactions.append(Reaction(reactant, product, label))

    # Only CR LF, CR and LF end a line; str.splitlines would also break at
    # form feeds and Unicode separators, which are whitespace here.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0]
        if ";" in line:
            # Only a comment may follow ';', and '#' comments are gone by now.
            line, tail = line.split(";", 1)
            if tail.strip():
                raise DslSyntaxError(f"unexpected text after ';': {tail.strip()!r}", line_no)
        line = line.strip()
        if not line:
            continue

        label: str | None = None
        m = _LABEL_RE.match(line)
        if m:
            label, line = m.group(1), m.group(2)

        if "<->" in line:
            sides = line.split("<->")
            if len(sides) != 2 or "->" in sides[0] or "->" in sides[1]:
                raise DslSyntaxError("expected exactly one arrow", line_no)
            reversible = True
        else:
            sides = line.split("->")
            if len(sides) != 2:
                raise DslSyntaxError("expected exactly one arrow ('->' or '<->')", line_no)
            reversible = False

        reactant = complex_of(sides[0], line_no)
        product = complex_of(sides[1], line_no)
        if reactant == product:
            raise SelfLoopError(
                "reactant and product complexes are identical", line_no
            )

        if reversible:
            fwd = f"{label}f" if label is not None else None
            bwd = f"{label}b" if label is not None else None
            add_reaction(reactant, product, fwd, line_no)
            add_reaction(product, reactant, bwd, line_no)
        else:
            add_reaction(reactant, product, label, line_no)

    if not reactions:
        raise EmptyNetworkError("no reactions found in input")

    # Positional default labels are checked against every explicit label,
    # earlier or later in the file, so a collision is reported with a line.
    for i in defaulted:
        default = reactions[i].label
        if default in label_lines:
            raise DuplicateLabelError(
                f"default label {default!r} for reaction {i + 1} collides with an "
                "explicit label",
                label_lines[default],
            )

    # The network's parts, as the parser once handed them to the model.
    terms = tuple(complex_index)
    return (
        tuple(species_index),
        terms,
        tuple(reactions),
        tuple(rx.label for rx in reactions),
        tuple(_difference(terms[rx.product], terms[rx.reactant]) for rx in reactions),
    )


def parse_file(path: str | os.PathLike[str]) -> Parts:
    """Parse a ``.crn`` file (UTF-8 text, with or without a byte-order mark)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as parse_network counts them: CR LF, CR or LF.
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise DslSyntaxError(
            f"file is not valid UTF-8 text (byte {exc.start})", head.count(b"\n") + 1
        ) from None
    return parse_network(text.removeprefix("\ufeff"))
