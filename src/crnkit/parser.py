"""Parser for the plain-text reaction DSL (conventional extension ``.crn``).

One reaction per line::

    R1: T + V -> I + V      # optional label before ':', '#' starts a comment
    R2: I -> 0              ; the zero complex is written 0
    bind: A + B <-> C       # reversible, expands to 'bindf' and 'bindb'

Grammar::

    line      := [label ":"] complex arrow complex [";" comment] | comment | blank
    label     := identifier
    arrow     := "->" | "<->"
    complex   := "0" | term ("+" term)*
    term      := [positive-integer] identifier      e.g. "2 X5" or "2X5"
    comment   := "#" to end of line

Species identifiers are ASCII letters, digits, and underscores, not
starting with a digit.  Species order is first-appearance order (reactant
side scanned before product side), complex order is first-appearance order,
reaction order is source order.  A reversible arrow expands into the forward
then the backward reaction; with an explicit label the pair is labeled
``<label>f`` / ``<label>b``, otherwise both fall back to the positional
defaults ``R<k>``.  Each reaction's vector is computed as the reaction is
read; the network gets names and terms and builds its records on demand.
"""

from __future__ import annotations

import os

from .model import (
    DuplicateLabelError,
    DuplicateReactionError,
    EmptyNetworkError,
    Network,
    NetworkError,
    Reaction,
    SelfLoopError,
    _difference,
    _Terms,
)


class DslSyntaxError(NetworkError):
    """Malformed DSL line; carries the 1-based line number."""


def _is_identifier(text: str) -> bool:
    """Whether ``text`` is a species name or label, ``[A-Za-z_][A-Za-z0-9_]*`` in full."""
    return text.isascii() and text.isidentifier()


def parse_network(text: str) -> Network:
    """Parse DSL source into a `Network`.

    Raises `DslSyntaxError`, `SelfLoopError`, `DuplicateReactionError`,
    `DuplicateLabelError`, or `EmptyNetworkError`, each pointing at the
    offending line where one exists.
    """
    species_index: dict[str, int] = {}
    complex_index: dict[_Terms, int] = {}
    # Each distinct side and term text is parsed once; only text that parsed
    # without error is ever stored, so a repeat cannot hide an error.  A side
    # maps to its complex's index and terms, by its text as written and stripped.
    side_index: dict[str, tuple[int, _Terms]] = {}
    term_index: dict[str, tuple[int, int]] = {}
    reactions: list[Reaction] = []
    vectors: list[_Terms] = []
    defaulted: list[int] = []
    pair_lines: dict[tuple[int, int], int] = {}
    label_lines: dict[str, int] = {}

    def parse_term(term: str, line_no: int) -> tuple[int, int]:
        name = term.lstrip("0123456789")  # a coefficient's digits are ASCII
        digits, name = term[: len(term) - len(name)], name.lstrip()
        if not _is_identifier(name):
            raise DslSyntaxError(f"invalid term {term!r}", line_no)
        try:
            coeff = int(digits) if digits else 1
        except ValueError:  # beyond the interpreter's int/str conversion limit
            raise DslSyntaxError(
                f"stoichiometric coefficient with {len(digits)} digits is too large", line_no
            ) from None
        if coeff < 1:
            raise DslSyntaxError(
                f"stoichiometric coefficient must be positive in {term!r}", line_no
            )
        return species_index.setdefault(name, len(species_index)), coeff

    def complex_of(side: str, line_no: int) -> tuple[int, _Terms]:
        s = side.strip()
        found = side_index.get(s)
        if found is None:
            if not s:
                raise DslSyntaxError("missing complex", line_no)
            coeffs: dict[int, int] = {}
            for chunk in s.split("+") if s != "0" else ():
                term = chunk.strip()
                idx_coeff = term_index.get(term)
                if idx_coeff is None:
                    idx_coeff = term_index[term] = parse_term(term, line_no)
                idx, coeff = idx_coeff
                coeffs[idx] = coeffs.get(idx, 0) + coeff
            terms = tuple(sorted(coeffs.items()))
            found = side_index[s] = complex_index.setdefault(terms, len(complex_index)), terms
        side_index[side] = found
        return found

    def add_reaction(
        pair: tuple[int, int], label: str | None, vector: _Terms, line_no: int
    ) -> None:
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
        reactions.append(Reaction(*pair, label))
        vectors.append(vector)

    # Only CR LF, CR and LF end a line; str.splitlines would also break at
    # form feeds and Unicode separators, which are whitespace here.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, 1):
        line = raw.partition("#")[0]
        if ";" in line:
            # Only a comment may follow ';', and '#' comments are gone by now.
            line, _, tail = line.partition(";")
            if tail.strip():
                raise DslSyntaxError(f"unexpected text after ';': {tail.strip()!r}", line_no)
        line = line.strip()
        if not line:
            continue

        label: str | None = None
        if ":" in line:
            head, _, rest = line.partition(":")
            if _is_identifier(head := head.rstrip()):
                label, line = head, rest

        reversible = "<->" in line
        sides = line.split("<->" if reversible else "->")
        if reversible and (len(sides) != 2 or "->" in sides[0] or "->" in sides[1]):
            raise DslSyntaxError("expected exactly one arrow", line_no)
        if len(sides) != 2:
            raise DslSyntaxError("expected exactly one arrow ('->' or '<->')", line_no)

        reactant, before = side_index.get(sides[0]) or complex_of(sides[0], line_no)
        product, after = side_index.get(sides[1]) or complex_of(sides[1], line_no)
        if reactant == product:
            raise SelfLoopError("reactant and product complexes are identical", line_no)

        vector = _difference(after, before)
        if reversible:
            fwd, bwd = (f"{label}f", f"{label}b") if label is not None else (None, None)
            add_reaction((reactant, product), fwd, vector, line_no)
            add_reaction((product, reactant), bwd, tuple((i, -c) for i, c in vector), line_no)
        else:
            add_reaction((reactant, product), label, vector, line_no)

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

    # Every part is checked above, with its line, so the network's own
    # validation would only repeat it.
    net = Network.__new__(Network)
    labels = tuple(rx.label for rx in reactions)
    net._assemble(
        tuple(species_index), tuple(complex_index), tuple(reactions), labels, tuple(vectors)
    )
    return net


def parse_file(path: str | os.PathLike[str]) -> Network:
    """Parse a ``.crn`` file (UTF-8 text, with or without a byte-order mark)."""
    # One unbuffered read: the whole file is wanted, so a buffer only copies it.
    with open(path, "rb", buffering=0) as fh:
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


def to_dsl(net: Network) -> str:
    """Serialize a network to DSL text, one labeled ``->`` reaction per line.

    ``parse_network(to_dsl(net)) == net`` when the species and complexes are
    in first-appearance order and every species occurs in some complex, as in
    any parsed network.  `NetworkError` names the first species name or label
    that is not a DSL identifier: ``2A`` would be read back as ``2 A``.
    """
    for kind, names in (("species name", net.species_names), ("label", net.labels)):
        bad = next((name for name in names if not _is_identifier(name)), None)
        if bad is not None:
            raise NetworkError(f"{kind} {bad!r} is not a DSL identifier")
    return "".join(net.reaction_string(i) + "\n" for i in range(net.reaction_count))
