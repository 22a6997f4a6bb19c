"""Reaction-network data model.

A network is a triple of species, complexes, and reactions.  A complex is a
formal nonnegative-integer combination of species (the empty combination is
the zero complex, written ``0``); a reaction is an ordered pair of distinct
complexes.  All types are immutable after construction; a `Network` builds
its `Species` and `Complex` records on demand, from its names and terms.

Ordering is part of the contract: species, complexes, and reactions keep the
order in which they were given (for parsed networks, first-appearance /
source order), and every downstream computation indexes against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .linalg import RationalMatrix

_Terms = tuple[tuple[int, int], ...]  # sorted (species index, coefficient or change) pairs


class NetworkError(ValueError):
    """Structural problem in a reaction network (or in its DSL source)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SelfLoopError(NetworkError):
    """A reaction whose reactant and product complexes coincide."""


class DuplicateReactionError(NetworkError):
    """The same ordered (reactant, product) complex pair appears twice."""


class DuplicateLabelError(NetworkError):
    """Two reactions carry the same label."""


class EmptyNetworkError(NetworkError):
    """A network with no reactions."""


def _is_int(value: object) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``, which subclasses ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Checked:
    """Runs a record's ``_check`` on every instance, however it is built.

    The records are ``typing.NamedTuple`` classes, which may not define
    ``__new__``.  A record that checks its fields is therefore a subclass with
    this class first in its bases, over the NamedTuple that holds its fields,
    and it defines ``_check``.  The check then runs on construction and in
    ``_make``, which ``_replace`` calls and which would otherwise build the
    tuple directly, skipping ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self


class _SpeciesFields(NamedTuple):
    name: str
    index: int


class Species(_Checked, _SpeciesFields):
    """A chemical species and its position in the network's species order."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.name:
            raise NetworkError("species name must be nonempty")
        if not _is_int(self.index):
            raise NetworkError(f"species index {self.index!r} is not an integer")
        if self.index < 0:
            raise NetworkError("species index must be nonnegative")
        if not isinstance(self.name, str):
            raise NetworkError(f"species name {self.name!r} is not a string")


class Complex:
    """A nonnegative-integer combination of species.

    Stored sparsely as (species index, coefficient) pairs with coefficients
    >= 1; the empty combination is the zero complex.  Complexes compare and
    hash by value, which gives them set semantics within a network.
    """

    __slots__ = ("_terms",)

    def __init__(self, coefficients: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coefficients.items() if isinstance(coefficients, Mapping) else coefficients
        terms = []
        for index, coeff in items:
            if not _is_int(index) or index < 0:
                raise NetworkError(f"invalid species index {index!r} in complex")
            if not _is_int(coeff) or coeff < 1:
                raise NetworkError(
                    f"stoichiometric coefficient for species {index} must be a positive integer"
                )
            terms.append((index, coeff))
        terms.sort()
        if len({i for i, _ in terms}) != len(terms):
            raise NetworkError("duplicate species index in complex")
        self._terms = tuple(terms)

    @classmethod
    def _of(cls, terms: _Terms) -> Complex:
        """The complex of already sorted and checked terms, unchecked."""
        self = cls.__new__(cls)
        self._terms = terms
        return self

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    @property
    def coefficients(self) -> dict[int, int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._terms)

    def coefficient(self, species_index: int) -> int:
        for i, c in self._terms:
            if i == species_index:
                return c
        return 0

    def vector(self, species_count: int) -> tuple[int, ...]:
        return _dense(self._terms, species_count)

    def format(self, species_names: Iterable[str]) -> str:
        return _format(self._terms, tuple(species_names))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"Complex({dict(self._terms)!r})"


def _format(terms: _Terms, names: tuple[str, ...]) -> str:
    """A complex's terms as DSL text, ``0`` for the zero complex."""
    if not terms:
        return "0"
    return " + ".join(names[i] if c == 1 else f"{c} {names[i]}" for i, c in terms)


class Reaction(NamedTuple):
    """A directed reaction between two complex indices."""

    reactant: int
    product: int
    label: str | None = None


def _labels(reactions: tuple[Reaction, ...]) -> tuple[str, ...]:
    """Each reaction's label, or the positional default ``R<k>`` (1-based)."""
    return tuple(
        rx.label if rx.label is not None else f"R{i + 1}" for i, rx in enumerate(reactions)
    )


def _dense(pairs: Iterable[tuple[int, int]], size: int) -> tuple[int, ...]:
    """(index, value) pairs written over a row of ``size`` zeros."""
    row = [0] * size
    for i, c in pairs:
        row[i] = c
    return tuple(row)


def _difference(product: _Terms, reactant: _Terms) -> _Terms:
    """Product minus reactant as sorted (species index, nonzero change) pairs."""
    diff = dict(product)
    for i, c in reactant:
        diff[i] = diff.get(i, 0) - c
    return tuple(sorted([item for item in diff.items() if item[1]]))


class Network:
    """An immutable chemical reaction network.

    Validates on construction: unique species names, unique complexes, every
    complex used by at least one reaction, no self-loop reactions, unique
    (reactant, product) pairs, and unique labels that are strings or
    ``None``.  Reactions without an explicit label get the positional default
    ``R<k>`` (1-based).  `parse_network` checks its own input, with line
    numbers, and builds its network through `_assemble` alone.  It keeps
    the species names and each complex's terms (``_terms``, which crnkit's
    analyses read); a parsed network builds its `Species` and `Complex`
    records when `species` or `complexes` is first read.
    """

    __slots__ = ("_names", "_terms", "_reactions", "_labels", "_vectors", "_species", "_complexes")

    def __init__(
        self,
        species: Iterable[Species],
        complexes: Iterable[Complex],
        reactions: Iterable[Reaction],
    ):
        species, complexes, reactions = tuple(species), tuple(complexes), tuple(reactions)
        labels = self._validate(species, complexes, reactions)
        terms = tuple(c.terms for c in complexes)
        vectors = tuple(_difference(terms[rx.product], terms[rx.reactant]) for rx in reactions)
        names = tuple(s.name for s in species)
        self._assemble(names, terms, reactions, labels, vectors)
        self._species, self._complexes = species, complexes  # given, so kept

    def _assemble(
        self,
        names: tuple[str, ...],
        terms: tuple[_Terms, ...],
        reactions: tuple[Reaction, ...],
        labels: tuple[str, ...],
        vectors: tuple[_Terms, ...],
    ) -> None:
        """Fill in the network from parts that are already checked.

        The species names, each complex's terms, the reactions, their labels
        (defaults filled in) and their sparse vectors.  Nothing is validated
        here: `__init__` validates library input first, and `parse_network`
        has checked its own parts, with line numbers, before it calls this.
        """
        self._names, self._terms, self._reactions = names, terms, reactions
        self._labels, self._vectors = labels, vectors
        self._species = self._complexes = None

    @staticmethod
    def _validate(
        species: tuple[Species, ...],
        complexes: tuple[Complex, ...],
        reactions: tuple[Reaction, ...],
    ) -> tuple[str, ...]:
        """Check library input; return the reactions' labels, defaults filled in."""
        if not reactions:
            raise EmptyNetworkError("network has no reactions")
        if not species:
            raise NetworkError("network has no species")
        names = [s.name for s in species]
        if len(set(names)) != len(names):
            raise NetworkError("species names must be unique")
        for pos, s in enumerate(species):
            if s.index != pos:
                raise NetworkError(
                    f"species {s.name!r} has index {s.index} but position {pos}"
                )
        if len(set(complexes)) != len(complexes):
            raise NetworkError("complexes must be unique within a network")
        m, n = len(species), len(complexes)
        for c in complexes:
            if any(i >= m for i in c.support):
                raise NetworkError("complex references a species index out of range")
        used: set[int] = set()
        seen_pairs: set[tuple[int, int]] = set()
        for rx in reactions:
            for i in (rx.reactant, rx.product):
                if not _is_int(i):
                    raise NetworkError(f"complex index {i!r} is not an integer")
            if not (0 <= rx.reactant < n and 0 <= rx.product < n):
                raise NetworkError("reaction references a complex index out of range")
            if rx.reactant == rx.product:
                raise SelfLoopError(
                    f"reaction {rx.label or ''} has identical reactant and product complexes"
                )
            pair = (rx.reactant, rx.product)
            if pair in seen_pairs:
                raise DuplicateReactionError(
                    f"duplicate reaction between complexes {rx.reactant} and {rx.product}"
                )
            seen_pairs.add(pair)
            used.add(rx.reactant)
            used.add(rx.product)
        if used != set(range(n)):
            missing = sorted(set(range(n)) - used)
            raise NetworkError(f"complexes {missing} are not used by any reaction")
        # Label types are checked last, so an input refused before the check
        # existed is still refused with the same error.
        for rx in reactions:
            if rx.label is not None and not isinstance(rx.label, str):
                raise NetworkError(f"reaction label {rx.label!r} is not a string")
        labels = _labels(reactions)
        if len(set(labels)) != len(labels):
            dup = sorted({x for x in labels if labels.count(x) > 1})
            raise DuplicateLabelError(f"duplicate reaction labels: {', '.join(dup)}")
        return labels

    @property
    def species(self) -> tuple[Species, ...]:
        if self._species is None:
            self._species = tuple(Species(name, i) for i, name in enumerate(self._names))
        return self._species

    @property
    def complexes(self) -> tuple[Complex, ...]:
        if self._complexes is None:
            self._complexes = tuple(Complex._of(t) for t in self._terms)
        return self._complexes

    @property
    def reactions(self) -> tuple[Reaction, ...]:
        return self._reactions

    @property
    def species_count(self) -> int:
        return len(self._names)

    @property
    def complex_count(self) -> int:
        return len(self._terms)

    @property
    def reaction_count(self) -> int:
        return len(self._reactions)

    @property
    def species_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def labels(self) -> tuple[str, ...]:
        """Reaction labels in reaction order (positional defaults filled in)."""
        return self._labels

    def reaction_label(self, i: int) -> str:
        return self._labels[i]

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self._labels)}

    def reaction_vector(self, i: int) -> tuple[int, ...]:
        """Product complex minus reactant complex, over the species order."""
        return _dense(self._vectors[i], self.species_count)

    def sparse_reaction_vector(self, i: int) -> tuple[tuple[int, int], ...]:
        """The reaction vector as sorted (species index, nonzero change) pairs."""
        return self._vectors[i]

    def complex_string(self, complex_index: int) -> str:
        return _format(self._terms[complex_index], self._names)

    def reaction_string(self, i: int) -> str:
        rx = self._reactions[i]
        return (
            f"{self._labels[i]}: {self.complex_string(rx.reactant)}"
            f" -> {self.complex_string(rx.product)}"
        )

    def _key(self) -> tuple:
        """Species names, complex terms, (reactant, product) pairs and labels.

        A label given as ``R<k>`` and the same positional default compare equal.
        """
        pairs = tuple(rx[:2] for rx in self._reactions)
        return self._names, self._terms, pairs, self._labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Network(species={self.species_count}, complexes={self.complex_count},"
            f" reactions={self.reaction_count})"
        )


def molecularity_matrix(net: Network) -> RationalMatrix:
    """Species x complexes matrix of stoichiometric coefficients."""
    return RationalMatrix(zip(*(_dense(terms, net.species_count) for terms in net._terms)))


def incidence_matrix(net: Network) -> RationalMatrix:
    """Complexes x reactions matrix: -1 at the reactant, +1 at the product."""
    columns = (_dense(zip(rx[:2], (-1, 1)), net.complex_count) for rx in net.reactions)
    return RationalMatrix(zip(*columns))


def stoichiometric_matrix(net: Network) -> RationalMatrix:
    """Species x reactions matrix, the product of molecularity and incidence.

    Column j is the reaction vector of reaction j (product complex minus
    reactant complex).
    """
    return RationalMatrix(zip(*(_dense(v, net.species_count) for v in net._vectors)))
