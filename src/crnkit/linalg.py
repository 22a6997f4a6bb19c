"""Exact linear algebra over the rationals.

Rank, row-basis selection and coordinate extraction are decided by exact
fraction-free integer elimination: there is no tolerance anywhere, and no
`fractions.Fraction` arithmetic inside the elimination loop.  One function,
`_eliminate`, makes it: it scans rows of (column, `int`) pairs in order,
reduces each against the basis rows before it, keeps each row that is not
spanned by them as a basis row, and returns a `_Span` of the basis rows and
every other row's integer relation to them.  It pivots on the columns rarest
first: a column used by fewer rows meets fewer rows to update, which keeps
the fill-in (and the tags along the way) small.  The greedy basis, the rank,
and which coordinates are nonzero fall out of that single scan, whatever the
column order; only `coordinates` turns relations into `Fraction`s.  A
caller's own basis is scanned first (`_eliminate_over`).  `_Span.rank` reads
the rank of any subset of the rows from the relations, whose restricted tags
go through `_eliminate` too: every rank comes from one scan.  The library
entry points clear each row's denominators in one place, `_sparse`, which
builds no `Fraction` for a row of `int`s.  `RationalMatrix` and `rref`
compute with `Fraction`; `rref` is a separate dense implementation kept as
an independent reference.  The dense helpers, `coordinates` and the
`Rational` alias are library-only, so `fractions` (and `decimal` and
`numbers` behind it) is imported where a `Fraction` is built, and `Rational`
resolves on first access: the analysis report and the `crn` command never
load it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd, lcm
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

RationalLike = Union[int, "Fraction"]
Relation = tuple[dict[int, int], int]  # (tag, scale), see `_eliminate`


def __getattr__(name: str):
    # PEP 562: `Rational` is `fractions.Fraction`, imported on first access.
    if name == "Rational":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotInSpanError(ValueError):
    """Raised when a vector is not a linear combination of the given basis."""


class RationalMatrix:
    """Immutable dense matrix of exact rationals (row-major)."""

    __slots__ = ("_entries", "_cols")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        from fractions import Fraction

        made: dict[int, Fraction] = {}  # one Fraction per distinct int: dense rows are mostly 0

        def exact(v: RationalLike) -> Fraction:
            if type(v) is int:
                f = made.get(v)
                if f is None:
                    f = made[v] = Fraction(v)
                return f
            return v if type(v) is Fraction else Fraction(v)

        data = tuple(tuple(map(exact, row)) for row in rows)
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise ValueError("all rows must have the same length")
        self._entries = data
        self._cols = width

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._entries)

    @property
    def cols(self) -> int:
        return self._cols

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._entries)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._entries[i][j]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self._entries))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = list(zip(*other._entries))
        return RationalMatrix([[sum(map(mul, r, c)) for c in cols] for r in self._entries])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self._entries)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._entries]


class BasisSelection(NamedTuple):
    """Row indices forming a maximal linearly independent set, greedily chosen.

    ``basis_rows`` is strictly increasing: a row joins the basis exactly when
    it is not in the span of the rows selected before it, which makes the
    selection the lexicographically smallest basis index set.
    """

    basis_rows: tuple[int, ...]
    rank: int


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the strictly increasing pivot columns."""
    m = matrix.to_lists()
    nrows, ncols = matrix.rows, matrix.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return RationalMatrix(m), tuple(pivots)


def _eliminate(rows: Sequence[Sequence[tuple[int, int]]]) -> _Span:
    """The one greedy scan: each row not spanned by the rows before it joins the basis.

    Each row is a sequence of (column, nonzero `int`) pairs; the rows are
    scanned in order, which gives the greedy basis, and are left as given.
    Column order: the columns are numbered by how many rows use them, fewest
    first (ties by index), and each row is reduced in a relabelled copy
    ``w``.  Pivot rule: while a pivot row is stored at the smallest number
    ``w`` uses, ``w`` is scaled and that row subtracted, fraction-free,
    keeping ``w == scale * row + sum(tag[j] * basis_row[j])`` with
    ``scale > 0`` and the tag keyed by basis position, so each pivot is at
    the rarest column its reduced row still uses.  A row whose ``w`` vanishes
    has the relation ``(tag, scale)``: its coordinates are ``-tag[j] / scale``.
    Any other row joins the basis at the next position, and ``w`` is stored
    as the pivot row at its smallest number.  Content 1: a stored row and its
    tag are divided by the gcd of all their entries, signed to make the pivot
    positive, which keeps coefficients from growing.  The column order
    changes the fill-in, not the outcome: the basis, and each relation up to
    a positive factor, are those of any column order.  The returned `_Span`
    lists the basis rows in basis order and holds every other row's relation.
    """
    uses = Counter(map(itemgetter(0), chain.from_iterable(rows)))
    # Stable: among columns used equally often, the smaller index comes first.
    order = {j: k for k, j in enumerate(sorted(sorted(uses), key=uses.__getitem__))}
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    span = _Span((), {})
    position, relations = span.position, span.relations
    for i, row in enumerate(rows):
        w = {order[j]: x for j, x in row}
        scale = 1
        tag: dict[int, int] = {}
        while w:
            col = min(w)
            stored = pivots.get(col)
            if stored is None:
                break
            prow, ptag = stored
            a = prow[col]
            f = w[col]
            g = gcd(a, f)
            if g != 1:
                a //= g
                f //= g
            # (w, tag, scale) <- a * (w, tag, scale) - f * (prow, ptag, 0)
            if a != 1:
                for j in w:
                    w[j] *= a
                for j in tag:
                    tag[j] *= a
                scale *= a
            for j, v in prow.items():
                v = w.get(j, 0) - f * v
                if v:
                    w[j] = v
                else:
                    del w[j]
            for j, v in ptag.items():
                v = tag.get(j, 0) - f * v
                if v:
                    tag[j] = v
                else:
                    del tag[j]
        if not w:
            relations[i] = tag, scale
            continue
        tag[len(position)] = scale
        g = gcd(*w.values(), *tag.values())
        if w[col] < 0:
            g = -g
        if g != 1:
            w = {j: x // g for j, x in w.items()}
            tag = {j: x // g for j, x in tag.items()}
        pivots[col] = (w, tag)
        position[i] = len(position)
    return span


def _eliminate_over(rows: Sequence[Sequence[tuple[int, int]]], basis: Sequence[int]) -> _Span:
    """`_eliminate` with the given basis rows first, in their order, indexed like ``rows``.

    The basis rows must be independent (`ValueError`) and span every row
    (`NotInSpanError`, naming the first row outside their span).
    """
    order = [*basis, *sorted(set(range(len(rows))) - set(basis))]
    span = _eliminate([rows[i] for i in order])
    joined = [order[k] for k in span.position]
    if joined[: len(basis)] != list(basis):
        raise ValueError("basis rows are linearly dependent")
    if len(joined) > len(basis):
        raise NotInSpanError(f"row {joined[len(basis)]} is not in the span of the basis rows")
    return _Span(basis, {order[k]: relation for k, relation in span.relations.items()})


class _Span:
    """One elimination's outcome, from which the rank of any subset of its rows follows.

    ``position`` maps each basis row to its basis position, in basis order,
    and ``relations`` maps every other row to its `_eliminate` relation,
    whose tag is keyed by those positions.
    """

    __slots__ = ("position", "relations")

    def __init__(self, basis_rows: Iterable[int], relations: dict[int, Relation]):
        self.position = {row: j for j, row in enumerate(basis_rows)}
        self.relations = relations

    def rank(self, rows: Iterable[int]) -> int:
        """Rank of the given rows, exact and without eliminating them again.

        The basis rows are independent, so the rank is the number of basis
        rows among ``rows`` plus the rank, by `_eliminate`, of the other rows'
        tags restricted to the positions of the basis rows outside ``rows``.
        """
        positions: list[int] = []
        tags: list[dict[int, int]] = []
        for i in rows:
            j = self.position.get(i)
            if j is None:
                tags.append(self.relations[i][0])
            else:
                positions.append(j)
        inside = set(positions)
        leaving = [
            [(j, t) for j, t in tag.items() if j not in inside]
            for tag in tags
            if not tag.keys() <= inside
        ]
        return len(inside) + (len(_eliminate(leaving).position) if leaving else 0)


def _sparse(row: Sequence[RationalLike]) -> tuple[list[tuple[int, int]], int]:
    """``m * row`` as (column, nonzero `int`) pairs, with the least ``m > 0`` that clears it.

    The one place where denominators are cleared: an `int` or `Fraction`
    entry passes through as it is, and any other entry is read as
    ``Fraction(x)``.
    """
    if all(type(x) is int for x in row):
        return [(j, x) for j, x in enumerate(row) if x], 1
    from fractions import Fraction

    exact = (int, Fraction)
    pairs = [(j, x) for j, x in enumerate(x if type(x) in exact else Fraction(x) for x in row) if x]
    m = lcm(*[x.denominator for _, x in pairs])
    return [(j, x.numerator * (m // x.denominator)) for j, x in pairs], m


def rank(matrix: RationalMatrix) -> int:
    """Exact rank of the matrix."""
    return select_basis_rows(matrix).rank


def rank_of_rows(rows: Iterable[Sequence[RationalLike]]) -> int:
    """Rank of the span of the given equal-length row vectors (`ValueError` if not)."""
    rows = list(rows)
    if len({len(row) for row in rows}) > 1:
        raise ValueError("all rows must have the same length")
    return len(_eliminate([_sparse(row)[0] for row in rows]).position)


def select_basis_rows(matrix: RationalMatrix) -> BasisSelection:
    """Greedy scan in row order: keep each row not spanned by earlier picks."""
    chosen = tuple(_eliminate([_sparse(row)[0] for row in matrix._entries]).position)
    return BasisSelection(chosen, len(chosen))


def coordinates(
    vector: Sequence[RationalLike],
    basis: RationalMatrix | Sequence[Sequence[RationalLike]],
) -> tuple[Fraction, ...]:
    """Coefficients ``a`` with ``vector = sum(a[j] * basis_row[j])``, exact.

    The basis rows must be linearly independent (a `BasisSelection` of the
    matrix containing ``vector`` guarantees this).  Raises `NotInSpanError`
    when the vector is not in the row span.
    """
    basis_rows = list(basis._entries if isinstance(basis, RationalMatrix) else basis)
    if any(len(row) != len(vector) for row in basis_rows):
        raise ValueError("basis row length does not match vector length")
    p = len(basis_rows)
    rows, m = zip(*map(_sparse, [*basis_rows, vector]))
    # scale * m[p] * vector + sum(tag[j] * m[j] * basis_row[j]) == 0
    tag, scale = _eliminate_over(rows, range(p)).relations[p]
    from fractions import Fraction

    return tuple(Fraction(-tag.get(j, 0) * m[j], scale * m[p]) for j in range(p))
