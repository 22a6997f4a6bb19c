"""Exact linear algebra over the rationals.

Rank, row-basis selection and coordinate extraction are decided by exact
fraction-free integer elimination: there is no tolerance anywhere, and no
`fractions.Fraction` arithmetic inside the elimination loop.  One sparse
pass answers all three: it scans the rows in order, clears each row's
denominators, keeps each row that is not spanned by the rows before it as a
basis row, and hands back every other row's integer relation to the basis
rows.  The greedy basis, the rank, and which coordinates are nonzero fall out
of that single scan; only `coordinates` turns relations into `Fraction`s.
`RationalMatrix` and `rref` compute with `Fraction`; `rref` is a separate
dense implementation kept as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction
RationalLike = Union[int, Fraction]
Relation = tuple[dict[int, int], int]  # (tag, scale), see `_Echelon.add`


class NotInSpanError(ValueError):
    """Raised when a vector is not a linear combination of the given basis."""


class RationalMatrix:
    """Immutable dense matrix of exact rationals (row-major)."""

    __slots__ = ("_entries", "_cols")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        data = tuple(tuple(Fraction(v) for v in row) for row in rows)
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
        return RationalMatrix(zip(*self._entries)) if self._entries else RationalMatrix([])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = [other.column(j) for j in range(other.cols)]
        return RationalMatrix(
            [[_dot(r, c) for c in cols] for r in self._entries]
        )

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


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class BasisSelection:
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
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return RationalMatrix(m), tuple(pivots)


class _Echelon:
    """Row echelon form grown one row at a time, in integers, with provenance.

    Every stored row is sparse (column -> nonzero `int`), has a positive
    pivot of its own at its smallest nonzero column, and carries a tag (basis
    position -> nonzero `int`) with ``row == sum(tag[j] * basis_row[j])``.
    Row and tag together have content 1 (the gcd of all their entries), which
    keeps coefficients from growing.  Stored rows are never mutated, so
    `copy` may share them.
    """

    __slots__ = ("_pivots", "rank")

    def __init__(self) -> None:
        self._pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
        self.rank = 0

    def copy(self) -> "_Echelon":
        twin = _Echelon()
        twin._pivots = dict(self._pivots)
        twin.rank = self.rank
        return twin

    def add(
        self, row: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]]
    ) -> Relation | None:
        """Reduce ``row``; return its relation ``(tag, scale)``, or None if it joins the basis.

        A row that joins the basis becomes basis position ``rank - 1``.  The
        row is cleared of denominators and reduced fraction-free, keeping
        ``w == scale * row + sum(tag[j] * basis_row[j])`` with ``scale > 0``;
        when ``w`` vanishes, the row's coordinates are ``-tag[j] / scale``.
        """
        row = dict(row)
        scale = lcm(*[x.denominator for x in row.values()])
        w = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        tag: dict[int, int] = {}
        pivots = self._pivots
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
            for y, x in ((w, prow), (tag, ptag)):
                if a != 1:
                    for j in y:
                        y[j] *= a
                for j, v in x.items():
                    v = y.get(j, 0) - f * v
                    if v:
                        y[j] = v
                    else:
                        del y[j]
            scale *= a
        if not w:
            return tag, scale
        tag[self.rank] = scale
        g = gcd(*w.values(), *tag.values())
        if w[col] < 0:
            g = -g
        if g != 1:
            w = {j: x // g for j, x in w.items()}
            tag = {j: x // g for j, x in tag.items()}
        pivots[col] = (w, tag)
        self.rank += 1
        return None


def _eliminate(
    rows: Sequence[Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]]],
    basis: Iterable[int] | None = None,
) -> tuple[tuple[int, ...], dict[int, Relation]]:
    """One exact elimination pass: the basis rows and every other row's relation.

    Without ``basis``, rows are scanned in order and each row not spanned by
    the earlier ones joins the basis, which gives the greedy basis.  With
    ``basis``, those rows go first and must be linearly independent
    (`ValueError` otherwise), then the rest must lie in their span
    (`NotInSpanError` otherwise).  Returns the basis row indices in basis
    order and, for each non-basis row index, its `_Echelon.add` relation
    over the basis positions.
    """
    echelon = _Echelon()
    chosen: list[int] = []
    relations: dict[int, Relation] = {}
    if basis is None:
        order: Iterable[int] = range(len(rows))
    else:
        chosen = list(basis)
        for i in chosen:
            if echelon.add(rows[i]) is not None:
                raise ValueError("basis rows are linearly dependent")
        leading = set(chosen)
        order = (i for i in range(len(rows)) if i not in leading)
    for i in order:
        relation = echelon.add(rows[i])
        if relation is not None:
            relations[i] = relation
        elif basis is None:
            chosen.append(i)
        else:
            raise NotInSpanError(f"row {i} is not in the span of the basis rows")
    return tuple(chosen), relations


def _sparse(row: Iterable[RationalLike]) -> dict[int, Fraction]:
    return {j: x for j, x in enumerate(map(Fraction, row)) if x}


def rank(matrix: RationalMatrix) -> int:
    """Exact rank of the matrix."""
    return select_basis_rows(matrix).rank


def rank_of_rows(rows: Iterable[Sequence[RationalLike]]) -> int:
    """Rank of the span of the given equal-length row vectors (`ValueError` if not)."""
    rows = list(rows)
    if len({len(row) for row in rows}) > 1:
        raise ValueError("all rows must have the same length")
    return len(_eliminate([_sparse(row) for row in rows])[0])


def select_basis_rows(matrix: RationalMatrix) -> BasisSelection:
    """Greedy scan in row order: keep each row not spanned by earlier picks."""
    chosen = _eliminate([_sparse(matrix.row(i)) for i in range(matrix.rows)])[0]
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
    if isinstance(basis, RationalMatrix):
        basis_rows = [basis.row(j) for j in range(basis.rows)]
    else:
        basis_rows = list(basis)
    if any(len(row) != len(vector) for row in basis_rows):
        raise ValueError("basis row length does not match vector length")
    p = len(basis_rows)
    rows = [_sparse(row) for row in basis_rows] + [_sparse(vector)]
    tag, scale = _eliminate(rows, range(p))[1][p]
    return tuple(Fraction(-tag.get(j, 0), scale) for j in range(p))
