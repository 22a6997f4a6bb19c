"""Exhaustive ground truth for independent decompositions, sharing no code with crnkit.

It imports only the standard library, so a fault in crnkit's elimination
cannot move it together with the finder it judges.  `fraction_scan` is a
greedy elimination in `Fraction`s and `fraction_rank` the same scan for a
rank alone, `set_partitions` enumerates set partitions in restricted-growth
order, and `independent_partitions` keeps those whose part ranks sum to the
rank of the whole.  The search is exhaustive, so it is meant for networks of
about a dozen reactions at most.
"""

from fractions import Fraction
from functools import cache


def plus_multiple(u, f, v):
    """The sparse vector ``u + f * v``, zeros dropped."""
    out = dict(u)
    for j, x in v.items():
        if y := out.get(j, 0) + f * x:
            out[j] = y
        else:
            out.pop(j, None)
    return out


def fraction_scan(rows):
    """The greedy scan in `Fraction`s, pivoting on the columns in index order.

    ``rows`` are sparse, each an iterable of (column, value) pairs.  Each
    stored row has pivot 1 at its smallest column and carries its
    coefficients over the basis rows.  Returns the basis rows and, for every
    other row, its coordinates over them (basis position -> nonzero
    `Fraction`).
    """
    pivots = {}
    basis, coords = [], {}
    for i, row in enumerate(rows):
        # w == row - sum(c[j] * basis_row[j])
        w, c = {j: Fraction(x) for j, x in row}, {}
        while w and min(w) in pivots:
            prow, pc = pivots[min(w)]
            f = w[min(w)]
            w, c = plus_multiple(w, -f, prow), plus_multiple(c, f, pc)
        if not w:
            coords[i] = c
            continue
        p = w[min(w)]
        pivots[min(w)] = (
            {j: x / p for j, x in w.items()},
            plus_multiple({len(basis): 1 / p}, -1 / p, c),
        )
        basis.append(i)
    return basis, coords


def fraction_rank(rows):
    """The rank of the sparse ``rows``: `fraction_scan`'s scan without the coordinates."""
    pivots = {}
    for row in rows:
        w = {j: Fraction(x) for j, x in row}
        while w and (p := min(w)) in pivots:
            w = plus_multiple(w, -w[p], pivots[p])
        if w:
            pivots[p] = {j: x / w[p] for j, x in w.items()}
    return len(pivots)


def set_partitions(n, max_parts=None):
    """All partitions of range(n) into at most ``max_parts`` blocks.

    Blocks come in restricted-growth order: element i joins each open block
    in turn, then opens a new one while fewer than ``max_parts`` are open, so
    blocks are sorted and ordered by their smallest element.  There is none
    of range(0), nor into fewer than one block.
    """
    limit = n if max_parts is None else min(max_parts, n)
    if n <= 0 or limit < 1:
        return
    blocks = []

    def grow(i):
        if i == n:
            yield tuple(map(tuple, blocks))
            return
        for block in blocks:
            block.append(i)
            yield from grow(i + 1)
            block.pop()
        if len(blocks) < limit:
            blocks.append([i])
            yield from grow(i + 1)
            blocks.pop()

    yield from grow(0)


def independent_partitions(vectors, max_parts=None):
    """Every independent partition of the ``vectors``' indices into at most ``max_parts`` parts.

    A partition is independent when its part ranks sum to the rank of all
    the vectors.  Each distinct part is ranked once, by `fraction_rank` of
    its own vectors.  Returns (parts, part ranks) pairs in restricted-growth
    order, the trivial one-part partition included.
    """
    rows = [[(j, x) for j, x in enumerate(v) if x] for v in vectors]

    @cache
    def rank(part):
        return fraction_rank(rows[i] for i in part)

    total = rank(tuple(range(len(rows))))
    ranked = ((parts, tuple(map(rank, parts))) for parts in set_partitions(len(rows), max_parts))
    return [(parts, ranks) for parts, ranks in ranked if sum(ranks) == total]
