"""Independent decompositions of a reaction network.

A partition of the reaction set is independent when the network rank equals
the sum of the part ranks (equivalently, the stoichiometric subspace is the
direct sum of the part subspaces).  Whether a nontrivial independent
partition exists at all is decided by connectivity of the *coordinate
graph*: one vertex per greedily chosen basis row of the transposed
stoichiometric matrix, with an edge joining two vertices whenever some
non-basis reaction vector uses both basis vectors with nonzero coefficients.
A connected graph means only the trivial decomposition exists; otherwise the
connected components induce the finest independent partition this
construction yields, with every non-basis reaction joining the component
that carries its nonzero coordinates.  The finder, `_finest`, gets both at
once from one `linalg._eliminate` scan and one union-find, and returns the
scan's `_Span` beside its `Decomposition`: a report reads part and
linkage-class ranks and the coordinate graph's vertices and edges from the
span, and each part's basis reactions are one graph component; the finder
itself builds no edges.  The sorted edge list (`_coordinate_edges`) is read
from one neighbour bit mask per basis position, not from every pair of
positions of every relation.
The finder has every answer of two or more parts checked by an integer
certificate (`_certify`) before it is returned: the basis rows, re-read from
the network, are independent; every other reaction vector recomposes exactly
from its relation; and every relation stays inside its reaction's part.
That proves each part's span is its basis rows' span; the certificate only
proves, and `_finest` ranks every answer, of one part or many, by its parts'
basis counts, which therefore sum to the network rank.  `verify_decomposition`
checks a user partition and is independent of the finder: it reads the
network's and each part's rank and incidence rank from
`analysis._structures`, which eliminates the reaction vectors once, in
reaction order, and builds no strong linkage class.  It and the report state
their conditions through one helper, `_independence`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Literal, NamedTuple, Sequence

from .analysis import _Structure, _structures, _undirected_components
from .linalg import BasisSelection, _eliminate, _eliminate_over, _Span
from .model import Network, _Checked, _is_int


class PartitionError(ValueError):
    """The given parts do not form a partition of the reaction set."""


class MismatchedReactionSetError(PartitionError):
    """Two partitions do not cover the same reaction set."""


class InternalError(RuntimeError):
    """A constructed decomposition failed its own verification."""


class _CoordinateGraphFields(NamedTuple):
    vertex_count: int
    edges: frozenset[tuple[int, int]]
    vertex_labels: tuple[str, ...]


class CoordinateGraph(_Checked, _CoordinateGraphFields):
    """Undirected graph on basis-row indices.

    Vertex ``i`` stands for the i-th basis row; ``vertex_labels`` carries the
    reaction labels of those rows.  Edges are unordered pairs ``(i, j)`` with
    ``i < j``.
    """

    __slots__ = ()

    def _check(self) -> None:
        for i, j in self.edges:
            if not (0 <= i < j < self.vertex_count):
                raise ValueError(f"invalid edge ({i}, {j})")
        if len(self.vertex_labels) != self.vertex_count:
            raise ValueError("one label per vertex required")


class Decomposition(NamedTuple):
    """A partition of the reaction index set with per-part ranks.

    Parts are disjoint, nonempty, cover all reactions, and are ordered by
    their smallest reaction index; ``part_ranks[i]`` is the rank of the span
    of part i's reaction vectors.
    """

    parts: tuple[tuple[int, ...], ...]
    part_ranks: tuple[int, ...]

    def labels(self, net: Network) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(net.reaction_label(i) for i in part) for part in self.parts)


class IndependenceReport(NamedTuple):
    """Rank bookkeeping for a candidate partition.

    ``independent`` holds exactly when the network rank equals the sum of
    the part ranks; ``incidence_independent`` is the same statement for the
    incidence matrices (each part's incidence matrix is built over the
    complexes its own reactions touch).
    """

    network_rank: int
    part_ranks: tuple[int, ...]
    independent: bool
    incidence_network_rank: int
    incidence_part_ranks: tuple[int, ...]
    incidence_independent: bool


def _canonical_partition(
    parts: Iterable[Iterable[int]], reaction_count: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Validate and canonicalize: sorted within parts, parts kept in given order."""
    canon: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for part in parts:
        p = tuple(part)
        for i in p:
            if not _is_int(i):
                raise PartitionError(f"reaction index {i!r} is not an integer")
        p = tuple(sorted(p))
        if not p:
            raise PartitionError("empty part in partition")
        for i in p:
            if i in seen:
                raise PartitionError(f"reaction index {i} appears in more than one part")
            seen.add(i)
        canon.append(p)
    if not canon:
        raise PartitionError("partition has no parts")
    if reaction_count is not None:
        expected = set(range(reaction_count))
        if seen != expected:
            gaps = (("missing", expected - seen), ("unknown", seen - expected))
            detail = "; ".join(f"{what} indices {sorted(s)}" for what, s in gaps if s)
            raise PartitionError(f"not a partition of the reaction set: {detail}")
    return tuple(canon)


def verify_decomposition(net: Network, parts: Iterable[Iterable[int]]) -> IndependenceReport:
    """Check a user partition for independence and incidence independence.

    Part order is preserved from the input; raises `PartitionError` when the
    parts overlap, leave a gap, or contain an empty part.  The ranks are
    those of `_structures`, which eliminates the reaction vectors once, in
    reaction order, and reads every part rank from that elimination.
    """
    canon = _canonical_partition(parts, net.reaction_count)
    return _independence(*_structures(net, canon))


def _independence(whole: _Structure, parts: Sequence[_Structure]) -> IndependenceReport:
    """The independence report: each condition holds when the parts' ranks sum to the whole's."""
    rank, incidence_rank = whole.rank, whole.incidence_rank
    part_ranks = tuple(st.rank for st in parts)
    incidence_part_ranks = tuple(st.incidence_rank for st in parts)
    return IndependenceReport(
        rank, part_ranks, sum(part_ranks) == rank,
        incidence_rank, incidence_part_ranks, sum(incidence_part_ranks) == incidence_rank,
    )


def _coordinate_edges(span: _Span) -> list[tuple[int, int]]:
    """The coordinate graph's edges, sorted: every pair of basis positions one relation uses.

    They are read from neighbour masks: bit j of ``later[i]`` is set when some
    relation uses both positions i < j.  Each relation ORs its support above
    j into ``later[j]`` for each of its positions j, so the cost is about one
    big-int OR per tag entry and one tuple per distinct edge, not one tuple
    per pair of every relation.  Taking i upwards and the bits of
    ``later[i]`` from low to high gives the edges in sorted order.
    """
    later = [0] * len(span.position)
    for tag, _ in span.relations.values():
        above = 0
        for j in sorted(tag, reverse=True):
            later[j] |= above
            above |= 1 << j
    edges: list[tuple[int, int]] = []
    for i, mask in enumerate(later):
        while mask:
            low = mask & -mask
            edges.append((i, low.bit_length() - 1))
            mask ^= low
    return edges


def build_coordinate_graph(net: Network, basis: BasisSelection) -> CoordinateGraph:
    """Coordinate graph of the reaction vectors for the given basis rows.

    For each non-basis reaction vector, an edge joins every pair of basis
    vertices at which its (unique, exact) coordinates are nonzero.  A basis
    row that is not an ``int`` reaction index of ``net``, or a ``rank`` that
    is not the ``int`` count of the basis rows, raises `ValueError`.
    """
    rows, rank = basis
    if not (_is_int(rank) and rank == len(rows)):
        raise ValueError(f"basis rank {rank!r} is not the number of basis rows, {len(rows)}")
    for i in rows:
        if not (_is_int(i) and 0 <= i < net.reaction_count):
            raise ValueError(f"basis row {i!r} is not a reaction index of the network")
    span = _eliminate_over(net._vectors, rows)
    labels = tuple(net.reaction_label(i) for i in span.position)
    return CoordinateGraph(len(labels), frozenset(_coordinate_edges(span)), labels)


def connected_components(graph: CoordinateGraph) -> list[tuple[int, ...]]:
    """Vertex sets of the undirected components, ordered by smallest vertex."""
    return _undirected_components(graph.vertex_count, graph.edges)


def _certify(net: Network, span: _Span, parts: tuple[tuple[int, ...], ...]) -> None:
    """Prove ``parts`` independent from the finder's ``span``, or raise `InternalError`.

    The reaction vectors are re-read from ``net`` and none of the finder's
    echelon state is trusted.  The certificate holds when (a) a fresh
    `_eliminate` of the basis rows alone keeps every one of them; (b) every
    other reaction i has a relation that recomposes exactly in integers,
    ``scale * v[i] + sum(tag[j] * b[j]) == 0`` with ``scale > 0``; and (c)
    every tag position of reaction i is a basis row in i's own part.  Then
    each part spans what its basis rows span, so its rank is their count, and
    the counts sum to the network rank.
    """
    every = list(range(net.reaction_count))
    if sorted(chain(*parts)) != every or sorted([*span.position, *span.relations]) != every:
        raise InternalError("the parts or the relations do not cover each reaction once")
    basis = list(span.position)
    if list(span.position.values()) != list(range(len(basis))):
        raise InternalError("the basis positions are not numbered in basis order")
    owner = {i: k for k, part in enumerate(parts) for i in part}
    vectors = [net.sparse_reaction_vector(i) for i in basis]
    if len(_eliminate(vectors).position) != len(basis):  # (a)
        raise InternalError("the basis reactions are linearly dependent")
    for i, (tag, scale) in span.relations.items():
        if scale <= 0:  # (b)
            raise InternalError(f"reaction {i} has relation scale {scale}")
        w = {s: scale * c for s, c in net.sparse_reaction_vector(i)}
        for j, t in tag.items():
            if not 0 <= j < len(basis) or owner[basis[j]] != owner[i]:  # (c)
                raise InternalError(f"reaction {i}'s relation leaves its part")
            for s, c in vectors[j]:
                w[s] = w.get(s, 0) + t * c
        if any(w.values()):  # (b)
            raise InternalError(f"reaction {i}'s relation does not recompose it")


def _finest(net: Network) -> tuple[_Span, Decomposition]:
    """The finder's span and the finest independent partition it yields.

    The parts are the components of one union-find that joins each non-basis
    reaction to the basis reactions of its relation.  Two or more parts must
    pass `_certify` (`InternalError` if it refuses them), which proves each
    part's rank is its number of basis rows; every answer is ranked so.
    """
    span = _eliminate(net._vectors)
    basis_rows = list(span.position)
    joins = ((i, basis_rows[j]) for i, (tag, _) in span.relations.items() for j in tag)
    parts = tuple(_undirected_components(net.reaction_count, joins))
    if len(parts) > 1:
        _certify(net, span, parts)
    ranks = tuple(sum(i in span.position for i in part) for part in parts)
    return span, Decomposition(parts, ranks)


def find_independent_decomposition(net: Network) -> Decomposition | None:
    """Finest independent decomposition from coordinate-graph connectivity.

    Returns None when the coordinate graph is connected (only the trivial
    decomposition exists).  Otherwise each connected component yields one
    part: the component's basis reactions plus every non-basis reaction
    whose nonzero coordinates all sit in that component.  The answer is the
    one `_finest` proves with its integer certificate, and its part ranks
    are the parts' basis counts.
    """
    found = _finest(net)[1]
    return found if len(found.parts) > 1 else None


PartitionRelation = Literal["refinement", "coarsening", "equal", "incomparable"]


def refine_or_coarsen_check(
    parts_a: Iterable[Iterable[int]], parts_b: Iterable[Iterable[int]]
) -> PartitionRelation:
    """Relate two partitions of the same reaction set.

    ``"refinement"`` means every part of the first sits inside a part of the
    second; ``"coarsening"`` is the converse; ``"equal"`` both; otherwise
    ``"incomparable"``.
    """
    a = _canonical_partition(parts_a)
    b = _canonical_partition(parts_b)
    in_a = {i: k for k, part in enumerate(a) for i in part}
    in_b = {i: k for k, part in enumerate(b) for i in part}
    if in_a.keys() != in_b.keys():
        raise MismatchedReactionSetError("partitions cover different reaction sets")
    # Each part meets a part of the other, so a refines b exactly when the
    # distinct (part of a, part of b) pairs that share an index number len(a).
    meetings = len({(k, in_b[i]) for i, k in in_a.items()})
    if meetings == len(a):
        return "equal" if meetings == len(b) else "refinement"
    return "coarsening" if meetings == len(b) else "incomparable"
