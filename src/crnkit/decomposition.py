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
that carries its nonzero coordinates.  The finder gets both at once from
one union-find that joins each non-basis reaction to the basis reactions of
its integer relation; only `linalg.coordinates` builds `Fraction`s.  It keeps
the relations, so a report reads part and linkage-class ranks and the
coordinate graph's edges from them; the finder itself builds no edges.
`verify_decomposition` is independent of the finder: one elimination of its
own, in part order, gives the network rank and every part rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Literal, Sequence

from .analysis import _undirected_components
from .linalg import BasisSelection, _Echelon, _eliminate, _Span
from .model import Network

BRUTE_FORCE_REACTION_LIMIT = 12  # Bell(12) ~ 4.2M partitions


class PartitionError(ValueError):
    """The given parts do not form a partition of the reaction set."""


class MismatchedReactionSetError(PartitionError):
    """Two partitions do not cover the same reaction set."""


class TooLargeError(ValueError):
    """Brute-force enumeration rejected: too many reactions."""


class InternalError(RuntimeError):
    """A constructed decomposition failed its own verification."""


@dataclass(frozen=True)
class CoordinateGraph:
    """Undirected graph on basis-row indices.

    Vertex ``i`` stands for the i-th basis row; ``vertex_labels`` carries the
    reaction labels of those rows.  Edges are unordered pairs ``(i, j)`` with
    ``i < j``.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    vertex_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if not (0 <= i < j < self.vertex_count):
                raise ValueError(f"invalid edge ({i}, {j})")
        if len(self.vertex_labels) != self.vertex_count:
            raise ValueError("one label per vertex required")


@dataclass(frozen=True)
class Decomposition:
    """A partition of the reaction index set with per-part ranks.

    Parts are disjoint, nonempty, cover all reactions, and are ordered by
    their smallest reaction index; ``part_ranks[i]`` is the rank of the span
    of part i's reaction vectors.
    """

    parts: tuple[tuple[int, ...], ...]
    part_ranks: tuple[int, ...]

    def labels(self, net: Network) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(net.reaction_label(i) for i in part) for part in self.parts)


@dataclass(frozen=True)
class IndependenceReport:
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
        p = tuple(sorted(part))
        if not p:
            raise PartitionError("empty part in partition")
        for i in p:
            if not isinstance(i, int):
                raise PartitionError(f"reaction index {i!r} is not an integer")
            if i in seen:
                raise PartitionError(f"reaction index {i} appears in more than one part")
            seen.add(i)
        canon.append(p)
    if not canon:
        raise PartitionError("partition has no parts")
    if reaction_count is not None:
        expected = set(range(reaction_count))
        if seen != expected:
            missing = sorted(expected - seen)
            extra = sorted(seen - expected)
            detail = []
            if missing:
                detail.append(f"missing indices {missing}")
            if extra:
                detail.append(f"unknown indices {extra}")
            raise PartitionError("not a partition of the reaction set: " + "; ".join(detail))
    return tuple(canon)


def _incidence_rank(net: Network, part: Sequence[int]) -> int:
    # An incidence matrix has rank n - l: the complexes its reactions touch
    # minus the linkage classes they form.  An untouched complex is a
    # component of its own, so counting over all complexes gives the same n - l.
    edges = [(net.reactions[i].reactant, net.reactions[i].product) for i in part]
    return net.complex_count - len(_undirected_components(net.complex_count, edges))


def verify_decomposition(net: Network, parts: Iterable[Iterable[int]]) -> IndependenceReport:
    """Check a user partition for independence and incidence independence.

    Part order is preserved from the input; raises `PartitionError` when the
    parts overlap, leave a gap, or contain an empty part.  The reaction
    vectors are eliminated once, part after part, and every part rank is
    read from that one elimination's relations.
    """
    canon = _canonical_partition(parts, net.reaction_count)
    span = _Span(*_eliminate([net.sparse_reaction_vector(i) for part in canon for i in part]))
    network_rank = len(span.position)
    incidence_network_rank = _incidence_rank(net, range(net.reaction_count))
    if len(canon) == 1:
        # A validated single part is the whole reaction set.
        part_ranks, incidence_part_ranks = (network_rank,), (incidence_network_rank,)
    else:
        # Part k is rows bounds[k]..bounds[k + 1] - 1 of the elimination.
        bounds = list(accumulate(map(len, canon), initial=0))
        part_ranks = tuple(span.rank(range(a, b)) for a, b in zip(bounds, bounds[1:]))
        incidence_part_ranks = tuple(_incidence_rank(net, part) for part in canon)
    return IndependenceReport(
        network_rank=network_rank,
        part_ranks=part_ranks,
        independent=sum(part_ranks) == network_rank,
        incidence_network_rank=incidence_network_rank,
        incidence_part_ranks=incidence_part_ranks,
        incidence_independent=sum(incidence_part_ranks) == incidence_network_rank,
    )


def _coordinate_graph(net: Network, span: _Span) -> CoordinateGraph:
    edges: set[tuple[int, int]] = set()
    for tag, _ in span.relations.values():
        edges.update(combinations(sorted(tag), 2))
    labels = tuple(net.reaction_label(i) for i in span.position)
    return CoordinateGraph(len(labels), frozenset(edges), labels)


def _reaction_rows(net: Network) -> list[tuple[tuple[int, int], ...]]:
    return [net.sparse_reaction_vector(i) for i in range(net.reaction_count)]


def build_coordinate_graph(net: Network, basis: BasisSelection) -> CoordinateGraph:
    """Coordinate graph of the reaction vectors for the given basis rows.

    For each non-basis reaction vector, an edge joins every pair of basis
    vertices at which its (unique, exact) coordinates are nonzero.
    """
    return _coordinate_graph(net, _Span(*_eliminate(_reaction_rows(net), basis.basis_rows)))


def connected_components(graph: CoordinateGraph) -> list[tuple[int, ...]]:
    """Vertex sets of the undirected components, ordered by smallest vertex."""
    return _undirected_components(graph.vertex_count, graph.edges)


@dataclass(frozen=True)
class _Finest:
    """The finder's work for one network: its elimination, components, and verified parts.

    ``span`` holds the greedy basis and every non-basis relation, from which
    the coordinate graph follows (`_coordinate_graph`).  ``components[k]``
    lists the graph vertices of ``parts[k]``; ``parts`` is the single
    whole-set part when the graph is connected.
    """

    span: _Span
    components: list[tuple[int, ...]]
    parts: tuple[tuple[int, ...], ...]
    independence: IndependenceReport


def _finest(net: Network) -> _Finest:
    """One elimination pass and one union-find: the verified finest parts.

    Joining each non-basis reaction to the basis reactions of its relation
    gives the coordinate graph's connectivity and places every reaction.
    """
    basis_rows, relations = _eliminate(_reaction_rows(net))
    span = _Span(basis_rows, relations)
    joins = ((i, basis_rows[j]) for i, (tag, _) in relations.items() for j in tag)
    parts = tuple(_undirected_components(net.reaction_count, joins))
    # Relations use only earlier basis reactions, so each part starts with a
    # basis reaction and the components come out in the parts' order.
    position = span.position
    components = [tuple(position[i] for i in part if i in position) for part in parts]
    independence = verify_decomposition(net, parts)
    if not independence.independent:
        raise InternalError("constructed decomposition failed independence verification")
    return _Finest(span, components, parts, independence)


def find_independent_decomposition(net: Network) -> Decomposition | None:
    """Finest independent decomposition from coordinate-graph connectivity.

    Returns None when the coordinate graph is connected (only the trivial
    decomposition exists).  Otherwise each connected component yields one
    part: the component's basis reactions plus every non-basis reaction
    whose nonzero coordinates all sit in that component, found by joining it
    to the basis reactions of its integer relation.  The result is verified
    independent before being returned.
    """
    finest = _finest(net)
    if len(finest.components) <= 1:
        return None
    return Decomposition(finest.parts, finest.independence.part_ranks)


def iter_set_partitions(
    n: int, max_parts: int | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of range(n) into at most ``max_parts`` blocks.

    Blocks are emitted in restricted-growth order: each block is sorted and
    blocks are ordered by their smallest element.
    """
    if n <= 0:
        return
    limit = n if max_parts is None else min(max_parts, n)
    if limit < 1:
        return
    assignment = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for idx in range(n):
                blocks[assignment[idx]].append(idx)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(min(used + 1, limit)):
            assignment[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


class _SubsetRankCache:
    """Rank of the span of any subset of a fixed vector list, memoized.

    Subsets are bitmasks; the echelon basis of ``mask`` is built by inserting
    one vector into the echelon basis of ``mask`` minus its highest bit.
    """

    def __init__(self, vectors: Sequence[Iterable[tuple[int, int]]]):
        self._vectors = vectors
        self._echelon: dict[int, _Echelon] = {0: _Echelon()}

    def rank(self, mask: int) -> int:
        if mask not in self._echelon:
            high = mask.bit_length() - 1
            base = mask ^ (1 << high)
            self.rank(base)  # ensure base echelon exists
            echelon = self._echelon[base].copy()
            echelon.add(self._vectors[high])
            self._echelon[mask] = echelon
        return self._echelon[mask].rank


def brute_force_decompositions(net: Network, max_parts: int) -> list[Decomposition]:
    """Every independent decomposition with at most ``max_parts`` parts.

    An exhaustive oracle for small networks: enumerates all set partitions of
    the reaction set, keeps those whose part ranks sum to the network rank,
    and returns them in canonical (restricted-growth) order.  The trivial
    single-part partition is always included.  Raises `TooLargeError` when
    the network has more than ``BRUTE_FORCE_REACTION_LIMIT`` reactions.
    """
    r = net.reaction_count
    if r > BRUTE_FORCE_REACTION_LIMIT:
        raise TooLargeError(
            f"{r} reactions exceed the brute-force limit of {BRUTE_FORCE_REACTION_LIMIT}"
        )
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    cache = _SubsetRankCache(_reaction_rows(net))
    total = cache.rank((1 << r) - 1)
    found: list[Decomposition] = []
    for partition in iter_set_partitions(r, max_parts):
        ranks = tuple(cache.rank(_mask(part)) for part in partition)
        if sum(ranks) == total:
            found.append(Decomposition(partition, ranks))
    return found


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


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
    ground_a = {i for part in a for i in part}
    ground_b = {i for part in b for i in part}
    if ground_a != ground_b:
        raise MismatchedReactionSetError("partitions cover different reaction sets")

    def refines(fine: tuple[tuple[int, ...], ...], coarse: tuple[tuple[int, ...], ...]) -> bool:
        owner = {i: k for k, part in enumerate(coarse) for i in part}
        return all(len({owner[i] for i in part}) == 1 for part in fine)

    a_ref_b = refines(a, b)
    b_ref_a = refines(b, a)
    if a_ref_b and b_ref_a:
        return "equal"
    if a_ref_b:
        return "refinement"
    if b_ref_a:
        return "coarsening"
    return "incomparable"
