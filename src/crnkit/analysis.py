"""Structural network analysis and pointwise kinetics.

Covers the graph-theoretic network numbers (linkage classes, strong and
terminal strong linkage classes, rank, deficiency), weak reversibility,
structural deficiency-zero / deficiency-one theorem checks, subnetwork
extraction, and evaluation of the species formation rate function for
mass-action and power-law kinetics at a given positive point.  The complex
graph is one (reactant, product) edge list per network (`_complex_edges`):
one union-find gives its linkage classes, Kosaraju's two searches its strong
linkage classes, and one scan of the edges the terminal ones.  A part's
complex graph is that list cut to its reactions and renumbered over the
complexes they touch (`_local_edges`), for every caller that needs one.
"""

from __future__ import annotations

import math
from itertools import chain, filterfalse
from typing import Iterable, NamedTuple, Sequence

from .linalg import _eliminate, _Span
from .model import Complex, Network, NetworkError, Reaction, Species, _Checked, _dense, _is_int


class EmptySubsetError(ValueError):
    """Subnetwork extraction was given no reactions."""


class DimensionError(ValueError):
    """Kinetics or point dimensions do not match the network."""


class NonPositivePointError(ValueError):
    """Kinetics evaluation needs a strictly positive concentration vector."""


class NetworkNumbers(NamedTuple):
    """The structural summary of a network.

    Invariants: deficiency = complexes - linkage classes - rank >= 0, and
    the network is weakly reversible exactly when every linkage class is a
    single strong linkage class.
    """

    species_count: int
    complex_count: int
    reaction_count: int
    irreversible_reaction_count: int
    linkage_class_count: int
    strong_linkage_class_count: int
    terminal_strong_linkage_class_count: int
    rank: int
    deficiency: int
    weakly_reversible: bool


CONCLUSION_NOT_APPLICABLE = "not-applicable"
CONCLUSION_NO_POSITIVE_STEADY_STATE = "no-positive-steady-state"
CONCLUSION_AT_MOST_ONE = "at-most-one-steady-state-per-class"
CONCLUSION_EXACTLY_ONE = "exactly-one-per-class"


class DeficiencyVerdict(NamedTuple):
    """Outcome of a structural deficiency-theorem check.

    ``conditions`` records each hypothesis with whether it holds; the
    ``conclusion`` is one of the CONCLUSION_* constants and differs from
    not-applicable only when every theorem precondition is satisfied.
    ``statement`` is a human-readable sentence for reports.
    """

    theorem: str  # "deficiency-zero" | "deficiency-one"
    applicable: bool
    conditions: tuple[tuple[str, bool], ...]
    conclusion: str
    statement: str


def _complex_edges(net: Network) -> list[tuple[int, int]]:
    """The complex graph: one (reactant, product) edge per reaction, in reaction order."""
    return [(rx.reactant, rx.product) for rx in net.reactions]


def _local_edges(
    edges: list[tuple[int, int]], rows: Iterable[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """The complexes ``rows`` touch, in increasing order, and the rows' edges numbered over them."""
    picked = [edges[i] for i in rows]
    touched = sorted(set(chain.from_iterable(picked)))
    local = dict(zip(touched, range(len(touched))))
    return touched, [(local[a], local[b]) for a, b in picked]


def _grouped(keys: Iterable[int]) -> list[tuple[int, ...]]:
    """Vertices 0, 1, ... grouped by key, each group sorted, ordered by smallest vertex."""
    # No sort is needed: the scan is in increasing order, so each group is
    # built sorted and the dict keeps the groups in order of their first vertex.
    groups: dict[int, list[int]] = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, []).append(v)
    return [tuple(g) for g in groups.values()]


def _undirected_components(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Vertex sets of the components of an undirected graph on range(n).

    Each set is sorted and the sets are ordered by their smallest vertex.
    """
    parent = list(range(n))
    for a, b in edges:
        # Find both roots, halving the paths; the larger root joins the smaller.
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # Each root is its set's smallest vertex, so no vertex points above itself
    # and one upward pass points every vertex at its root.
    for v in range(n):
        parent[v] = parent[parent[v]]
    return _grouped(parent)


def _strong_components(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Vertex sets of the strongly connected components of a directed graph on range(n).

    Kosaraju's two searches.  A depth-first search records the order in which
    vertices finish; a search over the reversed edges, started from the latest
    unclaimed finisher each time, then claims exactly one strong component.
    Each set is sorted and the sets are ordered by their smallest vertex.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    seen = [False] * n
    finished: list[int] = []
    for root in range(n):
        stack = [root]
        while stack:
            v = stack.pop()
            if v < 0:
                # ~v was pushed under everything first reached from v.
                finished.append(~v)
            elif not seen[v]:
                seen[v] = True
                stack.append(~v)
                stack.extend(succ[v])
    owner = [-1] * n
    for root in reversed(finished):
        if owner[root] < 0:
            owner[root] = root
            stack = [root]
            while stack:
                for w in pred[stack.pop()]:
                    if owner[w] < 0:
                        owner[w] = root
                        stack.append(w)
    return _grouped(owner)


def linkage_classes(net: Network) -> list[tuple[int, ...]]:
    """Connected components of the undirected graph on complexes."""
    return _undirected_components(net.complex_count, _complex_edges(net))


def strong_linkage_classes(net: Network) -> list[tuple[int, ...]]:
    """Strongly connected components of the directed graph on complexes."""
    return _strong_components(net.complex_count, _complex_edges(net))


def terminal_strong_linkage_classes(net: Network) -> list[tuple[int, ...]]:
    """Strong linkage classes with no reaction leaving them."""
    edges = _complex_edges(net)
    return _terminal(edges, _strong_components(net.complex_count, edges))


def _terminal(edges: list[tuple[int, int]], sccs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    scc_of: dict[int, int] = {c: k for k, scc in enumerate(sccs) for c in scc}
    terminal = [True] * len(sccs)
    for a, b in edges:
        if scc_of[a] != scc_of[b]:
            terminal[scc_of[a]] = False
    return [scc for k, scc in enumerate(sccs) if terminal[k]]


def _irreversible_count(edges: list[tuple[int, int]]) -> int:
    pairs = set(edges)
    return sum(1 for a, b in edges if (b, a) not in pairs)


class _lazy:
    """A method read as an attribute, computed on first read and stored on the instance.

    `functools.cached_property` does the same, but before Python 3.12 it takes a
    class-wide lock on every first read.  This is a non-data descriptor, so
    once the value is in the instance ``__dict__`` it is read from there.
    """

    def __init__(self, func):
        self.func, self.attrname, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _Structure:
    """The structural facts of one network or part.

    The public numbers and deficiency checks read one of these, and
    `_structures` builds one per network and, with `part`, one per part for
    the report, `crn numbers --parts` and `verify_decomposition`.  ``span`` is
    an elimination of the network's reaction vectors, in reaction order (a
    report passes the finder's); without it they are eliminated here, once.
    A part keeps its network's ``span``, and its rank and every linkage
    class's rank are the ranks of their rows in it.  The facts every reader
    reads, the complex graph's edge list, ``rank`` and ``linkage_classes``,
    are set when the structure is built; every other fact is computed when it
    is first read, so `verify_decomposition`, which reads only ``rank`` and
    ``incidence_rank``, runs no strong-class search and counts no species.
    """

    def __init__(self, net: Network, span: _Span | None = None):
        self.span = _eliminate(net._vectors) if span is None else span
        # Any elimination of every reaction keeps one basis row per unit of rank.
        self.rank = len(self.span.position)
        # Local reaction k is row ``_rows[k]`` of ``span``; ``_touched`` holds a
        # part's complexes in ``net`` and is None for the network itself.
        self._net, self._rows, self._touched = net, range(net.reaction_count), None
        self.edges, self.complex_count = _complex_edges(net), net.complex_count
        self.linkage_classes = _undirected_components(self.complex_count, self.edges)

    def part(self, reactions: Iterable[int]) -> _Structure:
        """The structure of the part of this network on ``reactions``.

        Its facts are those of `subnetwork(net, reactions)`: the complex graph
        of `_local_edges`, the species in its complexes' supports, and the
        ranks of its rows in this network's ``span``.
        """
        st = _Structure.__new__(_Structure)
        st._net, st.span, st._rows = self._net, self.span, sorted(reactions)
        st.rank = self.span.rank(st._rows)
        st._touched, st.edges = _local_edges(self.edges, st._rows)
        st.complex_count = len(st._touched)
        st.linkage_classes = _undirected_components(st.complex_count, st.edges)
        return st

    @_lazy
    def class_of(self) -> dict[int, int]:
        return {c: k for k, cls in enumerate(self.linkage_classes) for c in cls}

    @_lazy
    def strong_linkage_classes(self) -> list[tuple[int, ...]]:
        return _strong_components(self.complex_count, self.edges)

    @_lazy
    def terminal_strong_linkage_classes(self) -> list[tuple[int, ...]]:
        return _terminal(self.edges, self.strong_linkage_classes)

    @property
    def incidence_rank(self) -> int:
        """The incidence matrix's rank n - l: complexes minus linkage classes."""
        return self.complex_count - len(self.linkage_classes)

    @_lazy
    def numbers(self) -> NetworkNumbers:
        net, touched = self._net, self._touched
        if touched is None:
            species_count = net.species_count
        else:
            species_count = len({s for c in touched for s, _ in net._terms[c]})
        l = len(self.linkage_classes)
        sl = len(self.strong_linkage_classes)
        return NetworkNumbers(
            species_count=species_count,
            complex_count=self.complex_count,
            reaction_count=len(self.edges),
            irreversible_reaction_count=_irreversible_count(self.edges),
            linkage_class_count=l,
            strong_linkage_class_count=sl,
            terminal_strong_linkage_class_count=len(self.terminal_strong_linkage_classes),
            rank=self.rank,
            deficiency=self.incidence_rank - self.rank,
            weakly_reversible=sl == l,
        )

    @_lazy
    def class_deficiencies(self) -> list[int]:
        """Deficiency of each linkage class: n_i - 1 - s_i over the class's reactions."""
        classes = self.linkage_classes
        members: list[list[int]] = [[] for _ in classes]
        for row, (reactant, _) in zip(self._rows, self.edges):
            members[self.class_of[reactant]].append(row)
        return [
            len(cls) - 1 - self.span.rank(reactions) for cls, reactions in zip(classes, members)
        ]

    @_lazy
    def verdicts(self) -> tuple[DeficiencyVerdict, DeficiencyVerdict]:
        """The deficiency-zero and deficiency-one verdicts."""
        return _deficiency_zero_verdict(self.numbers), _deficiency_one_verdict(self)


def _structures(
    net: Network, parts: Sequence[Iterable[int]], span: _Span | None = None
) -> tuple[_Structure, list[_Structure]]:
    """The network's structure and each part's, all ranks read from ``span`` (see `_Structure`)."""
    whole = _Structure(net, span)
    # A part made of every reaction of a network whose species all occur in
    # some complex is the network itself, so it shares the network's structure.
    if len(parts) == 1 and len({s for t in net._terms for s, _ in t}) == net.species_count:
        return whole, [whole]
    return whole, [whole.part(part) for part in parts]


def network_numbers(net: Network) -> NetworkNumbers:
    """Compute the full structural summary of a network."""
    return _Structure(net).numbers


def subnetwork(net: Network, reactions: Iterable[int]) -> Network:
    """Network induced by a subset of reaction indices.

    Keeps exactly the chosen reactions, the complexes they touch, and the
    species occurring in those complexes; species and complex order are
    inherited from the parent, and labels are preserved.
    """
    chosen = list(reactions)
    if not all(map(_is_int, chosen)):
        raise NetworkError(f"reaction index not an integer in {chosen}")
    chosen = sorted(set(chosen))
    if not chosen:
        raise EmptySubsetError("subnetwork needs at least one reaction")
    if chosen[0] < 0 or chosen[-1] >= net.reaction_count:
        raise NetworkError(f"reaction index out of range in {chosen}")

    # Only the chosen reactions' edges: the cost follows the subset, not the parent.
    picked = [(rx.reactant, rx.product) for rx in map(net.reactions.__getitem__, chosen)]
    touched_complexes, edges = _local_edges(picked, range(len(picked)))
    touched_species = sorted({s for c in touched_complexes for s, _ in net._terms[c]})
    species_map = {old: new for new, old in enumerate(touched_species)}

    species = [Species(net.species_names[old], new) for old, new in species_map.items()]
    complexes = [
        Complex({species_map[i]: c for i, c in net._terms[old]}) for old in touched_complexes
    ]
    reactions_out = [
        Reaction(a, b, net.reaction_label(i)) for i, (a, b) in zip(chosen, edges)
    ]
    return Network(species, complexes, reactions_out)


def deficiency_zero_check(net: Network) -> DeficiencyVerdict:
    """Structural deficiency-zero theorem verdict.

    Applicable exactly when the deficiency is zero.  Then: not weakly
    reversible means no positive steady state (and no cyclic composition
    trajectory through a positive composition) for arbitrary kinetics;
    weakly reversible means, under mass action kinetics, exactly one steady
    state per positive stoichiometric compatibility class.
    """
    return _deficiency_zero_verdict(_Structure(net).numbers)


def _deficiency_zero_verdict(nn: NetworkNumbers) -> DeficiencyVerdict:
    is_zero = nn.deficiency == 0
    if not is_zero:
        conclusion = CONCLUSION_NOT_APPLICABLE
        statement = f"deficiency is {nn.deficiency}, not zero; the theorem does not apply"
    elif not nn.weakly_reversible:
        conclusion = CONCLUSION_NO_POSITIVE_STEADY_STATE
        statement = (
            "deficiency zero and not weakly reversible: for arbitrary kinetics the "
            "system admits no positive steady state and no cyclic composition "
            "trajectory containing a positive composition"
        )
    else:
        conclusion = CONCLUSION_EXACTLY_ONE
        statement = (
            "deficiency zero and weakly reversible: under mass action kinetics each "
            "positive stoichiometric compatibility class contains exactly one steady "
            "state, and that steady state is asymptotically stable"
        )
    return DeficiencyVerdict(
        theorem="deficiency-zero",
        applicable=is_zero,
        conditions=(
            ("deficiency is zero", is_zero),
            ("weakly reversible", nn.weakly_reversible),
        ),
        conclusion=conclusion,
        statement=statement,
    )


def deficiency_one_check(net: Network) -> DeficiencyVerdict:
    """Structural deficiency-one theorem verdict (mass action kinetics).

    Hypotheses: every linkage class contains exactly one terminal strong
    linkage class, every linkage class has deficiency at most one, and the
    class deficiencies sum to the network deficiency.  When they all hold
    there is at most one steady state per positive stoichiometric
    compatibility class (exactly one if also weakly reversible).
    """
    return _deficiency_one_verdict(_Structure(net))


def _deficiency_one_verdict(st: _Structure) -> DeficiencyVerdict:
    nn = st.numbers
    terminal_per_class = [0] * len(st.linkage_classes)
    for scc in st.terminal_strong_linkage_classes:
        terminal_per_class[st.class_of[scc[0]]] += 1
    class_deficiencies = st.class_deficiencies

    one_terminal = all(t == 1 for t in terminal_per_class)
    small_deficiencies = all(d <= 1 for d in class_deficiencies)
    sums_match = sum(class_deficiencies) == nn.deficiency
    conditions = (
        ("one terminal strong linkage class per linkage class", one_terminal),
        ("each linkage class deficiency at most one", small_deficiencies),
        ("linkage class deficiencies sum to network deficiency", sums_match),
        ("weakly reversible", nn.weakly_reversible),
    )
    applicable = one_terminal and small_deficiencies and sums_match
    if not applicable:
        failed = [name for name, holds in conditions[:3] if not holds]
        conclusion = CONCLUSION_NOT_APPLICABLE
        statement = "hypotheses fail (" + "; ".join(failed) + "); the theorem does not apply"
    elif nn.weakly_reversible:
        conclusion = CONCLUSION_EXACTLY_ONE
        statement = (
            "all hypotheses hold and the network is weakly reversible: under mass "
            "action kinetics there is exactly one steady state in each positive "
            "stoichiometric compatibility class"
        )
    else:
        conclusion = CONCLUSION_AT_MOST_ONE
        statement = (
            "all hypotheses hold: under mass action kinetics there is no more than one "
            "steady state in each positive stoichiometric compatibility class"
        )
    return DeficiencyVerdict(
        theorem="deficiency-one",
        applicable=applicable,
        conditions=conditions,
        conclusion=conclusion,
        statement=statement,
    )


MASS_ACTION = "mass-action"
POWER_LAW = "power-law"


class _KineticsFields(NamedTuple):
    kind: str
    rates: tuple[float, ...]
    orders: tuple[tuple[float, ...], ...]


class Kinetics(_Checked, _KineticsFields):
    """Rate constants plus a kinetic order matrix (reactions x species).

    Rate ``i`` evaluates as ``rates[i] * prod(x[j] ** orders[i][j])``.  For
    mass-action kinetics the order rows are the reactant complex coefficient
    vectors; power-law kinetics allows arbitrary real orders.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.kind not in (MASS_ACTION, POWER_LAW):
            raise ValueError(f"unknown kinetics kind {self.kind!r}")
        if not self.rates:
            raise ValueError("at least one rate constant required")
        if any(not (0 < k < math.inf) for k in self.rates):
            raise ValueError("rate constants must be finite and strictly positive")
        if len(self.orders) != len(self.rates):
            raise DimensionError("one kinetic order row per reaction required")
        widths = {len(row) for row in self.orders}
        if len(widths) > 1:
            raise DimensionError("kinetic order rows must have equal length")
        try:  # `math.isfinite` raises OverflowError for a number too large for a float
            bad = next(filterfalse(math.isfinite, chain(self.rates, *self.orders)), None)
        except OverflowError:
            raise _too_large(self.rates, self.orders) from None
        if bad is not None:
            raise ValueError(f"kinetic orders must be finite, not {bad!r}")

    @classmethod
    def _of_floats(cls, kind: str, rates: Sequence[float], orders: Sequence[Sequence[float]]):
        """The kinetics of ``rates`` and ``orders`` as floats (`ValueError` if one is too large)."""
        try:
            return cls(kind, tuple(map(float, rates)), tuple(tuple(map(float, r)) for r in orders))
        except OverflowError:
            raise _too_large(rates, orders) from None

    @classmethod
    def mass_action(cls, net: Network, rates: Sequence[float]) -> "Kinetics":
        """Mass-action kinetics: order rows taken from the reactant complexes."""
        if len(rates) != net.reaction_count:
            raise DimensionError(
                f"{net.reaction_count} rate constants required, got {len(rates)}"
            )
        rows = [_dense(net._terms[rx.reactant], net.species_count) for rx in net.reactions]
        return cls._of_floats(MASS_ACTION, rates, rows)

    @classmethod
    def power_law(
        cls, rates: Sequence[float], orders: Sequence[Sequence[float]]
    ) -> "Kinetics":
        return cls._of_floats(POWER_LAW, rates, orders)


def _too_large(rates: Sequence[float], orders: Sequence[Sequence[float]]) -> ValueError:
    """The refusal of the first rate or order too large for a float, named by its position."""
    named = [(f"rates[{i}]", k) for i, k in enumerate(rates)]
    named += [(f"orders[{i}][{j}]", v) for i, row in enumerate(orders) for j, v in enumerate(row)]
    for name, value in named:
        try:
            float(value)
        except OverflowError:
            return ValueError(f"{name} does not fit a float")


def _fluxes(net: Network, kinetics: Kinetics, x: Sequence[float]) -> list[float]:
    if len(kinetics.rates) != net.reaction_count:
        raise DimensionError("kinetics does not match the network's reaction count")
    if any(len(row) != net.species_count for row in kinetics.orders):
        raise DimensionError("kinetic order rows do not match the species count")
    if len(x) != net.species_count:
        raise DimensionError(
            f"point has {len(x)} coordinates, network has {net.species_count} species"
        )
    if any(not (xi > 0) for xi in x):
        raise NonPositivePointError("all concentrations must be strictly positive")
    if any(xi == math.inf for xi in x):
        raise ValueError("all concentrations must be finite")
    return _finite(
        k * math.prod(xi ** f for xi, f in zip(x, row))
        for k, row in zip(kinetics.rates, kinetics.orders)
    )


def _finite(values: Iterable[float]) -> list[float]:
    # Float arithmetic overflows to inf without raising; make it raise, as
    # ``**`` already does, so no verdict is read off an infinite value.
    out = list(values)
    if not all(map(math.isfinite, out)):
        raise OverflowError("rate evaluation overflowed the floating-point range")
    return out


def _formation_rate(net: Network, fluxes: Sequence[float]) -> tuple[float, ...]:
    f = [0.0] * net.species_count
    for i, flux in enumerate(fluxes):
        for s, c in net.sparse_reaction_vector(i):
            f[s] += c * flux
    return tuple(_finite(f))


def sfrf(net: Network, kinetics: Kinetics, x: Sequence[float]) -> tuple[float, ...]:
    """Species formation rate function: stoichiometric matrix times the fluxes."""
    return _formation_rate(net, _fluxes(net, kinetics, x))


def is_steady_state(
    net: Network, kinetics: Kinetics, x: Sequence[float], tol: float = 1e-9
) -> bool:
    """Whether the formation rate vanishes at ``x``, relative to flux size.

    True when ``max|f(x)| <= tol * max|K(x)|``: the tolerance scales with
    the largest reaction flux, however small the fluxes are.  A bad point is
    reported before a bad tolerance.
    """
    return _steady_state(net, kinetics, x, tol)[1]


def _steady_state(
    net: Network, kinetics: Kinetics, x: Sequence[float], tol: float
) -> tuple[tuple[float, ...], bool]:
    """f(x) and the `is_steady_state` verdict from one flux evaluation, point errors first."""
    fluxes = _fluxes(net, kinetics, x)
    f = _formation_rate(net, fluxes)
    # An infinite tolerance would call any point with a nonzero flux steady.
    if not 0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and nonnegative")
    residual = max(abs(v) for v in f)
    # An exact zero passes even when every flux underflowed to 0 (inf * 0 is nan).
    return f, residual == 0 or residual <= tol * max(fluxes)
