"""Structural network analysis and pointwise kinetics.

Covers the graph-theoretic network numbers (linkage classes, strong and
terminal strong linkage classes, rank, deficiency), weak reversibility,
structural deficiency-zero / deficiency-one theorem checks, subnetwork
extraction, and evaluation of the species formation rate function for
mass-action and power-law kinetics at a given positive point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import _eliminate, _Span
from .model import Complex, Network, NetworkError, Reaction, Species


class EmptySubsetError(ValueError):
    """Subnetwork extraction was given no reactions."""


class DimensionError(ValueError):
    """Kinetics or point dimensions do not match the network."""


class NonPositivePointError(ValueError):
    """Kinetics evaluation needs a strictly positive concentration vector."""


@dataclass(frozen=True)
class NetworkNumbers:
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


@dataclass(frozen=True)
class DeficiencyVerdict:
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


def _undirected_components(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Vertex sets of the components of an undirected graph on range(n).

    Each set is sorted and the sets are ordered by their smallest vertex.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])


def _tarjan_sccs(n: int, adjacency: list[list[int]]) -> list[tuple[int, ...]]:
    index: list[int | None] = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work.pop()
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(edge_pos, len(adjacency[v])):
                w = adjacency[v][i]
                if index[w] is None:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])  # type: ignore[type-var]
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sorted(sccs, key=lambda c: c[0])


def _directed_adjacency(net: Network) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(net.complex_count)]
    for rx in net.reactions:
        adj[rx.reactant].append(rx.product)
    return adj


def linkage_classes(net: Network) -> list[tuple[int, ...]]:
    """Connected components of the undirected graph on complexes."""
    edges = [(rx.reactant, rx.product) for rx in net.reactions]
    return _undirected_components(net.complex_count, edges)


def strong_linkage_classes(net: Network) -> list[tuple[int, ...]]:
    """Strongly connected components of the directed graph on complexes."""
    return _tarjan_sccs(net.complex_count, _directed_adjacency(net))


def terminal_strong_linkage_classes(net: Network) -> list[tuple[int, ...]]:
    """Strong linkage classes with no reaction leaving them."""
    return _terminal(net, strong_linkage_classes(net))


def _terminal(net: Network, sccs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    scc_of: dict[int, int] = {c: k for k, scc in enumerate(sccs) for c in scc}
    terminal = [True] * len(sccs)
    for rx in net.reactions:
        if scc_of[rx.reactant] != scc_of[rx.product]:
            terminal[scc_of[rx.reactant]] = False
    return [scc for k, scc in enumerate(sccs) if terminal[k]]


def _irreversible_count(net: Network) -> int:
    pairs = {(rx.reactant, rx.product) for rx in net.reactions}
    return sum(1 for rx in net.reactions if (rx.product, rx.reactant) not in pairs)


class _Structure:
    """The structural facts of one network, each computed at most once.

    The public numbers and deficiency checks read one of these, and a report
    builds one per network and per part.  ``span`` is an elimination of the
    network's reaction vectors, in reaction order (a report passes the
    finder's, restricted to the part); without it the reaction vectors are
    eliminated here, once.  The rank and every linkage class's rank are read
    from it.
    """

    def __init__(self, net: Network, span: _Span | None = None):
        self.net = net
        self.linkage_classes = linkage_classes(net)
        self.strong_linkage_classes = strong_linkage_classes(net)
        self.terminal_strong_linkage_classes = _terminal(net, self.strong_linkage_classes)
        if span is None:
            rows = [net.sparse_reaction_vector(i) for i in range(net.reaction_count)]
            span = _Span(*_eliminate(rows))
        self.span = span
        rank = span.rank(range(net.reaction_count))
        n = net.complex_count
        l = len(self.linkage_classes)
        sl = len(self.strong_linkage_classes)
        self.numbers = NetworkNumbers(
            species_count=net.species_count,
            complex_count=n,
            reaction_count=net.reaction_count,
            irreversible_reaction_count=_irreversible_count(net),
            linkage_class_count=l,
            strong_linkage_class_count=sl,
            terminal_strong_linkage_class_count=len(self.terminal_strong_linkage_classes),
            rank=rank,
            deficiency=n - l - rank,
            weakly_reversible=sl == l,
        )

    @cached_property
    def class_deficiencies(self) -> list[int]:
        """Deficiency of each linkage class: n_i - 1 - s_i over the class's reactions."""
        classes = self.linkage_classes
        if len(classes) == 1:
            return [self.numbers.deficiency]
        class_of = {c: k for k, cls in enumerate(classes) for c in cls}
        members: list[list[int]] = [[] for _ in classes]
        for i, rx in enumerate(self.net.reactions):
            members[class_of[rx.reactant]].append(i)
        return [
            len(cls) - 1 - self.span.rank(reactions) for cls, reactions in zip(classes, members)
        ]

    @cached_property
    def verdicts(self) -> tuple[DeficiencyVerdict, DeficiencyVerdict]:
        """The deficiency-zero and deficiency-one verdicts."""
        return _deficiency_zero_verdict(self.numbers), _deficiency_one_verdict(self)


def network_numbers(net: Network) -> NetworkNumbers:
    """Compute the full structural summary of a network."""
    return _Structure(net).numbers


def subnetwork(net: Network, reactions: Iterable[int]) -> Network:
    """Network induced by a subset of reaction indices.

    Keeps exactly the chosen reactions, the complexes they touch, and the
    species occurring in those complexes; species and complex order are
    inherited from the parent, and labels are preserved.
    """
    chosen = sorted(set(reactions))
    if not chosen:
        raise EmptySubsetError("subnetwork needs at least one reaction")
    if chosen[0] < 0 or chosen[-1] >= net.reaction_count:
        raise NetworkError(f"reaction index out of range in {chosen}")

    touched_complexes = sorted(
        {c for i in chosen for c in (net.reactions[i].reactant, net.reactions[i].product)}
    )
    touched_species = sorted(
        {s for c in touched_complexes for s in net.complexes[c].support}
    )
    species_map = {old: new for new, old in enumerate(touched_species)}
    complex_map = {old: new for new, old in enumerate(touched_complexes)}

    species = [
        Species(net.species[old].name, new) for old, new in sorted(species_map.items())
    ]
    complexes = [
        Complex({species_map[i]: c for i, c in net.complexes[old].terms})
        for old in touched_complexes
    ]
    reactions_out = [
        Reaction(
            complex_map[net.reactions[i].reactant],
            complex_map[net.reactions[i].product],
            net.reaction_label(i),
        )
        for i in chosen
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
    class_of = {c: k for k, cls in enumerate(st.linkage_classes) for c in cls}
    terminal_per_class = [0] * len(st.linkage_classes)
    for scc in st.terminal_strong_linkage_classes:
        terminal_per_class[class_of[scc[0]]] += 1
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


@dataclass(frozen=True)
class Kinetics:
    """Rate constants plus a kinetic order matrix (reactions x species).

    Rate ``i`` evaluates as ``rates[i] * prod(x[j] ** orders[i][j])``.  For
    mass-action kinetics the order rows are the reactant complex coefficient
    vectors; power-law kinetics allows arbitrary real orders.
    """

    kind: str
    rates: tuple[float, ...]
    orders: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
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

    @classmethod
    def mass_action(cls, net: Network, rates: Sequence[float]) -> "Kinetics":
        """Mass-action kinetics: order rows taken from the reactant complexes."""
        if len(rates) != net.reaction_count:
            raise DimensionError(
                f"{net.reaction_count} rate constants required, got {len(rates)}"
            )
        orders = tuple(
            tuple(
                float(c)
                for c in net.complexes[rx.reactant].vector(net.species_count)
            )
            for rx in net.reactions
        )
        return cls(MASS_ACTION, tuple(float(k) for k in rates), orders)

    @classmethod
    def power_law(
        cls, rates: Sequence[float], orders: Sequence[Sequence[float]]
    ) -> "Kinetics":
        return cls(
            POWER_LAW,
            tuple(float(k) for k in rates),
            tuple(tuple(float(v) for v in row) for row in orders),
        )


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
    the largest reaction flux, however small the fluxes are.
    """
    if tol < 0 or math.isnan(tol):
        raise ValueError("tolerance must be nonnegative")
    fluxes = _fluxes(net, kinetics, x)
    residual = max(abs(v) for v in _formation_rate(net, fluxes))
    # An exact zero passes even when every flux underflowed to 0 (inf * 0 is nan).
    return residual == 0 or residual <= tol * max(fluxes)
