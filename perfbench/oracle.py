"""Exact answers for generated networks, computed without crnkit.

Ranks come from fraction-free integer elimination in row order, which also
yields the greedy basis and, for every other reaction, the basis rows its
exact coordinates use.  Only the standard library is used.  The ``check_*``
functions compare crnkit's outputs with these answers and return a list of
problems, empty when the outputs are right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

NUMBER_KEYS = (
    "species",
    "complexes",
    "reactions",
    "irreversible_reactions",
    "linkage_classes",
    "rank_of_network",
    "deficiency",
)
# All schema-"1" keys of a numbers dict.
SCHEMA1_NUMBER_KEYS = NUMBER_KEYS + (
    "strong_linkage_classes",
    "terminal_strong_linkage_classes",
    "weakly_reversible",
)


def _eliminate(vectors: Sequence[Sequence[int]]) -> tuple[list[int], dict[int, set[int]]]:
    """Greedy basis rows and, per other row, the basis rows it depends on.

    Each echelon row carries its provenance: the integer combination of
    input rows it equals.  A row that reduces to zero yields a relation
    ``c_k v_k + sum c_i v_i = 0`` with ``c_k != 0``, whose other nonzero
    ``c_i`` are exactly the nonzero coordinates of ``v_k`` in the basis.
    """
    echelon: list[tuple[int, list[int], dict[int, int]]] = []
    basis: list[int] = []
    support: dict[int, set[int]] = {}
    for k, vec in enumerate(vectors):
        row, prov = list(vec), {k: 1}
        for p, erow, eprov in echelon:
            c = row[p]
            if not c:
                continue
            e = erow[p]
            row = [e * a - c * b for a, b in zip(row, erow)]
            keys = prov.keys() | eprov.keys()
            prov = {i: e * prov.get(i, 0) - c * eprov.get(i, 0) for i in keys}
            g = math.gcd(*row, *prov.values())
            if g > 1:
                row = [a // g for a in row]
                prov = {i: v // g for i, v in prov.items()}
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is None:
            support[k] = {i for i, c in prov.items() if c and i != k}
        else:
            echelon.append((pivot, row, prov))
            basis.append(k)
    return basis, support


def rank(vectors: Iterable[Sequence[int]]) -> int:
    return len(_eliminate(list(vectors))[0])


def _components(count: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in range(count):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(g) for g in groups.values())


def reaction_vector(net, k: int) -> list[int]:
    a, b = net.reactions[k]
    v = [0] * len(net.species)
    for i, c in a:
        v[i] -= c
    for i, c in b:
        v[i] += c
    return v


def numbers(net, subset: Sequence[int] | None = None) -> dict[str, int]:
    """The network-numbers table for the reactions in ``subset``."""
    chosen = range(len(net.reactions)) if subset is None else subset
    pairs = [net.reactions[k] for k in chosen]
    complexes = sorted({c for pair in pairs for c in pair})
    index = {c: i for i, c in enumerate(complexes)}
    linkage = len(_components(len(complexes), ((index[a], index[b]) for a, b in pairs)))
    s = rank(reaction_vector(net, k) for k in chosen)
    n = len(complexes)
    present = set(pairs)
    return {
        "species": len({i for c in complexes for i, _ in c}),
        "complexes": n,
        "reactions": len(pairs),
        "irreversible_reactions": sum((b, a) not in present for a, b in pairs),
        "linkage_classes": linkage,
        "rank_of_network": s,
        "deficiency": n - linkage - s,
    }


@dataclass(frozen=True)
class Analysis:
    """The exact answers ``analyze`` must reproduce for one network."""

    rank: int
    basis: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    components: tuple[tuple[int, ...], ...]
    parts: tuple[tuple[int, ...], ...]
    numbers: dict[str, int]
    part_numbers: tuple[dict[str, int], ...]


def analyse(net) -> Analysis:
    """Coordinate graph and finest independent decomposition of ``net``."""
    basis, support = _eliminate([reaction_vector(net, k) for k in range(len(net.reactions))])
    vertex = {row: v for v, row in enumerate(basis)}
    edges = set()
    for rows in support.values():
        vs = sorted(vertex[i] for i in rows)
        edges.update((a, b) for i, a in enumerate(vs) for b in vs[i + 1:])
    components = _components(len(basis), edges)
    owner = {v: c for c, comp in enumerate(components) for v in comp}
    members: list[list[int]] = [[] for _ in components]
    for row, v in vertex.items():
        members[owner[v]].append(row)
    for k, rows in support.items():
        members[owner[vertex[min(rows)]]].append(k)
    parts = tuple(sorted(tuple(sorted(m)) for m in members))
    return Analysis(
        rank=len(basis),
        basis=tuple(basis),
        edges=frozenset(edges),
        components=tuple(components),
        parts=parts,
        numbers=numbers(net),
        part_numbers=tuple(numbers(net, p) for p in parts),
    )


def _incidence_rank(nums: dict[str, int]) -> int:
    return nums["complexes"] - nums["linkage_classes"]


def _expecter(problems: list[str]):
    def expect(what: str, got: Any, want: Any) -> None:
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    return expect


def check_identities(d: dict[str, Any]) -> list[str]:
    """Problems with the identities every ``analyze`` JSON dict must satisfy.

    The parts partition the reactions, the part ranks sum to the rank,
    deficiency = n - l - s, and each incidence rank is n - l.
    """
    problems: list[str] = []
    expect = _expecter(problems)
    decomp = d["decomposition"]
    network = d["network"]
    labels = [x for p in decomp["parts"] for x in p]
    expect("parts are disjoint", len(set(labels)), len(labels))
    expect("parts cover the reactions", len(labels), network["reactions"])
    expect("trivial", decomp["trivial"], len(decomp["parts"]) == 1)
    expect("sum of part ranks", sum(decomp["part_ranks"]), decomp["network_rank"])
    expect("independent", decomp["independent"], True)
    for k, nums in enumerate([network] + [s["numbers"] for s in d["subnetworks"]]):
        where = "network" if k == 0 else f"part {k}"
        expect(
            f"{where} deficiency = n - l - s",
            nums["deficiency"],
            nums["complexes"] - nums["linkage_classes"] - nums["rank_of_network"],
        )
        expect(
            f"{where} incidence rank = n - l",
            decomp["incidence_network_rank"] if k == 0 else decomp["incidence_part_ranks"][k - 1],
            _incidence_rank(nums),
        )
    return problems


def check_report(d: dict[str, Any], net, exact: Analysis) -> list[str]:
    """Problems in an ``analyze`` JSON dict, judged against ``exact``."""
    problems = check_identities(d)
    expect = _expecter(problems)
    labels = net.labels
    decomp = d["decomposition"]
    want_parts = {frozenset(labels[k] for k in p): n for p, n in zip(exact.parts, exact.part_numbers)}
    expect("parts", {frozenset(p) for p in decomp["parts"]}, set(want_parts))
    expect("network rank", decomp["network_rank"], exact.rank)
    expect("numbers", _pick(d["network"], NUMBER_KEYS), exact.numbers)
    for k, sub in enumerate(d["subnetworks"]):
        nums = want_parts.get(frozenset(sub["part"]))
        if nums is not None:
            expect(f"part {k + 1} numbers", _pick(sub["numbers"], NUMBER_KEYS), nums)
            expect(f"part {k + 1} rank", decomp["part_ranks"][k], nums["rank_of_network"])
    graph = d["coordinate_graph"]
    expect("graph vertices", graph["vertices"], [labels[k] for k in exact.basis])
    expect("graph edges", {tuple(e) for e in graph["edges"]}, set(exact.edges))
    expect("graph components", {tuple(c) for c in graph["components"]}, set(exact.components))
    return problems


def _pick(d: dict[str, Any], keys: Iterable[str]) -> dict[str, Any]:
    return {k: d[k] for k in keys}


def schema1_facts(d: dict[str, Any]) -> dict[str, Any]:
    """The schema-"1" values a corpus report is compared on.

    Parts, ranks, numbers, coordinate-graph edges and components, and the
    deficiency-theorem conclusions.  Keys outside this projection may be
    added to the report without affecting the comparison.
    """
    decomp = d["decomposition"]
    graph = d["coordinate_graph"]
    return {
        "numbers": _pick(d["network"], SCHEMA1_NUMBER_KEYS),
        "vertices": graph["vertices"],
        "edges": graph["edges"],
        "components": graph["components"],
        "trivial": decomp["trivial"],
        "parts": decomp["parts"],
        "ranks": [
            decomp[k]
            for k in (
                "network_rank",
                "part_ranks",
                "independent",
                "incidence_network_rank",
                "incidence_part_ranks",
                "incidence_independent",
            )
        ],
        "conclusions": [d["deficiency_zero"]["conclusion"], d["deficiency_one"]["conclusion"]],
        "subnetworks": [
            [
                s["part"],
                _pick(s["numbers"], SCHEMA1_NUMBER_KEYS),
                s["deficiency_zero"]["conclusion"],
                s["deficiency_one"]["conclusion"],
            ]
            for s in d["subnetworks"]
        ],
    }


def formation_rate(net, rates: Sequence[int], point: Sequence[int]) -> list[int]:
    """f(x) = sum_k rate_k x^(reactant_k) (product_k - reactant_k), exactly.

    Rates and point are integers, so integer arithmetic is exact here.
    """
    f = [0] * len(net.species)
    for k, (a, _) in enumerate(net.reactions):
        flux = rates[k]
        for i, c in a:
            flux *= point[i] ** c
        for i, v in enumerate(reaction_vector(net, k)):
            f[i] += v * flux
    return f
