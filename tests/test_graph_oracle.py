"""networkx as an oracle for the complex-graph searches.

The linkage classes, strong and terminal strong linkage classes and weak
reversibility of the bundled networks and of seeded generated networks must
match networkx.  So must the union-find (`_undirected_components`) and the
two-search strong components (`_strong_components`) on seeded random
digraphs with isolated vertices, self-loops and parallel edges, and both
must keep their order contract: each vertex set sorted, the sets ordered by
smallest vertex.  Each part's incidence rank, from `verify_decomposition` and
from a part's `_Structure`, must be the node count minus the component count
of the part's edges taken in the parent's complex numbers.  The whole module
is skipped when networkx is not installed.
"""

import random

import pytest

nx = pytest.importorskip("networkx")

from crnkit import (  # noqa: E402 - after the importorskip
    Network,
    Reaction,
    linkage_classes,
    network_numbers,
    parse_file,
    strong_linkage_classes,
    terminal_strong_linkage_classes,
    verify_decomposition,
)
from crnkit.analysis import (  # noqa: E402
    _strong_components,
    _Structure,
    _undirected_components,
)

from conftest import ALL_NETWORK_FILES  # noqa: E402
from netgen import random_network, random_sparse_network  # noqa: E402


def with_reverses(net, rng):
    """The network plus the reverse of about half of its reactions."""
    pairs = {(rx.reactant, rx.product) for rx in net.reactions}
    reactions = [
        Reaction(rx.reactant, rx.product, net.reaction_label(i))
        for i, rx in enumerate(net.reactions)
    ]
    for i, rx in enumerate(net.reactions):
        if rng.random() < 0.5 and (rx.product, rx.reactant) not in pairs:
            pairs.add((rx.product, rx.reactant))
            reactions.append(Reaction(rx.product, rx.reactant, f"B{i + 1}"))
    return Network(net.species, net.complexes, reactions)


def generated_networks():
    rng = random.Random(2024)
    nets = []
    for _ in range(8):
        nets.append(random_network(rng, max_species=4, max_reactions=8))
    for reactions in (10, 16, 24, 40):
        nets.append(random_sparse_network(rng, reactions, reactions // 2))
        nets.append(random_sparse_network(rng, reactions, 8, blocks=2))
    return nets + [with_reverses(net, rng) for net in nets]


NETWORKS = [parse_file(f) for f in ALL_NETWORK_FILES] + generated_networks()
NETWORK_IDS = [f.stem for f in ALL_NETWORK_FILES] + [
    f"netgen{k}" for k in range(len(NETWORKS) - len(ALL_NETWORK_FILES))
]


def as_sets(components):
    return {frozenset(c) for c in components}


def assert_order_contract(components, n):
    assert all(isinstance(c, tuple) and list(c) == sorted(c) for c in components)
    assert [c[0] for c in components] == sorted(c[0] for c in components)
    assert sorted(v for c in components for v in c) == list(range(n))


def test_enough_generated_networks():
    generated = NETWORKS[len(ALL_NETWORK_FILES):]
    assert len(generated) >= 20
    # Some generated networks have strong linkage classes of several complexes.
    assert any(len(c) > 1 for net in generated for c in strong_linkage_classes(net))


@pytest.mark.parametrize("net", NETWORKS, ids=NETWORK_IDS)
def test_complex_graph_classes_agree_with_networkx(net):
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(net.complex_count))
    g.add_edges_from((rx.reactant, rx.product) for rx in net.reactions)

    linkage = linkage_classes(net)
    strong = strong_linkage_classes(net)
    terminal = terminal_strong_linkage_classes(net)
    assert as_sets(linkage) == as_sets(nx.connected_components(g.to_undirected()))
    assert as_sets(strong) == as_sets(nx.strongly_connected_components(g))
    assert as_sets(terminal) == as_sets(nx.attracting_components(g))
    for components in (linkage, strong):
        assert_order_contract(components, net.complex_count)

    weakly_reversible = all(
        nx.is_strongly_connected(g.subgraph(c)) for c in nx.weakly_connected_components(g)
    )
    assert network_numbers(net).weakly_reversible == weakly_reversible


def seeded_partitions(r, rng):
    """All singletons, the whole set, and a few random partitions of range(r)."""
    yield [[i] for i in range(r)]
    yield [list(range(r))]
    for blocks in (2, 3, 5):
        owner = [rng.randrange(blocks) for _ in range(r)]
        yield [[i for i in range(r) if owner[i] == k] for k in sorted(set(owner))]


def incidence_rank(nodes, edges):
    g = nx.MultiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g.number_of_nodes() - nx.number_connected_components(g)


@pytest.mark.parametrize("net", NETWORKS, ids=NETWORK_IDS)
def test_part_incidence_ranks_agree_with_networkx(net):
    # Each part's graph keeps the parent's complex numbers: no renumbering.
    edges = [(rx.reactant, rx.product) for rx in net.reactions]
    whole = _Structure(net)
    rng = random.Random(net.reaction_count)
    for parts in seeded_partitions(net.reaction_count, rng):
        expected = tuple(
            incidence_rank({c for i in part for c in edges[i]}, [edges[i] for i in part])
            for part in parts
        )
        rep = verify_decomposition(net, parts)
        assert rep.incidence_part_ranks == expected
        assert rep.incidence_network_rank == incidence_rank(range(net.complex_count), edges)
        numbers = [whole.part(part).numbers for part in parts]
        assert tuple(nn.complex_count - nn.linkage_class_count for nn in numbers) == expected


def random_digraphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        # Drawn with replacement: self-loops and parallel edges occur, and a
        # sparse draw leaves isolated vertices.
        m = rng.randint(0, 3 * n)
        yield n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    # Deep searches: a long chain closed into one cycle, and the same chain open.
    chain = [(v, v + 1) for v in range(2999)]
    yield 3000, chain + [(2999, 0)]
    yield 3000, chain


def test_searches_agree_with_networkx_on_random_digraphs():
    seen = {"isolated": 0, "self-loop": 0, "parallel": 0}
    graphs = list(random_digraphs(1200, seed=7))
    for n, edges in graphs:
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        undirected = _undirected_components(n, edges)
        strong = _strong_components(n, edges)
        assert as_sets(undirected) == as_sets(nx.connected_components(g.to_undirected()))
        assert as_sets(strong) == as_sets(nx.strongly_connected_components(g))
        assert_order_contract(undirected, n)
        assert_order_contract(strong, n)
        touched = {v for e in edges for v in e}
        seen["isolated"] += len(touched) < n
        seen["self-loop"] += any(a == b for a, b in edges)
        seen["parallel"] += len(set(edges)) < len(edges)
    assert len(graphs) >= 1000
    assert all(count >= 100 for count in seen.values()), seen
