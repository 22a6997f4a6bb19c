"""The sparse elimination pass against independent dense oracles.

Rank, basis coordinates, the coordinate graph, and the part ranks of
`verify_decomposition` all come from one sparse elimination.  Here they are
checked on seeded random networks of up to 60 reactions against `rref` (a
separate dense implementation), exact recomposition, and the matrix product
N = Y * Ia.
"""

import random
from fractions import Fraction

import pytest

from crnkit import (
    RationalMatrix,
    build_coordinate_graph,
    coordinates,
    find_independent_decomposition,
    incidence_matrix,
    molecularity_matrix,
    network_numbers,
    rank,
    rank_of_rows,
    rref,
    select_basis_rows,
    stoichiometric_matrix,
    subnetwork,
    verify_decomposition,
)
from netgen import random_network, random_sparse_network


def rref_rank(matrix):
    return len(rref(matrix)[1])


def seeded_networks():
    rng = random.Random(6060)
    nets = [random_network(rng, 6, 30) for _ in range(4)]
    for reactions, species, blocks in [(20, 10, 1), (40, 20, 1), (60, 30, 1), (60, 12, 1),
                                       (30, 16, 4), (60, 24, 6)]:
        nets.append(random_sparse_network(rng, reactions, species, blocks))
    return nets


NETWORKS = seeded_networks()


def test_sizes_cover_the_range():
    sizes = [net.reaction_count for net in NETWORKS]
    assert max(sizes) == 60
    assert max(network_numbers(net).rank for net in NETWORKS) >= 20
    assert any(net.reaction_count > network_numbers(net).rank + 30 for net in NETWORKS)
    found = [find_independent_decomposition(net) for net in NETWORKS]
    assert any(d is None for d in found)
    assert max(len(d.parts) for d in found if d) >= 4


@pytest.mark.parametrize("net", NETWORKS, ids=lambda n: f"{n.species_count}x{n.reaction_count}")
class TestAgainstDenseOracles:
    def test_stoichiometric_matrix_is_the_product(self, net):
        assert stoichiometric_matrix(net) == molecularity_matrix(net) @ incidence_matrix(net)

    def test_ranks_agree_with_rref(self, net):
        n = stoichiometric_matrix(net)
        nt = n.transpose()
        expected = rref_rank(n)
        assert rank(n) == expected
        assert rank(nt) == expected
        assert rank_of_rows(net.reaction_vector(i) for i in range(net.reaction_count)) == expected
        assert select_basis_rows(nt).rank == expected
        assert network_numbers(net).rank == expected

    def test_coordinates_recompose_every_non_basis_reaction(self, net):
        nt = stoichiometric_matrix(net).transpose()
        basis = select_basis_rows(nt)
        basis_rows = [nt.row(i) for i in basis.basis_rows]
        assert rref_rank(RationalMatrix(basis_rows)) == basis.rank
        edges = set()
        for k in range(nt.rows):
            if k in basis.basis_rows:
                continue
            a = coordinates(nt.row(k), basis_rows)
            recomposed = tuple(
                sum((aj * row[c] for aj, row in zip(a, basis_rows)), Fraction(0))
                for c in range(nt.cols)
            )
            assert recomposed == nt.row(k)
            nonzero = [j for j, aj in enumerate(a) if aj]
            edges.update((p, q) for p in nonzero for q in nonzero if p < q)
        assert build_coordinate_graph(net, basis).edges == edges

    def test_verified_ranks_agree_with_rref(self, net):
        rng = random.Random(net.reaction_count)
        found = find_independent_decomposition(net)
        finest = found.parts if found else (tuple(range(net.reaction_count)),)
        labels = [rng.randrange(3) for _ in range(net.reaction_count)]
        scattered = [
            [i for i, lab in enumerate(labels) if lab == k] for k in range(3) if k in labels
        ]
        for parts in (finest, scattered):
            rep = verify_decomposition(net, parts)
            assert rep.network_rank == rref_rank(stoichiometric_matrix(net))
            assert rep.incidence_network_rank == rref_rank(incidence_matrix(net))
            for k, part in enumerate(parts):
                sub = subnetwork(net, part)
                assert rep.part_ranks[k] == rref_rank(stoichiometric_matrix(sub))
                assert rep.incidence_part_ranks[k] == rref_rank(incidence_matrix(sub))
        if found:
            assert found.part_ranks == verify_decomposition(net, found.parts).part_ranks
