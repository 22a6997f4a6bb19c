"""The sparse elimination pass against independent dense oracles.

Rank, basis coordinates, the coordinate graph, and the part ranks of
`verify_decomposition` all come from one sparse fraction-free integer
elimination, and the ranks of parts and linkage classes are read from its
relations (`_Span.rank`).  Here they are checked on the corpus, on seeded
random networks of up to 60 reactions, and on seeded rational rows (mixed
denominators, entries beyond 2**200), against `rref` (a separate dense
`Fraction` implementation), exact recomposition, and the matrix product
N = Y * Ia.
"""

import math
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
from crnkit.analysis import _Structure
from crnkit.decomposition import _finest, _reaction_rows, _SubsetRankCache
from crnkit.linalg import _Echelon, _eliminate, _Span
from crnkit.report import _structures
from conftest import ALL_NETWORK_FILES, load
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
        # The scattered partition is dependent: its part ranks sum past the rank.
        for parts, independent in ((finest, True), (scattered, False)):
            rep = verify_decomposition(net, parts)
            assert rep.independent is independent
            assert rep.network_rank == rref_rank(stoichiometric_matrix(net))
            assert rep.incidence_network_rank == rref_rank(incidence_matrix(net))
            for k, part in enumerate(parts):
                sub = subnetwork(net, part)
                assert rep.part_ranks[k] == rref_rank(stoichiometric_matrix(sub))
                assert rep.incidence_part_ranks[k] == rref_rank(incidence_matrix(sub))
        if found:
            assert found.part_ranks == verify_decomposition(net, found.parts).part_ranks


def rational_rows(rng, nrows, ncols, dim, huge):
    """Seeded sparse rational rows spanning a space of dimension at most ``dim``.

    Entries have mixed denominators; with ``huge`` they reach 2**200 and
    beyond.  Each row is a rational combination of one to three of ``dim``
    generators, so rank deficiency and non-basis rows are common.
    """

    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        num = rng.choice([-1, 1]) * rng.randint(1, 9)
        if huge:
            num *= rng.randint(2**200, 2**210)
        return Fraction(num, rng.choice([1, 2, 3, 4, 6, 7, 9, 10, 12]))

    gens = [[entry() for _ in range(ncols)] for _ in range(dim)]
    rows = []
    for _ in range(nrows):
        picked = rng.sample(gens, rng.randint(1, min(3, dim)))
        coeffs = [Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 8)) for _ in picked]
        rows.append(tuple(sum((a * g[c] for a, g in zip(coeffs, picked)), Fraction(0))
                          for c in range(ncols)))
    return rows


RATIONAL_CASES = [
    rational_rows(random.Random(seed), nrows, ncols, dim, huge)
    for seed, (nrows, ncols, dim) in enumerate([(8, 5, 3), (14, 9, 6), (20, 12, 9), (12, 12, 12)])
    for huge in (False, True)
]


def test_rational_cases_cover_the_range():
    dens = {x.denominator for rows in RATIONAL_CASES for row in rows for x in row}
    assert len(dens) > 10
    assert max(abs(x) for rows in RATIONAL_CASES for row in rows for x in row) >= 2**200
    ranks = [rref_rank(RationalMatrix(rows)) for rows in RATIONAL_CASES]
    assert any(r < len(rows) for r, rows in zip(ranks, RATIONAL_CASES))


def rows_id(rows):
    size = "huge" if any(abs(x) >= 2**200 for row in rows for x in row) else "small"
    return f"{len(rows)}x{len(rows[0])}-{size}"


@pytest.mark.parametrize("rows", RATIONAL_CASES, ids=rows_id)
class TestRationalRows:
    def test_rank_and_greedy_basis_agree_with_rref(self, rows):
        m = RationalMatrix(rows)
        expected = rref_rank(m)
        assert rank(m) == expected
        assert rank(m.transpose()) == expected
        assert rank_of_rows(rows) == expected
        selection = select_basis_rows(m)
        assert selection.rank == expected
        # The greedy row basis is the pivot columns of the transpose's rref.
        assert selection.basis_rows == rref(m.transpose())[1]

    def test_coordinates_recompose_exactly(self, rows):
        chosen = select_basis_rows(RationalMatrix(rows)).basis_rows
        basis_rows = [rows[i] for i in chosen]
        for k, row in enumerate(rows):
            a = coordinates(row, basis_rows)
            if k in chosen:
                assert a == tuple(int(i == k) for i in chosen)
            recomposed = tuple(
                sum((aj * b[c] for aj, b in zip(a, basis_rows)), Fraction(0))
                for c in range(len(row))
            )
            assert recomposed == row


@pytest.mark.parametrize("case", range(len(NETWORKS) + len(RATIONAL_CASES)))
def test_stored_echelon_rows_are_primitive_integer_rows(case):
    # Content 1 (of row and tag together) is the guard against coefficient growth.
    if case < len(NETWORKS):
        rows = [dict(r) for r in _reaction_rows(NETWORKS[case])]
    else:
        rows = [{j: x for j, x in enumerate(r) if x} for r in RATIONAL_CASES[case - len(NETWORKS)]]
    echelon = _Echelon()
    basis, relations = [], []
    for row in rows:
        relation = echelon.add(row)
        if relation is None:
            basis.append(row)
        else:
            relations.append((row, relation))
    assert len(echelon._pivots) == echelon.rank == len(basis)
    # A row that does not join the basis comes back as its integer relation:
    # scale * row + sum(tag[j] * basis[j]) == 0 with scale > 0.
    for row, (tag, scale) in relations:
        assert type(scale) is int and scale > 0
        assert all(type(t) is int and t for t in tag.values())
        total = {c: scale * x for c, x in row.items()}
        for j, t in tag.items():
            for c, x in basis[j].items():
                total[c] = total.get(c, 0) + t * x
        assert not any(total.values())
    for col, (row, tag) in echelon._pivots.items():
        assert min(row) == col and row[col] > 0
        values = list(row.values()) + list(tag.values())
        assert all(type(x) is int and x for x in values)
        assert math.gcd(*values) == 1
        combo = {}
        for j, t in tag.items():
            for c, x in basis[j].items():
                combo[c] = combo.get(c, 0) + t * x
        assert {c: x for c, x in combo.items() if x} == row


def test_subset_rank_cache_matches_fresh_elimination_for_every_mask():
    net = random_sparse_network(random.Random(10), 10, 6)
    rows = _reaction_rows(net)
    assert len(rows) == 10
    cache = _SubsetRankCache(rows)
    ranks = set()
    for mask in range(1 << 10):
        subset = [rows[i] for i in range(10) if mask >> i & 1]
        fresh = len(_eliminate(subset)[0])
        assert cache.rank(mask) == fresh
        ranks.add(fresh)
    assert ranks == set(range(rank_of_rows(net.reaction_vector(i) for i in range(10)) + 1))
    assert max(ranks) < 10


CORPUS = [load(path.name) for path in ALL_NETWORK_FILES]


def rows_rank(rows):
    return rref_rank(RationalMatrix(rows))


def span_cases():
    """(id, dense rows) for the corpus, the seeded networks and the rational rows."""
    for net in CORPUS + NETWORKS:
        rows = [net.reaction_vector(i) for i in range(net.reaction_count)]
        yield f"net-{net.species_count}x{net.reaction_count}", rows
    for rows in RATIONAL_CASES:
        yield f"rows-{rows_id(rows)}", rows


SPAN_CASES = list(span_cases())


@pytest.mark.parametrize("rows", [rows for _, rows in SPAN_CASES], ids=[i for i, _ in SPAN_CASES])
def test_span_ranks_of_seeded_subsets_agree_with_rref(rows):
    rng = random.Random(len(rows) * 1009 + len(rows[0]))
    span = _Span(*_eliminate([{j: x for j, x in enumerate(row) if x} for row in rows]))
    n = len(rows)
    assert span.rank(range(n)) == rows_rank(rows)
    deficient = 0
    for _ in range(25):
        subset = rng.sample(range(n), rng.randint(0, n))
        expected = rows_rank([rows[i] for i in subset])
        assert span.rank(subset) == expected
        # The same elimination restricted to a superset, renumbered, in any order.
        outer = sorted(set(subset) | set(rng.sample(range(n), rng.randint(0, n))))
        rng.shuffle(outer)
        local = {i: k for k, i in enumerate(outer)}
        assert span.restrict(outer).rank([local[i] for i in subset]) == expected
        deficient += expected < len(subset)
    # Whenever some row is dependent, some sampled subset is rank deficient.
    assert deficient or not span.relations


def test_class_deficiencies_agree_with_rref():
    most_parts = most_classes = 0
    for net in CORPUS + NETWORKS:
        whole, parts = _structures(net, _finest(net))
        for st in (_Structure(net), whole, *parts):
            sub = st.net
            assert st.numbers.rank == rref_rank(stoichiometric_matrix(sub))
            expected = []
            for cls in st.linkage_classes:
                rows = [
                    sub.reaction_vector(i) for i, rx in enumerate(sub.reactions) if rx.reactant in cls
                ]
                expected.append(len(cls) - 1 - rows_rank(rows))
            assert st.class_deficiencies == expected
        most_parts = max(most_parts, len(parts))
        most_classes = max([most_classes] + [len(st.linkage_classes) for st in parts])
    assert most_parts >= 4 and most_classes >= 4
