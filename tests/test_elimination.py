"""The sparse elimination pass against independent dense oracles.

Rank, basis coordinates, the coordinate graph, and the part ranks of
`verify_decomposition` all come from one sparse fraction-free integer
elimination, and the ranks of parts and linkage classes are read from its
relations (`_Span.rank`).  Here they are checked on the corpus, on seeded
random networks of up to 60 reactions, and on seeded rational rows (mixed
denominators, entries beyond 2**200), against `rref` (a separate dense
`Fraction` implementation), exact recomposition, and the matrix product
N = Y * Ia.  The coordinate graph's edge list, read from neighbour bit
masks, is checked against every pair of each relation on spans of rank up
to several hundred.
`_eliminate` takes integer (column, value) pairs only; the library entry
points clear a row's denominators at the boundary, `_sparse`, and rational
rows reach the kernel through it here too.  Integer rows, the same rows as
`Fraction`s and mixed rows reach it as identical integer pairs, the public
functions accept `int`, `Fraction`, mixed, float, `Decimal`, `str` and
`bool` entries alike, and a `Fraction` handed to the kernel is refused.
`_eliminate` pivots on the columns rarest first; its basis and relations are
checked against `fraction_scan`, a separate greedy scan in `Fraction`s that
pivots in natural column order, on networks of up to 1000 reactions, and
`_Span.rank`, which eliminates a subset's restricted tags through it, against
fresh scans of the subset on networks of 200 to 400.  Each relation is an
integer relation over the basis, and the raw relation of a crafted case pins
the column order, its tie-break and the content of the stored pivot rows.
"""

import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from crnkit import (
    BasisSelection,
    NotInSpanError,
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
from crnkit.analysis import _Structure, _structures
from crnkit.decomposition import _coordinate_edges, _finest
from crnkit.linalg import _eliminate, _sparse
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

    def test_coordinate_graph_over_a_given_basis(self, net):
        nt = stoichiometric_matrix(net).transpose()
        r = nt.rows
        greedy = select_basis_rows(nt).basis_rows
        # The greedy basis of the rows in reverse order, kept in that order.
        backwards = select_basis_rows(RationalMatrix(nt.row(i) for i in reversed(range(r))))
        chosen = tuple(r - 1 - i for i in backwards.basis_rows)
        assert chosen != greedy
        basis_rows = [nt.row(i) for i in chosen]
        edges = set()
        for k in range(r):
            if k not in chosen:
                a = coordinates(nt.row(k), basis_rows)
                edges.update(combinations([j for j, aj in enumerate(a) if aj], 2))
        graph = build_coordinate_graph(net, BasisSelection(chosen, len(chosen)))
        assert graph.edges == edges
        assert graph.vertex_labels == tuple(net.reaction_label(i) for i in chosen)
        # A basis with a dependent row, and one that spans too little.
        extra = min(set(range(r)) - set(greedy))
        with pytest.raises(ValueError, match="^basis rows are linearly dependent$") as raised:
            build_coordinate_graph(net, BasisSelection((*greedy, extra), len(greedy) + 1))
        assert type(raised.value) is ValueError
        with pytest.raises(NotInSpanError, match=f"^row {greedy[-1]} is not in the span"):
            build_coordinate_graph(net, BasisSelection(greedy[:-1], len(greedy) - 1))

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
def test_each_relation_is_an_integer_relation_over_the_basis(case):
    if case < len(NETWORKS):
        net = NETWORKS[case]
        dense = [net.reaction_vector(i) for i in range(net.reaction_count)]
    else:
        dense = RATIONAL_CASES[case - len(NETWORKS)]
    rows, mults, cleared = [], [], []
    for given in dense:
        # The boundary hands the kernel m * row in integers, m = 1 for integer rows.
        pairs, m = _sparse(given)
        row = {j: x for j, x in enumerate(given) if x}
        assert dict(pairs) == {j: m * x for j, x in row.items()}
        rows.append(row)
        mults.append(m)
        cleared.append(pairs)
    span = _eliminate(cleared)
    assert len(span.position) + len(span.relations) == len(dense)
    basis = list(span.position)
    # A row that does not join the basis comes back as its integer relation:
    # scale * m * row + sum(tag[j] * m[j] * basis[j]) == 0 with scale > 0.
    for i, (tag, scale) in span.relations.items():
        assert type(scale) is int and scale > 0
        assert all(type(t) is int and t for t in tag.values())
        assert all(0 <= j < len(basis) for j in tag)
        total = {c: scale * mults[i] * x for c, x in rows[i].items()}
        for j, t in tag.items():
            for c, x in rows[basis[j]].items():
                total[c] = total.get(c, 0) + t * mults[basis[j]] * x
        assert not any(total.values())


def test_span_rank_matches_rref_for_every_subset():
    net = random_sparse_network(random.Random(10), 10, 6)
    rows = [net.reaction_vector(i) for i in range(net.reaction_count)]
    assert len(rows) == 10
    span = _eliminate(net._vectors)
    ranks = set()
    for mask in range(1 << 10):
        subset = [i for i in range(10) if mask >> i & 1]
        expected = rows_rank([rows[i] for i in subset])
        assert span.rank(subset) == expected
        ranks.add(expected)
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
    span = _eliminate([_sparse(row)[0] for row in rows])
    n = len(rows)
    assert span.rank(range(n)) == rows_rank(rows)
    deficient = 0
    for _ in range(25):
        subset = rng.sample(range(n), rng.randint(0, n))
        expected = rows_rank([rows[i] for i in subset])
        assert span.rank(subset) == expected
        deficient += expected < len(subset)
    # Whenever some row is dependent, some sampled subset is rank deficient.
    assert deficient or not span.relations


@pytest.mark.parametrize("reactions, species, blocks", [(200, 100, 1), (300, 60, 1), (400, 200, 4)])
def test_span_ranks_at_scale_agree_with_fresh_scans(reactions, species, blocks, monkeypatch):
    # `_Span.rank` hands a subset's restricted tags to `_eliminate`; at these
    # sizes the rarest-first order permutes their columns.  Each subset's rank
    # is checked against fresh scans of its own reaction vectors, in that
    # order and in natural column order.
    net = random_sparse_network(random.Random(reactions + blocks), reactions, species, blocks)
    rows = net._vectors
    span = _eliminate(rows)
    rng = random.Random(reactions)
    subsets = [rng.sample(range(reactions), rng.randint(1, reactions)) for _ in range(4)]
    labels = [rng.randrange(2) for _ in range(reactions)]
    subsets += [[i for i, lab in enumerate(labels) if lab == k] for k in range(2)]
    classes = _Structure(net).linkage_classes
    subsets += [[i for i, rx in enumerate(net.reactions) if rx.reactant in cls] for cls in classes]
    permuted = 0

    def recorded(tags):
        nonlocal permuted
        uses = Counter(j for tag in tags for j, _ in tag)
        permuted += sorted(uses, key=lambda j: (uses[j], j)) != sorted(uses)
        return _eliminate(tags)

    monkeypatch.setattr("crnkit.linalg._eliminate", recorded)
    for subset in subsets:
        own = [rows[i] for i in subset]
        expected = len(_eliminate(own).position)
        assert len(fraction_scan(own)[0]) == expected
        assert span.rank(subset) == expected
    assert len(classes) > 1 and permuted >= 6


def test_class_deficiencies_agree_with_rref():
    most_parts = most_classes = 0
    for net in CORPUS + NETWORKS:
        span, found = _finest(net)
        whole, parts = _structures(net, found.parts, span)
        subs = [net, net, *(subnetwork(net, part) for part in found.parts)]
        for st, sub in zip((_Structure(net), whole, *parts), subs, strict=True):
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


def edge_spans():
    """(id, span) for the corpus, the seeded networks, and spans of rank above 64."""
    for net in CORPUS + NETWORKS:
        yield f"net-{net.species_count}x{net.reaction_count}", _eliminate(net._vectors)
    rng = random.Random(1212)
    for reactions, species in [(200, 100), (1000, 500)]:
        for blocks in (1, 6):
            net = random_sparse_network(rng, reactions, species, blocks)
            yield f"sparse-{reactions}x{species}-{blocks}", _eliminate(net._vectors)


EDGE_SPANS = list(edge_spans())


def test_edge_spans_cover_masks_of_several_digits():
    # A CPython int digit holds 30 bits, so ranks above 64 need three digits.
    assert max(len(span.position) for _, span in EDGE_SPANS) > 300
    assert sum(len(span.position) > 64 for _, span in EDGE_SPANS) >= 4


@pytest.mark.parametrize("span", [s for _, s in EDGE_SPANS], ids=[i for i, _ in EDGE_SPANS])
def test_coordinate_edges_are_every_pair_of_each_relation(span):
    pairs = {p for tag, _ in span.relations.values() for p in combinations(sorted(tag), 2)}
    assert _coordinate_edges(span) == sorted(pairs)


def integer_row_cases():
    """(id, network) for the corpus, the seeded networks and a 200-reaction network."""
    for net in CORPUS + NETWORKS:
        yield f"net-{net.species_count}x{net.reaction_count}", net
    yield "sparse-200x100-6", random_sparse_network(random.Random(1313), 200, 100, 6)


INTEGER_ROW_CASES = list(integer_row_cases())


def typed(pairs):
    return [(j, x, type(x)) for j, x in pairs]


@pytest.mark.parametrize(
    "net", [n for _, n in INTEGER_ROW_CASES], ids=[i for i, _ in INTEGER_ROW_CASES]
)
def test_integer_rows_eliminate_as_their_fractions_do(net):
    # Integer rows, the same rows as `Fraction`s and mixed rows reach the
    # kernel as identical integer pairs: the reaction vectors' own pairs.
    rows = [net.reaction_vector(i) for i in range(net.reaction_count)]
    as_fractions = [tuple(map(Fraction, row)) for row in rows]
    mixed = [tuple(Fraction(x) if (i + j) % 2 else x for j, x in enumerate(row))
             for i, row in enumerate(rows)]
    own = [typed(pairs) for pairs in net._vectors]
    spans = []
    for given in (rows, as_fractions, mixed):
        cleared = [_sparse(row) for row in given]
        assert [typed(pairs) for pairs, _ in cleared] == own
        assert all(type(m) is int and m == 1 for _, m in cleared)
        spans.append(_eliminate([pairs for pairs, _ in cleared]))
    by_ints = spans[0]
    for other in spans[1:]:
        assert list(by_ints.position.items()) == list(other.position.items())
        assert list(by_ints.relations) == list(other.relations)
        for i, (tag, scale) in by_ints.relations.items():
            other_tag, other_scale = other.relations[i]
            assert list(tag.items()) == list(other_tag.items()) and scale == other_scale
            assert type(scale) is int and all(type(t) is int for t in tag.values())
    # The scan copies its rows: the caller's pairs are left as given.
    pairs = [_sparse(row)[0] for row in rows]
    _eliminate(pairs)
    assert [typed(p) for p in pairs] == own


def boundary_cases():
    """(id, rows) of each entry type the library functions accept."""
    rng = random.Random(1414)
    ints = [[net.reaction_vector(i) for i in range(net.reaction_count)] for net in NETWORKS[4:7]]
    # Dyadic entries, so that float and Decimal hold them exactly.
    dyadic = []
    for nrows, ncols, dim in [(8, 5, 3), (14, 9, 6), (12, 12, 12)]:
        gens = [[Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 4)) for _ in range(ncols)]
                for _ in range(dim)]
        dyadic.append([])
        for _ in range(nrows):
            picked = rng.sample(gens, rng.randint(1, min(3, dim)))
            coeffs = [Fraction(rng.randint(-3, 3) or 1, 2 ** rng.randint(0, 3)) for _ in picked]
            dyadic[-1].append(tuple(sum((a * g[c] for a, g in zip(coeffs, picked)), Fraction(0))
                                    for c in range(ncols)))
    for k, rows in enumerate(ints):
        yield f"int-{k}", rows
        yield f"bool-{k}", [tuple(x % 2 == 1 for x in row) for row in rows]
    for k, rows in enumerate(RATIONAL_CASES):
        yield f"fraction-{rows_id(rows)}", rows
        yield f"mixed-{rows_id(rows)}", [
            tuple(int(x) if x.denominator == 1 else x for x in row) for row in rows
        ]
        yield f"str-{rows_id(rows)}", [tuple(map(str, row)) for row in rows]
    for k, rows in enumerate(dyadic):
        yield f"float-{k}", [tuple(map(float, row)) for row in rows]
        yield f"decimal-{k}", [tuple(Decimal(float(x)) for x in row) for row in rows]


BOUNDARY_CASES = list(boundary_cases())


def test_boundary_cases_cover_every_entry_type():
    kinds = {type(x) for _, rows in BOUNDARY_CASES for row in rows for x in row}
    assert kinds == {int, Fraction, float, Decimal, str, bool}
    mixed = [rows for i, rows in BOUNDARY_CASES if i.startswith("mixed")]
    assert all({type(x) for row in rows for x in row} == {int, Fraction} for rows in mixed)
    # Every entry type has rows outside the greedy basis, whose coordinates are read.
    deficient = {
        i.split("-")[0] for i, rows in BOUNDARY_CASES if rref_rank(RationalMatrix(rows)) < len(rows)
    }
    assert deficient == {"int", "bool", "fraction", "mixed", "str", "float", "decimal"}


@pytest.mark.parametrize("rows", [r for _, r in BOUNDARY_CASES], ids=[i for i, _ in BOUNDARY_CASES])
def test_library_entry_points_accept_every_entry_type(rows):
    exact = [tuple(map(Fraction, row)) for row in rows]
    m = RationalMatrix(rows)
    assert m == RationalMatrix(exact)
    expected = rref_rank(m)
    assert rank_of_rows(rows) == expected
    assert rank(m) == rank(m.transpose()) == expected
    chosen = select_basis_rows(m).basis_rows
    assert chosen == rref(m.transpose())[1]
    # The boundary clears each row with the least positive multiplier.
    for row, fractions in zip(rows, exact):
        pairs, mult = _sparse(row)
        assert all(type(j) is int and type(x) is int for j, x in pairs)
        assert mult == math.lcm(*(x.denominator for x in fractions))
        assert dict(pairs) == {j: mult * x for j, x in enumerate(fractions) if x}
    # Coordinates over the greedy basis, given in the same entry type, recompose each row.
    basis_rows = [rows[i] for i in chosen]
    for k, row in enumerate(rows):
        a = coordinates(row, basis_rows)
        assert all(type(x) is Fraction for x in a)
        if k in chosen:
            assert a == tuple(int(i == k) for i in chosen)
        recomposed = tuple(
            sum((aj * exact[i][c] for aj, i in zip(a, chosen)), Fraction(0))
            for c in range(len(row))
        )
        assert recomposed == exact[k]


def test_int_entries_pass_the_boundary_untouched():
    row = [0, 2**100 + 1, -(2**90), 0, 7]
    pairs, m = _sparse(row)
    assert m == 1 and [j for j, _ in pairs] == [1, 2, 4]
    assert all(x is row[j] for j, x in pairs)


@pytest.mark.parametrize("case", range(len(NETWORKS)))
def test_a_rational_matrix_row_clears_as_its_int_row(case):
    # A RationalMatrix holds only Fractions, integral ones too; the boundary
    # reads a Fraction as it is, so each row gives what its int row gives.
    matrix = stoichiometric_matrix(NETWORKS[case]).transpose()
    for row in matrix._entries:
        assert {type(x) for x in row} == {Fraction}
        assert _sparse(row) == _sparse(tuple(map(int, row)))


@pytest.mark.parametrize("entry", ["", None, float("nan")], ids=["empty", "None", "nan"])
def test_an_entry_that_is_no_number_is_refused(entry):
    with pytest.raises((TypeError, ValueError)):
        rank_of_rows([[Fraction(1, 2), entry]])
    with pytest.raises((TypeError, ValueError)):
        rank_of_rows([[1, entry]])


@pytest.mark.parametrize(
    "rows",
    [
        [[(0, Fraction(1, 2))]],
        [[(0, Fraction(2))]],
        [[(0, 1), (1, 2)], [(0, Fraction(1, 2)), (1, Fraction(1, 3))]],
        [[(0, 3)], [(0, Fraction(3))]],
    ],
    ids=["half", "integral", "after-an-int-row", "spanned"],
)
def test_the_kernel_refuses_a_fraction(rows):
    # A rational row must pass the boundary: the kernel does not rescale it.
    with pytest.raises(TypeError):
        _eliminate(rows)


def plus_multiple(u, f, v):
    """The sparse vector ``u + f * v``, zeros dropped."""
    return {j: x for j in u.keys() | v.keys() if (x := u.get(j, 0) + f * v.get(j, 0))}


def fraction_scan(rows):
    """The greedy scan in `Fraction`s, pivoting on the columns in index order.

    An oracle for `_eliminate` that shares none of its code: each stored row
    has pivot 1 at its smallest column and carries its coefficients over the
    basis rows.  Returns the basis rows and, for every other row, its
    coordinates over them (basis position -> nonzero `Fraction`).
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


def column_order_cases():
    """(id, integer pairs): the corpus, seeded networks of up to 1000 reactions, rational rows.

    The rational rows pass the boundary first, as the library entry points pass them.
    """
    for net in CORPUS:
        yield f"net-{net.species_count}x{net.reaction_count}", net._vectors
    for r in (100, 300, 1000):
        for s in (r // 2, r // 4):
            net = random_sparse_network(random.Random(r + s), r, s)
            yield f"sparse-{r}x{s}", net._vectors
    for rows in RATIONAL_CASES:
        yield f"rows-{rows_id(rows)}", [_sparse(row)[0] for row in rows]


COLUMN_ORDER_CASES = list(column_order_cases())


@pytest.mark.parametrize(
    "rows", [r for _, r in COLUMN_ORDER_CASES], ids=[i for i, _ in COLUMN_ORDER_CASES]
)
def test_the_column_order_changes_no_basis_and_no_relation(rows):
    span = _eliminate(rows)
    basis, coords = fraction_scan(rows)
    assert list(span.position) == basis
    assert list(span.position.values()) == list(range(len(basis)))
    assert span.relations.keys() == coords.keys()
    for i, (tag, scale) in span.relations.items():
        assert {j: Fraction(-t, scale) for j, t in tag.items()} == coords[i]
        # Divided by its content, the relation recomposes the row as given,
        # in integers: scale * row + sum(tag[j] * basis[j]) == 0.
        g = math.gcd(scale, *tag.values())
        total = {c: scale // g * x for c, x in rows[i]}
        for j, t in tag.items():
            for c, x in rows[basis[j]]:
                total[c] = total.get(c, 0) + t // g * x
        assert not any(total.values())


def test_the_column_order_and_the_content_pin_the_raw_relation():
    # Column 2 is used by three rows, columns 0 and 1 by all four, and column
    # 1 is met first, so the scan pivots on column 2 first, then 0, then 1.
    # Row 3 is -row 1 + row 2, and the scan returns that relation with content
    # 1.  The same scan gives it as ({1: 2, 2: -2}, 2) in natural column
    # order, as ({1: 3, 2: -3}, 3) with tied columns taken as first met, and
    # as ({1: 2, 2: -2}, 2) when it keeps its pivot rows undivided by their
    # content.
    rows = [[(1, -1), (2, 2), (0, -1)], [(1, -1), (2, -1), (0, 1)],
            [(0, 2), (1, 1), (2, -1)], [(1, 2), (0, 1)]]
    given = [list(row) for row in rows]
    span = _eliminate(rows)
    assert rows == given
    assert list(span.position.items()) == [(0, 0), (1, 1), (2, 2)]
    assert span.relations == {3: ({1: 1, 2: -1}, 1)}
    assert fraction_scan(rows) == ([0, 1, 2], {3: {1: -1, 2: 1}})
