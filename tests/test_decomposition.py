"""Coordinate graph, decomposition finder, verifier, and brute-force oracle."""

import collections
import itertools
import random

import pytest
from conftest import ALL_NETWORK_FILES
from netgen import random_sparse_network

import crnkit.analysis
import crnkit.decomposition
from crnkit import (
    CoordinateGraph,
    Decomposition,
    IndependenceReport,
    MismatchedReactionSetError,
    PartitionError,
    TooLargeError,
    brute_force_decompositions,
    build_coordinate_graph,
    build_report,
    connected_components,
    coordinates,
    find_independent_decomposition,
    iter_set_partitions,
    network_numbers,
    parse_file,
    parse_network,
    refine_or_coarsen_check,
    select_basis_rows,
    stoichiometric_matrix,
    verify_decomposition,
)

FEEDFORWARD = "R1: 0 -> X1\nR2: X1 -> X2\nR3: X2 + X3 -> X1 + X3\nR4: X2 -> X3\n"


def graph_for(net):
    basis = select_basis_rows(stoichiometric_matrix(net).transpose())
    return build_coordinate_graph(net, basis)


class TestCoordinateGraph:
    def test_yeast_edges(self, yeast):
        g = graph_for(yeast)
        assert g.vertex_count == 5
        assert g.vertex_labels == ("R1", "R2", "R3", "R4", "R8")
        assert g.edges == frozenset(
            {(0, 1), (0, 3), (1, 3), (0, 4), (1, 4), (3, 4)}
        )

    def test_handel_edges(self, handel):
        g = graph_for(handel)
        assert g.vertex_count == 6
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_handel_relations(self, handel):
        from crnkit import coordinates

        nt = stoichiometric_matrix(handel).transpose()
        basis = [nt.row(i) for i in (0, 1, 2, 4, 8, 10)]  # R1,R2,R3,R5,R9,R11
        expected = {
            3: (-1, -1, -1, 0, 0, 0),  # R4 = -R1 - R2 - R3
            5: (0, 0, 0, -1, 0, 0),    # R6 = -R5
            6: (0, 0, 0, -1, 0, 0),    # R7 = -R5
            7: (0, 0, 0, -1, 0, 0),    # R8 = -R5
            9: (0, 0, 0, 0, -1, 0),    # R10 = -R9
            11: (0, 0, 0, 0, 0, 1),    # R12 = R11 (X -> 2X contributes +X)
        }
        for row, coeffs in expected.items():
            assert coordinates(nt.row(row), basis) == coeffs

    def test_independent_vectors_give_edgeless_graph(self):
        net = parse_network("R1: 0 -> A\nR2: 0 -> B\nR3: 0 -> C\n")
        g = graph_for(net)
        assert g.vertex_count == 3
        assert g.edges == frozenset()

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            CoordinateGraph(2, frozenset({(1, 1)}), ("a", "b"))
        with pytest.raises(ValueError):
            CoordinateGraph(2, frozenset({(0, 5)}), ("a", "b"))


class TestConnectedComponents:
    def test_yeast_two_components(self, yeast):
        assert connected_components(graph_for(yeast)) == [(0, 1, 3, 4), (2,)]

    def test_sorribas_single_component(self, sorribas):
        assert len(connected_components(graph_for(sorribas))) == 1

    def test_edgeless_graph_gives_singletons(self):
        g = CoordinateGraph(3, frozenset(), ("a", "b", "c"))
        assert connected_components(g) == [(0,), (1,), (2,)]


class TestFinder:
    def test_yeast_partition(self, yeast):
        d = find_independent_decomposition(yeast)
        assert d.labels(yeast) == (
            ("R1", "R2", "R4", "R6", "R8", "R10", "R11"),
            ("R3", "R5", "R7", "R9", "R12", "R13"),
        )
        assert d.part_ranks == (4, 1)

    def test_sorribas_is_trivial(self, sorribas):
        assert find_independent_decomposition(sorribas) is None

    def test_handel_four_parts(self, handel):
        d = find_independent_decomposition(handel)
        assert d.labels(handel) == (
            ("R1", "R2", "R3", "R4"),
            ("R5", "R6", "R7", "R8"),
            ("R9", "R10"),
            ("R11", "R12"),
        )

    def test_reversible_pair_is_trivial(self):
        net = parse_network("R1: X1 -> X2\nR2: X2 -> X1\n")
        assert find_independent_decomposition(net) is None

    def test_purine_isolates_the_final_inflow(self, purine):
        d = find_independent_decomposition(purine)
        parts = d.labels(purine)
        assert ("R42",) in parts

    def test_result_always_verifies(self, baccam, baccam_delayed, two_chains):
        for net in (baccam, baccam_delayed, two_chains):
            d = find_independent_decomposition(net)
            assert d is not None
            report = verify_decomposition(net, d.parts)
            assert report.independent
            assert report.part_ranks == d.part_ranks


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_finder_verifies_exactly_its_nontrivial_answers(path, monkeypatch):
    # A nontrivial answer is checked once by the integer certificate, and
    # never by the verifier's second elimination; a single part is
    # independent by definition and is not checked.
    net = parse_file(path)
    checked = []
    verified = []
    real = crnkit.decomposition._certify

    def counted(net, span, parts):
        checked.append(parts)
        return real(net, span, parts)

    monkeypatch.setattr(crnkit.decomposition, "_certify", counted)
    monkeypatch.setattr(
        crnkit.decomposition, "verify_decomposition", lambda *args: verified.append(args)
    )
    found = find_independent_decomposition(net)
    assert (found is None) == (path.name == "sorribas.crn")
    assert checked == ([] if found is None else [found.parts])
    assert verified == []


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_the_finder_answers_with_its_span_and_a_decomposition(path):
    # The public answer is the finder's own record; the single part of an
    # indecomposable network is every reaction, ranked by the basis size.
    net = parse_file(path)
    span, found = crnkit.decomposition._finest(net)
    assert type(found) is Decomposition
    public = find_independent_decomposition(net)
    if public is None:
        assert path.name == "sorribas.crn"
        assert found.parts == (tuple(range(net.reaction_count)),)
        assert found.part_ranks == (network_numbers(net).rank,) == (len(span.position),)
    else:
        assert found == public
        assert sum(found.part_ranks) == network_numbers(net).rank


def single_part_networks():
    rng = random.Random(1717)
    nets = [parse_file(path) for path in ALL_NETWORK_FILES]
    nets += [random_sparse_network(rng, r, r // 2) for r in (8, 20, 40)]
    nets += [random_sparse_network(rng, 24, 12, blocks=b) for b in (2, 3)]
    return nets


@pytest.mark.parametrize(
    "net", single_part_networks(), ids=lambda n: f"{n.species_count}x{n.reaction_count}"
)
def test_single_part_partition_gives_the_network_numbers(net):
    # The verifier's one part is read like any other: its rank from the
    # elimination's relations and its incidence rank n - l from the edges.
    numbers = network_numbers(net)
    incidence = numbers.complex_count - numbers.linkage_class_count
    assert verify_decomposition(net, [range(net.reaction_count)]) == IndependenceReport(
        network_rank=numbers.rank,
        part_ranks=(numbers.rank,),
        independent=True,
        incidence_network_rank=incidence,
        incidence_part_ranks=(incidence,),
        incidence_independent=True,
    )


def clique_route_networks():
    rng = random.Random(6262)
    nets = [parse_file(path) for path in ALL_NETWORK_FILES]
    for blocks in range(1, 7):
        for reactions in (10 * blocks, 60):
            nets.append(random_sparse_network(rng, reactions, 5 * blocks, blocks))
    return nets


@pytest.mark.parametrize(
    "net", clique_route_networks(), ids=lambda n: f"{n.species_count}x{n.reaction_count}"
)
def test_finder_agrees_with_the_clique_route(net):
    # The public route: components of the clique-edge graph, then each
    # non-basis reaction assigned to the component its coordinates sit on.
    nt = stoichiometric_matrix(net).transpose()
    basis = select_basis_rows(nt)
    components = connected_components(build_coordinate_graph(net, basis))
    report = build_report(net)
    assert report.graph_components == tuple(components)
    assert report.trivial == (len(components) == 1)
    component_of = {v: k for k, comp in enumerate(components) for v in comp}
    members = [{basis.basis_rows[v] for v in comp} for comp in components]
    basis_vectors = [nt.row(i) for i in basis.basis_rows]
    for i in range(nt.rows):
        if i not in basis.basis_rows:
            a = coordinates(nt.row(i), basis_vectors)
            owners = {component_of[v] for v, x in enumerate(a) if x}
            assert len(owners) == 1
            members[owners.pop()].add(i)
    assert report.parts == tuple(
        tuple(net.reaction_label(i) for i in sorted(m)) for m in members
    )


class TestVerify:
    def test_two_chains_split(self, two_chains):
        rep = verify_decomposition(two_chains, [[0, 1], [2, 3]])
        assert rep.network_rank == 4
        assert rep.part_ranks == (2, 2)
        assert rep.independent
        assert rep.incidence_network_rank == 4
        assert rep.incidence_part_ranks == (2, 2)
        assert rep.incidence_independent

    def test_part_incidence_built_on_own_complexes(self, two_chains):
        # The per-part incidence matrices span only the touched complexes:
        # 3x2 for the inflow chain, 4x2 for the dissociation branch.
        from crnkit import incidence_matrix, subnetwork

        first = incidence_matrix(subnetwork(two_chains, [0, 1]))
        second = incidence_matrix(subnetwork(two_chains, [2, 3]))
        assert (first.rows, first.cols) == (3, 2)
        assert (second.rows, second.cols) == (4, 2)

    @pytest.mark.parametrize("singletons", [True, False], ids=["singletons", "seeded"])
    def test_part_incidence_ranks_search_only_the_touched_complexes(
        self, monkeypatch, singletons
    ):
        # The network's union-find runs over its n complexes and each part's
        # over the complexes the part touches: n + sum(touched) vertices in
        # all, not (parts + 1) * n.  A structural check, not a timing gate.
        rng = random.Random(1717)
        net = random_sparse_network(rng, 300, 150)
        r, edges = net.reaction_count, [(rx.reactant, rx.product) for rx in net.reactions]
        if singletons:
            parts = [[i] for i in range(r)]
        else:
            owner = [rng.randrange(40) for _ in range(r)]
            parts = [[i for i in range(r) if owner[i] == k] for k in sorted(set(owner))]
        sizes = []
        components = crnkit.analysis._undirected_components

        def counted(n, graph_edges):
            sizes.append(n)
            return components(n, graph_edges)

        monkeypatch.setattr(crnkit.analysis, "_undirected_components", counted)
        rep = verify_decomposition(net, parts)
        touched = [len({c for i in part for c in edges[i]}) for part in parts]
        assert sizes == [net.complex_count, *touched]
        assert sum(sizes) < (len(parts) + 1) * net.complex_count
        if singletons:
            assert rep.incidence_part_ranks == (1,) * r

    @pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
    def test_the_verifier_reads_no_lazy_fact(self, path, monkeypatch):
        # Ranks and linkage classes are set when a structure is built, so the
        # verifier reads no lazy `_Structure` fact on any partition.
        net = parse_file(path)
        r = net.reaction_count

        def refuse(prop, instance, owner=None):
            raise AssertionError(f"{prop.attrname} read")

        monkeypatch.setattr(crnkit.analysis._lazy, "__get__", refuse)
        # The patch is live: a fresh structure's first read of a lazy fact is refused.
        with pytest.raises(AssertionError, match="^numbers read$"):
            crnkit.analysis._Structure(net).numbers
        for parts in ([range(r)], [range(0, r, 2), range(1, r, 2)], [[i] for i in range(r)]):
            rep = verify_decomposition(net, parts)
            assert len(rep.part_ranks) == len(parts)

    def test_a_lazy_fact_is_computed_once_and_kept_on_the_structure(self, baccam):
        st = crnkit.analysis._Structure(baccam)
        assert "numbers" not in vars(st)
        numbers = st.numbers
        assert vars(st)["numbers"] is numbers and st.numbers is numbers

    def test_a_structure_holds_its_rank_and_linkage_classes_when_built(self, baccam):
        whole = crnkit.analysis._Structure(baccam)
        part = whole.part([0, 1])
        for st in (whole, part):
            assert {"rank", "linkage_classes"} <= vars(st).keys()
        assert (whole.rank, part.rank) == (3, 2)
        # T + V -> I + V and I -> 0: two linkage classes over four complexes.
        assert part.linkage_classes == [(0, 1), (2, 3)]

    def test_feedforward_split_not_independent(self):
        net = parse_network(FEEDFORWARD)
        rep = verify_decomposition(net, [[0, 1], [2, 3]])
        assert rep.network_rank == 3
        assert rep.part_ranks == (2, 2)
        assert not rep.independent

    def test_trivial_partition_is_independent(self, handel):
        rep = verify_decomposition(handel, [range(handel.reaction_count)])
        assert rep.independent
        assert rep.part_ranks == (rep.network_rank,)

    def test_baccam_split(self, baccam):
        rep = verify_decomposition(baccam, [[0, 1], [2, 3]])
        assert (rep.network_rank, rep.part_ranks) == (3, (2, 1))
        assert rep.independent

    def test_part_order_is_preserved(self, baccam):
        rep = verify_decomposition(baccam, [[2, 3], [0, 1]])
        assert rep.part_ranks == (1, 2)

    @pytest.mark.parametrize(
        "parts",
        [
            [[0, 1], [1, 2, 3]],   # overlap
            [[0, 1], [3]],         # gap
            [[0, 1, 2, 3], []],    # empty part
            [[0, 1, 2, 3, 4]],     # out of range
        ],
    )
    def test_partition_errors(self, baccam, parts):
        with pytest.raises(PartitionError):
            verify_decomposition(baccam, parts)

    def test_non_integer_index_is_a_partition_error(self, baccam):
        with pytest.raises(PartitionError, match="'a' is not an integer"):
            verify_decomposition(baccam, [[0, "a"], [1, 2, 3]])
        # A bool is an int subclass, but True is not reaction 1.
        with pytest.raises(PartitionError, match="True is not an integer"):
            verify_decomposition(baccam, [[0, True], [2, 3]])


class TestBruteForce:
    def test_reversible_pair_only_trivial(self):
        net = parse_network("R1: X1 -> X2\nR2: X2 -> X1\n")
        found = brute_force_decompositions(net, max_parts=2)
        assert [d.parts for d in found] == [((0, 1),)]

    def test_two_step_chain_splits(self):
        net = parse_network("R1: 2 X1 -> X2\nR2: X2 -> X3\n")
        found = brute_force_decompositions(net, max_parts=2)
        assert [d.parts for d in found] == [((0, 1),), ((0,), (1,))]

    def test_baccam_contains_the_published_split(self, baccam):
        found = brute_force_decompositions(baccam, max_parts=4)
        assert ((0, 1), (2, 3)) in [d.parts for d in found]

    def test_rejects_large_networks(self, yeast):
        with pytest.raises(TooLargeError):
            brute_force_decompositions(yeast, max_parts=2)

    def test_handel_two_part_splits_are_component_groupings(self, handel):
        # The finest decomposition has 4 parts; every 2-part independent
        # partition must merge those parts, so exactly S(4,2) = 7 exist
        # (plus the trivial single part).
        finest = find_independent_decomposition(handel)
        found = brute_force_decompositions(handel, max_parts=2)
        assert len(found) == 8
        for d in found:
            assert refine_or_coarsen_check(finest.parts, d.parts) in (
                "refinement",
                "equal",
            )

    def test_partition_enumeration_counts(self):
        # Bell numbers 1, 2, 5, 15, 52 for n = 1..5.
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert sum(1 for _ in iter_set_partitions(n, n)) == bell

    def test_partition_enumeration_respects_max_parts(self):
        parts = list(iter_set_partitions(4, 2))
        assert all(len(p) <= 2 for p in parts)
        # 1 + (2^(4-1) - 1) = 8 partitions of a 4-set into at most 2 blocks.
        assert len(parts) == 8


    @pytest.mark.parametrize("max_parts", [True, 2.5, None, "2"])
    def test_brute_force_refuses_a_non_int_max_parts(self, max_parts):
        # True would run as max_parts=1 and 2.5 fail deep inside the
        # enumeration; both are refused by name before any work.
        net = parse_network("R1: 2 X1 -> X2\nR2: X2 -> X3\n")
        with pytest.raises(TypeError, match=f"max_parts must be an int, not {max_parts!r}"):
            brute_force_decompositions(net, max_parts)

    @pytest.mark.parametrize(
        "n, max_parts, name",
        [(True, None, "n"), (2.0, None, "n"), (3, True, "max_parts"), (3, 2.0, "max_parts")],
    )
    def test_partition_enumeration_refuses_a_non_int_argument(self, n, max_parts, name):
        # Refused at the call, not at the first partition drawn.
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            iter_set_partitions(n, max_parts)

    @pytest.mark.parametrize("n", range(8))
    def test_partition_enumeration_is_the_restricted_growth_order(self, n):
        # Oracle: the restricted-growth strings a (a[0] = 0, each a[i] at most
        # one more than the largest before it) in lexicographic order, each
        # read as the blocks {i : a[i] = b}.  No partition of range(0) is drawn.
        strings = [
            a
            for a in itertools.product(*(range(i + 1) for i in range(n)))
            if all(a[i] <= max(a[:i]) + 1 for i in range(1, n))
        ]
        every = [
            tuple(tuple(i for i in range(n) if a[i] == b) for b in range(max(a) + 1))
            for a in strings
            if n
        ]
        for max_parts in [None, *range(n + 2)]:
            want = [p for p in every if max_parts is None or len(p) <= max_parts]
            assert list(iter_set_partitions(n, max_parts)) == want

    def test_partition_enumeration_of_nothing(self):
        assert list(iter_set_partitions(0)) == []
        assert list(iter_set_partitions(3, 0)) == []

class TestRefineCoarsen:
    def test_refinement(self):
        assert refine_or_coarsen_check([[0], [1], [2]], [[0], [1, 2]]) == "refinement"

    def test_coarsening(self):
        assert refine_or_coarsen_check([[0], [1, 2]], [[0], [1], [2]]) == "coarsening"

    def test_equal(self):
        assert refine_or_coarsen_check([[0, 1], [2]], [[2], [1, 0]]) == "equal"

    def test_incomparable(self):
        assert refine_or_coarsen_check([[0, 1], [2]], [[0, 2], [1]]) == "incomparable"

    def test_mismatched_sets(self):
        with pytest.raises(MismatchedReactionSetError):
            refine_or_coarsen_check([[0, 1]], [[0, 1, 2]])

    def test_invalid_partition(self):
        with pytest.raises(PartitionError):
            refine_or_coarsen_check([[0], [0, 1]], [[0, 1]])

    def test_the_relation_follows_its_definition(self):
        # Seeded pairs of partitions of range(n), n <= 8: b is a merge of a's
        # parts, a split of them, a copy, or drawn on its own.  Both are then
        # relabelled by one permutation and their parts and elements shuffled.
        rng = random.Random(8)

        def draw(n):
            blocks = {}
            for i in range(n):
                blocks.setdefault(rng.randrange(len(blocks) + 1), []).append(i)
            return list(blocks.values())

        def refines(fine, coarse):
            return all(any(set(p) <= set(q) for q in coarse) for p in fine)

        answers = collections.Counter()
        for _ in range(600):
            n = rng.randint(1, 8)
            a = draw(n)
            shape = rng.randrange(4)
            if shape == 0:  # merge some of a's parts
                b = [[] for _ in range(rng.randint(1, len(a)))]
                for part in a:
                    rng.choice(b).extend(part)
                b = [part for part in b if part]
            elif shape == 1:  # split each of a's parts
                b = [half for part in a for half in (part[::2], part[1::2]) if half]
            elif shape == 2:
                b = [list(part) for part in a]
            else:
                b = draw(n)
            relabel = rng.sample(range(n), n)
            a, b = (
                [rng.sample([relabel[i] for i in part], len(part)) for part in p] for p in (a, b)
            )
            rng.shuffle(a)
            rng.shuffle(b)
            fine, coarse = refines(a, b), refines(b, a)
            want = {
                (True, True): "equal",
                (True, False): "refinement",
                (False, True): "coarsening",
                (False, False): "incomparable",
            }[fine, coarse]
            assert refine_or_coarsen_check(a, b) == want, (a, b)
            answers[want] += 1
        assert min(answers.values()) >= 50 and len(answers) == 4, answers

    def test_non_integer_index_is_a_partition_error(self):
        with pytest.raises(PartitionError, match="'a' is not an integer"):
            refine_or_coarsen_check([[0, "a"]], [[0], ["a"]])
        with pytest.raises(PartitionError, match="True is not an integer"):
            refine_or_coarsen_check([[0, True]], [[0], [1]])
