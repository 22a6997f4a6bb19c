"""The report's shared per-network structure against the public functions.

`build_report` computes each network's linkage classes, numbers and
deficiency verdicts once and reads every rank from the finder's elimination;
a part's structure comes from the network's complex edges, with no
subnetwork, and an answer of two or more parts is checked by the integer
certificate, whose only elimination is of the basis rows alone.  These tests
check that it agrees with the standalone public functions and with
`_Structure(subnetwork(net, part))`, that it makes no calls to them, and
how many eliminations it and `verify_decomposition` run.
"""

import random
import sys
from collections import Counter

import pytest

import crnkit
from crnkit import (
    Complex,
    Network,
    Reaction,
    Species,
    build_report,
    deficiency_one_check,
    deficiency_zero_check,
    network_numbers,
    subnetwork,
    verify_decomposition,
)
from crnkit.analysis import _Structure, _structures
from crnkit.decomposition import _finest
from crnkit.linalg import _Span
from conftest import ALL_NETWORK_FILES, load
from netgen import random_network, random_sparse_network


def unused_species_network(decomposable):
    """A programmatic network whose species C occurs in no complex."""
    species = [Species("A", 0), Species("B", 1), Species("C", 2), Species("D", 3)]
    if decomposable:
        # A <-> B and 0 -> D share no species: two parts.
        complexes = [Complex({0: 1}), Complex({1: 1}), Complex(), Complex({3: 1})]
        reactions = [Reaction(0, 1), Reaction(1, 0), Reaction(2, 3)]
    else:
        complexes = [Complex({0: 1}), Complex({1: 1}), Complex({0: 1, 3: 1})]
        reactions = [Reaction(0, 1), Reaction(1, 2), Reaction(2, 0)]
    return Network(species, complexes, reactions)


def seeded_networks():
    rng = random.Random(31)
    nets = [random_network(rng, max_species=4, max_reactions=8) for _ in range(12)]
    nets += [random_sparse_network(rng, r, r // 2) for r in (10, 16, 24)]
    nets += [random_sparse_network(rng, 18, 8, blocks=b) for b in (2, 3)]
    return nets


def assert_report_matches_public_functions(net):
    report = build_report(net)
    assert report.network == network_numbers(net)
    assert report.network_verdicts == (deficiency_zero_check(net), deficiency_one_check(net))
    index = net.label_index()
    parts = [[index[label] for label in part] for part in report.parts]
    assert report.independence == verify_decomposition(net, parts)
    for part, numbers, verdicts in zip(parts, report.part_numbers, report.part_verdicts):
        sub = subnetwork(net, part)
        assert numbers == network_numbers(sub)
        assert verdicts == (deficiency_zero_check(sub), deficiency_one_check(sub))
    return report


def assert_same_structure(st, ref):
    assert st.numbers == ref.numbers
    assert st.verdicts == ref.verdicts
    assert st.class_deficiencies == ref.class_deficiencies
    assert st.edges == ref.edges
    assert st.linkage_classes == ref.linkage_classes
    assert st.strong_linkage_classes == ref.strong_linkage_classes
    assert st.terminal_strong_linkage_classes == ref.terminal_strong_linkage_classes


def assert_part_structures_match_subnetworks(net, rng):
    """The report's part structures, and those of random user partitions, against subnetworks."""
    span, found = _finest(net)
    _, parts = _structures(net, found.parts, span)
    for part, st in zip(found.parts, parts, strict=True):
        assert_same_structure(st, _Structure(subnetwork(net, part)))
    # `crn numbers --parts`: any partition, in label order, over one elimination
    # of the network whose relations may leave the part.
    whole = _Structure(net)
    r = net.reaction_count
    for _ in range(3):
        owner = [rng.randrange(min(3, r)) for _ in range(r)]
        for k in set(owner):
            part = [i for i in range(r) if owner[i] == k]
            rng.shuffle(part)
            st = whole.part(part)
            ref = _Structure(subnetwork(net, part))
            assert_same_structure(st, ref)
            assert st.numbers == network_numbers(subnetwork(net, part))


class TestSharedStructureEquivalence:
    @pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
    def test_corpus(self, path):
        net = load(path.name)
        assert_report_matches_public_functions(net)
        assert_part_structures_match_subnetworks(net, random.Random(path.stem))

    def test_seeded_networks_trivial_and_decomposable(self):
        rng = random.Random(32)
        trivial = []
        for net in seeded_networks():
            trivial.append(assert_report_matches_public_functions(net).trivial)
            assert_part_structures_match_subnetworks(net, rng)
        assert True in trivial and False in trivial

    @pytest.mark.parametrize("decomposable", [False, True])
    def test_unused_species_gets_its_own_part_structure(self, decomposable):
        net = unused_species_network(decomposable)
        report = assert_report_matches_public_functions(net)
        assert_part_structures_match_subnetworks(net, random.Random(7))
        assert report.trivial is not decomposable
        assert report.network.species_count == 4
        assert sum(n.species_count for n in report.part_numbers) == 3


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_a_networks_rank_is_its_spans_basis_size(path, monkeypatch):
    # A whole network reads its rank from the span it was given, or from its
    # own elimination, without ranking its rows in it: any elimination of
    # every reaction keeps one basis row per unit of rank.
    net = load(path.name)
    expected = network_numbers(net)
    span = _finest(net)[0]

    def refuse(self, rows):
        raise AssertionError("the network's rank was read from its relations")

    monkeypatch.setattr(_Span, "rank", refuse)
    for whole in (_structures(net, (), span)[0], _structures(net, ())[0]):
        assert whole.rank == expected.rank
        assert whole.numbers == expected


def _crnkit_modules():
    return [m for name, m in sys.modules.items() if name == "crnkit" or name.startswith("crnkit.")]


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of the named crnkit.analysis/decomposition functions, wherever bound.

    Bindings in `crnkit.linalg` are left alone: its own `_eliminate` calls
    (a subset's restricted tags in `_Span.rank`, a given basis in
    `_eliminate_over`) are not counted, so `_eliminate` counts the
    eliminations of reaction vectors made in `analysis` and `decomposition`.
    """
    calls = Counter()

    def install(*names):
        originals = {}
        for name in names:
            module = crnkit.analysis if hasattr(crnkit.analysis, name) else crnkit.decomposition
            originals[name] = getattr(module, name)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in _crnkit_modules():
            if module is crnkit.linalg:
                continue
            for attr, value in list(vars(module).items()):
                for name, fn in originals.items():
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted(name, fn))
        return calls

    return install


@pytest.fixture
def count_vector_reads(monkeypatch):
    """Count reads of reaction vectors, of any network: each elimination reads all of them.

    A read of the whole ``_vectors`` tuple, as an elimination of every
    reaction makes, counts as a read of each vector, and a
    `Network.sparse_reaction_vector` call as a read of one.
    """
    reads = Counter()
    slot = Network.__dict__["_vectors"]

    class Counted:
        def __get__(self, net, owner=None):
            if net is None:
                return self
            vectors = slot.__get__(net, owner)
            reads[net] += len(vectors)
            return vectors

        def __set__(self, net, vectors):
            slot.__set__(net, vectors)

    def counted(self, i):
        reads[self] += 1
        return slot.__get__(self)[i]

    monkeypatch.setattr(Network, "_vectors", Counted())
    monkeypatch.setattr(Network, "sparse_reaction_vector", counted)
    return reads


class TestOncePerReport:
    # sorribas and the seeded 40-reaction network are trivial: their one part
    # is the network itself and shares its structure, and the finder's
    # elimination is the only one.  purine and yeast have two parts each:
    # the integer certificate checks them with one more elimination, of the
    # basis rows alone, and each part's structure is read from the network's
    # complex edges and the finder's relations, with no subnetwork.
    @pytest.mark.parametrize(
        "make, part_count, distinct",
        [
            pytest.param(lambda: load("sorribas.crn"), 1, 1, id="sorribas.crn-1-1"),
            pytest.param(lambda: load("purine.crn"), 2, 3, id="purine.crn-2-3"),
            pytest.param(lambda: load("yeast.crn"), 2, 3, id="yeast.crn-2-3"),
            pytest.param(
                lambda: random_sparse_network(random.Random(40), 40, 10), 1, 1,
                id="netgen-40-1-1",
            ),
        ],
    )
    def test_call_counts(self, count_calls, count_vector_reads, make, part_count, distinct):
        net = make()
        calls = count_calls(
            "_eliminate",
            "_eliminate_over",
            "_certify",
            "subnetwork",
            "network_numbers",
            "deficiency_zero_check",
            "deficiency_one_check",
            "linkage_classes",
            "strong_linkage_classes",
            "terminal_strong_linkage_classes",
            "verify_decomposition",
        )
        report = build_report(net)
        assert len(report.parts) == part_count
        assert calls["network_numbers"] == 0
        assert calls["deficiency_zero_check"] == 0
        assert calls["deficiency_one_check"] == 0
        assert calls["linkage_classes"] <= distinct
        assert calls["strong_linkage_classes"] <= distinct
        assert calls["terminal_strong_linkage_classes"] <= distinct
        # The finder's elimination of every reaction vector, and for parts to
        # check the certificate's: it eliminates the basis rows alone and
        # recomposes every other reaction, so it reads each vector once more.
        # Parts and linkage classes read their ranks from the finder's relations.
        certified = part_count > 1
        assert calls["verify_decomposition"] == 0
        assert calls["_certify"] == certified
        assert calls["_eliminate"] == 1 + certified
        assert calls["_eliminate_over"] == 0
        assert count_vector_reads == {net: (1 + certified) * net.reaction_count}
        assert calls["subnetwork"] == 0

    @pytest.mark.parametrize("name", ["baccam.crn", "handel.crn", "purine.crn", "yeast.crn"])
    def test_the_verifier_reads_only_ranks(self, count_calls, name):
        # `verify_decomposition` reads each structure's rank and incidence
        # rank only: one elimination of the network, and no strong or
        # terminal class search, which only the numbers and verdicts need.
        net = load(name)
        r = net.reaction_count
        calls = count_calls("_eliminate", "_eliminate_over", "_strong_components", "_terminal")
        for parts in ([range(r)], [range(0, r, 2), range(1, r, 2)], [[i] for i in range(r)]):
            calls.clear()
            verify_decomposition(net, parts)
            assert calls == {"_eliminate": 1}

    @pytest.mark.parametrize("name", ["purine.crn", "yeast.crn"])
    def test_the_certificate_eliminates_the_basis_rows_alone(self, monkeypatch, name):
        net = load(name)
        sizes = []
        real = crnkit.decomposition._eliminate

        def recorded(rows):
            sizes.append(len(rows))
            return real(rows)

        monkeypatch.setattr(crnkit.decomposition, "_eliminate", recorded)
        report = build_report(net)
        assert sizes == [net.reaction_count, len(report.graph_vertices)]
        assert sizes[1] < sizes[0]
