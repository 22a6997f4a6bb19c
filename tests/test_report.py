"""The report's shared per-network structure against the public functions.

`build_report` computes each network's linkage classes, numbers and
deficiency verdicts once and takes ranks from the finder; these tests check
that it agrees with the standalone public functions, and that it makes no
calls to them.
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


class TestSharedStructureEquivalence:
    @pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
    def test_corpus(self, path):
        assert_report_matches_public_functions(load(path.name))

    def test_seeded_networks_trivial_and_decomposable(self):
        trivial = [assert_report_matches_public_functions(n).trivial for n in seeded_networks()]
        assert True in trivial and False in trivial

    @pytest.mark.parametrize("decomposable", [False, True])
    def test_unused_species_gets_its_own_part_structure(self, decomposable):
        net = unused_species_network(decomposable)
        report = assert_report_matches_public_functions(net)
        assert report.trivial is not decomposable
        assert report.network.species_count == 4
        assert sum(n.species_count for n in report.part_numbers) == 3


def _crnkit_modules():
    return [m for name, m in sys.modules.items() if name == "crnkit" or name.startswith("crnkit.")]


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of the named crnkit.analysis/decomposition functions, wherever bound."""
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
            for attr, value in list(vars(module).items()):
                for name, fn in originals.items():
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted(name, fn))
        return calls

    return install


class TestOncePerReport:
    # sorribas is trivial and its one part is the network itself, so the part
    # shares the network's structure; purine and yeast have two parts each,
    # and each part is a network of its own.
    @pytest.mark.parametrize(
        "name, part_count, distinct",
        [("sorribas.crn", 1, 1), ("purine.crn", 2, 3), ("yeast.crn", 2, 3)],
    )
    def test_call_counts(self, count_calls, name, part_count, distinct):
        net = load(name)
        calls = count_calls(
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
        assert calls["verify_decomposition"] == 1
