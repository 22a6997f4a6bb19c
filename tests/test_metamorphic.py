"""Metamorphic tests: relabeling and reordering a network change nothing.

Each network is rewritten as DSL text with its reactions shuffled, the
terms of every complex shuffled (which permutes the species order, since
species are numbered by first appearance), and every species and label
renamed.  The finest independent decomposition, as a set of label sets, and
every network number of the network and of each part must come out the same
once the labels are mapped back.
"""

import random

import pytest

from conftest import ALL_NETWORK_FILES, load
from crnkit import build_report, parse_network
from netgen import random_sparse_network

TRIALS = 3


def rewrite(rng, net):
    """Shuffled, renamed DSL text for ``net`` and the new-to-old label map.

    Species ``i`` is renamed ``s<k>_<i>`` for a shuffled ``k``.
    """
    species = list(range(net.species_count))
    rng.shuffle(species)
    species_name = {old: f"s{new}_{old}" for new, old in enumerate(species)}
    order = list(range(net.reaction_count))
    rng.shuffle(order)
    old_label = {}
    lines = []
    for new, i in enumerate(order):
        label = f"q{new}x"
        old_label[label] = net.reaction_label(i)
        rx = net.reactions[i]
        sides = []
        for c in (rx.reactant, rx.product):
            terms = [
                species_name[s] if k == 1 else f"{k} {species_name[s]}"
                for s, k in net.complexes[c].terms
            ]
            rng.shuffle(terms)
            sides.append(" + ".join(terms) or "0")
        lines.append(f"{label}: {sides[0]} -> {sides[1]}\n")
    return "".join(lines), old_label


def invariants(report, old_label=None):
    """The report's facts, keyed by parts named with the original labels."""
    name = (lambda label: old_label[label]) if old_label else (lambda label: label)
    parts = [frozenset(map(name, part)) for part in report.parts]
    return (
        report.network,
        report.network_verdicts,
        report.trivial,
        dict(zip(parts, zip(report.part_numbers, report.part_verdicts))),
    )


def assert_invariant(net, rng):
    expected = invariants(build_report(net))
    species_orders = set()
    for _ in range(TRIALS):
        text, old_label = rewrite(rng, net)
        permuted = parse_network(text)
        species_orders.add(tuple(int(n.split("_")[1]) for n in permuted.species_names))
        assert invariants(build_report(permuted), old_label) == expected, text
    return species_orders


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_corpus_networks(path):
    net = load(path.name)
    species_orders = assert_invariant(net, random.Random(path.stem))
    # The species order really was permuted.
    assert species_orders != {tuple(range(net.species_count))}


def test_seeded_networks():
    rng = random.Random(11)
    for reactions, species, blocks in [(12, 6, 1), (20, 10, 1), (18, 8, 2), (24, 12, 3)]:
        assert_invariant(random_sparse_network(rng, reactions, species, blocks), rng)
