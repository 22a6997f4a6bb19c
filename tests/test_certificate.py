"""The integer certificate that every answer of two or more parts must pass.

`decomposition._certify` re-reads the reaction vectors and checks the
finder's span: (a) the basis rows alone are independent, (b) every relation
recomposes its reaction exactly with a positive scale, and (c) every relation
stays inside its reaction's part, after checking that the parts and the
relations cover each reaction once and the basis positions are numbered in
basis order.  Each mutation below breaks exactly one of these on an honest
answer, and the certificate must refuse it; `crn analyze` and `crn
decompose` then exit 2 with ``internal error:``.
"""

import random

import pytest

import crnkit.decomposition
from crnkit import find_independent_decomposition, verify_decomposition
from crnkit.cli import main
from crnkit.decomposition import InternalError, _certify, _finest
from crnkit.linalg import _Span
from conftest import ALL_NETWORK_FILES, NETWORKS_DIR, load
from netgen import random_sparse_network


def _related(span):
    """The first non-basis reaction whose relation uses some basis row."""
    return next(i for i, (tag, _) in span.relations.items() if tag)


def corrupt_coefficient(span, parts):
    """One tag coefficient off by one: the relation no longer recomposes its reaction."""
    i = _related(span)
    tag, scale = span.relations[i]
    j = next(iter(tag))
    return _Span(span.position, {**span.relations, i: ({**tag, j: tag[j] + 1}, scale)}), parts


def cross_part_tag(span, parts):
    """A related reaction moved to the next part, away from the basis rows its tag uses."""
    i = _related(span)
    k = next(k for k, part in enumerate(parts) if i in part)
    m = (k + 1) % len(parts)
    moved = [
        tuple(x for x in part if x != i) if n == k else tuple(sorted((*part, i))) if n == m else part
        for n, part in enumerate(parts)
    ]
    return span, tuple(moved)


def dependent_basis(span, parts):
    """A related reaction promoted to the next basis position: the basis is dependent."""
    i = _related(span)
    relations = {x: rel for x, rel in span.relations.items() if x != i}
    return _Span([*span.position, i], relations), parts


def zero_scale(span, parts):
    """A relation with scale 0 and no tag, which recomposes nothing but itself."""
    i = next(iter(span.relations))
    return _Span(span.position, {**span.relations, i: ({}, 0)}), parts


def dropped_reaction(span, parts):
    """A related reaction left out of its part: the parts no longer cover every reaction."""
    i = _related(span)
    return span, tuple(tuple(x for x in part if x != i) for part in parts)


def swapped_positions(span, parts):
    """The first two basis rows' positions swapped: they are out of basis order."""
    swapped = _Span(span.position, span.relations)
    a, b = list(swapped.position)[:2]
    swapped.position[a], swapped.position[b] = swapped.position[b], swapped.position[a]
    return swapped, parts


MUTATIONS = {
    "corrupted-coefficient": (corrupt_coefficient, "does not recompose"),
    "cross-part-tag": (cross_part_tag, "leaves its part"),
    "dependent-basis": (dependent_basis, "linearly dependent"),
    "zero-scale": (zero_scale, "scale 0"),
    "dropped-reaction": (dropped_reaction, "do not cover each reaction once"),
    "swapped-positions": (swapped_positions, "not numbered in basis order"),
}


def decomposable_networks():
    nets = [(path.stem, load(path.name)) for path in ALL_NETWORK_FILES]
    rng = random.Random(1111)
    nets += [(f"netgen-{r}-{b}", random_sparse_network(rng, r, r // 2, blocks=b))
             for r, b in ((12, 2), (24, 3), (40, 8))]
    return [(name, net) for name, net in nets if find_independent_decomposition(net) is not None]


DECOMPOSABLE = decomposable_networks()
NAMES = [name for name, _ in DECOMPOSABLE]
# Every mutation rewrites a relation that uses some basis row; two_chains has none.
RELATED = [
    (name, net)
    for name, net in DECOMPOSABLE
    if any(tag for tag, _ in _finest(net)[0].relations.values())
]


def test_the_cases_cover_the_corpus_and_blocks():
    assert len(RELATED) >= 8
    assert {"baccam", "purine", "yeast", "netgen-40-8"} <= {name for name, _ in RELATED}


@pytest.mark.parametrize("net", [net for _, net in DECOMPOSABLE], ids=NAMES)
def test_an_honest_answer_is_certified_with_the_verifier_part_ranks(net):
    span, found = _finest(net)
    assert _certify(net, span, found.parts) is None
    assert found.part_ranks == verify_decomposition(net, found.parts).part_ranks
    assert sum(found.part_ranks) == len(span.position)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("net", [net for _, net in RELATED], ids=[name for name, _ in RELATED])
def test_each_mutation_is_refused(net, mutation):
    mutate, reason = MUTATIONS[mutation]
    span, found = _finest(net)
    span, parts = mutate(span, found.parts)
    with pytest.raises(InternalError, match=reason):
        _certify(net, span, parts)


@pytest.mark.parametrize("command", ["analyze", "decompose"])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_a_refused_certificate_exits_two(capsys, monkeypatch, mutation, command):
    mutate = MUTATIONS[mutation][0]
    real = crnkit.decomposition._certify
    monkeypatch.setattr(
        crnkit.decomposition, "_certify", lambda net, span, parts: real(net, *mutate(span, parts))
    )
    code = main([command, str(NETWORKS_DIR / "baccam.crn")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
