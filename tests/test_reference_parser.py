"""The parser reads every text as its frozen reference copy does.

`reference_parser` holds the parser as it was before it computed reaction
vectors as it read and built its `Species` and `Complex` records on demand.
Both parsers must give the same result: equal species names, complex terms,
reactions, labels and reaction vectors, or else an error of the same type,
message and line.
"""

import random

import pytest

import reference_parser
from conftest import ALL_NETWORK_FILES
from crnkit import NetworkError, parse_file, parse_network, to_dsl
from netgen import random_network, random_sparse_network
from test_fuzz import corpus_texts, mutate

SEED = 20261020
MUTANTS = 5000


def parts(net):
    return (
        net.species_names,
        tuple(c.terms for c in net.complexes),
        net.reactions,
        net.labels,
        tuple(net.sparse_reaction_vector(i) for i in range(net.reaction_count)),
    )


def outcome(parse, source):
    """What ``parse`` makes of ``source``: its parts, or its error's type, message and line."""
    try:
        result = parse(source)
    except NetworkError as exc:
        return type(exc), str(exc), exc.line
    return result if isinstance(result, tuple) else parts(result)


def assert_same(source, parse=parse_network, reference=reference_parser.parse_network):
    got, want = outcome(parse, source), outcome(reference, source)
    assert got == want, source
    return want


def generated_texts():
    rng = random.Random(SEED)
    nets = [random_network(rng, max_species=5, max_reactions=8, max_coeff=3) for _ in range(100)]
    nets += [random_sparse_network(rng, r, r // 2, blocks=b) for r, b in ((20, 1), (60, 3))]
    return [to_dsl(net) for net in nets]


def variants(text):
    """``text`` with CR LF and CR line ends, form feeds and vertical tabs as spaces."""
    return [
        text.replace("\n", "\r\n"),
        text.replace("\n", "\r"),
        text.replace(" ", "\f"),
        text.replace(" + ", "\x0b+\f").replace(": ", ":\f"),
        text.replace("\n", "  # note more\n", 1),
    ]


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_each_corpus_file_reads_as_the_reference_reads_it(path, tmp_path):
    assert_same(path, parse_file, reference_parser.parse_file)
    text = path.read_text(encoding="utf-8")
    for k, variant in enumerate(variants(text)):
        assert_same(variant)
        # Every variant once more as a file that starts with a byte-order mark.
        copy = tmp_path / f"{k}.crn"
        copy.write_bytes(b"\xef\xbb\xbf" + variant.encode("utf-8"))
        assert_same(copy, parse_file, reference_parser.parse_file)


def test_generated_networks_read_as_the_reference_reads_them():
    for text in generated_texts():
        assert not isinstance(assert_same(text)[0], type)
        for variant in variants(text):
            assert_same(variant)


def test_fuzzed_texts_read_as_the_reference_reads_them():
    rng = random.Random(SEED)
    texts = corpus_texts()
    errors = 0
    for _ in range(MUTANTS):
        want = assert_same(mutate(rng, rng.choice(texts)))
        errors += isinstance(want[0], type)
    # Both outcomes must be exercised, or the comparison shows little.
    assert 0 < errors < MUTANTS


@pytest.mark.parametrize(
    "data",
    [b"A -> B\n\xff -> C\n", b"A -> B\r\nB -> C\r\n\x80\n", b"\xef\xbb\xbf", b""],
    ids=["bad-byte", "bad-byte-crlf", "bom-only", "empty"],
)
def test_an_unreadable_or_empty_file_fails_as_the_reference_fails(data, tmp_path):
    path = tmp_path / "net.crn"
    path.write_bytes(data)
    assert isinstance(assert_same(path, parse_file, reference_parser.parse_file)[0], type)


@pytest.mark.parametrize("name", ["missing.crn", "."], ids=["missing", "directory"])
def test_a_path_that_is_no_file_fails_as_the_reference_fails(name, tmp_path):
    errors = []
    for parse in (parse_file, reference_parser.parse_file):
        with pytest.raises(OSError) as exc:
            parse(tmp_path / name)
        errors.append((type(exc.value), str(exc.value), exc.value.errno))
    assert errors[0] == errors[1]
