"""The parser builds each network once, from parts it has already checked.

`parse_network` parses each distinct side and term text once and hands its
checked parts to `Network._assemble`, skipping the validation that
`Network(...)` runs on library input.  These tests show that the checked
constructor accepts every parsed network and rebuilds an equal one, that a
network written out by `to_dsl` parses back equal to it, and that nothing
else reaches the unchecked step.  The parser builds no `Species` or
`Complex` record: a network builds them when they are first read, and no
``crn`` command reads them.
"""

import contextlib
import io
import random
from collections import Counter

import pytest

from conftest import ALL_NETWORK_FILES
from crnkit import (
    Complex,
    Network,
    NetworkError,
    Reaction,
    Species,
    parse_file,
    parse_network,
    to_dsl,
)
from crnkit.cli import main
from netgen import random_network, random_sparse_network
from test_fuzz import corpus_texts, mutate
from test_one_elimination import module_calls

SEED = 20261018


def assert_rebuilds(net):
    again = Network(net.species, net.complexes, net.reactions)
    assert again == net
    assert again.labels == net.labels
    assert again.species_names == net.species_names
    for i in range(net.reaction_count):
        assert again.sparse_reaction_vector(i) == net.sparse_reaction_vector(i)
        assert again.reaction_string(i) == net.reaction_string(i)


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_the_checked_constructor_rebuilds_each_corpus_network(path):
    assert_rebuilds(parse_file(path))


def in_first_appearance_order(net):
    """``net`` with its species and complexes renumbered as `parse_network` numbers them.

    That is in order of first appearance in ``to_dsl(net)``; species in no
    complex are left out.  Each reaction keeps its label, None included.
    """
    complexes = list(dict.fromkeys(k for rx in net.reactions for k in rx[:2]))
    species = list(dict.fromkeys(i for k in complexes for i, _ in net.complexes[k].terms))
    new_species = {old: new for new, old in enumerate(species)}
    new_complex = {old: new for new, old in enumerate(complexes)}
    return Network(
        [Species(net.species_names[old], new) for new, old in enumerate(species)],
        [Complex({new_species[i]: c for i, c in net.complexes[k].terms}) for k in complexes],
        [Reaction(new_complex[a], new_complex[b], label) for a, b, label in net.reactions],
    )


def test_a_positional_label_equals_the_same_label_written_out():
    written = parse_network("A -> B")
    library = Network(
        [Species("A", 0), Species("B", 1)], [Complex({0: 1}), Complex({1: 1})], [Reaction(0, 1)]
    )
    assert written.reactions[0].label == "R1" and library.reactions[0].label is None
    assert written == library
    assert hash(written) == hash(library)
    assert parse_network("R2: A -> B") != library


def test_the_checked_constructor_rebuilds_generated_networks():
    rng = random.Random(SEED)
    nets = [random_network(rng, max_species=5, max_reactions=8, max_coeff=3) for _ in range(150)]
    for r, b in ((20, 1), (40, 4), (60, 3)):
        nets.append(random_sparse_network(rng, r, r // 2, blocks=b))
    same = 0
    for net in nets:
        parsed = parse_network(to_dsl(net))
        ordered = in_first_appearance_order(net)
        assert parsed == ordered
        assert hash(parsed) == hash(ordered)
        in_order = ordered.species == net.species and ordered.complexes == net.complexes
        assert (parsed == net) == in_order
        same += in_order
        assert_rebuilds(parsed)
    assert 0 < same < len(nets)


def test_the_checked_constructor_rebuilds_every_fuzzed_text_that_parses():
    rng = random.Random(SEED)
    texts = corpus_texts()
    parsed = 0
    for _ in range(600):
        try:
            net = parse_network(mutate(rng, rng.choice(texts)))
        except NetworkError:
            continue
        assert_rebuilds(net)
        parsed += 1
    assert parsed > 100


def test_only_the_parser_and_the_constructor_assemble_unchecked():
    assert module_calls("parser", "_assemble") == ["parse_network"]
    assert module_calls("model", "_assemble") == ["Network.__init__"]
    assert module_calls("model", "_of") == ["Network.complexes"]
    for module in ("analysis", "cli", "decomposition", "linalg", "report", "__init__"):
        assert module_calls(module, "_assemble") == []
        assert module_calls(module, "_of") == []
    assert module_calls("parser", "_of") == []


def test_one_complex_written_three_ways_gets_one_index():
    net = parse_network("A+2B -> C\nC -> A + 2 B\nD -> 2 B + A\n2B+A -> D\n")
    assert net.species_names == ("A", "B", "C", "D")
    assert [c.terms for c in net.complexes] == [((0, 1), (1, 2)), ((2, 1),), ((3, 1),)]
    assert [tuple(rx[:2]) for rx in net.reactions] == [(0, 1), (1, 0), (2, 0), (0, 2)]


def test_a_repeated_side_keeps_its_first_species_order():
    # The repeated side 'B + A' is read from the map; a new species after it
    # still comes last.
    net = parse_network("B + A -> C\nC -> B + A\nB + A -> E\n")
    assert net.species_names == ("B", "A", "C", "E")
    assert net.complex_string(0) == "B + A"


def test_a_repeated_term_is_summed_each_time():
    net = parse_network("X + X -> Y\nY -> X + 2 X\n")
    assert [c.terms for c in net.complexes] == [((0, 2),), ((1, 1),), ((0, 3),)]


SELF_LOOP = "reactant and product complexes are identical"
NOT_POSITIVE = "stoichiometric coefficient must be positive in '0X'"


@pytest.mark.parametrize(
    "text,message",
    [
        ("A + B -> C\nA + B -> C\n", "line 2: reaction duplicates the one on line 1"),
        ("A + B -> C\nC -> A + B\nA + B -> A + B\n", "line 3: " + SELF_LOOP),
        ("A + B -> C\nC -> A + @\n", "line 2: invalid term '@'"),
        ("A + B -> C\nA + B -> C + 0X\n", "line 2: " + NOT_POSITIVE),
    ],
)
def test_an_error_after_a_repeated_text_keeps_its_line(text, message):
    with pytest.raises(NetworkError) as exc:
        parse_network(text)
    assert str(exc.value) == message


def test_the_parser_gives_string_names_and_labels_only():
    nets = [parse_file(p) for p in ALL_NETWORK_FILES]
    nets.append(parse_network("bind: A + B <-> C\nC -> 0\nR9: 0 -> A\n"))
    for net in nets:
        assert all(type(s.name) is str for s in net.species)
        assert all(type(rx.label) is str for rx in net.reactions)
        assert all(type(label) is str for label in net.labels)


@pytest.fixture
def records_built(monkeypatch):
    """How many `Species` and `Complex` records are built, by kind.

    Every `Species` runs its check, and every `Complex` is built by its
    constructor or, unchecked, by `Complex._of`.
    """
    built = Counter()
    check, of, init = Species._check, Complex._of.__func__, Complex.__init__

    def counted_check(self):
        built["species"] += 1
        check(self)

    def counted_of(cls, terms):
        built["complexes"] += 1
        return of(cls, terms)

    def counted_init(self, *args, **kwargs):
        built["complexes"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Species, "_check", counted_check)
    monkeypatch.setattr(Complex, "_of", classmethod(counted_of))
    monkeypatch.setattr(Complex, "__init__", counted_init)
    return built


def test_the_parser_builds_no_record_and_a_first_read_builds_them_once(records_built):
    rng = random.Random(SEED)
    texts = [p.read_text(encoding="utf-8") for p in ALL_NETWORK_FILES]
    texts += [to_dsl(random_network(rng, max_species=5, max_reactions=8)) for _ in range(20)]
    for text in texts:
        records_built.clear()
        net = parse_network(text)
        # Counts, strings, equality and hash read the names and terms.
        assert net.species_count > 0 and net.complex_count > 0
        assert net.reaction_string(0).endswith(net.complex_string(net.reactions[0].product))
        assert net == parse_network(text) and hash(net) == hash(parse_network(text))
        assert records_built == Counter()

        species = net.species
        assert records_built == Counter(species=net.species_count)
        complexes = net.complexes
        assert records_built == Counter(species=net.species_count, complexes=net.complex_count)
        assert net.species is species and net.complexes is complexes
        assert records_built == Counter(species=net.species_count, complexes=net.complex_count)

        again = Network(species, complexes, net.reactions)
        assert again.species == species and again.complexes == complexes
        assert [type(s) for s in species] == [Species] * net.species_count
        assert [type(c) for c in complexes] == [Complex] * net.complex_count


BACCAM = "baccam.crn"
COMMANDS = [
    ["analyze", BACCAM],
    ["analyze", BACCAM, "--format", "json"],
    ["decompose", BACCAM],
    ["decompose", BACCAM, "--contains", "R2"],
    ["check", BACCAM, "--parts", "R1,R2|R3,R4"],
    ["numbers", BACCAM],
    ["numbers", BACCAM, "--parts", "R1,R2|R3,R4"],
    ["steady-state", BACCAM, "--rates", "R1=1,R2=1,R3=3,R4=1", "--point", "T=1,I=2,V=3"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_no_command_builds_a_record(argv, networks_dir, records_built):
    argv = [str(networks_dir / arg) if arg == BACCAM else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code in (0, 3) and out.getvalue()
    assert records_built == Counter()
