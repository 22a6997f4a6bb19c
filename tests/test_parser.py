"""Reaction DSL parsing: grammar, ordering contracts, errors, round-trip."""

import random
import re

import pytest

from crnkit import (
    Complex,
    DslSyntaxError,
    DuplicateLabelError,
    DuplicateReactionError,
    EmptyNetworkError,
    Network,
    NetworkError,
    Reaction,
    SelfLoopError,
    Species,
    parse_file,
    parse_network,
    to_dsl,
)
from crnkit.parser import _is_identifier
from netgen import random_sparse_network


class TestBasics:
    def test_baccam_counts(self):
        net = parse_network(
            "R1: T + V -> I + V\nR2: I -> 0\nR3: I -> I + V\nR4: V -> 0\n"
        )
        assert net.species_count == 3
        assert net.complex_count == 5
        assert net.reaction_count == 4

    def test_species_first_appearance_order(self):
        net = parse_network("R1: T + V -> I + V\nR2: I -> 0\n")
        assert net.species_names == ("T", "V", "I")

    def test_complex_first_appearance_order(self):
        net = parse_network("R1: A -> B\nR2: B -> C\n")
        strings = [net.complex_string(i) for i in range(net.complex_count)]
        assert strings == ["A", "B", "C"]

    def test_coefficients_juxtaposed_and_spaced(self):
        net = parse_network("R1: 2 X5 + X1 -> X5 + X1\n")
        reactant = net.complexes[net.reactions[0].reactant]
        product = net.complexes[net.reactions[0].product]
        assert reactant.coefficients == {0: 2, 1: 1}
        assert product.coefficients == {0: 1, 1: 1}
        same = parse_network("R1: 2X5 + X1 -> X5 + X1\n")
        assert same == net

    def test_repeated_species_in_complex_accumulates(self):
        net = parse_network("R1: X1 + X1 -> X2\n")
        assert net.complexes[0].coefficients == {0: 2}

    def test_zero_complex(self):
        net = parse_network("R1: I -> 0\n")
        assert net.complexes[net.reactions[0].product].is_zero
        assert net.complex_string(net.reactions[0].product) == "0"

    def test_comments_blanks_and_trailing_semicolon(self):
        text = "# header\n\nR1: A -> B  # inline\nR2: B -> 0 ; # note\nR3: 0 -> A;\n"
        net = parse_network(text)
        assert net.reaction_count == 3

    def test_unlabeled_reactions_get_positional_labels(self):
        net = parse_network("A -> B\nB -> C\n")
        assert net.labels == ("R1", "R2")


class TestReversible:
    def test_expands_forward_then_backward(self):
        net = parse_network("R1: X1 <-> X2\n")
        assert net.reaction_count == 2
        assert net.labels == ("R1f", "R1b")
        fwd, bwd = net.reactions
        assert (fwd.reactant, fwd.product) == (bwd.product, bwd.reactant)

    def test_unlabeled_reversible_gets_positional_labels(self):
        net = parse_network("X1 <-> X2\n")
        assert net.labels == ("R1", "R2")

    def test_reverse_duplicate_detected(self):
        with pytest.raises(DuplicateReactionError):
            parse_network("R1: A <-> B\nR2: B -> A\n")


class TestErrors:
    def test_self_loop(self):
        with pytest.raises(SelfLoopError) as err:
            parse_network("R1: X1 -> X1\n")
        assert err.value.line == 1

    def test_reordered_complex_is_still_a_self_loop(self):
        with pytest.raises(SelfLoopError):
            parse_network("R1: X1 + X2 -> X2 + X1\n")

    def test_catalytic_reduction_is_not_a_self_loop(self):
        net = parse_network("R1: 2 X5 + X1 -> X5 + X1\n")
        assert net.reaction_count == 1

    def test_duplicate_reaction(self):
        with pytest.raises(DuplicateReactionError) as err:
            parse_network("R1: A -> B\nR2: A -> B\n")
        assert err.value.line == 2

    def test_repeat_with_different_coefficients_is_distinct(self):
        net = parse_network("R1: A -> B\nR2: 2 A -> 2 B\n")
        assert net.reaction_count == 2

    def test_equal_reaction_vectors_are_legal(self):
        # Distinct complex pairs may share a reaction vector.
        net = parse_network("R1: A -> B\nR2: A + C -> B + C\n")
        assert net.reaction_vector(0) == net.reaction_vector(1)

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            parse_network("R1: A -> B\nR1: B -> C\n")

    def test_explicit_label_colliding_with_default(self):
        with pytest.raises(DuplicateLabelError):
            parse_network("A -> B\nR1: B -> C\n")

    @pytest.mark.parametrize(
        "source,line",
        [
            ("R1: A -> B\nR1: B -> C\n", 2),
            ("A -> B\nR1: B -> C\n", 2),
            ("bind: A <-> B\nbindf: B -> C\n", 2),
            ("bindf: B -> C\nbind: A <-> B\n", 2),
            ("R3: C -> D\nA <-> B\nB -> C\n", 1),
        ],
    )
    def test_every_label_collision_names_its_line(self, source, line):
        with pytest.raises(DuplicateLabelError) as err:
            parse_network(source)
        assert err.value.line == line

    def test_empty_input(self):
        with pytest.raises(EmptyNetworkError):
            parse_network("")
        with pytest.raises(EmptyNetworkError):
            parse_network("# only a comment\n\n")

    @pytest.mark.parametrize(
        "line",
        [
            "R1: A -> B -> C",
            "R1: A",
            "R1: -> B",
            "R1: A ->",
            "R1: A + -> B",
            "R1: 2 -> B",
            "R1: 0 + A -> B",
            "R1: 0X1 -> B",
            "R1: A -> B extra garbage",
            "R1: A -> B ; not a comment",
        ],
    )
    def test_syntax_errors(self, line):
        with pytest.raises(DslSyntaxError) as err:
            parse_network(line + "\n")
        assert err.value.line == 1

    def test_error_reports_correct_line(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_network("R1: A -> B\n\n# ok\nR2: ??? -> B\n")
        assert err.value.line == 4


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "baccam.crn",
            "baccam_delayed.crn",
            "handel.crn",
            "yeast.crn",
            "sorribas.crn",
            "two_chains.crn",
            "mass_action_demo.crn",
            "purine.crn",
        ],
    )
    def test_parse_serialize_parse_identity(self, networks_dir, name):
        original = parse_network((networks_dir / name).read_text())
        assert parse_network(to_dsl(original)) == original

    def test_serializer_is_idempotent(self, networks_dir):
        net = parse_network((networks_dir / "yeast.crn").read_text())
        text = to_dsl(net)
        assert to_dsl(parse_network(text)) == text

    def test_round_trip_with_reversible_pair(self):
        net = parse_network("bind: A + B <-> C\n")
        assert parse_network(to_dsl(net)) == net

    @pytest.mark.parametrize(
        "species, label, message",
        [
            # '2A -> 0' would be read back as '2 A -> 0', vector -2 for -1.
            ("2A", "R1", "species name '2A' is not a DSL identifier"),
            # 'R1: 0 -> 0' would read the species as the zero complex.
            ("0", "R1", "species name '0' is not a DSL identifier"),
            ("A", "k-on", "label 'k-on' is not a DSL identifier"),
        ],
    )
    def test_a_name_that_would_not_read_back_is_refused(self, species, label, message):
        complexes = [Complex({0: 1}), Complex({})]
        net = Network([Species(species, 0)], complexes, [Reaction(0, 1, label)])
        with pytest.raises(NetworkError, match=f"^{message}$"):
            to_dsl(net)

    def test_species_come_back_in_first_appearance_order(self):
        net = Network(
            [Species("B", 0), Species("A", 1)],
            [Complex({1: 1}), Complex({0: 1})],
            [Reaction(0, 1, "R1")],
        )
        text = to_dsl(net)
        assert text == "R1: A -> B\n"
        back = parse_network(text)
        assert back.species_names == ("A", "B")
        assert back != net
        assert to_dsl(back) == text

    def test_to_dsl_reads_the_species_names_once(self, monkeypatch):
        # Each complex is written from names read once, not rebuilt per complex:
        # rebuilt, they made to_dsl cost O(reactions * species).
        net = random_sparse_network(random.Random(7), 200, 100)
        expected = to_dsl(net)
        reads = 0
        names = Network.species_names

        def counted(self):
            nonlocal reads
            reads += 1
            return names.fget(self)

        monkeypatch.setattr(Network, "species_names", property(counted))
        assert to_dsl(net) == expected
        assert reads == 1

# Python identifiers that are not DSL identifiers: the DSL's are ASCII.
NON_ASCII_IDENTIFIERS = ["\u00e9", "\u03a9", "x\u0663", "\u03bb1", "\uff58"]


class TestIdentifiers:
    def test_the_rule_is_the_grammars_on_every_short_ascii_string(self):
        grammar = re.compile("[A-Za-z_][A-Za-z0-9_]*")
        chars = [chr(c) for c in range(128)]
        for text in chars + [a + b for a in chars for b in chars]:
            assert _is_identifier(text) == bool(grammar.fullmatch(text)), repr(text)

    @pytest.mark.parametrize("name", NON_ASCII_IDENTIFIERS, ids=ascii)
    def test_a_non_ascii_identifier_is_no_dsl_identifier(self, name):
        assert name.isidentifier() and not _is_identifier(name)
        with pytest.raises(DslSyntaxError, match=f"^line 1: invalid term {name!r}$"):
            parse_network(f"{name} -> B\n")
        with pytest.raises(DslSyntaxError, match=f"^line 1: invalid term '{name}: A'$"):
            parse_network(f"{name}: A -> B\n")
        net = Network([Species(name, 0)], [Complex({0: 1}), Complex({})], [Reaction(0, 1)])
        with pytest.raises(NetworkError, match=f"^species name {name!r} is not a DSL identifier$"):
            to_dsl(net)


class TestFiles:
    def test_byte_order_mark_and_crlf(self, tmp_path):
        plain = tmp_path / "plain.crn"
        plain.write_bytes(b"R1: A -> B\nR2: B <-> C\n")
        bom = tmp_path / "bom.crn"
        bom.write_bytes(b"\xef\xbb\xbfR1: A -> B\r\nR2: B <-> C\r\n")
        assert parse_file(bom) == parse_file(plain)

    def test_non_utf8_error_after_byte_order_mark_keeps_its_position(self, tmp_path):
        f = tmp_path / "bad.crn"
        f.write_bytes(b"\xef\xbb\xbfR1: A -> B\n\xff -> C\n")
        with pytest.raises(DslSyntaxError) as err:
            parse_file(f)
        assert err.value.line == 2
        assert "(byte 14)" in str(err.value)


# Characters that str.splitlines breaks at but a .crn line does not.
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NOT_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
class TestLineBreaks:
    def test_inside_a_comment(self, sep):
        net = parse_network(f"R1: A -> B  # note{sep}more\nR2: B -> C\n")
        assert net == parse_network("R1: A -> B\nR2: B -> C\n")

    def test_between_terms(self, sep):
        net = parse_network(f"R1: A +{sep}2{sep}B{sep}->{sep}C\n")
        assert net == parse_network("R1: A + 2 B -> C\n")

    def test_later_lines_keep_their_numbers(self, sep):
        with pytest.raises(DslSyntaxError) as err:
            parse_network(f"R1: A -> B # a{sep}\nR2: ??? -> B\n")
        assert err.value.line == 2


def test_line_number_after_a_form_feed_matches_the_invalid_utf8_count(tmp_path):
    f = tmp_path / "page.crn"
    f.write_bytes(b"R1: A -> B\x0c\n\xff -> C\n")
    with pytest.raises(DslSyntaxError) as err:
        parse_file(f)
    assert err.value.line == 2
    with pytest.raises(DslSyntaxError) as err:
        parse_network("R1: A -> B\f\n?? -> C\n")
    assert err.value.line == 2


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_every_line_ending_parses_the_same(tmp_path, ending):
    f = tmp_path / "net.crn"
    f.write_bytes(ending.join(["R1: A -> B", "# note", "", "R2: B <-> C", ""]).encode())
    assert parse_file(f) == parse_network("R1: A -> B\nR2: B <-> C\n")
    with pytest.raises(DslSyntaxError) as err:
        parse_network(ending.join(["R1: A -> B", "", "R2: ?? -> C"]))
    assert err.value.line == 3
    f.write_bytes(ending.join(["R1: A -> B", "", "R2: \xff -> C"]).encode("latin-1"))
    with pytest.raises(DslSyntaxError) as err:
        parse_file(f)
    assert err.value.line == 3
