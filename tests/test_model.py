"""Network model and matrix construction."""

import pytest

from crnkit import (
    Complex,
    DuplicateLabelError,
    EmptyNetworkError,
    Network,
    NetworkError,
    RationalMatrix,
    Reaction,
    SelfLoopError,
    Species,
    incidence_matrix,
    linkage_classes,
    molecularity_matrix,
    parse_network,
    rank,
    stoichiometric_matrix,
)
from conftest import ALL_NETWORK_FILES, load


def columns_by_species_name(net, order):
    """Transposed stoichiometric matrix with columns permuted to `order`."""
    nt = stoichiometric_matrix(net).transpose()
    pos = {name: i for i, name in enumerate(net.species_names)}
    perm = [pos[name] for name in order]
    return RationalMatrix([[nt.row(i)[j] for j in perm] for i in range(nt.rows)])


class TestMolecularityMatrix:
    def test_two_to_one(self):
        net = parse_network("R1: 2 X1 -> X2\n")
        assert molecularity_matrix(net) == RationalMatrix([[2, 0], [0, 1]])

    def test_zero_complex_column_is_zero(self, baccam):
        y = molecularity_matrix(baccam)
        zero_col = next(
            j for j, c in enumerate(baccam.complexes) if c.is_zero
        )
        assert all(y[(i, zero_col)] == 0 for i in range(y.rows))

    def test_yeast_has_one_row_per_species(self, yeast):
        y = molecularity_matrix(yeast)
        assert y.rows == 5
        assert y.cols == yeast.complex_count
        # Column j is complex j's vector, one coefficient per species.
        for j, c in enumerate(yeast.complexes):
            assert c.vector(y.rows) == y.column(j)
            assert tuple(c.coefficient(i) for i in range(y.rows)) == y.column(j)
            assert c.coefficient(y.rows) == 0
            assert c.format(yeast.species_names) == yeast.complex_string(j)


class TestIncidenceMatrix:
    def test_single_reaction(self):
        net = parse_network("R1: A -> B\n")
        assert incidence_matrix(net) == RationalMatrix([[-1], [1]])

    def test_two_chains_matches_known_matrix(self, two_chains):
        expected = RationalMatrix(
            [
                [-1, 0, 0, 1],
                [1, -1, 0, 0],
                [0, 1, 0, 0],
                [0, 0, -1, 0],
                [0, 0, 1, 0],
                [0, 0, 0, -1],
            ]
        )
        ia = incidence_matrix(two_chains)
        assert ia == expected
        assert rank(ia) == 4

    def test_every_column_has_one_plus_one_minus(self):
        for path in ALL_NETWORK_FILES:
            net = load(path.name)
            ia = incidence_matrix(net)
            for j in range(ia.cols):
                col = ia.column(j)
                assert sorted(v for v in col if v != 0) == [-1, 1]
                assert sum(col) == 0


class TestStoichiometricMatrix:
    def test_equals_product_of_factors(self):
        for path in ALL_NETWORK_FILES:
            net = load(path.name)
            assert stoichiometric_matrix(net) == molecularity_matrix(net) @ incidence_matrix(net)

    def test_columns_equal_reaction_vectors(self):
        for path in ALL_NETWORK_FILES:
            net = load(path.name)
            n = stoichiometric_matrix(net)
            for j in range(net.reaction_count):
                assert tuple(n.column(j)) == net.reaction_vector(j)

    def test_catalytic_reaction_column(self):
        net = parse_network("R1: A -> A + B\n")
        assert stoichiometric_matrix(net) == RationalMatrix([[0], [1]])

    def test_yeast_matches_printed_matrix(self, yeast):
        expected = RationalMatrix(
            [
                [1, 0, 0, 0, 0],
                [-1, 1, 0, 0, 0],
                [0, 0, 0, 0, -1],
                [0, -1, 1, 0, 0],
                [0, 0, 0, 0, -1],
                [0, -1, 0, 0, 0],
                [0, 0, 0, 0, -1],
                [0, 0, -1, 1, 0],
                [0, 0, 0, 0, 1],
                [0, 0, -1, 0, 0],
                [0, 0, 0, -1, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 0, -1],
            ]
        )
        assert columns_by_species_name(yeast, ["X1", "X2", "X3", "X4", "X5"]) == expected

    def test_sorribas_matches_printed_matrix(self, sorribas):
        expected = RationalMatrix(
            [
                [1, 0, 0, 0],
                [-1, 1, 0, 0],
                [0, -1, 1, 0],
                [0, -1, 0, 1],
                [0, 0, -1, 0],
                [0, 0, 0, -1],
            ]
        )
        assert columns_by_species_name(sorribas, ["X1", "X2", "X3", "X4"]) == expected

    def test_two_chains_matches_printed_matrix(self, two_chains):
        expected = RationalMatrix(
            [
                [1, -1, 0, 0],
                [0, 1, 0, 0],
                [0, 0, -1, 0],
                [0, 0, 1, 0],
                [0, 0, 1, -1],
            ]
        )
        assert stoichiometric_matrix(two_chains) == expected


class TestStructuralIdentities:
    def test_incidence_rank_is_complexes_minus_linkage_classes(self):
        for path in ALL_NETWORK_FILES:
            net = load(path.name)
            assert rank(incidence_matrix(net)) == net.complex_count - len(linkage_classes(net))


class TestNetworkValidation:
    def test_programmatic_self_loop(self):
        with pytest.raises(SelfLoopError):
            Network(
                [Species("A", 0)],
                [Complex({0: 1}), Complex({0: 2})],
                [Reaction(0, 0)],
            )

    def test_no_reactions(self):
        with pytest.raises(EmptyNetworkError):
            Network([Species("A", 0)], [Complex({0: 1})], [])

    def test_unused_complex_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                [Species("A", 0), Species("B", 1)],
                [Complex({0: 1}), Complex({1: 1}), Complex({0: 2})],
                [Reaction(0, 1)],
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            Network(
                [Species("A", 0), Species("B", 1)],
                [Complex({0: 1}), Complex({1: 1})],
                [Reaction(0, 1, "R1"), Reaction(1, 0, "R1")],
            )

    def test_complex_coefficients_must_be_positive_integers(self):
        with pytest.raises(NetworkError):
            Complex({0: 0})
        with pytest.raises(NetworkError):
            Complex({0: -2})

    @pytest.mark.parametrize("reaction", [Reaction(0.0, 1.0), Reaction(0, True), Reaction(None, 1)])
    def test_complex_indices_must_be_integers(self, reaction):
        # A float or bool index would pass the range check and fail later, or
        # index the complexes by accident.
        with pytest.raises(NetworkError, match="is not an integer"):
            Network(
                [Species("A", 0), Species("B", 1)],
                [Complex({0: 1}), Complex({1: 1})],
                [reaction],
            )

    @pytest.mark.parametrize("index", [0.0, False, True, "0", None])
    def test_species_index_must_be_an_integer(self, index):
        with pytest.raises(NetworkError, match=r"^species index .* is not an integer$"):
            Species("A", index)

    @pytest.mark.parametrize("name", [5, b"A", ("A",), 1.5, True])
    def test_species_name_must_be_a_string(self, name):
        message = f"species name {name!r} is not a string"
        with pytest.raises(NetworkError) as exc:
            Species(name, 0)
        assert str(exc.value) == message
        with pytest.raises(NetworkError) as exc:
            Species._make((name, 0))
        assert str(exc.value) == message
        with pytest.raises(NetworkError) as exc:
            Species("A", 0)._replace(name=name)
        assert str(exc.value) == message

    def test_a_falsy_species_name_keeps_the_nonempty_message(self):
        for name in ("", 0, None, ()):
            with pytest.raises(NetworkError, match="^species name must be nonempty$"):
                Species(name, 0)

    @pytest.mark.parametrize(
        "reaction",
        [Reaction(0, 1, 7), Reaction._make((0, 1, 7)), Reaction(0, 1, "a")._replace(label=7)],
        ids=["constructor", "make", "replace"],
    )
    def test_reaction_label_must_be_a_string_or_none(self, reaction):
        # Accepted before, this network failed later in `reaction_string`
        # with a raw TypeError.
        with pytest.raises(NetworkError) as exc:
            Network(
                [Species("A", 0), Species("B", 1)],
                [Complex({0: 1}), Complex({1: 1})],
                [reaction],
            )
        assert str(exc.value) == "reaction label 7 is not a string"

    @pytest.mark.parametrize("label", [b"R1", 1.0, ["R1"], False])
    def test_other_label_types_are_refused(self, label):
        with pytest.raises(NetworkError, match="^reaction label .* is not a string$"):
            Network(
                [Species("A", 0), Species("B", 1)],
                [Complex({0: 1}), Complex({1: 1})],
                [Reaction(0, 1), Reaction(1, 0, label)],
            )

    def test_string_and_missing_labels_are_kept(self):
        net = Network(
            [Species("A", 0), Species("B", 1)],
            [Complex({0: 1}), Complex({1: 1})],
            [Reaction(0, 1), Reaction(1, 0, "back")],
        )
        assert net.labels == ("R1", "back")
        assert net.reaction_string(1) == "back: B -> A"

    @pytest.mark.parametrize(
        "coefficients,message",
        [
            ({True: 1}, "invalid species index True in complex"),
            ({False: 2}, "invalid species index False in complex"),
            ({0.0: 1}, "invalid species index 0.0 in complex"),
            ({0: True}, "stoichiometric coefficient for species 0 must be a positive integer"),
            ([(1, 2.0)], "stoichiometric coefficient for species 1 must be a positive integer"),
        ],
    )
    def test_complex_terms_must_be_integers(self, coefficients, message):
        with pytest.raises(NetworkError) as exc:
            Complex(coefficients)
        assert str(exc.value) == message

    def test_equality_and_hash_by_value(self):
        assert Complex({1: 2, 0: 1}) == Complex({0: 1, 1: 2})
        assert hash(Complex({1: 2, 0: 1})) == hash(Complex({0: 1, 1: 2}))
        assert Complex() == Complex({})
        assert repr(Complex({1: 2, 0: 1})) == "Complex({0: 1, 1: 2})"
        net = parse_network("R1: 2 X1 -> X2\n")
        assert repr(net) == "Network(species=2, complexes=2, reactions=1)"
        # A non-instance is never equal, not even the value it was built from.
        for record, value in [(Complex({0: 1}), ((0, 1),)), (net, net._key())]:
            assert record.__eq__(value) is NotImplemented
            assert record != value and not record == value
