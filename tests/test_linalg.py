"""Exact linear algebra: rref, rank, greedy row basis, and coordinates."""

import itertools
import random
from fractions import Fraction

import pytest

import crnkit
import crnkit.linalg
from crnkit import (
    NotInSpanError,
    RationalMatrix,
    coordinates,
    rank,
    rank_of_rows,
    rref,
    select_basis_rows,
    stoichiometric_matrix,
)


def det_int(rows):
    """Integer determinant by Laplace expansion (oracle, small matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
            total += sign * rows[0][j] * det_int(minor)
        sign = -sign
    return total


def minor_rank(rows, cols):
    """Largest k with a nonzero k x k minor (independent rank oracle)."""
    entries = [[int(v) for v in row] for row in rows]
    for k in range(min(len(entries), cols), 0, -1):
        for ri in itertools.combinations(range(len(entries)), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[entries[r][c] for c in ci] for r in ri]
                if det_int(sub) != 0:
                    return k
    return 0


def random_matrix(rng, max_rows=6, max_cols=4):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return RationalMatrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


class TestRref:
    def test_identity_is_fixed_point(self):
        m = RationalMatrix.identity(3)
        reduced, pivots = rref(m)
        assert reduced == m and hash(reduced) == hash(m)
        assert pivots == (0, 1, 2)
        assert repr(m) == "RationalMatrix(3x3: 1 0 0; 0 1 0; 0 0 1)"
        assert m.__eq__(m.to_lists()) is NotImplemented
        assert m != m.to_lists() and not m == m.to_lists()

    def test_proportional_rows(self):
        reduced, pivots = rref(RationalMatrix([[1, 2], [2, 4]]))
        assert reduced == RationalMatrix([[1, 2], [0, 0]])
        assert pivots == (0,)
        assert repr(rref(RationalMatrix([[2, 1]]))[0]) == "RationalMatrix(1x2: 1 1/2)"

    def test_idempotent_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(60):
            m = random_matrix(rng)
            once, pivots = rref(m)
            twice, pivots2 = rref(once)
            assert once == twice
            assert pivots == pivots2
            assert list(pivots) == sorted(pivots)


class TestRank:
    def test_zero_matrix(self):
        assert rank(RationalMatrix([[0, 0], [0, 0], [0, 0]])) == 0

    def test_rank_of_transpose_matches(self):
        rng = random.Random(11)
        for _ in range(60):
            m = random_matrix(rng)
            assert rank(m) == rank(m.transpose())

    def test_two_elimination_paths_agree(self):
        # Full RREF and incremental echelon insertion are independent
        # implementations; they must agree on every matrix.
        rng = random.Random(17)
        for _ in range(60):
            m = random_matrix(rng)
            rows = [m.row(i) for i in range(m.rows)]
            assert rank(m) == rank_of_rows(rows)

    def test_rows_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            rank_of_rows([(0, 1), (1,)])

    def test_yeast_transposed_stoichiometric_rank_vs_minor_oracle(self, yeast):
        nt = stoichiometric_matrix(yeast).transpose()
        rows = [[int(v) for v in nt.row(i)] for i in range(nt.rows)]
        assert minor_rank(rows, nt.cols) == 5
        assert rank(nt) == 5

    def test_table_ranks_for_two_chains_network(self, two_chains):
        n = stoichiometric_matrix(two_chains)
        assert rank(n) == 4
        sub = RationalMatrix([[1, -1], [0, 1]])
        assert rank(sub) == 2


class TestSelectBasisRows:
    def test_skips_scalar_multiples(self):
        sel = select_basis_rows(RationalMatrix([[1, 2, 0], [2, 4, 0]]))
        assert sel.basis_rows == (0,)
        assert sel.rank == 1

    def test_yeast_basis_rows(self, yeast):
        nt = stoichiometric_matrix(yeast).transpose()
        assert select_basis_rows(nt).basis_rows == (0, 1, 2, 3, 7)

    def test_handel_basis_rows(self, handel):
        nt = stoichiometric_matrix(handel).transpose()
        assert select_basis_rows(nt).basis_rows == (0, 1, 2, 4, 8, 10)

    def test_greedy_is_lexicographically_smallest(self):
        rng = random.Random(23)
        for _ in range(40):
            m = random_matrix(rng, max_rows=6, max_cols=3)
            sel = select_basis_rows(m)
            target = rank(m)
            assert sel.rank == target
            rows = [m.row(i) for i in range(m.rows)]
            smallest = next(
                combo
                for combo in itertools.combinations(range(m.rows), target)
                if rank_of_rows([rows[i] for i in combo]) == target
            )
            assert sel.basis_rows == smallest

    def test_selected_rows_are_independent(self):
        rng = random.Random(31)
        for _ in range(40):
            m = random_matrix(rng)
            sel = select_basis_rows(m)
            assert rank_of_rows([m.row(i) for i in sel.basis_rows]) == sel.rank


class TestCoordinates:
    def test_yeast_relation_for_r6(self, yeast):
        nt = stoichiometric_matrix(yeast).transpose()
        basis = [nt.row(i) for i in (0, 1, 2, 3, 7)]
        assert coordinates(nt.row(5), basis) == (-1, -1, 0, 0, 0)

    def test_yeast_relation_for_r11(self, yeast):
        nt = stoichiometric_matrix(yeast).transpose()
        basis = [nt.row(i) for i in (0, 1, 2, 3, 7)]
        assert coordinates(nt.row(10), basis) == (-1, -1, 0, -1, -1)

    def test_sorribas_relation_for_r2_in_explicit_basis(self, sorribas):
        nt = stoichiometric_matrix(sorribas).transpose()
        basis = [nt.row(i) for i in (0, 3, 4, 5)]
        assert coordinates(nt.row(1), basis) == (-1, -1, 0, -1)

    def test_recomposition_is_exact(self):
        rng = random.Random(43)
        for _ in range(40):
            m = random_matrix(rng)
            sel = select_basis_rows(m)
            basis = [m.row(i) for i in sel.basis_rows]
            for i in range(m.rows):
                if i in sel.basis_rows:
                    continue
                coeffs = coordinates(m.row(i), basis)
                recomposed = [
                    sum((a * row[c] for a, row in zip(coeffs, basis)), Fraction(0))
                    for c in range(m.cols)
                ]
                assert tuple(recomposed) == m.row(i)

    def test_accepts_a_matrix_as_the_basis(self):
        basis = RationalMatrix([[1, 0, 0], [0, 2, 0]])
        assert coordinates([3, 4, 0], basis) == (3, 2)

    def test_not_in_span(self):
        with pytest.raises(NotInSpanError):
            coordinates([0, 0, 1], [(1, 0, 0), (0, 1, 0)])

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            coordinates([1, 2], [(1, 2), (2, 4)])


class TestFractionResults:
    """`fractions` is imported where a `Fraction` is built; the results stay `Fraction`s."""

    @pytest.mark.parametrize("module", [crnkit, crnkit.linalg], ids=lambda m: m.__name__)
    def test_rational_is_fraction(self, module):
        assert module.Rational is Fraction

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from crnkit import *", namespace)
        assert all(namespace[name] is getattr(crnkit, name) for name in crnkit.__all__)

    def test_an_unknown_attribute_is_still_an_attribute_error(self):
        for module in (crnkit, crnkit.linalg):
            with pytest.raises(AttributeError, match="no attribute 'Irrational'"):
                module.Irrational

    @pytest.mark.parametrize("rows", [[[1, -2], [0, 0]], [[0, 0, 0]], [[3], [6]]])
    def test_int_input_gives_fractions(self, rows):
        m = RationalMatrix(rows)
        reduced, _ = rref(m)
        for matrix in (m, reduced, m @ RationalMatrix.identity(m.cols)):
            assert {type(x) for row in matrix.to_lists() for x in row} == {Fraction}

    def test_coordinates_are_fractions(self):
        for vector in ([3, 4, 0], [0, 0, 0]):
            coeffs = coordinates(vector, [(1, 0, 0), (0, 2, 0)])
            assert {type(a) for a in coeffs} == {Fraction}

    def test_dot_starts_from_a_fraction_zero(self):
        product = RationalMatrix([[1, 2]]) @ RationalMatrix([[3], [4]])
        assert product.to_lists() == [[Fraction(11)]]
        assert type(product[0, 0]) is Fraction
        empty = RationalMatrix([[], []]) @ RationalMatrix([])
        assert (empty.rows, empty.cols) == (2, 0)
