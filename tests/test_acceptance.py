"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
explicit PASS lines).  Golden values are frozen from independent hand
computation, and criterion 9 judges the finder by an exhaustive partition
search that shares no code with crnkit (`ground_truth`).
"""

import random
import time
from fractions import Fraction

from crnkit import (
    CONCLUSION_NO_POSITIVE_STEADY_STATE,
    Kinetics,
    build_coordinate_graph,
    connected_components,
    coordinates,
    deficiency_zero_check,
    find_independent_decomposition,
    incidence_matrix,
    linkage_classes,
    molecularity_matrix,
    network_numbers,
    rank,
    rank_of_rows,
    select_basis_rows,
    sfrf,
    is_steady_state,
    stoichiometric_matrix,
    strong_linkage_classes,
    subnetwork,
    verify_decomposition,
)
from crnkit.cli import main
from conftest import ALL_NETWORK_FILES, load


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def numbers_column(nn):
    return (
        nn.species_count,
        nn.complex_count,
        nn.reaction_count,
        nn.irreversible_reaction_count,
        nn.linkage_class_count,
        nn.rank,
        nn.deficiency,
    )


def table_from_cli(capsys, file, parts):
    code, out = run_cli(capsys, "numbers", str(file), "--parts", parts)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 7
    columns = None
    for row in rows:
        cells = [int(v) for v in row.split() if v.lstrip("-").isdigit()]
        if columns is None:
            columns = [[] for _ in cells]
        for col, value in zip(columns, cells):
            col.append(value)
    return [tuple(col) for col in columns]


def ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_01_yeast_decomposition_basis_and_relations(capsys, networks_dir, yeast):
    code, out = run_cli(capsys, "decompose", str(networks_dir / "yeast.crn"))
    assert code == 0
    assert out.splitlines() == [
        "P1: R1, R2, R4, R6, R8, R10, R11",
        "P2: R3, R5, R7, R9, R12, R13",
    ]

    nt = stoichiometric_matrix(yeast).transpose()
    basis = select_basis_rows(nt)
    assert tuple(yeast.reaction_label(i) for i in basis.basis_rows) == (
        "R1", "R2", "R3", "R4", "R8",
    )
    basis_rows = [nt.row(i) for i in basis.basis_rows]
    # Coordinates in basis order (R1, R2, R3, R4, R8); exact rationals.
    expected_relations = {
        4: (0, 0, 1, 0, 0),     # R5 = R3
        5: (-1, -1, 0, 0, 0),   # R6 = -R2 - R1
        6: (0, 0, 1, 0, 0),     # R7 = R3
        8: (0, 0, -1, 0, 0),    # R9 = -R3
        9: (-1, -1, 0, -1, 0),  # R10 = -R4 - R2 - R1
        10: (-1, -1, 0, -1, -1),  # R11 = -R8 - R4 - R2 - R1
        11: (0, 0, -1, 0, 0),   # R12 = -R3
        12: (0, 0, 1, 0, 0),    # R13 = R3
    }
    assert set(expected_relations) == {
        k for k in range(nt.rows) if k not in basis.basis_rows
    }
    for row_index, expected in expected_relations.items():
        got = coordinates(nt.row(row_index), basis_rows)
        assert got == tuple(Fraction(v) for v in expected)
    ok(1, "yeast decomposition, basis {R1,R2,R3,R4,R8}, and all 8 relations exact")


def test_criterion_02_sorribas_trivial_with_exact_relations(capsys, networks_dir, sorribas):
    code, out = run_cli(capsys, "decompose", str(networks_dir / "sorribas.crn"))
    assert code == 3
    assert out.strip() == "trivial only"

    nt = stoichiometric_matrix(sorribas).transpose()
    named_basis_indices = (0, 3, 4, 5)  # rows R1, R4, R5, R6
    named_basis = [nt.row(i) for i in named_basis_indices]
    assert rank_of_rows(named_basis) == 4 == rank(nt)
    # R2 = -R1 - R4 - R6 and R3 = R4 - R5 + R6, exact in that basis.
    assert coordinates(nt.row(1), named_basis) == (-1, -1, 0, -1)
    assert coordinates(nt.row(2), named_basis) == (0, 1, -1, 1)

    graph = build_coordinate_graph(sorribas, select_basis_rows(nt))
    assert len(connected_components(graph)) == 1
    assert find_independent_decomposition(sorribas) is None
    ok(2, "sorribas trivial-only, named basis valid, relations exact, 1 component")


def test_criterion_03_baccam_table_and_dzt(capsys, networks_dir, baccam):
    columns = table_from_cli(capsys, networks_dir / "baccam.crn", "R1,R2|R3,R4")
    assert columns == [
        (3, 5, 4, 4, 1, 3, 1),
        (3, 4, 2, 2, 2, 2, 0),
        (2, 4, 2, 2, 2, 1, 1),
    ]
    first = subnetwork(baccam, [0, 1])
    verdict = deficiency_zero_check(first)
    assert verdict.applicable
    assert dict(verdict.conditions)["weakly reversible"] is False
    assert verdict.conclusion == CONCLUSION_NO_POSITIVE_STEADY_STATE
    ok(3, "baccam table reproduced cell-for-cell; DZT verdict on first part")


def test_criterion_04_baccam_delayed_table(capsys, networks_dir):
    columns = table_from_cli(
        capsys, networks_dir / "baccam_delayed.crn", "R1,R2,R3|R4,R5"
    )
    assert columns == [
        (4, 7, 5, 5, 2, 4, 1),
        (4, 5, 3, 3, 2, 3, 0),
        (2, 4, 2, 2, 2, 1, 1),
    ]
    ok(4, "baccam-delayed table reproduced cell-for-cell")


def test_criterion_05_handel_decomposition_and_table(capsys, networks_dir):
    code, out = run_cli(capsys, "decompose", str(networks_dir / "handel.crn"))
    assert code == 0
    assert out.splitlines() == [
        "P1: R1, R2, R3, R4",
        "P2: R5, R6, R7, R8",
        "P3: R9, R10",
        "P4: R11, R12",
    ]
    columns = table_from_cli(
        capsys,
        networks_dir / "handel.crn",
        "R1,R2,R3,R4|R5,R6,R7,R8|R9,R10|R11,R12",
    )
    assert columns == [
        (7, 14, 12, 12, 2, 6, 6),
        (5, 6, 4, 4, 2, 3, 1),
        (4, 8, 4, 4, 4, 1, 3),
        (2, 4, 2, 2, 2, 1, 1),
        (2, 4, 2, 2, 2, 1, 1),
    ]
    assert sum(len(c) for c in columns) == 35
    ok(5, "handel 4-part decomposition and all 35 table cells")


def test_criterion_06_two_chains_check(capsys, networks_dir):
    code, out = run_cli(
        capsys, "check", str(networks_dir / "two_chains.crn"), "--parts", "R1,R2|R3,R4"
    )
    assert code == 0
    assert "rank condition: 4 = 2 + 2 (independent)" in out
    assert "incidence rank condition: 4 = 2 + 2 (incidence independent)" in out
    ok(6, "two-chains partition independent and incidence independent, 4 = 2 + 2")


def test_criterion_07_purine_singleton_split_under_five_seconds(capsys, networks_dir, purine):
    complement = ",".join(f"R{i}" for i in range(1, 42))
    start = time.perf_counter()
    code, out = run_cli(
        capsys,
        "check",
        str(networks_dir / "purine.crn"),
        "--parts",
        f"R42|{complement}",
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "(independent)" in out
    assert elapsed < 5.0
    report = verify_decomposition(purine, [[41], list(range(41))])
    assert report.network_rank == 18
    assert report.part_ranks == (1, 17)
    ok(7, f"purine {{R42}} | complement independent in {elapsed:.2f}s")


def test_criterion_08_steady_state_point(capsys, networks_dir, mass_action_demo):
    rates = [1.0, 1.0, 3.0, 1.0]
    x = [2.0, 3.0, 3.0, 2.0]
    kin = Kinetics.mass_action(mass_action_demo, rates)
    assert sfrf(mass_action_demo, kin, x) == (0.0, 0.0, 0.0, 0.0)
    assert is_steady_state(mass_action_demo, kin, x)

    point = {name: value for name, value in zip(mass_action_demo.species_names, x)}
    for part, part_rates in [([0, 1], [1.0, 1.0]), ([2, 3], [3.0, 1.0])]:
        sub = subnetwork(mass_action_demo, part)
        sub_kin = Kinetics.mass_action(sub, part_rates)
        sub_x = [point[name] for name in sub.species_names]
        assert sfrf(sub, sub_kin, sub_x) == tuple([0.0] * sub.species_count)
        assert is_steady_state(sub, sub_kin, sub_x)

    code, out = run_cli(
        capsys,
        "steady-state",
        str(networks_dir / "mass_action_demo.crn"),
        "--rates",
        "R1=1,R2=1,R3=3,R4=1",
        "--point",
        "X1=2,X2=3,X3=3,X4=2",
    )
    assert code == 0 and "steady state" in out
    ok(8, "x=(2,3,3,2), k=(1,1,3,1) steady for the whole network and both parts")


def test_criterion_09_property_suite_500_networks():
    from netgen import check_network_properties, random_network

    rng = random.Random(123457)
    start = time.perf_counter()
    nontrivial_cases = 0
    for _ in range(500):
        net = random_network(rng, max_species=4, max_reactions=6, max_coeff=2)
        independents = check_network_properties(net)
        if independents > 1:
            nontrivial_cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert nontrivial_cases > 50  # the sample exercises both sides of the criterion
    ok(9, f"500 random networks satisfy the oracle bundle in {elapsed:.1f}s")


def test_criterion_10_structural_identities_across_corpus():
    for path in ALL_NETWORK_FILES:
        net = load(path.name)
        subjects = [net]
        decomposition = find_independent_decomposition(net)
        if decomposition is not None:
            subjects += [subnetwork(net, part) for part in decomposition.parts]
        for subject in subjects:
            y = molecularity_matrix(subject)
            ia = incidence_matrix(subject)
            n = stoichiometric_matrix(subject)
            assert n == y @ ia
            l = len(linkage_classes(subject))
            sl = len(strong_linkage_classes(subject))
            assert rank(ia) == subject.complex_count - l
            nn = network_numbers(subject)
            assert nn.deficiency == subject.complex_count - l - nn.rank
            assert nn.deficiency >= 0
            assert nn.weakly_reversible == (sl == l)
    ok(10, "N = Y*Ia, rank(Ia) = n - l, deficiency identity, weak reversibility")
