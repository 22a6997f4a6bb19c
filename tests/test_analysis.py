"""Network numbers, linkage structure, deficiency theorems, and kinetics."""

import math
import random
import sys

import pytest

import crnkit.analysis
from crnkit import (
    CONCLUSION_AT_MOST_ONE,
    CONCLUSION_EXACTLY_ONE,
    CONCLUSION_NO_POSITIVE_STEADY_STATE,
    CONCLUSION_NOT_APPLICABLE,
    Complex,
    DimensionError,
    EmptySubsetError,
    Kinetics,
    Network,
    NetworkError,
    NonPositivePointError,
    Reaction,
    Species,
    deficiency_one_check,
    deficiency_zero_check,
    is_steady_state,
    linkage_classes,
    network_numbers,
    parse_network,
    sfrf,
    strong_linkage_classes,
    subnetwork,
    terminal_strong_linkage_classes,
)
from conftest import ALL_NETWORK_FILES, load
from netgen import random_sparse_network


def numbers_tuple(nn):
    """(m, n, r, irreversible, l, s, deficiency) in table row order."""
    return (
        nn.species_count,
        nn.complex_count,
        nn.reaction_count,
        nn.irreversible_reaction_count,
        nn.linkage_class_count,
        nn.rank,
        nn.deficiency,
    )


class TestLinkageClasses:
    def test_baccam_is_connected(self, baccam):
        assert len(linkage_classes(baccam)) == 1

    def test_baccam_delayed_has_two(self, baccam_delayed):
        assert len(linkage_classes(baccam_delayed)) == 2

    def test_handel_has_two(self, handel):
        assert len(linkage_classes(handel)) == 2

    def test_classes_partition_the_complexes(self, handel):
        classes = linkage_classes(handel)
        flat = sorted(c for cls in classes for c in cls)
        assert flat == list(range(handel.complex_count))


class TestStrongLinkageClasses:
    def test_reversible_pair_is_one_class(self):
        net = parse_network("R1: X1 -> X2\nR2: X2 -> X1\n")
        assert strong_linkage_classes(net) == [(0, 1)]

    def test_one_way_edge_gives_singletons(self):
        net = parse_network("R1: A -> B\n")
        assert strong_linkage_classes(net) == [(0,), (1,)]

    def test_baccam_all_singletons(self, baccam):
        assert strong_linkage_classes(baccam) == [(i,) for i in range(5)]

    def test_three_cycle(self):
        net = parse_network("R1: A -> B\nR2: B -> C\nR3: C -> A\n")
        assert strong_linkage_classes(net) == [(0, 1, 2)]

    def test_strong_classes_refine_linkage_classes(self):
        for path in ALL_NETWORK_FILES:
            net = load(path.name)
            class_of = {}
            for k, cls in enumerate(linkage_classes(net)):
                for c in cls:
                    class_of[c] = k
            for scc in strong_linkage_classes(net):
                assert len({class_of[c] for c in scc}) == 1

    def test_matches_reachability_oracle_on_random_digraphs(self):
        # Mutual-reachability closure is a slow but obviously correct SCC oracle.
        import random

        from netgen import random_network

        rng = random.Random(404)
        for _ in range(60):
            net = random_network(rng, max_species=3, max_reactions=6)
            n = net.complex_count
            reach = [[False] * n for _ in range(n)]
            for i in range(n):
                reach[i][i] = True
            for rx in net.reactions:
                reach[rx.reactant][rx.product] = True
            for k in range(n):
                for i in range(n):
                    if reach[i][k]:
                        for j in range(n):
                            if reach[k][j]:
                                reach[i][j] = True
            expected = sorted(
                {
                    tuple(
                        sorted(
                            j for j in range(n) if reach[i][j] and reach[j][i]
                        )
                    )
                    for i in range(n)
                }
            )
            assert sorted(strong_linkage_classes(net)) == expected


class TestTerminalClasses:
    def test_chain_terminates_at_sink(self):
        net = parse_network("R1: A -> B\nR2: B -> C\n")
        assert terminal_strong_linkage_classes(net) == [(2,)]

    def test_reversible_pair_is_terminal(self):
        net = parse_network("R1: X1 -> X2\nR2: X2 -> X1\n")
        assert terminal_strong_linkage_classes(net) == [(0, 1)]

    def test_baccam_condensation_sinks(self, baccam):
        # Complex order: T+V, I+V, I, 0, V; sinks are I+V and 0.
        assert terminal_strong_linkage_classes(baccam) == [(1,), (3,)]

    def test_terminal_classes_are_strong_classes(self):
        for path in ALL_NETWORK_FILES:
            net = load(path.name)
            sccs = set(strong_linkage_classes(net))
            assert set(terminal_strong_linkage_classes(net)) <= sccs


class TestNetworkNumbers:
    def test_baccam_table(self, baccam):
        assert numbers_tuple(network_numbers(baccam)) == (3, 5, 4, 4, 1, 3, 1)

    def test_baccam_delayed_table(self, baccam_delayed):
        assert numbers_tuple(network_numbers(baccam_delayed)) == (4, 7, 5, 5, 2, 4, 1)

    def test_handel_table(self, handel):
        assert numbers_tuple(network_numbers(handel)) == (7, 14, 12, 12, 2, 6, 6)

    def test_baccam_strong_and_terminal_counts(self, baccam):
        nn = network_numbers(baccam)
        assert nn.strong_linkage_class_count == 5
        assert nn.terminal_strong_linkage_class_count == 2
        assert not nn.weakly_reversible

    def test_reversible_pair_is_weakly_reversible(self):
        nn = network_numbers(parse_network("R1: X1 <-> X2\n"))
        assert nn.weakly_reversible
        assert nn.irreversible_reaction_count == 0
        assert nn.deficiency == 0

    def test_invariants_across_corpus(self):
        for path in ALL_NETWORK_FILES:
            net = load(path.name)
            nn = network_numbers(net)
            assert nn.deficiency == nn.complex_count - nn.linkage_class_count - nn.rank
            assert nn.deficiency >= 0
            assert nn.terminal_strong_linkage_class_count <= nn.strong_linkage_class_count
            assert nn.linkage_class_count <= nn.complex_count
            assert nn.weakly_reversible == (
                nn.strong_linkage_class_count == nn.linkage_class_count
            )


class TestSubnetwork:
    def test_baccam_second_part(self, baccam):
        sub = subnetwork(baccam, [2, 3])
        assert numbers_tuple(network_numbers(sub)) == (2, 4, 2, 2, 2, 1, 1)
        assert sub.labels == ("R3", "R4")
        assert sub.species_names == ("V", "I")

    def test_handel_second_part(self, handel):
        sub = subnetwork(handel, [4, 5, 6, 7])
        assert numbers_tuple(network_numbers(sub)) == (4, 8, 4, 4, 4, 1, 3)

    def test_full_subset_preserves_structure(self, baccam):
        sub = subnetwork(baccam, range(baccam.reaction_count))
        assert sub == baccam

    def test_empty_subset_rejected(self, baccam):
        with pytest.raises(EmptySubsetError):
            subnetwork(baccam, [])

    def test_duplicate_indices_collapse(self, baccam):
        assert subnetwork(baccam, [1, 1]) == subnetwork(baccam, [1])

    @pytest.mark.parametrize("reactions", [[0, "a"], [1.0], [True]])
    def test_non_integer_index_is_a_network_error(self, baccam, reactions):
        with pytest.raises(NetworkError, match="not an integer"):
            subnetwork(baccam, reactions)

    @staticmethod
    def by_definition(net, reactions):
        """The chosen reactions, the complexes they touch and those complexes' species."""
        chosen = sorted(set(reactions))
        rxs = [net.reactions[i] for i in chosen]
        complexes = sorted({c for rx in rxs for c in (rx.reactant, rx.product)})
        species = sorted({s for c in complexes for s in net.complexes[c].support})
        new_complex = {c: k for k, c in enumerate(complexes)}
        new_species = {s: k for k, s in enumerate(species)}
        return Network(
            [Species(net.species[s].name, new_species[s]) for s in species],
            [Complex({new_species[s]: v for s, v in net.complexes[c].terms}) for c in complexes],
            [
                Reaction(new_complex[rx.reactant], new_complex[rx.product], net.reaction_label(i))
                for i, rx in zip(chosen, rxs)
            ],
        )

    @staticmethod
    def subsets(net, rng, count):
        r = net.reaction_count
        yield from ([i] for i in range(r))
        for _ in range(count):
            yield rng.sample(range(r), rng.randint(1, r))

    @pytest.mark.parametrize("file", ALL_NETWORK_FILES, ids=lambda p: p.stem)
    def test_corpus_subsets_match_the_definition(self, file):
        net = load(file.name)
        for chosen in self.subsets(net, random.Random(file.stem), 20):
            assert subnetwork(net, chosen) == self.by_definition(net, chosen)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_subsets_match_the_definition(self, seed):
        rng = random.Random(seed)
        net = random_sparse_network(rng, 60, 20, blocks=1 + seed % 2)
        for chosen in self.subsets(net, rng, 20):
            assert subnetwork(net, chosen) == self.by_definition(net, chosen)

    def test_only_the_chosen_reactions_edges_are_built(self, purine, monkeypatch):
        # The parent's whole edge list costs O(r) per call, whatever the subset.
        def refuse(net):
            raise AssertionError("subnetwork built the parent's whole edge list")

        monkeypatch.setattr(crnkit.analysis, "_complex_edges", refuse)
        assert subnetwork(purine, [40, 3]) == self.by_definition(purine, [3, 40])


class TestDeficiencyZero:
    def test_baccam_first_part(self, baccam):
        verdict = deficiency_zero_check(subnetwork(baccam, [0, 1]))
        assert verdict.applicable
        assert dict(verdict.conditions)["weakly reversible"] is False
        assert verdict.conclusion == CONCLUSION_NO_POSITIVE_STEADY_STATE

    def test_reversible_pair(self):
        verdict = deficiency_zero_check(parse_network("R1: X1 <-> X2\n"))
        assert verdict.applicable
        assert verdict.conclusion == CONCLUSION_EXACTLY_ONE

    def test_handel_not_applicable(self, handel):
        verdict = deficiency_zero_check(handel)
        assert not verdict.applicable
        assert verdict.conclusion == CONCLUSION_NOT_APPLICABLE

    def test_conclusion_matches_applicability(self):
        for path in ALL_NETWORK_FILES:
            verdict = deficiency_zero_check(load(path.name))
            assert (verdict.conclusion == CONCLUSION_NOT_APPLICABLE) != verdict.applicable


class TestDeficiencyOne:
    def test_reversible_pair_exactly_one(self):
        verdict = deficiency_one_check(parse_network("R1: A <-> B\n"))
        assert verdict.applicable
        assert verdict.conclusion == CONCLUSION_EXACTLY_ONE

    def test_baccam_fails_terminal_class_condition(self, baccam):
        # Single linkage class with class deficiency 1 but two terminal
        # strong linkage classes (I+V and 0), so the theorem does not apply.
        verdict = deficiency_one_check(baccam)
        conditions = dict(verdict.conditions)
        assert conditions["one terminal strong linkage class per linkage class"] is False
        assert conditions["each linkage class deficiency at most one"] is True
        assert conditions["linkage class deficiencies sum to network deficiency"] is True
        assert verdict.conclusion == CONCLUSION_NOT_APPLICABLE

    def test_handel_not_applicable(self, handel):
        # Class deficiencies are 2 and 3: they exceed one and sum to 5 != 6.
        verdict = deficiency_one_check(handel)
        conditions = dict(verdict.conditions)
        assert conditions["each linkage class deficiency at most one"] is False
        assert conditions["linkage class deficiencies sum to network deficiency"] is False
        assert verdict.conclusion == CONCLUSION_NOT_APPLICABLE

    def test_two_reversible_chains_at_most_one(self):
        # Deficiency 0 per class, one terminal class each, not weakly reversible.
        net = parse_network("R1: A -> B\nR2: 0 <-> C\n")
        verdict = deficiency_one_check(net)
        assert verdict.applicable
        assert verdict.conclusion == CONCLUSION_AT_MOST_ONE

    def test_per_class_deficiencies(self, baccam, handel):
        from crnkit.analysis import _Structure

        assert _Structure(baccam).class_deficiencies == [1]
        assert _Structure(handel).class_deficiencies == [2, 3]


class TestKinetics:
    def test_mass_action_orders_come_from_reactants(self, mass_action_demo):
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        assert kin.orders[0] == (1.0, 1.0, 0.0, 0.0)   # X1 + X2
        assert kin.orders[3] == (0.0, 2.0, 0.0, 1.0)   # X4 + 2 X2

    def test_rates_must_be_positive(self, mass_action_demo):
        with pytest.raises(ValueError):
            Kinetics.mass_action(mass_action_demo, [1, 0, 1, 1])

    def test_rates_must_be_finite(self, mass_action_demo):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Kinetics.mass_action(mass_action_demo, [1, bad, 1, 1])

    def test_rate_count_must_match(self, mass_action_demo):
        with pytest.raises(DimensionError):
            Kinetics.mass_action(mass_action_demo, [1, 1, 1])

    def test_power_law_allows_real_orders(self):
        kin = Kinetics.power_law([2.0], [[0.5, -1.0]])
        assert kin.kind == "power-law"
        assert kin.orders == ((0.5, -1.0),)


class TestSfrf:
    def test_demo_point_is_a_zero(self, mass_action_demo):
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        assert sfrf(mass_action_demo, kin, [2, 3, 3, 2]) == (0.0, 0.0, 0.0, 0.0)

    def test_demo_subnetworks_share_the_zero(self, mass_action_demo):
        for part, rates in [((0, 1), [1, 1]), ((2, 3), [3, 1])]:
            sub = subnetwork(mass_action_demo, part)
            kin = Kinetics.mass_action(sub, rates)
            x = [{"X1": 2, "X2": 3, "X3": 3, "X4": 2}[name] for name in sub.species_names]
            assert sfrf(sub, kin, x) == tuple([0.0] * sub.species_count)

    def test_symmetric_cycle_cancels(self):
        net = parse_network("R1: A -> B\nR2: B -> A\n")
        kin = Kinetics.mass_action(net, [2.0, 2.0])
        assert sfrf(net, kin, [5.0, 5.0]) == (0.0, 0.0)

    def test_dimension_errors(self, mass_action_demo):
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        with pytest.raises(DimensionError):
            sfrf(mass_action_demo, kin, [1, 1, 1])
        other = parse_network("R1: A -> B\n")
        with pytest.raises(DimensionError):
            sfrf(other, kin, [1, 1])

    def test_nonpositive_point_rejected(self, mass_action_demo):
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        with pytest.raises(NonPositivePointError):
            sfrf(mass_action_demo, kin, [1, 1, 0, 1])
        with pytest.raises(NonPositivePointError):
            sfrf(mass_action_demo, kin, [1, 1, -2, 1])


    def test_infinite_point_rejected(self, mass_action_demo):
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        with pytest.raises(ValueError):
            sfrf(mass_action_demo, kin, [1, 1, math.inf, 1])

    def test_overflow_raises_instead_of_returning_inf(self):
        net = parse_network("R1: A -> B\nR2: 2 B -> 0\n")
        kin = Kinetics.mass_action(net, [1e300, 1.0])
        with pytest.raises(OverflowError):  # k * x overflows silently in floats
            sfrf(net, kin, [1e300, 1.0])
        with pytest.raises(OverflowError):  # x ** 2 raises by itself
            sfrf(net, Kinetics.mass_action(net, [1.0, 1.0]), [1.0, 1e200])
        with pytest.raises(OverflowError):
            is_steady_state(net, kin, [1e300, 1.0], tol=sys.float_info.max)


class TestIsSteadyState:
    def test_demo_point(self, mass_action_demo):
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        assert is_steady_state(mass_action_demo, kin, [2, 3, 3, 2])

    def test_ones_point_is_not_steady(self, mass_action_demo):
        # f(1,1,1,1) = (0, 0, 0, 2) by direct evaluation.
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        assert sfrf(mass_action_demo, kin, [1, 1, 1, 1]) == (0.0, 0.0, 0.0, 2.0)
        assert not is_steady_state(mass_action_demo, kin, [1, 1, 1, 1])

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, mass_action_demo, tol):
        # An infinite tolerance would call (1, 1, 1, 1), where f = (0, 0, 0, 2), steady.
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        with pytest.raises(ValueError, match="^tolerance must be finite and nonnegative$"):
            is_steady_state(mass_action_demo, kin, [1, 1, 1, 1], tol=tol)

    def test_negative_tolerance_rejected(self, mass_action_demo):
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        with pytest.raises(ValueError):
            is_steady_state(mass_action_demo, kin, [2, 3, 3, 2], tol=-1.0)

    @pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
    def test_point_errors_come_before_the_tolerance(self, mass_action_demo, tol):
        # As in `crn steady-state`: a bad point is reported, not the bad tolerance.
        kin = Kinetics.mass_action(mass_action_demo, [1, 1, 3, 1])
        with pytest.raises(NonPositivePointError):
            is_steady_state(mass_action_demo, kin, [2, 3, 3, 0], tol=tol)
        with pytest.raises(DimensionError):
            is_steady_state(mass_action_demo, kin, [2, 3, 3], tol=tol)
        with pytest.raises(OverflowError):
            is_steady_state(mass_action_demo, kin, [2, 3, 1e300, 1e300], tol=tol)
