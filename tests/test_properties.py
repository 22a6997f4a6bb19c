"""Randomized property tests: the connectivity criterion against the
exhaustive ground truth, partition propositions, and additivity of the
species formation rate over partition blocks."""

import random
from itertools import combinations

from crnkit import Kinetics, find_independent_decomposition, parse_network, rank_of_rows, sfrf
from ground_truth import fraction_scan, set_partitions
from netgen import (
    all_independent_partitions,
    check_network_properties,
    embedded_part_sfrf,
    random_network,
)


class TestTheoremOracle:
    def test_random_networks_satisfy_property_bundle(self):
        rng = random.Random(2024)
        for _ in range(150):
            check_network_properties(random_network(rng))

    def test_two_reaction_networks_split_iff_vectors_not_proportional(self):
        rng = random.Random(5)
        for _ in range(80):
            net = random_network(rng, max_species=3, max_reactions=2)
            if net.reaction_count != 2:
                continue
            v0, v1 = net.reaction_vector(0), net.reaction_vector(1)
            proportional = rank_of_rows([v0, v1]) == 1
            nontrivial = [p for p, _ in all_independent_partitions(net) if len(p) > 1]
            assert bool(nontrivial) == (not proportional)


class TestLinearCombinationProposition:
    def test_combination_witnesses_keep_their_generators_together(self):
        # Whenever v_k = a*v_i + b*v_j with a, b != 0 and {v_i, v_j}
        # independent, no independent partition separates i from j: neither
        # the ground truth's nor the finder's finest.  In the ground truth's
        # scan of (v_i, v_j, v_k), k has both coordinates exactly then.
        rng = random.Random(77)
        checked = 0
        for _ in range(120):
            net = random_network(rng, max_species=3, max_reactions=5)
            r = net.reaction_count
            rows = [net.sparse_reaction_vector(i) for i in range(r)]
            witnesses = [
                (i, j)
                for i, j in combinations(range(r), 2)
                for k in range(r)
                if k not in (i, j)
                and fraction_scan([rows[i], rows[j], rows[k]])[1].get(2, {}).keys() == {0, 1}
            ]
            if not witnesses:
                continue
            checked += 1
            found = find_independent_decomposition(net)
            finest = (tuple(range(r)),) if found is None else found.parts
            for parts in [finest, *(parts for parts, _ in all_independent_partitions(net))]:
                owner = {x: p for p, part in enumerate(parts) for x in part}
                for i, j in witnesses:
                    assert owner[i] == owner[j], (parts, i, j)
        assert checked > 10  # the sample must actually exercise the property


class TestSfrfAdditivity:
    def test_formation_rate_sums_over_partition_blocks(self):
        # N is linear over column blocks, so the whole-network SFRF equals
        # the sum of the block SFRFs at every point, for any partition.
        rng = random.Random(99)
        for _ in range(40):
            net = random_network(rng, max_species=4, max_reactions=5)
            r = net.reaction_count
            rates = [rng.uniform(0.5, 3.0) for _ in range(r)]
            x = [rng.uniform(0.5, 2.5) for _ in range(net.species_count)]
            kin = Kinetics.mass_action(net, rates)
            whole = sfrf(net, kin, x)

            partitions = list(set_partitions(r, 2))
            partition = partitions[rng.randrange(len(partitions))]
            total = [0.0] * net.species_count
            for part in partition:
                contribution = embedded_part_sfrf(net, part, rates, x)
                total = [t + c for t, c in zip(total, contribution)]
            for a, b in zip(whole, total):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_shared_steady_state_for_independent_parts(self, mass_action_demo):
        rates = [1.0, 1.0, 3.0, 1.0]
        x = [2.0, 3.0, 3.0, 2.0]
        kin = Kinetics.mass_action(mass_action_demo, rates)
        assert sfrf(mass_action_demo, kin, x) == (0.0, 0.0, 0.0, 0.0)
        d = find_independent_decomposition(mass_action_demo)
        assert d is not None
        for part in d.parts:
            assert all(v == 0.0 for v in embedded_part_sfrf(mass_action_demo, part, rates, x))


class TestParsedNetworksAlsoSatisfyTheOracle:
    def test_small_corpus_networks(self, baccam, two_chains):
        for net in (baccam, two_chains):
            check_network_properties(net)

    def test_feedforward_network(self):
        net = parse_network(
            "R1: 0 -> X1\nR2: X1 -> X2\nR3: X2 + X3 -> X1 + X3\nR4: X2 -> X3\n"
        )
        check_network_properties(net)
