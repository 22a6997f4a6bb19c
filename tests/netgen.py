"""Random small-network generation and shared property checks.

Used by both the module-level property tests and the acceptance suite: the
brute-force partition oracle is exhaustive for the sizes generated here, so
coordinate-graph connectivity can be tested against ground truth.
"""

from fractions import Fraction

from crnkit import (
    Complex,
    Kinetics,
    Network,
    Reaction,
    Species,
    brute_force_decompositions,
    build_coordinate_graph,
    connected_components,
    find_independent_decomposition,
    refine_or_coarsen_check,
    select_basis_rows,
    sfrf,
    stoichiometric_matrix,
    subnetwork,
    verify_decomposition,
)


def random_network(rng, max_species=4, max_reactions=6, max_coeff=2):
    """A random network with small integer stoichiometric coefficients."""
    while True:
        m = rng.randint(1, max_species)
        r_target = rng.randint(1, max_reactions)
        proposed: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        seen_pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for _ in range(r_target):
            for _attempt in range(40):
                reactant = tuple(rng.randint(0, max_coeff) for _ in range(m))
                product = tuple(rng.randint(0, max_coeff) for _ in range(m))
                if reactant == product or (reactant, product) in seen_pairs:
                    continue
                seen_pairs.add((reactant, product))
                proposed.append((reactant, product))
                break
        if not proposed:
            continue
        complex_index: dict[tuple[int, ...], int] = {}
        complexes: list[Complex] = []
        reactions: list[Reaction] = []
        for reactant, product in proposed:
            pair = []
            for vec in (reactant, product):
                if vec not in complex_index:
                    complex_index[vec] = len(complexes)
                    complexes.append(Complex({i: v for i, v in enumerate(vec) if v}))
                pair.append(complex_index[vec])
            reactions.append(Reaction(pair[0], pair[1]))
        species = [Species(f"S{i + 1}", i) for i in range(m)]
        return Network(species, complexes, reactions)


def random_sparse_network(rng, reactions, species, blocks=1):
    """A network of exactly ``reactions`` reactions over ``species`` species.

    Complexes hold 0-2 species with coefficients 1-2.  With ``blocks > 1``
    the species and reactions are split into that many disjoint blocks
    (the zero complex is left out so blocks share nothing), and the
    reactions are shuffled.
    """
    assert species >= 2 * blocks
    pairs = []
    seen = set()
    smallest = 0 if blocks == 1 else 1
    for b in range(blocks):
        names = range(b * species // blocks, (b + 1) * species // blocks)

        def draw():
            size = rng.randint(smallest, 2)
            return tuple(sorted((s, rng.randint(1, 2)) for s in rng.sample(names, size)))

        while len(pairs) < (b + 1) * reactions // blocks:
            pair = (draw(), draw())
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    rng.shuffle(pairs)
    complex_index = {}
    for pair in pairs:
        for c in pair:
            complex_index.setdefault(c, len(complex_index))
    used = sorted({s for c in complex_index for s, _ in c})
    rename = {s: k for k, s in enumerate(used)}
    return Network(
        [Species(f"S{rename[s] + 1}", rename[s]) for s in used],
        [Complex({rename[s]: v for s, v in c}) for c in complex_index],
        [Reaction(complex_index[a], complex_index[b]) for a, b in pairs],
    )


def all_independent_partitions(net):
    return brute_force_decompositions(net, max_parts=net.reaction_count)


def scalar_multiple_pairs(net):
    """Pairs (i, j) of reactions whose vectors are nonzero scalar multiples."""
    vectors = [tuple(Fraction(v) for v in net.reaction_vector(i)) for i in range(net.reaction_count)]
    pairs = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            vi, vj = vectors[i], vectors[j]
            k = next(c for c, v in enumerate(vj) if v)
            scale = vi[k] / vj[k]
            if scale != 0 and all(a == scale * b for a, b in zip(vi, vj)):
                pairs.append((i, j))
    return pairs


def check_network_properties(net):
    """The theorem-oracle property bundle for one network.

    Returns the number of independent partitions found by brute force.
    Raises AssertionError on any violated property:
      a. coordinate graph disconnected <=> a nontrivial independent partition exists
      b. the finder's output verifies as independent
      c. every independent partition coarsens (or equals) the finder's output
      d. part ranks are superadditive for every partition, with equality
         exactly on the independent ones
      e. scalar-multiple reaction vectors are never separated in an
         independent partition
    """
    r = net.reaction_count
    basis = select_basis_rows(stoichiometric_matrix(net).transpose())
    graph = build_coordinate_graph(net, basis)
    disconnected = len(connected_components(graph)) > 1

    independents = all_independent_partitions(net)
    nontrivial = [d for d in independents if len(d.parts) > 1]
    assert disconnected == bool(nontrivial), (
        f"connectivity criterion violated for {net!r}"
    )

    found = find_independent_decomposition(net)
    assert (found is not None) == disconnected
    if found is not None:
        report = verify_decomposition(net, found.parts)
        assert report.independent
        finest = found.parts
    else:
        finest = (tuple(range(r)),)
    for d in independents:
        assert refine_or_coarsen_check(finest, d.parts) in ("refinement", "equal"), (
            f"{d.parts} is not a coarsening of the finest partition {finest}"
        )

    # Superadditivity on every partition (not only independent ones).
    from crnkit import iter_set_partitions, rank_of_rows

    vectors = [net.reaction_vector(i) for i in range(r)]
    total = rank_of_rows(vectors)
    independent_parts = {d.parts for d in independents}
    for partition in iter_set_partitions(r, r):
        ranks = [rank_of_rows([vectors[i] for i in part]) for part in partition]
        assert sum(ranks) >= total
        assert (sum(ranks) == total) == (partition in independent_parts)

    multiples = scalar_multiple_pairs(net)
    for d in independents:
        owner = {i: k for k, part in enumerate(d.parts) for i in part}
        for i, j in multiples:
            assert owner[i] == owner[j], (
                f"scalar multiples {i},{j} separated in {d.parts}"
            )
    return len(independents)


def embedded_part_sfrf(parent, part, rates, x):
    """SFRF of the subnetwork on `part`, scattered back into parent species order."""
    sub = subnetwork(parent, part)
    kin = Kinetics.mass_action(sub, [rates[i] for i in part])
    name_to_parent = {name: k for k, name in enumerate(parent.species_names)}
    x_sub = [x[name_to_parent[name]] for name in sub.species_names]
    f_sub = sfrf(sub, kin, x_sub)
    out = [0.0] * parent.species_count
    for name, value in zip(sub.species_names, f_sub):
        out[name_to_parent[name]] = value
    return out
