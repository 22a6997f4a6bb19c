"""Seeded network generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data, so the same
seed always gives the same networks.  crnkit sees only the DSL text that
`Net.text()` renders.  The exact oracle (`oracle.py`) decides the expected
answers from the same plain data, independently of crnkit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

# A complex is a sorted tuple of (species index, coefficient) pairs; () is 0.
Complex = tuple[tuple[int, int], ...]

LADDER_RUNGS = (20, 30, 40)
# The work in one network of a rung varies by about 6 % from seed to seed
# (elimination fill-in); several networks per rung average that out.
LADDER_PER_RUNG = 4
# Block networks are kept small (24 reactions) so that a run times many of
# them: its percentiles then rest on dozens of items, not on ten.
BLOCK_NETWORKS = 4
BLOCK_COUNT = 8
BLOCK_REACTIONS = 3
BLOCK_SPECIES = 2
SCREEN_NETWORKS = 100


@dataclass(frozen=True)
class Net:
    """A network as plain data: species names, reactions, labels."""

    species: tuple[str, ...]
    reactions: tuple[tuple[Complex, Complex], ...]
    labels: tuple[str, ...]

    def text(self) -> str:
        return "".join(
            f"{label}: {self._fmt(a)} -> {self._fmt(b)}\n"
            for label, (a, b) in zip(self.labels, self.reactions)
        )

    def _fmt(self, c: Complex) -> str:
        if not c:
            return "0"
        return " + ".join(
            self.species[i] if k == 1 else f"{k} {self.species[i]}" for i, k in c
        )


def random_complex(rng: random.Random, species: int, zero: bool = True) -> Complex:
    """0 (unless not ``zero``), 1 or 2 distinct species, coefficients 1 or 2."""
    size = min(rng.choice((0, 1, 1, 2, 2) if zero else (1, 1, 2, 2)), species)
    chosen = rng.sample(range(species), size)
    return tuple(sorted((i, rng.randint(1, 2)) for i in chosen))


def random_reactions(
    rng: random.Random, species: int, count: int, reversible: bool = False
) -> list[tuple[Complex, Complex]]:
    """``count`` distinct reactions between distinct random complexes.

    With ``reversible`` each draw adds a reaction and its reverse, so
    ``count`` must be even.
    """
    seen: set[tuple[Complex, Complex]] = set()
    out: list[tuple[Complex, Complex]] = []
    while len(out) < count:
        a, b = random_complex(rng, species), random_complex(rng, species)
        if a == b or (a, b) in seen:
            continue
        drawn = [(a, b), (b, a)] if reversible else [(a, b)]
        seen.update(drawn)
        out.extend(drawn)
    return out


def _compact(
    reactions: list[tuple[Complex, Complex]], names: list[str]
) -> tuple[tuple[str, ...], tuple[tuple[Complex, Complex], ...]]:
    """Drop species no complex uses and renumber the rest."""
    used = sorted({i for pair in reactions for c in pair for i, _ in c})
    new = {old: k for k, old in enumerate(used)}
    remap = lambda c: tuple((new[i], k) for i, k in c)  # noqa: E731
    return (
        tuple(names[i] for i in used),
        tuple((remap(a), remap(b)) for a, b in reactions),
    )


def _labelled(species, reactions) -> Net:
    return Net(species, tuple(reactions), tuple(f"R{i + 1}" for i in range(len(reactions))))


def random_network(
    rng: random.Random,
    reactions: int,
    species: int,
    complexes: int,
    prefix: str,
    zero: bool = True,
) -> Net:
    """An indecomposable network of full rank with exactly these sizes.

    Fixing the reaction, species and complex counts and the rank keeps the
    matrix shapes, and so most of the work, the same from seed to seed.
    """
    names = tuple(f"{prefix}{i + 1}" for i in range(species))
    while True:
        pool: set[Complex] = set()
        while len(pool) < complexes:
            pool.add(random_complex(rng, species, zero))
        if len({i for c in pool for i, _ in c}) < species:
            continue
        order = sorted(pool)
        rng.shuffle(order)
        # Pair the pool off so that every complex is used, then add random
        # reactions between pool complexes up to the requested count.
        chosen = list(zip(order[0::2], order[1::2]))
        if len(order) % 2:
            chosen.append((order[-1], rng.choice(order[:-1])))
        seen = set(chosen)
        while len(chosen) < reactions:
            pair = (rng.choice(order), rng.choice(order))
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                chosen.append(pair)
        rng.shuffle(chosen)
        net = _labelled(names, chosen)
        exact = oracle.analyse(net)
        if exact.rank == species and len(exact.parts) == 1:
            return net


def ladder(
    rng: random.Random, rungs=LADDER_RUNGS, per_rung: int = LADDER_PER_RUNG
) -> list[Net]:
    """Networks of r reactions, r/2 species and r complexes, per rung r."""
    return [random_network(rng, r, r // 2, r, "X") for r in rungs for _ in range(per_rung)]


def blocks(
    rng: random.Random,
    count: int = BLOCK_COUNT,
    size: int = BLOCK_REACTIONS,
    species: int = BLOCK_SPECIES,
) -> tuple[Net, list[frozenset[str]]]:
    """Disjoint indecomposable blocks merged with their reactions shuffled.

    Returns the network and the label sets of the blocks, which are its
    finest independent decomposition: blocks share no species, so their
    stoichiometric subspaces are independent, and none of them splits.
    Blocks do not use the zero complex, so they share no complex either
    and every network of a given shape has the same number of complexes.
    """
    pool: list[tuple[int, tuple[Complex, Complex]]] = []
    names: list[str] = []
    for b in range(count):
        block = random_network(rng, size, species, size, f"B{b + 1}S", zero=False)
        base = len(names)
        names.extend(block.species)
        shift = lambda c: tuple((i + base, k) for i, k in c)  # noqa: E731
        pool.extend((b, (shift(x), shift(y))) for x, y in block.reactions)
    rng.shuffle(pool)
    net = _labelled(tuple(names), [pair for _, pair in pool])
    parts = [
        frozenset(label for label, (b, _) in zip(net.labels, pool) if b == k)
        for k in range(count)
    ]
    return net, parts


@dataclass(frozen=True)
class ScreenCase:
    """One small network plus the arguments its five CLI calls use."""

    net: Net
    split: tuple[tuple[str, ...], tuple[str, ...]]
    rates: tuple[int, ...]
    point: tuple[int, ...]


def screen(rng: random.Random, count: int = SCREEN_NETWORKS) -> list[ScreenCase]:
    """Small networks of 3-12 reactions over 2-6 species.

    Every other network is built from reversible pairs and given
    detailed-balance rates at its point, so about half of the steady-state
    calls are affirmative; the others get random rates.
    """
    cases = []
    for k in range(count):
        species = rng.randint(2, 6)
        reversible = k % 2 == 0
        size = 2 * rng.randint(2, 6) if reversible else rng.randint(3, 12)
        reactions = random_reactions(rng, species, size, reversible)
        sp, rx = _compact(reactions, [f"S{i + 1}" for i in range(species)])
        net = _labelled(sp, rx)
        point = tuple(rng.randint(1, 3) for _ in sp)
        if reversible:
            rates = []
            for a in rx[0::2]:
                c = rng.randint(1, 3)
                # k_f x^a = k_b x^b with k_f = c x^b and k_b = c x^a.
                rates += [c * _monomial(point, a[1]), c * _monomial(point, a[0])]
        else:
            rates = [rng.randint(1, 5) for _ in rx]
        labels = list(net.labels)
        rng.shuffle(labels)
        cut = rng.randint(1, len(labels) - 1)
        cases.append(
            ScreenCase(net, (tuple(labels[:cut]), tuple(labels[cut:])), tuple(rates), point)
        )
    return cases


def _monomial(point: tuple[int, ...], c: Complex) -> int:
    out = 1
    for i, k in c:
        out *= point[i] ** k
    return out
