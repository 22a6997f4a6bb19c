"""Library refusals: each bad input raises its own error type with its own message.

Each case breaks the rule that its message names, and no rule checked
before it, so the error names exactly that rule.
"""

import math
import re

import pytest

from crnkit import (
    AnalysisReport,
    BasisSelection,
    Complex,
    DimensionError,
    DuplicateReactionError,
    Kinetics,
    Network,
    NetworkError,
    PartitionError,
    RationalMatrix,
    Reaction,
    Species,
    build_coordinate_graph,
    coordinates,
    parse_network,
    sfrf,
    subnetwork,
    verify_decomposition,
)
from conftest import load

A = Species("A", 0)
TO_ZERO = [Complex({0: 1}), Complex()]  # A and the zero complex
NET = parse_network("R1: A -> B\nR2: B -> 0\n")
BACCAM = load("baccam.crn")

CASES = {
    "network-without-species": (
        lambda: Network([], [Complex()], [Reaction(0, 0)]),
        NetworkError, "network has no species",
    ),
    "duplicate-species-names": (
        lambda: Network([A, Species("A", 1)], TO_ZERO, [Reaction(0, 1)]),
        NetworkError, "species names must be unique",
    ),
    "species-index-not-its-position": (
        lambda: Network([Species("A", 1)], TO_ZERO, [Reaction(0, 1)]),
        NetworkError, "species 'A' has index 1 but position 0",
    ),
    "duplicate-complexes": (
        lambda: Network([A], [Complex({0: 1}), Complex({0: 1})], [Reaction(0, 1)]),
        NetworkError, "complexes must be unique within a network",
    ),
    "species-index-out-of-range": (
        lambda: Network([A], [Complex({0: 1}), Complex({1: 1})], [Reaction(0, 1)]),
        NetworkError, "complex references a species index out of range",
    ),
    "complex-index-out-of-range": (
        lambda: Network([A], TO_ZERO, [Reaction(0, 2)]),
        NetworkError, "reaction references a complex index out of range",
    ),
    "duplicate-reaction-pair": (
        lambda: Network([A], TO_ZERO, [Reaction(0, 1, "v1"), Reaction(0, 1, "v2")]),
        DuplicateReactionError, "duplicate reaction between complexes 0 and 1",
    ),
    "repeated-species-in-complex": (
        lambda: Complex([(0, 1), (0, 2)]),
        NetworkError, "duplicate species index in complex",
    ),
    "subnetwork-index-out-of-range": (
        lambda: subnetwork(NET, [0, 2]),
        NetworkError, "reaction index out of range in [0, 2]",
    ),
    "power-law-orders-of-the-wrong-width": (
        lambda: sfrf(NET, Kinetics.power_law([1, 1], [[1, 0, 0], [0, 1, 0]]), [1.0, 1.0]),
        DimensionError, "kinetic order rows do not match the species count",
    ),
    "power-law-nan-order": (
        lambda: Kinetics.power_law([1, 1, 1, 1], [[math.nan] * 3] * 4),
        ValueError, "kinetic orders must be finite, not nan",
    ),
    "power-law-infinite-order": (
        lambda: Kinetics.power_law([1, 1, 1, 1], [[1, 0, 0]] * 3 + [[1, -math.inf, 0]]),
        ValueError, "kinetic orders must be finite, not -inf",
    ),
    "non-finite-order-by-replace": (
        lambda: Kinetics.mass_action(BACCAM, [1, 1, 1, 1])._replace(
            orders=((1.0, 0.0, math.inf),) * 4
        ),
        ValueError, "kinetic orders must be finite, not inf",
    ),
    "power-law-order-too-large-for-a-float": (
        lambda: Kinetics.power_law([1], [[10**400]]),
        ValueError, "orders[0][0] does not fit a float",
    ),
    "mass-action-order-too-large-for-a-float": (
        lambda: Kinetics.mass_action(parse_network(f"R1: {10**400} A -> B\n"), [1]),
        ValueError, "orders[0][0] does not fit a float",
    ),
    "mass-action-rate-too-large-for-a-float": (
        lambda: Kinetics.mass_action(BACCAM, [10**400] * 4),
        ValueError, "rates[0] does not fit a float",
    ),
    "constructed-order-too-large-for-a-float": (
        lambda: Kinetics("power-law", (1.0,), ((10**400,),)),
        ValueError, "orders[0][0] does not fit a float",
    ),
    "constructed-rate-too-large-for-a-float": (
        lambda: Kinetics("power-law", (10**400,), ((1.0,),)),
        ValueError, "rates[0] does not fit a float",
    ),
    "rate-too-large-for-a-float-by-replace": (
        lambda: Kinetics.mass_action(BACCAM, [1, 1, 1, 1])._replace(
            rates=(1.0, 1.0, 10**400, 1.0)
        ),
        ValueError, "rates[2] does not fit a float",
    ),
    "coordinate-graph-basis-row-out-of-range": (
        lambda: build_coordinate_graph(BACCAM, BasisSelection((0, 9), 2)),
        ValueError, "basis row 9 is not a reaction index of the network",
    ),
    "coordinate-graph-negative-basis-row": (
        lambda: build_coordinate_graph(BACCAM, BasisSelection((-1, 0, 1), 3)),
        ValueError, "basis row -1 is not a reaction index of the network",
    ),
    "coordinate-graph-rank-not-the-row-count": (
        lambda: build_coordinate_graph(BACCAM, BasisSelection((0, 1, 2), 7)),
        ValueError, "basis rank 7 is not the number of basis rows, 3",
    ),
    "coordinate-graph-bool-rank": (
        lambda: build_coordinate_graph(BACCAM, BasisSelection((0,), True)),
        ValueError, "basis rank True is not the number of basis rows, 1",
    ),
    "coordinate-graph-bool-basis-row": (
        lambda: build_coordinate_graph(BACCAM, BasisSelection((True, 0, 2), 3)),
        ValueError, "basis row True is not a reaction index of the network",
    ),
    "partition-without-parts": (
        lambda: verify_decomposition(NET, []),
        PartitionError, "partition has no parts",
    ),
    "report-of-another-schema": (
        lambda: AnalysisReport.from_dict({"schema_version": "2"}),
        ValueError, "unsupported schema version '2'",
    ),
    "ragged-matrix": (
        lambda: RationalMatrix([[1, 2], [3]]),
        ValueError, "all rows must have the same length",
    ),
    "product-of-mismatched-shapes": (
        lambda: RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]]),
        ValueError, "cannot multiply 1x2 by 1x2",
    ),
    "coordinates-over-a-basis-of-another-length": (
        lambda: coordinates([1, 2], [[1, 0, 0]]),
        ValueError, "basis row length does not match vector length",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_the_refusal_names_its_rule(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is error
