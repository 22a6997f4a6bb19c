"""crnkit's records are NamedTuples that keep their field checks.

A record is an immutable tuple: it iterates, compares equal to a plain tuple
of the same values, and offers ``_fields``, ``_replace`` and ``_asdict``.
`Species`, `Kinetics` and `CoordinateGraph` check their fields however they
are built: by the constructor, by ``_make``, and by ``_replace``, which
builds the tuple through ``_make``.
"""

import copy
import math
import pickle

import pytest

from crnkit import (
    AnalysisReport,
    BasisSelection,
    CoordinateGraph,
    Decomposition,
    DeficiencyVerdict,
    DimensionError,
    IndependenceReport,
    Kinetics,
    NetworkError,
    NetworkNumbers,
    Reaction,
    Species,
)

RECORDS = [
    Species,
    Reaction,
    BasisSelection,
    NetworkNumbers,
    DeficiencyVerdict,
    Kinetics,
    CoordinateGraph,
    Decomposition,
    IndependenceReport,
    AnalysisReport,
]

SPECIES = Species("A", 0)
KINETICS = Kinetics("mass-action", (1.0, 2.0), ((1.0,), (0.0,)))
GRAPH = CoordinateGraph(2, frozenset({(0, 1)}), ("a", "b"))

# (valid record, fields to replace, exception type, message): each message is
# the one the record gave before it became a NamedTuple, except the species
# name type check, which came later.
POSITIVE = "rate constants must be finite and strictly positive"
WIDTHS = "kinetic order rows must have equal length"
INVALID = [
    (SPECIES, {"name": ""}, NetworkError, "species name must be nonempty"),
    (SPECIES, {"index": -1}, NetworkError, "species index must be nonnegative"),
    (SPECIES, {"index": 0.0}, NetworkError, "species index 0.0 is not an integer"),
    (SPECIES, {"index": False}, NetworkError, "species index False is not an integer"),
    (KINETICS, {"kind": "foo"}, ValueError, "unknown kinetics kind 'foo'"),
    (KINETICS, {"rates": ()}, ValueError, "at least one rate constant required"),
    (KINETICS, {"rates": (1.0, 0.0)}, ValueError, POSITIVE),
    (KINETICS, {"rates": (1.0, math.inf)}, ValueError, POSITIVE),
    (KINETICS, {"rates": (math.nan, 1.0)}, ValueError, POSITIVE),
    (KINETICS, {"orders": ((1.0,),)}, DimensionError, "one kinetic order row per reaction required"),
    (KINETICS, {"orders": ((1.0,), (0.0, 1.0))}, DimensionError, WIDTHS),
    (GRAPH, {"edges": frozenset({(1, 1)})}, ValueError, "invalid edge (1, 1)"),
    (GRAPH, {"edges": frozenset({(1, 0)})}, ValueError, "invalid edge (1, 0)"),
    (GRAPH, {"edges": frozenset({(0, 5)})}, ValueError, "invalid edge (0, 5)"),
    (GRAPH, {"vertex_labels": ("a",)}, ValueError, "one label per vertex required"),
    (SPECIES, {"name": 5}, NetworkError, "species name 5 is not a string"),
]
INVALID_IDS = [f"{type(r).__name__}-{next(iter(kw))}-{k}" for k, (r, kw, _, _) in enumerate(INVALID)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_slotted_named_tuples(record):
    assert issubclass(record, tuple)
    assert record._fields and all(isinstance(name, str) for name in record._fields)
    assert "__dict__" not in dir(record)


def test_a_record_is_a_tuple_of_its_values():
    assert SPECIES == ("A", 0) and tuple(SPECIES) == ("A", 0)
    name, index = SPECIES
    assert (name, index) == (SPECIES.name, SPECIES.index) == ("A", 0)
    assert hash(SPECIES) == hash(("A", 0))
    assert SPECIES._asdict() == {"name": "A", "index": 0}
    assert Species._fields == ("name", "index")
    assert Reaction._fields == ("reactant", "product", "label")


def test_defaults_and_repr_are_kept():
    assert Reaction(0, 1) == Reaction(0, 1, None)
    assert repr(Reaction(0, 1)) == "Reaction(reactant=0, product=1, label=None)"
    assert repr(SPECIES) == "Species(name='A', index=0)"
    assert repr(GRAPH) == (
        "CoordinateGraph(vertex_count=2, edges=frozenset({(0, 1)}), vertex_labels=('a', 'b'))"
    )


def test_records_are_immutable():
    with pytest.raises(AttributeError):
        SPECIES.name = "B"
    with pytest.raises(AttributeError):
        KINETICS.rates = (3.0, 4.0)


@pytest.mark.parametrize("record", [SPECIES, KINETICS, GRAPH], ids=lambda r: type(r).__name__)
def test_valid_records_survive_every_way_of_building_them(record):
    cls = type(record)
    assert cls(*record) == record
    assert cls(**record._asdict()) == record
    assert cls._make(record) == record
    assert record._replace() == record
    assert type(record._replace()) is cls
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize("record,changes,error,message", INVALID, ids=INVALID_IDS)
def test_checks_run_on_construction(record, changes, error, message):
    values = {**record._asdict(), **changes}
    with pytest.raises(error) as exc:
        type(record)(**values)
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        type(record)(*values.values())
    assert str(exc.value) == message


@pytest.mark.parametrize("record,changes,error,message", INVALID, ids=INVALID_IDS)
def test_checks_run_through_replace_and_make(record, changes, error, message):
    with pytest.raises(error) as exc:
        record._replace(**changes)
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        type(record)._make({**record._asdict(), **changes}.values())
    assert str(exc.value) == message
    if hasattr(copy, "replace"):  # Python 3.13 and later
        with pytest.raises(error) as exc:
            copy.replace(record, **changes)
        assert str(exc.value) == message

