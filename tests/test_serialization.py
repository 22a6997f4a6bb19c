"""The report's record-to-dict mappings: one key per field, and lossless.

Each mapping between a report record and its JSON keys is written once; these
tests check that it covers every field of the record and that each
``*_from_dict`` inverts its ``*_to_dict`` on every corpus report.
"""

import json

import pytest

from crnkit import IndependenceReport, NetworkNumbers, build_report
from crnkit.report import (
    independence_from_dict,
    independence_to_dict,
    numbers_from_dict,
    numbers_to_dict,
    verdict_from_dict,
    verdict_to_dict,
)
from conftest import ALL_NETWORK_FILES, load


def test_numbers_dict_has_one_key_per_field():
    # Distinct values per field, so a key read into the wrong field shows.
    counts = [name for name in NetworkNumbers._fields if name != "weakly_reversible"]
    numbers = NetworkNumbers(
        **{name: k for k, name in enumerate(counts, 1)}, weakly_reversible=True
    )
    d = numbers_to_dict(numbers)
    assert len(d) == len(NetworkNumbers._fields)
    assert numbers_from_dict(d) == numbers


def test_independence_dict_keys_are_the_field_names():
    report = IndependenceReport(4, (2, 2), True, 5, (3, 2), True)
    d = independence_to_dict(report)
    assert list(d) == list(IndependenceReport._fields)
    assert d["part_ranks"] == [2, 2] and d["incidence_part_ranks"] == [3, 2]


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_from_dict_inverts_to_dict_on_the_corpus(path):
    report = build_report(load(path.name))
    for nums in (report.network, *report.part_numbers):
        d = numbers_to_dict(nums)
        assert json.loads(json.dumps(d)) == d
        assert numbers_from_dict(d) == nums
    d = independence_to_dict(report.independence)
    assert json.loads(json.dumps(d)) == d
    assert independence_from_dict(d) == report.independence
    verdicts = [*report.network_verdicts, *(v for pair in report.part_verdicts for v in pair)]
    for verdict in verdicts:
        assert verdict_from_dict(verdict_to_dict(verdict)) == verdict
