"""`report.json_dumps` against its oracle, ``json.dumps(d, indent=2)``.

The writer must give the same text byte for byte on every corpus report, on
seeded reports of up to 1000 reactions, and on a seeded fuzz of
report-shaped values with every kind of string `json` escapes.  A value no
report dict holds raises `TypeError`, where `json` would convert some of
them (an int subclass, a tuple, a non-string key).
"""

import enum
import json
import random

import pytest

from crnkit import build_report, json_dumps
from conftest import ALL_NETWORK_FILES, load
from netgen import random_sparse_network


def oracle(value):
    return json.dumps(value, indent=2)


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_corpus_reports_match_the_oracle(path):
    report = build_report(load(path.name)).to_dict()
    assert json_dumps(report) == oracle(report)


@pytest.mark.parametrize("r", [100, 300, 1000])
@pytest.mark.parametrize("share", [2, 4])
def test_seeded_large_reports_match_the_oracle(r, share):
    net = random_sparse_network(random.Random(r + share), r, r // share)
    report = build_report(net).to_dict()
    assert json_dumps(report) == oracle(report)


# Every character class `json` treats apart: quote, backslash, the control
# characters (short escapes and \u00XX), DEL, Latin-1, the BMP, U+2028 and
# U+2029, and astral-plane characters, written as surrogate pairs.
SPECIAL = '"\\\b\f\n\r\t\x00\x01\x1f\x7f\xe9\u20ac\u2028\u2029\U0001d11e\U0001f600'
ALPHABET = SPECIAL + "abcXYZ019_ -:,{}[]"


def fuzz_string(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))


def fuzz_value(rng, depth):
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return fuzz_string(rng)
    if kind == 1:
        return rng.choice((0, 1, -1, 7, -(2**70), 10**40, rng.randint(-1000, 1000)))
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(([], {}, [[]], [{}], {"": {}}, {"a": []}))
    if kind in (5, 6):
        return {fuzz_string(rng): fuzz_value(rng, depth - 1) for _ in range(rng.randint(0, 5))}
    return [fuzz_value(rng, depth - 1) for _ in range(rng.randint(0, 5))]


def fuzz_cases():
    rng = random.Random(2511)
    cases = [{c: [c, {c: None}] for c in SPECIAL}, [SPECIAL, [], {}, [[], {}], {"": [[]]}]]
    cases += [{"report": fuzz_value(rng, 4)} for _ in range(150)]
    cases += [fuzz_value(rng, 4) for _ in range(150)]
    return cases


FUZZ_CASES = fuzz_cases()


def test_the_fuzz_reaches_every_special_character():
    text = "".join(oracle(case) for case in FUZZ_CASES[2:])
    for c in SPECIAL:
        assert json.dumps(c)[1:-1] in text


def test_fuzzed_values_match_the_oracle():
    for k, case in enumerate(FUZZ_CASES):
        assert json_dumps(case) == oracle(case), f"case {k}"


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1, 2}, Level.LOW, {1: "a"}, {("a",): 1}],
    ids=["float", "tuple", "set", "IntEnum", "int key", "tuple key"],
)
def test_a_value_no_report_holds_raises_type_error(value):
    for wrapped in (value, [value], {"report": {"parts": [value]}}):
        with pytest.raises(TypeError):
            json_dumps(wrapped)
