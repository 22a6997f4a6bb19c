"""Seeded fuzzing of the DSL parser and the CLI's exit-code contract.

Corpus files are mutated line by line (arrows, coefficients, labels, ';',
'#' and non-ASCII text inserted or deleted).  The parser may reject a
mutant only with a `NetworkError`, and every subcommand must answer it
with exit code 0, 1 or 3, never with an exception.
"""

import random

import pytest

from conftest import ALL_NETWORK_FILES
from crnkit import NetworkError, parse_network
from crnkit.cli import main

TOKENS = (
    "->", "<->", "-", ">", "<", "<-", "+", " + ", "0", "2", "2 ", "00", "-1",
    "9" * 5000, "R1:", "R2: ", ":", "::", "lab_1:", ";", "; note", "#", "# c",
    "X1", "2X1", "_", " ", "  ", "\t",
    "\u00e9", "\u03a9", "\u03bb", "\u0663", "\u00bd", "\u00a0", "\u200b",
)
SEED = 20240601
PARSE_CASES = 1200
CLI_CASES = 150


def mutate(rng, text):
    lines = text.splitlines() or [""]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        line = lines[k]
        op = rng.randrange(5)
        if op <= 1:
            at = rng.randint(0, len(line))
            lines[k] = line[:at] + rng.choice(TOKENS) + line[at:]
        elif op == 2:
            at = rng.randint(0, len(line))
            lines[k] = line[:at] + line[at + rng.randint(1, 4):]
        elif op == 3:
            lines.insert(rng.randint(0, len(lines)), line)
        elif len(lines) > 1:
            del lines[k]
    return "\n".join(lines) + "\n"


def corpus_texts():
    return [p.read_text(encoding="utf-8") for p in ALL_NETWORK_FILES]


def test_parser_raises_only_network_errors():
    rng = random.Random(SEED)
    texts = corpus_texts()
    parsed = 0
    for _ in range(PARSE_CASES):
        text = mutate(rng, rng.choice(texts))
        try:
            parse_network(text)
        except NetworkError:
            continue
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__}: {exc} on input:\n{text}")
        parsed += 1
    # Both outcomes must be exercised, or the mutations are too mild or too harsh.
    assert 0 < parsed < PARSE_CASES


def cli_arguments(rng, text):
    """Arguments for every subcommand, built from the mutant where it parses."""
    try:
        net = parse_network(text)
        labels, species = list(net.labels), list(net.species_names)
    except NetworkError:
        labels, species = ["R1", "R2"], ["X1"]
    rng.shuffle(labels)
    cut = rng.randint(1, max(1, len(labels) - 1))
    parts = ",".join(labels[:cut]) + ("|" + ",".join(labels[cut:]) if labels[cut:] else "")
    rates = ",".join(f"{label}={rng.choice((1, 2, 0.5))}" for label in labels)
    point = ",".join(f"{name}={rng.choice((1, 3, 0.25))}" for name in species)
    return [
        ["analyze", "--format", rng.choice(("text", "json"))],
        ["decompose"] + (["--contains", labels[0]] if rng.random() < 0.3 else []),
        ["check", "--parts", parts],
        ["numbers"] + (["--parts", parts] if rng.random() < 0.5 else []),
        ["steady-state", "--rates", rates, "--point", point],
    ]


def test_cli_exit_codes_stay_in_contract(tmp_path, capsys):
    rng = random.Random(SEED + 1)
    texts = corpus_texts()
    path = tmp_path / "mutant.crn"
    codes = set()
    for _ in range(CLI_CASES):
        text = mutate(rng, rng.choice(texts))
        path.write_text(text, encoding="utf-8")
        for command, *options in cli_arguments(rng, text):
            argv = [command, str(path), *options]
            try:
                code = main(argv)
            except Exception as exc:  # pragma: no cover - the failure report
                pytest.fail(f"{type(exc).__name__}: {exc} from crn {argv} on:\n{text}")
            capsys.readouterr()
            assert code in (0, 1, 3), f"exit {code} from crn {argv} on:\n{text}"
            codes.add(code)
    assert codes == {0, 1, 3}
