"""Golden output: ``crn analyze`` on every bundled network, byte for byte.

The files under ``tests/golden/`` are the recorded text and JSON reports.
Any change to them is a change to crnkit's output and must be deliberate.
To re-record one after such a change::

    PYTHONPATH=src python -m crnkit.cli analyze networks/yeast.crn > tests/golden/yeast.txt
    PYTHONPATH=src python -m crnkit.cli analyze networks/yeast.crn --format json \\
        > tests/golden/yeast.json
"""

import json
from pathlib import Path

import pytest

from conftest import ALL_NETWORK_FILES
from crnkit.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_every_network_has_golden_files():
    names = sorted(p.stem for p in ALL_NETWORK_FILES)
    assert len(names) == 8
    for suffix in (".txt", ".json"):
        assert sorted(p.stem for p in GOLDEN_DIR.glob(f"*{suffix}")) == names


@pytest.mark.parametrize("fmt,suffix", [("text", ".txt"), ("json", ".json")])
@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_analyze_output_is_byte_identical(capsys, path, fmt, suffix):
    assert main(["analyze", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / (path.stem + suffix)).read_bytes()


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_analyze_json_is_written_without_json_dumps(capsys, monkeypatch, path):
    # The CLI prints `report.json_dumps`; `json.dumps(indent=2)` is only the tests' oracle.
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert main(["analyze", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / (path.stem + ".json")).read_bytes()
