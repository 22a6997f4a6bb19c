"""Record the corpus values the ``corpus`` workload checks reports against.

Usage, from the repository root: ``python3 perfbench/record_corpus.py``.
Runs ``crn analyze --format json`` in-process on every ``networks/*.crn``
and writes the schema-"1" facts of each report to
``perfbench/corpus_expected.json``.  Re-record only when a change to the
reported values is intended.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    from crnkit.cli import main

    facts = {}
    for path in sorted((ROOT / "networks").glob("*.crn")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(["analyze", str(path), "--format", "json"]) != 0:
                sys.exit(f"crn analyze failed on {path.name}")
        facts[path.name] = oracle.schema1_facts(json.loads(out.getvalue()))
    target = Path(__file__).resolve().parent / "corpus_expected.json"
    target.write_text(json.dumps(facts, indent=1, sort_keys=True) + "\n")
