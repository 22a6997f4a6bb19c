"""crnkit imports nothing at run time beyond the standard library and itself,
its syntax parses on the oldest Python that pyproject.toml admits, and the
CLI's import leaves out the standard modules that only slow a cold start."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crnkit"
MODULES = sorted(SRC.glob("*.py"))
# tomllib is not in every Python that pyproject.toml admits, so read it by regex.
OLDEST = re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
    re.MULTILINE,
)


def test_the_package_is_found():
    assert "__init__.py" in {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_imports_are_stdlib_or_crnkit(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            # A relative import must stay inside the flat crnkit package.
            assert node.level == 1, f"{module.name}:{node.lineno} leaves crnkit"
            continue
        else:
            continue
        for top in tops:
            assert top == "crnkit" or top in sys.stdlib_module_names, (
                f"{module.name}:{node.lineno} imports {top!r}, not in the standard library"
            )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_syntax_parses_on_the_oldest_supported_python(module):
    assert OLDEST, "pyproject.toml has no requires-python = \">=X.Y\""
    version = (int(OLDEST[1]), int(OLDEST[2]))
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module), feature_version=version)


# `dataclasses` imports `inspect`, which imports `ast`, `dis` and `tokenize`:
# about 10 ms of every cold `crn` process that crnkit's records do not need.
# `json` (the report takes its C string encoder from `_json`) and `fractions`
# (with `decimal` and `numbers` behind it) serve only library calls.
SLOW_IMPORTS = ("dataclasses", "inspect", "json", "fractions", "decimal", "numbers")


def fresh(probe: str):
    """The value that ``probe`` prints in a fresh interpreter, where modules
    that other tests imported do not count."""
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_the_cli_import_loads_no_slow_modules():
    # The probe imports nothing before its snapshot that the list could name.
    probe = (
        "import sys; before = set(sys.modules); import crnkit.cli; "
        "print(repr(sorted(set(sys.modules) - before)))"
    )
    loaded = set(fresh(probe))
    assert "crnkit.cli" in loaded
    slow = sorted(loaded & set(SLOW_IMPORTS))
    assert not slow, f"import crnkit.cli loaded {slow}"


def test_ranking_int_rows_builds_no_fraction():
    # `linalg` clears denominators only for a row that has an entry not an `int`.
    probe = (
        "import sys; from crnkit import rank_of_rows; "
        "r = rank_of_rows([[1, 2, 0], [2, 4, 0], [0, 1, -1], [1, 3, -1]]); "
        "print(repr((r, 'fractions' in sys.modules)))"
    )
    assert fresh(probe) == (2, False)
