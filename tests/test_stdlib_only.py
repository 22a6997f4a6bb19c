"""crnkit imports nothing at run time beyond the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crnkit"
MODULES = sorted(SRC.glob("*.py"))


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
