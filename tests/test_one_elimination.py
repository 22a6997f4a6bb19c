"""crnkit drives its exact elimination kernel from one routine: an `_Echelon`
is constructed only by `linalg._eliminate`, the greedy scan, and by
`linalg._Span.rank`, which eliminates the relation tags of a subset."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crnkit"


def echelon_constructions(source: str) -> list[str]:
    """Qualified names of the functions in ``source`` that call `_Echelon`."""
    found: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_Echelon":
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_echelons_are_built_only_by_the_elimination_driver_and_span_rank():
    sites = {
        f"{module.stem}.{name}"
        for module in sorted(SRC.glob("*.py"))
        for name in echelon_constructions(module.read_text(encoding="utf-8"))
    }
    assert sites == {"linalg._eliminate", "linalg._Span.rank"}


def test_the_guard_sees_a_construction_anywhere():
    source = "class A:\n    def f(self):\n        return [linalg._Echelon() for _ in ()]\n"
    assert echelon_constructions(source) == ["A.f"]
    assert echelon_constructions("e = _Echelon()\n") == ["<module>"]
