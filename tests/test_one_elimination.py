"""crnkit makes its exact elimination in one function, `linalg._eliminate`,
the greedy scan: the reduction (`gcd`) is called there alone.
`linalg._Span.rank` hands a subset's restricted relation tags to it like any
other caller.  Only `_eliminate` chooses a column order: it counts the
columns and relabels each row before reducing it, so every caller, every rank
included, gets the same order.  Denominators are cleared only by
`linalg._sparse`, the library entry points' boundary.  The report describes
parts without `subnetwork`, and the finder checks its answers with the
integer certificate, never with `verify_decomposition`.  A part's complexes
are renumbered only by `analysis._local_edges`, a partition's structures are
built only by `analysis._structures`, which `verify_decomposition` reads as
the report does, and the CLI evaluates a steady state only through
`analysis._steady_state`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crnkit"


def call_sites(source: str, callee: str) -> list[str]:
    """Qualified names of the functions in ``source`` that call ``callee``."""
    found: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def module_calls(module: str, callee: str) -> list[str]:
    return call_sites((SRC / f"{module}.py").read_text(encoding="utf-8"), callee)


def test_rows_are_reduced_only_by_the_elimination():
    assert callers("gcd") == {"linalg._eliminate"}


def test_only_the_elimination_chooses_a_column_order():
    # The columns are counted in `_eliminate` alone.
    assert callers("Counter") == {"linalg._eliminate"}
    # Denominators are cleared at the library boundary alone: the kernel
    # takes integer pairs.
    assert callers("lcm") == {"linalg._sparse"}
    # Every other elimination in the package goes through `_eliminate`.
    assert callers("_eliminate") == {
        "analysis._Structure.__init__",
        "decomposition._certify",
        "decomposition._finest",
        "linalg._Span.rank",
        "linalg._eliminate_over",
        "linalg.rank_of_rows",
        "linalg.select_basis_rows",
    }
    assert callers("_eliminate_over") == {
        "decomposition.build_coordinate_graph",
        "linalg.coordinates",
    }


def test_the_guard_sees_a_call_anywhere():
    source = "class A:\n    def f(self, a, b):\n        return [math.gcd(a, b) for _ in ()]\n"
    assert call_sites(source, "gcd") == ["A.f"]
    assert call_sites("g = gcd(4, 6)\n", "gcd") == ["<module>"]


def test_reports_and_numbers_build_no_subnetwork():
    assert module_calls("report", "subnetwork") == []
    assert module_calls("cli", "subnetwork") == []


def test_the_finder_is_checked_by_the_certificate_only():
    assert "_finest" not in module_calls("decomposition", "verify_decomposition")
    assert module_calls("decomposition", "_certify") == ["_finest"]


def test_the_guard_sees_a_call_by_name_or_attribute():
    source = "def f(net):\n    return analysis.subnetwork(net, [0]), subnetwork(net, [1])\n"
    assert call_sites(source, "subnetwork") == ["f", "f"]
    assert call_sites(source, "verify_decomposition") == []


def callers(callee: str) -> set[str]:
    """``module.function`` for every function in the package that calls ``callee``."""
    return {
        f"{module.stem}.{name}"
        for module in sorted(SRC.glob("*.py"))
        for name in call_sites(module.read_text(encoding="utf-8"), callee)
    }


def test_a_parts_complexes_are_renumbered_in_one_place():
    assert callers("_local_edges") == {"analysis._Structure.part", "analysis.subnetwork"}


def test_a_partition_reaches_its_structures_by_one_path():
    assert callers("_structures") == {
        "report.build_report",
        "cli._cmd_numbers",
        "decomposition.verify_decomposition",
    }


def test_the_cli_reads_structures_and_steady_states_through_analysis():
    for callee in ("_Structure", "part", "_fluxes", "_formation_rate"):
        assert module_calls("cli", callee) == []
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "analysis"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {"_steady_state", "_structures"}
