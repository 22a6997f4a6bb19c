"""The `crn` command end to end, in new processes from `conftest.crn`, two at a time:
reports byte for byte against ``tests/golden/``, usage errors line for line,
and the large network's report against the library's own answers.  Where the
installed `crn` script runs the crnkit under test, each call goes through it."""

import ast
import json
import random
import re
import sys
from pathlib import Path

import pytest

from crnkit import (
    build_coordinate_graph,
    cli,
    connected_components,
    incidence_matrix,
    molecularity_matrix,
    parse_file,
    rank_of_rows,
    select_basis_rows,
    stoichiometric_matrix,
    to_dsl,
)
from conftest import ALL_NETWORK_FILES, CRNKIT, INSTALLED, NETWORKS_DIR, outcomes, script_crnkit
from test_one_elimination import call_sites

TESTS = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS / "golden"
BACCAM = NETWORKS_DIR / "baccam.crn"
COMMANDS = ("analyze", "decompose", "check", "numbers", "steady-state")
USAGE_ERRORS = {
    "unrecognized arguments: extra": ["analyze", BACCAM, "extra"],
    "the following arguments are required: --parts": ["check", BACCAM],
    "unrecognized arguments: -x": ["-x", "analyze", BACCAM],
}


def is_json_tool_output(out):
    # What ``python -m json.tool --indent 2`` writes back for the same text.
    return out == (json.dumps(json.loads(out), indent=2) + "\n").encode()


@pytest.mark.parametrize("path", ALL_NETWORK_FILES, ids=lambda p: p.stem)
def test_analyze_prints_the_goldens(path, tmp_path):
    # The same file with CR LF line ends and a UTF-8 byte-order mark, read
    # by parse_file's one unbuffered read, gives the same reports.
    text = path.read_bytes().replace(b"\r\n", b"\n")
    crlf = tmp_path / f"{path.stem}.crlf.crn"
    crlf.write_bytes(b"\xef\xbb\xbf" + text.replace(b"\n", b"\r\n"))
    assert crlf.read_bytes().startswith(b"\xef\xbb\xbf") and b"\r\n" in crlf.read_bytes()
    calls = [("analyze", f, "--format", fmt) for f in (path, crlf) for fmt in ("text", "json")]
    runs = outcomes(calls)
    golden = [(GOLDEN_DIR / f"{path.stem}{suffix}").read_bytes() for suffix in (".txt", ".json")]
    assert runs == [(0, out, b"") for out in golden * 2]
    assert is_json_tool_output(runs[1][1])
    # Unbuffered, `crn` writes each byte to stdout's raw file itself: the same bytes.
    assert outcomes(calls[:2], env={"PYTHONUNBUFFERED": "1"}) == runs[:2]


def test_help_and_usage_errors_name_every_command():
    top, check_help, bogus, check, analyze, *errors = outcomes(
        [["-h"], ["-h", "check"], ["bogus"], ["check", "-h"], ["analyze"], *USAGE_ERRORS.values()]
    )
    for code, out, _ in (top, check_help):
        assert code == 0
        for name in COMMANDS:
            assert re.search(rf"^ +{name} +", out.decode(), re.MULTILINE), name
    assert bogus[0] == 1
    for name in COMMANDS:
        assert re.search(rf"\b{name}\b", bogus[2].decode()), name
    assert check[0] == 0 and check[1].startswith(b"usage: crn check ")
    assert analyze[0] == 1
    # The command's parser reports its own usage errors; an unknown option
    # before the command is the top-level parser's.  Each is one line.
    assert errors == [(1, b"", f"error: {message}\n".encode()) for message in USAGE_ERRORS]


def test_a_warning_fails_a_cold_process():
    # In development mode with warnings as errors (``-X dev -W error``), a
    # warning in a cold process, such as an argparse deprecation on a newer
    # Python, would show on stderr.
    runs = {
        ("analyze", BACCAM): 0,
        ("decompose", BACCAM): 0,
        ("check", BACCAM, "--parts", "R1,R2|R3,R4"): 0,
        ("numbers", BACCAM): 0,
        ("steady-state", BACCAM, "--rates", "R1=1,R2=1,R3=1,R4=1", "--point", "T=1,V=1,I=1"): 3,
        ("analyze", "-h"): 0,
    }
    got = outcomes(runs, env={"PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"})
    assert [(code, err) for code, _, err in got] == [(want, b"") for want in runs.values()]


def test_check_and_decompose_read_a_partitions_structures():
    runs = {
        ("check", BACCAM, "--parts", "R1,R2|R3,R4"): 0,
        ("decompose", BACCAM, "--contains", "R1"): 0,
        ("check", BACCAM, "--parts", "R1,R3|R2,R4"): 3,
        ("decompose", NETWORKS_DIR / "handel.crn", "--contains", "R1"): 3,
    }
    got = outcomes(runs)
    assert [code for code, _, _ in got] == list(runs.values())
    assert "rank condition: 3 = 2 + 1 (independent)" in got[0][1].decode().splitlines()


def test_to_dsl_writes_the_big_file_back_byte_for_byte(big_crn):
    assert to_dsl(parse_file(big_crn)).encode() == Path(big_crn).read_bytes()


def test_the_dense_builders_at_scale(big_crn):
    # The columns of N are the reaction vectors, those of the incidence
    # matrix -1 at the reactant and +1 at the product, and those of Y the
    # complexes' coefficient vectors.
    net = parse_file(big_crn)
    n = stoichiometric_matrix(net)
    for j in range(net.reaction_count):
        assert n.column(j) == net.reaction_vector(j), j
    incidence = incidence_matrix(net)
    for j, rx in enumerate(net.reactions):
        want = [0] * net.complex_count
        want[rx.reactant], want[rx.product] = -1, 1
        assert incidence.column(j) == tuple(want), j
    y = molecularity_matrix(net)
    for k, c in enumerate(net.complexes):
        assert y.column(k) == c.vector(net.species_count), k


def test_analyze_prints_the_librarys_coordinate_graph(big_crn):
    # The greedy basis of the reaction vectors, the graph over it and its
    # components.
    [(code, out, err)] = outcomes([["analyze", big_crn, "--format", "json"]])
    assert (code, err) == (0, b"")
    assert is_json_tool_output(out)
    net = parse_file(big_crn)
    graph = build_coordinate_graph(net, select_basis_rows(stoichiometric_matrix(net).transpose()))
    assert json.loads(out)["coordinate_graph"] == {
        "vertices": list(graph.vertex_labels),
        "edges": sorted(map(list, graph.edges)),
        "components": [list(c) for c in connected_components(graph)],
    }


def test_check_and_numbers_on_seeded_halves(big_crn):
    # Each printed rank is rank_of_rows of its reaction vectors, and check
    # exits 0 when the rank condition holds and 3 when it does not.
    net = parse_file(big_crn)
    order = list(range(net.reaction_count))
    random.Random(2000).shuffle(order)
    halves = [sorted(order[: len(order) // 2]), sorted(order[len(order) // 2 :])]
    total, rank1, rank2 = (
        rank_of_rows(net.reaction_vector(i) for i in rows) for rows in (order, *halves)
    )
    parts = "|".join(",".join(map(net.reaction_label, half)) for half in halves)
    check, numbers = outcomes([[cmd, big_crn, "--parts", parts] for cmd in ("check", "numbers")])
    verdict = "independent" if total == rank1 + rank2 else "not independent"
    assert check[0] == (0 if verdict == "independent" else 3)
    line = f"rank condition: {total} = {rank1} + {rank2} ({verdict})"
    assert line in check[1].decode().splitlines()
    assert numbers[0] == 0
    assert re.search(rf"^rank of network +{total} +{rank1} +{rank2}$", numbers[1].decode(), re.M)


def test_a_crn_on_the_path_runs_the_crnkit_under_test():
    # A `crn` script that imports another crnkit is an error, not a reason
    # to test `python -m crnkit.cli` in its place.
    assert INSTALLED is None or script_crnkit(INSTALLED) == CRNKIT, (
        f"{INSTALLED} imports {script_crnkit(INSTALLED)!r}, not the crnkit under test, {CRNKIT}"
    )


def test_the_probe_names_the_crnkit_a_script_imports(monkeypatch, tmp_path):
    other = tmp_path / "crnkit" / "__init__.py"
    other.parent.mkdir()
    other.write_text("")
    script = tmp_path / "crn"
    script.write_text(f"#!{sys.executable}\nfrom crnkit.cli import main\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    assert script_crnkit(script) == str(other.resolve()) != CRNKIT


def test_only_conftest_builds_a_crn_argv():
    # Neither ``-m crnkit.cli`` nor a looked-up `crn` script appears in any
    # other test module: every child goes through `conftest.crn`.
    for module in sorted(TESTS.glob("*.py")):
        if module.name == "conftest.py":
            continue
        source = module.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.List, ast.Tuple, ast.Call)):
                words = node.args if isinstance(node, ast.Call) else node.elts
                words = [getattr(w, "value", None) for w in words]
                assert ("-m", cli.__name__) not in zip(words, words[1:]), module.name
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not re.search(r"[\\/]crn(\.exe)?$", node.value), module.name
        assert call_sites(source, "which") == [], module.name
