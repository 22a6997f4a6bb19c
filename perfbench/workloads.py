"""The four benchmark workloads, as lists of timed items.

An item is one unit a user waits for: one network analysed, or one CLI
call.  Calling an item runs it once and returns its wall time and the
problems found in its output (an empty list when the output is right).
Checking happens after the clock stops.  A pass runs every item once, in
order, one after the other.

- ``corpus``: each bundled ``networks/*.crn`` through a fresh
  ``crn analyze --format json`` process, cold import included.
- ``synthetic``: a seeded ladder of indecomposable random networks,
  analysed in-process; the work sits in basis, coordinates and the
  coordinate graph.
- ``blocks``: seeded networks of disjoint random blocks with their
  reactions shuffled; per-part work (subnetworks, numbers, deficiency
  checks, verification) is a large share.
- ``screen``: a seeded batch of small networks, each sent through five
  in-process ``crn`` subcommands; parsing, argument handling, partition
  checks and kinetics dominate.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
CORPUS_EXPECTED = HERE / "corpus_expected.json"
# What the installed ``crn`` console script runs.
CLI_MAIN = "import sys; from crnkit.cli import main; sys.exit(main())"
SMOKE_CORPUS = ("two_chains.crn", "baccam.crn")
ITEM_TIMEOUT_S = 120

Item = Callable[["spans.Tracer | None"], tuple[float, list[str]]]


def child_env(root: Path) -> dict[str, str]:
    """Environment for a fresh interpreter that imports crnkit from ``root``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _failure(exc: BaseException) -> list[str]:
    return ["".join(traceback.format_exception_only(type(exc), exc)).strip()]


# --- corpus -----------------------------------------------------------------


def corpus(rng: random.Random, root: Path, work: Path, smoke: bool) -> list[Item]:
    expected = json.loads(CORPUS_EXPECTED.read_text())
    names = sorted(expected) if not smoke else list(SMOKE_CORPUS)
    rng.shuffle(names)
    env = child_env(root)
    return [_corpus_item(root / "networks" / name, expected[name], env, root) for name in names]


def _corpus_item(path: Path, expected: dict, env: dict[str, str], root: Path) -> Item:
    args = ["analyze", str(path), "--format", "json"]

    def run(tracer: spans.Tracer | None) -> tuple[float, list[str]]:
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), *args]
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=root, env=env, timeout=ITEM_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return perf_counter() - start, [f"{path.name}: no result in {ITEM_TIMEOUT_S} s"]
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            return elapsed, [f"{path.name}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
        try:
            report = json.loads(proc.stdout)
            problems = oracle.check_identities(report)
            if oracle.schema1_facts(report) != expected:
                problems.append("report differs from the values recorded in corpus_expected.json")
        except (ValueError, KeyError, TypeError) as exc:
            problems = _failure(exc)
        if tracer is not None:
            child = json.loads(proc.stderr.rstrip("\n").rsplit("\n", 1)[-1])
            tracer.spans.extend(spans.rebase(child, len(tracer.spans)))
        return elapsed, [f"{path.name}: {p}" for p in problems]

    return run


# --- in-process analysis (synthetic, blocks) ---------------------------------


def synthetic(rng: random.Random, root: Path, work: Path, smoke: bool) -> list[Item]:
    nets = gen.ladder(rng, (6, 8), 1) if smoke else gen.ladder(rng)
    return [_analysis_item(net, oracle.analyse(net)) for net in nets]


def blocks(rng: random.Random, root: Path, work: Path, smoke: bool) -> list[Item]:
    items = []
    for _ in range(1 if smoke else gen.BLOCK_NETWORKS):
        net, parts = gen.blocks(rng, count=3) if smoke else gen.blocks(rng)
        exact = oracle.analyse(net)
        if {frozenset(net.labels[k] for k in p) for p in exact.parts} != set(parts):
            raise AssertionError("oracle disagrees with the block construction")
        items.append(_analysis_item(net, exact))
    return items


def _analysis_item(net: gen.Net, exact: oracle.Analysis) -> Item:
    import crnkit  # looked up at call time, so the traced run sees its wrappers

    text = net.text()

    def run(tracer: spans.Tracer | None) -> tuple[float, list[str]]:
        start = perf_counter()
        try:
            report = crnkit.build_report(crnkit.parse_network(text)).to_dict()
            rendered = crnkit.render_text(report)
            dumped = json.dumps(report, indent=2)
        except Exception as exc:  # a crash is a failed item, not a crashed run
            return perf_counter() - start, _failure(exc)
        elapsed = perf_counter() - start
        problems = oracle.check_report(report, net, exact)
        rank = report["decomposition"]["network_rank"]
        if f"rank condition: {rank} = " not in rendered:
            problems.append("text rendering lacks the rank condition")
        if json.loads(dumped) != report:
            problems.append("JSON rendering does not round-trip")
        return elapsed, problems

    return run


# --- screen -----------------------------------------------------------------

TABLE_ROWS = {
    "# species": "species",
    "# complexes": "complexes",
    "# reactions": "reactions",
    "# irreversible reactions": "irreversible_reactions",
    "# linkage classes": "linkage_classes",
    "rank of network": "rank_of_network",
    "deficiency": "deficiency",
}


def screen(rng: random.Random, root: Path, work: Path, smoke: bool) -> list[Item]:
    items: list[Item] = []
    for k, case in enumerate(gen.screen(rng, count=4 if smoke else gen.SCREEN_NETWORKS)):
        path = work / f"screen{k + 1}.crn"
        path.write_text(case.net.text())
        items.extend(_screen_items(case, str(path)))
    return items


def _screen_items(case: gen.ScreenCase, path: str) -> list[Item]:
    net = case.net
    exact = oracle.analyse(net)
    index = {label: k for k, label in enumerate(net.labels)}
    split = [[index[x] for x in part] for part in case.split]
    whole, *halves = [oracle.numbers(net)] + [oracle.numbers(net, p) for p in split]
    parts_arg = "|".join(",".join(part) for part in case.split)

    def decompose(code: int, out: str) -> list[str]:
        if len(exact.parts) == 1:
            return _expect_code(code, 3) + _expect_line(out, "trivial only")
        want = {frozenset(net.labels[k] for k in p) for p in exact.parts}
        got = {frozenset(line.split(": ", 1)[1].split(", ")) for line in out.splitlines()}
        return _expect_code(code, 0) + ([] if got == want else [f"parts {got} != {want}"])

    def check(code: int, out: str) -> list[str]:
        ranks = [h["rank_of_network"] for h in halves]
        incidence = [h["complexes"] - h["linkage_classes"] for h in halves]
        ok = sum(ranks) == exact.rank
        inc_ok = sum(incidence) == whole["complexes"] - whole["linkage_classes"]
        return (
            _expect_code(code, 0 if ok else 3)
            + _expect_line(
                out,
                f"rank condition: {exact.rank} = {ranks[0]} + {ranks[1]} "
                f"({'independent' if ok else 'not independent'})",
            )
            + _expect_line(
                out,
                f"incidence rank condition: {whole['complexes'] - whole['linkage_classes']} = "
                f"{incidence[0]} + {incidence[1]} "
                f"({'incidence independent' if inc_ok else 'not incidence independent'})",
            )
        )

    def numbers(code: int, out: str) -> list[str]:
        got: dict[str, list[int]] = {}
        for line in out.splitlines()[1:]:
            words = line.split()
            label = " ".join(words[:-3])
            if label in TABLE_ROWS:
                got[TABLE_ROWS[label]] = [int(w) for w in words[-3:]]
        want = {key: [col[key] for col in (whole, *halves)] for key in TABLE_ROWS.values()}
        return _expect_code(code, 0) + ([] if got == want else [f"table {got} != {want}"])

    def steady_state(code: int, out: str) -> list[str]:
        steady = not any(oracle.formation_rate(net, case.rates, case.point))
        return _expect_code(code, 0 if steady else 3) + _expect_line(
            out, "steady state" if steady else "not a steady state"
        )

    def analyze(code: int, out: str) -> list[str]:
        return _expect_code(code, 0) + (oracle.check_report(json.loads(out), net, exact) if code == 0 else [])

    rates = ",".join(f"{label}={k}" for label, k in zip(net.labels, case.rates))
    point = ",".join(f"{name}={x}" for name, x in zip(net.species, case.point))
    calls = [
        (["decompose", path], decompose),
        (["check", path, "--parts", parts_arg], check),
        (["numbers", path, "--parts", parts_arg], numbers),
        (["steady-state", path, "--rates", rates, "--point", point], steady_state),
        (["analyze", path, "--format", "json"], analyze),
    ]
    return [_cli_item(argv, judge) for argv, judge in calls]


def _expect_code(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _expect_line(out: str, line: str) -> list[str]:
    return [] if line in out.splitlines() else [f"missing line {line!r}"]


def _cli_item(argv: list[str], judge: Callable[[int, str], list[str]]) -> Item:
    import crnkit.cli  # looked up at call time, so the traced run sees its wrappers

    def run(tracer: spans.Tracer | None) -> tuple[float, list[str]]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = crnkit.cli.main(argv)
            except Exception as exc:  # a traceback is a failed call
                return perf_counter() - start, _failure(exc)
            elapsed = perf_counter() - start
        try:
            problems = judge(code, out.getvalue())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = _failure(exc)
        return elapsed, [f"crn {argv[0]} {Path(argv[1]).name}: {p}" for p in problems]

    return run


WORKLOADS: dict[str, Callable[[random.Random, Path, Path, bool], list[Item]]] = {
    "corpus": corpus,
    "synthetic": synthetic,
    "blocks": blocks,
    "screen": screen,
}
