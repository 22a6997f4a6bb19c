"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run every workload in its small ``--smoke`` form, traced and
untraced, and check the result format against ``BENCHMARK.json``, the
traced counts against known values, and the exact oracle against crnkit.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracle
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each smoke workload must reach when traced.
CALLED = {
    "corpus": {"parser.parse_file", "report.build_report", "report.json_dumps", "cli.main"},
    "synthetic": {"parser.parse_network", "linalg.coordinates", "report.render_text"},
    "blocks": {"analysis.subnetwork", "decomposition.verify_decomposition"},
    "screen": {"analysis.is_steady_state", "analysis.sfrf", "cli.main", "report.json_dumps"},
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_what_the_benchmark_emits():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == "1":
        for layer in CALLED[workload]:
            assert result["metrics"][f"{layer}_calls"]["value"] > 0, layer
            assert result["metrics"][f"{layer}_s"]["value"] > 0, layer
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_purine_per_report_counts():
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "analyze", str(ROOT / "networks" / "purine.crn")],
        cwd=ROOT, env=workloads.child_env(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    counts = spans.summarize(json.loads(proc.stderr.splitlines()[-1]))["counts"]
    assert [counts[f"report.{n}_calls"] for n in
            ("stoichiometric_matrix", "network_numbers", "coordinates", "verify_decomposition")
            ] == [14, 9, 72, 2]
    assert (counts["linalg.rank"], counts["decomposition.parts"]) == (18, 2)


def test_generators_repeat_for_a_seed():
    def draw(seed):
        rng = random.Random(seed)
        ladder = [n.text() for n in gen.ladder(rng, (6, 8))]
        net, _ = gen.blocks(rng, count=2)
        return ladder, net.text(), gen.screen(rng, count=3)

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_oracle_agrees_with_crnkit_on_the_corpus():
    sys.path.insert(0, str(ROOT / "src"))
    from crnkit import build_report, parse_file

    for path in sorted((ROOT / "networks").glob("*.crn")):
        net = parse_file(path)
        plain = gen.Net(
            net.species_names,
            tuple((net.complexes[r.reactant].terms, net.complexes[r.product].terms)
                  for r in net.reactions),
            net.labels,
        )
        report = build_report(net).to_dict()
        assert oracle.check_report(report, plain, oracle.analyse(plain)) == [], path.name


def test_screen_mixes_verdicts():
    cases = gen.screen(random.Random(1))
    steady = [not any(oracle.formation_rate(c.net, c.rates, c.point)) for c in cases]
    split = [len(oracle.analyse(c.net).parts) > 1 for c in cases]
    assert 0.3 < sum(steady) / len(cases) < 0.7
    assert 0.2 < sum(split) / len(cases) < 0.8
