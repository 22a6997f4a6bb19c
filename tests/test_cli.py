"""Command-line interface: outputs, exit codes, and format consistency."""

import errno
import io
import json
import os
import random
import subprocess
import sys
import threading

import pytest

import crnkit
from crnkit import network_numbers, parse_file, subnetwork, to_dsl
from crnkit.cli import main
from crnkit.report import format_numbers_table, numbers_to_dict, render_text
from conftest import ALL_NETWORK_FILES, NETWORKS_DIR
from netgen import random_network, random_sparse_network

FEEDFORWARD = "R1: 0 -> X1\nR2: X1 -> X2\nR3: X2 + X3 -> X1 + X3\nR4: X2 -> X3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(networks_dir, name):
    return str(networks_dir / name)


def crn_child(*argv, unbuffered=False):
    """``python -m crnkit.cli`` argv and environment for the crnkit under test, installed or not.

    The child's stdout is buffered, as a console script's is, unless
    ``unbuffered`` sets ``PYTHONUNBUFFERED``.
    """
    src = os.path.dirname(os.path.dirname(crnkit.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return [sys.executable, "-m", "crnkit.cli", *argv], env


class TestDecompose:
    def test_yeast_parts(self, capsys, networks_dir):
        code, out, _ = run(capsys, "decompose", path(networks_dir, "yeast.crn"))
        assert code == 0
        assert out.splitlines() == [
            "P1: R1, R2, R4, R6, R8, R10, R11",
            "P2: R3, R5, R7, R9, R12, R13",
        ]

    def test_handel_parts(self, capsys, networks_dir):
        code, out, _ = run(capsys, "decompose", path(networks_dir, "handel.crn"))
        assert code == 0
        assert out.splitlines() == [
            "P1: R1, R2, R3, R4",
            "P2: R5, R6, R7, R8",
            "P3: R9, R10",
            "P4: R11, R12",
        ]

    def test_trivial_only(self, capsys, networks_dir):
        code, out, _ = run(capsys, "decompose", path(networks_dir, "sorribas.crn"))
        assert code == 3
        assert out.strip() == "trivial only"

    def test_contains_positive(self, capsys, networks_dir):
        code, out, _ = run(
            capsys, "decompose", path(networks_dir, "purine.crn"), "--contains", "R42"
        )
        assert code == 0
        assert out == "{R42} and its complement form an independent decomposition (18 = 1 + 17)\n"

    def test_contains_negative(self, capsys, networks_dir):
        code, out, _ = run(
            capsys, "decompose", path(networks_dir, "sorribas.crn"), "--contains", "R2"
        )
        assert code == 3
        assert out == (
            "{R2} and its complement do not form an independent decomposition (4 = 1 + 4)\n"
        )

    def test_contains_unknown_label(self, capsys, networks_dir):
        code, _, err = run(
            capsys, "decompose", path(networks_dir, "sorribas.crn"), "--contains", "R99"
        )
        assert code == 1
        assert "unknown reaction label" in err


    def test_contains_on_a_one_reaction_network(self, capsys, tmp_path):
        # {R1} has no complement to test against: it is the trivial
        # decomposition, the negative verdict `crn decompose FILE` gives too.
        f = tmp_path / "one.crn"
        f.write_text("R1: A -> B\n")
        code, out, err = run(capsys, "decompose", str(f), "--contains", "R1")
        assert code == 3
        assert out == "{R1} is the whole network (trivial decomposition)\n"
        assert err == ""
        assert run(capsys, "decompose", str(f)) == (3, "trivial only\n", "")

class TestCheck:
    def test_two_chains_independent(self, capsys, networks_dir):
        code, out, _ = run(
            capsys, "check", path(networks_dir, "two_chains.crn"), "--parts", "R1,R2|R3,R4"
        )
        assert code == 0
        assert "4 = 2 + 2 (independent)" in out
        assert "4 = 2 + 2 (incidence independent)" in out

    def test_feedforward_not_independent(self, capsys, tmp_path):
        f = tmp_path / "feedforward.crn"
        f.write_text(FEEDFORWARD)
        code, out, _ = run(capsys, "check", str(f), "--parts", "R1,R2|R3,R4")
        assert code == 3
        assert "not independent" in out

    def test_trivial_single_part(self, capsys, networks_dir):
        code, out, _ = run(
            capsys, "check", path(networks_dir, "baccam.crn"), "--parts", "R1,R2,R3,R4"
        )
        assert code == 0
        assert "3 = 3 (independent)" in out

    @pytest.mark.parametrize(
        "parts",
        ["R1,R2|R3", "R1,R2|R3,R4,R5", "R1,R1|R2,R3,R4", "R1,R2|R2,R3,R4", "|R1,R2"],
    )
    def test_bad_parts_exit_one(self, capsys, networks_dir, parts):
        code, _, err = run(
            capsys, "check", path(networks_dir, "baccam.crn"), "--parts", parts
        )
        assert code == 1
        assert err.startswith("error:")


    @pytest.mark.parametrize("file", ALL_NETWORK_FILES, ids=lambda f: f.name)
    def test_rank_lines_match_analyze(self, capsys, file):
        _, analyze_out, _ = run(capsys, "analyze", str(file))
        _, json_out, _ = run(capsys, "analyze", str(file), "--format", "json")
        parts = json.loads(json_out)["decomposition"]["parts"]
        code, check_out, _ = run(
            capsys, "check", str(file), "--parts", "|".join(",".join(p) for p in parts)
        )
        assert code == 0
        rank_lines = [
            line for line in analyze_out.splitlines() if "rank condition:" in line
        ]
        assert len(rank_lines) == 2
        assert check_out.splitlines() == rank_lines


class TestNumbers:
    def test_baccam_delayed_table(self, capsys, networks_dir):
        code, out, _ = run(
            capsys,
            "numbers",
            path(networks_dir, "baccam_delayed.crn"),
            "--parts",
            "R1,R2,R3|R4,R5",
        )
        assert code == 0
        lines = out.splitlines()
        header, rows = lines[0], lines[1:]
        assert header.split() == ["N", "N1", "N2"]
        values = [row.split()[-3:] for row in rows]
        assert values == [
            ["4", "4", "2"],
            ["7", "5", "4"],
            ["5", "3", "2"],
            ["5", "3", "2"],
            ["2", "2", "2"],
            ["4", "3", "1"],
            ["1", "0", "1"],
        ]

    def test_single_column_without_parts(self, capsys, networks_dir):
        code, out, _ = run(capsys, "numbers", path(networks_dir, "baccam.crn"))
        assert code == 0
        assert [row.split()[-1] for row in out.splitlines()[1:]] == [
            "3", "5", "4", "4", "1", "3", "1",
        ]

    def test_row_labels_are_fixed(self, capsys, networks_dir):
        _, out, _ = run(capsys, "numbers", path(networks_dir, "baccam.crn"))
        labels = [row.rsplit(None, 1)[0].strip() for row in out.splitlines()[1:]]
        assert labels == [
            "# species",
            "# complexes",
            "# reactions",
            "# irreversible reactions",
            "# linkage classes",
            "rank of network",
            "deficiency",
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_part_columns_are_the_subnetwork_numbers(self, capsys, tmp_path, seed):
        # Each column is read from one elimination of the network; it must
        # print what the public functions give for the part's subnetwork, on
        # the corpus and on small random networks split in two in random
        # label order, as the screen workload does.
        rng = random.Random(seed)
        sources = [p.read_text() for p in ALL_NETWORK_FILES]
        for _ in range(6):
            net = random_network(rng, max_species=6, max_reactions=12)
            sources.append("\n".join(map(net.reaction_string, range(net.reaction_count))))
        for k, source in enumerate(sources):
            f = tmp_path / f"n{k}.crn"
            f.write_text(source)
            net = parse_file(f)
            labels = list(net.labels)
            rng.shuffle(labels)
            cut = rng.randint(1, max(1, len(labels) - 1))
            split = [labels[:cut], labels[cut:]] if labels[cut:] else [labels]
            index = net.label_index()
            subs = [subnetwork(net, [index[x] for x in part]) for part in split]
            expected = format_numbers_table(
                [("N", numbers_to_dict(network_numbers(net)))]
                + [(f"N{j}", numbers_to_dict(network_numbers(sub))) for j, sub in enumerate(subs, 1)]
            )
            spec = "|".join(",".join(part) for part in split)
            code, out, err = run(capsys, "numbers", str(f), "--parts", spec)
            assert (code, out, err) == (0, expected + "\n", "")

    def test_empty_parts_is_a_usage_error(self, capsys, networks_dir):
        code, out, err = run(
            capsys, "numbers", path(networks_dir, "baccam.crn"), "--parts", ""
        )
        assert code == 1
        assert out == ""
        assert err == "error: empty part in --parts\n"


class TestSteadyState:
    def test_steady_point(self, capsys, networks_dir):
        code, out, _ = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            "R1=1,R2=1,R3=3,R4=1",
            "--point",
            "X1=2,X2=3,X3=3,X4=2",
        )
        assert code == 0
        assert "steady state" in out
        assert "f(x) = (X1: 0, X2: 0, X3: 0, X4: 0)" in out

    def test_not_steady_point(self, capsys, networks_dir):
        code, out, _ = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            "R1=1,R2=1,R3=3,R4=1",
            "--point",
            "X1=1,X2=1,X3=1,X4=1",
        )
        assert code == 3
        assert "not a steady state" in out

    @pytest.mark.parametrize("tol", ["inf", "1e400", "-inf", "nan"])  # 1e400 parses to inf
    def test_non_finite_tolerance_exits_one(self, capsys, networks_dir, tol):
        # At this point f(x) = (0, 0, 0, 2), which an infinite tolerance would call steady.
        code, out, err = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            "R1=1,R2=1,R3=3,R4=1",
            "--point",
            "X1=1,X2=1,X3=1,X4=1",
            f"--tol={tol}",  # one word, so argparse does not read -inf as an option
        )
        assert code == 1
        assert out == ""
        assert err == "error: tolerance must be finite and nonnegative\n"

    def test_small_fluxes_are_not_a_steady_state(self, capsys, tmp_path):
        # Every flux is below the tolerance, but f(x) is as large as the flux
        # itself; `analyze` proves this network has no positive steady state.
        f = tmp_path / "ab.crn"
        f.write_text("R1: A -> B\n")
        code, out, _ = run(capsys, "steady-state", str(f), "--rates", "R1=1", "--point", "A=1e-12,B=1")
        assert code == 3
        assert out == "f(x) = (A: -1e-12, B: 1e-12)\nnot a steady state\n"

    @pytest.mark.parametrize(
        "rates,point",
        [
            ("R1=1,R2=1,R3=3", "X1=2,X2=3,X3=3,X4=2"),      # missing rate
            ("R1=1,R2=1,R3=3,R4=1", "X1=2,X2=3,X3=3"),      # missing coordinate
            ("R1=1,R2=1,R3=3,R4=1", "X1=2,X2=3,X3=3,X4=0"), # nonpositive coordinate
            ("R1=1,R2=1,R3=0,R4=1", "X1=2,X2=3,X3=3,X4=2"), # nonpositive rate
            ("R1=1,R2=1,R3=3,R9=1", "X1=2,X2=3,X3=3,X4=2"), # unknown label
        ],
    )
    def test_bad_inputs_exit_one(self, capsys, networks_dir, rates, point):
        code, _, err = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            rates,
            "--point",
            point,
        )
        assert code == 1
        assert err.startswith("error:")


    @pytest.mark.parametrize(
        "rates,point,err",
        [
            ("R1=1,R2=1,R3=3", "X1=2,X2=3,X3=3,X4=2", "missing rate constants for: R4"),
            (
                "R1=1,R2=1,R3=3,R4=1,R9=1,R8=2",
                "X1=2,X2=3,X3=3,X4=2",
                "unknown reaction labels in --rates: R9, R8",
            ),
            ("R1=1,R2=1,R3=3,R4=1", "X1=2,X3=3", "missing coordinates for species: X2, X4"),
            ("R1=1,R2=1,R3=3,R4=1", "X1=2,X2=3,X3=3,X4=2,X9=1", "unknown species in --point: X9"),
            # Both specs are parsed first, then the rates are checked, then the point.
            ("R1=1,R2=1,R3=3", "X1=2,X2=3,X3=3,X4=2,X9=1", "missing rate constants for: R4"),
            ("R1=1,R2=1,R3=3,R4=1,R9=1", "X1=2", "unknown reaction labels in --rates: R9"),
            ("R1=1,R2=1,R3=3", "X1=2,X2=3,X3=3,X4=2,=1", "expected NAME=VALUE in --point, got '=1'"),
        ],
    )
    def test_name_errors(self, capsys, networks_dir, rates, point, err):
        code, out, stderr = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            rates,
            "--point",
            point,
        )
        assert code == 1
        assert out == ""
        assert stderr == f"error: {err}\n"

    @pytest.mark.parametrize(
        "rates,point,bad",
        [
            ("R1=1,R2=1,R3=3,R4=1,=3", "X1=2,X2=3,X3=3,X4=2", "--rates, got '=3'"),
            ("R1=1,R2=1,R3=3,R4=1", "X1=2,X2=3,X3=3,X4=2, = 1", "--point, got '= 1'"),
        ],
    )
    def test_empty_name_is_a_usage_error(self, capsys, networks_dir, rates, point, bad):
        code, out, err = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            rates,
            "--point",
            point,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: expected NAME=VALUE in {bad}\n"

    def test_readme_example_output(self, capsys, networks_dir):
        code, out, err = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            "R1=1,R2=1,R3=3,R4=1",
            "--point",
            "X1=2,X2=3,X3=3,X4=2",
        )
        assert (code, out, err) == (0, "f(x) = (X1: 0, X2: 0, X3: 0, X4: 0)\nsteady state\n", "")

    def test_the_fluxes_are_evaluated_once_per_call(self, capsys, networks_dir, monkeypatch):
        import crnkit.analysis
        import crnkit.cli

        calls = []
        fluxes = crnkit.analysis._fluxes

        def counted(*args):
            calls.append(args)
            return fluxes(*args)

        monkeypatch.setattr(crnkit.analysis, "_fluxes", counted)
        monkeypatch.setattr(crnkit.cli, "_fluxes", counted, raising=False)
        demo = path(networks_dir, "mass_action_demo.crn")
        for point in ("X1=2,X2=3,X3=3,X4=2", "X1=1,X2=1,X3=1,X4=1"):
            calls.clear()
            run(capsys, "steady-state", demo, "--rates", "R1=1,R2=1,R3=3,R4=1", "--point", point)
            assert len(calls) == 1

    @pytest.mark.parametrize(
        "point,tol,err",
        [
            ("X1=2,X2=3,X3=3,X4=0", "-1", "all concentrations must be strictly positive"),
            (
                "X1=2,X2=3,X3=1e300,X4=1e300",
                "nan",
                "the rates overflow the floating-point range at this point",
            ),
            ("X1=2,X2=3,X3=3,X4=2", "-1", "tolerance must be finite and nonnegative"),
        ],
    )
    def test_point_errors_come_before_the_tolerance(self, capsys, networks_dir, point, tol, err):
        code, out, stderr = run(
            capsys,
            "steady-state",
            path(networks_dir, "mass_action_demo.crn"),
            "--rates",
            "R1=1,R2=1,R3=3,R4=1",
            "--point",
            point,
            f"--tol={tol}",
        )
        assert (code, out, stderr) == (1, "", f"error: {err}\n")

    def test_output_agrees_with_sfrf_and_is_steady_state(self, capsys, tmp_path):
        # Small seeded networks, as in a batch screen: the one evaluation must
        # print what the two public functions compute.
        from crnkit import Kinetics, is_steady_state, parse_network, sfrf, to_dsl

        rng = random.Random(1414)
        for k in range(40):
            net = parse_network(to_dsl(random_network(rng)))
            rates = [rng.choice((1.0, 2.0, 0.5, 3.0)) for _ in net.labels]
            x = [rng.choice((1.0, 3.0, 0.25, 2.0)) for _ in net.species_names]
            f = tmp_path / f"net{k}.crn"
            f.write_text(to_dsl(net))
            code, out, err = run(
                capsys,
                "steady-state",
                str(f),
                "--rates",
                ",".join(f"{label}={v}" for label, v in zip(net.labels, rates)),
                "--point",
                ",".join(f"{name}={v}" for name, v in zip(net.species_names, x)),
            )
            kinetics = Kinetics.mass_action(net, rates)
            steady = is_steady_state(net, kinetics, x)
            f_x = sfrf(net, kinetics, x)
            values = ", ".join(f"{name}: {v + 0.0:.12g}" for name, v in zip(net.species_names, f_x))
            verdict = "steady state" if steady else "not a steady state"
            assert (code, out, err) == (0 if steady else 3, f"f(x) = ({values})\n{verdict}\n", "")


    @pytest.mark.parametrize(
        "rates,message",
        [
            ("R1=abc", "invalid number 'abc' for 'R1'"),
            ("R1=1,R1=2", "'R1' assigned twice in --rates"),
        ],
    )
    def test_a_bad_rate_assignment_exits_one(self, capsys, tmp_path, rates, message):
        f = tmp_path / "ab.crn"
        f.write_text("R1: A -> B\nR2: B -> A\n")
        code, out, err = run(capsys, "steady-state", str(f), "--rates", rates, "--point", "A=1,B=1")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_an_empty_rate_chunk_is_skipped(self, capsys, tmp_path):
        f = tmp_path / "ab.crn"
        f.write_text("R1: A -> B\nR2: B -> A\n")
        code, out, _ = run(
            capsys, "steady-state", str(f), "--rates", "R1=1,,R2=1", "--point", "A=1,B=1"
        )
        assert code == 0
        assert out == "f(x) = (A: 0, B: 0)\nsteady state\n"

class TestAnalyze:
    def test_text_output_is_deterministic(self, capsys, networks_dir):
        _, first, _ = run(capsys, "analyze", path(networks_dir, "yeast.crn"))
        _, second, _ = run(capsys, "analyze", path(networks_dir, "yeast.crn"))
        assert first == second

    def test_byte_identical_across_processes(self, networks_dir):
        # Different hash seeds must not leak into the output ordering.
        outputs = []
        for seed in ("0", "424242"):
            for fmt in ("text", "json"):
                argv, env = crn_child("analyze", path(networks_dir, "yeast.crn"), "--format", fmt)
                env["PYTHONHASHSEED"] = seed
                proc = subprocess.run(argv, capture_output=True, env=env, check=True)
                outputs.append((fmt, proc.stdout))
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]

    def test_json_round_trips_losslessly(self, capsys, networks_dir):
        from crnkit.report import AnalysisReport

        _, out, _ = run(
            capsys, "analyze", path(networks_dir, "baccam.crn"), "--format", "json"
        )
        data = json.loads(out)
        assert data["schema_version"] == "1"
        report = AnalysisReport.from_dict(data)
        assert report.to_dict() == data

    def test_text_and_json_values_agree(self, capsys, networks_dir):
        _, text_out, _ = run(capsys, "analyze", path(networks_dir, "baccam.crn"))
        _, json_out, _ = run(
            capsys, "analyze", path(networks_dir, "baccam.crn"), "--format", "json"
        )
        assert render_text(json.loads(json_out)) == text_out

    def test_trivial_network_report(self, capsys, networks_dir):
        code, out, _ = run(capsys, "analyze", path(networks_dir, "sorribas.crn"))
        assert code == 0
        assert "trivial only" in out

    def test_analyze_runs_on_the_whole_corpus(self, capsys, networks_dir):
        from crnkit.report import AnalysisReport

        for file in sorted(networks_dir.glob("*.crn")):
            code, text_out, _ = run(capsys, "analyze", str(file))
            assert code == 0
            code, json_out, _ = run(capsys, "analyze", str(file), "--format", "json")
            assert code == 0
            data = json.loads(json_out)
            assert render_text(data) == text_out
            assert AnalysisReport.from_dict(data).to_dict() == data

    def test_json_decomposition_fields(self, capsys, networks_dir):
        _, out, _ = run(
            capsys, "analyze", path(networks_dir, "yeast.crn"), "--format", "json"
        )
        data = json.loads(out)
        decomp = data["decomposition"]
        assert decomp["trivial"] is False
        assert decomp["parts"] == [
            ["R1", "R2", "R4", "R6", "R8", "R10", "R11"],
            ["R3", "R5", "R7", "R9", "R12", "R13"],
        ]
        assert decomp["independent"] is True
        assert data["coordinate_graph"]["vertices"] == ["R1", "R2", "R3", "R4", "R8"]


class TestNonFiniteKinetics:
    @pytest.mark.parametrize(
        "rates,point",
        [
            ("R1=1", "A=inf,B=1"),
            ("R1=1", "A=nan,B=1"),
            ("R1=inf", "A=1,B=1"),
            ("R1=1e400", "A=1,B=1"),  # parses to inf
        ],
    )
    def test_non_finite_values_are_usage_errors(self, capsys, tmp_path, rates, point):
        f = tmp_path / "ab.crn"
        f.write_text("A -> B\n")
        code, out, err = run(capsys, "steady-state", str(f), "--rates", rates, "--point", point)
        assert code == 1
        assert out == ""
        assert err.startswith("error: non-finite number")

    @pytest.mark.parametrize(
        "source,rates,point",
        [
            ("2A -> 0\n0 -> A\n", "R1=1,R2=1", "A=1e200"),  # x ** 2 raises
            ("A -> B\n", "R1=1e300", "A=1e300,B=1"),  # k * x is inf silently
            ("A -> 2B\n", "R1=1", "A=1e308,B=1"),  # 2 * flux is inf silently
        ],
    )
    def test_overflow_is_a_usage_error(self, capsys, tmp_path, source, rates, point):
        f = tmp_path / "net.crn"
        f.write_text(source)
        code, out, err = run(capsys, "steady-state", str(f), "--rates", rates, "--point", point)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflow" in err

    def test_large_finite_point_still_evaluates(self, capsys, tmp_path):
        f = tmp_path / "net.crn"
        f.write_text("2A -> 0\n0 -> A\n")
        code, out, _ = run(capsys, "steady-state", str(f), "--rates", "R1=1,R2=2", "--point", "A=1")
        assert code == 0
        assert out == "f(x) = (A: 0)\nsteady state\n"


class TestBadInputFiles:
    def test_non_utf8_file(self, capsys, tmp_path):
        f = tmp_path / "bad.crn"
        f.write_bytes(b"R1: A -> B\n\xff\xfe A -> C\n")
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 2:") and "UTF-8" in err

    def test_coefficient_beyond_int_conversion_limit(self, capsys, tmp_path):
        f = tmp_path / "big.crn"
        f.write_text("R1: A -> B\nR2: " + "9" * 5000 + " A -> C\n")
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 2:") and "5000 digits" in err
        assert len(err) < 200

    def test_crlf_line_endings_still_parse(self, capsys, tmp_path):
        f = tmp_path / "crlf.crn"
        f.write_bytes(b"R1: A -> B\r\nR2: B -> C\r\n")
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        assert out == "P1: R1\nP2: R2\n"


class TestErrorsAndExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "does_not_exist.crn")
        assert code == 1
        assert err.startswith("error:")

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.crn"
        f.write_text("")
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 1
        assert "no reactions" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        f = tmp_path / "bad.crn"
        f.write_text("R1: A -> B\nR2: ???\n")
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 1
        assert "line 2" in err

    def test_unknown_flag_exits_one(self, capsys, networks_dir):
        code, _, _ = run(capsys, "analyze", path(networks_dir, "baccam.crn"), "--nope")
        assert code == 1

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate", "x.crn")
        assert code == 1

    def test_internal_verification_failure_exits_two(self, capsys, networks_dir, monkeypatch):
        # The finder certifies its own output; hand the certificate a relation
        # with one corrupted coefficient, so the real certificate refuses it.
        import crnkit.decomposition
        from test_certificate import corrupt_coefficient

        real = crnkit.decomposition._certify
        monkeypatch.setattr(
            crnkit.decomposition,
            "_certify",
            lambda net, span, parts: real(net, *corrupt_coefficient(span, parts)),
        )
        code, out, err = run(capsys, "analyze", path(networks_dir, "baccam.crn"))
        assert code == 2
        assert out == ""
        assert err.startswith("internal error:")

    def test_decompose_verification_failure_exits_two(self, capsys, networks_dir, monkeypatch):
        # `decompose` reaches the finder through `find_independent_decomposition`;
        # its three parts are certified, so a refused certificate stops it.
        import crnkit.decomposition
        from test_certificate import corrupt_coefficient

        real = crnkit.decomposition._certify
        monkeypatch.setattr(
            crnkit.decomposition,
            "_certify",
            lambda net, span, parts: real(net, *corrupt_coefficient(span, parts)),
        )
        code, out, err = run(capsys, "decompose", path(networks_dir, "baccam.crn"))
        assert code == 2
        assert out == ""
        assert err.startswith("internal error:")


def failed_write(code):
    """The one stderr line of a failed write to stdout."""
    return f"error: [Errno {code}] {os.strerror(code)}\n"


@pytest.fixture(scope="module")
def big_crn(tmp_path_factory):
    """A seeded 1000-reaction network: both report formats far exceed a pipe's buffer."""
    f = tmp_path_factory.mktemp("big") / "big.crn"
    f.write_text(to_dsl(random_sparse_network(random.Random(1000), 1000, 500)))
    return str(f)


class TestWriteFailures:
    """A failed write to stdout exits 1 with one error line and no traceback."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_a_reader_that_closes_the_pipe_early(self, big_crn, fmt, unbuffered):
        # Unbuffered, Python's text layer alone would drop the rest of the one
        # short write of a text report to the closed pipe and exit 0.
        argv, env = crn_child("analyze", big_crn, "--format", fmt, unbuffered=unbuffered)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert len(head) == 100
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == failed_write(errno.EPIPE)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or not os.path.exists("/dev/full"),
        reason="/dev/full is a Linux device",
    )
    @pytest.mark.parametrize(
        "words",
        [
            "analyze PURINE",
            "analyze PURINE --format json",
            "analyze BIG",
            "analyze BIG --format json",
            # argparse prints help, then leaves through its own exit hook.
            "-h",
            "analyze -h",
        ],
    )
    def test_a_full_disk(self, big_crn, words):
        files = {"PURINE": str(NETWORKS_DIR / "purine.crn"), "BIG": big_crn}
        argv, env = crn_child(*(files.get(word, word) for word in words.split()))
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == failed_write(errno.ENOSPC)

    @pytest.mark.skipif(os.name != "posix", reason="closes the child's descriptor 1 before exec")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "words",
        [
            ("analyze", "purine.crn"),
            ("analyze", "purine.crn", "--format", "json"),
            ("decompose", "purine.crn"),
            ("check", "baccam.crn", "--parts", "R1,R2|R3,R4"),
            ("numbers", "purine.crn"),
            (
                "steady-state",
                "mass_action_demo.crn",
                "--rates",
                "R1=1,R2=1,R3=3,R4=1",
                "--point",
                "X1=2,X2=3,X3=3,X4=2",
            ),
            ("-h",),
            ("analyze", "-h"),
        ],
        ids=" ".join,
    )
    def test_a_closed_stdout(self, words, unbuffered):
        # With descriptor 1 closed, Python sets sys.stdout to None and print writes nothing.
        words = [str(NETWORKS_DIR / w) if w.endswith(".crn") else w for w in words]
        argv, env = crn_child(*words, unbuffered=unbuffered)
        proc = subprocess.run(
            argv, stderr=subprocess.PIPE, env=env, timeout=120, preexec_fn=lambda: os.close(1)
        )
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == failed_write(errno.EBADF)

    @pytest.mark.parametrize("words", [("numbers", "baccam.crn"), ("-h",)], ids=" ".join)
    def test_in_process_main_with_a_closed_stdout(self, capsys, monkeypatch, words):
        words = [str(NETWORKS_DIR / w) if w.endswith(".crn") else w for w in words]
        monkeypatch.setattr(sys, "stdout", None)
        assert main(words) == 1
        assert sys.stdout is None
        assert capsys.readouterr().err == failed_write(errno.EBADF)

    def test_in_process_main_keeps_the_callers_stdout(self, capsys, monkeypatch):
        # The table stays in the stream's buffer until main flushes it, and the
        # flush meets the closed pipe; main then points the stream's own
        # descriptor at os.devnull, so closing it flushes the rest there.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            code = main(["numbers", str(NETWORKS_DIR / "baccam.crn")])
            assert sys.stdout is stream
        assert code == 1
        assert capsys.readouterr().err == failed_write(errno.EPIPE)

    def test_in_process_main_keeps_an_unbuffered_stdout(self, capsys, monkeypatch, big_crn):
        # A text layer straight over the raw file, as with PYTHONUNBUFFERED.
        # The reader takes the first bytes of the report and closes the pipe,
        # which cuts main's one large write short.
        read_end, write_end = os.pipe()
        reader = threading.Thread(target=lambda: (os.read(read_end, 100), os.close(read_end)))
        reader.start()
        with io.TextIOWrapper(io.FileIO(write_end, "w"), write_through=True) as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            code = main(["analyze", big_crn])
            reader.join(timeout=60)
            assert not reader.is_alive()
            assert sys.stdout is stream and not stream.buffer.closed
        assert code == 1
        assert capsys.readouterr().err == failed_write(errno.EPIPE)

    def test_an_unreadable_file_keeps_its_message(self, capsys):
        code, out, err = run(capsys, "analyze", "does_not_exist.crn")
        assert (code, out) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: 'does_not_exist.crn'\n"
