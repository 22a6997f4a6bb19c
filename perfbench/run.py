"""crnkit benchmark: time to a verdict, end to end and per module.

Usage, from the repository root (crnkit is imported from ``src/``)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

or, for every workload::

    for w in corpus synthetic blocks screen; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Workloads are ``corpus``, ``synthetic``, ``blocks`` and ``screen`` (see
``workloads.py``).  One client runs items in a closed loop: each starts
after the previous one ends.  Passes over all items repeat until
``--seconds`` of measuring have passed.  Every item's output is checked
against exact answers; an item that fails, crashes or disagrees counts as
failed.

End-to-end metrics: ``setup_s``, the median time a fresh interpreter takes
to import ``crnkit.cli``; ``pass_s``, the median time of one pass;
``item_p50_ms`` and ``item_p90_ms`` over every item of every pass; and
``peak_rss_mb`` of the process that ran the items.  Times are wall times
converted to a reference machine speed, which keeps runs on a shared host
comparable (``clock.py``); raw wall times are printed alongside.

With ``--trace 0`` nothing is instrumented and the result holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate; traced passes wrap crnkit's public functions (``spans.py``) and
the result holds per-module self times and call counts per pass, exact
counts, and the tracing overhead.  ``--smoke`` shrinks every workload so
the benchmark's own tests run in seconds.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads
from clock import COMPUTE, SPAWN, Clock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 9
MIN_PASSES = 2  # per kind of pass: untraced, and traced in a traced run
MAX_PROBLEMS_SHOWN = 10
SPANS_DIR = ROOT / ".perfbench-spans"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.LAYERS:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    units["cli.import_s"] = "s"
    for name in spans.COUNTS:
        units[name] = "bits" if name.endswith("_bits") else "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Pass:
    item_s: list[float] = field(default_factory=list)  # wall times
    ref_item_s: list[float] = field(default_factory=list)  # at reference speed
    windows: list[tuple[float, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def convert(self, clock: Clock) -> None:
        self.ref_item_s = [clock.convert(t, *w) for t, w in zip(self.item_s, self.windows)]

    @property
    def window(self) -> tuple[float, float]:
        return self.windows[0][0], self.windows[-1][1]


def run_pass(items: list[workloads.Item], tracer: spans.Tracer | None, clock: Clock) -> Pass:
    """One pass over the items, with reference slices between them."""
    result = Pass()
    for item in items:
        start = perf_counter()
        elapsed, problems = item(tracer)
        result.windows.append((start, perf_counter()))
        result.item_s.append(elapsed)
        result.problems.extend(problems)
        result.failed += bool(problems)
        clock.keep_up(elapsed)
    return result


def time_interpreter(code: str, env: dict[str, str], reps: int, clock: Clock) -> list[float]:
    """Times of fresh interpreters running ``code``, at reference speed."""
    measured = []
    for _ in range(reps):
        clock.slice()
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            capture_output=True, timeout=60,
        )
        end = perf_counter()
        measured.append((end - start, start, end))
    clock.slice()
    return [clock.convert(*m) for m in measured]


def environment(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crnkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def another_round(done: int, start: float, args: argparse.Namespace) -> bool:
    """Whether another round of passes is due: the minimum is not reached, or
    an average round would end no more than half a round after the deadline."""
    if done < (1 if args.smoke else MIN_PASSES):
        return True
    elapsed = perf_counter() - start
    return elapsed + elapsed / done / 2 <= args.seconds


def untraced(args, items, clock, setup_s) -> tuple[dict, list[Pass]]:
    passes: list[Pass] = []
    start = perf_counter()
    while another_round(len(passes), start, args):
        passes.append(run_pass(items, None, clock))
    clock.slice()
    for p in passes:
        p.convert(clock)
    item_ms = [t * 1000 for p in passes for t in p.ref_item_s]
    who = resource.RUSAGE_CHILDREN if args.workload == "corpus" else resource.RUSAGE_SELF
    wall_pass = statistics.median(sum(p.item_s) for p in passes)
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(sum(p.ref_item_s) for p in passes),
        "item_p50_ms": statistics.median(item_ms),
        "item_p90_ms": p90(item_ms),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    print(f"pass_s        {metrics['pass_s']:.4f} s   median of {len(passes)} passes "
          f"(wall {wall_pass:.4f} s)")
    print(f"item_p50_ms   {metrics['item_p50_ms']:.3f} ms  of {len(item_ms)} items")
    print(f"item_p90_ms   {metrics['item_p90_ms']:.3f} ms  of {len(item_ms)} items")
    print(f"peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB")
    return metrics, passes


def traced(args, items, clock, import_s) -> tuple[dict, list[Pass]]:
    tracer = spans.Tracer()
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    summaries: list[dict] = []
    last: list[spans.Span] = []
    start = perf_counter()
    while another_round(len(plain), start, args):
        plain.append(run_pass(items, None, clock))
        tracer.install(spans.LAYERS)
        try:
            traced_passes.append(run_pass(items, tracer, clock))
        finally:
            tracer.uninstall()
        last = tracer.take()
        summaries.append(spans.summarize(last))
    clock.slice()
    for p in plain + traced_passes:
        p.convert(clock)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"{args.workload}.json"
    spans_file.write_text(json.dumps(last))

    slowness = [clock.slowness(*p.window) for p in traced_passes]
    metrics = {}
    for name in spans.LAYERS:
        metrics[f"{name}_s"] = statistics.median(
            s["self_s"].get(name, 0.0) / k for s, k in zip(summaries, slowness)
        )
        metrics[f"{name}_calls"] = summaries[0]["calls"].get(name, 0)
    metrics["cli.import_s"] = import_s
    metrics.update(summaries[0]["counts"])
    traced_s = statistics.median(sum(p.ref_item_s) for p in traced_passes)
    metrics["trace.overhead_ratio"] = traced_s / statistics.median(sum(p.ref_item_s) for p in plain)

    print(f"traced pass_s {traced_s:.4f} s, median of {len(traced_passes)} traced passes")
    print(f"spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    print(f"{'layer':46} {'self s/pass':>12} {'calls/pass':>10} {'share':>7}")
    for name in sorted(spans.LAYERS, key=lambda n: -metrics[f"{n}_s"]):
        share = metrics[f"{name}_s"] / traced_s
        print(f"{name:46} {metrics[f'{name}_s']:12.5f} {metrics[f'{name}_calls']:10d} {share:7.1%}")
    for name in ("cli.import_s", *spans.COUNTS, "trace.overhead_ratio"):
        print(f"{name:46} {metrics[name]}")
    return metrics, plain + traced_passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    src = ROOT / "src" / "crnkit"
    if not (src / "__init__.py").is_file() or not (ROOT / "networks").is_dir():
        print(f"error: no crnkit source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import crnkit

    if Path(crnkit.__file__).resolve().parent != src.resolve():
        print(f"error: imported crnkit from {crnkit.__file__}, not {src}", file=sys.stderr)
        return 2

    env = workloads.child_env(ROOT)
    print("# environment " + json.dumps(environment(args)))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        items = workloads.WORKLOADS[args.workload](
            random.Random(args.seed), ROOT, Path(work), args.smoke
        )
        spawn = Clock(SPAWN)
        clock = Clock(SPAWN, COMPUTE) if args.workload == "corpus" else Clock(COMPUTE)
        reps = 2 if args.smoke else SETUP_REPS
        time_interpreter("import crnkit.cli", env, 1, spawn)  # writes the bytecode cache
        setup_s = statistics.median(time_interpreter("import crnkit.cli", env, reps, spawn))
        print(f"setup_s       {setup_s:.4f} s   median of {reps} fresh imports")
        if args.trace:
            bare_s = statistics.median(time_interpreter("pass", env, reps, spawn))
            metrics, passes = traced(args, items, clock, setup_s - bare_s)
            units = per_layer_units()
        else:
            metrics, passes = untraced(args, items, clock, setup_s)
            units = END_TO_END_UNITS
    print(f"setup: {spawn.describe()}; passes: {clock.describe()}")
    print("times above are converted to reference speed, see clock.py")

    attempted = sum(len(p.item_s) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"failed_ratio  {failed / attempted:.4f}   {failed} of {attempted} items failed")
    problems = [x for p in passes for x in p.problems]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
