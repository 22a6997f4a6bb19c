"""Timing spans around crnkit's public functions, for the traced run.

`Tracer.install` replaces every public function of crnkit (the names in
``crnkit.__all__``, plus ``cli.main``, ``AnalysisReport.to_dict`` and the
``json.dumps`` the report is serialised with) by a wrapper, in every crnkit
module namespace that binds it, so calls made inside crnkit are recorded
too and nested calls become parent and child spans.  Spans stay in memory
until `take` hands them over; the traced run writes the last pass's spans
to ``.perfbench-spans/<workload>.json`` when it ends.  `uninstall` puts the originals back; the
untraced run never installs anything.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

# A span: (parent index or -1, name, start, end, attributes or None).
Span = tuple

# The traced functions whose self time and calls are reported, by module.
LAYERS = (
    "parser.parse_file",
    "parser.parse_network",
    "model.molecularity_matrix",
    "model.incidence_matrix",
    "model.stoichiometric_matrix",
    "linalg.rref",
    "linalg.rank",
    "linalg.rank_of_rows",
    "linalg.select_basis_rows",
    "linalg.coordinates",
    "decomposition.build_coordinate_graph",
    "decomposition.connected_components",
    "decomposition.find_independent_decomposition",
    "decomposition.verify_decomposition",
    "analysis.subnetwork",
    "analysis.linkage_classes",
    "analysis.strong_linkage_classes",
    "analysis.terminal_strong_linkage_classes",
    "analysis.network_numbers",
    "analysis.deficiency_zero_check",
    "analysis.deficiency_one_check",
    "analysis.sfrf",
    "analysis.is_steady_state",
    "report.build_report",
    "report.to_dict",
    "report.render_text",
    "report.json_dumps",
    "cli.main",
)
BUILD_REPORT = "report.build_report"
# Functions whose calls per build_report are reported as exact counts.
PER_REPORT = (
    "model.stoichiometric_matrix",
    "analysis.network_numbers",
    "linalg.coordinates",
    "decomposition.verify_decomposition",
)
# The exact counts `summarize` reports.
COUNTS = (
    "linalg.rank",
    "linalg.nonbasis_rows",
    "linalg.max_coeff_bits",
    "decomposition.edges",
    "decomposition.parts",
) + tuple(f"report.{name.split('.')[1]}_calls" for name in PER_REPORT)


def _report_attrs(args: tuple, result: Any) -> dict[str, int]:
    return {
        "reactions": args[0].reaction_count,
        "rank": result.network.rank,
        "edges": len(result.graph_edges),
        "parts": len(result.parts),
    }


def _coordinate_attrs(args: tuple, result: Any) -> dict[str, int]:
    bits = [max(x.numerator.bit_length(), x.denominator.bit_length()) for x in result]
    return {"bits": max(bits, default=0)}


OBSERVERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    BUILD_REPORT: _report_attrs,
    "linalg.coordinates": _coordinate_attrs,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (parent, name, start, end, None)
            if observe is not None:
                spans[index] = (parent, name, start, end, observe(args, result))
            return result

        return traced

    def install(self, required: tuple[str, ...] = ()) -> None:
        """Wrap crnkit's public functions wherever crnkit binds them.

        Raises `LookupError` when a name in ``required`` is not a function
        crnkit binds, so a renamed layer fails the run instead of reading 0.
        """
        import crnkit
        import crnkit.cli
        from crnkit.report import AnalysisReport

        targets: dict[int, tuple[Callable, str]] = {}
        for public in crnkit.__all__:
            fn = getattr(crnkit, public)
            # A generator function returns before its work is done.
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                targets[id(fn)] = (fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{public}")
        targets[id(crnkit.cli.main)] = (crnkit.cli.main, "cli.main")
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in targets.items()}

        bound: set[str] = set()
        modules = [m for n, m in sys.modules.items() if n == "crnkit" or n.startswith("crnkit.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, wrappers[id(value)])
                    bound.add(hit[1])
        self._patch(AnalysisReport, "to_dict", self.wrap("report.to_dict", AnalysisReport.to_dict))
        self._patch(json, "dumps", self.wrap("report.json_dumps", json.dumps))
        bound.update(("report.to_dict", "report.json_dumps"))
        missing = sorted(set(required) - bound)
        if missing:
            self.uninstall()
            raise LookupError(f"no crnkit binding to trace for: {', '.join(missing)}")

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a new list."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is running")
        out = list(self.spans)
        self.spans.clear()
        return out


def rebase(spans: list[Span], offset: int) -> list[Span]:
    """Spans from another list, with parent indices shifted by ``offset``."""
    return [
        (parent + offset if parent >= 0 else -1, name, start, end, attrs)
        for parent, name, start, end, attrs in spans
    ]


def summarize(spans: list[Span]) -> dict[str, Any]:
    """Self time and calls per name, and the exact counts, for one pass.

    A span's self time is its duration minus its children's durations.
    The per-report call counts are those of the build_report span with the
    most reactions (the first such span on ties).
    """
    child = [0.0] * len(spans)
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    report_of = [-1] * len(spans)
    per_report: dict[int, Counter[str]] = defaultdict(Counter)
    for i, (parent, name, start, end, _) in enumerate(spans):
        self_time[name] += end - start - child[i]
        calls[name] += 1
        report_of[i] = i if name == BUILD_REPORT else (report_of[parent] if parent >= 0 else -1)
        if report_of[i] >= 0:
            per_report[report_of[i]][name] += 1
    reports = [(i, s[4]) for i, s in enumerate(spans) if s[1] == BUILD_REPORT]
    bits = [s[4]["bits"] for s in spans if s[1] == "linalg.coordinates"]
    largest = max(reports, key=lambda r: r[1]["reactions"], default=(-1, None))[0]
    values = [
        sum(a["rank"] for _, a in reports),
        sum(a["reactions"] - a["rank"] for _, a in reports),
        max(bits, default=0),
        sum(a["edges"] for _, a in reports),
        sum(a["parts"] for _, a in reports),
    ] + [per_report[largest][name] for name in PER_REPORT]
    counts = dict(zip(COUNTS, values))
    return {"self_s": dict(self_time), "calls": dict(calls), "counts": counts}
