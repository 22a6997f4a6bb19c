"""Analysis report: one structure holding everything the CLI prints.

The report is built once from a network, serializes to a stable dict (the
JSON schema, version "1"), deserializes losslessly, and renders to text from
the same values, so the two output formats can never disagree.  `json_dumps`
writes the dict as ``json.dumps(d, indent=2)`` does, without the pure-Python
encoder that ``indent`` selects in `json`.  Its string encoder is the C
function that `json.encoder` re-exports, taken from `_json` itself, so the
`json` package is never imported.
"""

from __future__ import annotations

from _json import encode_basestring_ascii
from typing import Any, Mapping, NamedTuple

from .analysis import DeficiencyVerdict, NetworkNumbers, _structures
from .decomposition import IndependenceReport, _coordinate_edges, _finest, _independence
from .model import Network

SCHEMA_VERSION = "1"

# (display row label, dict key, attribute) for the numbers table.
NUMBERS_ROWS: tuple[tuple[str, str, str], ...] = (
    ("# species", "species", "species_count"),
    ("# complexes", "complexes", "complex_count"),
    ("# reactions", "reactions", "reaction_count"),
    ("# irreversible reactions", "irreversible_reactions", "irreversible_reaction_count"),
    ("# linkage classes", "linkage_classes", "linkage_class_count"),
    ("rank of network", "rank_of_network", "rank"),
    ("deficiency", "deficiency", "deficiency"),
)

# (dict key, attribute) of every network number, in JSON key order.
_NUMBER_KEYS: tuple[tuple[str, str], ...] = (
    *((key, attr) for _, key, attr in NUMBERS_ROWS),
    ("strong_linkage_classes", "strong_linkage_class_count"),
    ("terminal_strong_linkage_classes", "terminal_strong_linkage_class_count"),
    ("weakly_reversible", "weakly_reversible"),
)


def numbers_to_dict(nn: NetworkNumbers) -> dict[str, Any]:
    return {key: getattr(nn, attr) for key, attr in _NUMBER_KEYS}


def numbers_from_dict(d: Mapping[str, Any]) -> NetworkNumbers:
    return NetworkNumbers(**{attr: d[key] for key, attr in _NUMBER_KEYS})


def verdict_to_dict(v: DeficiencyVerdict) -> dict[str, Any]:
    return {
        "theorem": v.theorem,
        "applicable": v.applicable,
        "conditions": [{"name": name, "holds": holds} for name, holds in v.conditions],
        "conclusion": v.conclusion,
        "statement": v.statement,
    }


def verdict_from_dict(d: Mapping[str, Any]) -> DeficiencyVerdict:
    return DeficiencyVerdict(
        theorem=d["theorem"],
        applicable=d["applicable"],
        conditions=tuple((c["name"], c["holds"]) for c in d["conditions"]),
        conclusion=d["conclusion"],
        statement=d["statement"],
    )


def independence_to_dict(rep: IndependenceReport) -> dict[str, Any]:
    # The keys are the field names; the rank tuples become JSON lists.
    return {name: list(v) if isinstance(v, tuple) else v for name, v in zip(rep._fields, rep)}


def independence_from_dict(d: Mapping[str, Any]) -> IndependenceReport:
    values = (d[name] for name in IndependenceReport._fields)
    return IndependenceReport._make(tuple(v) if isinstance(v, list) else v for v in values)


class AnalysisReport(NamedTuple):
    """Everything the ``analyze`` command reports, in a stable order.

    When the decomposition is trivial, ``parts`` holds the single whole-set
    part and ``trivial`` is True.
    """

    network: NetworkNumbers
    trivial: bool
    parts: tuple[tuple[str, ...], ...]
    part_numbers: tuple[NetworkNumbers, ...]
    independence: IndependenceReport
    graph_vertices: tuple[str, ...]
    graph_edges: tuple[tuple[int, int], ...]
    graph_components: tuple[tuple[int, ...], ...]
    network_verdicts: tuple[DeficiencyVerdict, DeficiencyVerdict]
    part_verdicts: tuple[tuple[DeficiencyVerdict, DeficiencyVerdict], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "network": numbers_to_dict(self.network),
            "coordinate_graph": {
                "vertices": list(self.graph_vertices),
                "edges": [list(e) for e in self.graph_edges],
                "components": [list(c) for c in self.graph_components],
            },
            "decomposition": {
                "trivial": self.trivial,
                "parts": [list(p) for p in self.parts],
                **independence_to_dict(self.independence),
            },
            "subnetworks": [
                {
                    "part": list(part),
                    "numbers": numbers_to_dict(nums),
                    "deficiency_zero": verdict_to_dict(dz),
                    "deficiency_one": verdict_to_dict(d1),
                }
                for part, nums, (dz, d1) in zip(
                    self.parts, self.part_numbers, self.part_verdicts
                )
            ],
            "deficiency_zero": verdict_to_dict(self.network_verdicts[0]),
            "deficiency_one": verdict_to_dict(self.network_verdicts[1]),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AnalysisReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {d.get('schema_version')!r}")
        graph = d["coordinate_graph"]
        decomp = d["decomposition"]
        subs = d["subnetworks"]
        return cls(
            network=numbers_from_dict(d["network"]),
            trivial=decomp["trivial"],
            parts=tuple(tuple(p) for p in decomp["parts"]),
            part_numbers=tuple(numbers_from_dict(s["numbers"]) for s in subs),
            independence=independence_from_dict(decomp),
            graph_vertices=tuple(graph["vertices"]),
            graph_edges=tuple((e[0], e[1]) for e in graph["edges"]),
            graph_components=tuple(tuple(c) for c in graph["components"]),
            network_verdicts=(
                verdict_from_dict(d["deficiency_zero"]),
                verdict_from_dict(d["deficiency_one"]),
            ),
            part_verdicts=tuple(
                (verdict_from_dict(s["deficiency_zero"]), verdict_from_dict(s["deficiency_one"]))
                for s in subs
            ),
        )


def build_report(net: Network) -> AnalysisReport:
    """Run the whole pipeline on a network and assemble the report."""
    span, found = _finest(net)
    whole, parts = _structures(net, found.parts, span)
    position = span.position
    return AnalysisReport(
        network=whole.numbers,
        trivial=len(found.parts) == 1,
        parts=found.labels(net),
        part_numbers=tuple(st.numbers for st in parts),
        independence=_independence(whole, parts),
        graph_vertices=tuple(net.reaction_label(i) for i in position),
        graph_edges=tuple(_coordinate_edges(span)),
        # Relations use only earlier basis reactions, so each part starts with a
        # basis reaction and the components come out in the parts' order.
        graph_components=tuple(
            tuple(position[i] for i in part if i in position) for part in found.parts
        ),
        network_verdicts=whole.verdicts,
        part_verdicts=tuple(st.verdicts for st in parts),
    )


def json_dumps(report_dict: Mapping[str, Any]) -> str:
    """The text of ``json.dumps(report_dict, indent=2)``, byte for byte.

    Only the types a report dict holds are written: `str`, `int`, `bool`,
    None, and `dict` (with `str` keys) and `list` of them, each by exact
    type.  Any other value, a float, a tuple or an `int` subclass among
    them, raises `TypeError`.
    """
    return _json_text(report_dict, "\n")


def _json_text(value: Any, newline: str) -> str:
    """``value`` as JSON, its lines after the first indented as ``newline`` says."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def format_numbers_table(columns: list[tuple[str, Mapping[str, Any]]]) -> str:
    """Fixed-order table: one row per network number, one column per network."""
    label_width = max(len(label) for label, _, _ in NUMBERS_ROWS)
    col_widths = [max(len(header), 5) for header, _ in columns]
    lines = [
        " " * label_width
        + "".join(f"  {header:>{w}}" for (header, _), w in zip(columns, col_widths))
    ]
    for label, key, _ in NUMBERS_ROWS:
        cells = "".join(
            f"  {str(values[key]):>{w}}" for (_, values), w in zip(columns, col_widths)
        )
        lines.append(f"{label:<{label_width}}{cells}")
    return "\n".join(lines)


def rank_equation(total: int, parts: list[int]) -> str:
    return f"{total} = {' + '.join(str(p) for p in parts)}" if parts else str(total)


def rank_condition_lines(rep: Mapping[str, Any]) -> list[str]:
    """The rank and incidence-rank conditions of an independence dict, one line each."""
    lines = []
    for key, word in (("", ""), ("incidence_", "incidence ")):
        eq = rank_equation(rep[key + "network_rank"], rep[key + "part_ranks"])
        negation = "" if rep[key + "independent"] else "not "
        lines.append(f"{word}rank condition: {eq} ({negation}{word}independent)")
    return lines


def render_text(report_dict: Mapping[str, Any]) -> str:
    """Deterministic plain-text rendering of a report dict."""
    decomp = report_dict["decomposition"]
    graph = report_dict["coordinate_graph"]
    subs = report_dict["subnetworks"]
    out: list[str] = []

    if decomp["trivial"]:
        out.append("independent decomposition: trivial only (coordinate graph is connected)")
    else:
        out.append(f"independent decomposition: {len(decomp['parts'])} parts")
        for k, part in enumerate(decomp["parts"], 1):
            out.append(f"  P{k}: {', '.join(part)}")
    out.extend(rank_condition_lines(decomp))
    out.append("")

    out.append("coordinate graph:")
    vertices = graph["vertices"]
    out.append(
        "  vertices: "
        + " ".join(f"v{i + 1}={label}" for i, label in enumerate(vertices))
    )
    if graph["edges"]:
        out.append(
            "  edges: "
            + " ".join(f"(v{i + 1},v{j + 1})" for i, j in graph["edges"])
        )
    else:
        out.append("  edges: none")
    out.append(
        "  components: "
        + " ".join(
            "{" + ", ".join(f"v{v + 1}" for v in comp) + "}"
            for comp in graph["components"]
        )
    )
    out.append("")

    out.append("network numbers:")
    columns: list[tuple[str, Mapping[str, Any]]] = [("N", report_dict["network"])]
    if not decomp["trivial"]:
        columns += [(f"N{k + 1}", s["numbers"]) for k, s in enumerate(subs)]
    table = format_numbers_table(columns)
    out.extend("  " + line for line in table.splitlines())
    wr = "yes" if report_dict["network"]["weakly_reversible"] else "no"
    out.append(f"  weakly reversible: {wr}")
    out.append("")

    out.append("deficiency theorems:")
    out.append(_verdict_lines("N", report_dict["deficiency_zero"]))
    out.append(_verdict_lines("N", report_dict["deficiency_one"]))
    if not decomp["trivial"]:
        for k, s in enumerate(subs, 1):
            out.append(_verdict_lines(f"N{k}", s["deficiency_zero"]))
            out.append(_verdict_lines(f"N{k}", s["deficiency_one"]))
    return "\n".join(out) + "\n"


def _verdict_lines(name: str, verdict: Mapping[str, Any]) -> str:
    return (
        f"  {name} [{verdict['theorem']}] {verdict['conclusion']}: {verdict['statement']}"
    )
