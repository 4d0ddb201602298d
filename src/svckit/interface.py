"""File ingestion (edge lists, a strict GraphML subset), canonical JSON
report serialization, and DOT export.

Edge-list grammar: one edge per line, ``source target [ignored-weight]``,
``#`` comments, blank lines allowed. A line with a single token declares
an isolated vertex (needed for lossless round trips). All weights are
discarded: the connectivity notions treat every edge as weight 1.
"""

from __future__ import annotations

import io
import json
import logging
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from .connectivity import ConnectivityReport, WeakeningSet
from .decompose import DecompositionNode
from .graphs import DirectedGraph, GraphInputError, _sorted_lists

log = logging.getLogger("svckit")

SCHEMA = "svckit-report/1"


class ParseError(ValueError):
    """Unreadable or malformed input file."""


@dataclass
class IngestResult:
    graph: DirectedGraph
    self_loops_dropped: int
    duplicates_dropped: int


def read_graph(path: Union[str, Path], format: str = "auto") -> DirectedGraph:
    return read_graph_detailed(path, format).graph


def read_graph_detailed(path: Union[str, Path], format: str = "auto") -> IngestResult:
    """``format`` is "edgelist", "graphml" or "auto": GraphML for a
    ``.graphml`` suffix or XML content, else an edge list."""
    path = Path(path)
    if format == "auto" and path.suffix.lower() == ".graphml":
        format = "graphml"
    data = None
    if format in ("auto", "edgelist"):
        data, format = _read(path, format)
    if format == "edgelist":
        pairs, isolated = _parse_edgelist(data, path)
    elif format == "graphml":
        pairs, isolated = _parse_graphml(path, data)
    else:
        raise ParseError(f"unknown format {format!r}")
    return _assemble(pairs, isolated, path)


def _read(path: Path, format: str) -> Tuple[Union[str, bytes], str]:
    """The file, from one read, and its format: for "auto", GraphML if the
    first 512 characters a text stream reads hold ``<graphml`` or
    ``<?xml``. That read decodes the first 8 KiB, so a byte there that is
    not UTF-8 is reported at its place in them. An edge list comes as its
    text, GraphML as its bytes."""
    try:
        data = path.read_bytes()
        if format == "auto":
            head = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read(512)
            format = "graphml" if "<graphml" in head or "<?xml" in head else "edgelist"
        return (data.decode("utf-8") if format == "edgelist" else data), format
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_edgelist(text: str, path: Path) -> Tuple[List[List[str]], List[str]]:
    pairs: List[List[str]] = []
    isolated: List[str] = []
    comments = "#" in text
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = (line.split("#", 1)[0] if comments else line).split()
        if len(tokens) == 2:
            pairs.append(tokens)
        elif len(tokens) == 3:
            pairs.append(tokens[:2])
        elif len(tokens) == 1:
            isolated.append(tokens[0])
        elif tokens:
            raise ParseError(f"{path}:{lineno}: expected 1-3 tokens, got {len(tokens)}")
    return pairs, isolated


def _parse_graphml(
    path: Path, data: Optional[bytes] = None
) -> Tuple[List[Tuple[str, str]], List[str]]:
    """Parses ``data``, the file's bytes if already read, else the file."""
    try:
        tree = ET.parse(path if data is None else io.BytesIO(data))
    except (ET.ParseError, OSError) as exc:
        raise ParseError(f"{path}: not parseable as GraphML: {exc}") from exc

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    root = tree.getroot()
    graphs = [el for el in root.iter() if local(el.tag) == "graph"]
    if len(graphs) != 1:
        raise ParseError(f"{path}: expected exactly one <graph>, found {len(graphs)}")
    gel = graphs[0]
    if gel.get("edgedefault", "directed") != "directed":
        raise ParseError(f"{path}: only edgedefault='directed' GraphML is supported")
    nodes: List[str] = []
    pairs: List[Tuple[str, str]] = []
    for el in gel:
        tag = local(el.tag)
        if tag == "node":
            nid = el.get("id")
            if nid is None:
                raise ParseError(f"{path}: <node> without id")
            nodes.append(nid)
        elif tag == "edge":
            if el.get("directed") == "false":
                raise ParseError(f"{path}: undirected <edge> not supported")
            s, t = el.get("source"), el.get("target")
            if s is None or t is None:
                raise ParseError(f"{path}: <edge> missing source/target")
            pairs.append((s, t))
    return pairs, nodes


def _assemble(
    pairs: Sequence[Sequence[str]], isolated: List[str], path: Path
) -> IngestResult:
    ids: Dict[str, int] = {}
    new = ids.setdefault  # a token's id, the next free one on first sight
    arcs = [(new(a, len(ids)), new(b, len(ids))) for a, b in pairs]
    edges = {(u, v) for u, v in arcs if u != v}
    self_loops = sum(1 for u, v in arcs if u == v)
    duplicates = len(arcs) - self_loops - len(edges)
    for token in isolated:
        new(token, len(ids))
    if not ids:
        raise ParseError(f"{path}: empty graph")
    if self_loops or duplicates:
        log.warning(
            "%s: dropped %d self-loop(s) and %d duplicate edge(s)",
            path, self_loops, duplicates,
        )
    labels = {i: tok for tok, i in ids.items()}
    graph = DirectedGraph._from_sorted(*_sorted_lists(len(ids), edges), labels)
    return IngestResult(graph, self_loops, duplicates)


def write_edgelist(g: DirectedGraph, out: TextIO) -> None:
    """Deterministic edge-list dump using vertex labels; isolated
    vertices get single-token lines so reading back loses nothing. A name
    that is empty, holds whitespace or ``#``, or repeats another vertex's
    raises GraphInputError before anything is written."""
    names = [g.label(v) for v in range(g.n)]
    seen = set()
    for v, name in enumerate(names):
        if name.split() != [name] or "#" in name or name in seen:
            raise GraphInputError(f"vertex {v}: name {name!r} is not a unique edge-list token")
        seen.add(name)
    touched = set()
    for u, v in g.sorted_edges():
        out.write(f"{names[u]} {names[v]}\n")
        touched.add(u)
        touched.add(v)
    for v in range(g.n):
        if v not in touched:
            out.write(f"{names[v]}\n")


def _witness_dict(w: WeakeningSet, labels: Optional[Mapping[int, str]]) -> dict:
    # labels: the graph's vertex_labels; an unlabelled vertex is its id
    d: dict = {"kind": w.kind, "resulting_scc_sizes": list(w.resulting_scc_sizes)}
    if w.kind == "vertex":
        d["members"] = list(w.members)
        if labels is not None:
            d["labels"] = [labels.get(v, str(v)) for v in w.members]
    else:
        d["members"] = [list(e) for e in w.members]
        if labels is not None:
            d["labels"] = [[labels.get(u, str(u)), labels.get(v, str(v))]
                           for u, v in w.members]
    return d


def report_to_dict(r: ConnectivityReport, g: DirectedGraph) -> dict:
    return _report_dict(r, g.vertex_labels)


def _report_dict(r: ConnectivityReport, labels: Optional[Mapping[int, str]]) -> dict:
    d = {
        "schema": SCHEMA,
        "kind": "connectivity",
        "n": r.stats.n,
        "m": r.stats.m,
        "stats": asdict(r.stats),
        "sigma0": r.sigma0,
        "sigma1": r.sigma1,
        "zeta0_underlying": r.zeta0_underlying,
        "zeta1_underlying": r.zeta1_underlying,
        "witness_counts": list(r.witness_counts) if r.witness_counts else None,
        "vertex_witnesses": [_witness_dict(w, labels) for w in r.vertex_witnesses],
        "edge_witnesses": [_witness_dict(w, labels) for w in r.edge_witnesses],
        "flags": list(r.flags),
    }
    if r.component_reports:
        comps = []
        for sub_rep, verts in zip(r.component_reports, r.component_vertices):
            # vertex i of the component's subgraph is verts[i]
            sub_labels = None if labels is None else {
                i: labels[v] for i, v in enumerate(verts) if v in labels}
            cd = _report_dict(sub_rep, sub_labels)
            cd["vertices"] = list(verts)
            comps.append(cd)
        d["components"] = comps
    return d


def tree_to_dict(node: DecompositionNode, g: DirectedGraph) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "decomposition",
        "root": _node_dict(node, g.vertex_labels),
    }


def _node_dict(node: DecompositionNode, labels: Optional[Mapping[int, str]]) -> dict:
    return {
        "vertices": list(node.vertices),
        "depth": node.depth,
        "sigma0": node.sigma0,
        "zeta0_underlying": node.zeta0_underlying,
        "chosen_set": _witness_dict(node.chosen_set, labels) if node.chosen_set else None,
        "witness_count": node.witness_count,
        "condensation_sizes": list(node.condensation_sizes),
        "flags": list(node.flags),
        "children": [_node_dict(c, labels) for c in node.children],
    }


def to_canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write_report(
    r: Union[ConnectivityReport, DecompositionNode],
    path: Union[str, Path],
    g: DirectedGraph,
) -> None:
    """Serialize a report or decomposition tree as canonical JSON (stable
    key order, deterministic arrays)."""
    if isinstance(r, ConnectivityReport):
        d = report_to_dict(r, g)
    elif isinstance(r, DecompositionNode):
        d = tree_to_dict(r, g)
    else:
        raise TypeError(f"cannot serialize {type(r).__name__}")
    Path(path).write_text(to_canonical_json(d), encoding="utf-8")


def export_dot(g: DirectedGraph, highlight: Optional[WeakeningSet] = None) -> str:
    """Valid DOT text; highlighted weakening-set members (vertices or
    edges) styled distinctly. Output is deterministic."""
    hv = set()
    he = set()
    if highlight is not None:
        if highlight.kind == "vertex":
            hv = set(highlight.members)
        else:
            he = {tuple(e) for e in highlight.members}
    lines = ["digraph G {"]
    for v in range(g.n):
        label = g.label(v).replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        if v in hv:
            attrs.append("style=filled")
            attrs.append("fillcolor=orangered")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.sorted_edges():
        if (u, v) in he:
            lines.append(f"  {u} -> {v} [color=orangered, penwidth=2];")
        else:
            lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
