"""Spans around svckit's public functions, recorded from outside the package.

``Tracer.install`` looks each traced function up with ``getattr`` and
replaces every binding of it in every loaded ``svckit`` module (the package
imports functions by name, so patching only the defining module would miss
most calls). A function that no longer exists is skipped, and its metrics
read zero. Spans stay in memory; ``metrics`` turns them into per-layer
figures and ``write`` saves them as TSV.

Attribution rules:

* A span counts toward its metric only if no enclosing span belongs to the
  same layer; the outermost span of a layer owns the work nested in it. So
  svc/sec inside a zeta span count toward zeta, ``remove_vertices`` inside
  ``induced`` counts toward ``induced``, and a ``weakening`` command's own
  sigma scan counts toward ``weakening_*``.
* ``busy_s`` is the length of the union of the counted spans' intervals,
  so spans overlapping on pool threads are not counted twice.
* ``self_s`` is a span's duration minus the union of its children's.
* Spans started on a pool thread with an empty stack get the main thread's
  innermost open span as parent (jobs run one at a time).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# layer -> (defining module, traced public functions)
LAYERS = {
    "flow": ("svckit.flow", ("vertex_max_flow", "edge_max_flow")),
    "connectivity": ("svckit.connectivity", (
        "svc", "sec", "undirected_vertex_connectivity", "undirected_edge_connectivity",
        "weakening_vertex_sets", "weakening_edge_sets")),
    "scc": ("svckit.scc", ("scc",)),
    "graphs": ("svckit.graphs", (
        "remove_vertices", "remove_edges", "induced", "stats", "underlying", "doubled")),
    "decompose": ("svckit.decompose", ("iterate",)),
    "interface": ("svckit.interface", (
        "read_graph", "report_to_dict", "tree_to_dict", "to_canonical_json")),
    "cli": ("svckit.cli", ("main",)),
}


def _count_nodes(tree) -> int:
    stack, count = [tree], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _input_bytes(args, kwargs, result) -> int:
    try:
        return os.path.getsize(args[0] if args else kwargs["path"])
    except (OSError, KeyError, IndexError, TypeError):
        return 0


# per-call figures read from arguments and results; arcs are computed from
# n and m (split network: n internal arcs + m; edge network: m), not counted
INFO: Dict[str, Callable] = {
    "vertex_max_flow": lambda a, k, r: (bool(r.saturated), a[0].n + a[0].m),
    "edge_max_flow": lambda a, k, r: (bool(r.saturated), a[0].m),
    "weakening_vertex_sets": lambda a, k, r: len(r),
    "weakening_edge_sets": lambda a, k, r: len(r),
    "read_graph": _input_bytes,
    "to_canonical_json": lambda a, k, r: len(r.encode("utf-8")),
    "iterate": lambda a, k, r: _count_nodes(r),
}

# Span layout: [function name, layer, start, end, parent span, info]
NAME, LAYER, START, END, PARENT, INFO_AT = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()
        self._main_stack: List[list] = []
        self._main_thread = threading.get_ident()
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, info = self.spans, INFO.get(name)
        main_stack, main_thread, local = self._main_stack, self._main_thread, self._local
        get_ident, clock = threading.get_ident, time.perf_counter

        def traced(*args, **kwargs):
            if get_ident() == main_thread:
                stack = parent_stack = main_stack
            else:
                stack = local.__dict__.setdefault("stack", [])
                parent_stack = stack or main_stack
            span = [name, layer, 0.0, 0.0, parent_stack[-1] if parent_stack else None, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO_AT] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "svckit" or key.startswith("svckit."))]
        for layer, (home, names) in LAYERS.items():
            home_mod = sys.modules.get(home)
            for name in names:
                fn = getattr(home_mod, name, None)
                if fn is None:
                    continue
                traced = self._wrap(fn, name, layer)
                for mod in modules:
                    if getattr(mod, name, None) is fn:
                        self._patched.append((mod, name, fn))
                        setattr(mod, name, traced)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()

    def indexed(self) -> List[list]:
        """The spans with each parent replaced by its index (-1: none)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s[:PARENT] + [index[id(s[PARENT])] if s[PARENT] is not None else -1] + s[PARENT + 1:]
                for s in self.spans]

    def write(self, path: str) -> None:
        """Save the spans as TSV: index, parent, layer, name, start, end."""
        spans = self.indexed()
        t0 = min((s[START] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tlayer\tname\tstart_s\tend_s\n")
            for i, s in enumerate(spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[LAYER]}\t{s[NAME]}\t"
                         f"{s[START] - t0:.9f}\t{s[END] - t0:.9f}\n")

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        return layer_metrics(self.indexed())


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _outermost_in(spans: List[list], i: int, layer: str) -> Optional[int]:
    """Index of the outermost span of ``layer`` enclosing span i, if any."""
    found, p = None, spans[i][PARENT]
    while p >= 0:
        if spans[p][LAYER] == layer:
            found = p
        p = spans[p][PARENT]
    return found


CONNECTIVITY_NAMES = {
    "svc": "svc", "sec": "sec",
    "undirected_vertex_connectivity": "zeta0", "undirected_edge_connectivity": "zeta1",
    "weakening_vertex_sets": "weakening_vertex", "weakening_edge_sets": "weakening_edge",
}

def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics from spans whose parents are indices (-1: none)."""
    by_key: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        if _outermost_in(spans, i, s[LAYER]) is None:
            key = f"{s[LAYER]}.{CONNECTIVITY_NAMES.get(s[NAME], s[NAME])}"
            by_key.setdefault(key, []).append(i)

    def busy(*keys) -> float:
        return _union([(spans[i][START], spans[i][END]) for k in keys for i in by_key.get(k, [])])

    def info_sum(key) -> int:
        return sum(spans[i][INFO_AT] or 0 for i in by_key.get(key, []))

    def self_time(key) -> float:
        wanted = set(by_key.get(key, []))
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in spans:
            if s[PARENT] in wanted:
                children.setdefault(s[PARENT], []).append((s[START], s[END]))
        return sum(spans[i][END] - spans[i][START] - _union(children.get(i, [])) for i in wanted)

    out: Dict[str, float] = {}
    for key in ("flow.vertex_max_flow", "flow.edge_max_flow", "scc.scc",
                "graphs.remove_vertices", "graphs.remove_edges", "graphs.induced"):
        out[f"{key}.calls"] = len(by_key.get(key, []))
        out[f"{key}.busy_s"] = busy(key)

    flows = {"svc": 0, "sec": 0, "zeta0": 0, "zeta1": 0}
    arcs = 0
    for key in ("flow.vertex_max_flow", "flow.edge_max_flow"):
        infos = [spans[i][INFO_AT] for i in by_key.get(key, []) if spans[i][INFO_AT] is not None]
        saturated = sum(1 for sat, _ in infos if sat)
        out[f"{key}.saturated_ratio"] = saturated / len(infos) if infos else 0.0
        arcs += sum(a for _, a in infos)
        for i in by_key.get(key, []):
            owner = _outermost_in(spans, i, "connectivity")
            short = CONNECTIVITY_NAMES[spans[owner][NAME]] if owner is not None else None
            if short in flows:
                flows[short] += 1
    out["flow.arcs_built"] = arcs

    for short, count in flows.items():
        out[f"connectivity.{short}.busy_s"] = busy(f"connectivity.{short}")
        out[f"connectivity.{short}.flows"] = count
    out["connectivity.weakening_vertex.busy_s"] = busy("connectivity.weakening_vertex")
    out["connectivity.weakening_edge.busy_s"] = busy("connectivity.weakening_edge")
    # each enumerated subset costs one remove_* call made directly by weakening_*
    weakening = set(by_key.get("connectivity.weakening_vertex", [])
                    + by_key.get("connectivity.weakening_edge", []))
    subsets = sum(1 for s in spans
                  if s[NAME] in ("remove_vertices", "remove_edges") and s[PARENT] in weakening)
    witnesses = info_sum("connectivity.weakening_vertex") + info_sum("connectivity.weakening_edge")
    out["connectivity.subsets_checked"] = subsets
    out["connectivity.witness_hit_ratio"] = witnesses / subsets if subsets else 0.0

    out["graphs.stats.busy_s"] = busy("graphs.stats")
    out["graphs.underlying_doubled.busy_s"] = busy("graphs.underlying", "graphs.doubled")

    out["decompose.iterate.busy_s"] = busy("decompose.iterate")
    out["decompose.iterate.self_s"] = self_time("decompose.iterate")
    out["decompose.nodes"] = info_sum("decompose.iterate")

    out["interface.read_graph.busy_s"] = busy("interface.read_graph")
    out["interface.input_bytes"] = info_sum("interface.read_graph")
    out["interface.serialize.busy_s"] = busy(
        "interface.report_to_dict", "interface.tree_to_dict", "interface.to_canonical_json")
    out["interface.output_bytes"] = info_sum("interface.to_canonical_json")

    out["cli.main.calls"] = len(by_key.get("cli.main", []))
    out["cli.main.self_s"] = self_time("cli.main")
    return out
