"""Output checks that share no code with svckit's flow, SCC or graph modules.

Every check returns a list of error strings; an empty list means the output
was verified. Reachability is plain BFS and SCCs come from an iterative
Kosaraju pass written here. sigma0 and zeta0 are recomputed by counting
vertex-disjoint paths with augmenting paths (Menger), also written here.
networkx is used, when importable, only for ``edge_connectivity`` (sigma1
and zeta1). Its ``node_connectivity`` follows a different definition from
sigma0 and is never used.

Exhaustive searches over removal sets, which prove a witness list
complete, run only while their cost, counted as subsets times (n + m),
stays within ``SEARCH_BUDGET``; beyond that each listed witness is still
checked on its own.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

SEARCH_BUDGET = 1_500_000

Arc = Tuple[int, int]


class Digraph:
    """Simple digraph on vertices 0..n-1, built from an arc list, with a
    name per vertex (its label in an edge-list file)."""

    def __init__(self, n: int, arcs: Iterable[Arc], names: Optional[List[str]] = None):
        self.n = n
        self.names = names if names is not None else [str(v) for v in range(n)]
        self.index = {name: v for v, name in enumerate(self.names)}
        self.arcs = sorted(set(arcs))
        self.succ: List[List[int]] = [[] for _ in range(n)]
        self.pred: List[List[int]] = [[] for _ in range(n)]
        for u, v in self.arcs:
            self.succ[u].append(v)
            self.pred[v].append(u)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def induced(self, keep: Iterable[int]) -> Tuple["Digraph", List[int]]:
        """Subgraph on ``keep``, renumbered in ascending order of old ids.
        Returns the subgraph and the new -> old id list."""
        old = sorted(set(keep))
        new = {v: i for i, v in enumerate(old)}
        arcs = [(new[u], new[v]) for u, v in self.arcs if u in new and v in new]
        return Digraph(len(old), arcs, [self.names[v] for v in old]), old

    def min_in_out_degree(self) -> int:
        return min(min(len(self.succ[v]), len(self.pred[v])) for v in range(self.n))

    def doubled_underlying(self) -> "Digraph":
        """Every arc together with its reverse: the underlying undirected
        graph as a symmetric digraph."""
        return Digraph(self.n, self.arcs + [(v, u) for u, v in self.arcs], self.names)

    def underlying_degrees(self) -> List[int]:
        nbrs: List[Set[int]] = [set() for _ in range(self.n)]
        for u, v in self.arcs:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return [len(s) for s in nbrs]


def read_edgelist(path: str) -> Digraph:
    """Parse an edge list (``source target`` per line, ``#`` comments, a
    lone token declares a vertex). Ids follow first appearance, the order
    in which svckit also numbers vertices."""
    index: Dict[str, int] = {}
    arcs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split("#", 1)[0].split()
            ids = [index.setdefault(t, len(index)) for t in tokens[:2]]
            if len(ids) == 2:
                arcs.append((ids[0], ids[1]))
    return Digraph(len(index), arcs, list(index))


def _reach(adj: List[List[int]], src: int, dead_v: Set[int],
           dead_a: Set[Arc], forward: bool) -> int:
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in seen or v in dead_v:
                continue
            if (u, v) in dead_a if forward else (v, u) in dead_a:
                continue
            seen.add(v)
            queue.append(v)
    return len(seen)


def is_strong(g: Digraph, dead_v: Set[int] = frozenset(),
              dead_a: Set[Arc] = frozenset()) -> bool:
    """Strong connectivity of g minus the given vertices and arcs."""
    alive = g.n - len(dead_v)
    if alive < 1:
        return False
    src = next(v for v in range(g.n) if v not in dead_v)
    return (_reach(g.succ, src, dead_v, dead_a, True) == alive
            and _reach(g.pred, src, dead_v, dead_a, False) == alive)


def breaks(g: Digraph, kind: str, members: Sequence) -> bool:
    """True when removing ``members`` is a weakening set: what is left is
    not strongly connected, or (vertex case) one vertex is left."""
    if kind == "vertex":
        dead = set(members)
        return g.n - len(dead) == 1 or not is_strong(g, dead_v=dead)
    return not is_strong(g, dead_a={tuple(a) for a in members})


def sccs(g: Digraph, dead_v: Set[int] = frozenset(),
              dead_a: Set[Arc] = frozenset()) -> List[List[int]]:
    """Strongly connected components (each sorted ascending) of g minus the given vertices and arcs,
    by Kosaraju with explicit stacks."""
    alive = [v for v in range(g.n) if v not in dead_v]

    def nbrs(adj, u, forward):
        for v in adj[u]:
            if v in dead_v:
                continue
            if ((u, v) if forward else (v, u)) in dead_a:
                continue
            yield v

    order: List[int] = []
    seen: Set[int] = set()
    for root in alive:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, nbrs(g.succ, root, True))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if v not in seen:
                    seen.add(v)
                    stack.append((v, nbrs(g.succ, v, True)))
                    break
            else:
                stack.pop()
                order.append(u)
    comps: List[List[int]] = []
    assigned: Set[int] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp = [root]
        assigned.add(root)
        queue = [root]
        while queue:
            u = queue.pop()
            for v in nbrs(g.pred, u, False):
                if v not in assigned:
                    assigned.add(v)
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def _sizes_desc(comps: List[List[int]]) -> List[int]:
    return sorted((len(c) for c in comps), reverse=True)


def _universe(g: Digraph, kind: str) -> list:
    return list(range(g.n)) if kind == "vertex" else g.arcs


def _affordable(g: Digraph, kind: str, k: int) -> bool:
    return math.comb(len(_universe(g, kind)), k) * (g.n + g.m) <= SEARCH_BUDGET


def all_weakening_sets(g: Digraph, kind: str, k: int) -> Optional[List[tuple]]:
    """Every k-subset that is a weakening set, or None when over budget."""
    if not _affordable(g, kind, k):
        return None
    return [s for s in itertools.combinations(_universe(g, kind), k) if breaks(g, kind, s)]


def none_smaller(g: Digraph, kind: str, k: int) -> Optional[bool]:
    """True when no subset of size k-1 is a weakening set (so sigma >= k),
    None when the search is over budget."""
    if k <= 1:
        return is_strong(g) and g.n >= 2
    if not _affordable(g, kind, k - 1):
        return None
    return not any(breaks(g, kind, s)
                   for s in itertools.combinations(_universe(g, kind), k - 1))


def nx_edge_connectivity(g: Digraph, undirected: bool) -> Optional[int]:
    try:
        import networkx as nx
    except ImportError:
        return None
    h = nx.Graph() if undirected else nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.arcs)
    return nx.edge_connectivity(h)


class _SplitNetwork:
    """Unit-capacity network for counting internally vertex-disjoint paths
    of g: vertex v becomes the arc 2v -> 2v+1, arc (u, v) becomes
    2u+1 -> 2v. Arc e's residual twin is e ^ 1."""

    def __init__(self, g: Digraph):
        self.head: List[int] = []
        self.base: List[int] = []
        self.out: List[List[int]] = [[] for _ in range(2 * g.n)]
        for v in range(g.n):
            self._add(2 * v, 2 * v + 1)           # arc index 2v
        self.arc_at: Dict[Arc, int] = {}
        for u, v in g.arcs:
            self.arc_at[(u, v)] = self._add(2 * u + 1, 2 * v)
        self.succ = [set(s) for s in g.succ]
        self.pred = [set(p) for p in g.pred]

    def _add(self, a: int, b: int) -> int:
        e = len(self.head)
        self.out[a].append(e)
        self.out[b].append(e + 1)
        self.head += [b, a]
        self.base += [1, 0]
        return e

    def paths(self, s: int, t: int, cap: int) -> int:
        """Internally vertex-disjoint s -> t paths, counted up to ``cap``,
        for s and t not joined by an arc s -> t."""
        res = self.base[:]
        head, out = self.head, self.out
        count = 0
        # the paths s -> w -> t first: they are disjoint and need no search
        for w in sorted(self.succ[s] & self.pred[t]):
            if count == cap:
                return count
            for e in (self.arc_at[(s, w)], 2 * w, self.arc_at[(w, t)]):
                res[e] -= 1
                res[e ^ 1] += 1
            count += 1
        source, sink = 2 * s + 1, 2 * t
        while count < cap:
            via = {source: -1}
            queue = [source]
            for u in queue:
                for e in out[u]:
                    if res[e] and head[e] not in via:
                        via[head[e]] = e
                        queue.append(head[e])
                if sink in via:
                    break
            if sink not in via:
                return count
            v = sink
            while v != source:
                e = via[v]
                res[e] -= 1
                res[e ^ 1] += 1
                v = head[e ^ 1]
            count += 1
        return count


def vertex_connectivity(g: Digraph, symmetric: bool = False) -> int:
    """sigma0 of g: the least number of internally vertex-disjoint s -> t
    paths over ordered pairs with no arc s -> t (Menger), n - 1 when there
    is no such pair, 0 when g is not strongly connected.

    A minimum separating set S misses one of any |S| + 1 vertices, say x,
    and G - S has a vertex that x cannot reach or that cannot reach x; so
    sources 0..best, paired with every target both ways, suffice. When g is
    ``symmetric`` (every arc has its reverse) one direction suffices."""
    if g.n < 2 or not is_strong(g):
        return 0
    net = _SplitNetwork(g)
    best = g.n - 1
    s = 0
    while s <= best:
        for t in range(g.n):
            if t == s:
                continue
            for a, b in ((s, t),) if symmetric else ((s, t), (t, s)):
                if b not in net.succ[a]:
                    best = min(best, net.paths(a, b, best))
        s += 1
    return best


# --- checks of one job's output -------------------------------------------

def check_sigma0(g: Digraph, value: int) -> List[str]:
    """sigma0 == value, by the Menger count."""
    ref = vertex_connectivity(g)
    return [] if value == ref else [f"sigma0={value}, Menger count gives {ref}"]


def check_zeta0(g: Digraph, value: int) -> List[str]:
    """zeta0 (vertex connectivity of the underlying graph) == value."""
    ref = vertex_connectivity(g.doubled_underlying(), symmetric=True)
    return [] if value == ref else [f"zeta0={value}, Menger count gives {ref}"]


def check_witnesses(g: Digraph, kind: str, k: int, sets: List[dict],
                    label_of_member) -> List[str]:
    """Each set has k members, breaks strong connectivity, reports the right
    SCC sizes; the list is complete when the exhaustive search is affordable."""
    errs = []
    found = []
    for w in sets:
        members = [label_of_member(x) for x in w["members"]]
        if w.get("kind") != kind or len(members) != k:
            errs.append(f"{kind} witness {w['members']} has wrong kind or size (k={k})")
            continue
        members = [tuple(x) for x in members] if kind == "edge" else members
        if not breaks(g, kind, members):
            errs.append(f"{kind} witness {w['members']} does not break strong connectivity")
            continue
        if kind == "vertex":
            comps = sccs(g, dead_v=set(members))
        else:
            comps = sccs(g, dead_a=set(members))
        if list(w["resulting_scc_sizes"]) != _sizes_desc(comps):
            errs.append(f"{kind} witness {w['members']}: wrong resulting_scc_sizes")
        found.append(tuple(sorted(members)))
    if len(set(found)) != len(found):
        errs.append(f"duplicate {kind} witnesses")
    expected = all_weakening_sets(g, kind, k)
    if expected is not None and sorted(found) != sorted(tuple(sorted(s)) for s in expected):
        errs.append(f"{kind} witnesses: {len(found)} listed, {len(expected)} exist")
    return errs


def check_report(g: Digraph, text: str) -> List[str]:
    """Check an ``analyze --enumerate`` report of the strongly connected g,
    whose vertex labels are its ids."""
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    errs = []
    if (rep.get("n"), rep.get("m")) != (g.n, g.m):
        return [f"report (n, m)=({rep.get('n')}, {rep.get('m')}), input has ({g.n}, {g.m})"]
    s0, s1 = rep["sigma0"], rep["sigma1"]
    z0, z1 = rep["zeta0_underlying"], rep["zeta1_underlying"]
    if None in (s0, s1, z0, z1):
        return ["report lacks a connectivity value"]
    delta = g.min_in_out_degree()
    if not (s0 <= s1 <= delta and s0 <= z0 and s1 <= z1):
        errs.append(f"invariants fail: sigma0={s0} sigma1={s1} zeta0={z0} zeta1={z1} delta={delta}")
    udeg = min(g.underlying_degrees())
    if z0 > udeg or z1 > udeg:
        errs.append(f"zeta above min underlying degree {udeg}")
    errs += check_sigma0(g, s0)
    errs += check_zeta0(g, z0)
    for name, value, und in (("sigma1", s1, False), ("zeta1", z1, True)):
        ref = nx_edge_connectivity(g, und)
        if ref is not None and ref != value:
            errs.append(f"{name}={value}, networkx edge_connectivity gives {ref}")
    vw, ew = rep["vertex_witnesses"], rep["edge_witnesses"]
    if rep["witness_counts"] != [len(vw), len(ew)]:
        errs.append(f"witness_counts {rep['witness_counts']} != ({len(vw)}, {len(ew)})")
    errs += check_witnesses(g, "vertex", s0, vw, _member_by_label(g, errs, vw, "vertex"))
    errs += check_witnesses(g, "edge", s1, ew, _member_by_label(g, errs, ew, "edge"))
    if s0 < g.n - 1 and not vw:
        errs.append("no vertex witness listed")
    if not ew:
        errs.append("no edge witness listed")
    return errs


def _member_by_label(g: Digraph, errs: List[str], sets: List[dict], kind: str):
    """Translate svckit member ids into g's ids through the labels printed
    next to them."""
    table: Dict = {}
    for w in sets:
        labels = w.get("labels")
        if labels is None or len(labels) != len(w["members"]):
            errs.append(f"{kind} witness {w['members']} lacks labels")
            continue
        for member, label in zip(w["members"], labels):
            if kind == "vertex":
                table[member] = g.index[label]
            else:
                table[tuple(member)] = (g.index[label[0]], g.index[label[1]])
    return lambda x: table.get(tuple(x) if kind == "edge" else x, x)


def check_weakening(g: Digraph, text: str, kind: str) -> List[str]:
    """Check a ``weakening --kind vertex|edge`` listing of g."""
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"listing is not JSON: {exc}"]
    sets = rep["sets"]
    errs = []
    if rep["capped"] or rep["count"] != len(sets) or not sets:
        errs.append(f"capped={rep['capped']} count={rep['count']} sets={len(sets)}")
        return errs
    k = len(sets[0]["members"])
    if kind == "vertex":
        errs += check_sigma0(g, k)
    errs += check_witnesses(g, kind, k, sets, _member_by_label(g, errs, sets, kind))
    return errs


def _parse_int(text: str, what: str):
    try:
        return int(text.strip()), []
    except ValueError:
        return None, [f"{what} output {text!r} is not an integer"]


def check_svc(g: Digraph, text: str) -> List[str]:
    """Check the single integer printed by ``svc``."""
    value, errs = _parse_int(text, "svc")
    return errs or check_sigma0(g, value)


def check_sec(g: Digraph, text: str) -> List[str]:
    """Check the single integer printed by ``sec``."""
    value, errs = _parse_int(text, "sec")
    if errs:
        return errs
    if not 1 <= value <= g.min_in_out_degree():
        return [f"sigma1={value} outside [1, min degree {g.min_in_out_degree()}]"]
    ref = nx_edge_connectivity(g, undirected=False)
    if ref is not None and ref != value:
        return [f"sigma1={value}, networkx edge_connectivity gives {ref}"]
    return []


def check_tree(g: Digraph, stdout: str, text: str, depth: int) -> List[str]:
    """Check an ``iterate --out`` decomposition tree of g and the traces
    printed with it."""
    try:
        tree = json.loads(text)
    except ValueError as exc:
        return [f"tree is not JSON: {exc}"]
    errs: List[str] = []
    root = tree["root"]
    if root["vertices"] != list(range(g.n)):
        errs.append("root does not hold every vertex")
    stack = [root]
    while stack:
        node = stack.pop()
        errs += _check_node(g, node, depth)
        stack.extend(node["children"])
    chain = [root]
    while chain[-1]["children"]:
        chain.append(max(chain[-1]["children"],
                         key=lambda c: (len(c["vertices"]), -c["vertices"][0])))
    want = (f"sigma_trace: {[c['sigma0'] for c in chain]}\n"
            f"zeta_trace: {[c['zeta0_underlying'] for c in chain]}\n")
    if stdout != want:
        errs.append(f"printed traces {stdout!r} do not match the tree ({want!r})")
    return errs


def _check_node(g: Digraph, node: dict, max_depth: int) -> List[str]:
    h, old = g.induced(node["vertices"])
    where = f"node depth={node['depth']} n={h.n}"
    errs = [f"{where}: {e}" for e in check_sigma0(h, node["sigma0"])]
    z0 = node["zeta0_underlying"]
    if z0 is None or not node["sigma0"] <= z0 <= min(h.underlying_degrees()):
        errs.append(f"{where}: zeta0={z0} outside [sigma0, min underlying degree]")
    else:
        errs += [f"{where}: {e}" for e in check_zeta0(h, z0)]
    chosen = node["chosen_set"]
    if "complete-bidirected" in node["flags"] or "depth-capped" in node["flags"]:
        if chosen is not None or node["children"]:
            errs.append(f"{where}: leaf has a chosen set or children")
        if "depth-capped" in node["flags"] and node["depth"] != max_depth:
            errs.append(f"{where}: depth-capped below the maximum depth")
        return errs
    if chosen is None:
        return errs + [f"{where}: inner node without a chosen set"]
    members = chosen["members"]
    if [g.index.get(x) for x in chosen.get("labels", [])] != members:
        errs.append(f"{where}: chosen set labels do not match its ids")
    pos = {v: i for i, v in enumerate(old)}
    if len(members) != node["sigma0"] or any(v not in pos for v in members):
        return errs + [f"{where}: chosen set {members} is not a sigma0-subset of the node"]
    local = [pos[v] for v in members]
    if not breaks(h, "vertex", local):
        errs.append(f"{where}: chosen set {members} does not break strong connectivity")
    comps = sccs(h, dead_v=set(local))
    if node["condensation_sizes"] != _sizes_desc(comps) or chosen["resulting_scc_sizes"] != _sizes_desc(comps):
        errs.append(f"{where}: wrong condensation sizes")
    want = sorted(([old[v] for v in c] for c in comps if len(c) >= 2),
                  key=lambda c: (-len(c), c[0]))
    if [c["vertices"] for c in node["children"]] != want:
        errs.append(f"{where}: children are not the nontrivial SCCs after removal")
    if node["witness_count"] is not None:
        expected = all_weakening_sets(h, "vertex", node["sigma0"])
        if expected is not None and node["witness_count"] != len(expected):
            errs.append(f"{where}: witness_count={node['witness_count']}, {len(expected)} exist")
        if expected is not None and expected and tuple(local) != expected[0]:
            errs.append(f"{where}: chosen set is not the lexicographically first witness")
    return errs
