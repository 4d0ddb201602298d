"""Shared test utilities: seeded graph corpora, tiny brute-force
reachability helpers kept independent of the package's flow/scc code, an
iterative Tarjan that pins the order of SCCs, and the large-n references
past the oracle's size limit: the literal subset loop for weakening-set
enumeration, the Even-Tarjan source scan for sigma0 and the all-pairs BFS
loop for the diameter."""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, List, Optional, Sequence, Tuple

import svckit as sk
from svckit.flow import VertexFlowNetwork


def seeded_random_graphs(count, n_lo=2, n_hi=8, probs=(0.15, 0.3, 0.5, 0.8)):
    """Deterministic stream of (graph, seed) pairs cycling n and p."""
    out = []
    seed = 0
    while len(out) < count:
        n = n_lo + seed % (n_hi - n_lo + 1)
        p = probs[(seed // 7) % len(probs)]
        out.append((sk.random_digraph(n, p, seed), seed))
        seed += 1
    return out


def strongly_connected_corpus(count, n_lo=2, n_hi=8, probs=(0.15, 0.3, 0.5, 0.8)):
    """At least `count` seeded strongly connected random digraphs."""
    out = []
    seed = 0
    while len(out) < count:
        n = n_lo + seed % (n_hi - n_lo + 1)
        p = probs[(seed // 7) % len(probs)]
        g = sk.random_digraph(n, p, seed)
        if sk.is_strongly_connected(g):
            out.append((g, seed))
        seed += 1
    return out


def reaches(n: int, edges: Iterable[Tuple[int, int]], s: int, t: int) -> bool:
    """Plain DFS reachability on an edge list (no package code)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return t in seen


def reference_components(succ: Sequence[Sequence[int]], dead: bytearray) -> List[List[int]]:
    """SCCs of the nodes not marked in ``dead`` by iterative Tarjan, in the
    order it emits them (reverse topological): roots ascending, successors
    in list order. The reference for the order of ``scc._components``."""
    n = len(succ)
    index = [0 if dead[v] else -1 for v in range(n)]  # dead: seen, off stack
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # work entries are (node, position in its successor list)
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            out = succ[v]
            while pi < len(out):
                w = out[pi]
                pi += 1
                if index[w] == -1:
                    work.append((v, pi))
                    work.append((w, 0))
                    recurse = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def brute_min_edge_cut(g: sk.DirectedGraph, s: int, t: int) -> int:
    """Smallest |D| over edge subsets D with t unreachable from s in g-D."""
    edges = sorted(g.edges)
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            remaining = [e for e in edges if e not in set(subset)]
            if not reaches(g.n, remaining, s, t):
                return k
    raise AssertionError("unreachable")


def brute_min_vertex_cut(g: sk.DirectedGraph, s: int, t: int) -> int:
    """Smallest vertex subset (excluding s, t) whose removal makes t
    unreachable from s; n-1 if none exists (direct edge)."""
    others = [w for w in range(g.n) if w not in (s, t)]
    for k in range(len(others) + 1):
        for subset in itertools.combinations(others, k):
            gone = set(subset)
            remaining = [
                (u, v) for u, v in g.edges if u not in gone and v not in gone
            ]
            if not reaches(g.n, remaining, s, t):
                return k
    return g.n - 1


def reference_weakening_sets(g: sk.DirectedGraph, kind: str, k: int, limit=None):
    """Literal subset loop, the large-n reference for weakening_*_sets:
    every k-subset in lexicographic order, removed from a rebuilt graph
    and checked with one SCC pass. Returns ([(members, scc sizes)],
    capped)."""
    items = range(g.n) if kind == "vertex" else g.sorted_edges()
    out = []
    for subset in itertools.combinations(items, k):
        if kind == "vertex":
            h, _ = sk.remove_vertices(g, subset)
        else:
            h = sk.remove_edges(g, subset)
        if h.n == 1 or not sk.is_strongly_connected(h):
            sizes = sorted((len(c) for c in sk.scc(h).components), reverse=True)
            out.append((subset, tuple(sizes)))
            if limit is not None and len(out) >= limit:
                return out, True
    return out, False


def reference_svc(g: sk.DirectedGraph) -> int:
    """Even-Tarjan source scan, the large-n reference for svc: a cut of
    size k misses one of the sources 0..k, so sources 0..best, each
    against every other vertex in both directions (arcs skipped), with
    flows capped at the running best, starting from the degree bound."""
    best = g.n - 1
    for v in range(g.n):
        for d in (len(g.successors(v)), len(g.predecessors(v))):
            if d <= g.n - 2:
                best = min(best, d)
    net = VertexFlowNetwork(g)
    s = 0
    while s <= best and s < g.n:
        for t in range(s + 1, g.n):
            for a, b in ((s, t), (t, s)):
                if not g.has_edge(a, b):
                    ans = net.flow(a, b, cap=best)
                    if not ans.saturated:
                        best = ans.value
        s += 1
    return best


def _bfs_ecc(g: sk.DirectedGraph, src: int) -> Optional[int]:
    # directed eccentricity of src, None if some vertex unreachable
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    seen = 1
    far = 0
    while queue:
        u = queue.popleft()
        for v in g.successors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                far = max(far, dist[v])
                seen += 1
                queue.append(v)
    if seen < g.n:
        return None
    return far


def reference_diameter(g: sk.DirectedGraph) -> Optional[int]:
    """All-pairs BFS loop, the reference for stats(g).diameter: the largest
    eccentricity, None as soon as some vertex misses another, and None for
    the empty graph, which is not strongly connected."""
    if g.n == 0:
        return None
    diameter = 0
    for v in range(g.n):
        ecc = _bfs_ecc(g, v)
        if ecc is None:
            return None
        diameter = max(diameter, ecc)
    return diameter


def count_graph_builds(monkeypatch) -> List[str]:
    """Patch the public constructors of both graph types to record, in the
    returned list, the class name of every graph built through them."""
    built: List[str] = []
    for cls in (sk.DirectedGraph, sk.UndirectedGraph):
        def counting(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return built
