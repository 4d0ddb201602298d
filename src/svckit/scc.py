"""Strongly connected components (iterative Tarjan) and the condensation DAG.

Traversal order is pinned to ascending vertex ids, so output is
deterministic for a given graph. Components come out in reverse
topological order of the condensation, which is what Tarjan emits.
The pass runs over adjacency lists with a dead-node mask, so the SCCs
of a graph minus some nodes come without rebuilding the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .graphs import DirectedGraph


@dataclass(frozen=True)
class SccPartition:
    component_of: List[int]       # vertex id -> component index
    components: List[List[int]]   # reverse topological order; each sorted ascending


@dataclass(frozen=True)
class Condensation:
    dag: DirectedGraph            # one vertex per component
    sizes: List[int]              # component index -> vertex count


def _components(succ: Sequence[Sequence[int]], dead: bytearray) -> List[List[int]]:
    """SCCs of the subgraph on the nodes not marked in ``dead``, as
    unsorted node lists in the order iterative Tarjan emits them (reverse
    topological). Nodes and successors are visited in list order."""
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
                    if index[w] < low[v]:
                        low[v] = index[w]
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
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return components


def scc(g: DirectedGraph) -> SccPartition:
    components = _components([g.successors(v) for v in range(g.n)], bytearray(g.n))
    comp_of = [-1] * g.n
    for i, comp in enumerate(components):
        comp.sort()
        for v in comp:
            comp_of[v] = i
    return SccPartition(component_of=comp_of, components=components)


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff g has exactly one SCC (single vertex counts)."""
    if g.n == 0:
        return False
    return len(scc(g).components) == 1


def condensation(g: DirectedGraph) -> Condensation:
    part = scc(g)
    k = len(part.components)
    dag_edges = set()
    for u, v in g.edges:
        cu, cv = part.component_of[u], part.component_of[v]
        if cu != cv:
            dag_edges.add((cu, cv))
    sizes = [len(c) for c in part.components]
    return Condensation(dag=DirectedGraph(k, dag_edges), sizes=sizes)
