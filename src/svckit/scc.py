"""Strongly connected components (Kosaraju-Sharir) and the condensation DAG.

Both passes are one iterative postorder DFS, the same loop the dominator
pass of ``connectivity`` runs. Traversal order is pinned to ascending
vertex ids and list order of successors, so output is deterministic for a
given graph. Components come out in reverse topological order of the
condensation, the order in which Tarjan's algorithm would emit them. The
pass runs over adjacency lists with a dead-node mask, so the SCCs of a
graph minus some nodes come without rebuilding the graph.
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


def _postorder(root: int, succ: Sequence[Sequence[int]], seen: bytearray) -> List[int]:
    """The nodes an iterative DFS from ``root`` reaches over ``succ``
    without entering a node marked in ``seen``, in postorder. Marks them
    in ``seen``; successors are visited in list order."""
    seen[root] = 1
    order: List[int] = []
    stack = [(root, iter(succ[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not seen[w]:
                seen[w] = 1
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()
            order.append(v)
    return order


def _components(
    succ: Sequence[Sequence[int]], pred: Sequence[Sequence[int]], dead: bytearray
) -> List[List[int]]:
    """SCCs of the subgraph on the nodes not marked in ``dead``, as
    unsorted node lists in reverse topological order. Pass 1 records the
    finish order of a DFS over ``succ`` from every live root, ascending;
    pass 2 collects, for each unseen node in reverse finish order, its DFS
    tree over ``pred``. That node is its component's first-discovered one,
    so pass 2 meets the components in decreasing finish time of it, the
    reverse of the order Tarjan's algorithm emits them in."""
    seen = bytearray(dead)
    finish: List[int] = []
    for root in range(len(succ)):
        if not seen[root]:
            finish += _postorder(root, succ, seen)
    seen = bytearray(dead)
    components = [_postorder(v, pred, seen) for v in reversed(finish) if not seen[v]]
    components.reverse()
    return components


def scc(g: DirectedGraph) -> SccPartition:
    succ = [g.successors(v) for v in range(g.n)]
    pred = [g.predecessors(v) for v in range(g.n)]
    components = _components(succ, pred, bytearray(g.n))
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
