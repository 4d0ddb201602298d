"""Strongly connected components (Kosaraju-Sharir), the condensation DAG,
and exactly the strong articulation points and bridges, with what each cuts off.

Pass 1 is the iterative postorder DFS the dominator passes also run;
pass 2 is a flood fill over predecessors. Traversal order is pinned to
ascending vertex ids and list order of successors, so output is
deterministic for a given graph. Components come out in reverse
topological order of the condensation, the order in which Tarjan's
algorithm would emit them. The pass runs over adjacency lists with a
dead-node mask, so the SCCs of a graph minus some nodes come without
rebuilding the graph. The dominator trees of a digraph and of its reverse
are computed once per graph and kept on it. An undirected graph, read as
its doubled digraph, gets one lowpoint DFS instead (Hopcroft & Tarjan
1973), also kept on it: its strong articulation points and bridges are
its articulation points and both arcs of its bridges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .graphs import DirectedGraph, Graph, UndirectedGraph, _sorted_lists


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
    pass 2 collects, for each unseen node in reverse finish order, what it
    reaches over ``pred`` among unseen nodes. That node is its component's
    first-discovered one, so pass 2 meets the components in decreasing
    finish time of it, the reverse of the order Tarjan's algorithm emits
    them in."""
    seen = bytearray(dead)
    finish: List[int] = []
    root = seen.find(0)  # live roots ascending, found at C speed
    while root >= 0:
        finish += _postorder(root, succ, seen)
        root = seen.find(0, root + 1)
    seen, components = bytearray(dead), []
    for v in reversed(finish):
        if not seen[v]:
            seen[v], comp = 1, [v]
            for x in comp:  # comp grows while it is read
                for w in pred[x]:
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            components.append(comp)
    components.reverse()
    return components


def _dominators(
    succ: Sequence[Sequence[int]], pred: Sequence[Sequence[int]]
) -> Optional[List[int]]:
    """Immediate dominators from node 0 (iterative Cooper-Harvey-Kennedy
    on a reverse postorder), node 0's being itself. None if some node is
    unreachable."""
    order = _postorder(0, succ, bytearray(len(succ)))
    if len(order) < len(succ):
        return None
    po = [0] * len(succ)
    for i, v in enumerate(order):
        po[v] = i
    idom = [-1] * len(succ)  # -1: not yet processed
    idom[0] = 0
    rpo = order[-2::-1]
    changed = True
    while changed:
        changed = False
        for v in rpo:
            new = -1
            for p in pred[v]:
                if idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                a = p
                while a != new:
                    while po[a] < po[new]:
                        a = idom[a]
                    while po[new] < po[a]:
                        new = idom[new]
            if idom[v] != new:
                idom[v] = new
                changed = True
    return idom


def _tree(idom: Sequence[int]) -> Tuple[List[int], List[int], List[int]]:
    """(order, pos, lo): a postorder of the dominator tree ``idom`` and
    each node's index in it; v's subtree is ``order[lo[v]:pos[v] + 1]``."""
    n = len(idom)
    kids: List[List[int]] = [[] for _ in idom]
    for v in range(1, n):
        kids[idom[v]].append(v)
    order = _postorder(0, kids, bytearray(n))
    pos, size = [n - 1] * n, [1] * n  # the root comes last
    for i, v in enumerate(order[:-1]):
        pos[v] = i
        size[idom[v]] += size[v]  # v comes after all of its subtree
    return order, pos, [p - s + 1 for p, s in zip(pos, size)]


def _dominator_trees(g: DirectedGraph) -> Optional[Tuple[Tuple, Tuple]]:
    """(idom, ``_tree(idom)``) for the dominator trees of g and of its
    reverse from node 0, or None if some node is unreachable. Computed
    once per graph and kept on it, since graphs are immutable."""
    if not hasattr(g, "_doms"):
        succ = [g.successors(v) for v in range(g.n)]
        pred = [g.predecessors(v) for v in range(g.n)]
        trees = []
        for out, into in ((succ, pred), (pred, succ)):
            idom = _dominators(out, into)
            if idom is None:
                g._doms = None
                break
            trees.append((idom, _tree(idom)))
        else:
            g._doms = tuple(trees)
    return g._doms


def _lowpoints(u: UndirectedGraph) -> Tuple[List[int], ...]:
    """(order, num, low, parent, size) of an iterative DFS of the connected
    u from node 0 (Hopcroft & Tarjan 1973): the preorder, each node's index
    in it, the least index a non-tree edge from its subtree reaches (its
    own at most), its tree parent (-1 at the root) and its subtree size,
    so v's subtree is ``order[num[v]:num[v] + size[v]]``. The tree edge to
    the parent is skipped every time it is met, which is once because u is
    simple. Computed once per graph and kept on it."""
    if not hasattr(u, "_doms"):
        adj, n = u._adj, u.n
        num, low, parent, size, order = [-1] * n, [0] * n, [-1] * n, [1] * n, [0]
        num[0], stack = 0, [(0, iter(adj[0]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if num[w] < 0:
                    num[w] = low[w] = len(order)
                    parent[w] = v
                    order.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                if num[w] < low[v] and w != parent[v]:
                    low[v] = num[w]
            else:
                stack.pop()
                size[v] = len(order) - num[v]
                p = parent[v]
                if p >= 0 and low[v] < low[p]:
                    low[p] = low[v]
        u._doms = order, num, low, parent, size
    return u._doms


def _candidates(g: Graph) -> Iterator[Tuple[int, Iterable[int]]]:
    """(c, away) for the strong articulation points c of the strongly
    connected g with n >= 3, ascending. ``away`` is what g - c cuts off
    from one SCC of the rest: for the root, node 0, every part of g - 0
    but a largest. It is read once, may repeat a vertex, and costs nothing
    until read, so counting the candidates is cheap. On a digraph: the
    root when one masked pass finds g - 0 split, then the non-trivial
    dominators of g and of its reverse from the root (Italiano, Laura &
    Santaroni 2012), each with its proper descendants in both trees, cut
    off from the root. On an UndirectedGraph (``_lowpoints``): the root
    when it has two or more children, each a part; any other c when some
    child w has low[w] >= num[c], cutting off the subtrees of those w."""
    if isinstance(g, UndirectedGraph):
        order, num, low, parent, size = _lowpoints(g)
        cut = {}
        for w in order[1:]:
            if low[w] >= num[parent[w]]:
                cut.setdefault(parent[w], []).append(w)
        for c, kids in sorted(cut.items()):
            if c == 0:
                if len(kids) < 2:
                    continue
                kids = sorted(kids, key=size.__getitem__)[:-1]
            yield c, chain.from_iterable(order[num[w]:num[w] + size[w]] for w in kids)
        return
    lists = [[g.successors(v) for v in range(g.n)], [g.predecessors(v) for v in range(g.n)]]
    parts = sorted(_components(*lists, bytearray([1]) + bytes(g.n - 1)), key=len)
    if len(parts) > 1:
        yield 0, chain.from_iterable(parts[:-1])
    trees = _dominator_trees(g)
    for c in sorted({*trees[0][0], *trees[1][0]} - {0}):
        yield c, chain(*[map(order.__getitem__, range(lo[c], pos[c]))
                         for _, (order, pos, lo) in trees])


def _bridges(g: Graph) -> Iterator[Tuple[Tuple[int, int], set]]:
    """(arc, away) for the strong bridges of the strongly connected g, in
    sorted order. On a digraph, the bridges of the flow graphs of g and its
    reverse from node 0 (Italiano, Laura & Santaroni 2012): a root path
    enters v first from a node v does not dominate, each reachable without
    v, so if u is the only one, (u, v) cuts off v's subtree; ``away`` joins
    both trees'. On an UndirectedGraph (``_lowpoints``), both arcs of each
    tree edge (p, w) with low[w] > num[p], each cutting off w's subtree."""
    found = {}
    if isinstance(g, UndirectedGraph):
        order, num, low, parent, size = _lowpoints(g)
        for w in order[1:]:
            p = parent[w]
            if low[w] > num[p]:
                found[p, w] = found[w, p] = set(order[num[w]:num[w] + size[w]])
    else:
        for flip, (_, (order, pos, lo)) in enumerate(_dominator_trees(g)):
            into = g.successors if flip else g.predecessors
            for v in range(1, g.n):
                outside = [u for u in into(v) if not lo[v] <= pos[u] <= pos[v]]
                if len(outside) == 1:
                    arc = (v, outside[0]) if flip else (outside[0], v)
                    found.setdefault(arc, set()).update(order[lo[v]:pos[v] + 1])
    yield from sorted(found.items())


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
    comp = part.component_of
    arcs = {(comp[u], comp[v]) for u, v in g.sorted_edges() if comp[u] != comp[v]}
    sizes = [len(c) for c in part.components]
    dag = DirectedGraph._from_sorted(*_sorted_lists(len(sizes), arcs))
    return Condensation(dag=dag, sizes=sizes)
