"""Directed and undirected graph types plus the structural transforms
(underlying graph, doubling, deletion, induced subgraphs, basic stats)
that the rest of the toolkit builds on.

Graphs are simple (no self-loops, no parallel edges) and immutable after
construction, so what is derived from one can be kept on it: the slot
``_doms`` holds its dominator trees once ``scc._dominator_trees`` asks.
An ``UndirectedGraph`` reads as its own doubled digraph: its sorted
neighbour lists are both the successor and the predecessor lists of the
copy ``doubled`` builds, so the directed scans run on it without one.

A graph is its sorted adjacency lists. Validation happens where input
enters, in the public constructors and ingestion; what is valid by
construction (ingested or derived graphs) comes from ``_from_sorted`` and
is not validated or sorted again. Every graph's ``edges`` set is built on
first read; ``m`` reads the list lengths and ``has_edge`` bisects a list.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple


class GraphInputError(ValueError):
    """An argument is outside the operation's input domain."""


class PreconditionError(RuntimeError):
    """The graph does not satisfy the operation's precondition
    (typically: not strongly connected, or too small)."""


Edge = Tuple[int, int]


def _checked_edges(n: int, edges: Iterable[Edge]) -> Iterator[Edge]:
    """``edges`` as (u, v) pairs, after the checks both graph types make:
    n >= 0, endpoints in [0, n), no self-loop."""
    if n < 0:
        raise GraphInputError(f"vertex count must be non-negative, got {n}")
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge {e!r} has endpoint outside [0, {n})")
        if u == v:
            raise GraphInputError(f"self-loop {e!r} not allowed")
        yield u, v


def _sorted_lists(n: int, arcs: Iterable[Edge]) -> Tuple[List[List[int]], List[List[int]]]:
    """The sorted successor and predecessor lists of n vertices joined by
    these distinct arcs, as ``_from_sorted`` takes them."""
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
        pred[v].append(u)
    for lst in succ + pred:
        lst.sort()
    return succ, pred


def _in_sorted(a: List[int], v: int) -> bool:
    i = bisect_left(a, v)
    return i < len(a) and a[i] == v


class DirectedGraph:
    """Simple digraph on dense vertex ids 0..n-1.

    Edges are ordered pairs. A self-loop is rejected at construction and a
    repeated edge counts once (ingestion drops both before getting here).
    Optional ``vertex_labels`` keeps external names for human-readable
    reports.
    """

    __slots__ = ("n", "_edges", "vertex_labels", "_succ", "_pred", "_doms")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        vertex_labels: Optional[Mapping[int, str]] = None,
    ):
        arcs = set(_checked_edges(n, edges))
        if vertex_labels is not None:
            for k in vertex_labels:
                if not (0 <= k < n):
                    raise GraphInputError(f"label key {k} outside [0, {n})")
            vertex_labels = dict(vertex_labels)
        self.n, self._edges, self.vertex_labels = n, None, vertex_labels
        self._succ, self._pred = _sorted_lists(n, arcs)

    @classmethod
    def _from_sorted(cls, succ, pred, vertex_labels=None) -> "DirectedGraph":
        """The graph on these checked, sorted lists, taken as they are."""
        g = cls.__new__(cls)
        g.n, g._edges, g.vertex_labels = len(succ), None, vertex_labels
        g._succ, g._pred = succ, pred
        return g

    @property
    def edges(self) -> FrozenSet[Edge]:
        if self._edges is None:  # built on first read
            self._edges = frozenset(self.sorted_edges())
        return self._edges

    @property
    def m(self) -> int:
        return sum(map(len, self._succ))

    def successors(self, u: int):
        return self._succ[u]

    def predecessors(self, u: int):
        return self._pred[u]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and _in_sorted(self._succ[u], v)

    def label(self, u: int) -> str:
        if self.vertex_labels is not None and u in self.vertex_labels:
            return self.vertex_labels[u]
        return str(u)

    def sorted_edges(self):
        return [(u, v) for u in range(self.n) for v in self._succ[u]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self._succ == other._succ and self.vertex_labels == other.vertex_labels

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, m={self.m})"


class UndirectedGraph:
    """Simple undirected graph; its ``edges`` are (min, max) pairs.

    ``successors``, ``predecessors`` and ``has_edge`` read it as its
    doubled digraph, with the same sorted lists as ``doubled`` gives."""

    __slots__ = ("n", "_edges", "_adj", "_doms")

    def __init__(self, n: int, edges: Iterable[Edge]):
        # on (min, max) pairs, v's predecessors are its smaller neighbours
        larger, smaller = _sorted_lists(n, {(min(e), max(e)) for e in _checked_edges(n, edges)})
        self.n, self._edges = n, None
        self._adj = [a + b for a, b in zip(smaller, larger)]

    @classmethod
    def _from_sorted(cls, adj) -> "UndirectedGraph":
        """The graph on these checked, sorted lists, taken as they are."""
        d = cls.__new__(cls)
        d.n, d._edges, d._adj = len(adj), None, adj
        return d

    @property
    def edges(self) -> FrozenSet[Edge]:
        if self._edges is None:  # built on first read
            self._edges = frozenset((u, v) for u, a in enumerate(self._adj) for v in a if u < v)
        return self._edges

    @property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    def neighbors(self, u: int):
        return self._adj[u]

    successors = predecessors = neighbors

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and _in_sorted(self._adj[u], v)

    def is_connected(self) -> bool:
        # connected exactly when the doubled digraph is strongly connected
        from .scc import is_strongly_connected

        return is_strongly_connected(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


# what the scans read: n, sorted successors/predecessors and has_edge. Not
# typing.Union, whose cache would keep every imported copy of this module alive.
Graph = DirectedGraph | UndirectedGraph


@dataclass(frozen=True)
class GraphStats:
    """Per-graph statistics. Degree min/max are underlying-undirected;
    in/out are directed. ``diameter`` is None when some ordered pair is
    unreachable (graph not strongly connected)."""

    n: int
    m: int
    min_degree: int
    max_degree: int
    min_in: int
    max_in: int
    min_out: int
    max_out: int
    diameter: Optional[int]


def underlying(g: DirectedGraph) -> UndirectedGraph:
    """U(g): keep an undirected edge wherever at least one arc exists
    (each neighbour list is the sorted union of successors and predecessors)."""
    return UndirectedGraph._from_sorted(
        [sorted({*g.successors(v), *g.predecessors(v)}) for v in range(g.n)])


def doubled(d: UndirectedGraph) -> DirectedGraph:
    """D(d): replace each undirected edge by two opposite arcs, as a
    DirectedGraph on d's lists (``d`` itself already reads as this digraph)."""
    return DirectedGraph._from_sorted(d._adj, d._adj)


def remove_vertices(
    g: DirectedGraph, s: Iterable[int]
) -> Tuple[DirectedGraph, Dict[int, int]]:
    """g - s. Returns the remapped graph and the old-id -> new-id map
    (decomposition bookkeeping needs it). Surviving ids keep their
    relative order."""
    gone = set(_checked_ids(g, s))
    return induced(g, [v for v in range(g.n) if v not in gone])


def remove_edges(g: DirectedGraph, s: Iterable[Edge]) -> DirectedGraph:
    """g - s for a set of g's edges; vertex set unchanged."""
    gone = set()
    for e in map(tuple, s):  # each member, before (True, 2) merges into (1, 2)
        if not (len(e) == 2 and all(map(_is_id, e)) and g.has_edge(*e)):
            raise GraphInputError(f"edge {e!r} not present in graph")
        gone.add(e)
    succ = [[v for v in a if (u, v) not in gone] for u, a in enumerate(g._succ)]
    pred = [[u for u in a if (u, v) not in gone] for v, a in enumerate(g._pred)]
    return DirectedGraph._from_sorted(succ, pred, g.vertex_labels)


def _is_id(v) -> bool:
    """An int and not a bool, which would pass for vertex 0 or 1."""
    return isinstance(v, int) and not isinstance(v, bool)


def _checked_ids(g: Graph, vs: Iterable[int]) -> List[int]:
    """The distinct ids in vs, ascending; each must be an int in [0, n)."""
    ids = list(vs)
    for v in ids:
        if not (_is_id(v) and 0 <= v < g.n):
            raise GraphInputError(f"vertex {v!r} outside [0, {g.n})")
    return sorted(set(ids))


def induced(g: Graph, u: Iterable[int]) -> Tuple[Graph, Dict[int, int]]:
    """g[u]: subgraph induced by vertex set u, with the old->new id map.
    g's sorted lists are filtered through the map, which keeps them
    sorted. An UndirectedGraph gives one too, so U(g)[u] = U(g[u])."""
    keep = _checked_ids(g, u)
    mapping = dict(zip(keep, range(len(keep))))
    new = [mapping.get(v, -1) for v in range(g.n)]

    def sub(lists):
        return [[x for w in lists[v] if (x := new[w]) >= 0] for v in keep]

    if isinstance(g, UndirectedGraph):
        return UndirectedGraph._from_sorted(sub(g._adj)), mapping
    labels = g.vertex_labels and {
        mapping[v]: g.vertex_labels[v] for v in keep if v in g.vertex_labels}
    return DirectedGraph._from_sorted(sub(g._succ), sub(g._pred), labels), mapping


def _diameter(g: DirectedGraph) -> Optional[int]:
    full, reach = (1 << g.n) - 1, [1 << v for v in range(g.n)]
    grown, diameter = set(range(g.n)), -1
    while grown:
        todo = {u for w in grown for u in g._pred[w]}
        if any(reach[v] != full for v in grown - todo):
            return None  # no successor of these grew: their reach is final
        old, grown, diameter = reach[:], set(), diameter + 1
        for v in todo:
            r = old[v]
            for w in g._succ[v]:
                r |= old[w]
            if r != old[v]:
                reach[v] = r
                grown.add(v)
            elif r != full:
                return None
    return diameter


def stats(g: DirectedGraph) -> GraphStats:
    """Degree summary plus directed diameter (None when not strongly
    connected). The underlying degree of v is |N+(v) | N-(v)|. The
    diameter is from a bit-parallel BFS of all sources (after Akiba, Iwata
    & Yoshida 2013): reach[v], an n-bit int, holds the vertices within d
    arcs of v. Level d + 1 ORs level d's reach[w], w in N+(v), into
    reach[v] for the predecessors v of the vertices that grew: at most
    n + m ORs of n bits. The diameter counts the levels at which some reach
    grew. A reach that did not or cannot grow is final, and the first final
    one that is not full gives None. Memory: n^2/8 bytes, twice that within
    a level (0.4 MB at n = 1759, 50 MB at n = 20,000)."""
    if g.n == 0:
        return GraphStats(0, 0, 0, 0, 0, 0, 0, 0, None)
    udeg = [len(set(s).union(p)) for s, p in zip(g._succ, g._pred)]
    indeg, outdeg = list(map(len, g._pred)), list(map(len, g._succ))
    return GraphStats(
        n=g.n,
        m=g.m,
        min_degree=min(udeg),
        max_degree=max(udeg),
        min_in=min(indeg),
        max_in=max(indeg),
        min_out=min(outdeg),
        max_out=max(outdeg),
        diameter=_diameter(g),
    )
