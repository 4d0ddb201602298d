"""Unit-capacity max-flow primitives: counts of edge-disjoint and
internally-vertex-disjoint paths between a vertex pair, with a minimum-cut
certificate and an optional cap at which the search stops early.

A graph's flow network (``VertexFlowNetwork``, ``EdgeFlowNetwork``) is
built at most once, by the first flow that needs it, with a template of
its capacities; a flow that augments starts from a fresh copy of the
template, so any number of pairs can run on one network.
``vertex_max_flow`` and ``edge_max_flow`` are one-shot wrappers over these
networks. A network takes any graph with ``n``, sorted ``successors``
lists and ``has_edge``: a ``DirectedGraph``, or an ``UndirectedGraph``
read as its doubled digraph.

Both networks are one class, ``_Network``, with one build, one packing,
one ``flow`` and one minimum-cut lister, ``min_cuts``, which lists each
minimum cut of a pair once from its final residual network. Only whether
vertices are split differs. The split network uses the standard
splitting transform (w -> w_in -> w_out with capacity 1 on the internal
arc, its cut item), so the flow counts internally disjoint paths; the arc
network cuts edges, in sorted order. Both join a super source x and sink y
to each vertex once it is enabled (Even 1975), by arcs no minimum cut
takes.

A flow packs disjoint paths s -> a -> t, then s -> a -> b -> t, then, for
a capped flow still short, s -> a -> b -> c -> t, from the adjacency
lists, and augments only for the rest (Even & Tarjan 1975); a flow the
packing settles copies and builds nothing. Values and cuts do
not depend on the starting flow: a saturated flow only certifies its cap,
and every maximum flow leaves the same set reachable from s in its
residual network, where the cut is read.

Pairs are checked once, by the one-shot wrappers; the networks take valid
pairs (distinct, in range, no arc s -> t for vertex flows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .graphs import Graph, GraphInputError


@dataclass(frozen=True)
class FlowAnswer:
    """Result of a single s-t computation.

    ``value`` is the disjoint-path count, ``cut`` the certifying minimum
    cut (edges in edge mode, vertices in vertex mode). When ``saturated``
    the search stopped at the caller's cap: value == cap and no cut is
    extracted.
    """

    value: int
    cut: Tuple
    saturated: bool


class _Network:
    """Fixed arc structure plus template capacities, built by the first
    flow its packing leaves short. Arc ``2i`` is a forward arc and
    ``2i + 1`` its residual reverse (template capacity 0); forward arc
    ``2i`` cuts ``items[i]`` when it has one. Vertex v is node ``split*v``
    going in and ``split*v + split - 1`` going out, y is node ``split*n``
    and x node ``split*n + 1``."""

    def __init__(self, g: Graph):
        self.g, self.on, self.to = g, bytearray(g.n), []
        self.items = range(g.n) if self.split == 2 else [
            (u, v) for u in range(g.n) for v in g.successors(u)]

    def _build(self) -> None:
        """The internal arcs w_in -> w_out (capacity 1), then each edge
        (u, v), in sorted order, as u_out -> v_in: capacity n, which keeps
        every minimum cut on the internal arcs, or 1 with no split."""
        g, n, split = self.g, self.g.n, self.split
        self.head, self.template = [[] for _ in range(split * n + 2)], []
        for w in range(n if split == 2 else 0):
            self._add_arc(2 * w, 2 * w + 1, 1)
        for u in range(n):
            for v in g.successors(u):
                self._add_arc(split * u + split - 1, split * v, n if split == 2 else 1)
        self.xy = len(self.to)  # arc xy + 4v is x -> v_in, xy + 4v + 2 is v_out -> y
        for v in range(n):
            if self.on[v]:
                self.enable(v)

    def enable(self, v: int) -> None:
        """Open v's arcs from x and to y, capacity n, for the flows to
        come: more than any flow into or out of one vertex, so no minimum
        cut takes them."""
        self.on[v], n, split = 1, self.g.n, self.split
        if not self.to:
            return
        if len(self.to) == self.xy:  # first call since the build: every vertex's, closed
            for w in range(n):
                self._add_arc(split * n + 1, split * w, 0)
                self._add_arc(split * w + split - 1, split * n, 0)
        self.template[self.xy + 4 * v] = self.template[self.xy + 4 * v + 2] = n

    def _add_arc(self, u: int, v: int, c: int) -> None:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.template.append(c)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.template.append(0)

    def _max_flow(
        self, cap: List[int], s: int, t: int, limit: Optional[int], flow: int = 0
    ) -> Tuple[int, Optional[List[int]]]:
        """Augment one unit at a time along a shortest residual path
        (capacities are integral), from the ``flow`` units already written
        into ``cap``, stopping at ``limit``. Returns
        (value, None) when the limit was reached, else (value, parent)
        where ``parent[v] != -1`` marks the vertices reachable from s in
        the final residual network."""
        head, to, size = self.head, self.to, len(self.head)
        while True:
            if limit is not None and flow >= limit:
                return limit, None
            parent = [-1] * size
            parent[s] = -2
            queue = [s]
            found = False
            for u in queue:
                for eid in head[u]:
                    if cap[eid]:
                        v = to[eid]
                        if parent[v] == -1:
                            parent[v] = eid
                            if v == t:
                                found = True
                                break
                            queue.append(v)
                if found:
                    break
            if not found:
                return flow, parent
            v = t
            while v != s:
                eid = parent[v]
                cap[eid] -= 1
                cap[eid ^ 1] += 1
                v = to[eid ^ 1]
            flow += 1

    def _start(self, s: int, t: int, limit: Optional[int]) -> Tuple[int, int, List[Tuple[int, ...]]]:
        """From s_out to t_in, after ``_pack``; vertex n names x as a source
        and y as a sink. Takes a valid pair (split: no edge (s, t)). No path
        enters s_in or leaves t_in, so the internal arcs of s and t never
        carry flow or join a cut."""
        return self._out(s), self.split * t, self._pack(s, t, limit)

    def _out(self, v: int) -> int:
        """v's node going out; vertex n names x."""
        return self.split * v + (1 if v == self.g.n else self.split - 1)

    def _pack(self, s: int, t: int, limit: Optional[int]) -> List[Tuple[int, ...]]:
        """Vertex-disjoint paths s -> a -> t, then s -> a -> b -> t, up to
        ``limit``, as vertex tuples, from g's adjacency lists in O(deg^2); from
        x, backwards from t. A free middle vertex ends a path next to t if it
        is a predecessor of t (next to x or y: if it is enabled); s and t,
        maybe an arc s -> t, are no middle. A capped flow still short, with a
        free first hop left for each missing path, then packs
        s -> a -> b -> c -> t in O(deg^3), c != a, since b may be a reciprocal
        neighbour of a. With no split the arc from x or to y cannot be cut, so
        paths may share the vertex next to it, which stays free."""
        g, n = self.g, self.g.n
        step = g.predecessors if s == n else g.successors
        ends = self.on if n in (s, t) else bytearray(n)
        for a in () if n in (s, t) else g.predecessors(t):
            ends[a] = 1
        near, used = step(t if s == n else s), bytearray(n + 1)
        used[s] = used[t] = 1
        paths = [(s, a, t) for a in near if ends[a]][:limit]
        for p in paths:
            used[p[1]] = 1
        share = self.split == 1 and n in (s, t)
        for a in near:
            if len(paths) == limit:
                break
            for b in () if used[a] else step(a):
                if ends[b] and not used[b]:
                    paths.append((s, b, a, t) if s == n else (s, a, b, t))
                    used[a], used[b] = 1, not share
                    break
        if limit is None or len(paths) == limit or sum(not used[a] for a in near) < limit - len(paths):
            return paths
        for a in near:
            if len(paths) == limit:
                break
            for b in () if used[a] else step(a):
                for c in () if used[b] else step(b):
                    if ends[c] and not used[c] and c != a:
                        paths.append((s, c, b, a, t) if s == n else (s, a, b, c, t))
                        used[a], used[b], used[c] = 1, 1, not share
                        break
                if used[a]:
                    break
        return paths

    def _warm(self, paths: List[Tuple[int, ...]]) -> List[int]:
        """A copy of the template with ``paths`` written in: the forward
        arcs u_out -> v_in along each (x -> v_in, u_out -> y), then, on the
        split network, the middles' internal arcs."""
        if not self.to:
            self._build()
        cap, head, to, split = self.template[:], self.head, self.to, self.split
        for p in paths:
            arcs = [e for u, v in zip(p, p[1:]) for e in head[self._out(u)]
                    if to[e] == split * v and not e & 1]
            for e in arcs + [2 * w for w in p[1:-1] if split == 2]:
                cap[e] -= 1
                cap[e ^ 1] += 1
        return cap

    def _run(self, s: int, t: int, limit: Optional[int]) -> Tuple[int, Optional[List[int]], int, List[int]]:
        """``_max_flow`` from the paths ``_start`` packs, then the sink and
        the final capacities; paths that reach the limit settle it alone."""
        if limit is not None and limit < 0:
            raise GraphInputError(f"cap must be non-negative, got {limit}")
        src, snk, paths = self._start(s, t, limit)
        if len(paths) == limit:
            return limit, None, snk, []
        cap = self._warm(paths)
        return (*self._max_flow(cap, src, snk, limit, len(paths)), snk, cap)

    def _cut(self, parent: List[int]) -> Tuple:
        """The items cut by the forward arcs that leave what s reaches in
        the final residual network: all saturated, by max-flow/min-cut."""
        to = self.to
        return tuple(item for i, item in enumerate(self.items)
                     if parent[to[2 * i + 1]] != -1 and parent[to[2 * i]] == -1)

    def flow(self, s: int, t: int, cap: Optional[int] = None) -> FlowAnswer:
        """Maximum number of disjoint s->t paths, with its ``_cut``."""
        value, parent = self._run(s, t, cap)[:2]
        cut = () if parent is None else self._cut(parent)
        return FlowAnswer(value=value, cut=cut, saturated=parent is None)

    def min_cuts(self, s: int, t: int, k: int) -> Iterator[Tuple]:
        """Every minimum s->t cut as the items of delta+(T), in arc order,
        when the s->t flow is at most k; nothing when it exceeds k.

        The minimum cuts are delta+(T) for the sets T that hold the source,
        miss the sink and have no arc leaving them in the final residual
        network (Picard & Queyranne 1980). Many T can give one cut, so each
        cut comes from its least T only: what the source reaches over the
        forward arcs minus the cut, all inside T. Branching on the smallest
        undecided node with a forward arc from T, into T with its residual
        descendants or out with its residual ancestors, ends at exactly
        those T: a residual reverse arc u -> w undoes flow on w -> u, which
        lies on a flow path from the source or a flow cycle through u, both
        inside T. So every leaf is a distinct cut, after O(m) work per node
        (Provan & Shier 1996). T starts as what the flow's last search
        reached. The stack is explicit, since its depth reaches the node
        count."""
        _, parent, snk, cap = self._run(s, t, k + 1)
        if parent is None:
            return
        head, to, items, template = self.head, self.to, self.items, self.template

        def settle(side: List[int], v: int, mark: int) -> List[int]:
            # v with its descendants into T (mark 1), or with its ancestors
            # out (mark -1). Arc eid leaves to[eid ^ 1], so in head[u] the
            # residual arc u -> to[eid] is eid and to[eid] -> u is eid ^ 1
            flip = 0 if mark > 0 else 1
            side = side[:]
            side[v] = mark
            todo = [v]
            for u in todo:
                for eid in head[u]:
                    if not side[to[eid]] and cap[eid ^ flip]:
                        w = to[eid]
                        side[w] = mark
                        todo.append(w)
            return side

        stack = [settle([int(p != -1) for p in parent], snk, -1)]
        while stack:
            side = stack.pop()
            # forward arcs leaving T, in arc order: the cut, or a frontier
            arcs = [eid for u, d in enumerate(side) if d > 0 for eid in head[u]
                    if not eid & 1 and side[to[eid]] <= 0 and template[eid]]
            v = min((to[eid] for eid in arcs if not side[to[eid]]), default=None)
            if v is None:
                yield tuple(items[eid >> 1] for eid in arcs)
            else:
                stack.append(settle(side, v, -1))
                stack.append(settle(side, v, 1))


class VertexFlowNetwork(_Network):
    """Split network of ``g``: its cuts are vertices."""
    split = 2


class EdgeFlowNetwork(_Network):
    """Arc network of ``g``: its cuts are edges, in sorted order."""
    split = 1


def edge_max_flow(
    g: Graph, s: int, t: int, cap: Optional[int] = None
) -> FlowAnswer:
    """Maximum number of pairwise edge-disjoint s->t paths (one-shot
    ``EdgeFlowNetwork(g).flow``)."""
    _check_pair(g.n, s, t)
    return EdgeFlowNetwork(g).flow(s, t, cap)


def vertex_max_flow(
    g: Graph, s: int, t: int, cap: Optional[int] = None
) -> FlowAnswer:
    """Maximum number of internally-vertex-disjoint s->t paths (one-shot
    ``VertexFlowNetwork(g).flow``); an edge (s, t) leaves no vertex cut."""
    _check_pair(g.n, s, t)
    if g.has_edge(s, t):
        raise GraphInputError(f"edge ({s}, {t}) present: no separating vertex cut exists")
    return VertexFlowNetwork(g).flow(s, t, cap)


def _check_pair(n: int, s: int, t: int) -> None:
    if not (0 <= s < n and 0 <= t < n):
        raise GraphInputError(f"vertex pair ({s}, {t}) outside [0, {n})")
    if s == t:
        raise GraphInputError("source and sink must differ")
