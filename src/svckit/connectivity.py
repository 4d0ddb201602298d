"""Strong vertex/edge connectivity of digraphs and exhaustive enumeration
of all minimum weakening sets.

sigma0 (strong vertex connectivity) is the minimum number of vertices
whose removal leaves a graph that is not strongly connected or has one
vertex; sigma1 (strong edge connectivity) is the edge analogue. Both are
computed from unit-capacity max-flow on one flow network per graph, with
pruning: a running best value caps every flow and a scan stops at 1 (or
at degree bound 2 runs the k = 1 pass below, no flow). The
vertex case (sigma0, and zeta0 on the underlying graph read as its own
doubled digraph) runs Even's (1975) pairs on the vertices by descending
d+ + d- (every order is exact; the order only sets the speed): the
non-arc pairs among v_1 .. v_p (p >= best), then x -> v_j and
v_j -> y for j > p, x and y joined to v_1 .. v_{j-1}. A separator S with
|S| < best misses a prefix vertex: two outside S lie in different SCCs of
G - S, and a first pair crosses S, or all lie in one, C, and S cuts x from
the first v_j outside S + C, or v_j from y. A cut of fewer than j - 1
vertices spares a prefix vertex, so it is a separator. The edge case runs
them with p = 1 on the arc network (Hao & Orlin 1994): a minimum cut
delta+(T) cuts x from the first v_j outside T if v_1 is in T, else the
first v_j in T from y, and x's and y's arcs are never cut. It runs both
ways on an UndirectedGraph too: one way gives the value, not every cut.

Minimum vertex and edge sets at k = 1 come from one dominator pass: the
strong articulation points of G are the non-trivial dominators of G and
of its reverse from one root, plus the root if G - root splits, and the
strong bridges, O(m) over n nodes, are the bridges of those flow graphs
(Italiano, Laura & Santaroni 2012). The two trees are computed once per
graph, so the degree-bound-2 scans and the listing share them. An
undirected graph, where only zeta0 and zeta1 ask, needs no tree: one
lowpoint DFS (Hopcroft & Tarjan 1973), also kept on the graph, gives its
articulation points and bridges. A set is sized from the subtrees it cuts
off: G - c is the root's SCC plus the SCCs among them (Georgiadis,
Italiano & Parotsidis 2017). Sets at k = sigma >= 2 are the minimum cuts
of the pairs that reach sigma (prefix pairs with p = k + 1 for vertices,
p = 1 for edges), listed from each pair's residual network by the lister both
flow networks share (Picard & Queyranne 1980): one flow capped at k + 1
per pair plus O(m) per cut, each sized by a full Kosaraju pass over the
vertex lists; no graph is rebuilt. Every listed set weakens G by
construction (``_listed``), so the degree-bound-2 scans size none.

The public functions check strong connectivity; the cores ``_svc`` and
``_sec`` do not, for inputs strongly connected by construction: g and U(g)
in ``report`` once ``stats`` found a diameter, and decomposition nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from .graphs import (
    DirectedGraph,
    Graph,
    GraphInputError,
    GraphStats,
    PreconditionError,
    UndirectedGraph,
    induced,
    stats,
    underlying,
)
from .flow import EdgeFlowNetwork, VertexFlowNetwork, _Network
from .scc import _bridges, _candidates, _components, is_strongly_connected, scc


@dataclass(frozen=True)
class WeakeningSet:
    """A certified minimum weakening set.

    ``members`` are vertex ids (kind="vertex") or edges (kind="edge");
    ``resulting_scc_sizes`` is the multiset of SCC sizes after removal,
    sorted descending.
    """

    kind: str
    members: Tuple
    resulting_scc_sizes: Tuple[int, ...]


class WitnessList(list):
    """List of WeakeningSet with a flag marking truncated enumeration."""

    capped: bool = False


@dataclass
class ConnectivityReport:
    sigma0: Optional[int]
    sigma1: Optional[int]
    zeta0_underlying: Optional[int]
    zeta1_underlying: Optional[int]
    vertex_witnesses: List[WeakeningSet]
    edge_witnesses: List[WeakeningSet]
    witness_counts: Optional[Tuple[int, int]]
    stats: GraphStats
    flags: List[str] = field(default_factory=list)
    component_reports: List["ConnectivityReport"] = field(default_factory=list)
    component_vertices: List[List[int]] = field(default_factory=list)


class EnumerationGuardError(RuntimeError):
    """Enumeration of size-k subsets was refused without explicit opt-in."""


def _require_strong(g: Graph) -> None:
    if g.n < 2:
        raise PreconditionError(f"graph must have >= 2 vertices, got {g.n}")
    if not is_strongly_connected(g):
        raise PreconditionError("graph is not strongly connected")


def local_sigma(g: DirectedGraph, u: int, v: int) -> int:
    """min(MF(u,v), MF(v,u)) over internally-disjoint path counts; a
    direction with a direct edge contributes n-1 (no separating cut)."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphInputError(f"pair ({u}, {v}) outside [0, {g.n})")
    if u == v:
        raise GraphInputError("vertices must differ")
    _require_strong(g)
    pairs = [(a, b) for a, b in ((u, v), (v, u)) if not g.has_edge(a, b)]
    return _min_flow(VertexFlowNetwork(g), pairs, g.n - 1, 0)[0]


def _degrees(g: Graph) -> List[int]:
    return [len(a) for v in range(g.n) for a in (g.successors(v), g.predecessors(v))]


def _vertex_upper_bound(g: Graph) -> int:
    # removing all out- (or in-) neighbours of v is a weakening set
    # whenever at least 2 vertices survive
    return min([d for d in _degrees(g) if d <= g.n - 2], default=g.n - 1)


def _min_flow(net, pairs: Iterable[Tuple[int, int]], best: int,
              lower: int) -> Tuple[int, Optional[Tuple]]:
    """min(best, min flow over ``pairs`` on the flow network ``net``) and
    the cut of the first pair that went below best (None if none did).
    Flows run unchecked, capped at the running best, so vertex flows need
    valid pairs that are not arcs; only a flow below best reads its cut.
    The loop stops once it reaches ``lower``."""
    cut, run = None, net._run
    for a, b in pairs:
        value, parent, _, _ = run(a, b, best)
        if parent is not None:
            best, cut = value, net._cut(parent)
            if best <= lower:
                break
    return best, cut


def _degree_order(g: Graph) -> List[int]:
    """Vertices by descending d+ + d-, ties to the lowest id."""
    return sorted(range(g.n), key=lambda v: -(len(g.successors(v)) + len(g.predecessors(v))))


def _prefix_pairs(net: _Network, p: int) -> Iterator[Tuple[int, int]]:
    """Even's pairs on ``_degree_order``, vertex n naming x and y: each
    non-arc pair among the first p vertices, then (n, v) and (v, n) for each
    later v, enabled after its pairs; one way on an UndirectedGraph's split
    network."""
    g, order = net.g, _degree_order(net.g)
    ways = 2 - (isinstance(g, UndirectedGraph) and net.split == 2)
    for j, v in enumerate(order):
        yield from ((a, b) for u in order[:j] for a, b in ((u, v), (v, u))[:ways]
                    if not g.has_edge(a, b)) if j < p else ((g.n, v), (v, g.n))[:ways]
        net.enable(v)


def _network(g: Graph, kind: str, p: int) -> Tuple:
    """A flow network of g and its prefix pairs, on p prefix vertices for
    vertex cuts and on one for edge cuts (Hao & Orlin 1994)."""
    net = VertexFlowNetwork(g) if kind == "vertex" else EdgeFlowNetwork(g)
    return net, _prefix_pairs(net, p if kind == "vertex" else 1)


def vertex_pair_scan(g: DirectedGraph, k: int) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """A minimum vertex cut when k = sigma0: the value and cut of the first
    pair whose vertex flow is at most k (k + 1 and None if none is). Pairs
    follow the Even-Tarjan order: sources 0..k+1 (a k-cut misses one of
    them), each against the targets above it in both directions, arcs
    skipped."""
    pairs = ((a, b) for s in range(k + 2) for t in range(s + 1, g.n)
             for a, b in ((s, t), (t, s)) if not g.has_edge(a, b))
    return _min_flow(VertexFlowNetwork(g), pairs, k + 1, k)


def _scan(g: Graph, kind: str, best: int) -> int:
    """1 at degree bound 1; at 2, 1 iff the k = 1 lister yields a set; else flows."""
    if best <= 2:
        return 1 if best == 1 or any(_listed(g, kind, 1, False)) else 2
    return _min_flow(*_network(g, kind, best), best, 1)[0]


def _svc(g: Graph) -> int:
    """sigma0 of g, taken as strongly connected with n >= 2, unchecked."""
    return _scan(g, "vertex", _vertex_upper_bound(g))


def _sec(g: Graph) -> int:
    """sigma1 of g, taken as strongly connected with n >= 2, unchecked."""
    return _scan(g, "edge", min(_degrees(g)))


def svc(g: DirectedGraph) -> int:
    """sigma0: strong vertex connectivity. n-1 for the complete
    bidirected graph (one-vertex clause of the definition). The minimum
    flow over ``_prefix_pairs``, from the degree bound (``_scan``)."""
    _require_strong(g)
    return _svc(g)


def sec(g: Graph) -> int:
    """sigma1: strong edge connectivity. The minimum arc-network flow over
    ``_prefix_pairs`` on one prefix vertex, from the degree bound
    (``_scan``): at most 2(n - 1) flows, most settled by packing short
    paths. An UndirectedGraph is read as its doubled digraph."""
    _require_strong(g)
    return _sec(g)


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and limit < 1:
        raise GraphInputError(f"limit must be >= 1, got {limit}")


def _listed(g: Graph, kind: str, k: int, allow_large: bool) -> Iterable[Tuple]:
    """(members, away), unsized, for every k-subset (k = sigma) of vertices
    (or of sorted edges) whose removal leaves g with one vertex or not
    strongly connected, in lexicographic order. k >= 3 raises
    EnumerationGuardError unless ``allow_large``. Each weakens g by
    construction: an (n-1)-subset of the complete bidirected graph (also
    n = 2) leaves one vertex; a strong articulation point (``_candidates``)
    or bridge (``_bridges``) cuts ``away`` off; a minimum cut (``min_cuts``,
    de-duplicated and sorted, ``away`` None) of a ``_prefix_pairs`` pair
    spares a prefix vertex that then misses the pair's far end: an edge cut
    spares every vertex, and a vertex cut one of k + 1 prefix vertices."""
    if k >= 3 and not allow_large:
        name = "sigma0" if kind == "vertex" else "sigma1"
        raise EnumerationGuardError(
            f"{name}={k}: subset enumeration needs allow_large=True"
        )
    if kind == "vertex" and k == g.n - 1:
        return ((w, None) for w in itertools.combinations(range(g.n), k))
    if k == 1:
        return (((c,), away) for c, away in
                (_candidates if kind == "vertex" else _bridges)(g))
    net, pairs = _network(g, kind, k + 1)
    return [(cut, None) for cut in sorted({
        cut for a, b in pairs for cut in net.min_cuts(a, b, k)})]


def _weakening_sets(
    g: Graph, kind: str, k: int, limit: Optional[int], allow_large: bool
) -> WitnessList:
    """The ``_listed`` sets up to ``limit``, each sized by one Kosaraju pass
    over the vertex lists masked to its ``away`` (every live vertex if
    None), the rest being one SCC; an edge set's arcs are left out of
    copies of the lists they touch. A set that does not weaken g raises."""
    succ = [g.successors(v) for v in range(g.n)]
    pred = [g.predecessors(v) for v in range(g.n)]
    out = WitnessList()
    for members, away in _listed(g, kind, k, allow_large):
        s, p = succ, pred
        if kind == "edge":
            s, p = succ[:], pred[:]
            for u, v in members:
                s[u] = [w for w in s[u] if w != v]
                p[v] = [w for w in p[v] if w != u]
        dead = bytearray(b"\x01") * g.n
        for v in set(range(g.n)).difference(members) if away is None else away:
            dead[v] = 0
        rest = (g.n - k if kind == "vertex" else g.n) - dead.count(0)  # one SCC
        sizes = [len(c) for c in _components(s, p, dead)] + [rest] * (rest > 0)
        sizes.sort(reverse=True)
        if len(sizes) == 1 and sizes[0] > 1:
            raise AssertionError(f"listed {kind} set {members} leaves g strongly connected")
        out.append(WeakeningSet(kind, members, tuple(sizes)))
        if limit is not None and len(out) >= limit:
            out.capped = True
            return out
    return out


def weakening_vertex_sets(
    g: DirectedGraph,
    limit: Optional[int] = None,
    allow_large: bool = False,
) -> WitnessList:
    """All vertex subsets of size sigma0 whose removal breaks strong
    connectivity (or leaves one vertex), in lexicographic order.

    At sigma0 = 1 enumeration costs one strong articulation point pass
    (dominator trees of g and its reverse, O(m), and an SCC pass for the
    root), each set sized over what it cuts off. At k = sigma0 >= 2 it
    costs one split-network flow capped at k + 1 per prefix pair (at most
    k(k + 1) + 2(n - k - 1) pairs, most settled by packing short paths),
    plus O(m) per minimum cut of a pair, from its residual network, and a
    full O(m) SCC pass per cut; ``limit`` caps the sizing, not that listing.
    sigma0 >= 3 needs allow_large=True.
    """
    _check_limit(limit)
    return _weakening_sets(g, "vertex", svc(g), limit, allow_large)


def weakening_edge_sets(
    g: DirectedGraph,
    limit: Optional[int] = None,
    allow_large: bool = False,
) -> WitnessList:
    """All edge subsets of size sigma1 whose removal breaks strong
    connectivity, in lexicographic order of sorted members.

    At sigma1 = 1 enumeration costs one strong bridge pass (dominator
    trees of g and its reverse, O(m) over n nodes) and an SCC pass per
    bridge over the vertices it cuts off. At k = sigma1 >= 2 it costs one
    arc-network flow capped at k + 1 per prefix pair on one prefix vertex
    (2(n - 1) pairs, most settled by packing short paths), plus O(m) per
    minimum cut of a pair, from its residual network (Picard & Queyranne
    1980), and a full O(m) SCC pass per cut; ``limit`` caps the sizing,
    not that listing. sigma1 >= 3 needs allow_large=True.
    """
    _check_limit(limit)
    return _weakening_sets(g, "edge", sec(g), limit, allow_large)


def undirected_vertex_connectivity(d: UndirectedGraph) -> int:
    """Classical zeta0 as sigma0 of the doubled digraph, which ``d``'s
    neighbour lists already are, so no copy is built. There MF(a, b) =
    MF(b, a): each prefix pair runs one way (``_scan``). Disconnected -> 0."""
    if d.n < 2 or not d.is_connected():
        return 0
    return _svc(d)


def undirected_edge_connectivity(d: UndirectedGraph) -> int:
    """Classical zeta1 as sec of ``d`` read as its doubled digraph: a
    minimum directed cut of the doubling counts exactly the undirected
    edges crossing a bipartition (``_scan``). Disconnected -> 0."""
    if d.n < 2 or not d.is_connected():
        return 0
    return _sec(d)


def report(
    g: DirectedGraph,
    enumerate_witnesses: bool = False,
    limit: Optional[int] = None,
    allow_large: bool = False,
) -> ConnectivityReport:
    """One-graph summary: sigma0/sigma1, underlying zeta0/zeta1, witness
    census (when requested) and stats.

    A graph that is not strongly connected gets a flagged partial report
    with one sub-report per nontrivial SCC. Once ``stats`` has found a
    diameter, g is strongly connected and U(g) connected, so the values
    come from ``_svc``/``_sec`` without another SCC pass.
    """
    _check_limit(limit)
    rep = ConnectivityReport(
        sigma0=None, sigma1=None, zeta0_underlying=None, zeta1_underlying=None,
        vertex_witnesses=[], edge_witnesses=[], witness_counts=None, stats=stats(g),
    )
    if g.n < 2:
        rep.flags.append("degenerate")
        return rep
    if rep.stats.diameter is None:  # not strongly connected
        rep.flags.append("not-strongly-connected")
        for comp in scc(g).components:  # each sorted ascending
            if len(comp) >= 2:
                sub, _ = induced(g, comp)
                rep.component_reports.append(
                    report(sub, enumerate_witnesses, limit, allow_large))
                rep.component_vertices.append(comp)
        return rep

    rep.sigma0, rep.sigma1 = _svc(g), _sec(g)
    und = underlying(g)
    rep.zeta0_underlying, rep.zeta1_underlying = _svc(und), _sec(und)
    if enumerate_witnesses:
        try:
            vw = _weakening_sets(g, "vertex", rep.sigma0, limit, allow_large)
            ew = _weakening_sets(g, "edge", rep.sigma1, limit, allow_large)
        except EnumerationGuardError as exc:
            rep.flags.append(f"enumeration-skipped: {exc}")
        else:
            rep.vertex_witnesses, rep.edge_witnesses = list(vw), list(ew)
            rep.witness_counts = (len(vw), len(ew))
            if vw.capped or ew.capped:
                rep.flags.append("enumeration-capped")
    return rep
