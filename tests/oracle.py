"""Brute-force reference implementations for the test suite. This module
lives in ``tests/``, beside ``helpers.py``, and is not part of the installed
``svckit`` package.

Everything here is computed literally from the definitions: reachability
by repeated boolean matrix squaring over bitmask rows, connectivity by
subset enumeration in ascending size. Deliberately slow and deliberately
independent of the flow/scc machinery, so the two paths share no failure
modes. Size guards keep the enumeration honest.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, List, Tuple

from svckit.graphs import DirectedGraph, PreconditionError

_MAX_N = 12
_MAX_SUBSETS = 2_000_000


def _closure(n: int, edges: Iterable[Tuple[int, int]]) -> List[int]:
    # reach[u] = bitmask of vertices reachable from u (including u)
    reach = [1 << u for u in range(n)]
    for u, v in edges:
        reach[u] |= 1 << v
    changed = True
    while changed:
        changed = False
        for u in range(n):
            r = reach[u]
            acc = r
            w = r
            while w:
                low = w & -w
                acc |= reach[low.bit_length() - 1]
                w ^= low
            if acc != r:
                reach[u] = acc
                changed = True
    return reach


def _strong_on(n: int, edges: Iterable[Tuple[int, int]], members: int) -> bool:
    # strong connectivity of the subgraph induced by the bitmask `members`
    count = bin(members).count("1")
    if count == 0:
        return False
    if count == 1:
        return True
    sub_edges = [
        (u, v) for u, v in edges if (members >> u) & 1 and (members >> v) & 1
    ]
    reach = _closure(n, sub_edges)
    for u in range(n):
        if (members >> u) & 1 and (reach[u] & members) != members:
            return False
    return True


def _guard(g: DirectedGraph) -> None:
    if g.n > _MAX_N:
        raise PreconditionError(f"oracle size guard: n={g.n} > {_MAX_N}")


def oracle_is_strongly_connected(g: DirectedGraph) -> bool:
    return _strong_on(g.n, g.edges, (1 << g.n) - 1) if g.n else False


def oracle_scc_ids(g: DirectedGraph) -> List[int]:
    """Component id per vertex from mutual reachability; ids normalized
    by first occurrence."""
    reach = _closure(g.n, g.edges)
    ids = [-1] * g.n
    nxt = 0
    for u in range(g.n):
        if ids[u] != -1:
            continue
        ids[u] = nxt
        for v in range(u + 1, g.n):
            if (reach[u] >> v) & 1 and (reach[v] >> u) & 1:
                ids[v] = nxt
        nxt += 1
    return ids


def oracle_svc(g: DirectedGraph) -> int:
    """Smallest k such that removing some k vertices leaves a graph that
    is not strongly connected or has one vertex."""
    _guard(g)
    n = g.n
    if n < 2 or not oracle_is_strongly_connected(g):
        raise PreconditionError("oracle_svc needs a strongly connected graph, n >= 2")
    full = (1 << n) - 1
    for k in range(1, n):
        for subset in itertools.combinations(range(n), k):
            mask = full
            for v in subset:
                mask ^= 1 << v
            if not _strong_on(n, g.edges, mask):
                return k
    return n - 1  # complete bidirected: one-vertex clause


def oracle_sec(g: DirectedGraph) -> int:
    """Minimum weakening edge set size, by exhausting all vertex
    bipartitions: removing every S -> V\\S edge breaks strong
    connectivity, and any weakening edge set must contain all crossing
    edges of some bipartition (a terminal SCC of the weakened graph has
    none left), so the minimum crossing count is exactly the answer."""
    _guard(g)
    if g.n < 2 or not oracle_is_strongly_connected(g):
        raise PreconditionError("oracle_sec needs a strongly connected graph, n >= 2")
    n = g.n
    best = g.m
    for s_mask in range(1, (1 << n) - 1):
        crossing = sum(
            1 for u, v in g.edges if (s_mask >> u) & 1 and not (s_mask >> v) & 1
        )
        if crossing < best:
            best = crossing
    return best


def oracle_sec_by_subsets(g: DirectedGraph) -> int:
    """Literal smallest-k enumeration over edge subsets; exponential in
    the answer, so only for tiny graphs. Cross-checks oracle_sec."""
    _guard(g)
    if g.n < 2 or not oracle_is_strongly_connected(g):
        raise PreconditionError("needs a strongly connected graph, n >= 2")
    edges = sorted(g.edges)
    m = len(edges)
    full = (1 << g.n) - 1
    for k in range(1, m + 1):
        if comb(m, k) > _MAX_SUBSETS:
            raise PreconditionError(f"oracle size guard: C({m},{k}) too large")
        for subset in itertools.combinations(range(m), k):
            removed = set(subset)
            remaining = [e for i, e in enumerate(edges) if i not in removed]
            if not _strong_on(g.n, remaining, full):
                return k
    return m


def _scc_sizes_on(
    n: int, edges: Iterable[Tuple[int, int]], members: int
) -> Tuple[int, ...]:
    # SCC sizes of the subgraph induced by `members`, by mutual reachability
    sub_edges = [
        (u, v) for u, v in edges if (members >> u) & 1 and (members >> v) & 1
    ]
    reach = _closure(n, sub_edges)
    left = members
    sizes = []
    while left:
        u = (left & -left).bit_length() - 1
        comp = 0
        for v in range(n):
            if (left >> v) & 1 and (reach[u] >> v) & 1 and (reach[v] >> u) & 1:
                comp |= 1 << v
        sizes.append(bin(comp).count("1"))
        left &= ~comp
    return tuple(sorted(sizes, reverse=True))


def oracle_weakening_sets(
    g: DirectedGraph, kind: str
) -> List[Tuple[tuple, Tuple[int, ...]]]:
    """Every minimum weakening set of ``kind`` ("vertex" or "edge") as a
    (members, SCC sizes after removal, descending) pair, in lexicographic
    order: all subsets of size oracle_svc / oracle_sec, each removed and
    checked literally (a vertex set also counts when one vertex is left)."""
    _guard(g)
    n = g.n
    full = (1 << n) - 1
    out = []
    if kind == "vertex":
        k = oracle_svc(g)
        for subset in itertools.combinations(range(n), k):
            mask = full
            for v in subset:
                mask ^= 1 << v
            if bin(mask).count("1") == 1 or not _strong_on(n, g.edges, mask):
                out.append((subset, _scc_sizes_on(n, g.edges, mask)))
        return out
    k = oracle_sec(g)
    edges = sorted(g.edges)
    if comb(len(edges), k) > _MAX_SUBSETS:
        raise PreconditionError(f"oracle size guard: C({len(edges)},{k}) too large")
    for subset in itertools.combinations(edges, k):
        remaining = g.edges - set(subset)
        if not _strong_on(n, remaining, full):
            out.append((subset, _scc_sizes_on(n, remaining, full)))
    return out


def oracle_local_sigma(g: DirectedGraph, u: int, v: int) -> int:
    """Minimum number of other vertices to remove so that u and v land in
    different SCCs; n-1 when no such set exists."""
    _guard(g)
    if u == v:
        raise PreconditionError("vertices must differ")
    n = g.n
    others = [w for w in range(n) if w not in (u, v)]
    full = (1 << n) - 1
    for k in range(0, len(others) + 1):
        for subset in itertools.combinations(others, k):
            mask = full
            for w in subset:
                mask ^= 1 << w
            sub_edges = [
                (a, b) for a, b in g.edges if (mask >> a) & 1 and (mask >> b) & 1
            ]
            reach = _closure(n, sub_edges)
            if not ((reach[u] >> v) & 1 and (reach[v] >> u) & 1):
                return k
    return n - 1


def oracle_zeta0(n: int, und_edges: Iterable[Tuple[int, int]]) -> int:
    """Classical vertex connectivity of an undirected graph by subset
    enumeration (complete graphs: n-1). Input as (n, undirected edges)."""
    if n > _MAX_N:
        raise PreconditionError(f"oracle size guard: n={n} > {_MAX_N}")
    pairs = [(min(u, v), max(u, v)) for u, v in und_edges]
    if not _und_connected(n, pairs, (1 << n) - 1):
        raise PreconditionError("oracle_zeta0 needs a connected graph")
    full = (1 << n) - 1
    for k in range(1, n):
        for subset in itertools.combinations(range(n), k):
            mask = full
            for v in subset:
                mask ^= 1 << v
            if not _und_connected(n, pairs, mask):
                return k
    return n - 1


def _und_connected(n: int, pairs, members: int) -> bool:
    count = bin(members).count("1")
    if count == 0:
        return False
    if count == 1:
        return True
    adj = [0] * n
    for u, v in pairs:
        if (members >> u) & 1 and (members >> v) & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    start = (members & -members).bit_length() - 1
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        w = frontier
        while w:
            low = w & -w
            nxt |= adj[low.bit_length() - 1]
            w ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == members
