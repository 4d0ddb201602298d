"""Generators for the witness graph families and standard test graphs.

``gamma(a, b)`` builds, for 1 <= a <= b, a digraph whose strong vertex
connectivity is a while the vertex connectivity of its underlying
undirected graph is b. Three constructions cover the parameter range:

* a == b: doubled complete graph on b+1 vertices.
* a <= b/2: four blocks W (size a), W' (size b-a), U, V (size b+1 each)
  wired in a cycle of complete bipartite layers U->W->V->W'->U.
* a > b/2: U<->W and W<->V bidirected, plus directed U->W'->V.

Vertices are numbered W, W', U, V in ascending blocks; labels are the
1-based numbers used in the reference figures, so the 11-vertex instances
(1,3) and (2,3) read off directly against those drawings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from .graphs import DirectedGraph, GraphInputError


@dataclass(frozen=True)
class FamilyParams:
    a: int
    b: int

    def __post_init__(self):
        if not (1 <= self.a <= self.b):
            raise GraphInputError(f"need 1 <= a <= b, got a={self.a}, b={self.b}")


def gamma_blocks(p: FamilyParams) -> Dict[str, List[int]]:
    """Vertex ids of the W, W', U, V blocks for gamma(p). For a == b the
    doubled complete graph has no block structure and this returns {}."""
    a, b = p.a, p.b
    if a == b:
        return {}
    w = list(range(0, a))
    wp = list(range(a, b))
    u = list(range(b, 2 * b + 1))
    v = list(range(2 * b + 1, 3 * b + 2))
    return {"W": w, "W'": wp, "U": u, "V": v}


def gamma(p: FamilyParams) -> DirectedGraph:
    a, b = p.a, p.b
    if a == b:
        return doubled_complete(b + 1)
    blocks = gamma_blocks(p)
    w, wp, u, v = blocks["W"], blocks["W'"], blocks["U"], blocks["V"]
    edges = []
    if 2 * a <= b:
        # layers in a ring: U -> W -> V -> W' -> U
        edges += [(x, y) for x in u for y in w]
        edges += [(x, y) for x in w for y in v]
        edges += [(x, y) for x in v for y in wp]
        edges += [(x, y) for x in wp for y in u]
    else:
        # bidirected hub through W, one-way bypass through W'
        for x in u:
            for y in w:
                edges += [(x, y), (y, x)]
        for x in w:
            for y in v:
                edges += [(x, y), (y, x)]
        edges += [(x, y) for x in u for y in wp]
        edges += [(x, y) for x in wp for y in v]
    n = 3 * b + 2
    labels = {i: str(i + 1) for i in range(n)}
    return DirectedGraph(n, edges, labels)


def doubled_complete(n: int) -> DirectedGraph:
    """Every ordered pair: n(n-1) edges."""
    if n < 2:
        raise GraphInputError(f"need n >= 2, got {n}")
    return DirectedGraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def directed_cycle(n: int) -> DirectedGraph:
    if n < 2:
        raise GraphInputError(f"need n >= 2, got {n}")
    return DirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def random_digraph(n: int, edge_probability: float, seed: int) -> DirectedGraph:
    """Each ordered pair included independently; fixed pair order makes
    the output a pure function of (n, p, seed)."""
    if n < 1:
        raise GraphInputError(f"need n >= 1, got {n}")
    if not (0.0 <= edge_probability <= 1.0):
        raise GraphInputError(f"probability must be in [0,1], got {edge_probability}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < edge_probability
    ]
    return DirectedGraph(n, edges)
