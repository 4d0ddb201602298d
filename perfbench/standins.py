"""Seeded stand-in graphs for the benchmark workloads.

The generators are the benchmark's own code on ``random.Random(seed)``, so a
change to ``svckit.families`` cannot silently change what is measured. They
imitate the shapes of the paper's connectomes (a sparse fly graph with a
periphery outside its largest SCC, rat graphs with sigma0 = sigma1 = 2, a
dense cat graph with one vertex of in-degree 1). They are stand-ins, not
connectome data.

Each generator returns arcs in the order they are to be written: the
strongly connected core first, then the one-way periphery. ``write_edgelist``
names vertices by first appearance, so the core is always 0..n_core-1.
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from checks import Digraph, none_smaller

Arc = Tuple[int, int]


def write_edgelist(path: str, arcs: List[Arc]) -> None:
    """Write arcs in the given order, naming each vertex by the position of
    its first appearance. The names are then 0..n-1 and equal the dense ids
    svckit assigns while reading, which the checks rely on."""
    name = {}
    lines = []
    for u, v in arcs:
        for x in (u, v):
            name.setdefault(x, len(name))
        lines.append(f"{name[u]} {name[v]}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _cycle(rng: random.Random, n: int) -> List[Arc]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[(i + 1) % n]) for i in range(n)]


def _add_random_arcs(rng: random.Random, n: int, arcs: Set[Arc], count: int,
                     forbid_head: int = -1) -> None:
    target = len(arcs) + count
    while len(arcs) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v != forbid_head:
            arcs.add((u, v))


def _periphery(rng: random.Random, n_core: int, count: int) -> List[Arc]:
    # odd vertices only send into the core, even ones only receive from it,
    # so each is an SCC of its own and --scc-largest drops it
    arcs = []
    for i in range(n_core, n_core + count):
        for t in rng.sample(range(n_core), rng.randint(1, 3)):
            arcs.append((i, t) if i % 2 else (t, i))
    return arcs


def fly(rng: random.Random, n_core: int, extra: int, periphery: int) -> List[Arc]:
    """Sparse digraph, not strongly connected: a Hamiltonian cycle plus
    ``extra`` random arcs on the core, and a one-way periphery. Many core
    vertices keep in- or out-degree 1, so sigma0 = sigma1 = 1 there."""
    arcs = set(_cycle(rng, n_core))
    _add_random_arcs(rng, n_core, arcs, extra)
    return sorted(arcs) + _periphery(rng, n_core, periphery)


def rat(rng: random.Random, n_core: int, extra: int, periphery: int) -> List[Arc]:
    """Core with sigma0 = sigma1 = 2: two arc-disjoint Hamiltonian cycles
    plus random arcs, none into one planted vertex (so its in-degree is 2),
    redrawn until no single vertex breaks strong connectivity."""
    while True:
        arcs = set(_cycle(rng, n_core)) | set(_cycle(rng, n_core))
        if len(arcs) < 2 * n_core:
            continue
        _add_random_arcs(rng, n_core, arcs, extra, forbid_head=rng.randrange(n_core))
        if none_smaller(Digraph(n_core, arcs), "vertex", 2):
            return sorted(arcs) + _periphery(rng, n_core, periphery)


def cat(rng: random.Random, n: int, d: int) -> List[Arc]:
    """Dense strongly connected digraph: a Hamiltonian cycle and d-1 more
    permutations, pairwise arc-disjoint, so every vertex has in- and
    out-degree d; then one planted vertex keeps only its cycle in-arc."""
    ham = _cycle(rng, n)
    arcs = set(ham)
    for _ in range(d - 1):
        arcs.update(_disjoint_permutation(rng, n, arcs))
    planted = rng.randrange(n)
    keep = next(u for u, v in ham if v == planted)
    return sorted(a for a in arcs if a[1] != planted or a[0] == keep)


def _disjoint_permutation(rng: random.Random, n: int, arcs: Set[Arc]) -> List[Arc]:
    perm = list(range(n))
    rng.shuffle(perm)

    def ok(u, v):
        return u != v and (u, v) not in arcs

    for u in range(n):
        for _ in range(100 * n):
            if ok(u, perm[u]):
                break
            w = rng.randrange(n)
            if ok(u, perm[w]) and ok(w, perm[u]):
                perm[u], perm[w] = perm[w], perm[u]
        else:
            raise RuntimeError("no arc-disjoint permutation found; lower the degree")
    return [(u, perm[u]) for u in range(n)]


def gamma_shape(a: int, b: int) -> Tuple[int, int]:
    """(n, m) of gamma(a, b) from its construction: the doubled complete
    graph on b+1 vertices when a == b, else 3b+2 vertices with complete
    bipartite layers between blocks of sizes a, b-a and b+1."""
    if a == b:
        return b + 1, b * (b + 1)
    if 2 * a <= b:
        return 3 * b + 2, 2 * b * (b + 1)
    return 3 * b + 2, 2 * (b + 1) * (a + b)
