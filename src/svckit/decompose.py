"""Iterated weakening decomposition: repeatedly remove a minimum
weakening vertex set, split into SCCs, and recurse on each nontrivial
component. All bookkeeping is kept in the original graph's vertex ids.

Only the root is checked. Every other node is an SCC of its parent minus a
set, so the unchecked ``_svc`` gives its sigma0, and its zeta0 on the root's
underlying graph induced on its vertices (U(g)[S] = U(g[S])).

When several minimum sets exist the lexicographically first (by sorted
member ids) is removed and the total witness count is recorded, so a
divergence from some other tie-break can be diagnosed instead of hidden.
Every listed set weakens the node, so none is sized but the chosen one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .connectivity import (
    EnumerationGuardError,
    WeakeningSet,
    _listed,
    _require_strong,
    _svc,
    vertex_pair_scan,
)
from .graphs import DirectedGraph, PreconditionError, UndirectedGraph, induced, underlying
from .scc import _components


@dataclass
class DecompositionNode:
    vertices: Tuple[int, ...]              # original ids, ascending
    depth: int
    sigma0: int
    zeta0_underlying: int
    chosen_set: Optional[WeakeningSet]     # original coordinates; None at leaves
    witness_count: Optional[int]           # None when not enumerated
    condensation_sizes: Tuple[int, ...]    # sizes after removal, descending
    children: List["DecompositionNode"] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)


def _node(
    g: DirectedGraph,
    und: UndirectedGraph,
    vertices: Tuple[int, ...],
    depth: int,
    max_depth: int,
    enumerate_large: bool,
) -> Tuple[DecompositionNode, List[Tuple[int, ...]]]:
    """The node of g's induced subgraph on ``vertices``, without children,
    and the vertices of its children in order; ``und`` is U(g)."""
    # vertices is ascending and induced keeps relative order, so local id
    # i of h is vertices[i] and ascending local sets map to ascending ones
    h, _ = induced(g, vertices)
    k = _svc(h)
    node = DecompositionNode(
        vertices=vertices,
        depth=depth,
        sigma0=k,
        zeta0_underlying=_svc(induced(und, vertices)[0]),
        chosen_set=None,
        witness_count=None,
        condensation_sizes=(),
    )
    if h.m == h.n * (h.n - 1):
        node.flags.append("complete-bidirected")
        return node, []
    if depth >= max_depth:
        node.flags.append("depth-capped")
        return node, []

    try:
        witnesses = [members for members, _ in _listed(h, "vertex", k, enumerate_large)]
    except EnumerationGuardError:
        node.flags.append("witnesses-not-enumerated")
        # one minimum weakening vertex set from a flow cut certificate;
        # every flow is >= k, so the first one below k + 1 certifies k
        value, local_members = vertex_pair_scan(h, k)
        if value != k:
            raise AssertionError("no cut of size sigma0 found; sigma0 inconsistent")
    else:
        node.witness_count = len(witnesses)
        local_members = witnesses[0]
    dead = bytearray(h.n)
    for v in local_members:
        dead[v] = 1
    parts = _components([h.successors(v) for v in range(h.n)],
                        [h.predecessors(v) for v in range(h.n)], dead)
    sizes = tuple(sorted((len(c) for c in parts), reverse=True))
    members = tuple(vertices[i] for i in local_members)
    node.chosen_set = WeakeningSet("vertex", members, sizes)
    node.condensation_sizes = sizes

    # deterministic child order: by descending size then smallest orig id
    comps = [tuple(vertices[v] for v in sorted(comp)) for comp in parts if len(comp) >= 2]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return node, comps


def iterate(
    g: DirectedGraph,
    max_depth: int,
    enumerate_large: bool = False,
) -> DecompositionNode:
    """Build the decomposition tree, removing a minimum weakening vertex
    set at every node of depth < max_depth. Splitting also stops at
    complete bidirected components, where removal degenerates to the
    one-vertex clause. Each node records only how many minimum sets it
    has; ``weakening_vertex_sets`` on its induced subgraph lists them."""
    if max_depth < 1:
        raise PreconditionError(f"max_depth must be >= 1, got {max_depth}")
    _require_strong(g)
    # depth-first from an explicit stack, not recursion, so depth is bounded
    # by memory only: (list to append the node to, its vertices, depth)
    roots: List[DecompositionNode] = []
    stack, und = [(roots, tuple(range(g.n)), 0)], underlying(g)
    while stack:
        siblings, vertices, depth = stack.pop()
        node, comps = _node(g, und, vertices, depth, max_depth, enumerate_large)
        siblings.append(node)
        stack += [(node.children, comp, depth + 1) for comp in reversed(comps)]
    return roots[0]


def _largest_chain(tree: DecompositionNode) -> List[DecompositionNode]:
    chain = [tree]
    node = tree
    while node.children:
        node = max(node.children, key=lambda c: (len(c.vertices), -c.vertices[0]))
        chain.append(node)
    return chain


def sigma_trace(tree: DecompositionNode) -> List[int]:
    """sigma0 of the largest component at each depth, root first."""
    return [node.sigma0 for node in _largest_chain(tree)]


def zeta_trace(tree: DecompositionNode) -> List[int]:
    """Underlying vertex connectivity along the same largest-component
    chain as sigma_trace."""
    return [node.zeta0_underlying for node in _largest_chain(tree)]
