import importlib
import sys

import pytest

import svckit as sk
from svckit.flow import VertexFlowNetwork
from svckit.graphs import PreconditionError

from helpers import count_graph_builds, strongly_connected_corpus
from oracle import oracle_svc, oracle_zeta0


def test_four_cycle_depth_one():
    tree = sk.iterate(sk.directed_cycle(4), max_depth=1)
    assert tree.sigma0 == 1
    assert tree.chosen_set.members == (0,)
    assert tree.children == []  # 3-path splits into trivial SCCs only
    assert tree.condensation_sizes == (1, 1, 1)


def test_preconditions():
    with pytest.raises(PreconditionError):
        sk.iterate(sk.directed_cycle(4), max_depth=0)
    with pytest.raises(PreconditionError):
        sk.iterate(sk.DirectedGraph(3, [(0, 1), (1, 2)]), max_depth=1)


def test_complete_bidirected_is_leaf():
    tree = sk.iterate(sk.doubled_complete(4), max_depth=3)
    assert tree.sigma0 == 3
    assert "complete-bidirected" in tree.flags
    assert tree.chosen_set is None and tree.children == []


def _collect(node, acc):
    acc.append(node)
    for c in node.children:
        _collect(c, acc)
    return acc


def test_gamma23_tree_invariants():
    g = sk.gamma(sk.FamilyParams(2, 3))
    tree = sk.iterate(g, max_depth=6)
    for node in _collect(tree, []):
        sub, _ = sk.induced(g, node.vertices)
        assert sk.is_strongly_connected(sub) and sub.n >= 2
        assert node.sigma0 == sk.svc(sub)  # recomputed independently
        if node.chosen_set is not None:
            assert len(node.chosen_set.members) == node.sigma0
            assert set(node.chosen_set.members) <= set(node.vertices)
            covered = set(node.chosen_set.members)
            for c in node.children:
                assert c.depth == node.depth + 1
                assert set(c.vertices) <= set(node.vertices) - set(
                    node.chosen_set.members
                )
                assert not covered & set(c.vertices) or covered.isdisjoint(
                    c.vertices
                )


def test_vertex_accounting():
    # leaves + removed sets + trivial SCC vertices partition V
    g = sk.gamma(sk.FamilyParams(1, 4))
    tree = sk.iterate(g, max_depth=8)

    removed = set()
    covered = set()

    def walk(node):
        if node.chosen_set is None:
            covered.update(node.vertices)
            return
        removed.update(node.chosen_set.members)
        child_verts = set()
        for c in node.children:
            child_verts.update(c.vertices)
            walk(c)
        trivial = set(node.vertices) - set(node.chosen_set.members) - child_verts
        covered.update(trivial)

    walk(tree)
    assert removed | covered == set(range(g.n))
    assert removed.isdisjoint(covered)


def test_deterministic():
    g = sk.gamma(sk.FamilyParams(2, 4))
    t1 = sk.iterate(g, max_depth=5)
    t2 = sk.iterate(g, max_depth=5)
    assert sk.sigma_trace(t1) == sk.sigma_trace(t2)

    def shape(n):
        return (n.vertices, n.sigma0, n.chosen_set, [shape(c) for c in n.children])

    assert shape(t1) == shape(t2)


def test_sigma_trace_gamma13():
    # derived: removing W={0} from gamma(1,3) leaves only trivial SCCs,
    # so the chain stops at the root
    tree = sk.iterate(sk.gamma(sk.FamilyParams(1, 3)), max_depth=7)
    assert sk.sigma_trace(tree) == [1]
    assert sk.zeta_trace(tree) == [3]


def test_trace_follows_largest_component():
    # the chain has four nodes; its 8-vertex node (sigma0 = 3) takes the
    # guarded flow-cut path. Each node's values match the oracles on its
    # induced subgraph.
    g = sk.random_digraph(11, 0.55, 19913)
    tree = sk.iterate(g, max_depth=7)
    node = tree
    chain = [node]
    while node.children:
        node = max(node.children, key=lambda c: (len(c.vertices), -c.vertices[0]))
        chain.append(node)
    assert sk.sigma_trace(tree) == [c.sigma0 for c in chain] == [2, 3, 1, 1]
    assert sk.zeta_trace(tree) == [c.zeta0_underlying for c in chain] == [6, 4, 1, 1]
    assert len(chain[1].vertices) == 8
    assert "witnesses-not-enumerated" in chain[1].flags
    for node in chain:
        sub, _ = sk.induced(g, node.vertices)
        assert node.sigma0 == oracle_svc(sub)
        assert node.zeta0_underlying == oracle_zeta0(sub.n, sk.underlying(sub).edges)


def test_depth_cap_flag():
    g = sk.doubled(sk.UndirectedGraph(6, [(i, (i + 1) % 6) for i in range(6)]))
    tree = sk.iterate(g, max_depth=1)
    if tree.children:
        assert all("depth-capped" in c.flags or "complete-bidirected" in c.flags
                   or not c.children for c in tree.children)


def test_guarded_witness_frozen():
    # sigma0 = 3 without enumerate_large: the chosen set comes from the
    # first flow cut of size sigma0, not from enumeration. Expected values
    # were recorded from the per-pair flow implementation this replaced.
    g = sk.random_digraph(16, 0.5, 0)
    tree = sk.iterate(g, max_depth=3)
    assert "witnesses-not-enumerated" in tree.flags
    assert tree.sigma0 == 3
    assert tree.chosen_set == sk.WeakeningSet("vertex", (3, 8, 9), (12, 1))
    deep = tree.children[0].children[0]
    assert deep.depth == 2 and "witnesses-not-enumerated" in deep.flags
    assert deep.chosen_set == sk.WeakeningSet("vertex", (4, 6, 14), (5, 1))


def _frames():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_tree_needs_no_recursion():
    # a bidirected path on 120 vertices loses its second vertex at every
    # level, so its tree has 60 levels. Built under a recursion limit 40
    # frames above this test's depth, it equals the tree built at the
    # normal limit (compared after the limit is restored, as == recurses)
    g = sk.doubled(sk.UndirectedGraph(120, [(i, i + 1) for i in range(119)]))
    want = sk.iterate(g, max_depth=100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 40)
    try:
        tree = sk.iterate(g, max_depth=100)
    finally:
        sys.setrecursionlimit(limit)
    assert len(sk.sigma_trace(want)) == 60 and "complete-bidirected" in _collect(want, [])[-1].flags
    assert tree == want


def _three_blocks():
    # three seeded random blocks of 12, 14 and 16 vertices sharing vertex
    # 0: 17 nodes at depth 7, sigma0 from 1 to 3, one of them guarded
    arcs, base = [], 1
    for i, size in enumerate((12, 14, 16)):
        ids = [0] + list(range(base, base + size - 1))
        arcs += [(ids[u], ids[v]) for u, v in sk.random_digraph(size, 0.5, 1 + i).edges]
        base += size - 1
    return sk.DirectedGraph(base, arcs)


def _count_passes(monkeypatch):
    # one entry per SCC pass, True if it is masked
    modules = [importlib.import_module(f"svckit.{name}")
               for name in ("scc", "connectivity", "decompose")]
    real, passes = modules[0]._components, []

    def counting(succ, pred, dead):
        passes.append(any(dead))
        return real(succ, pred, dead)

    for module in modules:
        monkeypatch.setattr(module, "_components", counting)
    return passes


def test_one_unmasked_scc_pass(monkeypatch):
    # only the root is checked: every other node is an SCC of its parent
    # minus a set, so sigma0 and zeta0 come from the unchecked core. The
    # chosen sets and the root candidates are sized by masked passes
    passes = _count_passes(monkeypatch)
    nodes = _collect(sk.iterate(_three_blocks(), 7), [])
    assert sorted({node.sigma0 for node in nodes}) == [1, 2, 3] and len(nodes) == 17
    assert ["witnesses-not-enumerated" in node.flags for node in nodes].count(True) == 1
    assert passes.count(False) == 1 and passes.count(True) >= len(nodes)


def test_path_decomposes_in_at_most_n_passes(monkeypatch):
    # the inner vertices of a bidirected path are its strong articulation
    # points. Each node counts them from one masked pass (the path minus
    # its first vertex stays connected) and its dominator trees, sizing
    # none, and one more pass sizes the chosen set: 59 passes on 30 nodes,
    # where sizing every listed set would take 929
    n = 60
    g = sk.DirectedGraph(n, [a for v in range(n - 1) for a in ((v, v + 1), (v + 1, v))])
    passes = _count_passes(monkeypatch)
    tree = sk.iterate(g, n)
    assert (tree.witness_count, tree.chosen_set.members) == (n - 2, (1,))
    assert tree.condensation_sizes == (n - 2, 1) and len(_collect(tree, [])) == n // 2
    assert len(passes) <= n


def test_witness_counts_match_the_enumeration():
    # each enumerated node takes its count and chosen set from the lister
    # alone, unsized: they equal the sized enumeration of its subgraph
    cases = [(g, 5, False) for g, _ in strongly_connected_corpus(40, n_lo=4, n_hi=14)]
    cases.append((_three_blocks(), 7, True))
    checked = set()
    for g, depth, large in cases:
        for node in _collect(sk.iterate(g, depth, large), []):
            if node.witness_count is None:
                continue
            h, _ = sk.induced(g, node.vertices)
            sets = sk.weakening_vertex_sets(h, allow_large=True)
            assert node.witness_count == len(sets), (g, node.vertices)
            first = sets[0]
            assert node.chosen_set.members == tuple(node.vertices[i] for i in first.members)
            assert node.condensation_sizes == first.resulting_scc_sizes
            checked.add(node.sigma0)
    assert checked == {1, 2, 3}


def test_no_graph_built_past_ingestion(monkeypatch):
    # each node filters the sorted lists of the root and of its underlying
    # graph; neither public constructor runs
    g = _three_blocks()
    built = count_graph_builds(monkeypatch)
    assert len(_collect(sk.iterate(g, 7), [])) == 17
    assert built == []
    sk.UndirectedGraph(2, [(0, 1)])  # the patch is live
    assert built == ["UndirectedGraph"]


def test_packing_settles_most_flows(monkeypatch):
    # random_digraph(40, 0.3, 3) to depth 7: 569 vertex flows, of which
    # packed paths of up to three middle vertices leave 8 short of their
    # cap, so only 8 copy a capacity template, on 6 split networks
    counts = {"_pack": 0, "_warm": 0, "_build": 0}
    for name in counts:
        def counting(*args, name=name, real=getattr(VertexFlowNetwork, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(VertexFlowNetwork, name, counting)
    tree = sk.iterate(sk.random_digraph(40, 0.3, 3), 7)
    assert sk.sigma_trace(tree)[0] == 7
    assert counts == {"_pack": 569, "_warm": 8, "_build": 6}
