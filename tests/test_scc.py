import random

import pytest

import svckit as sk
from svckit.scc import _components

from helpers import reference_components, seeded_random_graphs
from oracle import oracle_scc_ids


def test_directed_cycle_single_component():
    assert len(sk.scc(sk.directed_cycle(7)).components) == 1


def test_dag_all_singletons():
    g = sk.DirectedGraph(3, [(0, 1), (1, 2)])
    part = sk.scc(g)
    assert part.components == [[2], [1], [0]]


def test_partition_covers_vertices():
    for g, _ in seeded_random_graphs(30):
        part = sk.scc(g)
        seen = sorted(v for comp in part.components for v in comp)
        assert seen == list(range(g.n))
        for comp in part.components:
            sub, _ = sk.induced(g, comp)
            assert sk.is_strongly_connected(sub)


def test_agrees_with_reachability_oracle():
    for g, seed in seeded_random_graphs(60):
        part = sk.scc(g)
        ids = oracle_scc_ids(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                same_main = part.component_of[u] == part.component_of[v]
                same_oracle = ids[u] == ids[v]
                assert same_main == same_oracle, f"seed={seed} pair=({u},{v})"


def test_components_in_reverse_topological_order():
    for g, _ in seeded_random_graphs(30):
        part = sk.scc(g)
        for u, v in g.edges:
            cu, cv = part.component_of[u], part.component_of[v]
            if cu != cv:
                # edge u->v: v's component completes first
                assert cv < cu


def test_is_strongly_connected_basics():
    assert sk.is_strongly_connected(sk.directed_cycle(3))
    assert sk.is_strongly_connected(sk.DirectedGraph(1, []))
    assert not sk.is_strongly_connected(sk.DirectedGraph(0, []))
    assert not sk.is_strongly_connected(sk.DirectedGraph(3, [(0, 1), (1, 2)]))


def test_condensation_trivial():
    cond = sk.condensation(sk.directed_cycle(4))
    assert cond.dag.n == 1 and cond.dag.m == 0
    assert cond.sizes == [4]


def test_condensation_two_blocks():
    g = sk.DirectedGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
    cond = sk.condensation(g)
    assert cond.dag.n == 2 and cond.dag.m == 1
    assert sorted(cond.sizes) == [2, 2]


def test_condensation_acyclic():
    for g, _ in seeded_random_graphs(30):
        cond = sk.condensation(g)
        # topological sort must succeed
        indeg = [0] * cond.dag.n
        for _, v in cond.dag.edges:
            indeg[v] += 1
        queue = [v for v in range(cond.dag.n) if indeg[v] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for w in cond.dag.successors(u):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        assert seen == cond.dag.n
        assert sum(cond.sizes) == g.n


def test_doubled_strong_iff_connected():
    import random

    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.35]
        d = sk.UndirectedGraph(n, edges)
        assert sk.is_strongly_connected(sk.doubled(d)) == d.is_connected()


def _mask(size, dead_nodes):
    dead = bytearray(size)
    for v in dead_nodes:
        dead[v] = 1
    return dead


def test_masked_pass_matches_rebuilt_graph():
    # same components, in the same order, as scc of the rebuilt g - S;
    # the masks include none, a random set, all but one and all
    rng = random.Random(3)
    for g, seed in seeded_random_graphs(60, n_hi=12):
        succ = [g.successors(v) for v in range(g.n)]
        pred = [g.predecessors(v) for v in range(g.n)]
        for count in sorted({0, rng.randint(0, g.n), g.n - 1, g.n}):
            removed = rng.sample(range(g.n), count)
            h, mapping = sk.remove_vertices(g, removed)
            back = {new: old for old, new in mapping.items()}
            want = [[back[v] for v in comp] for comp in sk.scc(h).components]
            got = [sorted(comp) for comp in _components(succ, pred, _mask(g.n, removed))]
            assert got == want, (seed, removed)


def test_component_order_matches_tarjan():
    # Kosaraju's pass 2 meets the components in decreasing finish time of
    # their first-discovered node; reversed, that is Tarjan's emit order.
    # Masks: none, a random set, one live node and all nodes dead
    rng = random.Random(11)
    for g, seed in seeded_random_graphs(60, n_hi=12):
        succ = [g.successors(v) for v in range(g.n)]
        pred = [g.predecessors(v) for v in range(g.n)]
        live = rng.randrange(g.n)
        for dead_nodes in ([], rng.sample(range(g.n), rng.randint(0, g.n)),
                           [v for v in range(g.n) if v != live], range(g.n)):
            dead = _mask(g.n, dead_nodes)
            got = [sorted(c) for c in _components(succ, pred, dead)]
            want = [sorted(c) for c in reference_components(succ, dead)]
            assert got == want, (seed, list(dead_nodes))


def test_matches_networkx_past_oracle():
    nx = pytest.importorskip("networkx")
    # sparse to dense: several small non-trivial SCCs, then a giant one
    for n, p, seed in ((100, 0.012, 100), (200, 0.006, 2), (200, 0.01, 200),
                       (300, 0.004, 3), (300, 0.012, 300)):
        g = sk.random_digraph(n, p, seed)
        dg = nx.DiGraph()
        dg.add_nodes_from(range(n))
        dg.add_edges_from(g.edges)
        want = sorted(sorted(c) for c in nx.strongly_connected_components(dg))
        assert sorted(sk.scc(g).components) == want, (n, p, seed)
