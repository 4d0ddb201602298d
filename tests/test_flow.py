import functools
import itertools
import math
import random

import pytest

import svckit as sk
from svckit.flow import EdgeFlowNetwork, VertexFlowNetwork
from svckit.graphs import GraphInputError

from helpers import (
    brute_min_edge_cut,
    brute_min_vertex_cut,
    reaches,
    seeded_random_graphs,
)


def small_corpus():
    # keep m small enough for the subset-enumeration brutes
    return [
        (g, seed)
        for g, seed in seeded_random_graphs(40, n_lo=2, n_hi=6, probs=(0.2, 0.35))
        if g.m <= 14
    ]


class TestEdgeMaxFlow:
    def test_cycle_single_path(self):
        g = sk.directed_cycle(6)
        ans = sk.edge_max_flow(g, 0, 3)
        assert ans.value == 1
        assert len(ans.cut) == 1 and not ans.saturated

    def test_doubled_k4(self):
        g = sk.doubled_complete(4)
        for t in (1, 2, 3):
            assert sk.edge_max_flow(g, 0, t).value == 3

    def test_gamma13_cross_block(self):
        # frozen from the subset-enumeration brute on the 11-vertex graph
        g = sk.gamma(sk.FamilyParams(1, 3))
        blocks = sk.gamma_blocks(sk.FamilyParams(1, 3))
        u, v = blocks["U"][0], blocks["V"][0]
        assert sk.edge_max_flow(g, u, v).value == 1

    def test_rejects_equal_endpoints(self):
        with pytest.raises(GraphInputError):
            sk.edge_max_flow(sk.directed_cycle(3), 1, 1)

    def test_rejects_ids_outside_the_graph(self):
        g = sk.directed_cycle(3)
        for s, t in ((0, 3), (3, 0), (-1, 1)):
            with pytest.raises(GraphInputError):
                sk.edge_max_flow(g, s, t)

    def test_menger_duality_brute(self):
        for g, seed in small_corpus():
            for s in range(g.n):
                for t in range(g.n):
                    if s == t:
                        continue
                    ans = sk.edge_max_flow(g, s, t)
                    assert ans.value == brute_min_edge_cut(g, s, t), f"seed={seed}"
                    assert ans.value == len(ans.cut)

    def test_cut_disconnects(self):
        for g, _ in seeded_random_graphs(25, n_lo=3, n_hi=7):
            for s, t in [(0, g.n - 1), (g.n - 1, 0)]:
                ans = sk.edge_max_flow(g, s, t)
                if ans.value == 0:
                    continue
                h = sk.remove_edges(g, ans.cut)
                part = sk.scc(h)
                # t must be unreachable from s after removing the cut
                from helpers import reaches

                assert not reaches(h.n, h.edges, s, t)
                assert part  # silence lint


class TestVertexMaxFlow:
    def test_cycle_nonadjacent(self):
        g = sk.directed_cycle(5)
        ans = sk.vertex_max_flow(g, 0, 2)
        assert ans.value == 1 and len(ans.cut) == 1

    def test_gamma13_cut_is_w1(self):
        g = sk.gamma(sk.FamilyParams(1, 3))
        blocks = sk.gamma_blocks(sk.FamilyParams(1, 3))
        u, v = blocks["U"][0], blocks["V"][0]
        ans = sk.vertex_max_flow(g, u, v)
        assert ans.value == 1
        assert set(ans.cut) == set(blocks["W"])
        assert g.label(ans.cut[0]) == "1"

    def test_gamma23_two_disjoint_paths(self):
        # u reaches v through both W vertices and the W' bypass (3 paths);
        # the return direction only has the two W vertices, so the pair
        # value min(MF(u,v), MF(v,u)) is 2. Verified against the brute.
        g = sk.gamma(sk.FamilyParams(2, 3))
        blocks = sk.gamma_blocks(sk.FamilyParams(2, 3))
        u, v = blocks["U"][0], blocks["V"][0]
        assert sk.vertex_max_flow(g, u, v).value == brute_min_vertex_cut(g, u, v) == 3
        assert sk.vertex_max_flow(g, v, u).value == brute_min_vertex_cut(g, v, u) == 2

    def test_rejects_equal_endpoints(self):
        with pytest.raises(GraphInputError):
            sk.vertex_max_flow(sk.directed_cycle(4), 2, 2)

    def test_direct_edge_rejected(self):
        g = sk.directed_cycle(3)
        with pytest.raises(GraphInputError):
            sk.vertex_max_flow(g, 0, 1)

    def test_menger_duality_brute(self):
        for g, seed in seeded_random_graphs(40, n_lo=2, n_hi=7, probs=(0.2, 0.4)):
            for s in range(g.n):
                for t in range(g.n):
                    if s == t or g.has_edge(s, t):
                        continue
                    ans = sk.vertex_max_flow(g, s, t)
                    expected = brute_min_vertex_cut(g, s, t)
                    if expected == g.n - 1:
                        # no separating set exists; flow saturates every
                        # internal vertex budget
                        assert ans.value >= expected or g.n == 2
                    else:
                        assert ans.value == expected, f"seed={seed} ({s},{t})"
                        assert ans.value == len(ans.cut)

    def test_cut_destroys_all_paths(self):
        for g, _ in seeded_random_graphs(25, n_lo=4, n_hi=8):
            for s, t in [(0, g.n - 1)]:
                if g.has_edge(s, t):
                    continue
                ans = sk.vertex_max_flow(g, s, t)
                h, mapping = sk.remove_vertices(g, ans.cut)
                from helpers import reaches

                assert not reaches(h.n, h.edges, mapping[s], mapping[t])


class TestPackedStart:
    """Vertex flows start from greedily packed paths s -> x -> t and
    s -> a -> b -> t; augmenting paths must be free to cancel them."""

    def test_reroute_across_the_cut(self):
        # the packing takes 0 -> 1 -> 2 -> 5, which blocks 3 -> 2; the
        # maximum uses 0 -> 1 -> 4 -> 5 and 0 -> 3 -> 2 -> 5, so the
        # augmenting path 0 -> 3 -> 2 <- 1 -> 4 -> 5 must cancel 1 -> 2
        g = sk.DirectedGraph(6, [(0, 1), (0, 3), (1, 2), (1, 4), (3, 2), (2, 5), (4, 5)])
        net = VertexFlowNetwork(g)
        assert net._pack(0, 5, None) == [(0, 1, 2, 5)]
        assert net.flow(0, 5) == sk.FlowAnswer(value=2, cut=(1, 3), saturated=False)
        assert net.flow(0, 5, cap=1) == sk.FlowAnswer(value=1, cut=(), saturated=True)

    def test_packing_stops_at_the_cap(self):
        # five paths 0 -> x -> 6: at cap c the packing saturates exactly c
        # internal arcs, and the flow needs no augmenting path. A flow the
        # packing settles at its cap builds no arc of a fresh network
        g = sk.DirectedGraph(7, [(0, x) for x in range(1, 6)] + [(x, 6) for x in range(1, 6)])
        net = VertexFlowNetwork(g)
        for limit, packed in ((0, 0), (1, 1), (3, 3), (None, 5), (9, 5)):
            paths = net._pack(0, 6, limit)
            caps = net._warm(paths)
            assert len(paths) == packed
            assert sum(caps[2 * w] == 0 for w in range(g.n)) == packed
            fresh = VertexFlowNetwork(g)
            ans = fresh.flow(0, 6, limit)
            assert ans.value == packed and ans.saturated == (limit == packed)
            assert (fresh.to == []) == ans.saturated

    def test_third_stage_reaches_the_cap(self):
        # 0 -> 4 -> 5 and 0 -> 1 -> 2 -> 3 -> 5: only a path of three middle
        # vertices reaches cap 2, so the flow settles with no network built.
        # Uncapped flows pack no such path, nor do flows capped above what
        # the free first hops can reach. From x, the paths run backwards
        # from 5 to the enabled 0 and 1
        g = sk.DirectedGraph(6, [(0, 4), (4, 5), (0, 1), (1, 2), (2, 3), (3, 5)])
        net = VertexFlowNetwork(g)
        for cap in (None, 1, 3):
            assert net._pack(0, 5, cap) == [(0, 4, 5)]
        assert net._pack(0, 5, 2) == [(0, 4, 5), (0, 1, 2, 3, 5)]
        assert net.flow(0, 5, cap=2) == sk.FlowAnswer(value=2, cut=(), saturated=True)
        net.enable(0)
        net.enable(1)
        assert net._pack(6, 5, 2) == [(6, 0, 4, 5), (6, 1, 2, 3, 5)]
        assert net.flow(6, 5, cap=2).saturated and net.to == []
        assert net.flow(0, 5) == sk.FlowAnswer(value=2, cut=(1, 4), saturated=False)

    def test_third_stage_repeats_no_vertex(self):
        # 0 <-> 1 <-> 2 -> 3 -> 4 and 0 -> 5 -> 4: from s = 0 the first hop 1
        # leads back to s and to 2, whose successors include 1 again; the
        # one path through 1 is 0 -> 1 -> 2 -> 3 -> 4
        g = sk.DirectedGraph(6, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 4), (0, 5), (5, 4),
                                 (4, 0)])
        net = VertexFlowNetwork(g)
        assert net._pack(0, 4, 2) == [(0, 5, 4), (0, 1, 2, 3, 4)]
        assert net._pack(0, 4, None) == [(0, 5, 4)]
        assert net.flow(0, 4) == sk.FlowAnswer(value=2, cut=(1, 5), saturated=False)

    def test_packed_paths_are_disjoint_paths_of_g(self):
        # caps 1-4 on seeded digraphs and their underlying graphs, for the
        # ordinary non-arc pairs and for both kinds of super pair after j
        # enables: every packed path is a path of g (x -> v and v -> y only
        # for an enabled v), no two share a middle vertex, no path passes
        # through s or t, and warming the network writes no negative
        # capacity. Many flows take a path of three middle vertices
        rng, longest = random.Random(5), [0, 0]
        for d, _ in seeded_random_graphs(30, n_lo=6, n_hi=14, probs=(0.15, 0.25, 0.4)):
            for g in (d, sk.underlying(d)):
                net, n = VertexFlowNetwork(g), g.n
                ordinary = [(s, t) for s, t in itertools.permutations(range(n), 2)
                            if not g.has_edge(s, t)]
                for v in [None] + rng.sample(range(n), n):
                    for s, t in ordinary if v is None else ((n, v), (v, n)):
                        for cap in (1, 2, 3, 4):
                            paths = net._pack(s, t, cap)
                            middles = [w for p in paths for w in p[1:-1]]
                            assert len(paths) <= cap and all(p[0] == s and p[-1] == t for p in paths)
                            assert len(set(middles)) == len(middles) and not {s, t} & set(middles)
                            for p in paths:
                                assert all(net.on[w] if u == n else net.on[u] if w == n
                                           else g.has_edge(u, w) for u, w in zip(p, p[1:])), p
                            assert min(net._warm(paths)) >= 0
                            longest[v is not None] += any(len(p) == 5 for p in paths)
                    if v is not None:
                        net.enable(v)
        assert min(longest) >= 100, longest

    def test_super_pairs_match_an_explicit_terminal(self):
        # vertex n names x as a source and y as a sink, joined to the
        # enabled vertices only: the flow, its cut and every minimum cut are
        # those of g plus a real vertex n joined to the same prefix, and the
        # packing writes no negative capacity. A network whose arcs are
        # first built after j enable calls, by the first of its flows that
        # the packing leaves short, gives the same flows and cuts. Once
        # every vertex is enabled, the ordinary pairs still match a fresh
        # network: no path runs through x or y
        rng = random.Random(7)
        for g, _ in seeded_random_graphs(40, n_lo=3, n_hi=8, probs=(0.2, 0.4)):
            net, fresh = VertexFlowNetwork(g), VertexFlowNetwork(g)
            order = rng.sample(range(g.n), g.n)
            for j, v in enumerate(order):
                for a, b in ((g.n, v), (v, g.n)):
                    arcs = {(a, u) if a == g.n else (u, b) for u in order[:j]}
                    ref = VertexFlowNetwork(sk.DirectedGraph(g.n + 1, g.edges | arcs))
                    late = VertexFlowNetwork(g)
                    for u in order[:j]:
                        late.enable(u)
                    for cap in (1, 2, None):
                        want = ref.flow(a, b, cap)
                        assert net.flow(a, b, cap) == late.flow(a, b, cap) == want, (g, order, a, b)
                    for k in range(4):
                        want = sorted(ref.min_cuts(a, b, k))
                        assert sorted(net.min_cuts(a, b, k)) == want, (g, order, a, b, k)
                        assert sorted(late.min_cuts(a, b, k)) == want, (g, order, a, b, k)
                    assert min(net._warm(net._pack(a, b, None))) >= 0
                net.enable(v)
            for s, t in itertools.permutations(range(g.n), 2):
                if not g.has_edge(s, t):
                    assert net.flow(s, t) == fresh.flow(s, t)
                    assert list(net.min_cuts(s, t, 3)) == list(fresh.min_cuts(s, t, 3))
        with pytest.raises(GraphInputError):
            sk.vertex_max_flow(g, 0, g.n)

    def test_matches_networkx_past_oracle(self):
        # local_node_connectivity on seeded digraphs with n 15-40, at caps
        # None and 2, on a fixed sample of non-arc pairs of each graph; in
        # over half the pairs the packing falls short of the value
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.connectivity import (
            build_auxiliary_node_connectivity,
            local_node_connectivity,
        )
        from networkx.algorithms.flow import build_residual_network

        rng = random.Random(2024)
        values, short = set(), 0
        for seed in range(30):
            n = rng.randint(15, 40)
            g = sk.random_digraph(n, rng.choice((0.08, 0.12, 0.2, 0.35)), seed)
            dg = nx.DiGraph(list(g.edges))
            dg.add_nodes_from(range(n))
            aux = build_auxiliary_node_connectivity(dg)
            res = build_residual_network(aux, "capacity")
            net = VertexFlowNetwork(g)
            pairs = [(s, t) for s, t in itertools.permutations(range(n), 2)
                     if not g.has_edge(s, t)]
            for s, t in rng.sample(pairs, 30):
                want = local_node_connectivity(dg, s, t, auxiliary=aux, residual=res)
                ans = net.flow(s, t)
                assert (ans.value, ans.saturated) == (want, False), (seed, s, t)
                assert len(ans.cut) == want and s not in ans.cut and t not in ans.cut
                kept = [(u, v) for u, v in g.edges if u not in ans.cut and v not in ans.cut]
                assert not reaches(n, kept, s, t), (seed, s, t)
                capped = net.flow(s, t, cap=2)
                assert capped.value == min(want, 2) and capped.saturated == (want >= 2)
                values.add(want)
                short += len(net._pack(s, t, None)) < want
        assert len(values) >= 10 and short >= 450


class TestMonotonicityAndCap:
    def test_adding_edge_never_decreases(self):
        for g, _ in seeded_random_graphs(20, n_lo=3, n_hi=6):
            missing = [
                (u, v)
                for u in range(g.n)
                for v in range(g.n)
                if u != v and not g.has_edge(u, v)
            ]
            if not missing:
                continue
            extra = missing[0]
            g2 = sk.DirectedGraph(g.n, set(g.edges) | {extra})
            for s, t in [(0, g.n - 1), (g.n - 1, 0)]:
                if s == t:
                    continue
                assert (
                    sk.edge_max_flow(g2, s, t).value
                    >= sk.edge_max_flow(g, s, t).value
                )

    def test_cap_saturation(self):
        g = sk.doubled_complete(5)  # edge flow value 4 everywhere
        ans = sk.edge_max_flow(g, 0, 1, cap=2)
        assert ans.saturated and ans.value == 2
        ans = sk.edge_max_flow(g, 0, 1, cap=4)
        assert ans.saturated and ans.value == 4
        ans = sk.edge_max_flow(g, 0, 1, cap=5)
        assert not ans.saturated and ans.value == 4

    def test_cap_zero(self):
        g = sk.directed_cycle(4)
        ans = sk.edge_max_flow(g, 0, 2, cap=0)
        assert ans.saturated and ans.value == 0

    def test_negative_cap_rejected(self):
        g = sk.directed_cycle(4)
        for flow in (
            functools.partial(sk.edge_max_flow, g),
            functools.partial(sk.vertex_max_flow, g),
            EdgeFlowNetwork(g).flow,
            VertexFlowNetwork(g).flow,
        ):
            with pytest.raises(GraphInputError):
                flow(0, 2, cap=-1)
        # on a split network whose arcs are not built yet, before the packing
        # can settle anything: the super pair from x packs no path before
        # any enable, and min_cuts caps its flow at k + 1
        net = VertexFlowNetwork(g)
        for run in (lambda: net.flow(g.n, 2, cap=-1), lambda: net.flow(0, 2, cap=-1),
                    lambda: list(net.min_cuts(0, 2, -2))):
            with pytest.raises(GraphInputError):
                run()
        assert net.to == []


class TestMinCuts:
    def test_every_minimum_cut_brute(self):
        # every ordered pair of seeded graphs with n <= 8, arcs left out on
        # the split network: at any cap from the flow value k up, the cuts
        # are exactly the k-subsets of the items (sorted edges, or the
        # vertices other than s and t) whose removal cuts t off from s,
        # each once and ascending; below k there are none. Pairs with too
        # many k-subsets are skipped
        graphs = seeded_random_graphs(60, n_lo=3, n_hi=8)
        for network, floor in ((EdgeFlowNetwork, (1000, 200)), (VertexFlowNetwork, (900, 150))):
            pairs = several = 0
            for g, seed in graphs:
                net, edges = network(g), g.sorted_edges()
                for s, t in itertools.permutations(range(g.n), 2):
                    if network is VertexFlowNetwork:
                        if g.has_edge(s, t):
                            continue
                        items = [w for w in range(g.n) if w not in (s, t)]
                    else:
                        items = edges
                    k = net.flow(s, t).value
                    if math.comb(len(items), k) > 2000:
                        continue
                    want = {
                        cut for cut in itertools.combinations(items, k)
                        if not reaches(g.n, _without(edges, cut), s, t)
                    }
                    for cap in (k, k + 2):
                        got = list(net.min_cuts(s, t, cap))
                        assert sorted(got) == sorted(want), (network, seed, s, t, cap)
                        assert all(list(cut) == sorted(cut) for cut in got)
                    if k:
                        assert list(net.min_cuts(s, t, k - 1)) == [], (network, seed, s, t)
                    pairs += 1
                    several += len(want) > 1
            assert pairs >= floor[0] and several >= floor[1], network

    def test_directed_cycle(self):
        # one minimum cut per arc on the s -> t path, each once, though the
        # vertices off the path may join any closed set T
        net = EdgeFlowNetwork(sk.directed_cycle(6))
        assert sorted(net.min_cuts(1, 4, 1)) == [((1, 2),), ((2, 3),), ((3, 4),)]
        assert list(net.min_cuts(1, 4, 0)) == []

    def test_one_leaf_per_cut_on_parallel_blobs(self):
        # complete digraphs A, M_1..M_r, Z on 3 vertices, with 2 arcs
        # A -> M_i, 2 arcs M_i -> Z and 2 arcs Z -> A. Every subset of the
        # M_i joins Z in a closed set T with delta+(T) = the Z -> A arcs,
        # so listing closed sets takes 2^r leaves for that one cut of the
        # pair (last vertex of Z, 0); each cut of each pair comes once
        r = 12
        g = _parallel_blobs(r)
        z, net = 3 * (r + 1), EdgeFlowNetwork(g)
        cuts = [list(net.min_cuts(s, (s + 1) % g.n, 2)) for s in range(g.n)]
        assert (sk.sec(g), g.n) == (2, 42)
        assert cuts[-1] == [((z + 1, 0), (z + 2, 1))]
        assert all(len(c) == len(set(c)) for c in cuts)
        assert sum(map(len, cuts)) == 64

    def test_one_leaf_per_cut_on_parallel_blobs_split(self):
        # the same graph on the split network: from Z to A, every subset of
        # the M_i joins the vertex cut's closed set T as well, and each cut
        # of each pair comes once. From z, the paths run through z + 1 or
        # through z + 2 and then 1
        r = 12
        g = _parallel_blobs(r)
        z, net = 3 * (r + 1), VertexFlowNetwork(g)
        cuts = {(s, t): list(net.min_cuts(s, t, 2)) for s in range(z, z + 3)
                for t in range(3) if not g.has_edge(s, t)}
        assert (sk.svc(g), len(cuts)) == (2, 7)
        assert sorted(cuts[z, 0]) == [(1, z + 1), (z + 1, z + 2)]
        assert all(len(c) == len(set(c)) for c in cuts.values())
        assert sum(map(len, cuts.values())) == 14


def _without(edges, cut):
    # the edges left once the cut's items are gone: edges, or vertices
    # with the edges at them
    gone = set(cut)
    return [(u, v) for u, v in edges if not {(u, v), u, v} & gone]


def _parallel_blobs(r):
    # A = 0..2, M_i = 3i..3i+2 for i = 1..r, Z = 3(r+1)..3(r+1)+2
    arcs = {(3 * b + x, 3 * b + y) for b in range(r + 2)
            for x, y in itertools.permutations(range(3), 2)}
    z = 3 * (r + 1)
    for m in range(3, z, 3):
        arcs |= {(0, m), (1, m + 1), (m + 1, z), (m + 2, z + 1)}
    return sk.DirectedGraph(3 * (r + 2), arcs | {(z + 1, 0), (z + 2, 1)})


class TestNetworkReuse:
    def test_back_to_back_flows_match_one_shot(self):
        # one network per graph and mode, every ordered pair in a row with
        # caps 1, 2 and None interleaved, against a fresh one-shot network
        caps = (1, 2, None)
        corpus = [
            (sk.random_digraph(n, p, seed), seed)
            for n, p, seed in [(10, 0.3, 1), (16, 0.2, 2), (22, 0.15, 3), (30, 0.1, 4)]
        ] + seeded_random_graphs(6, n_lo=5, n_hi=10, probs=(0.3, 0.6))
        for g, seed in corpus:
            vnet, enet = VertexFlowNetwork(g), EdgeFlowNetwork(g)
            i = 0
            for s in range(g.n):
                for t in range(g.n):
                    if s == t:
                        continue
                    cap = caps[i % len(caps)]
                    i += 1
                    assert enet.flow(s, t, cap) == sk.edge_max_flow(g, s, t, cap), (
                        f"seed={seed} edge ({s},{t}) cap={cap}"
                    )
                    if not g.has_edge(s, t):
                        assert vnet.flow(s, t, cap) == sk.vertex_max_flow(
                            g, s, t, cap
                        ), f"seed={seed} vertex ({s},{t}) cap={cap}"


class TestUndirectedNetworks:
    def test_same_network_and_flows_as_the_doubled_digraph(self):
        # an UndirectedGraph builds the network of doubled(d), arc for arc
        for g, seed in seeded_random_graphs(20, n_lo=3, n_hi=9):
            d = sk.underlying(g)
            dd = sk.doubled(d)
            for network in (VertexFlowNetwork, EdgeFlowNetwork):
                a, b = network(d), network(dd)
                assert a._warm([]) == b._warm([]), seed  # builds a split network
                assert (a.head, a.to, a.template) == (b.head, b.to, b.template), seed
            vnet, enet = VertexFlowNetwork(d), EdgeFlowNetwork(d)
            for s in range(d.n):
                for t in range(d.n):
                    if s == t:
                        continue
                    assert enet.flow(s, t) == sk.edge_max_flow(dd, s, t), seed
                    if not d.has_edge(s, t):
                        assert vnet.flow(s, t) == sk.vertex_max_flow(dd, s, t), seed
