import functools
import importlib
import itertools
import math
import random

import pytest

import svckit as sk
from svckit.connectivity import (
    EnumerationGuardError,
    _bridges,
    _candidates,
    _degree_order,
    _degrees,
    _prefix_pairs,
    _vertex_upper_bound,
    _weakening_sets,
)
from svckit.flow import EdgeFlowNetwork, VertexFlowNetwork
from svckit.graphs import GraphInputError, PreconditionError
from svckit.scc import _dominator_trees, _lowpoints

from helpers import (
    count_graph_builds,
    reaches,
    reference_components,
    reference_svc,
    reference_weakening_sets,
    strongly_connected_corpus,
)
from oracle import (
    oracle_local_sigma,
    oracle_sec,
    oracle_svc,
    oracle_weakening_sets,
    oracle_zeta0,
)

class TestLocalSigma:
    def test_directed_cycle(self):
        g = sk.directed_cycle(6)
        assert sk.local_sigma(g, 0, 3) == 1
        assert sk.local_sigma(g, 0, 1) == 1

    def test_doubled_k4_capped(self):
        g = sk.doubled_complete(4)
        assert sk.local_sigma(g, 0, 2) == 3  # both directions direct-edged

    def test_gamma13_cross_block(self):
        # frozen from oracle_local_sigma on the 11-vertex graph
        p = sk.FamilyParams(1, 3)
        g, blocks = sk.gamma(p), sk.gamma_blocks(p)
        u, v = blocks["U"][0], blocks["V"][0]
        assert oracle_local_sigma(g, u, v) == 1
        assert sk.local_sigma(g, u, v) == 1

    def test_rejects_equal(self):
        with pytest.raises(GraphInputError):
            sk.local_sigma(sk.directed_cycle(3), 2, 2)
        for u, v in ((0, 3), (-1, 1)):  # ids outside [0, n)
            with pytest.raises(GraphInputError):
                sk.local_sigma(sk.directed_cycle(3), u, v)

    def test_rejects_not_strong(self):
        g = sk.DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError):
            sk.local_sigma(g, 0, 2)


class TestSvcSec:
    def test_two_cycle_degenerate(self):
        g = sk.directed_cycle(2)
        assert sk.svc(g) == 1
        assert sk.sec(g) == 1

    def test_directed_cycle(self):
        g = sk.directed_cycle(8)
        assert sk.svc(g) == 1 and sk.sec(g) == 1

    def test_complete_bidirected_one_vertex_clause(self):
        for n in (2, 3, 4, 5):
            assert sk.svc(sk.doubled_complete(n)) == n - 1

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            sk.svc(sk.DirectedGraph(1, []))
        with pytest.raises(PreconditionError):
            sk.sec(sk.DirectedGraph(3, [(0, 1), (1, 2)]))

    def test_sec_bounded_by_degrees(self):
        for g, _ in strongly_connected_corpus(40):
            bound = min(
                min(len(g.successors(v)), len(g.predecessors(v)))
                for v in range(g.n)
            )
            assert sk.sec(g) <= bound

    def test_sec_matches_oracle(self):
        for g, seed in strongly_connected_corpus(40):
            assert sk.sec(g) == oracle_sec(g), f"seed={seed}"

    def test_pair_scan_runs_no_flow_twice(self, monkeypatch):
        # svc and zeta0 run Even's prefix pairs on the degree order, each
        # once and in order, with the degree bound's worth of prefix, until
        # the value reaches 1; zeta0 runs each unordered pair one way, since
        # MF(a, b) = MF(b, a) on the doubled digraph. Every flow is capped
        # at the running best. Scans call the network's run directly
        calls = []
        run = VertexFlowNetwork._run

        def counted(net, s, t, cap):
            out = run(net, s, t, cap)
            calls.append((s, t, cap, out[0]))
            return out

        monkeypatch.setattr(VertexFlowNetwork, "_run", counted)
        graphs = [g for g, _ in strongly_connected_corpus(40)]
        graphs += [_sigma_two(40), _planted(12, True), _planted(12, False)]
        runs = 0
        for g in graphs:
            for h, scan in ((g, sk.svc), (sk.underlying(g), sk.undirected_vertex_connectivity)):
                calls.clear()
                value, bound = scan(h), _vertex_upper_bound(h)
                want = _even_pairs(h, _degree_order(h), bound) if bound >= 3 else []
                pairs = [(s, t) for s, t, _, _ in calls]
                assert pairs == want[:len(pairs)] and (value == 1 or pairs == want), h
                once = frozenset if isinstance(h, sk.UndirectedGraph) else tuple
                assert len(set(map(once, pairs))) == len(pairs), h
                best = bound
                for _, _, cap, value in calls:
                    assert cap == best, h
                    best = min(best, value)
                assert value == best, h
                runs += len(calls) > 0
        assert runs >= 20  # most scans ran flows at all

    def test_scans_the_packing_settles_build_no_arcs(self, monkeypatch):
        # random_digraph(40, 0.3, 3): svc = 7 and zeta0 = 15. The packing
        # settles each of their 87 and 55 prefix-pair flows at its cap, so
        # no split network is built and no augmenting search runs. Flows
        # are counted at the network's run, which scans call directly, and
        # a saturated run returns no residual reach
        g = sk.random_digraph(40, 0.3, 3)
        built, flows = [], []
        build, run = VertexFlowNetwork._build, VertexFlowNetwork._run

        def counted_build(net):
            built.append(net.g)
            build(net)

        def counted_run(net, s, t, cap):
            flows.append(run(net, s, t, cap))
            return flows[-1]

        monkeypatch.setattr(VertexFlowNetwork, "_build", counted_build)
        monkeypatch.setattr(VertexFlowNetwork, "_run", counted_run)
        assert sk.svc(g) == 7 and len(flows) == 87
        assert sk.undirected_vertex_connectivity(sk.underlying(g)) == 15 and len(flows) == 87 + 55
        assert all(parent is None for _, parent, _, _ in flows) and built == []


class TestWeakeningSets:
    def test_cycle_every_vertex(self):
        n = 6
        sets = sk.weakening_vertex_sets(sk.directed_cycle(n))
        assert [w.members for w in sets] == [(v,) for v in range(n)]
        for w in sets:
            assert sum(w.resulting_scc_sizes) == n - 1

    def test_cycle_every_edge(self):
        n = 5
        sets = sk.weakening_edge_sets(sk.directed_cycle(n))
        assert len(sets) == n
        for w in sets:
            assert sum(w.resulting_scc_sizes) == n

    def test_gamma13_unique_vertex_witness(self):
        g = sk.gamma(sk.FamilyParams(1, 3))
        sets = sk.weakening_vertex_sets(g)
        assert len(sets) == 1
        assert sets[0].members == (0,)
        assert g.label(0) == "1"

    def test_limit_and_capped_flag(self):
        sets = sk.weakening_vertex_sets(sk.directed_cycle(6), limit=2)
        assert len(sets) == 2 and sets.capped

    def test_limit_below_one_rejected(self):
        g = sk.directed_cycle(6)
        for limit in (0, -3):
            with pytest.raises(GraphInputError):
                sk.weakening_vertex_sets(g, limit=limit)
            with pytest.raises(GraphInputError):
                sk.weakening_edge_sets(g, limit=limit)

    def test_lexicographic_order(self):
        g = sk.gamma(sk.FamilyParams(2, 3))
        sets = sk.weakening_vertex_sets(g)
        members = [w.members for w in sets]
        assert members == sorted(members)
        assert (0, 1) in members  # W2 = {labels 1, 2}

    def test_enumeration_guard(self):
        g = sk.doubled_complete(5)  # sigma0 = 4
        with pytest.raises(EnumerationGuardError):
            sk.weakening_vertex_sets(g)
        sets = sk.weakening_vertex_sets(g, allow_large=True)
        assert len(sets) == 5  # every 4-subset leaves one vertex

    def test_candidates_include_every_completion(self):
        # on strongly connected graphs with n >= 3, whose rest has two or
        # more vertices, the candidates are exactly the vertices whose
        # removal splits the graph; the root among them only when g - 0
        # splits, which some graphs of each kind do and some do not
        roots = rootless = points = 0
        for g, seed in strongly_connected_corpus(120, n_lo=3, n_hi=12):
            listed = _assert_candidates_are_the_cuts(g)
            roots, rootless = roots + (0 in listed), rootless + (0 not in listed)
            points += len(listed)
        assert roots >= 10 and rootless >= 80 and points >= 70

    def test_bridges_are_the_arcs_whose_removal_weakens(self):
        # against removing each arc and running scc: every arc that breaks
        # strong connectivity is listed, in sorted order, with away the
        # vertices outside the root's SCC of the rest. n = 2 (both arcs),
        # directed cycles (every arc), small seeded graphs and fly-shaped
        # ones. Some arcs are bridges in both directions: the rest of the
        # graph neither reaches one end from the root nor the root from
        # the other
        graphs = [g for g, _ in strongly_connected_corpus(150, n_hi=12)]
        graphs += [sk.directed_cycle(n) for n in (2, 3, 7)] + [_two_way_bridge()]
        graphs += [_fly_shaped(n, extra, seed)
                   for n, extra, seed in ((60, 6, 0), (100, 50, 1), (200, 20, 3))]
        listed = both = 0
        for g in graphs:
            got = list(_bridges(g))
            want = []
            for e in g.sorted_edges():
                comps = sk.scc(h := sk.remove_edges(g, [e])).components
                if len(comps) > 1:
                    kept = next(comp for comp in comps if 0 in comp)
                    want.append((e, set(range(g.n)).difference(kept)))
                    both += not reaches(g.n, h.edges, 0, e[1]) and not reaches(
                        g.n, h.edges, e[0], 0)
            assert got == want, g
            listed += len(got)
        assert listed >= 500 and both >= 200

    def test_one_dfs_serves_the_underlying_graph(self):
        # U(g), read as its doubled digraph, needs no dominator tree: one
        # lowpoint DFS gives its articulation points and bridges, the
        # strong ones of the doubling. Against removing each vertex or
        # arc: the candidates are the root and the articulation points, each
        # with what it cuts off, and the bridges are both arcs of each
        # undirected bridge. The chained blocks of _bound_two have most of
        # them; fly-shaped graphs hold a Hamiltonian cycle, so none
        graphs = [g for g, _ in strongly_connected_corpus(150, n_lo=3, n_hi=12)]
        graphs += [_fly_shaped(n, extra, seed)
                   for n, extra, seed in ((60, 6, 0), (100, 50, 1), (200, 20, 3))]
        graphs += [_bound_two(seed) for seed in range(60)] + [_two_way_bridge()]
        points = roots = bridges = 0
        for u in map(sk.underlying, graphs):
            succ, dead = [u.neighbors(v) for v in range(u.n)], bytearray(u.n)
            listed = _assert_candidates_are_the_cuts(u)
            arcs = []
            for a, b in [(a, b) for a in range(u.n) for b in succ[a]]:
                rest = succ[:]
                rest[a] = [w for w in succ[a] if w != b]
                comps = reference_components(rest, dead)
                if len(comps) > 1:
                    kept = next(comp for comp in comps if 0 in comp)
                    arcs.append(((a, b), set(range(u.n)).difference(kept)))
            assert list(_bridges(u)) == arcs, u
            points, roots, bridges = points + len(listed), roots + (0 in listed), bridges + len(arcs)
        assert points - roots >= 70 and roots >= 2 and bridges >= 50

    def test_sizes_match_reference_components_past_oracle(self):
        # every k = 1 vertex and edge set of sparse fly-shaped graphs, and
        # every k = 2 vertex set of rat-shaped ones, against the literal
        # loop over item subsets sized by the reference Tarjan
        cases = [(_fly_shaped(n, extra, seed), kind, 1)
                 for n, extra, seed in ((60, 6, 0), (100, 50, 1), (140, 210, 2), (200, 20, 3))
                 for kind in ("vertex", "edge")]
        cases += [(_sigma_two(n, seed), "vertex", 2) for n, seed in ((30, 0), (45, 7))]
        for g, kind, k in cases:
            enum = sk.weakening_vertex_sets if kind == "vertex" else sk.weakening_edge_sets
            got = [(w.members, w.resulting_scc_sizes) for w in enum(g, allow_large=True)]
            items = range(g.n) if kind == "vertex" else g.sorted_edges()
            want = [(w, sizes) for w in itertools.combinations(items, k)
                    if len(sizes := _reference_sizes(g, kind, w)) > 1 or sizes == (1,)]
            assert got == want, (g, kind)
            assert len(got) >= 5

    def test_five_cycle_sizes_are_all_one(self):
        g = sk.directed_cycle(5)
        vertex, edge = sk.weakening_vertex_sets(g), sk.weakening_edge_sets(g)
        assert [w.resulting_scc_sizes for w in vertex] == [(1, 1, 1, 1)] * 5
        assert [w.resulting_scc_sizes for w in edge] == [(1, 1, 1, 1, 1)] * 5

    def test_dominator_of_both_trees_cuts_off_several_sccs(self):
        # root cycle 0 -> 6 -> 7 -> 0 and 0 <-> 1. Vertex 1 alone leads
        # into the 2-cycles {2, 3} and {4, 5} (4 -> 2 joins them) and into
        # 8 (8 -> 0), and alone leads out of them and out of 9 (0 -> 9), so
        # it dominates 2-5 and 8 forward and 2-5 and 9 in reverse. Arc
        # 2 -> 3 is 2's only way out and 3's only way in
        g = _two_way_bridge()
        assert set(dict(_candidates(g))[1]) == {2, 3, 4, 5, 8, 9}
        assert dict(_bridges(g))[(2, 3)] == {2, 3}
        vertex, edge = sk.weakening_vertex_sets(g), sk.weakening_edge_sets(g)
        sizes = {w.members: w.resulting_scc_sizes for w in vertex + edge}
        assert sizes[(1,)] == (3, 2, 2, 1, 1) and sizes[((2, 3),)] == (8, 1, 1)
        for kind, got in (("vertex", vertex), ("edge", edge)):
            assert [(w.members, w.resulting_scc_sizes) for w in got] == (
                oracle_weakening_sets(g, kind))

    def test_sizer_raises_on_a_set_that_does_not_weaken(self, monkeypatch):
        # every listed set weakens g by construction, so one that leaves g
        # strongly connected is an invariant failure, never skipped: here
        # the root of the complete bidirected K4, and its arc (0, 1)
        module = importlib.import_module("svckit.connectivity")
        monkeypatch.setattr(module, "_candidates", lambda g: iter([(0, None)]))
        monkeypatch.setattr(module, "_bridges", lambda g: iter([((0, 1), None)]))
        for kind in ("vertex", "edge"):
            with pytest.raises(AssertionError, match="leaves g strongly connected"):
                _weakening_sets(sk.doubled_complete(4), kind, 1, None, False)

    @staticmethod
    def _assert_cuts_are_the_sets(g, witnesses):
        # the minimum cuts of the Hao-Orlin pairs, (x, v_j) and (v_j, y)
        # after v_1 on the arc network, are exactly the minimum edge sets
        k, net = sk.sec(g), EdgeFlowNetwork(g)
        cuts = {cut for a, b in _prefix_pairs(net, 1) for cut in net.min_cuts(a, b, k)}
        assert cuts == set(witnesses), g

    def test_prefix_pair_edge_cuts_are_the_sets_gamma(self):
        # gamma(a < 4, 4) has 14 vertices, past the oracle
        for b in range(1, 5):
            for a in range(1, b + 1):
                g = sk.gamma(sk.FamilyParams(a, b))
                if g.n <= 12:
                    sets = oracle_weakening_sets(g, "edge")
                else:
                    sets, _ = reference_weakening_sets(g, "edge", sk.sec(g))
                self._assert_cuts_are_the_sets(g, [m for m, _ in sets])

    def test_prefix_pair_edge_cuts_are_the_sets_random(self):
        # the oracle's edge subsets are capped as in test_matches_oracle
        checked = 0
        for g, seed in strongly_connected_corpus(100, n_hi=9):
            if math.comb(g.m, sk.sec(g)) <= 20_000:
                sets = oracle_weakening_sets(g, "edge")
                self._assert_cuts_are_the_sets(g, [m for m, _ in sets])
                checked += 1
        assert checked >= 80

    def test_prefix_pair_edge_flows_bound_the_work(self, monkeypatch):
        # gamma(3, 4): sigma1 = 3 on n = 14, m = 70. Its 10 edge sets come
        # from one arc-network flow capped at k + 1 per Hao-Orlin pair, the
        # 2(n - 1) = 26 pairs (x, v_j) and (v_j, y) on the degree order, and
        # no dominator pass, where a pool of edges with lambda = k (one flow
        # per edge) and one pass per 2-prefix of it took 70 flows and 406
        # passes. The augmenting search runs for exactly the 10 pairs whose
        # packing falls short of the cap, and each ends at k with a cut
        g = sk.gamma(sk.FamilyParams(3, 4))
        k = sk.sec(g)
        module = importlib.import_module("svckit.connectivity")
        passes = []

        def counted_bridges(*args):
            passes.append(args)
            return _bridges(*args)

        calls = _count_flows(monkeypatch, EdgeFlowNetwork)
        monkeypatch.setattr(module, "_bridges", counted_bridges)
        sets = _weakening_sets(g, "edge", k, None, True)
        pairs = _even_pairs(g, _degree_order(g), 1)
        assert (k, g.n, g.m, len(pairs), len(sets)) == (3, 14, 70, 26, 10)
        assert calls["min_cuts"] == [(a, b, k) for a, b in pairs]
        x = g.n + 1
        assert [c[:3] for c in calls["pack"]] == [(x if a == g.n else a, b, k + 1) for a, b in pairs]
        short = [c for c in calls["pack"] if c[3] < k + 1]
        assert [c[:4] for c in calls["max_flow"]] == short and len(short) == 10
        assert all(c[3] == k and c[4] for c in calls["max_flow"])
        assert passes == []

    @pytest.mark.parametrize("across", [(2, 3), (3, 2)])
    def test_planted_edge_cut_late_in_the_degree_order(self, across, monkeypatch):
        # bidirected K8 on A = 0..7 and K5 on B = 8..12, joined by
        # across[0] arcs A -> B and across[1] arcs B -> A: the one minimum
        # edge set is the sparser side's, and A's vertices, then 8, lead
        # the degree order. A cut delta+(A) is first met by the pair
        # (x, 8), with x joined to all of A, and delta+(B) by (8, y), at
        # the ninth vertex of thirteen: the 14 pairs of A's later vertices
        # all reach the scan's cap, and the scan and the listing both find
        # the set
        forward, backward = across
        arcs = {(u, v) for block in (range(8), range(8, 13))
                for u, v in itertools.permutations(block, 2)}
        arcs |= {(i, 8 + i) for i in range(forward)} | {(8 + i, 2 + i) for i in range(backward)}
        g = sk.DirectedGraph(13, arcs)
        want = (((0, 8), (1, 9)),) if forward == 2 else (((8, 2), (9, 3)),)
        assert sorted(_degree_order(g)[:9]) == list(range(9))
        flows = []
        run = EdgeFlowNetwork._run

        def counted(net, s, t, limit):
            result = run(net, s, t, limit)
            flows.append((s, t, result[0], result[1] is not None))
            return result

        monkeypatch.setattr(EdgeFlowNetwork, "_run", counted)
        assert sk.sec(g) == 2
        below = [i for i, f in enumerate(flows) if f[3]]
        assert below[0] == 14 and flows[below[-1]][:3] == ((13, 8, 2) if forward == 2
                                                           else (8, 13, 2)), flows
        sets, _ = reference_weakening_sets(g, "edge", 2)
        got = sk.weakening_edge_sets(g)
        assert [w.members for w in got] == [m for m, _ in sets] == list(want)
        assert got[0].resulting_scc_sizes == (8, 5)

    def test_prefix_pair_flows_bound_the_work(self, monkeypatch):
        # gamma(3, 4): sigma0 = 3 on n = 14. Its one vertex set comes from
        # one split-network flow capped at k + 1 per prefix pair on k + 1
        # prefix vertices (32 of them) and no dominator pass, where one pass
        # per 2-prefix took 78. The augmenting search runs for exactly the
        # 10 pairs whose packing falls short of the cap
        g = sk.gamma(sk.FamilyParams(3, 4))
        k = sk.svc(g)
        module = importlib.import_module("svckit.connectivity")
        passes = []

        def counted_candidates(*args):
            passes.append(args)
            return _candidates(*args)

        calls = _count_flows(monkeypatch)
        monkeypatch.setattr(module, "_candidates", counted_candidates)
        sets = _weakening_sets(g, "vertex", k, None, True)
        pairs = _even_pairs(g, _degree_order(g), k + 1)
        assert (k, g.n, len(pairs), len(sets)) == (3, 14, 32, 1)
        assert calls["min_cuts"] == [(a, b, k) for a, b in pairs]
        assert [c[:3] for c in calls["pack"]] == [(2 * a + 1, 2 * b, k + 1) for a, b in pairs]
        short = [c for c in calls["pack"] if c[3] < k + 1]
        assert [c[:4] for c in calls["max_flow"]] == short and len(short) == 10
        assert passes == []

    def test_listing_flows_are_capped_at_k_plus_one(self, monkeypatch):
        # random_digraph(30, 0.15, 32): sigma0 = 2 and 9 sets. One flow
        # capped at k + 1 per prefix pair on k + 1 prefix vertices, 57 in
        # all; the packing, with paths of up to three middle vertices, leaves
        # 9 of them short, and all 9 end at k, below the cap, and list a cut
        g = sk.random_digraph(30, 0.15, 32)
        k = sk.svc(g)
        calls = _count_flows(monkeypatch)
        sets = _weakening_sets(g, "vertex", k, None, False)
        pairs = _even_pairs(g, _degree_order(g), k + 1)
        assert (k, g.n, len(sets), len(pairs)) == (2, 30, 9, 57)
        assert calls["min_cuts"] == [(a, b, k) for a, b in pairs]
        assert [c[:3] for c in calls["pack"]] == [(2 * a + 1, 2 * b, k + 1) for a, b in pairs]
        short = [c for c in calls["pack"] if c[3] < k + 1]
        assert [c[:4] for c in calls["max_flow"]] == short and len(short) == 9
        assert sum(c[4] for c in calls["max_flow"]) == 9

    def test_every_order_lists_the_same_sets(self, monkeypatch):
        # Even's pairs cover every minimum vertex set on any vertex order,
        # and with k + 1 prefix vertices each minimum cut they list is one
        # of those sets, while svc and zeta0 keep their values: the degree
        # order and three seeded random orders on seeded cores with n 13-40
        # past the oracle, gamma(a, b) for b <= 4, halves joined through a
        # k-vertex middle and unions of k arc-disjoint cycles
        module = importlib.import_module("svckit.connectivity")
        graphs = [g for g, _ in strongly_connected_corpus(40, n_lo=13, n_hi=40,
                                                          probs=(0.12, 0.2, 0.3))]
        graphs += [sk.gamma(sk.FamilyParams(a, b)) for b in range(1, 5) for a in range(1, b + 1)]
        graphs += [_separated(n, k, seed) for k, n, seed in ((2, 14, 0), (4, 13, 3), (5, 15, 4))]
        graphs += [_disjoint_cycles(13, k, 0) for k in (2, 3, 4)]
        ks, several, scanned = [], 0, 0
        for i, g in enumerate(graphs):
            k = sk.svc(g)
            if not 2 <= k <= min(5, g.n - 2):
                continue
            ks.append(k)
            want = [w.members for w in _weakening_sets(g, "vertex", k, None, True)]
            several += len(want) >= 2
            und = sk.underlying(g)
            zeta0 = sk.undirected_vertex_connectivity(und)
            scanned += _vertex_upper_bound(g) >= 3 and _vertex_upper_bound(und) >= 3
            orders = [_degree_order(g)] + [random.Random(10 * i + r).sample(range(g.n), g.n)
                                           for r in range(3)]
            for order in orders:
                monkeypatch.setattr(module, "_degree_order", lambda h: order)
                net = VertexFlowNetwork(g)
                cuts = {cut for a, b in _prefix_pairs(net, k + 1) for cut in net.min_cuts(a, b, k)}
                assert sorted(cuts) == want, (g, order)
                assert (sk.svc(g), sk.undirected_vertex_connectivity(und)) == (k, zeta0), (g, order)
            monkeypatch.undo()
        assert set(ks) == {2, 3, 4, 5} and len(ks) >= 25 and several >= 15 and scanned >= 15

    def test_edge_sets_match_reference_up_to_k4(self):
        # n >= 13, past the oracle: unions of k random Hamiltonian cycles
        # at k = 2 and 3 in full, and unions of 4 arc-disjoint ones up to
        # the sets through an out-arc of vertex 0: all C(52, 4) subsets
        # would take the reference about 10 s per graph
        for k, n, limits in ((2, 20, (None, 1, 3)), (3, 13, (None, 3))):
            g = next(g for seed in range(100) if sk.sec(g := _cycle_union(n, k, seed)) == k)
            self._assert_matches_reference(g, "edge", k, limits)
        for seed in (0, 1):
            g = _disjoint_cycles(13, 4, seed)
            head = sum(w.members[0][0] == 0 for w in sk.weakening_edge_sets(g, allow_large=True))
            assert (sk.sec(g), g.m, head) == (4, 52, 5)
            self._assert_matches_reference(g, "edge", 4, (1, head))

    def test_vertex_sets_match_reference_at_k4_k5(self):
        # n 13-20, past the oracle: halves joined through a k-vertex
        # middle, whose sets mix the middle with vertex neighbourhoods, and
        # unions of k arc-disjoint Hamiltonian cycles, whose every vertex
        # has in- and out-degree k
        cases = [(_separated(n, k, seed), k) for k, n, seed in
                 ((4, 13, 3), (4, 20, 0), (5, 15, 4), (5, 17, 0))]
        cases += [(_disjoint_cycles(13, 4, 0), 4), (_disjoint_cycles(14, 5, 0), 5)]
        for g, k in cases:
            assert sk.svc(g) == k and len(sk.weakening_vertex_sets(g, allow_large=True)) >= 2
            self._assert_matches_reference(g, "vertex", k, (None, 1))

    def test_edge_sizes_match_rebuild_past_oracle(self):
        # n 13-40: each edge set's sizes are those of g - W rebuilt, and the
        # list is the literal subset loop's, at k = sigma1 = 1, 2 and 3
        graphs = [g for g, _ in strongly_connected_corpus(8, n_lo=13, n_hi=40, probs=(0.12,))]
        for k, ns in ((2, (13, 20, 27, 34, 40)), (3, (13, 14, 15))):
            graphs += [next(g for seed in range(100)
                            if sk.sec(g := _cycle_union(n, k, seed)) == k) for n in ns]
        ks = []
        for g in graphs:
            k = sk.sec(g)
            ks.append(k)
            sets = _weakening_sets(g, "edge", k, None, True)
            for w in sets:
                h = sk.remove_edges(g, w.members)
                assert w.resulting_scc_sizes == tuple(
                    sorted(map(len, sk.scc(h).components), reverse=True)), (g, w)
            want, _ = reference_weakening_sets(g, "edge", k)
            assert [(w.members, w.resulting_scc_sizes) for w in sets] == want, g
        assert {1, 2, 3} <= set(ks) and min(g.n for g in graphs) >= 13

    def test_guard_text_in_report_flags(self):
        rep = sk.report(sk.doubled_complete(5), enumerate_witnesses=True)
        assert rep.flags == [
            "enumeration-skipped: sigma0=4: subset enumeration needs allow_large=True"
        ]
        # two bidirected K5 sharing vertices 3 and 4: sigma0 = 2, sigma1 = 4
        blocks = (range(5), range(3, 8))
        bowtie = sk.DirectedGraph(8, {(u, v) for b in blocks for u in b for v in b if u != v})
        rep = sk.report(bowtie, enumerate_witnesses=True)
        assert (rep.sigma0, rep.sigma1) == (2, 4)
        assert rep.flags == [
            "enumeration-skipped: sigma1=4: subset enumeration needs allow_large=True"
        ]
        assert rep.vertex_witnesses == [] and rep.witness_counts is None

    def test_returned_iff_weakening_exhaustive(self):
        # every same-size subset NOT returned keeps the graph strongly
        # connected; spot-checked where sigma <= 2 and n <= 30
        for g in [
            sk.directed_cycle(9),
            sk.gamma(sk.FamilyParams(1, 3)),
            sk.gamma(sk.FamilyParams(2, 3)),
        ]:
            k = sk.svc(g)
            returned = {w.members for w in sk.weakening_vertex_sets(g)}
            for subset in itertools.combinations(range(g.n), k):
                h, _ = sk.remove_vertices(g, subset)
                weakening = h.n == 1 or not sk.is_strongly_connected(h)
                assert weakening == (subset in returned)

    def test_returned_iff_weakening_exhaustive_edges(self):
        for g in [
            sk.directed_cycle(9),
            sk.gamma(sk.FamilyParams(1, 3)),
            sk.gamma(sk.FamilyParams(2, 3)),
        ]:
            k = sk.sec(g)
            returned = {w.members for w in sk.weakening_edge_sets(g)}
            for subset in itertools.combinations(g.sorted_edges(), k):
                weakening = not sk.is_strongly_connected(sk.remove_edges(g, subset))
                assert weakening == (subset in returned)

    def test_matches_oracle(self):
        # same members, order, SCC sizes and capped flag as the literal
        # bitmask enumeration, for both kinds and several limits
        graphs = [g for g, _ in strongly_connected_corpus(40)]
        graphs += [
            sk.gamma(sk.FamilyParams(a, b))
            for b in range(1, 5)
            for a in range(1, b + 1)
        ]
        graphs = [g for g in graphs if g.n <= 12]  # gamma(a<4, 4) has 14
        for g in graphs:
            kinds = [("vertex", sk.weakening_vertex_sets)]
            # three dense n = 8 graphs have C(m, sigma1) >= 136k edge
            # subsets, 4-36 s each in the oracle; their vertex sets stay
            if math.comb(g.m, sk.sec(g)) <= 20_000:
                kinds.append(("edge", sk.weakening_edge_sets))
            for kind, enum in kinds:
                expected = oracle_weakening_sets(g, kind)
                for limit in (None, 1, 3):
                    got = enum(g, limit=limit, allow_large=True)
                    want = expected if limit is None else expected[:limit]
                    assert [(w.members, w.resulting_scc_sizes) for w in got] == want
                    assert got.capped == (
                        limit is not None and len(expected) >= limit
                    ), (g, kind, limit)

    @staticmethod
    def _assert_matches_reference(g, kind, k, limits=(None, 1, 3)):
        enum = sk.weakening_vertex_sets if kind == "vertex" else sk.weakening_edge_sets
        for limit in limits:
            got = enum(g, limit=limit, allow_large=True)
            want, capped = reference_weakening_sets(g, kind, k, limit)
            assert [(w.members, w.resulting_scc_sizes) for w in got] == want, (
                g, kind, k, limit,
            )
            assert got.capped == capped, (g, kind, k, limit)

    def test_matches_reference_past_oracle(self):
        # sigma0 = sigma1 = 2 digraphs with n 40-80, and gamma(a, 4),
        # which has 14 vertices (gamma(3, 4) edges: k = 3)
        graphs = [_sigma_two(n) for n in (40, 60, 80)]
        graphs += [sk.gamma(sk.FamilyParams(a, 4)) for a in (1, 2, 3)]
        for g in graphs:
            self._assert_matches_reference(g, "vertex", sk.svc(g), (None, 3))
            self._assert_matches_reference(g, "edge", sk.sec(g), (None, 3))


class TestUndirectedConnectivity:
    def test_complete(self):
        for b in range(1, 6):
            kb1 = sk.underlying(sk.doubled_complete(b + 1))
            assert sk.undirected_vertex_connectivity(kb1) == b

    def test_path_graph(self):
        d = sk.UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert sk.undirected_vertex_connectivity(d) == 1
        assert sk.undirected_edge_connectivity(d) == 1

    def test_cycle_graph_edges(self):
        d = sk.UndirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert sk.undirected_edge_connectivity(d) == 2

    def test_disconnected_is_zero(self):
        d = sk.UndirectedGraph(4, [(0, 1)])
        assert sk.undirected_vertex_connectivity(d) == 0
        assert sk.undirected_edge_connectivity(d) == 0

    def test_gamma_underlying_zeta(self):
        for a, b in [(1, 3), (2, 3), (1, 4), (3, 4)]:
            g = sk.gamma(sk.FamilyParams(a, b))
            assert sk.undirected_vertex_connectivity(sk.underlying(g)) == b

    def test_no_directed_graph_is_built(self, monkeypatch):
        # zeta0 and zeta1 read the UndirectedGraph as its own doubled digraph
        graphs = [sk.underlying(sk.gamma(sk.FamilyParams(2, 4))),
                  sk.underlying(_first_strong(30, 0.15))]
        built = []
        init = sk.DirectedGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sk.DirectedGraph, "__init__", counting_init)
        for d in graphs:
            assert sk.undirected_vertex_connectivity(d) >= 1
            assert sk.undirected_edge_connectivity(d) >= 1
        assert built == []
        sk.DirectedGraph(2, [(0, 1)])  # the patch is live: a direct build counts
        assert len(built) == 1


def _bidirected(n, edges):
    return sk.doubled(sk.UndirectedGraph(n, edges))


def _bound_two(seed):
    # 2-3 blocks chained by a shared vertex, an antiparallel arc pair, one
    # arc each way or two arcs each way; a block is a bidirected cycle or
    # a union of two Hamiltonian cycles, plus up to 2 chords. Always
    # strongly connected, n 5-57; many have degree bound 2, and each joint
    # kind gives value 1 or 2 to some of svc, sec, zeta0 and zeta1
    rng = random.Random(seed)
    arcs, n, prev = set(), 0, None
    for _ in range(rng.randint(2, 3)):
        joint = rng.choice(("vertex", "pair", "one", "two")) if prev else None
        size = rng.randint(3, 19)
        block = [rng.choice(prev)] if joint == "vertex" else []
        block += range(n, n + size - len(block))
        n += size - (joint == "vertex")
        bidirected = rng.random() < 0.5
        for _ in range(2):
            order = rng.sample(block, size)
            arcs |= {(order[i - 1], order[i]) for i in range(size)}
            if bidirected:
                arcs |= {(order[i], order[i - 1]) for i in range(size)}
                break
        for _ in range(rng.randint(0, 2)):
            arcs.add(tuple(rng.sample(block, 2)))
        if joint in ("pair", "one", "two"):
            a, b = rng.choice(prev), rng.choice(block)
            back = (b, a) if joint == "pair" else (rng.choice(block), rng.choice(prev))
            arcs |= {(a, b), back}
        if joint == "two":
            arcs |= {(rng.choice(prev), rng.choice(block)), (rng.choice(block), rng.choice(prev))}
        prev = block
    return sk.DirectedGraph(n, arcs)


def _fly_shaped(n, extra, seed):
    # a random Hamiltonian cycle plus `extra` random arcs, as the fly
    # stand-in's core: many in- or out-degree 1 vertices, sigma0 = 1
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    arcs = {(order[i - 1], order[i]) for i in range(n)}
    while len(arcs) < n + extra:
        arcs.add(tuple(rng.sample(range(n), 2)))
    return sk.DirectedGraph(n, arcs)


def _two_way_bridge():
    # the graph of test_dominator_of_both_trees_cuts_off_several_sccs
    return sk.DirectedGraph(10, [(0, 6), (6, 7), (7, 0), (0, 1), (1, 0), (1, 2), (2, 3),
                                 (3, 2), (3, 1), (1, 4), (4, 5), (5, 4), (5, 1), (4, 2),
                                 (1, 8), (8, 0), (0, 9), (9, 1)])


def _assert_candidates_are_the_cuts(g):
    # _candidates(g) against removing each vertex and running the reference
    # Tarjan: exactly the c that split g, ascending, each with away the
    # vertices other than c outside one SCC of the rest, the root's for a
    # dominator and a largest one for the root. Returns the listed c
    succ, dead, splits = [g.successors(v) for v in range(g.n)], bytearray(g.n), {}
    for c in range(g.n):
        dead[c] = 1
        comps = reference_components(succ, dead)
        dead[c] = 0
        if len(comps) > 1:
            splits[c] = [sorted(comp) for comp in comps]
    got = list(_candidates(g))
    assert [c for c, _ in got] == list(splits), g
    for c, away in got:
        away = set(away)  # an iterable, read once
        assert c not in away, (g, c)
        kept, comps = sorted(set(range(g.n)).difference(away, [c])), splits[c]
        if c == 0:
            assert kept in comps and len(kept) == max(map(len, comps)), g
        else:
            assert kept == next(comp for comp in comps if 0 in comp), (g, c)
    return list(splits)


def _reference_sizes(g, kind, members):
    # SCC sizes of g - W, descending, from the reference Tarjan
    succ = [list(g.successors(v)) for v in range(g.n)]
    dead = bytearray(g.n)
    for x in members:
        if kind == "vertex":
            dead[x] = 1
        else:
            succ[x[0]].remove(x[1])
    return tuple(sorted(map(len, reference_components(succ, dead)), reverse=True))


def _first_strong(n, p, seed=0):
    while not sk.is_strongly_connected(g := sk.random_digraph(n, p, seed)):
        seed += 1
    return g


def _cycle_union(n, count, seed):
    # union of `count` random Hamiltonian cycles: every in- and out-degree
    # is at most `count`
    rng = random.Random(seed)
    arcs = set()
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        arcs |= {(order[i], order[(i + 1) % n]) for i in range(n)}
    return sk.DirectedGraph(n, arcs)


def _disjoint_cycles(n, count, seed):
    # union of `count` arc-disjoint random Hamiltonian cycles: every in-
    # and out-degree is exactly `count`
    rng = random.Random(seed)
    arcs = set()
    while count:
        order = list(range(n))
        rng.shuffle(order)
        cycle = {(order[i], order[(i + 1) % n]) for i in range(n)}
        if not cycle & arcs:
            arcs |= cycle
            count -= 1
    return sk.DirectedGraph(n, arcs)


def _separated(n, k, seed):
    # halves joined only through the k middle vertices a..a+k-1: each arc
    # inside A + S or inside S + B with probability 0.8
    rng = random.Random(seed)
    a = (n - k) // 2
    arcs = {(u, v) for side in (range(a + k), range(a, n)) for u in side for v in side
            if u != v and rng.random() < 0.8}
    return sk.DirectedGraph(n, arcs)


def _sigma_two(n, seed=0):
    # the first seed whose union of two Hamiltonian cycles has sigma0 =
    # sigma1 = 2 (a few tries suffice, so a scan that never answers 2
    # fails instead of hanging)
    for seed in range(seed, seed + 100):
        g = _cycle_union(n, 2, seed)
        if sk.svc(g) == 2 and sk.sec(g) == 2:
            return g
    raise AssertionError(f"no sigma0 = sigma1 = 2 graph on {n} vertices in 100 seeds")


def _bridged(n, p, k, seed):
    # two random halves joined by k arcs each way: a sparse cut below the
    # minimum degree, so the degree bound alone cannot give the answer
    import random

    rng = random.Random(seed)
    h = n // 2
    arcs = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (u < h) == (v < h) and rng.random() < p
    }
    for lo, hi in (((0, h), (h, n)), ((h, n), (0, h))):
        crossing = set()
        while len(crossing) < k:
            crossing.add((rng.randrange(*lo), rng.randrange(*hi)))
        arcs |= crossing
    return sk.DirectedGraph(n, arcs)


def _count_flows(monkeypatch, network=VertexFlowNetwork):
    # records each min_cuts call as (s, t, k), each packing as (source
    # node, sink node, limit, paths packed), and each augmenting search as
    # (source node, sink node, limit, units packed, ended below)
    calls = {"min_cuts": [], "pack": [], "max_flow": []}
    min_cuts, pack = network.min_cuts, network._pack
    max_flow = network._max_flow

    def counted_cuts(net, s, t, k):
        calls["min_cuts"].append((s, t, k))
        return min_cuts(net, s, t, k)

    def counted_pack(net, s, t, limit):
        paths = pack(net, s, t, limit)
        calls["pack"].append((net._out(s), net.split * t, limit, len(paths)))
        return paths

    def counted_flow(net, cap, s, t, limit, flow=0):
        value, parent = max_flow(net, cap, s, t, limit, flow)
        calls["max_flow"].append((s, t, limit, flow, parent is not None))
        return value, parent

    monkeypatch.setattr(network, "min_cuts", counted_cuts)
    monkeypatch.setattr(network, "_pack", counted_pack)
    monkeypatch.setattr(network, "_max_flow", counted_flow)
    return calls


def _even_pairs(g, order, p):
    # Even's pairs on `order`, restated: each non-arc pair among the first
    # p vertices (one way on an UndirectedGraph), then (x, v) and (v, y)
    # for each later v, vertex n naming x and y
    both = isinstance(g, sk.DirectedGraph)
    pairs = []
    for j, v in enumerate(order):
        if j < p:
            for u in order[:j]:
                pairs += [(a, b) for a, b in ((u, v), (v, u))[:1 + both] if not g.has_edge(a, b)]
        else:
            pairs += ((g.n, v), (v, g.n))[:1 + both]
    return pairs


def _planted(h, v_in_separator):
    # bidirected cliques A = 0..h-1 and B = h..2h-1 with every arc B -> A;
    # A reaches B only through separator vertices, one of them s = 2h
    # (arcs in from all of A, out to all of B). Vertex v = 2h + 1 has in-
    # and out-degree 3, so the degree bound is 3, while sigma0 = 2. Either
    # v is the second separator vertex (3 arcs in from A, 3 out to B),
    # making {s, v} the one minimum separator, or v hangs off B and a
    # second separator vertex 2h + 2 like s makes {s, 2h + 2} the one
    # minimum separator. v and the separator have the lowest degrees (6 and
    # 2h, where every clique vertex has more than 3h - 2), so they come
    # last in the degree order.
    a_side, b_side = list(range(h)), list(range(h, 2 * h))
    arcs = {(x, y) for side in (a_side, b_side) for x in side for y in side if x != y}
    arcs |= {(b, a) for a in a_side for b in b_side}
    seps = [2 * h] if v_in_separator else [2 * h, 2 * h + 2]
    arcs |= {(a, s) for s in seps for a in a_side} | {(s, b) for s in seps for b in b_side}
    v = 2 * h + 1
    ins = a_side[:3] if v_in_separator else b_side[:3]
    arcs |= {(x, v) for x in ins} | {(v, y) for y in b_side[-3:]}
    return sk.DirectedGraph(2 * h + len(seps) + 1, arcs)


def _hub_planted(h):
    # bidirected cliques A = 0..h-1 and B = h..2h-1 with every arc B -> A;
    # A reaches B only through the hubs s = 2h and t = 2h + 1, each joined
    # both ways to all of A and all of B. Vertex w = 2h + 2 has 3 arcs in
    # from B and 3 out to B, so the degree bound is 3, while sigma0 = 2
    # with {s, t} the one minimum separator. The hubs have degree 4h + 2,
    # above every clique vertex's 3h + 2 or 3h + 3, so they are the first
    # two vertices of the degree order, inside the step-1 prefix.
    a_side, b_side = list(range(h)), list(range(h, 2 * h))
    arcs = {(x, y) for side in (a_side, b_side) for x in side for y in side if x != y}
    arcs |= {(b, a) for a in a_side for b in b_side}
    hubs, w = (2 * h, 2 * h + 1), 2 * h + 2
    arcs |= {e for s in hubs for v in a_side + b_side for e in ((s, v), (v, s))}
    arcs |= {(hubs[0], hubs[1]), (hubs[1], hubs[0])}
    arcs |= {(x, w) for x in b_side[:3]} | {(w, y) for y in b_side[-3:]}
    return sk.DirectedGraph(2 * h + 3, arcs)


def _reversed(g):
    return sk.DirectedGraph(g.n, [(v, u) for u, v in g.edges])


@functools.lru_cache(maxsize=None)
def _past_oracle_graphs():
    planted = [_planted(h, side) for h in (20, 40) for side in (True, False)]
    planted += [_hub_planted(h) for h in (20, 30)]
    return [
        _first_strong(40, 0.15),
        _first_strong(100, 0.06),
        _first_strong(200, 0.04),
        _first_strong(300, 0.03),
        _bridged(120, 0.3, 3, 4),
        _sigma_two(60),
        _sigma_two(300),
    ] + planted + [_reversed(g) for g in planted]


class TestNetworkxDifferential:
    """Connectivities past the oracle's n <= 12 limit."""

    def test_svc_matches_reference(self):
        # the Even-Tarjan source scan that svc used before the pivot pairs
        for g in _past_oracle_graphs():
            assert sk.svc(g) == reference_svc(g), repr(g)

    def test_zeta0_matches_networkx(self):
        # node_connectivity of the undirected underlying graph: that
        # definition agrees with svckit's, the directed one does not
        nx = pytest.importorskip("networkx")
        for g in _past_oracle_graphs():
            und = sk.underlying(g)
            ug = nx.Graph()
            ug.add_nodes_from(range(und.n))
            ug.add_edges_from(und.edges)
            assert sk.undirected_vertex_connectivity(und) == nx.node_connectivity(ug), repr(g)

    def test_planted_separators_late_in_the_order(self):
        # the one minimum separator comes last in the degree order, past
        # the prefix of the degree bound 3, so a super pair finds it: (x, v)
        # on _planted, (v, y) on its reverse
        for side in (True, False):
            for g in (_planted(20, side), _reversed(_planted(20, side))):
                sep = {40, 41} if side else {40, 42}
                assert sep <= set(_degree_order(g)[-3:]) and _vertex_upper_bound(g) == 3
                assert sk.svc(g) == reference_svc(g) == 2
                assert [w.members for w in sk.weakening_vertex_sets(g)] == [tuple(sorted(sep))]

    def test_planted_separator_first_in_the_order(self):
        # the mirror case: the one minimum separator is the two highest-
        # degree vertices, the first of the degree order, so the step-1
        # prefix holds it and a super pair finds it: (v, y) on _hub_planted,
        # whose third prefix vertex lies in B, and (x, v) on its reverse
        # (zeta0 of these graphs is checked against networkx above)
        for g in (_hub_planted(20), _reversed(_hub_planted(20))):
            sep = (40, 41)
            assert set(_degree_order(g)[:2]) == set(sep) and _vertex_upper_bound(g) == 3
            assert sk.svc(g) == reference_svc(g) == 2
            assert [w.members for w in sk.weakening_vertex_sets(g)] == [sep]

    def test_prefix_cut_at_the_degree_bound(self):
        # value = degree bound k0: at the first super pair, j - 1 = k0 and
        # the prefix itself is a minimum cut of x and v_j, in both
        # directions. It is no separator, and the scan, capped at k0, keeps
        # k0
        cases = [_disjoint_cycles(13, 3, 0), _disjoint_cycles(15, 3, 3),
                 _disjoint_cycles(14, 4, 1)]
        for g in cases:
            k0 = _vertex_upper_bound(g)
            order = _degree_order(g)
            net = VertexFlowNetwork(g)
            for v in order[:k0]:
                net.enable(v)
            prefix = tuple(sorted(order[:k0]))
            for a, b in ((g.n, order[k0]), (order[k0], g.n)):
                assert net.flow(a, b).value == k0 and prefix in set(net.min_cuts(a, b, k0)), g
            assert sk.is_strongly_connected(sk.remove_vertices(g, prefix)[0]), g
            assert sk.svc(g) == reference_svc(g) == k0, g

    def test_edge_connectivity_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        graphs = [
            _first_strong(100, 0.06),
            _first_strong(200, 0.04),
            _first_strong(300, 0.03),
            _bridged(120, 0.3, 3, 4),
            _bridged(200, 0.2, 2, 5),
        ]
        for g in graphs:
            assert sk.is_strongly_connected(g)
            dg = nx.DiGraph()
            dg.add_nodes_from(range(g.n))
            dg.add_edges_from(g.edges)
            assert sk.sec(g) == nx.edge_connectivity(dg), repr(g)
            assert sk.undirected_edge_connectivity(
                sk.underlying(g)
            ) == nx.edge_connectivity(dg.to_undirected()), repr(g)

    def test_lowpoint_dfs_matches_networkx(self):
        # on U(g) the k = 1 lister reads one lowpoint DFS: its candidates
        # are networkx's articulation points and its bridges both arcs of
        # networkx's bridges, each away checked by the reference Tarjan
        # (on the 2000-vertex path, every 97th; its DFS runs 2000 deep). The
        # fly-sized core has neither, as zeta0 = zeta1 = 2
        nx = pytest.importorskip("networkx")
        core = sk.random_digraph(1781, 0.003, 5)
        core = sk.induced(core, max(sk.scc(core).components, key=len))[0]
        graphs = [_fly_shaped(n, extra, seed)
                  for n, extra, seed in ((60, 6, 0), (100, 50, 1), (140, 210, 2), (200, 20, 3))]
        graphs += [_bound_two(seed) for seed in range(60)]
        # the root joins two triangles, then a triangle, a 4-cycle and a path
        graphs += [_bidirected(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
                   _bidirected(8, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (5, 0),
                                   (0, 6), (6, 7)])]
        found = [_assert_lowpoint_lists_match(sk.underlying(g), nx) for g in graphs]
        roots = sum(0 in points for points, _ in found)
        assert sum(map(len, (p for p, _ in found))) - roots >= 70 and roots >= 3
        assert sum(b for _, b in found) >= 40
        assert _assert_lowpoint_lists_match(sk.underlying(core), nx) == ([], 0)
        path = sk.underlying(_bidirected(2000, [(v, v + 1) for v in range(1999)]))
        assert _assert_lowpoint_lists_match(path, nx, every=97) == (list(range(1, 1999)), 3998)
        assert sk.undirected_vertex_connectivity(path) == 1


def _assert_lowpoint_lists_match(u, nx, every=1):
    # _candidates(u) and _bridges(u) against networkx, and every listed
    # item's away against the reference Tarjan: for the root, all but a
    # largest part of u - 0; for any other vertex or arc, all outside the
    # root's SCC of the rest. Returns the listed vertices and the arc count
    ug = nx.Graph()
    ug.add_nodes_from(range(u.n))
    ug.add_edges_from(u.edges)
    points, arcs = list(_candidates(u)), list(_bridges(u))
    assert [c for c, _ in points] == sorted(nx.articulation_points(ug)), u
    assert [a for a, _ in arcs] == sorted(a for e in nx.bridges(ug) for a in (e, e[::-1])), u
    adj, everyone = [u.neighbors(v) for v in range(u.n)], set(range(u.n))
    for c, away in points[::every]:
        away, dead = set(away), bytearray(u.n)  # an iterable, read once
        dead[c] = 1
        comps = list(map(set, reference_components(adj, dead)))
        kept = everyone - away - {c}
        assert c not in away, (u, c)
        if c == 0:
            assert kept in comps and len(kept) == max(map(len, comps)), u
        else:
            assert kept == next(comp for comp in comps if 0 in comp), (u, c)
    for (a, b), away in arcs[::every]:
        rest = adj[:]
        rest[a] = [w for w in adj[a] if w != b]
        comps = reference_components(rest, bytearray(u.n))
        assert everyone - away == set(next(comp for comp in comps if 0 in comp)), (u, a, b)
    return [c for c, _ in points], len(arcs)


class TestBoundTwoCertificate:
    """At degree bound 2 the scans decide 1 or 2 from one strong
    articulation point or strong bridge pass, without a flow."""

    def test_planted_value_one(self):
        # two bidirected triangles sharing vertex 2, and two joined by the
        # antiparallel pair 2 <-> 3; random unions of two Hamiltonian
        # cycles almost never have value 1
        bowtie = _bidirected(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        bridged = _bidirected(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        for g in (bowtie, bridged):
            und = sk.underlying(g)
            assert _vertex_upper_bound(g) == min(_degrees(g)) == 2
            assert _vertex_upper_bound(und) == min(_degrees(und)) == 2
            assert sk.svc(g) == sk.undirected_vertex_connectivity(und) == 1
        assert sk.sec(bowtie) == sk.undirected_edge_connectivity(sk.underlying(bowtie)) == 2
        assert sk.sec(bridged) == sk.undirected_edge_connectivity(sk.underlying(bridged)) == 1

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        seen = {name: set() for name in ("svc", "sec", "zeta0", "zeta1")}
        for seed in range(120):
            g = _bound_two(seed)
            dg = nx.DiGraph(list(g.edges))
            und = sk.underlying(g)
            ug = nx.Graph(list(und.edges))
            cases = [
                ("svc", _vertex_upper_bound(g), sk.svc,
                 lambda: any(not nx.is_strongly_connected(nx.restricted_view(dg, [v], []))
                             for v in dg)),
                ("sec", min(_degrees(g)), sk.sec,
                 lambda: any(not nx.is_strongly_connected(nx.restricted_view(dg, [], [e]))
                             for e in dg.edges)),
                ("zeta0", _vertex_upper_bound(und), sk.undirected_vertex_connectivity,
                 lambda: bool(list(nx.articulation_points(ug)))),
                ("zeta1", min(_degrees(und)), sk.undirected_edge_connectivity,
                 lambda: bool(list(nx.bridges(ug)))),
            ]
            for name, bound, scan, breaks in cases:
                if bound != 2:
                    continue
                value = scan(und if name.startswith("zeta") else g)
                assert value == (1 if breaks() else 2), (name, seed)
                seen[name].add(value)
        assert all(values == {1, 2} for values in seen.values()), seen

    def test_no_flow_at_bound_two(self, monkeypatch):
        g = _sigma_two(60)
        # a Hamiltonian cycle with chords 4j -> 4j + 8: zeta0 = zeta1 = 2
        und = sk.underlying(sk.DirectedGraph(
            40, [(v, (v + 1) % 40) for v in range(40)] + [(4 * j, 4 * j + 8) for j in range(8)]
        ))
        assert _vertex_upper_bound(g) == min(_degrees(g)) == 2
        assert _vertex_upper_bound(und) == min(_degrees(und)) == 2
        flows = []

        def counted(real):
            # at _run, which every scan, listing and flow goes through
            def run(net, s, t, limit):
                flows.append((s, t))
                return real(net, s, t, limit)
            return run

        for network in (VertexFlowNetwork, EdgeFlowNetwork):
            monkeypatch.setattr(network, "_run", counted(network._run))
        assert sk.svc(g) == sk.sec(g) == 2
        assert sk.undirected_vertex_connectivity(und) == 2
        assert sk.undirected_edge_connectivity(und) == 2
        assert flows == []


class TestPropositionOne:
    def test_sigma0_bounded_by_underlying_zeta0(self):
        graphs = [g for g, _ in strongly_connected_corpus(40)]
        graphs += [
            sk.gamma(sk.FamilyParams(a, b))
            for b in range(1, 5)
            for a in range(1, b + 1)
        ]
        for g in graphs:
            assert sk.svc(g) <= sk.undirected_vertex_connectivity(sk.underlying(g))

    def test_doubled_equals_zeta0(self):
        import random

        rng = random.Random(11)
        done = 0
        while done < 30:
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in pairs if rng.random() < 0.5]
            d = sk.UndirectedGraph(n, edges)
            if not d.is_connected():
                continue
            assert sk.svc(sk.doubled(d)) == oracle_zeta0(n, d.edges)
            done += 1


class TestReport:
    def test_two_cycle(self):
        rep = sk.report(sk.directed_cycle(2), enumerate_witnesses=True)
        assert rep.sigma0 == 1 and rep.sigma1 == 1
        assert rep.witness_counts == (2, 2)

    def test_gamma23(self):
        rep = sk.report(sk.gamma(sk.FamilyParams(2, 3)))
        assert rep.sigma0 == 2 and rep.zeta0_underlying == 3
        assert rep.vertex_witnesses == [] and rep.witness_counts is None

    def test_not_strongly_connected_flagged(self):
        g = sk.DirectedGraph(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2)])
        rep = sk.report(g)
        assert rep.sigma0 is None
        assert "not-strongly-connected" in rep.flags
        assert len(rep.component_reports) == 2
        sizes = sorted(len(v) for v in rep.component_vertices)
        assert sizes == [2, 3]

    def test_capped_enumeration(self):
        rep = sk.report(sk.directed_cycle(6), enumerate_witnesses=True, limit=2)
        assert rep.flags == ["enumeration-capped"]
        assert rep.witness_counts == (2, 2)
        assert [w.members for w in rep.vertex_witnesses] == [(0,), (1,)]

    def test_capped_component_reports(self):
        # two triangles joined by 2 -> 3, plus vertex 6 feeding in
        g = sk.DirectedGraph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                 (2, 3), (6, 0)])
        rep = sk.report(g, enumerate_witnesses=True, limit=1)
        assert rep.flags == ["not-strongly-connected"]
        assert rep.component_vertices == [[3, 4, 5], [0, 1, 2]]
        assert [sub.flags for sub in rep.component_reports] == [["enumeration-capped"]] * 2

    def test_no_unmasked_scc_pass(self, monkeypatch):
        # stats' diameter shows g strongly connected, so U(g) is connected:
        # sigma0, sigma1, zeta0 and zeta1 come from the unchecked cores, and
        # report and the enumeration make no pass over g's or U(g)'s own
        # lists. Edge sets are sized over lists with their arcs left out,
        # one pass per candidate; on gamma(2, 3) each of the 8 candidates is
        # a witness
        g = sk.gamma(sk.FamilyParams(2, 3))
        und = sk.underlying(g)
        own = [[g.successors(v) for v in range(g.n)], [und.neighbors(v) for v in range(g.n)]]
        modules = [importlib.import_module(f"svckit.{name}")
                   for name in ("scc", "connectivity", "decompose")]
        real = modules[0]._components
        unmasked, patched = [], []

        def counting(succ, pred, dead):
            if not any(dead):
                (unmasked if list(succ) in own else patched).append(dead)
            return real(succ, pred, dead)

        for module in modules:
            monkeypatch.setattr(module, "_components", counting)
        rep = sk.report(g, enumerate_witnesses=True)
        assert len(unmasked) == 0
        assert len(patched) == len(rep.edge_witnesses) == 8

    def test_no_graph_built_past_ingestion(self, monkeypatch):
        # the underlying graph and the components' subgraphs come from
        # sorted lists; neither public constructor runs
        graphs = [sk.gamma(sk.FamilyParams(2, 3)), _first_strong(30, 0.15),
                  _two_way_bridge(), sk.random_digraph(30, 0.08, 4)]
        assert not sk.is_strongly_connected(graphs[-1])
        built = count_graph_builds(monkeypatch)
        reports = [sk.report(g, True) for g in graphs]
        assert built == []
        assert reports[-1].component_reports
        sk.underlying(sk.DirectedGraph(2, [(0, 1)]))  # the patch is live
        assert built == ["DirectedGraph"]

    def test_dominator_trees_once_per_graph(self, monkeypatch):
        # every k = 1 pass reads what is kept on its graph, built once: g's
        # two dominator trees, and one lowpoint DFS of U(g). The bridged
        # triangles (degree bound 2, all four values 1) run the pass in all
        # four scans and both listings, 8 trees and 2 DFS if each built its
        # own; a fly-shaped graph (bound 1) in zeta0, zeta1 and both
        # listings, 4 trees and 2 DFS
        scc_module = importlib.import_module("svckit.scc")
        calls = []
        for name in ("_dominators", "_tree"):
            def counted(*args, name=name, real=getattr(scc_module, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(scc_module, name, counted)

        def counted_dfs(u, real=scc_module._lowpoints):
            if not hasattr(u, "_doms"):  # a read of a kept DFS is no build
                calls.append("_lowpoints")
            return real(u)

        monkeypatch.setattr(scc_module, "_lowpoints", counted_dfs)
        bridged = _bidirected(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        fly = _fly_shaped(100, 50, 1)
        assert (_vertex_upper_bound(bridged), _vertex_upper_bound(fly)) == (2, 1)
        for g, values in ((bridged, (1, 1, 1, 1)), (fly, (1, 1, 2, 2))):
            calls.clear()
            rep = sk.report(g, True)
            assert (rep.sigma0, rep.sigma1, rep.zeta0_underlying, rep.zeta1_underlying) == values
            assert min(rep.witness_counts) >= 1
            assert (calls.count("_dominators"), calls.count("_tree")) == (2, 2), g
            assert calls.count("_lowpoints") == 1, g
        calls.clear()
        und = sk.underlying(fly)
        assert _vertex_upper_bound(und) == min(_degrees(und)) == 2
        assert sk.undirected_vertex_connectivity(und) == sk.undirected_edge_connectivity(und) == 2
        assert calls == ["_lowpoints"]

    def test_trees_stay_with_their_graph(self):
        # a second report on the same object, its trees already built,
        # equals the report on an equal graph built afresh; and a graph
        # derived from g builds its own trees, equal to a fresh copy's
        g = _two_way_bridge()
        first = sk.report(g, True)
        assert sk.report(g, True) == first == sk.report(_two_way_bridge(), True)
        assert first.witness_counts == (7, 11)
        derived = [sk.induced(g, range(8))[0], sk.remove_edges(g, [(2, 3)]),
                   sk.remove_edges(g, [(4, 2)]), sk.underlying(g)]
        for h in derived:
            fresh = type(h)(h.n, h.edges)
            kept = _dominator_trees if isinstance(h, sk.DirectedGraph) else _lowpoints
            assert kept(h) == kept(fresh), h
            assert kept(h) != _dominator_trees(g), h
        assert _dominator_trees(derived[1]) is None  # 3 is cut off
        rep = sk.report(derived[0], True)
        assert rep == sk.report(sk.DirectedGraph(8, derived[0].edges), True)

    def test_matches_oracle(self):
        for g, seed in strongly_connected_corpus(15, n_lo=3, n_hi=7):
            rep = sk.report(g)
            assert rep.sigma0 == oracle_svc(g), f"seed={seed}"
