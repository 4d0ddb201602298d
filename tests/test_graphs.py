import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svckit as sk
from svckit.graphs import GraphInputError

from helpers import reference_diameter, seeded_random_graphs
from oracle import _und_connected


def cycle3():
    return sk.DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])


@st.composite
def digraphs(draw, max_n=8):
    # any drawn arcs, over a Hamiltonian cycle in a drawn order when drawn
    # so, so that strongly connected digraphs are common but not the rule
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = set(draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])))
    if n > 1 and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        arcs |= {(order[i - 1], order[i]) for i in range(n)}
    return sk.DirectedGraph(n, arcs)


@st.composite
def undirected_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True) if all_pairs else st.just([]))
    return sk.UndirectedGraph(n, edges)


class TestConstruction:
    # both graph types make the same checks with the same messages
    def test_rejects_self_loop(self):
        for cls in (sk.DirectedGraph, sk.UndirectedGraph):
            with pytest.raises(GraphInputError, match=r"^self-loop \(0, 0\) not allowed$"):
                cls(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        for cls in (sk.DirectedGraph, sk.UndirectedGraph):
            with pytest.raises(GraphInputError,
                               match=r"^edge \(0, 2\) has endpoint outside \[0, 2\)$"):
                cls(2, [(0, 2)])

    def test_rejects_bool_endpoint(self):
        # True would otherwise build arc (1, 2), with no error
        with pytest.raises(GraphInputError, match=r"^edge \(True, 2\) has endpoint outside"):
            sk.DirectedGraph(3, [(True, 2), (2, 0), (0, 1)])

    def test_rejects_float_endpoint_in_a_digraph(self):
        # 0.0 passes the range check and used to raise TypeError on indexing
        with pytest.raises(GraphInputError, match=r"^edge \(0\.0, 1\) has endpoint outside"):
            sk.DirectedGraph(3, [(0.0, 1)])

    def test_rejects_float_endpoint_in_an_undirected_graph(self):
        with pytest.raises(GraphInputError, match=r"^edge \(0\.5, 1\) has endpoint outside"):
            sk.UndirectedGraph(3, [(0.5, 1)])

    def test_rejects_negative_vertex_count(self):
        for cls in (sk.DirectedGraph, sk.UndirectedGraph):
            with pytest.raises(GraphInputError,
                               match="^vertex count must be non-negative, got -1$"):
                cls(-1, [])

    def test_rejects_label_key_out_of_range(self):
        with pytest.raises(GraphInputError, match=r"^label key 5 outside \[0, 2\)$"):
            sk.DirectedGraph(2, [(0, 1)], {5: "x"})

    def test_set_semantics(self):
        g = sk.DirectedGraph(2, [(0, 1), (0, 1)])
        assert g.m == 1


class TestUnderlying:
    def test_cycle_gives_triangle(self):
        und = sk.underlying(cycle3())
        assert und.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_opposite_pair_collapses(self):
        und = sk.underlying(sk.DirectedGraph(2, [(0, 1), (1, 0)]))
        assert und.edges == frozenset({(0, 1)})


class TestDoubled:
    def test_triangle(self):
        k3 = sk.UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert sk.doubled(k3).m == 6

    def test_empty(self):
        assert sk.doubled(sk.UndirectedGraph(4, [])).m == 0

    def test_path(self):
        d = sk.doubled(sk.UndirectedGraph(3, [(0, 1), (1, 2)]))
        assert d.edges == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})

    @given(undirected_graphs())
    def test_underlying_of_doubled_roundtrips(self, d):
        assert sk.underlying(sk.doubled(d)) == d

    def test_doubled_underlying_contains_original(self):
        for g, _ in seeded_random_graphs(30):
            back = sk.doubled(sk.underlying(g))
            assert g.edges <= back.edges
            has_all_reverses = all((v, u) in g.edges for u, v in g.edges)
            assert (back.edges == g.edges) == has_all_reverses


class TestUndirectedView:
    @given(undirected_graphs())
    def test_lists_are_those_of_the_doubled_digraph(self, d):
        g = sk.doubled(d)
        for v in range(d.n):
            assert d.successors(v) == g.successors(v)
            assert d.predecessors(v) == g.predecessors(v)
        for u in range(d.n):
            for v in range(d.n):
                assert d.has_edge(u, v) == g.has_edge(u, v)

    @given(undirected_graphs())
    def test_is_connected_matches_bitmask_reference(self, d):
        full = (1 << d.n) - 1
        assert d.is_connected() == _und_connected(d.n, d.edges, full)

    def test_empty_graph_is_not_connected(self):
        assert not sk.UndirectedGraph(0, []).is_connected()


class TestSortedEdges:
    def test_matches_sorting_the_edge_set(self):
        for g, seed in seeded_random_graphs(60, n_hi=12):
            assert g.sorted_edges() == sorted(g.edges), seed


class TestRemoveVertices:
    def test_cycle_minus_vertex(self):
        h, mapping = sk.remove_vertices(cycle3(), {0})
        assert h.n == 2
        assert h.edges == frozenset({(mapping[1], mapping[2])})

    def test_remove_nothing_is_identity(self):
        g = cycle3()
        h, mapping = sk.remove_vertices(g, set())
        assert h == g
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_out_of_range(self):
        with pytest.raises(GraphInputError):
            sk.remove_vertices(cycle3(), {5})

    def test_labels_follow_mapping(self):
        g = sk.DirectedGraph(3, [(0, 1), (1, 2), (2, 0)], {0: "a", 1: "b", 2: "c"})
        h, mapping = sk.remove_vertices(g, {1})
        assert h.vertex_labels == {mapping[0]: "a", mapping[2]: "c"}

    def test_composition(self):
        for g, _ in seeded_random_graphs(20, n_lo=4, n_hi=8):
            h1, m1 = sk.remove_vertices(g, {0})
            # remove original vertex 2 from the intermediate graph
            h2, _ = sk.remove_vertices(h1, {m1[2]})
            direct, _ = sk.remove_vertices(g, {0, 2})
            assert h2.n == direct.n and h2.edges == direct.edges


def _labelled_digraphs():
    # seeded digraphs, strongly connected and not, n in {0, 1, 2, 30}, with
    # about half of the vertices labelled (and some graphs with none)
    rng = random.Random(26)
    for n in (0, 1, 2, 30):
        for p in (0.05, 0.12, 0.3, 0.9):
            for _ in range(3):
                arcs = [(u, v) for u in range(n) for v in range(n)
                        if u != v and rng.random() < p]
                labels = {v: f"v{v}" for v in range(n) if rng.random() < 0.5}
                yield sk.DirectedGraph(n, arcs, labels if rng.random() < 0.8 else None)


def _keep_sets(n, rng):
    return [set(), {rng.randrange(n)} if n else set(), set(range(n)),
            {v for v in range(n) if rng.random() < 0.5}]


def _assert_same_graph(got, want):
    # compare through the list reads first, so the lazily built edge set is
    # checked against the constructor's only at the end
    assert type(got) is type(want)
    assert (got.n, got.m) == (want.n, want.m)
    for v in range(want.n):
        assert got.successors(v) == want.successors(v)
        assert got.predecessors(v) == want.predecessors(v)
    pairs = [(u, v) for u in range(-1, want.n + 1) for v in range(-1, want.n + 1)]
    assert [got.has_edge(u, v) for u, v in pairs] == [want.has_edge(u, v) for u, v in pairs]
    assert got == want and got.edges == want.edges and hash(got) == hash(want)


class TestDerivedGraphs:
    """induced, remove_vertices and underlying build from g's sorted lists
    without validation; each must equal what the public constructor builds
    from the same edges and labels."""

    def test_match_the_public_constructors(self):
        rng, kinds = random.Random(7), set()
        for g in _labelled_digraphs():
            kinds.add(g.n >= 2 and sk.is_strongly_connected(g))
            _assert_same_graph(sk.underlying(g), sk.UndirectedGraph(g.n, g.edges))
            for keep in _keep_sets(g.n, rng):
                ids = {old: new for new, old in enumerate(sorted(keep))}
                want = sk.DirectedGraph(
                    len(keep),
                    [(ids[u], ids[v]) for u, v in g.edges if u in keep and v in keep],
                    None if g.vertex_labels is None else
                    {ids[v]: name for v, name in g.vertex_labels.items() if v in keep})
                h, mapping = sk.induced(g, sorted(keep, reverse=True) * 2)
                _assert_same_graph(h, want)
                assert h.vertex_labels == want.vertex_labels and mapping == ids
                h, mapping = sk.remove_vertices(g, set(range(g.n)) - keep)
                _assert_same_graph(h, want)
                assert h.vertex_labels == want.vertex_labels and mapping == ids
                d, mapping = sk.induced(sk.underlying(g), keep)
                _assert_same_graph(d, sk.UndirectedGraph(want.n, want.edges))
                _assert_same_graph(d, sk.underlying(want))
                assert mapping == ids
        assert kinds == {False, True}

    def test_ids_outside_the_graph_rejected(self):
        g = sk.DirectedGraph(3, [(0, 1), (1, 2), (2, 0)], {0: "a"})
        for bad in ([3], [-1], [0, 5], [-2, 1]):
            for op in (sk.induced, sk.remove_vertices):
                with pytest.raises(GraphInputError, match=r"outside \[0, 3\)"):
                    op(g, bad)
            with pytest.raises(GraphInputError):
                sk.induced(sk.underlying(g), bad)
        with pytest.raises(GraphInputError):
            sk.induced(sk.DirectedGraph(0, []), [0])

    def test_ids_that_are_not_ints_rejected(self):
        # a float or a string is no id, even when it equals one: it is
        # neither dropped nor read as that id, and raises no TypeError
        g = sk.DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        for bad in ([0.5], [1.0], [0.5, 2], ["1"], [0, "1"], [2, None]):
            for op in (sk.induced, sk.remove_vertices):
                with pytest.raises(GraphInputError, match=r"outside \[0, 3\)"):
                    op(g, bad)
            with pytest.raises(GraphInputError):
                sk.induced(sk.underlying(g), bad)

    def test_bools_rejected(self):
        # bool subclasses int, but True is no name for vertex 1
        g = sk.directed_cycle(4)
        for bad in ([True], [False, 2], [1, True]):
            for op in (sk.induced, sk.remove_vertices):
                with pytest.raises(GraphInputError, match=r"outside \[0, 4\)"):
                    op(g, bad)
        for bad in ([(True, 2)], [(0, 1), (False, True)], [(1, 2), (True, 2)]):
            with pytest.raises(GraphInputError, match="not present in graph"):
                sk.remove_edges(g, bad)


class TestStorage:
    """A graph stores only its sorted lists: no path builds its edge set,
    and graphs from different paths on the same edges and labels are equal
    and hash equal."""

    def test_no_construction_path_stores_an_edge_set(self, tmp_path):
        edgelist, graphml = tmp_path / "g.edges", tmp_path / "g.graphml"
        edgelist.write_text("a b\nb a\na b\na a\nb c\nc a\nd\n")
        graphml.write_text(
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><graph edgedefault="directed">'
            '<node id="x"/><node id="y"/><edge source="x" target="y"/><edge source="y" target="x"/>'
            '<edge source="x" target="y"/></graph></graphml>')
        g = sk.DirectedGraph(4, [(0, 1), (1, 2), (2, 0), (0, 1)], {0: "a"})
        und = sk.UndirectedGraph(4, [(0, 1), (1, 0), (2, 1)])
        built = [
            g, und, sk.read_graph(edgelist), sk.read_graph(graphml),
            sk.gamma(sk.FamilyParams(1, 3)), sk.gamma(sk.FamilyParams(2, 2)),
            sk.doubled_complete(3), sk.directed_cycle(4), sk.random_digraph(6, 0.4, 1),
            sk.doubled(und), sk.remove_edges(g, {(0, 1)}), sk.remove_edges(g, set()),
            sk.induced(g, [0, 2])[0], sk.induced(und, [1, 2])[0],
            sk.remove_vertices(g, [1])[0], sk.underlying(g), sk.condensation(g).dag,
        ]
        assert [h._edges for h in built] == [None] * len(built)

    def test_paths_agree_and_compare_without_an_edge_set(self, tmp_path):
        rng, f = random.Random(28), tmp_path / "g.edges"
        for g in _labelled_digraphs():
            arcs, labels = g.sorted_edges(), g.vertex_labels
            mixed = arcs[::-1] + rng.sample(arcs, len(arcs) // 2)
            extra = [(u, v) for u in range(g.n) for v in range(g.n)
                     if u != v and not g.has_edge(u, v)][:3]
            sym = arcs + [(v, u) for u, v in arcs]
            groups = [
                [sk.DirectedGraph(g.n, arcs, labels), sk.DirectedGraph(g.n, mixed, labels),
                 sk.remove_edges(sk.DirectedGraph(g.n, arcs + extra, labels), extra),
                 sk.induced(g, range(g.n))[0]],
                [sk.doubled(sk.underlying(g)), sk.DirectedGraph(g.n, sym),
                 sk.doubled(sk.UndirectedGraph(g.n, mixed))],
                [sk.underlying(g), sk.UndirectedGraph(g.n, mixed),
                 sk.induced(sk.underlying(g), range(g.n))[0]],
            ]
            if g.n:
                # a self-loop per vertex, in id order, pins the ids ingestion gives
                names = [g.label(v) for v in range(g.n)]
                f.write_text("".join(f"{x} {x}\n" for x in names)
                             + "".join(f"{names[u]} {names[v]}\n" for u, v in mixed))
                groups.append([sk.read_graph(f), sk.DirectedGraph(g.n, arcs, dict(enumerate(names)))])
            for group in groups:
                for h in group[1:]:
                    assert h == group[0] and not h != group[0]
                assert [h._edges for h in group] == [None] * len(group)
                assert len({hash(h) for h in group}) == 1
                assert all(h.edges == group[0].edges for h in group)
            if g.n >= 2 and g.vertex_labels:
                assert g != sk.DirectedGraph(g.n, arcs)
            if extra:
                assert g != sk.DirectedGraph(g.n, arcs + extra[:1], labels)


class TestRemoveEdges:
    def test_cycle_minus_edge_not_strong(self):
        h = sk.remove_edges(cycle3(), {(0, 1)})
        assert not sk.is_strongly_connected(h)

    def test_remove_nothing(self):
        assert sk.remove_edges(cycle3(), set()) == cycle3()

    def test_missing_edge_rejected(self):
        with pytest.raises(GraphInputError):
            sk.remove_edges(cycle3(), {(1, 0)})

    def test_anything_not_an_edge_rejected(self):
        # a non-edge, a reversed arc, and members that are not id pairs
        g = sk.directed_cycle(4)
        for bad in ((0, 2), (1, 0), (0, 1, 5), (1,), ("0", "1")):
            with pytest.raises(GraphInputError, match="not present in graph"):
                sk.remove_edges(g, [(0, 1), bad])

    def test_gamma13_minus_min_weakening_edge_splits(self):
        # oracle: every single-edge removal on the 11-vertex witness graph
        g = sk.gamma(sk.FamilyParams(1, 3))
        splitters = [
            e for e in g.sorted_edges()
            if len(sk.scc(sk.remove_edges(g, {e})).components) >= 2
        ]
        assert splitters  # sigma1 = 1, so single edges suffice
        for e in splitters:
            h = sk.remove_edges(g, {e})
            assert len(sk.scc(h).components) >= 2


class TestInduced:
    def test_pair(self):
        h, _ = sk.induced(cycle3(), {0, 1})
        assert h.n == 2 and h.edges == frozenset({(0, 1)})

    def test_all_is_identity(self):
        g = cycle3()
        h, _ = sk.induced(g, {0, 1, 2})
        assert h == g

    def test_matches_remove_complement(self):
        for g, _ in seeded_random_graphs(20, n_lo=3, n_hi=8):
            keep = set(range(0, g.n, 2))
            a, _ = sk.induced(g, keep)
            b, _ = sk.remove_vertices(g, set(range(g.n)) - keep)
            assert a == b


class TestStats:
    def test_directed_cycle(self):
        st_ = sk.stats(sk.directed_cycle(6))
        assert st_.diameter == 5
        assert st_.min_degree == st_.max_degree == 2
        assert st_.min_in == st_.max_in == st_.min_out == st_.max_out == 1

    def test_underlying_degrees_read_from_the_lists(self):
        # the underlying degree of v is |N+(v) | N-(v)|, a reciprocal pair
        # counting once, against the edge set. It is read from the sorted
        # lists, so a report on a derived graph, here the largest SCC,
        # never builds that graph's edge set
        for g, seed in seeded_random_graphs(60, n_lo=1, n_hi=30, probs=(0.05, 0.15, 0.5, 0.9)):
            near = [set() for _ in range(g.n)]
            for u, v in g.edges:
                near[u].add(v)
                near[v].add(u)
            st_ = sk.stats(g)
            assert (st_.min_degree, st_.max_degree) == (min(map(len, near)), max(map(len, near))), seed
            h, _ = sk.induced(g, max(sk.scc(g).components, key=len))
            assert sk.report(h, True).stats == sk.stats(sk.DirectedGraph(h.n, h.edges)), seed
            h, _ = sk.induced(g, max(sk.scc(g).components, key=len))
            sk.report(h, True)
            assert h._edges is None, seed

    def test_isolated_vertices_unbounded(self):
        st_ = sk.stats(sk.DirectedGraph(2, []))
        assert st_.diameter is None

    def test_diameter_finite_iff_strongly_connected(self):
        for g, _ in seeded_random_graphs(40):
            st_ = sk.stats(g)
            assert (st_.diameter is not None) == sk.is_strongly_connected(g)

    @staticmethod
    def _diameter_corpus():
        # 200 graphs, n spread over 2-300, p around the strong connectivity
        # threshold ln(n) / n so both outcomes are common
        out = []
        for seed in range(200):
            n = 2 + seed * 298 // 199
            p = min(1.0, (0.8, 1.3, 2.5)[seed % 3] * math.log(n + 1) / n)
            out.append(sk.random_digraph(n, p, seed))
        return out

    def test_diameter_matches_all_pairs_bfs(self):
        strong = 0
        for g in self._diameter_corpus():
            assert sk.stats(g).diameter == reference_diameter(g), g
            strong += sk.is_strongly_connected(g)
        assert 60 <= strong <= 180

    def test_diameter_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        checked = 0
        for g in self._diameter_corpus():
            if sk.is_strongly_connected(g):
                h = nx.DiGraph(list(g.edges))
                h.add_nodes_from(range(g.n))
                assert sk.stats(g).diameter == nx.diameter(h), g
                checked += 1
        assert checked >= 60

    @staticmethod
    def _shapes():
        # (graph, diameter): cycles both ways round, a one-way path, the
        # empty and one-vertex graphs, the complete bidirected graph, two
        # strong blocks (a 3-clique and a 4-cycle) joined by one-way arcs,
        # in one direction or in both, and a 140-cycle plus 210 random arcs
        def reverse(g):
            return sk.DirectedGraph(g.n, [(v, u) for u, v in g.edges])

        rng = random.Random(1)
        order = rng.sample(range(140), 140)
        arcs = {(order[i - 1], order[i]) for i in range(140)}
        while len(arcs) < 350:
            u, v = rng.sample(range(140), 2)
            arcs.add((u, v))
        blocks = set(sk.doubled_complete(3).edges)
        blocks |= {(3 + u, 3 + v) for u, v in sk.directed_cycle(4).edges}
        out = []
        for n in (2, 50, 300):
            out += [(sk.directed_cycle(n), n - 1), (reverse(sk.directed_cycle(n)), n - 1)]
        out.append((sk.DirectedGraph(300, [(i, i + 1) for i in range(299)]), None))
        out += [(sk.DirectedGraph(0, []), None), (sk.DirectedGraph(1, []), 0)]
        out += [(sk.doubled_complete(n), 1) for n in (2, 3, 7, 20)]
        out.append((sk.DirectedGraph(7, blocks | {(0, 3), (2, 5)}), None))
        out.append((sk.DirectedGraph(7, blocks | {(0, 3), (5, 1)}), 5))
        out.append((sk.DirectedGraph(140, arcs), 12))
        return out

    def test_diameter_of_shapes(self):
        for g, diameter in self._shapes():
            assert sk.stats(g).diameter == reference_diameter(g) == diameter, g

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_diameter_matches_reference(self, g):
        assert sk.stats(g).diameter == reference_diameter(g)

    def test_underlying_degrees_match_underlying_graph(self):
        for g, seed in seeded_random_graphs(40, n_lo=1, n_hi=10):
            und = sk.underlying(g)
            udeg = [len(und.neighbors(v)) for v in range(g.n)]
            st_ = sk.stats(g)
            assert (st_.min_degree, st_.max_degree) == (min(udeg), max(udeg)), seed


_REIMPORT = """
import gc, importlib, sys, weakref
refs = []
for _ in range(5):
    for key in [k for k in sys.modules if k == "svckit" or k.startswith("svckit.")]:
        del sys.modules[key]
    refs.append(weakref.ref(importlib.import_module("svckit.cli").DirectedGraph))
gc.collect()
print(sum(r() is not None for r in refs))
"""


def test_reimport_releases_old_copies():
    # a process that imports svckit afresh many times (as the benchmark
    # harness does) must be able to free the old copies; a cache outside
    # svckit holding one of its classes, like typing.Union's, would pin them
    r = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True,
                       text=True, check=True)
    assert r.stdout.strip() == "1"
