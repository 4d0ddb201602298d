"""Property tests on small random strongly connected digraphs: the
inequalities between sigma0, sigma1, zeta0, zeta1 and the minimum
degrees, and that every reported witness breaks strong connectivity;
and on small connected undirected graphs, zeta0/zeta1 against svc/sec of
the doubled digraph built as a copy."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import svckit as sk  # noqa: E402


@st.composite
def strong_digraphs(draw, max_n=8):
    # a Hamiltonian cycle in a drawn order, plus any drawn extra arcs
    n = draw(st.integers(min_value=2, max_value=max_n))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return sk.DirectedGraph(n, arcs)


@st.composite
def connected_graphs(draw, max_n=9):
    # a random spanning tree in a drawn order, plus any drawn extra edges
    n = draw(st.integers(min_value=2, max_value=max_n))
    order = draw(st.permutations(range(n)))
    edges = {(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return sk.UndirectedGraph(n, edges)


@settings(max_examples=150, deadline=None)
@given(strong_digraphs())
def test_connectivity_inequalities(g):
    s0, s1 = sk.svc(g), sk.sec(g)
    und = sk.underlying(g)
    min_degree = min(
        min(len(g.successors(v)), len(g.predecessors(v))) for v in range(g.n)
    )
    assert s0 <= s1 <= min_degree
    assert s0 <= sk.undirected_vertex_connectivity(und)
    assert s1 <= sk.undirected_edge_connectivity(und)


@settings(max_examples=60, deadline=None)
@given(strong_digraphs(max_n=7))
def test_every_witness_breaks_strong_connectivity(g):
    for w in sk.weakening_vertex_sets(g, allow_large=True):
        h, _ = sk.remove_vertices(g, w.members)
        assert h.n == 1 or not sk.is_strongly_connected(h)
    for w in sk.weakening_edge_sets(g, allow_large=True):
        assert not sk.is_strongly_connected(sk.remove_edges(g, w.members))


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_zeta_matches_the_doubled_copy(d):
    g = sk.doubled(d)
    assert sk.undirected_vertex_connectivity(d) == sk.svc(g)
    assert sk.undirected_edge_connectivity(d) == sk.sec(g)
