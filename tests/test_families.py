import pytest

import svckit as sk
from svckit.graphs import GraphInputError


def test_params_validation():
    with pytest.raises(GraphInputError):
        sk.FamilyParams(0, 3)
    with pytest.raises(GraphInputError):
        sk.FamilyParams(4, 3)


def test_gamma13_matches_figure_one():
    # blocks W={1}, W'={2,3}, U={4..7}, V={8..11} (1-based labels);
    # layers U->W->V->W'->U, complete between consecutive blocks
    g = sk.gamma(sk.FamilyParams(1, 3))
    blocks = sk.gamma_blocks(sk.FamilyParams(1, 3))
    assert [g.label(v) for v in blocks["W"]] == ["1"]
    assert [g.label(v) for v in blocks["W'"]] == ["2", "3"]
    assert [g.label(v) for v in blocks["U"]] == ["4", "5", "6", "7"]
    assert [g.label(v) for v in blocks["V"]] == ["8", "9", "10", "11"]
    expected = set()
    expected |= {(u, w) for u in blocks["U"] for w in blocks["W"]}
    expected |= {(w, v) for w in blocks["W"] for v in blocks["V"]}
    expected |= {(v, wp) for v in blocks["V"] for wp in blocks["W'"]}
    expected |= {(wp, u) for wp in blocks["W'"] for u in blocks["U"]}
    assert g.edges == frozenset(expected)
    assert g.n == 11 and g.m == 24


def test_gamma23_matches_figure_two():
    # W={1,2}, W'={3}; U<->W and W<->V bidirected, U->W'->V one-way
    g = sk.gamma(sk.FamilyParams(2, 3))
    blocks = sk.gamma_blocks(sk.FamilyParams(2, 3))
    expected = set()
    for u in blocks["U"]:
        for w in blocks["W"]:
            expected |= {(u, w), (w, u)}
    for w in blocks["W"]:
        for v in blocks["V"]:
            expected |= {(w, v), (v, w)}
    expected |= {(u, wp) for u in blocks["U"] for wp in blocks["W'"]}
    expected |= {(wp, v) for wp in blocks["W'"] for v in blocks["V"]}
    assert g.edges == frozenset(expected)
    assert g.n == 11 and g.m == 40


def test_gamma_equal_params_is_doubled_complete():
    g = sk.gamma(sk.FamilyParams(3, 3))
    assert g == sk.doubled_complete(4)
    assert sk.gamma_blocks(sk.FamilyParams(3, 3)) == {}


def test_gamma_strongly_connected_sweep():
    for b in range(1, 6):
        for a in range(1, b + 1):
            g = sk.gamma(sk.FamilyParams(a, b))
            assert sk.is_strongly_connected(g), (a, b)


def test_w_block_is_minimum_weakening_set():
    # small-parameter check by enumeration, both construction subcases
    for a, b in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]:
        p = sk.FamilyParams(a, b)
        g, blocks = sk.gamma(p), sk.gamma_blocks(p)
        if a >= 3:
            sets = sk.weakening_vertex_sets(g, allow_large=True)
        else:
            sets = sk.weakening_vertex_sets(g)
        members = {w.members for w in sets}
        assert tuple(blocks["W"]) in members

    # W u W' disconnects the underlying graph at minimum size
    for a, b in [(1, 3), (2, 3)]:
        p = sk.FamilyParams(a, b)
        g, blocks = sk.gamma(p), sk.gamma_blocks(p)
        und = sk.underlying(g)
        cut = set(blocks["W"]) | set(blocks["W'"])
        assert len(cut) == b == sk.undirected_vertex_connectivity(und)
        survivors = [v for v in range(g.n) if v not in cut]
        kept_edges = [
            e for e in und.edges if e[0] not in cut and e[1] not in cut
        ]
        remap = {v: i for i, v in enumerate(survivors)}
        d = sk.UndirectedGraph(
            len(survivors), [(remap[u], remap[v]) for u, v in kept_edges]
        )
        assert not d.is_connected()


def test_doubled_complete():
    assert sk.doubled_complete(2) == sk.directed_cycle(2)
    assert sk.doubled_complete(4).m == 12
    assert sk.svc(sk.doubled_complete(4)) == 3
    und = sk.underlying(sk.doubled_complete(5))
    assert sk.undirected_vertex_connectivity(und) == 4
    with pytest.raises(GraphInputError):
        sk.doubled_complete(1)


def test_directed_cycle():
    g = sk.directed_cycle(5)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)})
    assert len(sk.weakening_vertex_sets(g)) == 5
    with pytest.raises(GraphInputError):
        sk.directed_cycle(1)


def test_random_digraph():
    assert sk.random_digraph(4, 1.0, 0) == sk.doubled_complete(4)
    assert sk.random_digraph(4, 0.0, 0).m == 0
    a = sk.random_digraph(9, 0.3, 123)
    b = sk.random_digraph(9, 0.3, 123)
    assert a == b
    c = sk.random_digraph(9, 0.3, 124)
    assert a != c  # overwhelmingly likely with 72 candidate pairs
    with pytest.raises(GraphInputError):
        sk.random_digraph(3, 1.5, 0)
    with pytest.raises(GraphInputError):
        sk.random_digraph(0, 0.5, 0)
