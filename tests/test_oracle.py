"""Sanity checks for the brute-force reference implementations
themselves, on graphs whose answers are computable by hand."""

import pytest

import svckit as sk
from svckit.graphs import PreconditionError
from svckit.oracle import (
    oracle_is_strongly_connected,
    oracle_local_sigma,
    oracle_sec,
    oracle_sec_by_subsets,
    oracle_svc,
    oracle_weakening_sets,
    oracle_zeta0,
)

from helpers import strongly_connected_corpus


def test_strong_connectivity_basics():
    assert oracle_is_strongly_connected(sk.directed_cycle(4))
    assert not oracle_is_strongly_connected(sk.DirectedGraph(3, [(0, 1), (1, 2)]))


def test_oracle_svc_hand_values():
    assert oracle_svc(sk.doubled_complete(4)) == 3
    assert oracle_svc(sk.directed_cycle(5)) == 1
    assert oracle_svc(sk.gamma(sk.FamilyParams(2, 3))) == 2


def test_oracle_sec_hand_values():
    assert oracle_sec(sk.directed_cycle(4)) == 1
    path = sk.doubled(sk.UndirectedGraph(3, [(0, 1), (1, 2)]))
    assert oracle_sec(path) == 1
    assert oracle_sec(sk.gamma(sk.FamilyParams(1, 3))) == 1


def test_oracle_sec_agrees_with_literal_subset_enumeration():
    for g, seed in strongly_connected_corpus(15, n_lo=2, n_hi=5, probs=(0.3, 0.5)):
        if g.m > 12:
            continue
        assert oracle_sec(g) == oracle_sec_by_subsets(g), f"seed={seed}"


def test_oracle_local_sigma_hand_values():
    assert oracle_local_sigma(sk.directed_cycle(2), 0, 1) == 1  # no cut: n-1
    assert oracle_local_sigma(sk.directed_cycle(4), 0, 2) == 1
    p = sk.FamilyParams(1, 3)
    g, blocks = sk.gamma(p), sk.gamma_blocks(p)
    assert oracle_local_sigma(g, blocks["U"][0], blocks["V"][0]) == 1


def test_oracle_zeta0_hand_values():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert oracle_zeta0(4, k4) == 3
    assert oracle_zeta0(4, [(0, 1), (1, 2), (2, 3)]) == 1
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    assert oracle_zeta0(5, cycle) == 2


def test_oracle_weakening_sets_hand_values():
    cycle = sk.directed_cycle(4)
    assert oracle_weakening_sets(cycle, "vertex") == [
        ((v,), (1, 1, 1)) for v in range(4)
    ]
    assert oracle_weakening_sets(cycle, "edge") == [
        ((e,), (1, 1, 1, 1)) for e in sorted(cycle.edges)
    ]
    # every 3-subset of the doubled K4 leaves one vertex
    assert oracle_weakening_sets(sk.doubled_complete(4), "vertex") == [
        (s, (1,)) for s in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ]


def test_size_guard():
    with pytest.raises(PreconditionError):
        oracle_svc(sk.directed_cycle(20))
