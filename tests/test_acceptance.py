"""Acceptance suite: one test per criterion, each printing a pass line
with its measured numbers. Run with `pytest -s tests/test_acceptance.py`
to see them. The connectome checks need the public data files (see
README, "Connectome data") and are skipped when absent.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import svckit as sk
from svckit.interface import read_graph
from svckit.oracle import oracle_local_sigma, oracle_svc, oracle_sec, oracle_zeta0

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "connectomes"


def _ok(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


# --------------------------------------------------------------------------
# Criterion: oracle equivalence on >= 200 seeded random digraphs


def test_oracle_equivalence():
    t0 = time.monotonic()
    probs = (0.15, 0.3, 0.5, 0.8)
    graphs = []
    seed = 0
    while len(graphs) < 200:
        n = 2 + seed % 7  # n in [2, 8]
        p = probs[(seed // 7) % 4]
        g = sk.random_digraph(n, p, seed)
        if sk.is_strongly_connected(g):
            graphs.append((g, seed))
        seed += 1
    mismatches = 0
    for g, s in graphs:
        assert sk.svc(g) == oracle_svc(g), f"svc mismatch seed={s}"
        assert sk.sec(g) == oracle_sec(g), f"sec mismatch seed={s}"
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        rng = random.Random(s)
        sample = pairs if len(pairs) <= 10 else rng.sample(pairs, 10)
        for u, v in sample:
            assert sk.local_sigma(g, u, v) == oracle_local_sigma(g, u, v), (
                f"local_sigma mismatch seed={s} pair=({u},{v})"
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s (budget 60s)"
    _ok(
        "oracle-equivalence",
        f"{len(graphs)} graphs, {mismatches} mismatches, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# Criterion: Proposition 2 sweep, 1 <= a <= b <= 5


def test_proposition_2_sweep():
    t0 = time.monotonic()
    for b in range(1, 6):
        for a in range(1, b + 1):
            g = sk.gamma(sk.FamilyParams(a, b))
            assert sk.svc(g) == a, f"svc(gamma({a},{b})) != {a}"
            z = sk.undirected_vertex_connectivity(sk.underlying(g))
            assert z == b, f"zeta0(U(gamma({a},{b}))) != {b}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s (budget 10s)"
    _ok("proposition-2-sweep", f"15 cases, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion: Proposition 1 checks


def test_proposition_1():
    # sigma0 <= zeta0(underlying) on the acceptance corpora
    checked = 0
    probs = (0.15, 0.3, 0.5, 0.8)
    seed = 0
    graphs = []
    while len(graphs) < 60:
        g = sk.random_digraph(2 + seed % 7, probs[(seed // 7) % 4], seed)
        if sk.is_strongly_connected(g):
            graphs.append(g)
        seed += 1
    graphs += [
        sk.gamma(sk.FamilyParams(a, b)) for b in range(1, 6) for a in range(1, b + 1)
    ]
    for g in graphs:
        assert sk.svc(g) <= sk.undirected_vertex_connectivity(sk.underlying(g))
        checked += 1

    # sigma0(D(d)) == zeta0(d) against the undirected brute force
    rng = random.Random(2024)
    done = 0
    while done < 100:
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.45]
        d = sk.UndirectedGraph(n, edges)
        if not d.is_connected():
            continue
        assert sk.svc(sk.doubled(d)) == oracle_zeta0(n, d.edges)
        done += 1
    _ok("proposition-1", f"{checked} inequality checks, {done} doubling checks")


# --------------------------------------------------------------------------
# Criterion: fixture reproduction (Fig. 1 / Fig. 2 graphs)


def test_fixture_reproduction():
    g13 = sk.gamma(sk.FamilyParams(1, 3))
    assert sk.svc(g13) == 1
    sets = sk.weakening_vertex_sets(g13)
    assert len(sets) == 1
    assert g13.label(sets[0].members[0]) == "1"

    g23 = sk.gamma(sk.FamilyParams(2, 3))
    assert sk.svc(g23) == 2
    sets23 = sk.weakening_vertex_sets(g23)
    labelled = [{g23.label(v) for v in w.members} for w in sets23]
    assert {"1", "2"} in labelled
    _ok("fixture-reproduction", "gamma(1,3) W1 unique; gamma(2,3) W2 present")


# --------------------------------------------------------------------------
# Criterion (dataset-dependent): connectome reproduction


def _load_connectome(name):
    for ext in ("edges", "txt", "graphml", "csv"):
        path = DATA_DIR / f"{name}.{ext}"
        if path.exists():
            return read_graph(path)
    pytest.skip(f"connectome file {name}.* not present in {DATA_DIR}")


@pytest.mark.dataset
def test_connectome_cat():
    if not DATA_DIR.exists():
        pytest.skip(f"{DATA_DIR} not present; see README for acquisition")
    g = _load_connectome("cat")
    assert (g.n, g.m) == (65, 1139)
    assert sk.is_strongly_connected(g)
    assert sk.svc(g) == 1 and sk.sec(g) == 1
    assert sk.undirected_vertex_connectivity(sk.underlying(g)) == 3
    sets = sk.weakening_vertex_sets(g)
    assert len(sets) == 1
    assert sets[0].resulting_scc_sizes == (63, 1)
    _ok("connectome-cat", "n=65 m=1139 sigma=1 zeta0=3 unique witness {63,1}")

    # best-effort iteration traces: report divergence instead of failing
    tree = sk.iterate(g, max_depth=7, enumerate_large=True)
    st = sk.sigma_trace(tree)
    zt = sk.zeta_trace(tree)
    expected_sigma = [1, 2, 3, 3, 3, 3, 2]
    expected_zeta = [3, 3, 7, 7, 7, 6]
    if st[:7] == expected_sigma and zt[:6] == expected_zeta:
        _ok("connectome-cat-traces", f"sigma={st[:7]} zeta={zt[:6]}")
    else:
        print(
            "INFO connectome-cat-traces diverged (tie-break-sensitive): "
            f"sigma={st} zeta={zt}; witness counts along chain not fixed by source"
        )


@pytest.mark.dataset
@pytest.mark.parametrize("idx", [1, 2, 3])
def test_connectome_rat(idx):
    if not DATA_DIR.exists():
        pytest.skip(f"{DATA_DIR} not present; see README for acquisition")
    g = _load_connectome(f"rat{idx}")
    comps = sk.scc(g).components
    largest = max(comps, key=len)
    assert len(largest) in (502, 493)
    h, _ = sk.induced(g, largest)
    assert sk.svc(h) == 2 and sk.sec(h) == 2
    sets = sk.weakening_vertex_sets(h)
    assert len(sets) == 1
    _ok(f"connectome-rat{idx}", f"largest={len(largest)} sigma=2 unique pair")


@pytest.mark.dataset
def test_connectome_fly():
    if not DATA_DIR.exists():
        pytest.skip(f"{DATA_DIR} not present; see README for acquisition")
    g = _load_connectome("fly")
    comps = sk.scc(g).components
    largest = max(comps, key=len)
    assert len(largest) == 785
    f1, _ = sk.induced(g, largest)
    assert sk.svc(f1) == 1 and sk.sec(f1) == 1
    assert len(sk.weakening_vertex_sets(f1)) == 173
    assert len(sk.weakening_edge_sets(f1)) == 245
    _ok("connectome-fly", "largest SCC 785, 173 vertex / 245 edge witnesses")


# --------------------------------------------------------------------------
# Criterion: performance sanity on n=500, p=0.02


def test_performance_sanity():
    g = sk.random_digraph(500, 0.02, 42)
    assert sk.is_strongly_connected(g)
    t0 = time.monotonic()
    s0 = sk.svc(g)
    s1 = sk.sec(g)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"sigma0+sigma1 took {elapsed:.1f}s (budget 300s)"
    _ok("performance-sanity", f"n=500 sigma0={s0} sigma1={s1} in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion: CLI determinism (byte-identical JSON across runs)


def _cli(args):
    res = subprocess.run(
        [sys.executable, "-m", "svckit", *args], capture_output=True, text=True
    )
    assert res.returncode == 0, f"{args}: rc={res.returncode} err={res.stderr}"
    return res.stdout


def test_cli_determinism(tmp_path):
    f = tmp_path / "g23.edges"
    _ = _cli(["generate", "gamma", "--a", "2", "--b", "3", "--out", str(f)])
    commands = [
        ["generate", "gamma", "--a", "2", "--b", "3"],
        ["generate", "dk", "--n", "5"],
        ["generate", "cycle", "--n", "6"],
        ["generate", "random", "--n", "12", "--p", "0.3", "--seed", "9"],
        ["analyze", str(f), "--enumerate"],
        ["svc", str(f)],
        ["sec", str(f)],
        ["weakening", str(f), "--kind", "vertex"],
        ["weakening", str(f), "--kind", "edge"],
        ["iterate", str(f), "--depth", "3"],
        ["export-dot", str(f), "--highlight-first-witness"],
    ]
    for cmd in commands:
        first = _cli(cmd)
        second = _cli(cmd)
        assert first == second, f"nondeterministic output for {cmd}"
        if cmd[0] == "analyze" or cmd[0] == "weakening":
            json.loads(first)  # valid JSON as well
    _ok("cli-determinism", f"{len(commands)} commands, two runs each")
