"""Tests of the benchmark itself: generators, checks, failure counting and
tracing. Run from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import standins  # noqa: E402
import tracing  # noqa: E402
from workloads import Job  # noqa: E402

import svckit  # noqa: E402
from svckit import cli  # noqa: E402

SMALL = {
    "fly": (standins.fly, dict(n_core=30, extra=30, periphery=6)),
    "rat": (standins.rat, dict(n_core=16, extra=24, periphery=4)),
    "cat": (standins.cat, dict(n=14, d=4)),
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_generators_are_deterministic(kind):
    gen, params = SMALL[kind]
    first = gen(random.Random(7), **params)
    assert gen(random.Random(7), **params) == first
    assert gen(random.Random(8), **params) != first


def test_generated_shapes():
    rat = checks.Digraph(16, [a for a in standins.rat(random.Random(3), **SMALL["rat"][1])
                              if max(a) < 16])
    assert checks.none_smaller(rat, "vertex", 2)
    assert rat.min_in_out_degree() == 2
    cat = checks.Digraph(14, standins.cat(random.Random(3), n=14, d=4))
    assert checks.is_strong(cat)
    # the planted vertex keeps one in-arc; its other 3 in-neighbours lose one out-arc
    assert sorted(len(p) for p in cat.pred)[:2] == [1, 4]
    assert sorted(len(s) for s in cat.succ)[:4] == [3, 3, 3, 4]


@pytest.mark.parametrize("a,b", [(a, b) for b in range(1, 6) for a in range(1, b + 1)])
def test_gamma_shape_matches_construction(a, b):
    g = svckit.gamma(svckit.FamilyParams(a, b))
    assert standins.gamma_shape(a, b) == (g.n, g.m)


@pytest.fixture()
def fly_report(tmp_path):
    path = str(tmp_path / "fly.edges")
    standins.write_edgelist(path, standins.fly(random.Random(5), **SMALL["fly"][1]))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", path, "--enumerate", "--scc-largest", "--out", str(out)]) == 0
    g = checks.read_edgelist(path)
    core = g.induced(max(checks.sccs(g), key=len))[0]
    return core, json.loads(out.read_text())


def test_check_accepts_a_true_report(fly_report):
    core, rep = fly_report
    assert rep["sigma0"] == 1 and rep["vertex_witnesses"]
    assert checks.check_report(core, json.dumps(rep)) == []


def test_check_rejects_a_corrupted_witness(fly_report):
    core, rep = fly_report
    broken = {w["members"][0] for w in rep["vertex_witnesses"]}
    safe = next(v for v in range(core.n) if v not in broken)
    rep["vertex_witnesses"][0]["members"] = [safe]
    rep["vertex_witnesses"][0]["labels"] = [core.names[safe]]
    assert any("does not break" in e for e in checks.check_report(core, json.dumps(rep)))


def test_check_rejects_a_wrong_sigma(fly_report):
    core, rep = fly_report
    rep["sigma1"] = 2
    errs = checks.check_report(core, json.dumps(rep))
    assert any("sigma1=2" in e for e in errs)
    assert checks.check_svc(core, "2\n") and checks.check_svc(core, "1\n") == []


def test_check_rejects_a_wrong_zeta0(fly_report):
    core, rep = fly_report
    # a zeta0 that still meets sigma0 <= zeta0 <= min underlying degree
    assert rep["sigma0"] < rep["zeta0_underlying"] <= min(core.underlying_degrees())
    rep["zeta0_underlying"] = rep["sigma0"]
    assert any("Menger" in e for e in checks.check_report(core, json.dumps(rep)))


def test_menger_count_matches_the_definition():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(2, 7)
        p = rng.random()
        g = checks.Digraph(n, [(u, v) for u in range(n) for v in range(n)
                               if u != v and rng.random() < p])
        want = 0
        if checks.is_strong(g):
            # least k whose removal breaks g; removing n-1 always leaves one vertex
            want = next(k for k in range(1, n) if k == n - 1 or any(
                checks.breaks(g, "vertex", s) for s in itertools.combinations(range(n), k)))
        assert checks.vertex_connectivity(g) == want


def test_check_rejects_a_wrong_tree(tmp_path):
    path = str(tmp_path / "cat.edges")
    standins.write_edgelist(path, standins.cat(random.Random(2), n=14, d=4))
    out = tmp_path / "tree.json"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(["iterate", path, "--depth", "3", "--out", str(out)]) == 0
    g = checks.read_edgelist(path)
    assert checks.check_tree(g, stdout.getvalue(), out.read_text(), 3) == []
    tree = json.loads(out.read_text())
    tree["root"]["sigma0"] += 1
    assert checks.check_tree(g, stdout.getvalue(), json.dumps(tree), 3)
    tree = json.loads(out.read_text())
    root = tree["root"]
    assert root["sigma0"] < root["zeta0_underlying"]
    root["zeta0_underlying"] -= 1
    errs = checks.check_tree(g, stdout.getvalue(), json.dumps(tree), 3)
    assert any("Menger" in e for e in errs)


def test_raising_and_failing_jobs_are_counted(tmp_path):
    dk = str(tmp_path / "dk5.edges")
    assert cli.main(["generate", "dk", "--n", "5", "--out", dk]) == 0

    def boom(argv):
        raise RuntimeError("boom")

    ok = Job("ok", ["svc", dk], None, lambda out, _: checks.check_svc(checks.read_edgelist(dk), out))
    wrong = Job("wrong", ["svc", dk], None, lambda out, _: ["forced"])
    guard = Job("guard", ["weakening", dk, "--kind", "vertex"], None, lambda out, _: [])
    ledger = run.Ledger()
    ledger.run(ok, cli.main)
    ledger.run(wrong, cli.main)
    ledger.run(guard, cli.main)           # raises or exits nonzero: 4 = n-1 >= 3
    ledger.run(ok, boom)
    ledger.verify([ok, wrong, guard], None)
    assert ledger.attempted == 4
    assert sorted(name for name, _ in ledger.failures) == ["guard", "ok", "wrong"]


def test_tracer_attributes_nested_spans_and_restores(tmp_path):
    path = str(tmp_path / "g23.edges")
    assert cli.main(["generate", "gamma", "--a", "2", "--b", "3", "--out", path]) == 0
    original = svckit.connectivity.svc
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert svckit.connectivity.svc is not original
        with redirect_stdout(io.StringIO()):
            assert svckit.cli.main(["analyze", path]) == 0
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert svckit.connectivity.svc is original
    assert m["cli.main.calls"] == 1
    assert m["connectivity.svc.flows"] > 0 and m["connectivity.zeta0.flows"] > 0
    assert m["connectivity.zeta0.flows"] + m["connectivity.zeta1.flows"] + \
        m["connectivity.svc.flows"] + m["connectivity.sec.flows"] == \
        m["flow.vertex_max_flow.calls"] + m["flow.edge_max_flow.calls"]
    assert m["connectivity.subsets_checked"] == 0 and m["decompose.nodes"] == 0


def test_tracer_reports_an_absent_function_as_zero(monkeypatch):
    monkeypatch.delattr(svckit.decompose, "iterate")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert m["decompose.iterate.busy_s"] == 0 and m["decompose.nodes"] == 0


def test_printed_metrics_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = set(tracing.layer_metrics([])) | {"run.trace_overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert set(run.E2E_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(run.unit_of(name) == units[name] for name in per_layer)
    assert all(run.E2E_UNITS[name] == units[name] for name in run.E2E_UNITS)


def test_a_run_prints_the_result_line(monkeypatch, capsys, tmp_path):
    def tiny(seed, workdir, cli_main):
        path = str(Path(workdir) / "c.edges")
        assert cli_main(["generate", "cycle", "--n", "6", "--out", path]) == 0
        g = checks.read_edgelist(path)
        return [Job("svc", ["svc", path], None, lambda out, _: checks.check_svc(g, out))]

    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0.2"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    assert run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0.2", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert result["correct"] and "run.trace_overhead_s" in metrics
    assert metrics["cli.main.calls"] >= 1 and metrics["connectivity.svc.flows"] >= 1
