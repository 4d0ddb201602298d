import json
import subprocess
import sys

import pytest

import svckit as sk
from svckit import cli
from svckit.cli import _build_parser, main


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "svckit", *args], capture_output=True, text=True
    )


@pytest.fixture()
def gamma13_file(tmp_path):
    f = tmp_path / "g13.edges"
    r = run_cli(["generate", "gamma", "--a", "1", "--b", "3", "--out", str(f)])
    assert r.returncode == 0
    return str(f)


@pytest.fixture()
def fresh_parsers():
    # no parser built yet, and none left behind for later tests
    cli._top.cache_clear()
    yield
    cli._top.cache_clear()


@pytest.fixture()
def parsers_built(monkeypatch, fresh_parsers):
    # every _Parser built from here on
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    return built


@pytest.fixture()
def dk5_file(tmp_path):
    # sigma0 = sigma1 = 4: enumeration needs --enumerate-large
    f = tmp_path / "dk5.edges"
    r = run_cli(["generate", "dk", "--n", "5", "--out", str(f)])
    assert r.returncode == 0
    return str(f)


class TestGenerate:
    def test_gamma_to_stdout(self):
        r = run_cli(["generate", "gamma", "--a", "1", "--b", "3"])
        assert r.returncode == 0
        assert len(r.stdout.strip().splitlines()) == 24

    def test_cycle(self):
        r = run_cli(["generate", "cycle", "--n", "4"])
        assert r.returncode == 0
        assert "0 1" in r.stdout

    def test_random_seeded(self):
        a = run_cli(["generate", "random", "--n", "8", "--p", "0.3", "--seed", "5"])
        b = run_cli(["generate", "random", "--n", "8", "--p", "0.3", "--seed", "5"])
        assert a.stdout == b.stdout


class TestAnalyze:
    def test_report_values(self, gamma13_file):
        r = run_cli(["analyze", gamma13_file, "--enumerate"])
        assert r.returncode == 0
        d = json.loads(r.stdout)
        assert d["sigma0"] == 1 and d["sigma1"] == 1
        assert d["zeta0_underlying"] == 3
        assert d["witness_counts"][0] == 1

    def test_out_file(self, gamma13_file, tmp_path):
        out = tmp_path / "rep.json"
        r = run_cli(["analyze", gamma13_file, "--out", str(out)])
        assert r.returncode == 0
        assert json.loads(out.read_text())["schema"] == "svckit-report/1"

    def test_scc_largest(self, tmp_path):
        f = tmp_path / "mixed.edges"
        f.write_text("a b\nb a\nb c\nc d\nd c\nd e\ne c\n")
        r = run_cli(["analyze", str(f), "--scc-largest"])
        d = json.loads(r.stdout)
        assert d["n"] == 3 and d["sigma0"] is not None


class TestIntegerCommands:
    def test_svc_sec(self, gamma13_file):
        assert run_cli(["svc", gamma13_file]).stdout.strip() == "1"
        assert run_cli(["sec", gamma13_file]).stdout.strip() == "1"

    def test_precondition_exit_code(self, tmp_path):
        f = tmp_path / "dag.edges"
        f.write_text("a b\nb c\n")
        r = run_cli(["svc", str(f)])
        assert r.returncode == 3


class TestWeakening:
    def test_vertex_sets(self, gamma13_file):
        r = run_cli(["weakening", gamma13_file, "--kind", "vertex"])
        d = json.loads(r.stdout)
        assert d["count"] == 1 and not d["capped"]
        assert d["sets"][0]["labels"] == ["1"]

    def test_edge_limit(self, gamma13_file):
        r = run_cli(["weakening", gamma13_file, "--kind", "edge", "--limit", "2"])
        d = json.loads(r.stdout)
        assert d["count"] == 2 and d["capped"]

    def test_limit_below_one_is_usage_error(self, gamma13_file):
        for limit in ("0", "-3"):
            for args in (
                ["weakening", gamma13_file, "--kind", "vertex", "--limit", limit],
                ["weakening", gamma13_file, "--kind", "edge", "--limit", limit],
                ["analyze", gamma13_file, "--enumerate", "--limit", limit],
            ):
                r = run_cli(args)
                assert r.returncode == 1, args
                assert r.stdout == "" and "limit" in r.stderr

    def test_enumeration_guard_is_precondition_error(self, dk5_file):
        r = run_cli(["weakening", dk5_file, "--kind", "vertex"])
        assert r.returncode == 3
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.stderr
        assert "--enumerate-large" in r.stderr and "allow_large" not in r.stderr

    def test_edge_guard_names_sigma1(self, tmp_path):
        # two bidirected K5 sharing vertices 3 and 4: sigma0 = 2, sigma1 = 4
        f = tmp_path / "bowtie.edges"
        blocks = (range(5), range(3, 8))
        f.write_text("".join(f"{u} {v}\n" for b in blocks for u in b for v in b if u != v))
        r = run_cli(["weakening", str(f), "--kind", "edge"])
        assert r.returncode == 3
        assert "sigma1=4" in r.stderr and "--enumerate-large" in r.stderr


class TestIterate:
    def test_traces_printed(self, gamma13_file, tmp_path):
        out = tmp_path / "tree.json"
        r = run_cli(["iterate", gamma13_file, "--depth", "3", "--out", str(out)])
        assert r.returncode == 0
        assert "sigma_trace: [1]" in r.stdout
        assert "zeta_trace: [3]" in r.stdout
        assert json.loads(out.read_text())["kind"] == "decomposition"

    def test_depth_below_one_is_usage_error(self, gamma13_file, tmp_path):
        # checked before the file is read: a missing file still exits 1
        missing = str(tmp_path / "missing.edges")
        for depth in ("0", "-1"):
            for path in (gamma13_file, missing):
                r = run_cli(["iterate", path, "--depth", depth])
                assert r.returncode == 1, (depth, path)
                assert r.stdout == ""
                assert r.stderr == f"error: --depth must be >= 1, got {depth}\n"

    def test_tree_too_deep_to_write_exits_3(self, tmp_path, capsys):
        # a bidirected path of 120 vertices: its largest chain is 60 levels
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1}\n{i + 1} {i}\n" for i in range(119)))
        out = tmp_path / "tree.json"
        argv = ["iterate", str(path), "--depth", "500", "--out", str(out)]
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 80)
        try:
            code = main(argv)
        finally:
            sys.setrecursionlimit(limit)
        out_text, err = capsys.readouterr()
        assert code == 3
        assert out_text == ""
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "levels deep" in err and "svckit-report/1" in err
        assert "Traceback" not in err
        assert not out.exists()
        # at the default limit the same run writes the tree
        assert main(argv) == 0
        assert "sigma_trace: [1" in capsys.readouterr().out
        assert json.loads(out.read_text())["kind"] == "decomposition"

    @pytest.mark.parametrize("text, message", [
        ("a b\nb c\n", "graph is not strongly connected"),
        ("a\n", "graph must have >= 2 vertices, got 1")])
    def test_precondition_shared_with_svc(self, tmp_path, capsys, text, message):
        f = tmp_path / "g.edges"
        f.write_text(text)
        for argv in (["svc", str(f)], ["iterate", str(f), "--depth", "2"]):
            assert main(argv) == 3, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv

    def test_unwritable_out_prints_no_trace(self, gamma13_file, tmp_path, capsys):
        # one error line naming the output, as a missing input is named,
        # and nothing on stdout, for each command that takes --out
        out = tmp_path / "missing" / "t.json"
        for argv in (["iterate", gamma13_file, "--depth", "3"], ["analyze", gamma13_file],
                     ["generate", "gamma", "--a", "1", "--b", "3"]):
            assert main(argv + ["--out", str(out)]) == 2, argv
            assert capsys.readouterr() == (
                "", f"error: cannot write {out}: [Errno 2] No such file or directory: "
                f"'{out}'\n"), argv
            assert not out.exists()


class TestExportDot:
    def test_highlight(self, gamma13_file):
        r = run_cli(["export-dot", gamma13_file, "--highlight-first-witness"])
        assert r.returncode == 0
        assert "fillcolor=orangered" in r.stdout

    def test_highlight_guarded_is_precondition_error(self, dk5_file):
        r = run_cli(["export-dot", dk5_file, "--highlight-first-witness"])
        assert r.returncode == 3
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.stderr
        assert "--enumerate-large" in r.stderr and "allow_large" not in r.stderr

    def test_highlight_enumerate_large(self, dk5_file):
        r = run_cli(
            ["export-dot", dk5_file, "--highlight-first-witness", "--enumerate-large"]
        )
        assert r.returncode == 0
        assert "fillcolor=orangered" in r.stdout


class TestErrorHandling:
    def test_usage_error(self):
        assert run_cli(["analyze"]).returncode == 1
        assert run_cli(["frobnicate"]).returncode == 1

    def test_missing_file(self):
        assert run_cli(["svc", "/nonexistent/graph.edges"]).returncode == 2

    @pytest.mark.parametrize("name", ["missing.edges", "missing.graphml"])
    def test_missing_file_reported_by_the_one_read(self, tmp_path, capsys, name):
        f = tmp_path / name
        assert main(["svc", str(f)]) == 2
        assert capsys.readouterr().err == f"error: cannot read {f}: [Errno 2] " \
            f"No such file or directory: '{f}'\n"

    @pytest.mark.parametrize("format", ["auto", "edgelist", "graphml"])
    def test_directory_reported_by_the_one_read(self, tmp_path, capsys, format):
        assert main(["svc", str(tmp_path), "--format", format]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path}: [Errno ")
        assert len(err.splitlines()) == 1

    def test_parse_error(self, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("a b c d e\n")
        assert run_cli(["analyze", str(f)]).returncode == 2

    def test_malformed_graphml(self, tmp_path):
        f = tmp_path / "bad.graphml"
        f.write_text('<graphml><graph edgedefault="directed">'
                     '<node id="a"/><edge source="a"/></graph></graphml>')
        r = run_cli(["svc", str(f)])
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "<edge> missing source/target" in r.stderr
        assert "Traceback" not in r.stderr

    def test_non_utf8_input(self, tmp_path):
        # format detection and the edge-list parser both report the bad
        # byte as a parse error: exit 2 with one error line, no traceback
        f = tmp_path / "latin1.edges"
        f.write_bytes(b"a b\nb caf\xe9\ncaf\xe9 a\n")
        for fmt in ([], ["--format", "edgelist"]):
            r = run_cli(["svc", str(f), *fmt])
            assert r.returncode == 2, fmt
            assert r.stderr.startswith("error: ") and "0xe9" in r.stderr, fmt
            assert len(r.stderr.splitlines()) == 1, fmt


class TestInProcessEntrypoint:
    def test_main_returns_zero(self, gamma13_file, capsys):
        assert main(["svc", gamma13_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_parser_built_once(self, gamma13_file, capsys, parsers_built):
        # the full parser for an argv that names no command, then one
        # sub-parser per command on one shared top-level parser; a repeated
        # call builds nothing
        for argv, code, built in ((["frobnicate"], 1, 12), (["svc", gamma13_file], 0, 2),
                                  (["sec", gamma13_file], 0, 1), (["svc", gamma13_file], 0, 0),
                                  (["frobnicate"], 1, 0), (["sec", gamma13_file], 0, 0)):
            before = len(parsers_built)
            assert main(argv) == code, argv
            assert len(parsers_built) - before == built, argv
        assert capsys.readouterr().out.split() == ["1"] * 4
        assert _build_parser("svc") is _build_parser("sec") is not _build_parser()

    def test_a_command_builds_only_its_parser(self, gamma13_file, tmp_path, capsys,
                                              parsers_built):
        assert main(["analyze", gamma13_file]) == 0
        assert [p.prog for p in parsers_built] == ["svckit", "svckit analyze"]
        assert main(["generate", "dk", "--n", "3", "--out", str(tmp_path / "dk3.edges")]) == 0
        assert [p.prog for p in parsers_built[2:]] == ["svckit generate"] + [
            f"svckit generate {family}" for family in ("gamma", "dk", "cycle", "random")]
        capsys.readouterr()

    @pytest.mark.parametrize("columns", ["80", "40"])
    def test_one_command_parser_speaks_as_the_full_parser(
            self, gamma13_file, columns, capsys, monkeypatch, fresh_parsers):
        # stdout, stderr and exit code of every argv equal the full
        # parser's: help, usage (which names every command) and errors
        monkeypatch.setenv("COLUMNS", columns)
        f = gamma13_file
        corpus = [[], ["-h"], ["--help"], ["frobnicate"], ["svc", f, "--threads", "2"],
                  ["analyze", f, "extra"], ["weakening", f], ["weakening", f, "--kind", "both"],
                  ["iterate", f], ["iterate", f, "--depth", "x"], ["analyze", f, "--format", "csv"],
                  ["svc", f, "--format", "json"], ["analyze", f, "--limit", "x"], ["svc", f],
                  ["generate"], ["generate", "tree"], ["generate", "gamma", "--a", "2"],
                  ["generate", "gamma", "--a", "x", "--b", "2"], ["generate", "gamma", "-h"],
                  ["generate", "random", "--n", "5", "--p", "z", "--seed", "1"],
                  ["generate", "dk", "--n", "3", "--bogus"], ["generate", "cycle", "--help"]]
        corpus += [[c, *flag] for c in cli._COMMANDS for flag in (["--help"], ["-h"], [])]
        seen = {}
        for argv in corpus:
            cli._top.cache_clear()  # each argv as the first in its process
            code = main(argv)
            seen[tuple(argv)] = one = code, *capsys.readouterr()
            cli._top.cache_clear()
            full = _build_parser()
            with monkeypatch.context() as m:
                m.setattr(cli, "_build_parser", lambda command=None: full)
                code = main(argv)
            assert one == (code, *capsys.readouterr()), argv
        # the top-level usage names every command; the full parser's errors
        # name the positional "command"
        code, _, err = seen["svc", f, "--threads", "2"]
        assert code == 1 and "unrecognized arguments: --threads 2" in err
        assert "{analyze,svc,sec,weakening,iterate,generate,export-dot}" in err
        assert "error: argument command: invalid choice: 'frobnicate'" in seen["frobnicate",][2]
        assert "error: the following arguments are required: command" in seen[()][2]

    def test_threads_option_removed(self, gamma13_file, capsys):
        # svckit runs single-threaded and has no thread-count flag
        assert main(["svc", gamma13_file, "--threads", "2"]) == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
