import io
import json
import re

import pytest

import svckit as sk
from svckit.graphs import GraphInputError
from svckit.interface import (
    ParseError,
    export_dot,
    read_graph,
    read_graph_detailed,
    report_to_dict,
    to_canonical_json,
    tree_to_dict,
    write_edgelist,
    write_report,
)


class TestEdgelistIngestion:
    def test_two_cycle(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a b\nb a\n")
        g = read_graph(f)
        assert g.n == 2 and g.edges == frozenset({(0, 1), (1, 0)})
        assert g.vertex_labels == {0: "a", 1: "b"}

    def test_self_loop_dropped_with_count(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a a\na b\nb a\n")
        res = read_graph_detailed(f)
        assert res.self_loops_dropped == 1
        assert res.graph.m == 2

    def test_duplicates_dropped(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a b\na b 0.7\nb a\n")
        res = read_graph_detailed(f)
        assert res.duplicates_dropped == 1 and res.graph.m == 2

    def test_weight_column_ignored(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("x y 3.5\ny x 1\n")
        assert read_graph(f).m == 2

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("# header comment\n\na b # inline\nb a\n")
        assert read_graph(f).m == 2

    def test_bad_line_reports_number(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a b\none two three four\n")
        with pytest.raises(ParseError, match=":2:"):
            read_graph(f)

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("# nothing\n")
        with pytest.raises(ParseError, match="empty"):
            read_graph(f)

    def test_roundtrip(self, tmp_path):
        g = sk.gamma(sk.FamilyParams(2, 3))
        buf = io.StringIO()
        write_edgelist(g, buf)
        f = tmp_path / "rt.edges"
        f.write_text(buf.getvalue())
        g2 = read_graph(f)
        assert g2.n == g.n
        relabel = {v: g2.label(v) for v in range(g2.n)}
        orig = {(g.label(u), g.label(v)) for u, v in g.edges}
        back = {(relabel[u], relabel[v]) for u, v in g2.edges}
        assert orig == back

    def test_roundtrip_with_isolated_vertex(self, tmp_path):
        g = sk.DirectedGraph(3, [(0, 1)], {0: "a", 1: "b", 2: "lonely"})
        buf = io.StringIO()
        write_edgelist(g, buf)
        f = tmp_path / "iso.edges"
        f.write_text(buf.getvalue())
        g2 = read_graph(f)
        assert g2.n == 3
        assert "lonely" in g2.vertex_labels.values()

    @pytest.mark.parametrize("n, edges, labels, bad", [
        (2, [(0, 1), (1, 0)], {0: "x y", 1: "z"}, 0),  # "x y z": z read as a weight
        (2, [(0, 1)], {0: "a", 1: "a"}, 1),
        (2, [(0, 1)], {0: "1"}, 1),  # unlabelled vertex 1 is written as 1
    ])
    def test_unwritable_names_rejected(self, n, edges, labels, bad):
        buf = io.StringIO()
        with pytest.raises(GraphInputError, match=f"vertex {bad}:"):
            write_edgelist(sk.DirectedGraph(n, edges, labels), buf)
        assert buf.getvalue() == ""

    def test_unwritable_graphml_ids_rejected(self, tmp_path):
        f = tmp_path / "g.graphml"
        f.write_text(TestGraphmlIngestion.GOOD.replace('"a"', '"a b"').replace('"c"', '"c#1"'))
        g = read_graph(f)
        assert [g.label(v) for v in range(g.n)] == ["a b", "b", "c#1"]
        buf = io.StringIO()
        with pytest.raises(GraphInputError, match="vertex 0:"):
            write_edgelist(g, buf)
        g = sk.DirectedGraph(3, g.edges, {0: "a", 1: "b", 2: "c#1"})
        with pytest.raises(GraphInputError, match="vertex 2:"):
            write_edgelist(g, buf)
        assert buf.getvalue() == ""


class TestGraphmlIngestion:
    GOOD = """<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph id="G" edgedefault="directed">
    <node id="a"/><node id="b"/><node id="c"/>
    <edge source="a" target="b"/>
    <edge source="b" target="c"/>
    <edge source="c" target="a"/>
  </graph>
</graphml>
"""

    def test_directed_cycle(self, tmp_path):
        f = tmp_path / "g.graphml"
        f.write_text(self.GOOD)
        g = read_graph(f)
        assert g.n == 3 and sk.is_strongly_connected(g)

    def test_undirected_rejected(self, tmp_path):
        f = tmp_path / "g.graphml"
        f.write_text(self.GOOD.replace('edgedefault="directed"', 'edgedefault="undirected"'))
        with pytest.raises(ParseError, match="directed"):
            read_graph(f)

    @pytest.mark.parametrize("old, new, message", [
        ("</graph>", '</graph><graph id="H"/>', "expected exactly one <graph>, found 2"),
        ('<node id="b"/>', "<node/>", "<node> without id"),
        ('<edge source="a" target="b"/>', '<edge source="a" target="b" directed="false"/>',
         "undirected <edge> not supported"),
        ('<edge source="b" target="c"/>', '<edge source="b"/>', "<edge> missing source/target"),
    ], ids=["two-graphs", "node-without-id", "undirected-edge", "edge-without-target"])
    def test_malformed_rejected(self, tmp_path, old, new, message):
        f = tmp_path / "g.graphml"
        assert old in self.GOOD
        f.write_text(self.GOOD.replace(old, new))
        with pytest.raises(ParseError, match=f": {re.escape(message)}$"):
            read_graph(f)

    def test_garbage_rejected(self, tmp_path):
        f = tmp_path / "g.graphml"
        f.write_text("<graphml><oops")
        with pytest.raises(ParseError):
            read_graph(f)

    def test_format_argument_picks_the_parser(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text(self.GOOD)
        g = read_graph(f, "graphml")
        assert g.n == 3 and g.m == 3 and sk.is_strongly_connected(g)
        with pytest.raises(ParseError, match="expected 1-3 tokens"):
            read_graph(f, "edgelist")

    def test_unknown_format_rejected(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("a b\nb a\n")
        with pytest.raises(ParseError, match="unknown format 'bogus'"):
            read_graph(f, "bogus")

    def test_each_file_is_opened_once(self, tmp_path, monkeypatch):
        # sniffing shares the read the parser uses, for both formats
        opened = []
        real = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr("builtins.open", counting_open)
        sniffed, suffixed, edges = tmp_path / "g.xml", tmp_path / "g.graphml", tmp_path / "g.edges"
        for f in (sniffed, suffixed):
            f.write_text(self.GOOD)
        edges.write_text("a b\nb a\n")
        for f, format in ((sniffed, "auto"), (suffixed, "auto"), (sniffed, "graphml"),
                          (edges, "auto"), (edges, "edgelist")):
            opened.clear()
            assert read_graph(f, format).n == 3 - (f is edges)
            assert opened == [f]

    def test_sniffed_garbage_reported_as_with_the_suffix(self, tmp_path):
        sniffed, suffixed = tmp_path / "g.xml", tmp_path / "g.graphml"
        for f in (sniffed, suffixed):
            f.write_text('<?xml version="1.0"?>\n<graphml><oops')
        texts = []
        for f in (sniffed, suffixed):
            with pytest.raises(ParseError, match=": not parseable as GraphML: ") as err:
                read_graph(f)
            texts.append(str(err.value).replace(str(f), "F"))
        assert texts[0] == texts[1]


class TestReportSerialization:
    def test_schema_and_values(self, tmp_path):
        g = sk.gamma(sk.FamilyParams(1, 3))
        rep = sk.report(g, enumerate_witnesses=True)
        out = tmp_path / "report.json"
        write_report(rep, out, g)
        d = json.loads(out.read_text())
        assert d["schema"] == "svckit-report/1"
        assert d["sigma0"] == 1 and d["zeta0_underlying"] == 3
        assert d["witness_counts"][0] == 1
        assert d["vertex_witnesses"][0]["labels"] == ["1"]

    def test_empty_witnesses_when_not_enumerating(self, tmp_path):
        g = sk.directed_cycle(4)
        rep = sk.report(g, enumerate_witnesses=False)
        d = report_to_dict(rep, g)
        assert d["vertex_witnesses"] == [] and d["witness_counts"] is None

    def test_stats_block(self):
        g = sk.directed_cycle(4)
        d = report_to_dict(sk.report(g), g)
        assert to_canonical_json(d["stats"]) == to_canonical_json({
            "n": 4, "m": 4, "min_degree": 2, "max_degree": 2, "min_in": 1,
            "max_in": 1, "min_out": 1, "max_out": 1, "diameter": 3,
        })

    def test_canonical_json_reserializes_identically(self):
        g = sk.directed_cycle(5)
        d = report_to_dict(sk.report(g, enumerate_witnesses=True), g)
        text = to_canonical_json(d)
        assert to_canonical_json(json.loads(text)) == text

    def test_tree_roundtrip(self, tmp_path):
        g = sk.gamma(sk.FamilyParams(2, 3))
        tree = sk.iterate(g, max_depth=3)
        out = tmp_path / "tree.json"
        write_report(tree, out, g)
        d = json.loads(out.read_text())
        assert d["kind"] == "decomposition"

        def depth(nd):
            return 1 + max((depth(c) for c in nd["children"]), default=0)

        def tree_depth(node):
            return 1 + max((tree_depth(c) for c in node.children), default=0)

        assert depth(d["root"]) == tree_depth(tree)

    @pytest.mark.parametrize("labels", [
        {v: f"v{v}" for v in range(8)},   # full
        {1: "a", 4: "d", 6: "f"},         # partial
        None,
    ], ids=["full", "partial", "none"])
    def test_components_labelled_without_subgraphs(self, labels, monkeypatch):
        # two nontrivial SCCs, {1, 3, 5} -> {0, 2, 4, 6}, and a singleton 7
        edges = [(1, 3), (3, 5), (5, 1), (0, 2), (2, 4), (4, 6), (6, 0),
                 (2, 6), (5, 0), (7, 1)]
        g = sk.DirectedGraph(8, edges, labels)
        rep = sk.report(g, enumerate_witnesses=True)
        assert rep.component_vertices == [[0, 2, 4, 6], [1, 3, 5]]
        # reference: each component serialized against its induced subgraph
        want = report_to_dict(rep, g)
        want["components"] = []
        for sub_rep, verts in zip(rep.component_reports, rep.component_vertices):
            cd = report_to_dict(sub_rep, sk.induced(g, verts)[0])
            cd["vertices"] = verts
            want["components"].append(cd)

        built = []
        init = sk.DirectedGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sk.DirectedGraph, "__init__", counting_init)
        got = report_to_dict(rep, g)
        assert built == []
        assert to_canonical_json(got) == to_canonical_json(want)
        small = got["components"][1]["vertex_witnesses"]
        if labels is None:
            assert all("labels" not in w for w in small)
        elif len(labels) == 3:
            # an unlabelled component vertex is printed as its local id
            assert [w["labels"] for w in small] == [["a"], ["1"], ["2"]]
        else:
            assert [w["labels"] for w in small] == [["v1"], ["v3"], ["v5"]]


class TestDotExport:
    def test_two_cycle(self):
        text = export_dot(sk.directed_cycle(2))
        assert "0 -> 1;" in text and "1 -> 0;" in text

    def test_highlighted_vertex(self):
        g = sk.gamma(sk.FamilyParams(1, 3))
        w = sk.weakening_vertex_sets(g)[0]
        text = export_dot(g, highlight=w)
        assert '0 [label="1", style=filled, fillcolor=orangered];' in text

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_highlighted_gamma23(self, kind):
        g = sk.gamma(sk.FamilyParams(2, 3))
        sets = sk.weakening_vertex_sets if kind == "vertex" else sk.weakening_edge_sets
        w = sets(g)[0]
        lines = export_dot(g, highlight=w).splitlines()
        filled = [line for line in lines if "fillcolor=orangered" in line]
        styled = [line for line in lines if "color=orangered, penwidth=2" in line]
        if kind == "vertex":
            assert filled == [f'  {v} [label="{g.label(v)}", style=filled, fillcolor=orangered];'
                              for v in w.members]
            assert styled == []
        else:
            assert filled == []
            assert styled == [f"  {u} -> {v} [color=orangered, penwidth=2];"
                              for u, v in w.members]

    def test_labels_quoted(self):
        g = sk.DirectedGraph(2, [(0, 1)], {0: "left node", 1: "right"})
        text = export_dot(g)
        assert 'label="left node"' in text

    def test_quote_and_backslash_escaped(self, tmp_path):
        f = tmp_path / "g.graphml"
        f.write_text(TestGraphmlIngestion.GOOD.replace('"b"', '"say &quot;hi&quot;"')
                     .replace('"c"', '"a\\b"'))
        lines = export_dot(read_graph(f)).splitlines()
        assert lines[2] == '  1 [label="say \\"hi\\""];'
        assert lines[3] == '  2 [label="a\\\\b"];'

    def test_deterministic(self):
        g = sk.random_digraph(8, 0.4, 3)
        assert export_dot(g) == export_dot(g)
