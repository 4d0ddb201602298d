"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 input/parse error,
3 precondition failure (e.g. graph not strongly connected where required,
witness enumeration refused at sigma >= 3 without --enumerate-large, or a
decomposition tree too deep for ``iterate --out`` to write).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

from . import families
from .connectivity import (
    EnumerationGuardError,
    report,
    sec,
    svc,
    weakening_edge_sets,
    weakening_vertex_sets,
)
from .decompose import iterate, sigma_trace, zeta_trace
from .graphs import DirectedGraph, GraphInputError, PreconditionError, induced
from .interface import (
    SCHEMA,
    ParseError,
    export_dot,
    read_graph,
    report_to_dict,
    to_canonical_json,
    tree_to_dict,
    write_edgelist,
    _witness_dict,
)
from .scc import scc

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="svckit", description="Strong-connectivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--format", default="auto", choices=["auto", "edgelist", "graphml"])

    p = sub.add_parser("analyze", help="full connectivity report")
    p.add_argument("file")
    p.add_argument("--enumerate", action="store_true", dest="enumerate_witnesses")
    p.add_argument("--enumerate-large", action="store_true",
                   help="allow witness enumeration even when sigma >= 3")
    p.add_argument("--scc-largest", action="store_true",
                   help="restrict to the largest SCC first")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None)
    add_common(p)

    for name in ("svc", "sec"):
        p = sub.add_parser(name, help=f"print {name} as a single integer")
        p.add_argument("file")
        p.add_argument("--scc-largest", action="store_true")
        add_common(p)

    p = sub.add_parser("weakening", help="list minimum weakening sets")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=["vertex", "edge"])
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--enumerate-large", action="store_true")
    p.add_argument("--scc-largest", action="store_true")
    add_common(p)

    p = sub.add_parser("iterate", help="iterated weakening decomposition")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--enumerate-large", action="store_true")
    p.add_argument("--scc-largest", action="store_true")
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("generate", help="generate a named graph family")
    gsub = p.add_subparsers(dest="family", required=True, parser_class=_Parser)
    pg = gsub.add_parser("gamma")
    pg.add_argument("--a", type=int, required=True)
    pg.add_argument("--b", type=int, required=True)
    pk = gsub.add_parser("dk")
    pk.add_argument("--n", type=int, required=True)
    pc = gsub.add_parser("cycle")
    pc.add_argument("--n", type=int, required=True)
    pr = gsub.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--p", type=float, required=True)
    pr.add_argument("--seed", type=int, required=True)
    for sp in (pg, pk, pc, pr):
        sp.add_argument("--out", default=None)

    p = sub.add_parser("export-dot", help="DOT rendering of a graph file")
    p.add_argument("file")
    p.add_argument("--highlight-first-witness", action="store_true")
    p.add_argument("--enumerate-large", action="store_true",
                   help="allow the witness search even when sigma0 >= 3")
    add_common(p)

    return parser


def _load(args) -> DirectedGraph:
    g = read_graph(args.file, args.format)
    if getattr(args, "scc_largest", False):
        comps = scc(g).components
        largest = max(comps, key=lambda c: (len(c), -min(c)))
        g, _ = induced(g, largest)
    return g


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> int:
    cmd = args.command
    if cmd == "generate":
        g = _generate(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_edgelist(g, fh)
        else:
            write_edgelist(g, sys.stdout)
        return 0
    if cmd == "iterate" and args.depth < 1:
        raise GraphInputError(f"--depth must be >= 1, got {args.depth}")

    g = _load(args)

    if cmd == "analyze":
        rep = report(
            g,
            enumerate_witnesses=args.enumerate_witnesses,
            limit=args.limit,
            allow_large=args.enumerate_large,
        )
        _emit(to_canonical_json(report_to_dict(rep, g)), args.out)
        return 0
    if cmd == "svc":
        print(svc(g))
        return 0
    if cmd == "sec":
        print(sec(g))
        return 0
    if cmd == "weakening":
        if args.kind == "vertex":
            sets = weakening_vertex_sets(
                g, limit=args.limit, allow_large=args.enumerate_large
            )
        else:
            sets = weakening_edge_sets(
                g, limit=args.limit, allow_large=args.enumerate_large
            )
        payload = {
            "schema": SCHEMA,
            "kind": f"weakening-{args.kind}-sets",
            "capped": sets.capped,
            "count": len(sets),
            "sets": [_witness_dict(w, g.vertex_labels) for w in sets],
        }
        sys.stdout.write(to_canonical_json(payload))
        return 0
    if cmd == "iterate":
        tree = iterate(g, max_depth=args.depth, enumerate_large=args.enumerate_large)
        print(f"sigma_trace: {sigma_trace(tree)}")
        print(f"zeta_trace: {zeta_trace(tree)}")
        if args.out:
            try:
                text = to_canonical_json(tree_to_dict(tree, g))
            except RecursionError:
                nodes = [tree]
                for node in nodes:  # grows as it is read: every node, top-down
                    nodes += node.children
                depth = max(x.depth for x in nodes)
                raise PreconditionError(f"the decomposition tree is {depth} levels deep, "
                                        f"too deep for the nested {SCHEMA} format") from None
            _emit(text, args.out)
        return 0
    if cmd == "export-dot":
        highlight = None
        if args.highlight_first_witness:
            sets = weakening_vertex_sets(
                g, limit=1, allow_large=args.enumerate_large
            )
            highlight = sets[0] if sets else None
        sys.stdout.write(export_dot(g, highlight))
        return 0
    raise AssertionError(f"unhandled command {cmd!r}")


def _generate(args) -> DirectedGraph:
    if args.family == "gamma":
        return families.gamma(families.FamilyParams(args.a, args.b))
    if args.family == "dk":
        return families.doubled_complete(args.n)
    if args.family == "cycle":
        return families.directed_cycle(args.n)
    if args.family == "random":
        return families.random_digraph(args.n, args.p, args.seed)
    raise AssertionError(f"unhandled family {args.family!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _run(args)
    except (ParseError, FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except EnumerationGuardError as exc:
        # the library's message names its keyword; name the CLI flag
        message = str(exc).replace("allow_large=True", "--enumerate-large")
        sys.stderr.write(f"error: {message}\n")
        return EXIT_PRECONDITION
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except GraphInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
