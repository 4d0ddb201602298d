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
from typing import Callable, List, Optional, TextIO, Tuple

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


# each command's help and its options after ``file``, in order; every command
# but generate takes ``file`` first and ``--format`` last
_FLAG = {"action": "store_true"}
_COMMANDS = {
    "analyze": ("full connectivity report", [
        ("--enumerate", {**_FLAG, "dest": "enumerate_witnesses"}),
        ("--enumerate-large", {**_FLAG, "help": "allow witness enumeration even when sigma >= 3"}),
        ("--scc-largest", {**_FLAG, "help": "restrict to the largest SCC first"}),
        ("--limit", {"type": int, "default": None}), ("--out", {"default": None})]),
    "svc": ("print svc as a single integer", [("--scc-largest", _FLAG)]),
    "sec": ("print sec as a single integer", [("--scc-largest", _FLAG)]),
    "weakening": ("list minimum weakening sets", [
        ("--kind", {"required": True, "choices": ["vertex", "edge"]}),
        ("--limit", {"type": int, "default": None}),
        ("--enumerate-large", _FLAG), ("--scc-largest", _FLAG)]),
    "iterate": ("iterated weakening decomposition", [
        ("--depth", {"type": int, "required": True}), ("--enumerate-large", _FLAG),
        ("--scc-largest", _FLAG), ("--out", {"default": None})]),
    "generate": ("generate a named graph family", None),
    "export-dot": ("DOT rendering of a graph file", [
        ("--highlight-first-witness", _FLAG),
        ("--enumerate-large", {**_FLAG, "help": "allow the witness search even when sigma0 >= 3"})]),
}
_FAMILIES = {"gamma": {"--a": int, "--b": int}, "dk": {"--n": int}, "cycle": {"--n": int},
             "random": {"--n": int, "--p": float, "--seed": int}}


@functools.cache
def _top(metavar: Optional[str]) -> Tuple[_Parser, argparse.Action]:
    parser = _Parser(prog="svckit", description="Strong-connectivity toolkit")
    return parser, parser.add_subparsers(dest="command", required=True,
                                         parser_class=_Parser, metavar=metavar)


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every command, or with ``command`` the one shared
    top-level parser that has that command's sub-parser added; its usage
    still names every command. A sub-parser is built once per process."""
    parser, sub = _top(command and "{" + ",".join(_COMMANDS) + "}")
    for name in [command] if command else _COMMANDS:
        if name in sub.choices:
            continue
        text, options = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        if options is None:
            families = p.add_subparsers(dest="family", required=True, parser_class=_Parser)
            for family, params in _FAMILIES.items():
                pf = families.add_parser(family)
                for param, kind in params.items():
                    pf.add_argument(param, type=kind, required=True)
                pf.add_argument("--out", default=None)
            continue
        p.add_argument("file")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", default="auto", choices=["auto", "edgelist", "graphml"])
    return parser


def _load(args) -> DirectedGraph:
    g = read_graph(args.file, args.format)
    if getattr(args, "scc_largest", False):
        comps = scc(g).components
        largest = max(comps, key=lambda c: (len(c), -min(c)))
        g, _ = induced(g, largest)
    return g


def _emit(out: Optional[str], write: Callable[[TextIO], object]) -> None:
    """``write`` to the file ``out`` (named if it cannot be), else to stdout."""
    if not out:
        write(sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc}") from None


def _run(args) -> int:
    cmd = args.command
    if cmd == "generate":
        _emit(args.out, functools.partial(write_edgelist, _generate(args)))
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
        text = to_canonical_json(report_to_dict(rep, g))
        _emit(args.out, lambda fh: fh.write(text))
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
            _emit(args.out, lambda fh: fh.write(text))
        print(f"sigma_trace: {sigma_trace(tree)}")
        print(f"zeta_trace: {zeta_trace(tree)}")
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
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
