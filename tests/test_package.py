"""The installed package holds product code only: the brute-force oracle
lives in ``tests/`` and stays independent of the flow and SCC code."""

import ast
import importlib.util
import sys
from pathlib import Path


def test_oracle_is_not_in_the_package():
    assert importlib.util.find_spec("svckit.oracle") is None


def test_oracle_imports_only_graph_types_from_svckit():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    stdlib, svckit_imports = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            stdlib += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = sorted(alias.name for alias in node.names)
            if node.level or node.module.split(".")[0] == "svckit":
                svckit_imports.append((node.level, node.module, names))
            else:
                stdlib.append(node.module)
    assert svckit_imports == [(0, "svckit.graphs", ["DirectedGraph", "PreconditionError"])]
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in stdlib), stdlib
