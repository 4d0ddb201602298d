"""The benchmark's workloads: seeded inputs and the CLI jobs run on them.

Each workload's ``setup`` writes its input files into a fresh directory and
returns its jobs. A job is the argv a user would type after ``svckit`` plus
a check of what it printed (and wrote to ``--out``). Checks read the input
files with the benchmark's own parser and run after the timed interval.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import checks
import standins

# Sizes keep a run near 25 s on a 2-core machine with several passes in it,
# and single jobs short (1-3 s): each job's time is scaled by a reference
# timed around it (run.py, Gauge), which tracks the core's speed over a
# short job far better than over a long one.
FLY = dict(n_core=140, extra=210, periphery=36)
RAT = dict(n_core=72, extra=144, periphery=8)
RAT_GRAPHS = 3
CAT = dict(n=40, d=11)
CAT_DEPTH = 7
GAMMA_PAIRS = [(a, b) for b in range(1, 5) for a in range(1, b + 1)]


class SetupError(RuntimeError):
    """The inputs could not be made; no job can run."""


@dataclass
class Job:
    name: str
    argv: List[str]
    out: Optional[str]                      # file passed to --out, if any
    check: Callable[[str, str], List[str]]  # (stdout, out-file text) -> errors


def _largest_scc(path: str, n_core: int) -> checks.Digraph:
    g = checks.read_edgelist(path)
    largest = max(checks.sccs(g), key=len)
    if largest != list(range(n_core)):
        raise SetupError(f"{path}: largest SCC is not the generated core")
    return g.induced(largest)[0]


def setup_fly(seed: int, workdir: str, cli_main) -> List[Job]:
    path = os.path.join(workdir, "fly-standin.edges")
    standins.write_edgelist(path, standins.fly(random.Random(seed), **FLY))
    core = functools.cache(lambda: _largest_scc(path, FLY["n_core"]))
    return [Job("analyze", ["analyze", path, "--enumerate", "--scc-largest"], None,
                lambda out, _: checks.check_report(core(), out))]


def setup_rat(seed: int, workdir: str, cli_main) -> List[Job]:
    rng = random.Random(seed)
    jobs = []
    for i in range(RAT_GRAPHS):
        path = os.path.join(workdir, f"rat-standin-{i}.edges")
        standins.write_edgelist(path, standins.rat(rng, **RAT))
        core = functools.cache(lambda path=path: _largest_scc(path, RAT["n_core"]))
        jobs += [
            Job(f"g{i}.svc", ["svc", path, "--scc-largest"], None,
                lambda out, _, core=core: checks.check_svc(core(), out)),
            Job(f"g{i}.sec", ["sec", path, "--scc-largest"], None,
                lambda out, _, core=core: checks.check_sec(core(), out)),
            Job(f"g{i}.weakening-vertex",
                ["weakening", path, "--kind", "vertex", "--scc-largest"], None,
                lambda out, _, core=core: checks.check_weakening(core(), out, "vertex")),
        ]
    return jobs


def setup_cat(seed: int, workdir: str, cli_main) -> List[Job]:
    path = os.path.join(workdir, "cat-standin.edges")
    standins.write_edgelist(path, standins.cat(random.Random(seed), **CAT))
    out = os.path.join(workdir, "cat-tree.json")
    graph = functools.cache(lambda: checks.read_edgelist(path))
    return [Job("iterate", ["iterate", path, "--depth", str(CAT_DEPTH), "--out", out], out,
                lambda stdout, tree: checks.check_tree(graph(), stdout, tree, CAT_DEPTH))]


def setup_gamma(seed: int, workdir: str, cli_main) -> List[Job]:
    # gamma(a, b) is fixed by (a, b): the seed has nothing to vary here
    jobs = []
    for a, b in GAMMA_PAIRS:
        path = os.path.join(workdir, f"gamma-{a}-{b}.edges")
        argv = ["generate", "gamma", "--a", str(a), "--b", str(b), "--out", path]
        if cli_main(argv) != 0:
            raise SetupError(f"svckit {' '.join(argv)} failed")
        g = checks.read_edgelist(path)
        if (g.n, g.m) != standins.gamma_shape(a, b):
            raise SetupError(f"gamma({a},{b}) has (n, m)=({g.n}, {g.m}), "
                             f"expected {standins.gamma_shape(a, b)}")
        jobs.append(Job(f"gamma-{a}-{b}",
                        ["analyze", path, "--enumerate", "--enumerate-large"], None,
                        lambda out, _, g=g, a=a, b=b: _check_gamma(g, out, a, b)))
    return jobs


def _check_gamma(g: checks.Digraph, out: str, a: int, b: int) -> List[str]:
    errs = checks.check_report(g, out)
    if not errs:
        rep = json.loads(out)
        if (rep["sigma0"], rep["zeta0_underlying"]) != (a, b):
            errs.append(f"Proposition 2: gamma({a},{b}) gave sigma0={rep['sigma0']}, "
                        f"zeta0={rep['zeta0_underlying']}")
    return errs


WORKLOADS: Dict[str, Callable[[int, str, Callable], List[Job]]] = {
    "fly-standin": setup_fly,
    "rat-standin": setup_rat,
    "cat-iterate": setup_cat,
    "gamma-sweep": setup_gamma,
}
