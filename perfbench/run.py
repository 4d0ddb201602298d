#!/usr/bin/env python3
"""svckit benchmark: CLI jobs on seeded connectome stand-ins and gamma(a,b).

Run from the repository root:

    python3 perfbench/run.py --workload fly-standin --seed 1 --seconds 20 --trace 0

Workloads: fly-standin, rat-standin, cat-iterate, gamma-sweep (see
workloads.py and BENCHMARK.json for what each stresses and why).

One run is one process. The workload's jobs run through
``svckit.cli.main(argv)``, one at a time in a closed loop, pass after pass,
until ``--seconds`` have passed. No ``--threads`` flag is given, so the CLI's
default pool is part of what is measured. Each pass starts on fresh
set-ups (``import svckit`` from ``src/``, input generation and file
writing).

Times are scaled to a nominal core speed (see ``Gauge``): on a shared
machine other tenants slow a core by up to half for stretches of seconds
to minutes, which moved unscaled medians by 10-40 % between runs minutes
apart (scaled: under 5 %). Each job's
wall and CPU time is multiplied by the nominal over the measured speed of
a fixed reference computation timed just before and after it, and each
set-up's time likewise. ``wall_s``, ``cpu_s`` and ``setup_s`` are medians over
passes (set-ups) of these scaled times; the unscaled pass times are
printed as well. ``peak_rss_mib`` is how far the jobs raise the process's
peak resident memory above its level after the first import and set-up
(the interpreter, the harness and the inputs), read before the checks
import networkx.

Every output is checked after the timed interval (checks.py). On the
default seed each job's output must also match the sha256 digest stored in
digests.json; the failure names the output's sha256, so a deliberate
change of output is recorded by editing digests.json. A job fails when it raises, exits nonzero or fails a check;
failures are counted in ``failed``, never fatal.

With ``--trace 1`` untraced passes alternate with passes that record spans
around svckit's public functions (tracing.py); the per-layer metrics are
printed instead, as medians over traced passes of unscaled span times,
plus ``run.trace_overhead_s`` (median over pairs of a traced pass's scaled
time minus that of the untraced pass before it). The last traced pass's spans are written to
``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 on a completed run
(even with failed jobs); 2 when svckit cannot be imported from ``src/``;
3 when the inputs cannot be made.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, SetupError  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
DEFAULT_SEED = 1
SETUPS_PER_PASS = 2
REF_GRAPH_N = 400
REF_REPEATS = 60
# the reference's time on an uncontended core of a 2-core Xeon VM (fastest
# of 250 runs there: 0.038 s)
REF_NOMINAL_S = 0.04
REF_SHARE = 0.15


def fresh_cli():
    """Import svckit.cli from src/ afresh, as a new process would."""
    for key in [k for k in sys.modules if k == "svckit" or k.startswith("svckit.")]:
        del sys.modules[key]
    cli = importlib.import_module("svckit.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"svckit was imported from {cli.__file__}, not from {SRC}")
    return cli


class Ledger:
    """Every job execution, and each distinct output per job."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []          # (job, reason)
        self.outputs: Dict[str, Dict[str, Tuple[str, str]]] = {}  # job -> sha -> output
        self.runs: List[Tuple[str, str]] = []               # (job, sha) that exited 0

    def run(self, job: Job, main) -> Tuple[float, float]:
        """Run one job; return its (wall, cpu) seconds."""
        self.attempted += 1
        if job.out and os.path.exists(job.out):
            os.remove(job.out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = main(job.argv)
            except (Exception, SystemExit):
                code = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            t1, c1 = time.perf_counter(), time.process_time()
        if code != 0:
            self.failures.append((job.name, f"exit {code}; stderr: {stderr.getvalue()[-300:]}"))
            return t1 - t0, c1 - c0
        out_text = ""
        if job.out:
            try:
                out_text = Path(job.out).read_text(encoding="utf-8")
            except OSError as exc:
                self.failures.append((job.name, f"--out file unreadable: {exc}"))
                return t1 - t0, c1 - c0
        text = stdout.getvalue()
        sha = hashlib.sha256((text + out_text).encode("utf-8")).hexdigest()
        self.outputs.setdefault(job.name, {}).setdefault(sha, (text, out_text))
        self.runs.append((job.name, sha))
        return t1 - t0, c1 - c0

    def verify(self, jobs: List[Job], digests: Optional[Dict[str, str]]) -> None:
        """Check each distinct output once; count every run that produced a
        bad output as failed."""
        by_name = {job.name: job for job in jobs}
        bad: Dict[Tuple[str, str], str] = {}
        for name, shas in self.outputs.items():
            for sha, (text, out_text) in shas.items():
                try:
                    errs = by_name[name].check(text, out_text)
                except Exception:
                    errs = ["check raised: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
                if digests is not None and digests.get(name) != sha:
                    errs.append(f"output sha256 {sha} differs from the one in {DIGESTS.name}")
                if errs:
                    bad[(name, sha)] = "; ".join(errs[:3])
        for name, sha in self.runs:
            if (name, sha) in bad:
                self.failures.append((name, bad[(name, sha)]))


class Gauge:
    """Speed of the core right now, from a fixed reference computation.

    Other tenants of a shared machine slow a core by up to half for
    stretches of seconds to minutes, and the two cores independently. A
    fixed pure-Python computation (SCCs of a fixed random graph, by the
    checks' own code, so it never changes with svckit or with --seed) is
    timed right after every timed interval. The interval's time multiplied
    by ``REF_NOMINAL_S / REF_REPEATS`` over the reference's time per
    repetition on either side of it is what it would have taken on the core
    at nominal speed. Each reference lasts about ``REF_SHARE`` of the
    interval it follows (at least ``REF_REPEATS`` repetitions), so the
    reference's own jitter averages out over long jobs.
    """

    def __init__(self):
        rng = random.Random(0)
        n = REF_GRAPH_N
        arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
        self.graph = checks.Digraph(n, [(u, v) for u, v in arcs if u != v])
        self.last = (self.measure(REF_REPEATS), REF_REPEATS)

    def measure(self, repeats: int) -> float:
        # A full collection first, and none during the reference, so that
        # neither the jobs' garbage slows the reference nor the reference's
        # allocations shift when collections fall inside the next job.
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(repeats):
                checks.sccs(self.graph)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def scale(self, elapsed: float) -> float:
        """Factor for the ``elapsed`` seconds that ran since the last call."""
        nominal_rep = REF_NOMINAL_S / REF_REPEATS
        repeats = max(REF_REPEATS, math.ceil(REF_SHARE * elapsed / nominal_rep))
        now = (self.measure(repeats), repeats)
        (t0, r0), self.last = self.last, now
        return nominal_rep * (r0 + repeats) / (t0 + now[0])


class Inputs:
    """The current set-up: a freshly imported svckit CLI and the workload's
    jobs on freshly written input files."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.workdir: Optional[str] = None
        self.cli = None
        self.jobs: List[Job] = []

    def renew(self) -> float:
        """Set up afresh; return the seconds it took."""
        old = self.workdir
        t0 = time.perf_counter()
        cli = fresh_cli()
        self.workdir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT_DIR)
        self.jobs = WORKLOADS[self.workload](self.seed, self.workdir, cli.main)
        elapsed = time.perf_counter() - t0
        self.cli = cli
        if old is not None:
            shutil.rmtree(old)
        return elapsed

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class Series:
    """Per-pass figures: raw and speed-scaled job times, scaled set-ups,
    and (traced passes) the per-layer metrics."""
    raw_wall: List[float] = field(default_factory=list)
    factor: List[float] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)


def run_pass(inputs: Inputs, gauge: Gauge, ledger: Ledger, series: Series,
             tracer: Optional[Tracer] = None) -> None:
    """One pass: ``SETUPS_PER_PASS`` new set-ups, then every job once, with
    spans around svckit's functions when a tracer is given."""
    for _ in range(SETUPS_PER_PASS):
        elapsed = inputs.renew()
        series.setup.append(elapsed * gauge.scale(elapsed))
    if tracer is not None:
        tracer.reset()
        tracer.install()
    raw = wall = cpu = 0.0
    try:
        for job in inputs.jobs:
            # looked up per job, so that a traced pass calls the wrapped main
            w, c = ledger.run(job, inputs.cli.main)
            k = gauge.scale(w)
            raw += w
            wall += w * k
            cpu += c * k
    finally:
        if tracer is not None:
            tracer.uninstall()
    series.raw_wall.append(raw)
    series.factor.append(wall / raw)
    series.wall.append(wall)
    series.cpu.append(cpu)
    if tracer is not None:
        series.layers.append(tracer.metrics())


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summary(values: List[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"min {min(values):.6g} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} (n={len(values)})"


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    inputs = Inputs(args.workload, args.seed)
    ledger = Ledger()
    try:
        # the first import in a fresh checkout also compiles bytecode, a
        # one-off cost left out of setup_s
        inputs.renew()
        gauge = Gauge()
        rss_before_jobs = max_rss_mib()
        plain, traced = Series(), Series()
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        # closed loop; with --trace 1 untraced and traced passes alternate,
        # so that both run under the same conditions
        while True:
            run_pass(inputs, gauge, ledger, plain)
            if tracer is not None:
                run_pass(inputs, gauge, ledger, traced, tracer)
            if time.perf_counter() - start >= args.seconds:
                break
        if tracer is not None:
            tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"))
        peak_rss_mib = max_rss_mib() - rss_before_jobs

        digests = None
        if args.seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            digests = recorded.get(args.workload, {})
        ledger.verify(inputs.jobs, digests)
    except ImportError as exc:
        print(f"error: cannot import svckit from {SRC}: {exc}", file=sys.stderr)
        return 2
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        inputs.close()

    print(f"workload {args.workload} seed {args.seed}: {len(inputs.jobs)} job(s) per pass, "
          f"{len(plain.wall)} untraced pass(es)")
    print(f"setup_s {summary(plain.setup)}")
    print(f"wall_s {summary(plain.wall)}")
    print(f"cpu_s {summary(plain.cpu)}")
    print(f"unscaled wall time {summary(plain.raw_wall)}")
    print(f"speed factor {summary(plain.factor)}")
    print(f"peak_rss_mib {peak_rss_mib:.3f}")
    failed = len(ledger.failures)
    print(f"fail_ratio {failed / ledger.attempted:.6g} ({failed} of {ledger.attempted} jobs)")
    for name, reason in ledger.failures[:10]:
        print(f"failed: {name}: {reason}", file=sys.stderr)

    if args.trace:
        metrics = {k: statistics.median(p[k] for p in traced.layers) for k in traced.layers[0]}
        # each traced pass against the untraced pass run just before it
        metrics["run.trace_overhead_s"] = statistics.median(
            t - u for t, u in zip(traced.wall, plain.wall))
        print(f"traced wall_s {summary(traced.wall)}")
    else:
        metrics = {
            "wall_s": statistics.median(plain.wall),
            "cpu_s": statistics.median(plain.cpu),
            "setup_s": statistics.median(plain.setup),
            "peak_rss_mib": peak_rss_mib,
        }
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k) if args.trace else E2E_UNITS[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
