#!/usr/bin/env python3
"""Benchmark runner for the intertwine CLI.

    python3 benchmarks/run.py --workload verify-padic --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each timed run is a fresh child
interpreter (child.py) that imports intertwine from ./src and runs the
workload's CLI calls through intertwine.cli.main, one child at a time, until
--seconds have passed.  After each child the runner checks every output
outside the timed part.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
samples, spreads and environment.  --trace 1 alternates untraced and traced
children and reports the per-layer metrics instead.  Every invocation first
runs the tracer's self-check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import environment
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

MIN_RUNS = 3  # timed children per run, even past --seconds
MIN_TRACED = 2  # traced children, so their exact counts can be compared
SETUP_SAMPLES = 11  # setup_s is the median of at least this many children
BUDGET_S = 150  # start no child that would likely end past this
DEADLINE_S = 170  # kill a child still running this long after the start
# One BLAS thread: the CLI's only BLAS work is small matrix products, and a
# single thread keeps the timings steady on a shared machine.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# reference_loop's typical wall time on the reference machine (2-vCPU Xeon
# VM, Python 3.11.7), where it ranged over 0.06-0.13 s as the host's load
# changed.  Times are reported as if every loop had taken REF_S.
REF_S = 0.08


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that never touches intertwine.

    Rational and dict arithmetic, then float arithmetic, as in the library's
    own hot loops.  Timed in the runner around every child, it gauges how
    fast the machine runs at that moment.
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 12000):
        acc += Fraction(i % 97, 101 + i % 7)
        table[i % 500] = table.get(i % 500, 0) + i * i % 13
    total = 0.0
    for i in range(300_000):
        total += (i * i % 7) * 0.5
    return time.perf_counter() - start


def unit_of(metric: str) -> str:
    """Unit of a metric, read off its name as BENCHMARK.json declares it."""
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".share", "margin")):
        return "ratio"
    return "count"


class Runner:
    def __init__(self, root: str, workload: str, seed: int, workdir: str, start: float):
        self.root = root
        self.start = start
        self.workdir = workdir
        self.calls = workloads.plan(workload, seed, workdir)
        self.plan_path = os.path.join(workdir, "plan.json")
        with open(self.plan_path, "w") as fh:
            json.dump([list(c.argv) for c in self.calls], fh)
        self.score = workloads.Score()
        self.setup_s: list[float] = []
        self.env: dict | None = None
        self.notes: list[str] = []

    def child(self, *flags: str) -> dict | None:
        """Run one child to completion; None if it produced no result."""
        result_path = os.path.join(self.workdir, "result.json")
        log_path = os.path.join(self.workdir, "child.log")
        for path in [result_path] + [os.path.join(self.workdir, c.out) for c in self.calls]:
            if os.path.exists(path):
                os.remove(path)
        ref_before = reference_loop()
        env = dict(os.environ, **CHILD_ENV)
        env.pop("PYTHONPATH", None)
        cmd = [sys.executable, CHILD, os.path.join(self.root, "src"), self.plan_path, result_path, *flags]
        with open(log_path, "w") as log:
            try:
                timeout = max(1.0, self.start + DEADLINE_S - time.perf_counter())
                proc = subprocess.run(cmd, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        ref_after = reference_loop()
        result = None
        if code == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
            result["speed"] = REF_S / ((ref_before + ref_after) / 2)
        else:
            with open(log_path) as fh:
                self.notes.append(f"child exited {code}: {fh.read()[-2000:]}")
        if result is not None:
            self.setup_s.append(result["setup_s"] * result["speed"])
            self.env = self.env or result.get("env")
        return result

    def timed(self, *flags: str) -> dict | None:
        """One workload child, with its outputs checked afterwards."""
        result = self.child(*flags)
        rcs = result["rcs"] if result else ["child failed"] * len(self.calls)
        for call, rc in zip(self.calls, rcs):
            score, notes = workloads.check(call, rc, self.workdir)
            self.score.add(score)
            self.notes.extend(notes)
        return result

    def top_up_setup(self, deadline: float) -> None:
        while len(self.setup_s) < SETUP_SAMPLES and time.perf_counter() < deadline:
            self.child("--setup-only")


def quartiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "samples": values}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if len(values) > 20:
        # the highest percentile with at least ten samples beyond it
        k = len(values) - 10
        out[f"p{100 * k // len(values)}"] = sorted(values)[k - 1]
    return out


def measure(d: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = d.start
    d.child("--setup-only")  # compiles the bytecode once, as an install would
    d.setup_s.clear()
    t0 = time.perf_counter()
    plain, traced, overhead = [], [], []
    while True:
        t = time.perf_counter()
        flags = ["--env"] if d.env is None else []
        r = d.timed(*flags)
        if r is not None:
            plain.append(r)
        if trace:
            rt = d.timed("--trace")
            if rt is not None:
                traced.append(rt)
                if r is not None:
                    # each traced child against the untraced child run beside it
                    overhead.append(rt["run_s"] * rt["speed"] - r["run_s"] * r["speed"])
        now = time.perf_counter()
        enough = len(traced) >= MIN_TRACED if trace else len(plain) >= MIN_RUNS
        if (enough and now - t0 >= seconds) or now - start + (now - t) > BUDGET_S:
            break
    d.top_up_setup(start + BUDGET_S)
    if not plain or (trace and not overhead):
        raise RuntimeError("no child produced a result:\n" + "\n".join(d.notes[-3:]))
    detail = {
        "run_s": quartiles([r["run_s"] * r["speed"] for r in plain]),
        "run_wall_s": quartiles([r["run_s"] for r in plain]),
        "speed": quartiles([r["speed"] for r in plain]),
        "setup_s": quartiles(d.setup_s),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in plain]),
    }
    if not trace:
        metrics = {
            "run_s": detail["run_s"]["median"],
            "setup_s": detail["setup_s"]["median"],
            "peak_rss_mb": detail["peak_rss_mb"]["median"],
            "worst_margin": d.score.worst_margin,
        }
        return metrics, detail
    counts = [tracing.exact_counts(r["trace"]) for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        raise RuntimeError("traced runs at one seed disagree on calls or counts")
    per_run = [tracing.layer_metrics(r["trace"], r["run_s"], r["speed"]) for r in traced]
    # counts repeat exactly (checked above); times are medians over the traced runs
    metrics = {
        name: statistics.median(run[name] for run in per_run) if unit_of(name) != "count" else value
        for name, value in per_run[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(overhead)
    detail["traced_run_s"] = quartiles([r["run_s"] * r["speed"] for r in traced])
    detail["trace_overhead_s"] = quartiles(overhead)
    detail["spans"] = traced[0]["trace"]["spans"]
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracing.self_check()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "intertwine", "cli.py")):
        print(f"error: no intertwine source tree under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # the mu table checks call the library

    nproc, pinned_cpu = os.cpu_count(), None
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the runner and its children, so that reference_loop
        # gauges the CPU the workload runs on
        cpus = os.sched_getaffinity(0)
        nproc, pinned_cpu = len(cpus), max(cpus)
        os.sched_setaffinity(0, {pinned_cpu})
    start = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix=".benchwork-", dir=root)
    try:
        d = Runner(root, args.workload, args.seed, workdir, start)
        metrics, detail = measure(d, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in d.notes:
        print(f"note: {note}", file=sys.stderr)
    s = d.score
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        fail_ratio=s.failed / s.attempted,
        worst_margin=s.worst_margin,
        padic_psi_c_draws=s.draws,
        env=dict(d.env or {}, nproc=nproc, pinned_cpu=pinned_cpu,
                 git_commit=environment.git_commit(root), seed=args.seed),
        wall_s=time.perf_counter() - start,
    )
    print(json.dumps(detail, sort_keys=True))
    out = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
