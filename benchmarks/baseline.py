#!/usr/bin/env python3
"""Record a baseline: every workload at several seeds, plus one traced run each.

    python3 benchmarks/baseline.py > benchmarks/BASELINE.md

Runs benchmarks/run.py one run at a time from the current directory (the
repository root), at SEEDS seeds per workload and SECONDS seconds per run,
and prints a markdown report: for each workload and end-to-end metric the
per-seed values, their median and quartiles and the spread
(q3 - q1) / median, then the traced per-layer table at seed 0.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEEDS = 10
SECONDS = 30  # run_seconds in BENCHMARK.json


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    detail, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def fmt(x: float, unit: str = "") -> str:
    return str(int(x)) if unit == "count" else f"{x:.4g}"


def main() -> int:
    print("# Baseline\n")
    env_done = False
    traced = {}
    for w in workloads.WORKLOADS:
        rows = [run(w, seed, 0) for seed in range(SEEDS)]
        if not env_done:
            env = rows[0][0]["env"]
            print(f"Commit `{env['git_commit']}`; {env['cpu_model']}, nproc {env['nproc']}, "
                  f"runs pinned to CPU {env['pinned_cpu']}; "
                  f"Python {env['python']}, numpy {env['numpy']}, {env['blas']} with "
                  f"{env['blas_threads']} thread(s).  {SEEDS} seeds (0..{SEEDS - 1}) per workload, "
                  f"`--seconds {SECONDS}` per run.\n")
            env_done = True
        print(f"## `{w}`\n")
        print("| metric | median | q1 | q3 | spread | per-seed values |")
        print("|---|---|---|---|---|---|")
        for name in rows[0][1]["metrics"]:
            vals = [r["metrics"][name]["value"] for _, r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| `{name}` | {fmt(med)} | {fmt(q1)} | {fmt(q3)} | {spread:.3f} | "
                  f"{', '.join(fmt(v) for v in vals)} |")
        fails = [d["fail_ratio"] for d, _ in rows]
        children = [d["run_s"]["n"] for d, _ in rows]
        print(f"\n`fail_ratio` per seed: {', '.join(fmt(f) for f in fails)}.  "
              f"Children per run: {', '.join(map(str, children))}.\n")
        traced[w] = run(w, 0, 1)[1]["metrics"]

    print("## Per-layer metrics, traced run at seed 0\n")
    print("| metric | " + " | ".join(f"`{w}`" for w in traced) + " |")
    print("|---|" + "---|" * len(traced))
    for name, spec in next(iter(traced.values())).items():
        cells = [fmt(traced[w][name]["value"], spec["unit"]) for w in traced]
        print(f"| `{name}` ({spec['unit']}) | " + " | ".join(cells) + " |")
    padic = traced["verify-padic"]
    run_s = padic["padic.self_s"]["value"] / padic["padic.share"]["value"]
    shares = {fn: padic[f"padic.{fn}.self_s"]["value"] / run_s for fn in ("fourier_bruteforce", "gauss_sum")}
    print(f"\nOn `verify-padic`, `fourier_bruteforce` self time is {shares['fourier_bruteforce']:.1%} and "
          f"`gauss_sum` self time {shares['gauss_sum']:.1%} of the traced `run_s` ({run_s:.3f} s).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
