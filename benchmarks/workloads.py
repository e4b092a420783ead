"""The three benchmark workloads: CLI argv from a seed, and output checks.

A workload seed yields a list of `Call`s, each one `intertwine` command line
with the file it writes and the number of items it must produce.  An item
is one verify case or one table row.  `check` reads that file after the
timed part of a run and scores every item; see README.md for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

# Cases per verify suite; every suite draws a fixed number of cases,
# whatever the seed.
SUITE_CASES = {"classical": 22, "harmonics": 12, "arch": 449, "padic": 164, "global": 22}
ANALYTIC_SUITES = ("classical", "harmonics", "arch", "global")
ANALYTIC_SEEDS = 4

# Tolerance of the intrinsic table identities.
TABLE_TOL = 1e-12
# Every SAMPLE_EVERY-th mu row is also compared, at SAMPLE_TOL, with a value
# computed another way: the finite-product form at an archimedean place, the
# transform-pipeline oracle at a finite one.
SAMPLE_EVERY = 50
SAMPLE_TOL = 1e-10
# Margin scored for an item that failed without a measured difference
# (crashed call, missing row); a failed verify flag case scores the same.
FAILED_MARGIN = 2.0


@dataclass(frozen=True)
class Call:
    kind: str  # "verify", "mu" or "gauss"
    argv: tuple[str, ...]
    out: str  # file name inside the work directory
    items: int
    suite: str = ""
    seed: int = 0


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    worst_margin: float = 0.0
    # psi_c values the padic suite's Fourier checks drew, per verify seed
    draws: dict = field(default_factory=dict)

    def add(self, other: "Score") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.worst_margin = max(self.worst_margin, other.worst_margin)
        self.draws.update(other.draws)


WORKLOADS = ("verify-padic", "verify-analytic", "tables")


def plan(workload: str, seed: int, workdir: str) -> list[Call]:
    if workload == "verify-padic":
        return [_verify("padic", padic_verify_seed(seed), workdir)]
    if workload == "verify-analytic":
        return [
            _verify(suite, ANALYTIC_SEEDS * seed + j, workdir)
            for j in range(ANALYTIC_SEEDS)
            for suite in ANALYTIC_SUITES
        ]
    if workload == "tables":
        return _tables(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def padic_verify_seed(seed: int) -> int:
    """The verify seed for workload seed `seed`.

    The padic suite's first three draws are the additive conductors psi_c
    of its p = 3, 5 and 7 Fourier checks.  psi_c = 0 makes the brute-force
    transform walk deeper shells: at p = 7 the suite takes ~3.3 s and ~95 MB
    against ~2 s and ~39 MB on the reference machine, and the three draws
    also fix the suite's worst margin.  Every workload seed therefore maps
    to a verify seed whose three draws are all 0, so that seeds vary the
    remaining inputs but not the amount of work.  `check` reads the draws
    back from the report and fails the call if any is not 0: then the suite
    has changed its draw order, and with it the size of the workload.
    """
    v = 64 * seed
    while True:
        rng = random.Random(v)
        if not any(rng.choice((0, 1)) for _ in range(3)):
            return v
        v += 1


def _verify(suite: str, vseed: int, workdir: str) -> Call:
    out = f"verify-{suite}-{vseed}.json"
    argv = ("verify", "--suite", suite, "--seed", str(vseed), "--json", os.path.join(workdir, out))
    return Call("verify", argv, out, SUITE_CASES[suite], suite, vseed)


def _grid(start: float, stop: float, step: float) -> tuple[str, int]:
    """A `--y=start:stop:step` argument and its point count."""
    return f"--y={start:.2f}:{stop:.2f}:{step}", round((stop - start) / step) + 1


def _primitive_count(p: int, m_max: int) -> int:
    """Characters of conductor exactly m, summed over 1 <= m <= m_max."""
    if p == 2:
        return sum(1 if m == 2 else 2 ** (m - 2) for m in range(2, m_max + 1))
    return sum(p - 2 if m == 1 else (p - 1) ** 2 * p ** (m - 2) for m in range(1, m_max + 1))


def _tables(seed: int, workdir: str) -> list[Call]:
    """A fixed mix of value tables.  The seed picks among alternatives of
    equal size (twist, grid offset, additive conductor, real-place type),
    so the row and term counts do not depend on it."""
    rng = random.Random(seed)
    twist = f"{rng.uniform(-1.5, 1.5):.2f}"
    off = rng.randrange(10) / 100
    y_arch, ny_arch = _grid(-5 + off, 5 + off, 0.1)
    n0r = rng.randrange(2)
    yo = rng.randrange(10) / 10
    y_fin, ny_fin = _grid(yo, yo + 0.2, 0.1)

    def call(kind: str, out: str, items: int, *args: str) -> Call:
        argv = (kind,) + args + ("--format", "json", "--out", os.path.join(workdir, out))
        return Call(kind, argv, out, items)

    calls = [
        call("mu", "mu-complex.json", 21 * ny_arch,
             "--place", "complex", "--n0", "0", "--n", "0:40:2", "--mu", twist, y_arch),
        call("mu", "mu-real.json", 21 * ny_arch,
             "--place", "real", "--n0", str(n0r), f"--n={n0r - 40}:{n0r + 40}:4", "--mu", twist, y_arch),
        call("mu", "mu-finite.json", 2 * ny_fin,
             "--place", "finite", "--p", "101", "--cond-xi", "2", "--cond-oxi", "1",
             "--psi-c", str(rng.randrange(2)), "--mu", twist, "--n", "3:4", y_fin),
    ]
    for p, m_max in ((5, 3), (7, 3), (101, 1)):
        calls.append(call("gauss", f"gauss-{p}.json", _primitive_count(p, m_max),
                          "--p", str(p), "--m-max", str(m_max), "--psi-c", str(rng.randrange(3))))
    calls.append(call("gauss", "gauss-2.json", _primitive_count(2, 10), "--p", "2", "--allow-p2", "--m-max", "10"))
    return calls


# ---------------------------------------------------------------------------
# checks


class CheckFailed(Exception):
    pass


def check(call: Call, rc, workdir: str) -> tuple[Score, list[str]]:
    """Score every item of one call.  A call that exited non-zero, raised,
    wrote an unreadable file or the wrong number of items fails all of its
    items; so does a padic report whose Fourier checks drew psi_c != 0."""
    draws: dict = {}
    path = os.path.join(workdir, call.out)
    try:
        if rc != 0:
            raise CheckFailed(f"exit {rc}")
        margins = _verify_margins(call, path, draws) if call.kind == "verify" else _table_margins(call, path)
        if len(margins) != call.items:
            raise CheckFailed(f"{len(margins)} items, expected {call.items}")
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError, RuntimeError, CheckFailed) as exc:
        return Score(call.items, call.items, FAILED_MARGIN, draws), [f"{' '.join(call.argv[:3])}: {exc}"]
    failed = sum(1 for m in margins if not m <= 1.0)
    worst = max((m if math.isfinite(m) else FAILED_MARGIN for m in margins), default=0.0)
    return Score(len(margins), failed, worst, draws), []


def _verify_margins(call: Call, path: str, draws: dict) -> list[float]:
    with open(path) as fh:
        report = json.load(fh)
    if report["suite"] != call.suite or report["seed"] != call.seed:
        raise CheckFailed(f"report is for {report['suite']} seed {report['seed']}")
    if call.suite == "padic":
        drawn = [c["inputs"].get("psi_c") for c in report["cases"] if c["key"].startswith("padic/fourier-")]
        draws[call.seed] = drawn
        if not drawn or set(drawn) != {"0"}:
            raise CheckFailed(f"padic suite draws changed: the Fourier checks drew psi_c {drawn}, not all 0")
    margins = []
    for case in report["cases"]:
        m = case["abs_diff"] / case["tol"]
        # a case whose pass flag disagrees with its margin still fails
        margins.append(m if case["pass"] else max(m, FAILED_MARGIN))
    return margins


def _table_margins(call: Call, path: str) -> list[float]:
    """One margin per row: the worst |identity| / TABLE_TOL of the row.

    mu rows: |mu| = 1 on the unitary axis, and for every SAMPLE_EVERY-th row
    also |mu - reference| / SAMPLE_TOL (see `_mu_reference`).  gauss rows:
    |g| = 1 and g(chi^-1) = chi(-1) conj g(chi), pairing each row with its
    inverse.
    """
    with open(path) as fh:
        rows = json.load(fh)
    if call.kind == "mu":
        margins = []
        for i, r in enumerate(rows):
            val = complex(r["mu_re"], r["mu_im"])
            m = abs(abs(val) - 1.0) / TABLE_TOL
            if i % SAMPLE_EVERY == 0:
                m = max(m, abs(val - _mu_reference(call, r)) / SAMPLE_TOL)
            margins.append(m)
        return margins
    g = {(r["m"], r["char"]): complex(r["g_re"], r["g_im"]) for r in rows}
    margins = []
    for r in rows:
        m, label = r["m"], r["char"]
        val = g[(m, label)]
        inv, sign = _inverse(r["p"], m, label, r.get("chi_m1"))
        partner = g.get((m, inv))
        conj_dev = math.inf if partner is None else abs(partner - sign * val.conjugate())
        margins.append(max(abs(abs(val) - 1.0), conj_dev) / TABLE_TOL)
    return margins


def _mu_reference(call: Call, row: dict) -> complex:
    """The row's eigenvalue computed without the closed form the CLI uses.

    The call's own argv is read back with the CLI's parser, for the twist
    and the characters.  Archimedean rows are compared with
    `arch.mu_arch_product`, which multiplies out the gamma ratio step by
    step; finite rows with `padic.mu_finite_oracle`, which runs the
    transform pipeline (about 0.2 s per row at p = 101, level 3).
    """
    from intertwine.arch import ArchParams, Place, mu_arch_product
    from intertwine.cli import build_parser
    from intertwine.padic import AddChar, FiniteParams, MultChar, mu_finite_oracle

    args = build_parser().parse_args(list(call.argv))
    s = 1j * row["y"]
    if args.place != "finite":
        return mu_arch_product(ArchParams(Place(args.place), s, args.mu, args.n0), row["n"])
    p = args.p
    xi = MultChar(p, args.cond_xi, 1) if args.cond_xi else MultChar.trivial(p)
    oxi = MultChar(p, args.cond_oxi, 1) if args.cond_oxi else MultChar.trivial(p)
    return mu_finite_oracle(FiniteParams(p, s, args.mu, xi, oxi, AddChar(p, args.psi_c)), row["n"])


def _inverse(p: int, m: int, label: str, chi_m1: float | None) -> tuple[str, float]:
    """Label of the inverse character and the value chi(-1)."""
    if p != 2:
        a = int(label.split("=")[1])
        phi = (p - 1) * p ** (m - 1)
        return f"a={(-a) % phi}", chi_m1
    if label == "chi4":
        return label, -1.0
    eps, a = (int(part.split("=")[1]) for part in label.split(","))
    # the unit group mod 2^m is {+-1} x <5>, with 5 of order 2^(m-2);
    # -1 sits on the sign factor, so chi(-1) = (-1)^eps
    return f"eps={eps},a={2 ** (m - 2) - a}", -1.0 if eps else 1.0
