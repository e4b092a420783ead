"""Command-line front end: verification suites and value tables.

    intertwine verify --suite all --seed 7 [--json report.json]
    intertwine mu --place complex --n0 0 --n 0:6 --y 0:2:0.5 [--format csv]
    intertwine gauss --p 5 --m-max 2 [--psi-c 1]
    intertwine gauss --p 2 --allow-p2 --m-max 4

verify exits 0 when every case passes, 1 otherwise, 2 on bad arguments;
every subcommand exits 2 when it cannot write its --json or --out file.
Each case's tolerance is fixed in the verify module and has no override;
verify --tolerances lists the tolerance each suite applies to the cases
that state none of their own.  Reports are deterministic for a fixed seed
(timing is only included with --timing, since it would break byte-for-byte
reproducibility).  gauss makes one padic.gauss_sums call per conductor at
every prime; p = 2 needs --allow-p2, and labels its rows chi4 and
eps=...,a=... in place of a=... and a chi(-1) column.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .arch import Place, mu_arch, mu_arch_logderiv
from .errors import ParityError, RangeError
from .padic import (
    AddChar,
    FiniteParams,
    MultChar,
    check_gauss_domain,
    check_gauss_work,
    gauss_sums,
    is_odd_prime,
    mu_finite,
    mu_finite_logderiv,
)
from .reports import compact_json, json_list, merged_json
from .verify import SUITE_NAMES, SUITE_TOLERANCES, run_suite


def _parse_range(text: str, integer: bool = False):
    """start:stop[:step] (inclusive stop) or a comma list of finite numbers.

    Point k of a range is start + k * step, so no rounding accumulates along
    the grid; a last point within rounding of stop is stop itself.
    """
    for bit in text.replace(",", ":").split(":"):
        if not math.isfinite(float(bit)):
            raise ValueError(f"expected a finite number, got {bit!r}")
    if "," in text:
        vals = [float(v) for v in text.split(",")]
    else:
        bits = text.split(":")
        if len(bits) == 1:
            vals = [float(bits[0])]
        else:
            start, stop = float(bits[0]), float(bits[1])
            step = float(bits[2]) if len(bits) > 2 else 1.0
            if step <= 0:
                raise ValueError("step must be positive")
            count = math.floor((stop - start) / step + 1e-9) + 1
            vals = [start + k * step for k in range(count)]
            if vals and abs(vals[-1] - stop) <= 1e-9 * step:
                vals[-1] = stop
    if integer:
        out = []
        for v in vals:
            if abs(v - round(v)) > 1e-9:
                raise ValueError(f"expected integer value, got {v}")
            out.append(int(round(v)))
        return out
    return vals


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def cmd_verify(args) -> int:
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    all_pass = True
    reports = []
    for name in suites:
        rep = run_suite(name, seed=args.seed)
        reports.append(rep)
        status = "pass" if rep.passed else "FAIL"
        print(f"[{status}] suite {name}: {len(rep.cases)} cases ({rep.wall_time_s:.1f}s)")
        for c in rep.failures:
            print(f"    FAIL {c.key}  diff={c.abs_diff:.3e}  tol={c.tol:.1e}")
        all_pass = all_pass and rep.passed
    if args.json:
        if len(reports) == 1:
            payload = reports[0].to_json(include_timing=args.timing)
        else:
            payload = merged_json(reports, args.seed, include_timing=args.timing)
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
        print(f"report written to {args.json}")
    return 0 if all_pass else 1


def _mu_row(row: dict, val: complex, dval: complex) -> dict:
    """Add the columns of mu and its derivative mu' to a new row that holds
    its leading columns, and return it.  The row is filled in place: a
    merged copy per row made the tables workload about 2 % slower."""
    row["mu_re"] = val.real
    row["mu_im"] = val.imag
    row["mu_abs"] = abs(val)
    row["mu_prime_re"] = dval.real
    row["mu_prime_im"] = dval.imag
    row["mu_prime_abs"] = abs(dval)
    return row


def _mu_rows_arch(args, place: Place):
    # the whole table in one closed-form call and one log-derivative call, a
    # column of weights per y point (so that a RangeError names the first y
    # whose column fails); mu' = mu * (log mu)' as in mu_arch_derivative, and
    # rows stay in n-major order
    ns = _parse_range(args.n, integer=True)
    ys = _parse_range(args.y)
    s, n = 1j * np.repeat(ys, len(ns)), np.tile(ns, len(ys))
    vals = mu_arch(place, s, args.mu, args.n0, n)
    dvals = vals * mu_arch_logderiv(place, s, args.mu, args.n0, n)
    vals, dvals = vals.reshape(len(ys), len(ns)).tolist(), dvals.reshape(len(ys), len(ns)).tolist()
    return [
        _mu_row({"place": place.value, "n0": args.n0, "n": n, "y": y}, vals[j][i], dvals[j][i])
        for i, n in enumerate(ns)
        for j, y in enumerate(ys)
    ]


def _finite_char(p: int, cond: int) -> MultChar:
    """The character of conductor p^cond a finite mu table uses: the
    exponent a = 1, except chi4 (eps = 1, a = 0), the only one at 2^2."""
    if not cond:
        return MultChar.trivial(p)
    if p == 2 and cond == 1:
        raise ValueError("no primitive character of conductor 2 exists at p = 2")
    if p == 2 and cond == 2:
        return MultChar(2, 2, 0, 1)
    return MultChar(p, cond, 1)


def _mu_rows_finite(args):
    p = args.p
    if p is None:
        raise ValueError("--p is required at a finite place")
    xi, oxi = _finite_char(p, args.cond_xi), _finite_char(p, args.cond_oxi)
    psi = AddChar(p, args.psi_c)
    rows = []
    for n in _parse_range(args.n, integer=True):
        for y in _parse_range(args.y):
            params = FiniteParams(p, 1j * y, args.mu, xi, oxi, psi)
            row = {"place": f"p={p}", "n": n, "y": y}
            val = mu_finite(params, n)
            rows.append(_mu_row(row, val, val * mu_finite_logderiv(params, n)))
    return rows


def cmd_mu(args) -> int:
    if args.place == "complex":
        rows = _mu_rows_arch(args, Place.COMPLEX)
    elif args.place == "real":
        rows = _mu_rows_arch(args, Place.REAL)
    else:
        rows = _mu_rows_finite(args)
    _emit_table(rows, args.format, args.out)
    return 0


def cmd_gauss(args) -> int:
    p = args.p
    if p == 2 and not args.allow_p2:
        print("error: p = 2 needs --allow-p2 (two-generator unit structure)", file=sys.stderr)
        return 2
    if p != 2 and not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    # the deepest conductor bounds the domain, and the whole table the work,
    # so both are checked before any row
    check_gauss_domain(p, args.m_max)
    check_gauss_work(p, args.m_max)
    psi = AddChar(p, args.psi_c)
    rows = []
    for m in range(1, args.m_max + 1):
        for chi, g in gauss_sums(p, m, psi).items():
            row = {"p": p, "m": m}
            if p == 2:
                # chi(-1) = (-1)^eps is in the label
                row["char"] = "chi4" if m == 2 else f"eps={chi.eps},a={chi.a}"
            else:
                row.update(char=f"a={chi.a}", chi_m1=chi.at_minus_one())
            row.update(g_re=g.real, g_im=g.imag, g_abs=abs(g))
            rows.append(row)
    _emit_table(rows, args.format, args.out)
    return 0


def _emit_table(rows, fmt: str, out_path: str | None):
    if not rows:
        print("(no rows)")
        return
    if fmt == "json":
        text = json_list([compact_json(r) for r in rows]) + "\n"
    else:
        cols = list(rows[0].keys())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([_fmt(r[c]) if isinstance(r[c], float) else r[c] for c in cols] for r in rows)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"table written to {out_path}")
    else:
        print(text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intertwine", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: a removed or mistyped flag such as --tolerance must not
    # silently become --tolerances, which exits 0 without running a suite
    pv = sub.add_parser("verify", help="run verification suites", allow_abbrev=False)
    pv.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    # no default here: main reads INTERTWINE_SEED (else 0) when verify runs
    # without --seed, so a bad value is a usage error of verify (exit 2) and
    # not of the others
    pv.add_argument("--seed", type=int)
    pv.add_argument("--json", metavar="PATH", help="write the machine-readable report here")
    pv.add_argument("--tolerances", action="store_true",
                    help="print the tolerance each suite applies to the cases that state none, and exit")
    pv.add_argument("--timing", action="store_true", help="include wall time in the JSON report")
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("mu", help="tabulate intertwining eigenvalues")
    pm.add_argument("--place", choices=("real", "complex", "finite"), required=True)
    pm.add_argument("--n0", type=int, default=0, help="angular weight (archimedean)")
    pm.add_argument("--mu", type=float, default=0.0, help="twist exponent")
    pm.add_argument("--n", default="0:4", help="weight/level range start:stop[:step]")
    pm.add_argument("--y", default="0:1:0.5", help="axis points start:stop:step or comma list")
    pm.add_argument("--p", type=int, help="prime (finite place)")
    pm.add_argument("--cond-xi", type=int, default=0, help="conductor exponent of the first character")
    pm.add_argument("--cond-oxi", type=int, default=0, help="conductor exponent of the second character")
    pm.add_argument("--psi-c", type=int, default=0, help="additive conductor exponent")
    pm.add_argument("--format", choices=("csv", "json"), default="csv")
    pm.add_argument("--out", metavar="PATH")
    pm.set_defaults(func=cmd_mu)

    pg = sub.add_parser("gauss", help="tabulate normalized Gauss sums")
    pg.add_argument("--p", type=int, required=True)
    pg.add_argument("--m-max", type=int, default=2)
    pg.add_argument("--psi-c", type=int, default=0)
    pg.add_argument("--allow-p2", action="store_true")
    pg.add_argument("--format", choices=("csv", "json"), default="csv")
    pg.add_argument("--out", metavar="PATH")
    pg.set_defaults(func=cmd_gauss)

    return parser


@lru_cache(maxsize=1)
def _main_parser() -> argparse.ArgumentParser:
    """main's parser, built once per process: a build takes about 1 ms."""
    return build_parser()


def main(argv=None) -> int:
    parser = _main_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.seed is None:
        # read on every call, so that calls in one process may differ
        env = os.environ.get("INTERTWINE_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:
            parser.error(f"argument --seed: invalid int value: {env!r} (from INTERTWINE_SEED)")
    if args.command == "verify" and args.tolerances:
        for name, tol in SUITE_TOLERANCES.items():
            print(f"{name}: {tol:.1e}")
        return 0
    try:
        return args.func(args)
    except (ParityError, RangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
