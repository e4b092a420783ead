"""Command-line front end: verification suites and value tables.

    intertwine verify --suite all --seed 7 [--json report.json]
    intertwine mu --place complex --n0 0 --n 0:6 --y 0:2:0.5 [--format csv]
    intertwine gauss --p 5 --m-max 2 [--psi-c 1]

verify exits 0 when every case passes, 1 otherwise, 2 on bad arguments;
every subcommand exits 2 when it cannot write its --json or --out file.
Each case's tolerance is fixed in the verify module and has no override;
verify --tolerances lists the tolerance each suite applies to the cases
that state none of their own.  Reports are deterministic for a fixed seed
(timing is only included with --timing, since it would break byte-for-byte
reproducibility).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .arch import ArchParams, Place, mu_arch_column, mu_arch_logderiv_column
from .errors import ParityError, RangeError
from .padic import (
    AddChar,
    FiniteParams,
    MultChar,
    g_normalized,
    is_odd_prime,
    mu_finite,
    mu_finite_logderiv,
    root_of_unity_sum,
)
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
            merged = {
                "suite": "all",
                "seed": args.seed,
                "pass": all_pass,
                "reports": [r.as_dict(include_timing=args.timing) for r in reports],
            }
            payload = json.dumps(merged, indent=1, sort_keys=True)
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
        print(f"report written to {args.json}")
    return 0 if all_pass else 1


def _mu_row(row: dict, val: complex, logderiv: complex) -> dict:
    """Add the columns of mu and mu' = mu * logderiv to a new row that holds
    its leading columns, and return it.  The row is filled in place: a
    merged copy per row made the tables workload about 2 % slower."""
    dval = val * logderiv
    row["mu_re"] = val.real
    row["mu_im"] = val.imag
    row["mu_abs"] = abs(val)
    row["mu_prime_re"] = dval.real
    row["mu_prime_im"] = dval.imag
    row["mu_prime_abs"] = abs(dval)
    return row


def _mu_rows_arch(args, place: Place):
    # one column over the weights per y point; rows stay in n-major order
    ns = _parse_range(args.n, integer=True)
    ys = _parse_range(args.y)
    columns = []
    for y in ys:
        params = ArchParams(place, 1j * y, args.mu, args.n0)
        columns.append((mu_arch_column(params, ns), mu_arch_logderiv_column(params, ns)))
    return [
        _mu_row({"place": place.value, "n0": args.n0, "n": n, "y": y}, vals[i], logderivs[i])
        for i, n in enumerate(ns)
        for y, (vals, logderivs) in zip(ys, columns)
    ]


def _mu_rows_finite(args):
    p = args.p
    if p is None:
        raise ValueError("--p is required at a finite place")
    xi = MultChar(p, args.cond_xi, 1) if args.cond_xi else MultChar.trivial(p)
    oxi = MultChar(p, args.cond_oxi, 1) if args.cond_oxi else MultChar.trivial(p)
    psi = AddChar(p, args.psi_c)
    rows = []
    for n in _parse_range(args.n, integer=True):
        for y in _parse_range(args.y):
            params = FiniteParams(p, 1j * y, args.mu, xi, oxi, psi)
            row = {"place": f"p={p}", "n": n, "y": y}
            rows.append(_mu_row(row, mu_finite(params, n), mu_finite_logderiv(params, n)))
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


def _gauss_rows_p2(m_max: int) -> list[dict]:
    """Normalized Gauss sums of the primitive characters mod 2^m, 2 <= m <= m_max.

    The units mod 2^m are +-5^k with 5 of order 2^(m-2).  A character sends
    -1 to (-1)^eps and 5 to e(a / 2^(m-2)); it is primitive for odd a at
    m >= 3, and m = 2 has the single character chi4 (eps = 1, a = 0).  Its
    angles and those of psi(-u) = e(-u / 2^m) are integers over 2^m.
    """
    rows = []
    for m in range(2, m_max + 1):
        mod = 2**m
        ks = np.arange(2 ** (m - 2), dtype=np.int64)
        powers = np.array([pow(5, k, mod) for k in range(2 ** (m - 2))], dtype=np.int64)
        if m == 2:
            chars = [("chi4", 1, 0)]
        else:
            chars = [(f"eps={eps},a={a}", eps, a) for eps in (0, 1) for a in range(1, 2 ** (m - 2), 2)]
        for label, eps, a in chars:
            # u = 5^k contributes e((4 a k - u) / 2^m), u = -5^k adds eps/2 and flips the sign of u
            steps = 4 * a * ks
            nums = np.concatenate((steps - powers, mod // 2 * eps + steps + powers))
            g = root_of_unity_sum(nums, mod) / math.sqrt(mod)
            rows.append({"p": 2, "m": m, "char": label, "g_re": g.real, "g_im": g.imag, "g_abs": abs(g)})
    return rows


def cmd_gauss(args) -> int:
    p = args.p
    if p == 2 and not args.allow_p2:
        print("error: p = 2 needs --allow-p2 (two-generator unit structure)", file=sys.stderr)
        return 2
    if p != 2 and not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if p == 2:
        rows = _gauss_rows_p2(args.m_max)
    else:
        psi = AddChar(p, args.psi_c)
        rows = []
        for m in range(1, args.m_max + 1):
            for chi in MultChar.all_primitive(p, m):
                g = g_normalized(chi, psi)
                rows.append(
                    {
                        "p": p,
                        "m": m,
                        "char": f"a={chi.a}",
                        "chi_m1": chi.at_minus_one(),
                        "g_re": g.real,
                        "g_im": g.imag,
                        "g_abs": abs(g),
                    }
                )
    _emit_table(rows, args.format, args.out)
    return 0


def _emit_table(rows, fmt: str, out_path: str | None):
    if not rows:
        print("(no rows)")
        return
    if fmt == "json":
        # one row per line; any indent would send json to its pure-Python encoder
        encode = json.JSONEncoder(sort_keys=True).encode
        text = "[\n" + ",\n".join(map(encode, rows)) + "\n]\n"
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
    # argparse converts a string default only when verify parses, so a bad
    # INTERTWINE_SEED is a usage error of verify (exit 2) and not of the others
    pv.add_argument("--seed", type=int, default=os.environ.get("INTERTWINE_SEED", "0"))
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
