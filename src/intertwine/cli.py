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
eps=...,a=... in place of a=... and a chi(-1) column.  A mu table has at
most padic.MU_TABLE_MAX_ROWS (5e5) rows: the --n by --y grid is counted
before any point is built, and a larger one exits 2.
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
    MU_TABLE_MAX_ROWS,
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


def _range_bounds(text: str):
    """(start, stop, step, count) of start:stop[:step], or None for a comma
    list or a single number; every number must be finite and the step
    positive.  The count comes from the range arithmetic alone."""
    for bit in text.replace(",", ":").split(":"):
        if not math.isfinite(float(bit)):
            raise ValueError(f"expected a finite number, got {bit!r}")
    bits = text.split(":")
    if "," in text or len(bits) == 1:
        return None
    start, stop = float(bits[0]), float(bits[1])
    step = float(bits[2]) if len(bits) > 2 else 1.0
    if step <= 0:
        raise ValueError("step must be positive")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"range {text!r} has too many points to count")
    return start, stop, step, max(0, math.floor(span + 1e-9) + 1)


def _range_size(text: str) -> int:
    """The number of points of _parse_range(text), with none of them built."""
    bounds = _range_bounds(text)
    return text.count(",") + 1 if bounds is None else bounds[3]


def _parse_range(text: str, integer: bool = False):
    """start:stop[:step] (inclusive stop) or a comma list of finite numbers.

    Point k of a range is start + k * step, so no rounding accumulates along
    the grid; a last point within rounding of stop is stop itself.
    """
    bounds = _range_bounds(text)
    if bounds is None:
        vals = [float(v) for v in text.split(",")]
    else:
        start, stop, step, count = bounds
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


def _mu_columns(lead: dict, ns: list[int], ys: list[float], vals: np.ndarray, dvals: np.ndarray) -> dict[str, list]:
    """The columns of a mu table, rows in n-major order: the constant
    columns lead, then n, y, and mu and its derivative mu' from flat complex
    arrays in row order."""
    rows = len(ns) * len(ys)
    cols = {name: [value] * rows for name, value in lead.items()}
    cols["n"] = [n for n in ns for _ in ys]
    cols["y"] = ys * len(ns)
    for name, v in (("mu", vals), ("mu_prime", dvals)):
        cols[f"{name}_re"] = v.real.tolist()
        cols[f"{name}_im"] = v.imag.tolist()
        # Python's complex abs, which np.abs does not match to the bit
        cols[f"{name}_abs"] = list(map(abs, v.tolist()))
    return cols


def _mu_columns_arch(args, place: Place):
    # the whole table in one closed-form call and one log-derivative call, a
    # column of weights per y point (so that a RangeError names the first y
    # whose column fails); mu' = mu * (log mu)' as in mu_arch_derivative
    ns = _parse_range(args.n, integer=True)
    ys = _parse_range(args.y)
    s, n = 1j * np.repeat(ys, len(ns)), np.tile(ns, len(ys))
    vals = mu_arch(place, s, args.mu, args.n0, n)
    dvals = vals * mu_arch_logderiv(place, s, args.mu, args.n0, n)
    vals, dvals = (v.reshape(len(ys), len(ns)).T.ravel() for v in (vals, dvals))
    return _mu_columns({"place": place.value, "n0": args.n0}, ns, ys, vals, dvals)


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


def _mu_columns_finite(args):
    p = args.p
    if p is None:
        raise ValueError("--p is required at a finite place")
    xi, oxi = _finite_char(p, args.cond_xi), _finite_char(p, args.cond_oxi)
    psi = AddChar(p, args.psi_c)
    ns, ys = _parse_range(args.n, integer=True), _parse_range(args.y)
    vals, dvals = [], []
    for n in ns:
        for y in ys:
            params = FiniteParams(p, 1j * y, args.mu, xi, oxi, psi)
            val = mu_finite(params, n)
            vals.append(val)
            dvals.append(val * mu_finite_logderiv(params, n))
    return _mu_columns({"place": f"p={p}"}, ns, ys, np.array(vals, complex), np.array(dvals, complex))


def cmd_mu(args) -> int:
    # the grid's size bounds the work, so it is checked before any list of
    # points is built
    rows = _range_size(args.n) * _range_size(args.y)
    if rows > MU_TABLE_MAX_ROWS:
        raise RangeError(f"a mu table of {rows:.3g} rows is beyond the budget of {MU_TABLE_MAX_ROWS:.0e}")
    if args.place == "finite":
        cols = _mu_columns_finite(args)
    else:
        cols = _mu_columns_arch(args, Place(args.place))
    _emit_table(cols, args.format, args.out)
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
    ms, labels, signs, gs = [], [], [], []
    for m in range(1, args.m_max + 1):
        sums = gauss_sums(p, m, psi)
        ms += [m] * len(sums)
        gs += sums.values()
        if p == 2:
            # chi(-1) = (-1)^eps is in the label
            labels += ["chi4" if m == 2 else f"eps={chi.eps},a={chi.a}" for chi in sums]
        else:
            labels += [f"a={chi.a}" for chi in sums]
            signs += [chi.at_minus_one() for chi in sums]
    cols = {"p": [p] * len(gs), "m": ms, "char": labels}
    if p != 2:
        cols["chi_m1"] = signs
    cols.update(g_re=[g.real for g in gs], g_im=[g.imag for g in gs], g_abs=list(map(abs, gs)))
    _emit_table(cols, args.format, args.out)
    return 0


def _json_column(values: list) -> list[str]:
    """The JSON text of each value, from one encoder call on the whole list;
    a value whose text holds ", " (a string, say) spoils the split, and then
    the column is encoded value by value."""
    texts = compact_json(values)[1:-1].split(", ")
    return texts if len(texts) == len(values) else [compact_json(v) for v in values]


def _emit_table(cols: dict[str, list], fmt: str, out_path: str | None):
    """Write a table given as columns of equal length, in column order for
    CSV and as one compact sorted-key JSON object per row for JSON (each
    line is json.dumps(row, sort_keys=True), from one encoder call per
    column)."""
    names = list(cols)
    if not names or not cols[names[0]]:
        print("(no rows)")
        return
    if fmt == "json":
        keys = sorted(names)
        template = "{" + ", ".join(compact_json(k) + ": %s" for k in keys) + "}"
        text = json_list([template % vals for vals in zip(*(_json_column(cols[k]) for k in keys))]) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*([_fmt(v) if isinstance(v, float) else v for v in cols[c]] for c in names)))
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
