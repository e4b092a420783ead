import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import intertwine.arch
import intertwine.cli
import intertwine.numerics
import intertwine.padic
from intertwine.arch import Place, mu_arch_derivative
from intertwine.cli import main
from intertwine.padic import AddChar, FiniteParams, MultChar, mu_finite_derivative
from intertwine.verify import SUITE_NAMES, run_suite

SRC = os.path.dirname(os.path.dirname(os.path.abspath(intertwine.cli.__file__)))


def test_verify_suite_exit_zero(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--suite", "harmonics", "--seed", "7", "--json", str(path)])
    assert code == 0
    body = json.loads(path.read_text())
    assert body["suite"] == "harmonics"
    assert body["pass"] is True
    assert body["wall_time_s"] is None
    assert all(set(c) >= {"key", "inputs", "closed_form", "oracle", "abs_diff", "tol", "pass"} for c in body["cases"])


def test_verify_report_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "classical", "--seed", "11", "--json", str(p1)]) == 0
    assert main(["verify", "--suite", "classical", "--seed", "11", "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_bad_suite_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("INTERTWINE_SEED", "23")
    path = tmp_path / "r.json"
    assert main(["verify", "--suite", "classical", "--json", str(path)]) == 0
    assert json.loads(path.read_text())["seed"] == 23


def test_malformed_seed_env_is_a_verify_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("INTERTWINE_SEED", "abc")
    # the other subcommands never read the variable
    assert main(["gauss", "--p", "3", "--m-max", "1"]) == 0
    capsys.readouterr()
    for argv in (["verify", "--tolerances"], ["verify", "--suite", "global"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
    # an explicit --seed overrides the bad variable
    assert main(["verify", "--tolerances", "--seed", "3"]) == 0


def test_one_process_reads_the_seed_variable_on_every_call(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; each call still honours the
    # INTERTWINE_SEED it runs under
    for seed in ("31", "32"):
        monkeypatch.setenv("INTERTWINE_SEED", seed)
        path = tmp_path / f"r{seed}.json"
        assert main(["verify", "--suite", "global", "--json", str(path)]) == 0
        assert json.loads(path.read_text())["seed"] == int(seed)
    monkeypatch.setenv("INTERTWINE_SEED", "3x")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "global"])
    assert exc.value.code == 2
    assert intertwine.cli._main_parser() is intertwine.cli._main_parser()
    assert intertwine.cli.build_parser() is not intertwine.cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    (
        ["verify", "--suite", "global", "--seed", "0", "--json"],
        ["mu", "--place", "complex", "--n", "0:2:2", "--y", "0", "--out"],
        ["mu", "--place", "real", "--n", "0:2:2", "--y", "0", "--format", "json", "--out"],
        ["gauss", "--p", "3", "--m-max", "1", "--out"],
    ),
)
def test_unwritable_output_path_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


def test_tolerances_listing(capsys):
    assert main(["verify", "--tolerances"]) == 0
    out = capsys.readouterr().out
    assert "harmonics" in out and "1.0e-06" in out


@pytest.mark.parametrize("extra", (["--tolerance", "1e-30"], ["--tolerance"], ["--tol"]))
def test_verify_has_no_tolerance_override(capsys, extra):
    # neither a value nor an abbreviation of --tolerances gets through
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "global"] + extra)
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--tolerance " not in capsys.readouterr().out


def test_verify_all_merges_the_single_suite_reports(tmp_path):
    merged_path = tmp_path / "all.json"
    assert main(["verify", "--suite", "all", "--seed", "2", "--json", str(merged_path)]) == 0
    merged = json.loads(merged_path.read_text())
    singles = []
    for name in SUITE_NAMES:
        path = tmp_path / f"{name}.json"
        assert main(["verify", "--suite", name, "--seed", "2", "--json", str(path)]) == 0
        singles.append(json.loads(path.read_text()))
    assert merged == {"suite": "all", "seed": 2, "pass": True, "reports": singles}


def test_verify_report_layout(tmp_path):
    # one compact case per line; each file decodes to the old indented dump
    single, merged = tmp_path / "one.json", tmp_path / "all.json"
    assert main(["verify", "--suite", "classical", "--seed", "3", "--json", str(single)]) == 0
    assert main(["verify", "--suite", "all", "--seed", "3", "--json", str(merged)]) == 0
    reports = [run_suite(name, seed=3).as_dict() for name in SUITE_NAMES]
    one = reports[SUITE_NAMES.index("classical")]
    for path, expected, parts in (
        (single, one, [one]),
        (merged, {"suite": "all", "seed": 3, "pass": True, "reports": reports}, reports),
    ):
        text = path.read_text()
        assert json.loads(text) == json.loads(json.dumps(expected, indent=1, sort_keys=True))
        lines = text.splitlines()
        cases = [json.dumps(c, sort_keys=True) for r in parts for c in r["cases"]]
        assert [line.rstrip(",") for line in lines if line.startswith('{"abs_diff"')] == cases
        # each report adds its `{"cases": [` and `], ...}` lines, a merged file its own two
        assert len(lines) == len(cases) + 2 * len(parts) + (2 if len(parts) > 1 else 0)
        assert text.endswith("}\n")


def test_mu_table_complex(capsys):
    code = main(["mu", "--place", "complex", "--n0", "0", "--n", "0:4:2", "--y", "0:1:1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("place,")
    assert len(out) == 1 + 3 * 2
    # the modulus column is identically one on the axis
    for line in out[1:]:
        assert abs(float(line.split(",")[6]) - 1.0) < 1e-9


def test_mu_table_finite(capsys):
    code = main(["mu", "--place", "finite", "--p", "5", "--n", "0:2", "--y", "0.5", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    for row in rows:
        assert abs(row["mu_abs"] - 1.0) < 1e-9


ARCH_TABLES = (
    ("complex", ["--n0", "1", "--n", "1:9:2"]),
    ("real", ["--n0", "1", "--n=-9:9:2"]),
)


def _mu_rows(capsys, place: str, extra: list[str]) -> list[dict]:
    assert main(["mu", "--place", place, *extra, "--mu", "0.3", "--y=-1:1:0.5", "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("place,extra", ARCH_TABLES)
def test_mu_table_arch_derivative_is_exact_half(capsys, place, extra):
    # the derivative column is mu * (log mu)', bit for bit the exact half of mu_arch_derivative
    rows = _mu_rows(capsys, place, extra)
    assert len(rows) == (5 if place == "complex" else 10) * 5
    for r in rows:
        exact, _ = mu_arch_derivative(Place(place), 1j * r["y"], 0.3, r["n0"], r["n"])
        assert complex(r["mu_prime_re"], r["mu_prime_im"]) == exact


def test_mu_table_finite_derivative_is_exact(capsys):
    for cond_xi, cond_oxi, levels in ((0, 0, "0:3"), (1, 0, "1:3"), (1, 2, "3:5")):
        extra = ["--p", "7", "--cond-xi", str(cond_xi), "--cond-oxi", str(cond_oxi), "--psi-c", "1", "--n", levels]
        rows = _mu_rows(capsys, "finite", extra)
        xi = MultChar(7, cond_xi, 1) if cond_xi else MultChar.trivial(7)
        oxi = MultChar(7, cond_oxi, 1) if cond_oxi else MultChar.trivial(7)
        for r in rows:
            prm = FiniteParams(7, 1j * r["y"], 0.3, xi, oxi, AddChar(7, 1))
            assert complex(r["mu_prime_re"], r["mu_prime_im"]) == mu_finite_derivative(prm, r["n"])


def _count_calls(monkeypatch, fn_name: str, modules) -> list:
    # one counter behind the name in every module that calls it, so that a
    # derivative helper re-evaluating the closed form is counted too; a
    # module that does not hold the name today gets the counter all the same
    calls = []
    real = getattr(modules[0], fn_name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, fn_name, counted, raising=False)
    return calls


@pytest.mark.parametrize("place,extra", ARCH_TABLES)
def test_mu_table_takes_one_gamma_call_per_table(capsys, monkeypatch, place, extra):
    # every gamma factor of the table, four per row, in one array call
    calls = _count_calls(monkeypatch, "gamma_factor", [intertwine.numerics, intertwine.arch, intertwine.cli])
    rows = _mu_rows(capsys, place, extra)
    assert len({r["y"] for r in rows}) == 5
    assert len(calls) == 1
    assert calls[0][1].shape == (4 * len(rows),)


def test_mu_table_evaluates_each_finite_row_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "mu_finite", [intertwine.padic, intertwine.cli])
    rows = _mu_rows(capsys, "finite", ["--p", "5", "--cond-xi", "1", "--n", "1:4"])
    assert len(calls) == len(rows) == 4 * 5


def test_mu_table_finite_at_two_matches_the_oracle(capsys):
    # conductor 2^2 is chi4 (eps = 1, a = 0), 2^3 the exponent a = 1
    tr, chi4 = MultChar.trivial(2), MultChar(2, 2, 0, 1)
    for cond_xi, cond_oxi, xi, oxi in ((2, 0, chi4, tr), (0, 2, tr, chi4), (2, 3, chi4, MultChar(2, 3, 1))):
        extra = ["--p", "2", "--cond-xi", str(cond_xi), "--cond-oxi", str(cond_oxi), "--n", f"{cond_xi + cond_oxi}:6"]
        rows = _mu_rows(capsys, "finite", extra)
        assert len(rows) == (7 - cond_xi - cond_oxi) * 5
        for r in rows:
            prm = FiniteParams(2, 1j * r["y"], 0.3, xi, oxi, AddChar(2, 0))
            assert abs(complex(r["mu_re"], r["mu_im"]) - intertwine.padic.mu_finite_oracle(prm, r["n"])) < 1e-12


@pytest.mark.parametrize("cond", ["--cond-xi", "--cond-oxi"])
def test_mu_table_finite_at_two_has_no_conductor_two(capsys, cond):
    assert main(["mu", "--place", "finite", "--p", "2", cond, "1", "--n", "3:4", "--y", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no primitive character of conductor 2 exists at p = 2\n"
    assert captured.out == ""


def test_mu_parity_violation_exit_two(capsys):
    assert main(["mu", "--place", "real", "--n0", "0", "--n", "1:1", "--y", "0"]) == 2


def test_mu_finite_requires_prime(capsys):
    assert main(["mu", "--place", "finite", "--n", "0:1", "--y", "0"]) == 2


def test_gauss_table(capsys):
    code = main(["gauss", "--p", "5", "--m-max", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3  # three ramified characters mod 5
    for line in lines[1:]:
        assert abs(float(line.split(",")[-1]) - 1.0) < 1e-9


def test_gauss_two_conductors(capsys):
    code = main(["gauss", "--p", "3", "--m-max", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ms = [int(line.split(",")[1]) for line in lines[1:]]
    assert set(ms) == {1, 2}


def test_gauss_p2_gate(capsys):
    assert main(["gauss", "--p", "2"]) == 2
    assert main(["gauss", "--p", "2", "--allow-p2", "--m-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = [line for line in lines if line[0].isdigit()]
    for line in data:
        assert abs(float(line.split(",")[-1]) - 1.0) < 1e-9


def _gauss_p2_product_formula(m: int) -> dict[str, complex]:
    """Normalized Gauss sums mod 2^m as sums of chi(y) e(-y / 2^m) over odd y,
    with chi(+-5^k) = e(eps [sign] / 2 + a k / 2^(m-2)) built from a table."""
    mod, order5 = 2**m, 2 ** (m - 2)
    if m == 2:
        chars = {"chi4": lambda u: 1.0 if u % 4 == 1 else -1.0}
    else:
        decomp = {}
        for k in range(order5):
            decomp[pow(5, k, mod)] = (0, k)
            decomp[-pow(5, k, mod) % mod] = (1, k)

        def build(eps, a):
            return lambda u: cmath.exp(2j * math.pi * (eps * decomp[u][0] / 2 + a * decomp[u][1] / order5))

        chars = {f"eps={eps},a={a}": build(eps, a) for eps in (0, 1) for a in range(1, order5, 2)}
    return {
        label: sum(chi(y) * cmath.exp(-2j * math.pi * y / mod) for y in range(1, mod, 2)) / math.sqrt(mod)
        for label, chi in chars.items()
    }


def _gauss_p2_rows(capsys, m_max: int) -> list[dict]:
    assert main(["gauss", "--p", "2", "--allow-p2", "--m-max", str(m_max), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_gauss_p2_matches_product_formula(capsys):
    rows = _gauss_p2_rows(capsys, 6)
    for m in range(2, 7):
        expected = _gauss_p2_product_formula(m)
        got = {r["char"]: complex(r["g_re"], r["g_im"]) for r in rows if r["m"] == m}
        assert list(got) == list(expected)
        for label, g in got.items():
            assert abs(g - expected[label]) < 1e-13


def test_gauss_p2_numerators_match_loop(capsys):
    # the numpy numerators are the integers the per-term loop builds, so every row is bit-identical;
    # each sum is scaled as gauss_sums scales it at every prime, by p^-m C(psi)^(-1/2) and then by
    # (p^m C(psi))^(1/2), which is g_normalized's grouping
    rows = _gauss_p2_rows(capsys, 8)
    for r in rows:
        m = r["m"]
        mod = 2**m
        eps, a = (1, 0) if r["char"] == "chi4" else (int(part.split("=")[1]) for part in r["char"].split(","))
        powers = [pow(5, k, mod) for k in range(2 ** (m - 2))]
        nums = [4 * a * k - x for k, x in enumerate(powers)]
        nums += [mod // 2 * eps + 4 * a * k + x for k, x in enumerate(powers)]
        g = intertwine.padic.root_of_unity_sum(nums, mod) * 2.0**-m * math.sqrt(mod)
        assert complex(r["g_re"], r["g_im"]) == g


def test_gauss_p2_modulus_and_conjugation(capsys):
    rows = _gauss_p2_rows(capsys, 10)
    assert len(rows) == 1 + sum(2 ** (m - 2) for m in range(3, 11))
    table = {(r["m"], r["char"]): complex(r["g_re"], r["g_im"]) for r in rows}
    for (m, label), g in table.items():
        assert abs(abs(g) - 1.0) < 1e-12
        if label == "chi4":
            inverse, sign = label, -1.0
        else:
            eps, a = (int(part.split("=")[1]) for part in label.split(","))
            inverse, sign = f"eps={eps},a={2 ** (m - 2) - a}", (-1.0 if eps else 1.0)
        assert abs(table[(m, inverse)] - sign * g.conjugate()) < 1e-12


def _count_kernel_numerators(monkeypatch) -> list[int]:
    """Wrap the kernel so that each piece it asks its caller for records how
    many numerators it holds."""
    sizes = []
    kernel = intertwine.padic._root_sums

    def counted(shape, block, den, **kwargs):
        def recorded(rows, cols):
            k = block(rows, cols)
            sizes.append(k.size)
            return k

        return kernel(shape, recorded, den, **kwargs)

    monkeypatch.setattr(intertwine.padic, "_root_sums", counted)
    return sizes


@pytest.mark.parametrize(
    "argv, shapes",
    [
        # (characters, units) of each conductor
        (["--p", "7", "--m-max", "3"], [(5, 6), (36, 42), (252, 294)]),
        (["--p", "2", "--allow-p2", "--m-max", "10"], [(1, 2)] + [(2 ** (m - 2), 2 ** (m - 1)) for m in range(3, 11)]),
    ],
)
def test_gauss_kernel_calls_stay_within_one_block(monkeypatch, capsys, argv, shapes):
    sizes = _count_kernel_numerators(monkeypatch)
    assert main(["gauss", *argv, "--format", "json"]) == 0
    capsys.readouterr()
    # one pass per conductor, or as few as keep each within _SUM_BLOCK numerators
    block = intertwine.padic._SUM_BLOCK
    assert len(sizes) == sum(math.ceil(rows / (block // n)) for rows, n in shapes)
    assert sum(sizes) == sum(rows * n for rows, n in shapes)
    assert max(sizes) <= block


def test_kernel_splits_a_long_row_into_blocks(monkeypatch):
    # a row longer than _SUM_BLOCK goes alone, in pieces of _SUM_BLOCK columns
    sizes = _count_kernel_numerators(monkeypatch)
    block = intertwine.padic._SUM_BLOCK
    intertwine.padic.root_of_unity_sum(range(2 * block + 5), 12)
    assert sizes == [block, block, 5]
    sizes.clear()
    # the 50 421 pairs of units {y, -y} mod 7^6 of a deep trivial shell
    intertwine.padic._unit_sums(7, 0, [MultChar.trivial(7)], 6, 1)
    n = 3 * 7**5
    assert sizes == [block] * (n // block) + [n % block]


def test_gauss_beyond_kernel_exits_two_before_any_row(monkeypatch, capsys):
    def never(*args):
        pytest.fail("a row was computed before the domain check")

    monkeypatch.setattr(MultChar, "all_primitive", classmethod(never))
    assert main(["gauss", "--p", "7", "--m-max", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_gauss_p2_beyond_kernel_exits_two_before_any_row(monkeypatch, capsys):
    # 4^m < 2^63 holds up to m = 31; m = 32 would wrap the int64 numerators
    def never(*args):
        pytest.fail("a p = 2 row was computed before the domain check")

    monkeypatch.setattr(intertwine.cli, "gauss_sums", never)
    assert main(["gauss", "--p", "2", "--allow-p2", "--m-max", "32"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_gauss_beyond_the_work_budget_exits_two_before_any_row(monkeypatch, capsys):
    # inside the int64 domain, but about 1.8e11 terms at p = 2 up to m = 20
    # and 8.9e9 at p = 7 up to m = 6
    def never(*args):
        pytest.fail("a row was computed before the work check")

    monkeypatch.setattr(intertwine.cli, "gauss_sums", never)
    for argv in (["--p", "2", "--allow-p2", "--m-max", "20"], ["--p", "7", "--m-max", "6"]):
        assert main(["gauss", *argv]) == 2
        captured = capsys.readouterr()
        assert "beyond the budget" in captured.err and captured.out == ""
    # the benchmark's tables stay far below the budget
    for p, m_max in ((5, 3), (7, 3), (101, 1), (2, 10)):
        intertwine.padic.check_gauss_work(p, m_max)


def test_gauss_work_check_exits_within_its_timeout():
    # a fresh interpreter, as CI runs it: a table past the budget must exit
    # 2 at once and not start on its smaller conductors
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "intertwine.cli", "gauss", "--p", "2", "--allow-p2", "--m-max", "20"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("error:")


def test_gauss_bad_prime_exit_two(capsys):
    for p in ("4", "9"):
        assert main(["gauss", "--p", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_gauss_bad_prime_empty_range_exit_two(capsys):
    # the prime is checked before any row is built
    assert main(["gauss", "--p", "4", "--m-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_mu_gamma_overflow_exit_two(capsys):
    for argv in (["--n", "10", "--y", "400"], ["--n", "400", "--y", "1"]):
        assert main(["mu", "--place", "complex"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"y = {argv[3]}" in err and f"n = {argv[1]}" in err


@pytest.mark.parametrize("place,n", [("real", 400), ("complex", 300)])
def test_mu_overflow_on_the_array_path_exits_two_without_a_warning(capsys, place, n):
    # the first weight whose gamma ratio leaves float range is named; the
    # inf and nan it leaves in the batch raise no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["mu", "--place", place, "--y", "1", "--n", f"{n}:{n + 2}:2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: mu_arch: gamma ratio leaves float range at y = 1, n = {n}\n"


def test_gauss_p2_csv_quotes_labels(capsys):
    assert main(["gauss", "--p", "2", "--allow-p2", "--m-max", "4"]) == 0
    text = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    assert reader.fieldnames == ["p", "m", "char", "g_re", "g_im", "g_abs"]
    assert len(rows) == 1 + 2 + 4
    assert all(None not in row and len(row) == 6 for row in rows)
    assert rows[1]["char"] == "eps=0,a=1"


def test_mu_csv_is_plain_comma_join(capsys):
    # no mu field needs quoting, so the CSV is the plain comma join of the
    # JSON rows with floats at 17 significant digits
    argv = ["mu", "--place", "finite", "--p", "5", "--cond-xi", "1", "--n", "1:3", "--y", "0:1:0.5"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    cols = ["place", "n", "y", "mu_re", "mu_im", "mu_abs", "mu_prime_re", "mu_prime_im", "mu_prime_abs"]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(format(r[c], ".17g") if isinstance(r[c], float) else str(r[c]) for c in cols))
    assert text == "\n".join(lines) + "\n"


def test_range_points_are_exact_multiples_of_the_step():
    ys = intertwine.cli._parse_range("-5:5:0.1")
    assert len(ys) == 101
    assert ys[50] == 0.0
    assert ys[-1] == 5.0
    assert intertwine.cli._parse_range("0:0.3:0.1")[-1] == 0.3
    assert intertwine.cli._parse_range("0:1:0.3") == [0.0, 0.3, 0.6, 0.3 * 3]
    assert intertwine.cli._parse_range("0:40:2", integer=True) == list(range(0, 41, 2))
    assert intertwine.cli._parse_range("5:4") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--place", "complex", "--n", "0:2:2", "--y", "0:inf:1"],
        ["--place", "complex", "--n", "0:2:2", "--y", "nan"],
        ["--place", "complex", "--n", "0", "--y", "0", "--mu", "inf"],
        ["--place", "real", "--n", "0", "--y", "0,-inf"],
        ["--place", "finite", "--p", "5", "--n", "0", "--y", "nan"],
        ["--place", "finite", "--p", "5", "--n", "0", "--y", "0", "--mu", "nan"],
        ["--place", "finite", "--p", "5", "--n", "nan:2", "--y", "0"],
    ],
)
def test_mu_non_finite_input_exit_two(capsys, argv):
    assert main(["mu"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "finite" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_range_rejects_non_finite_values():
    for text, bad in (("0:inf:1", "'inf'"), ("-inf:0", "'-inf'"), ("0:1:nan", "'nan'"), ("1,nan", "'nan'"), ("inf", "'inf'")):
        with pytest.raises(ValueError, match=bad):
            intertwine.cli._parse_range(text)


def test_mu_table_grid_hits_its_labels(capsys):
    assert main(["mu", "--place", "complex", "--n0", "0", "--n", "0", "--y=-5:5:0.1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["y"] for r in rows][50::50] == [0.0, 5.0]


JSON_TABLES = (
    ["mu", "--place", "complex", "--n0", "1", "--n", "1:7:2", "--mu", "0.3", "--y=-1:1:0.5"],
    ["mu", "--place", "real", "--n0", "0", "--n=-6:6:2", "--mu", "-0.8", "--y=0:1:0.25"],
    ["mu", "--place", "finite", "--p", "7", "--cond-xi", "1", "--psi-c", "1", "--n", "1:3", "--y=0:1:0.5"],
    ["gauss", "--p", "5", "--m-max", "2", "--psi-c", "1"],
    ["gauss", "--p", "2", "--allow-p2", "--m-max", "5"],
)


@pytest.mark.parametrize("argv", JSON_TABLES, ids=lambda a: "-".join(a[:3]))
def test_json_table_layout(capsys, monkeypatch, tmp_path, argv):
    # capture the rows handed to the emitter, to compare with the old indented dump
    emitted = []
    real_emit = intertwine.cli._emit_table

    def capture(cols, fmt, out_path):
        emitted.append([dict(zip(cols, vals)) for vals in zip(*cols.values())])
        return real_emit(cols, fmt, out_path)

    monkeypatch.setattr(intertwine.cli, "_emit_table", capture)
    assert main(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "table.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"table written to {out}\n"
    assert out.read_text() == text

    rows = emitted[0]
    lines = text.split("\n")
    assert lines[0] == "[" and lines[-2:] == ["]", ""]
    body = lines[1:-2]
    assert len(body) == len(rows) > 1
    assert all(line.endswith(",") for line in body[:-1]) and not body[-1].endswith(",")
    for line, row in zip(body, rows):
        assert line.rstrip(",") == json.dumps(row, sort_keys=True)
    parsed = json.loads(text)
    assert parsed == json.loads(json.dumps(rows, indent=1, sort_keys=True))
    # every float is written as its repr, so it reads back bit for bit
    floats = [(i, k, v) for i, r in enumerate(rows) for k, v in r.items() if isinstance(v, float)]
    assert floats
    for i, k, v in floats:
        assert f'"{k}": {v!r}' in body[i]
        assert parsed[i][k] == v and math.copysign(1.0, parsed[i][k]) == math.copysign(1.0, v)


EMIT_TABLES = (
    # a string column whose values hold ", " and '"' takes the value-by-value
    # fallback; the other columns go through one encoder call each
    {
        "label": ["eps=0,a=1", 'a "quoted", label', "a, b", ""],
        "x": [math.nan, math.inf, -math.inf, -0.0],
        "k": [3, -7, 0, 2**70],
        "flag": [True, False, True, False],
        "y": [0.1, 1e-300, 5.0, 1 / 3],
    },
    {"z": [1.5], "a": ["a=1"], "n": [0]},
    {"b": [], "a": []},
    {},
)


@pytest.mark.parametrize("cols", EMIT_TABLES, ids=("mixed", "one-row", "empty-columns", "no-columns"))
def test_emit_table_writes_each_row_as_the_row_encoders_do(capsys, tmp_path, cols):
    rows = [dict(zip(cols, vals)) for vals in zip(*cols.values())]
    intertwine.cli._emit_table(cols, "json", None)
    text = capsys.readouterr().out
    intertwine.cli._emit_table(cols, "csv", None)
    csv_text = capsys.readouterr().out
    # with an out path, a table without rows still replaces a stale file
    written = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"table.{fmt}"
        out.write_text("a stale table\n")
        intertwine.cli._emit_table(cols, fmt, str(out))
        assert capsys.readouterr().out == f"table written to {out}\n"
        written[fmt] = out.read_text()
    if not rows:
        assert text == csv_text == "(no rows)\n"
        assert written == {"json": "[]\n", "csv": ",".join(cols) + "\n"}
        return
    assert written == {"json": text, "csv": csv_text}
    assert text == "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(cols))
    writer.writerows([intertwine.cli._fmt(v) if isinstance(v, float) else v for v in r.values()] for r in rows)
    assert csv_text == buf.getvalue()


def test_json_column_falls_back_only_when_a_value_splits():
    assert intertwine.cli._json_column([1.0, "a,b", True]) == ["1.0", '"a,b"', "true"]
    assert intertwine.cli._json_column(["a, b", 'c", "d']) == ['"a, b"', '"c\\", \\"d"']


def test_mu_row_budget_is_checked_before_any_point_is_built(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a point list was built")

    monkeypatch.setattr(intertwine.cli, "_parse_range", no_grid)
    for argv in (["--place", "real", "--n", "0", "--y", "0:1e10:1"],
                 ["--place", "complex", "--n", "0:2e6:2", "--y", "0:1:0.5"],
                 ["--place", "finite", "--p", "5", "--n", "0:999", "--y", "0:999"]):
        assert main(["mu", *argv]) == 2
        captured = capsys.readouterr()
        assert "beyond the budget" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


def test_mu_row_budget_admits_a_table_at_the_budget(capsys, monkeypatch):
    monkeypatch.setattr(intertwine.cli, "MU_TABLE_MAX_ROWS", 6)
    assert main(["mu", "--place", "complex", "--n", "0:4:2", "--y", "0,1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    assert main(["mu", "--place", "complex", "--n", "0:4:2", "--y", "0:1:0.5"]) == 2
    assert capsys.readouterr().err == "error: a mu table of 9 rows is beyond the budget of 6e+00\n"


def test_range_size_counts_the_points_of_the_range():
    for text in ("-5:5:0.1", "0:0.3:0.1", "0:1:0.3", "0:40:2", "5:4", "2", "1,2.5,3", "0:1"):
        assert intertwine.cli._range_size(text) == len(intertwine.cli._parse_range(text))
    assert intertwine.cli._range_size("0:1e10:1") == 10**10 + 1
    with pytest.raises(ValueError, match="too many points"):
        intertwine.cli._range_size("-1e308:1e308:1e-300")
