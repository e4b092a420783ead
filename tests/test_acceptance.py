"""Acceptance criteria, one test per criterion, each printing a verdict line.

What each criterion checks, at what size and to what tolerance lives in
`intertwine.verify`: the suites run once, at seed 0 and ACCEPTANCE_SIZES,
and each test asserts that every case CRITERIA assigns to its criterion
passes, within the criterion's time gate where it has one.  Run with -s (or
read the captured output) to see the per-criterion lines.
"""

import inspect
import json
import runpy
from pathlib import Path

import pytest

from intertwine import verify
from intertwine.cli import main
from intertwine.verify import ACCEPTANCE_SIZES, CRITERIA, SUITE_NAMES, run_suite


@pytest.fixture(scope="module")
def acceptance_run():
    """Suite name -> its report at ACCEPTANCE_SIZES and seed 0, or the error
    it raised, which then fails only the criteria that read that suite."""
    runs = {}
    for name in SUITE_NAMES:
        try:
            runs[name] = run_suite(name, seed=0, sizes=ACCEPTANCE_SIZES)
        except Exception as exc:
            runs[name] = exc
    return runs


def _reports(acceptance_run, names):
    for name in names:
        if isinstance(acceptance_run[name], Exception):
            raise acceptance_run[name]
    return [acceptance_run[name] for name in names]


def _check(number: int, acceptance_run) -> None:
    crit = CRITERIA[number]
    reports = _reports(acceptance_run, crit.suites)
    cases = [c for r in reports for c in r.cases if c.key.startswith(crit.prefixes)]
    assert cases, f"criterion {number} has no cases"
    worst = max(cases, key=lambda c: c.abs_diff / c.tol)
    ok = all(c.passed for c in cases)
    detail = f"{crit.title}, {len(cases)} cases, worst {worst.key} diff {worst.abs_diff:.2e} (tol {worst.tol:g})"
    if crit.gate_s is not None:
        elapsed = sum(r.wall_time_s for r in reports)
        ok = ok and elapsed < crit.gate_s
        detail += f", {elapsed:.1f}s (< {crit.gate_s:g}s)"
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}; failing: {[c.key for c in cases if not c.passed]}"


def test_criterion_01_axis_unitarity(acceptance_run):
    _check(1, acceptance_run)


def test_criterion_02_closed_vs_oracle(acceptance_run):
    _check(2, acceptance_run)


def test_criterion_03_harmonic_orthonormality(acceptance_run):
    _check(3, acceptance_run)


def test_criterion_04_gauss_sums(acceptance_run):
    _check(4, acceptance_run)


def test_criterion_05_padic_fourier(acceptance_run):
    _check(5, acceptance_run)


def test_criterion_06_classical_vectors(acceptance_run):
    _check(6, acceptance_run)


def test_criterion_07_derivative_bounds(acceptance_run):
    _check(7, acceptance_run)


def test_criterion_08_bessel_kernels(acceptance_run):
    _check(8, acceptance_run)


def test_criterion_09_maass_selberg(acceptance_run):
    _check(9, acceptance_run)


def test_criterion_10_global_layer(acceptance_run):
    _check(10, acceptance_run)


def test_criterion_11_classical_line(acceptance_run):
    _check(11, acceptance_run)


def test_every_case_has_exactly_one_criterion(acceptance_run):
    # no criterion can pass vacuously, and no case runs unchecked or is claimed twice
    keys = [c.key for r in _reports(acceptance_run, SUITE_NAMES) for c in r.cases]
    for number, crit in CRITERIA.items():
        for prefix in crit.prefixes:
            assert any(k.startswith(prefix) for k in keys), f"criterion {number}: no case under {prefix!r}"
    for key in keys:
        owners = [number for number, crit in CRITERIA.items() if key.startswith(crit.prefixes)]
        assert len(owners) == 1, f"{key} is under criteria {owners}"


# ---------------------------------------------------------------------------
# the bound flags can fail


def test_derivative_bound_flags_fail_under_a_negative_bound(monkeypatch):
    def failing(reports):
        return {c.key for r in reports for c in r.cases if not c.passed}

    flags = ("arch/deriv-bound-", "padic/deriv-bound/")
    assert not failing([run_suite("arch"), run_suite("padic")])
    monkeypatch.setattr(verify, "mu_arch_derivative_bound", lambda params, n: -1.0)
    monkeypatch.setattr(verify, "mu_finite_derivative_bound", lambda params, n: -1.0)
    mutated = [run_suite("arch"), run_suite("padic")]
    expected = {c.key for r in mutated for c in r.cases if c.key.startswith(flags)}
    assert {k.split("/")[0] for k in expected} == {"arch", "padic"}
    assert failing(mutated) == expected


@pytest.mark.parametrize("place", (verify.Place.REAL, verify.Place.COMPLEX, 5))
def test_height_bound_flag_fails_above_one_at_any_place(place, monkeypatch):
    height_wn = verify.gl.height_wn

    def bumped(at, x):
        return 1.0 + 1e-12 if at == place else height_wn(at, x)

    key = "global/height-bound"
    assert next(c for c in run_suite("global").cases if c.key == key).passed
    monkeypatch.setattr(verify.gl, "height_wn", bumped)
    assert not next(c for c in run_suite("global").cases if c.key == key).passed


def test_maass_selberg_cases_fail_when_the_axis_form_is_off(monkeypatch):
    # criterion 9 compares each off-axis extrapolation with the axis form;
    # an axis form off by 1e-4 must fail those cases and nothing else
    ms = CRITERIA[9].prefixes
    assert not [c.key for c in run_suite("global").failures if c.key.startswith(ms)]
    onaxis = verify.gl.maass_selberg_onaxis
    monkeypatch.setattr(verify.gl, "maass_selberg_onaxis", lambda *args, **kw: onaxis(*args, **kw) + 1e-4)
    reports = [run_suite(name) for name in SUITE_NAMES]
    failing = [c.key for r in reports for c in r.failures]
    expected = [c.key for r in reports for c in r.cases if c.key.startswith(ms)]
    assert "global/ms-selfdual-limit" in expected and len(expected) > 1
    assert failing == expected


def test_maass_selberg_modulus_defect_is_a_failing_case(monkeypatch, tmp_path, capsys):
    # the axis form refuses |mu| != 1; verify reports that as the ms-limit
    # cases failing (exit 1, report written) and not as a usage error
    mu_arch = verify.mu_arch
    monkeypatch.setattr(verify, "mu_arch", lambda *args, **kw: mu_arch(*args, **kw) * (1 + 1e-6))
    path = tmp_path / "global.json"
    assert main(["verify", "--suite", "global", "--json", str(path)]) == 1
    assert f"report written to {path}" in capsys.readouterr().out
    cases = {c["key"]: c for c in json.loads(path.read_text())["cases"]}
    assert len(cases) == len(run_suite("global").cases)
    failing = sorted(k for k, c in cases.items() if not c["pass"])
    assert failing == sorted(f"global/ms-limit/y={y}" for y, _ in verify.DEFAULT_SIZES.ms_points)
    for key in failing:
        assert cases[key]["inputs"]["check"] == "axis modulus"
        assert cases[key]["abs_diff"] == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("seed", (0, 1))
def test_default_case_counts(seed):
    # the benchmark's workloads pin these counts; read them from there
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"))
    counts = {name: len(run_suite(name, seed=seed).cases) for name in SUITE_NAMES}
    assert counts == workloads["SUITE_CASES"]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_listed_suite_tolerance_is_applied(name, monkeypatch):
    # the tolerance `verify --tolerances` lists is the one the suite's cases
    # use, so an impossible one must fail the suite
    monkeypatch.setitem(verify.SUITE_TOLERANCES, name, 1e-300)
    assert any(c.tol == 1e-300 for c in run_suite(name).failures)


def test_suites_take_no_tolerance():
    for fn in [run_suite] + [getattr(verify, f"suite_{name}") for name in SUITE_NAMES]:
        assert "tol" not in inspect.signature(fn).parameters, fn
