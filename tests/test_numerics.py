import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intertwine.numerics as numerics
from intertwine.errors import PoleError, ToleranceNotMet
from intertwine.verify import _AXIS_SIGMAS
from intertwine.numerics import (
    GammaKind,
    bessel_k,
    bessel_k_alt,
    complex_gamma,
    gamma_factor,
    kernel_ka,
    kernel_ka_quad,
    limit_at_zero,
    quad_halfline,
    quad_realline,
    radial_gaussian_moment,
)

# an overflow or invalid operation inside an integrand, a stacked one
# included, fails the test instead of passing with a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_lanczos_reference_points():
    assert abs(complex_gamma(1.0) - 1.0) < 1e-13
    assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-13
    assert abs(complex_gamma(5.0) - 24.0) < 1e-11
    # |Gamma(iy)|^2 = pi / (y sinh(pi y))
    y = 1.3
    lhs = abs(complex_gamma(1j * y)) ** 2
    assert abs(lhs - math.pi / (y * math.sinh(math.pi * y))) < 1e-13


def test_gamma_factor_values():
    assert abs(gamma_factor(GammaKind.COMPLEX, 1.0) - 1 / math.pi) < 1e-14
    assert abs(gamma_factor(GammaKind.REAL, 2.0) - 1 / math.pi) < 1e-14
    assert abs(gamma_factor(GammaKind.COMPLEX, 2.0) - 1 / (2 * math.pi**2)) < 1e-14


def test_gamma_factor_matches_radial_quadrature():
    # the normalization assertion: closed form against the defining integral
    for z in (2.0, 4.0, 6.0, 3.0 + 1.4j):
        closed = gamma_factor(GammaKind.COMPLEX, z / 2)
        quad = radial_gaussian_moment(GammaKind.COMPLEX, z)
        assert abs(closed - quad) < 1e-10
        closed_r = gamma_factor(GammaKind.REAL, z)
        quad_r = radial_gaussian_moment(GammaKind.REAL, z)
        assert abs(closed_r - quad_r) < 1e-10


def test_gamma_recursion():
    for s in (0.7, 1.3 + 0.9j, 2.5 - 1.1j):
        lhs = gamma_factor(GammaKind.COMPLEX, s + 1)
        rhs = s / (2 * math.pi) * gamma_factor(GammaKind.COMPLEX, s)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_gamma_poles_rejected():
    with pytest.raises(PoleError):
        gamma_factor(GammaKind.COMPLEX, 0.0)
    with pytest.raises(PoleError):
        gamma_factor(GammaKind.COMPLEX, -3.0)
    with pytest.raises(PoleError):
        gamma_factor(GammaKind.REAL, -2.0)
    # off-pole points nearby are fine
    gamma_factor(GammaKind.REAL, -2.0 + 0.01j)


def test_gamma_poles_rejected_on_the_array_path():
    # one pole in a batch raises PoleError naming it, with no RuntimeWarning
    # from the elements around it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match=r"Gamma_R pole at s = \(-2\+0j\)"):
            gamma_factor(GammaKind.REAL, np.array([3.0 + 1j, -2.0, 700.0, -1.5 + 400j]))
        with pytest.raises(PoleError, match=r"Gamma_C pole at s = \(-3\+0j\)"):
            gamma_factor(GammaKind.COMPLEX, np.array([0.5, -3.0, 0.0, 250.0 - 3j]))
        with pytest.raises(PoleError):
            complex_gamma(np.array([1.5, 0.0]))
        # near a pole but off it, and far outside float range, nothing raises
        vals = gamma_factor(GammaKind.REAL, np.array([-2.0 + 0.01j, 1.0, 800.0, -1.5 + 900j]))
    assert np.isfinite(vals[:2]).all() and not np.isfinite(vals[2])


# gamma_factor's box and its measured bounds (see its docstring): relative
# error against mpmath, and the distance of an array element from the
# scalar value, each about 1.5 times the worst seen
GAMMA_BOX = ((-0.25, 42.0), (-50.0, 50.0))
GAMMA_REL_ERR = 3.2e-13
GAMMA_ARRAY_DEV = 7e-14
gamma_box_points = st.tuples(st.floats(*GAMMA_BOX[0]), st.floats(*GAMMA_BOX[1])).map(lambda p: complex(*p)).filter(
    lambda z: abs(z) > 1e-6  # the pole at 0 of both kinds
)


@settings(max_examples=60, deadline=None)
@given(st.lists(gamma_box_points, min_size=1, max_size=40), st.sampled_from(list(GammaKind)))
def test_gamma_array_matches_elementwise_scalars(points, kind):
    arr = gamma_factor(kind, np.array(points))
    assert arr.shape == (len(points),) and arr.dtype == complex
    for z, a in zip(points, arr):
        scalar = gamma_factor(kind, z)
        assert type(scalar) is complex
        assert abs(a - scalar) <= GAMMA_ARRAY_DEV * abs(scalar)


def test_gamma_factor_against_mpmath_on_its_box():
    mpmath = pytest.importorskip("mpmath")

    def reference(kind, s):
        z = mpmath.mpc(s.real, s.imag)
        if kind is GammaKind.REAL:
            return complex(mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2))
        return complex(2 * (2 * mpmath.pi) ** (-z) * mpmath.gamma(z))

    corners = [complex(x, y) for x in GAMMA_BOX[0] for y in GAMMA_BOX[1]]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(gamma_box_points, min_size=1, max_size=20), st.sampled_from(list(GammaKind)))
    def check(points, kind):
        points = points + corners
        arr = gamma_factor(kind, np.array(points))
        with mpmath.workdps(30):
            for z, a in zip(points, arr):
                ref = reference(kind, z)
                assert abs(gamma_factor(kind, z) - ref) <= GAMMA_REL_ERR * abs(ref)
                assert abs(a - ref) <= GAMMA_REL_ERR * abs(ref)

    check()


def test_quad_halfline_known_integrals():
    assert abs(quad_halfline(lambda r: np.exp(-r * r) * r**3) - 0.5) < 1e-12
    assert abs(quad_halfline(lambda r: np.exp(-2 * math.pi * r * r) * r) - 1 / (4 * math.pi)) < 1e-12
    # cross-check against bessel_k: int exp(-(t + 1/t)) dt/t = 2 K_0(1)
    val = quad_halfline(lambda t: np.exp(-(t + 1 / t)) / t)
    assert abs(val - 2 * bessel_k(0.0, 1.0)) < 1e-11


def test_bessel_half_integer_closed_form():
    # the defining integral at order 1/2 evaluates to sqrt(pi)/2 * exp(-2y);
    # frozen from the Gaussian-type integral int exp(-a x^2 - b/x^2) dx
    for y in (0.5, 1.0, 2.0):
        expected = 0.5 * math.sqrt(math.pi / (4 * y)) * math.exp(-2 * y) * 2
        assert abs(bessel_k(0.5, y) - expected) < 1e-12


def test_bessel_dual_representation():
    for nu, y in ((0.0, 2.0), (0.7, 1.5), (1.0 + 0.5j, 1.0)):
        assert abs(bessel_k(nu, y) - bessel_k_alt(nu, y)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.3, max_value=5.0),
)
def test_bessel_symmetry(re_nu, im_nu, y):
    nu = complex(re_nu, im_nu)
    assert abs(bessel_k(nu, y) - bessel_k(-nu, y)) < 1e-12


def test_bessel_rejects_bad_y():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)


def test_kernel_values_and_quadrature():
    # 4 K_w(a) and 2 K_{w/2}(a) against the direct defining integrals
    assert abs(kernel_ka(GammaKind.COMPLEX, 1.0, 1.0) - 4 * bessel_k(1.0, 1.0)) < 1e-14
    real_val = kernel_ka(GammaKind.REAL, 1.0, 1.0)
    assert abs(real_val - 2 * bessel_k(0.5, 1.0)) < 1e-14
    for kind in (GammaKind.COMPLEX, GammaKind.REAL):
        for a, w in ((1.0, 1.0 + 0j), (1.5, 1.0 + 2.0j), (1.75, 1.0 - 0.6j)):
            assert abs(kernel_ka(kind, a, w) - kernel_ka_quad(kind, a, w)) < 1e-9


def test_kernel_range_check():
    with pytest.raises(ValueError):
        kernel_ka(GammaKind.COMPLEX, 2.5, 1.0)


def test_kernel_nonvanishing_scan():
    for y in (0.0, 0.5, 2.0, 3.5):
        w = 1 + 2j * y
        best = max(abs(kernel_ka(GammaKind.COMPLEX, a, w)) for a in (1.0, 1.25, 1.5, 1.75))
        assert best > 1e-8
        best_r = max(abs(kernel_ka(GammaKind.REAL, a, w)) for a in (1.0, 1.25, 1.5, 1.75))
        assert best_r > 1e-8


def test_tolerance_not_met_raised():
    # the kink at 0 caps the trapezoid rule at O(h^2), which the halving
    # budget cannot bring to the default tolerances
    with pytest.raises(ToleranceNotMet, match="budget exhausted"):
        quad_realline(lambda x: np.abs(x) * np.exp(-x * x))


def test_tolerance_not_met_on_a_non_decaying_integrand():
    with pytest.raises(ToleranceNotMet, match="does not decay"):
        quad_realline(lambda x: np.ones_like(x))


def _counting(f):
    """f, and the list of every node array it is called with."""
    seen = []

    def counted(x):
        seen.append(np.array(x))
        return f(x)

    return counted, seen


def test_non_finite_value_fails_fast_and_names_its_node():
    g, seen = _counting(lambda x: np.where(x == 1.5, np.nan, np.exp(-x * x)))
    with pytest.raises(ToleranceNotMet, match=r"node x = 1\.5 "):
        quad_realline(g)
    assert len(seen) == 1  # the first block holds x = 1.5
    f, seen = _counting(lambda r: np.where(r > 2.0, np.inf, np.exp(-r * r)))
    with pytest.raises(ToleranceNotMet, match="is not finite"):
        quad_halfline(f)
    assert len(seen) == 1


def test_no_node_is_evaluated_twice():
    # the sin^2 factor vanishes on every node of the step-1/2 sweep, so the
    # window it finds is far too narrow and has to grow at the finer levels
    for quad, f, exact in (
        (quad_realline, lambda x: np.exp(-x * x), math.sqrt(math.pi)),
        (quad_realline, lambda x: np.sin(2 * math.pi * x) ** 2 * np.exp(-x * x / 50), math.sqrt(50 * math.pi) / 2),
        (quad_halfline, lambda r: np.exp(-r * r) * r**3, 0.5),
    ):
        counted, seen = _counting(f)
        assert abs(quad(counted) - exact) < 1e-12 * exact
        nodes = np.concatenate(seen)
        assert len(seen) >= 3
        assert np.unique(nodes).size == nodes.size


# ---------------------------------------------------------------------------
# the stacked driver


def _frozen_trapezoid_doubling(f, exp_sinh=False):
    """The one-integrand trapezoid driver as it stood before stacks, frozen
    as the bitwise reference of a one-row call."""
    floor = numerics.QUAD_ABS_TOL * 1e-3

    def evaluate(level, first_p, first_n, stride, n_p, n_n):
        x, _, _ = numerics._line_nodes(level, first_p, first_n, stride, n_p, n_n)
        w = keep = None
        if exp_sinh:
            u = x
            keep = np.abs(u) <= numerics._EXP_SINH_EDGE
            if keep.all():
                keep = None
            else:
                u = u[keep]
            x = np.exp(numerics._EXP_SINH_C * np.sinh(u))
            w = x * numerics._EXP_SINH_C * np.cosh(u)
        v = f(x)
        if w is not None:
            v = v * w
        part = v.sum()
        assert np.isfinite(part)
        if keep is not None:
            full = np.zeros(keep.shape, v.dtype)
            full[keep] = v
            v = full
        return v, part

    total, window, run, ended = 0.0, [0, 0], [0, 0], [False, False]
    start, n_p, n_n, block = 1, 9, 8, 8
    while True:
        v, part = evaluate(0, window[0] + 1 - start, window[1] + 1, 1, n_p, n_n)
        total += part
        quiet = (np.abs(v) < floor * (1.0 + abs(total))).tolist()
        for s, lo, hi in ((0, start, n_p), (1, n_p, n_p + n_n)):
            r = run[s]
            for q in quiet[lo:hi]:
                r = r + 1 if q else 0
                if r == 6:
                    ended[s] = True
                    break
            run[s] = r
            window[s] += hi - lo
        if ended[0] and ended[1]:
            break
        start = 0
        n_p, n_n = (0 if ended[s] else block for s in (0, 1))
        block *= 2
    prev = 0.5 * total
    for level in range(1, numerics.QUAD_MAX_HALVINGS + 1):
        n_p, n_n = window[0] << (level - 1), window[1] << (level - 1)
        v, part = evaluate(level, 1, 1, 2, n_p, n_n)
        total += part
        edges = [abs(v[n_p - 1]), abs(v[-1])]
        for s in (0, 1):
            while edges[s] >= floor * (1.0 + abs(total)):
                count = 8 << level
                first = (window[s] << level) + 1
                ext, part = evaluate(level, first, first, 1, count if s == 0 else 0, count if s == 1 else 0)
                total += part
                window[s] += 8
                edges[s] = np.abs(ext[-6:]).max()
        cur = total * 0.5 ** (level + 1)
        if abs(cur - prev) <= max(numerics.QUAD_ABS_TOL, numerics.QUAD_REL_TOL * abs(cur)):
            return complex(cur)
        prev = cur
    raise AssertionError("no convergence")


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_one_row_driver_is_the_frozen_driver_bit_for_bit():
    # the integrands of test_no_node_is_evaluated_twice; the sin^2 one grows
    # its window at the finer levels
    for quad, f, exp_sinh in (
        (quad_realline, lambda x: np.exp(-x * x), False),
        (quad_realline, lambda x: np.sin(2 * math.pi * x) ** 2 * np.exp(-x * x / 50), False),
        (quad_halfline, lambda r: np.exp(-r * r) * r**3, True),
    ):
        assert _bits(quad(f)) == _bits(_frozen_trapezoid_doubling(f, exp_sinh))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.0, 2.0), st.floats(0.05, 20.0)), min_size=1, max_size=5))
def test_every_row_of_a_bessel_stack_is_its_one_row_value(points):
    # repeated points and +-nu pairs in one stack, each row bit for bit its
    # scalar call
    nus = [complex(a, b) for a, b, _ in points]
    ys = [y for _, _, y in points]
    nus, ys = nus + [-nu for nu in nus] + nus[:1], ys + ys + ys[:1]
    for fn in (bessel_k, bessel_k_alt):
        stack = fn(np.array(nus), np.array(ys))
        assert stack.shape == (len(nus),) and stack.dtype == complex
        for nu, y, value in zip(nus, ys, stack.tolist()):
            assert _bits(value) == _bits(fn(nu, y))


def test_array_evaluators_keep_their_scalar_values_and_shapes():
    a, w = np.array([[1.0, 1.5], [1.25, 1.75]]), np.array([[1.0 + 0j, 1.0 + 2j], [1.0 - 1j, 1.0 + 0.4j]])
    for kind in GammaKind:
        for fn in (kernel_ka, kernel_ka_quad):
            grid = fn(kind, a, w)
            assert grid.shape == (2, 2)
            assert [_bits(v) for v in grid.ravel().tolist()] == [_bits(fn(kind, x, v)) for x, v in zip(a.ravel(), w.ravel())]
        # one z broadcast against a grid of a: a scalar argument with an array
        assert kernel_ka(kind, a, 1.0 + 0.5j).shape == (2, 2)
    assert type(bessel_k(0.5, 1.0)) is complex and type(radial_gaussian_moment(GammaKind.REAL, 2.5)) is complex


def test_moment_array_computes_only_the_missing_entries_in_one_stack(monkeypatch):
    kind = GammaKind.COMPLEX
    known = radial_gaussian_moment(kind, 3.25 + 0.5j)
    stacks = []
    driver = numerics._trapezoid_doubling

    def counted(f, nodes=numerics._line_nodes, rows=None):
        stacks.append(rows)
        return driver(f, nodes, rows)

    monkeypatch.setattr(numerics, "_trapezoid_doubling", counted)
    zs = np.array([3.25 + 0.5j, 4.75 - 1j, 4.75 - 1j, 5.5 + 0j])
    values = radial_gaussian_moment(kind, zs)
    assert stacks == [2]  # one stack, of the two new distinct points
    assert _bits(values[0]) == _bits(known) and _bits(values[1]) == _bits(values[2])
    assert _bits(radial_gaussian_moment(kind, 5.5)) == _bits(values[3]) and stacks == [2]


def _recording(g):
    """g, and the list of every (nodes, rows) call it gets."""
    seen = []

    def recorded(x, rows):
        seen.append((np.array(x), np.arange(rows.start, rows.stop) if isinstance(rows, slice) else np.array(rows)))
        return g(x, rows)

    return recorded, seen


def _gaussian_rows(scales):
    c = np.array(scales)[:, None]
    return lambda x, rows: np.exp(-c[rows] * x * x)


def test_no_row_evaluates_a_node_twice():
    # rows of different widths share union calls; rows that grow their
    # window at the finer levels, with the same window, share the growth
    sin2 = lambda x, rows: np.array([1.0, 2.0, 3.0])[rows, None] * np.sin(2 * math.pi * x) ** 2 * np.exp(-x * x / 50)
    for g, k, exact in (
        (_gaussian_rows([0.2, 1.0, 7.0, 40.0]), 4, [math.sqrt(math.pi / c) for c in (0.2, 1.0, 7.0, 40.0)]),
        (sin2, 3, [c * math.sqrt(50 * math.pi) / 2 for c in (1.0, 2.0, 3.0)]),
    ):
        recorded, seen = _recording(g)
        values = numerics._trapezoid_doubling(recorded, rows=k)
        assert np.abs(values - exact).max() < 1e-11 * max(exact)
        for row in range(k):
            nodes = np.concatenate([x for x, rows in seen if row in rows])
            assert np.unique(nodes).size == nodes.size


def test_a_stack_names_the_row_and_node_of_a_non_finite_value():
    def g(x, rows):
        c = np.array([1.0, 2.0])[rows, None]
        return np.where((c == 2.0) & (x == 1.5), np.nan, np.exp(-c * x * x))

    with pytest.raises(ToleranceNotMet, match=r"in row 1 at node x = 1\.5 is not finite"):
        numerics._trapezoid_doubling(g, rows=2)


def test_a_non_decaying_row_fails_its_stack():
    g = lambda x, rows: np.array([[1.0], [0.0]])[rows] + np.array([[0.0], [1.0]])[rows] * np.exp(-x * x)
    with pytest.raises(ToleranceNotMet, match="does not decay on the grid in row 0"):
        numerics._trapezoid_doubling(g, rows=2)


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: bessel_k(0.5, math.nan), "bessel_k requires finite y, got nan"),
        (lambda: bessel_k(np.array([0.5, 1.0 + math.inf * 1j]), 1.0), r"bessel_k requires finite nu, got \(nan\+infj\) at index \(1,\)"),
        (lambda: bessel_k_alt(0.5, math.nan), "bessel_k_alt requires finite y, got nan"),
        (lambda: kernel_ka(GammaKind.COMPLEX, 1.5, complex(math.nan, 1.0)), "kernel_ka requires finite w"),
        (lambda: kernel_ka_quad(GammaKind.REAL, np.array([1.0, math.inf]), 1.0), r"kernel_ka_quad requires finite a, got inf at index \(1,\)"),
        (lambda: radial_gaussian_moment(GammaKind.REAL, complex(2.0, math.nan)), "radial_gaussian_moment requires finite z"),
    ),
)
def test_non_finite_arguments_raise_before_any_node(monkeypatch, call, message):
    def never(*args, **kwargs):
        pytest.fail("a node was evaluated")

    monkeypatch.setattr(numerics, "_trapezoid_doubling", never)
    with pytest.raises(ValueError, match=message):
        call()


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 60.0), st.floats(-30.0, 30.0), st.sampled_from(list(GammaKind)))
def test_radial_moment_matches_gamma_factor_on_its_domain(re_z, im_z, kind):
    z = complex(re_z, im_z)
    closed = gamma_factor(kind, z / 2 if kind is GammaKind.COMPLEX else z)
    assert abs(radial_gaussian_moment(kind, z) - closed) <= 1e-12 * max(1.0, abs(closed))


@settings(max_examples=80, deadline=None)
@given(st.floats(math.log(1e-6), math.log(300.0)))
def test_bessel_half_order_on_its_domain(log_y):
    y = math.exp(log_y)
    closed = math.sqrt(math.pi / (4 * y)) * math.exp(-2 * y)
    assert abs(bessel_k(0.5, y) - closed) <= 1e-14 * closed + 1e-16


# ---------------------------------------------------------------------------
# the one extrapolation to zero


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True),
    st.floats(1e-3, 1.0),
    st.data(),
)
def test_limit_at_zero_is_exact_for_polynomials_of_lower_degree(divisors, h0, data):
    hs = [h0 / m for m in divisors]
    coeffs = [Fraction(c) for c in data.draw(st.lists(st.floats(-10, 10), min_size=len(hs), max_size=len(hs)))]
    exact = [sum(c * Fraction(h) ** k for k, c in enumerate(coeffs)) for h in hs]
    got = limit_at_zero(hs, [float(v) for v in exact])
    # rounding the samples costs at most the Lebesgue constant at 0 times
    # the largest sample, in units of the double epsilon
    lebesgue = sum(
        abs(math.prod(Fraction(hj) / (Fraction(hj) - Fraction(hi)) for hj in hs if hj != hi)) for hi in hs
    )
    scale = float(lebesgue) * max(1.0, max(abs(float(v)) for v in exact))
    assert abs(got - float(coeffs[0])) <= 64 * len(hs) * 2.0**-52 * scale


def _doubling_neville_table(vals):
    """The residues' first-order Neville table on h = 10^-2 / 2^i, frozen."""
    vals = list(vals)
    levels = len(vals)
    for j in range(1, levels):
        for i in range(levels - 1, j - 1, -1):
            vals[i] = (2**j * vals[i] - vals[i - 1]) / (2**j - 1)
    return vals[-1]


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_limit_at_zero_is_the_doubling_neville_table_bit_for_bit(vals):
    hs = [1e-2 / 2**i for i in range(len(vals))]
    assert limit_at_zero(hs, vals).hex() == float(_doubling_neville_table(vals)).hex()


# a relative bound means nothing below the normal range, where a double's
# spacing is absolute: 1e-14 of a subnormal sample is less than one ulp
@given(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=3, max_size=3))
def test_limit_at_zero_matches_the_vandermonde_solve(vals):
    mat = np.array([[1.0, sig, sig * sig] for sig in _AXIS_SIGMAS])
    solved = float(np.linalg.solve(mat, np.array(vals))[0])
    assert abs(limit_at_zero(_AXIS_SIGMAS, vals) - solved) <= 1e-14 * max(map(abs, vals))


def test_limit_at_zero_rejects_bad_nodes():
    for hs in ((1e-2, 1e-3, 1e-2), (1e-2, 0.0, 1e-4), (1e-2, 1e-3)):
        with pytest.raises(ValueError):
            limit_at_zero(hs, (1.0, 2.0, 3.0))
