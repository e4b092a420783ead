import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intertwine.classical import (
    PolyGaussian1D,
    decay_check,
    dirac_family,
    ft_1d,
    integrate,
    l2_norm_sq,
    mollify_deficit,
    point_mollification,
)
from intertwine.errors import RangeError
from intertwine.exact import ONE, PiLaurent, fraction_sqrt, scalar_is_zero
from intertwine.numerics import trapezoid


def indicator(xs):
    xs = np.asarray(xs, dtype=float)
    return ((xs >= -1.0) & (xs <= 1.0)).astype(float)


def bump(xs):
    return np.exp(-np.asarray(xs, dtype=float) ** 2)


rational = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)
width = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(6), max_denominator=6)


def test_selfdual_gaussian():
    g = PolyGaussian1D({0: 1}, 1)
    assert ft_1d(g) == g


def test_dirac_family_transform():
    # the width-eps family maps to the width-(1/eps) Gaussian with unit coefficient
    v = dirac_family(Fraction(1, 2))
    assert ft_1d(v) == PolyGaussian1D({0: 1}, Fraction(1, 4))
    assert ft_1d(dirac_family(1)) == PolyGaussian1D({0: 1}, 1)


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 10)])
def test_dirac_unit_mass(eps):
    assert abs(integrate(dirac_family(eps)) - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=4), rational, min_size=1, max_size=4), width)
def test_involution_exact(coeffs, q):
    coeffs = {n: PiLaurent.rational(c) for n, c in coeffs.items()}
    f = PolyGaussian1D(coeffs, q)
    assert ft_1d(ft_1d(f)) == f.reflected()


def _dict_ft_1d(coeffs: dict, q: Fraction, scale_sq: Fraction):
    """ft_1d written as a recursion on {n: coeff} dicts, without VarPoly, kept
    as the reference: the transform's coefficients in the order they are
    summed in, its width and its scale_sq."""
    qi = 1 / q

    def d_once(poly: dict) -> dict:
        # d/dxi acting on poly(xi) * exp(-qi pi xi^2)
        out: dict = {}
        pull = PiLaurent.pi_power(1, -2 * qi)
        for m, a in poly.items():
            if m >= 1:
                out[m - 1] = out.get(m - 1, PiLaurent()) + a * m
            out[m + 1] = out.get(m + 1, PiLaurent()) + a * pull
        return out

    result: dict = {}
    for n, c in coeffs.items():
        poly = {0: ONE}
        for _ in range(n):
            poly = d_once(poly)
        front = PiLaurent.i_power(n) * PiLaurent.pi_power(-n, Fraction(1, 2**n))
        for m, a in poly.items():
            term = c * front * a
            result[m] = result[m] + term if m in result else term
    scale_sq = scale_sq * qi
    root = fraction_sqrt(scale_sq)
    if root is not None and root != 1:
        result = {m: c * root for m, c in result.items()}
        scale_sq = Fraction(1)
    return {m: c for m, c in result.items() if not scalar_is_zero(c)}, qi, scale_sq


# exact rationals, or floats far from underflow, so that no term of the
# transform rounds to zero
mixed_coeff = st.one_of(
    rational.filter(bool).map(PiLaurent.rational),
    st.floats(min_value=-5.0, max_value=5.0).filter(lambda x: abs(x) >= 1e-3),
)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=0, max_value=6), mixed_coeff, min_size=1, max_size=5),
    width,
    st.sampled_from([1, 2, Fraction(3, 5), Fraction(9, 4), Fraction(1, 4)]),
)
def test_transform_matches_the_dict_recursion(coeffs, q, scale_sq):
    f = PolyGaussian1D(coeffs, q, scale_sq)
    g = ft_1d(f)
    want, want_q, want_scale_sq = _dict_ft_1d({n: c for (n,), c in f.poly.terms.items()}, f.q, f.scale_sq)
    assert (g.q, g.scale_sq) == (want_q, want_scale_sq)
    # exact PiLaurent coefficients compare as such; repr also pins the order
    # of the terms, the order evaluation sums them in, and the float bits
    assert repr(list(g.poly.terms.items())) == repr([((m,), c) for m, c in want.items()])


@settings(max_examples=15, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=3), rational, min_size=1, max_size=3), width)
def test_plancherel(coeffs, q):
    coeffs = {n: PiLaurent.rational(c) for n, c in coeffs.items()}
    f = PolyGaussian1D(coeffs, q)
    lhs = l2_norm_sq(f)
    rhs = l2_norm_sq(ft_1d(f))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_width_must_be_positive():
    with pytest.raises(ValueError):
        PolyGaussian1D({0: 1}, 0)
    with pytest.raises(ValueError):
        dirac_family(Fraction(-1, 2))


def test_mollify_deficit_decreasing_for_indicator():
    deficits = [mollify_deficit(indicator, e, 2.0) for e in (0.4, 0.2, 0.1)]
    assert deficits[0] > deficits[1] > deficits[2]


def test_mollify_smooth_bump_small():
    val = mollify_deficit(bump, 0.1, 1.0)
    l1 = float(trapezoid(bump(np.linspace(-4, 4, 8193)), np.linspace(-4, 4, 8193)))
    assert val < 0.05 * l1


def test_mollify_zero_function():
    assert mollify_deficit(lambda xs: 0.0 * np.asarray(xs), 0.2, 2.0) == 0.0


@pytest.mark.parametrize("eps", [-0.1, 0.0, float("nan"), float("inf"), 1e-9])
def test_mollifier_probes_reject_a_width_outside_their_domain(eps):
    # no grid of spacing eps / 8 or eps / 16 exists, or (below the 1e-3 floor)
    # none that fits in memory: at 1e-9 mollify_deficit would ask for 68 TB;
    # the width is rejected before any array is built
    for probe in (lambda: mollify_deficit(indicator, eps, 2.0), lambda: point_mollification(bump, 0.3, eps)):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError):
                probe()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_pointwise_inversion_probe():
    probes = [abs(point_mollification(bump, 0.3, e) - bump(np.array([0.3]))[0]) for e in (0.4, 0.2, 0.1, 0.05)]
    assert all(a > b for a, b in zip(probes, probes[1:]))


def test_decay_check_l1_bound():
    sup0 = decay_check(bump, 0)
    xs = np.linspace(-6, 6, 4097)
    l1 = float(trapezoid(bump(xs), xs))
    assert sup0 <= l1 + 1e-6


def test_decay_check_smoothness_gain():
    # the weighted sup at n = 2 is controlled by the second-derivative mass
    sup2 = decay_check(bump, 2)
    xs = np.linspace(-6, 6, 8193)
    h = xs[1] - xs[0]
    vals = bump(xs)
    second = np.gradient(np.gradient(vals, h), h)
    l1_second = float(trapezoid(np.abs(second), xs))
    assert sup2 <= l1_second / (2 * math.pi) ** 2 + 1e-3


def test_decay_check_zero():
    assert decay_check(lambda xs: 0.0 * np.asarray(xs), 2) == 0.0


def _dense_transform(h, x_halfwidth, xi_max, grid):
    """The xi grid and the Riemann sum as one dense phase-matrix product."""
    xs = np.linspace(-x_halfwidth, x_halfwidth, grid, endpoint=False)
    hx = np.asarray(h(xs), dtype=complex)
    xis = np.linspace(-xi_max, xi_max, 257)
    return xis, np.exp(-2j * math.pi * np.outer(xis, xs)) @ hx * (xs[1] - xs[0])


def _modulated_gaussian(z, freq, q):
    return lambda xs: z * np.exp(2j * math.pi * freq * xs - math.pi * q * xs**2)


@st.composite
def decay_inputs(draw):
    x_halfwidth = draw(st.floats(min_value=0.5, max_value=12.0))
    xi_max = draw(st.floats(min_value=0.5, max_value=16.0))
    if draw(st.booleans()):
        coeffs = draw(st.dictionaries(st.integers(min_value=0, max_value=6), rational, min_size=1, max_size=4))
        h = PolyGaussian1D({k: PiLaurent.rational(v) for k, v in coeffs.items()}, draw(width))
    else:
        z = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        h = _modulated_gaussian(z, draw(st.floats(-xi_max, xi_max)), draw(st.floats(0.05, 20.0)))
    return h, x_halfwidth, xi_max, draw(st.integers(min_value=2, max_value=4096))


@settings(max_examples=60, deadline=None)
@given(decay_inputs(), st.integers(min_value=0, max_value=6))
# c m^2 rounded before its reduction mod 2 gives 1.7e-12 here
@example((_modulated_gaussian(-0.4427774385842329j, 11.275259877532497, 12.961494520257952),
          11.275259877532497, 12.961494520257952, 3), 3)
def test_decay_check_matches_dense_transform(inputs, n):
    h, x_halfwidth, xi_max, grid = inputs
    xis, hat = _dense_transform(h, x_halfwidth, xi_max, grid)
    want = float(np.max(np.abs(xis) ** n * np.abs(hat)))
    got = decay_check(h, n, x_halfwidth=x_halfwidth, xi_max=xi_max, grid=grid)
    # each |h^(xi_j)| within 5e-13 max|h^| + 1e-300 (the docstring's accuracy
    # domain); the absolute floor covers samples that are all subnormal
    assert abs(got - want) <= xi_max**n * (5e-13 * float(np.max(np.abs(hat))) + 1e-300)


@pytest.mark.parametrize(
    "kwargs",
    [{"grid": 1}, {"grid": 0}, {"grid": -3}, {"x_halfwidth": 0.0}, {"x_halfwidth": -1.0},
     {"xi_max": 0.0}, {"xi_max": -2.0}, {"xi_max": float("nan")}],
)
def test_decay_check_rejects_degenerate_grids(kwargs):
    with pytest.raises(RangeError):
        decay_check(bump, 1, **kwargs)


def test_evaluation_matches_symbolic():
    rng = random.Random(0)
    f = PolyGaussian1D({0: PiLaurent.rational(2), 3: PiLaurent.rational(Fraction(-1, 3))}, Fraction(2, 3))
    g = ft_1d(f)
    # numeric transform at a sample point as an independent check
    xs = np.linspace(-9, 9, 36001)
    fx = f(xs)
    for xi in (0.0, 0.35, -1.2):
        direct = trapezoid(fx * np.exp(-2j * math.pi * xs * xi), xs)
        assert abs(direct - g(xi)) < 1e-8


def test_decay_check_accepts_symbolic_input():
    f = PolyGaussian1D({0: PiLaurent.rational(1), 2: PiLaurent.rational(Fraction(1, 2))}, 1)
    val0 = decay_check(f, 0)
    val3 = decay_check(f, 3)
    assert 0 < val0 < 10
    assert val3 < 10  # rapidly decreasing transform keeps every weighted sup finite
    # the object is sampled as any callable is
    assert val3 == decay_check(lambda xs: f(xs), 3)


def _coefficient_complex(c) -> complex:
    """A coefficient converted through Fraction arithmetic, on every call."""
    if not isinstance(c, PiLaurent):
        return complex(c)
    total = 0j
    for k, (re, im) in c.fraction_terms().items():
        total += complex(re + im * 1j) * math.pi**k
    return total


pi_coeff = st.builds(
    PiLaurent,
    st.dictionaries(st.integers(min_value=-2, max_value=2), st.tuples(rational, rational), min_size=1, max_size=3),
)


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=0, max_value=5), pi_coeff, min_size=1, max_size=4),
    width,
    st.sampled_from([1, 2, Fraction(3, 5), Fraction(9, 4)]),
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
)
def test_evaluation_matches_conversion_per_call(coeffs, q, scale_sq, xs):
    f = PolyGaussian1D(coeffs, q, scale_sq)
    scale = math.sqrt(float(f.scale_sq))
    for x in xs:
        total = 0j
        for (n,), c in f.poly.terms.items():
            total += _coefficient_complex(c) * x**n
        ref = scale * np.exp(-float(f.q) * math.pi * x * x) * total
        assert repr(f(x)) == repr(ref)  # repr tells -0.0 from 0.0
    arr = np.array(xs)
    total = np.zeros_like(arr, dtype=complex)
    for (n,), c in f.poly.terms.items():
        total += _coefficient_complex(c) * arr**n
    ref = scale * np.exp(-float(f.q) * math.pi * arr * arr) * total
    assert f(arr).tobytes() == ref.tobytes()
