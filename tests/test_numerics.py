import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
