import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine.arch import (
    ArchParams,
    Place,
    mu_arch,
    mu_arch_bound_check,
    mu_arch_derivative,
    mu_arch_derivative_bound,
    mu_arch_logderiv,
    mu_arch_oracle,
    mu_arch_product,
    tate_section_complex,
    tate_section_real,
)
from intertwine.errors import ParityError, RangeError
from intertwine.harmonics import harmonic_su2, hopf_point
from intertwine.numerics import GammaKind, gamma_factor
from intertwine.schwartz import section_so2, section_su2


def test_param_validation():
    with pytest.raises(ParityError):
        ArchParams(Place.REAL, 0.0, 0.0, 2)
    with pytest.raises(ParityError):
        mu_arch(ArchParams(Place.COMPLEX, 0.0, 0.0, 0), 3)
    with pytest.raises(RangeError):
        mu_arch(ArchParams(Place.COMPLEX, 0.0, 0.0, 4), 2)
    with pytest.raises(RangeError):
        mu_arch(ArchParams(Place.REAL, 0.0, 0.0, 1), 0)


def test_base_weight_values():
    # the empty product: the eigenvalue is the pure phase of the weight
    p2 = ArchParams(Place.COMPLEX, 0.37 + 0.21j, 0.8, 2)
    assert abs(mu_arch(p2, 2).value - (-1.0)) < 1e-12
    p0 = ArchParams(Place.COMPLEX, 0.0, 0.0, 0)
    assert abs(mu_arch(p0, 2).value - 1.0) < 1e-12
    # real place, trivial weight at the base point
    pr = ArchParams(Place.REAL, 0.0, 0.0, 0)
    assert abs(mu_arch(pr, 0).value - 1.0) < 1e-12


def test_real_place_example_modulus():
    pr = ArchParams(Place.REAL, 0.6j, 0.0, 0)
    val = mu_arch(pr, 2).value
    a, b = 1 + 1.2j, 1 - 1.2j
    expected = (
        gamma_factor(GammaKind.REAL, a) / gamma_factor(GammaKind.REAL, b)
        * gamma_factor(GammaKind.REAL, b + 2) / gamma_factor(GammaKind.REAL, a + 2)
    )
    assert abs(val - expected) < 1e-13
    assert abs(abs(val) - 1) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=4),
)
def test_axis_unitarity_complex(y, mu, n0, extra):
    n = abs(n0) + 2 * extra
    val = mu_arch(ArchParams(Place.COMPLEX, 1j * y, mu, n0), n).value
    assert abs(abs(val) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
def test_axis_unitarity_real(y, mu, n0, extra, flip):
    n = n0 + 2 * extra
    if flip and n:
        n = -n
    val = mu_arch(ArchParams(Place.REAL, 1j * y, mu, n0), n).value
    assert abs(abs(val) - 1.0) < 1e-12


def test_product_form_agrees():
    rng = random.Random(4)
    for _ in range(40):
        y, mu = rng.uniform(-3, 3), rng.uniform(-2, 2)
        n0 = rng.randint(-3, 3)
        n = abs(n0) + 2 * rng.randint(0, 4)
        pa = ArchParams(Place.COMPLEX, 1j * y, mu, n0)
        assert abs(mu_arch(pa, n).value - mu_arch_product(pa, n)) < 1e-12
        n0r = rng.randint(0, 1)
        nr = (n0r + 2 * rng.randint(0, 4)) or n0r
        pr = ArchParams(Place.REAL, 1j * y, mu, n0r)
        assert abs(mu_arch(pr, nr).value - mu_arch_product(pr, nr)) < 1e-12


def test_tate_section_closed_equals_quadrature():
    rng = random.Random(11)
    for n0, n in ((0, 0), (0, 2), (1, 3), (-2, 4)):
        phi = section_su2(n0, n)
        for s in (0.3, 0.25 + 0.1j):
            pa = ArchParams(Place.COMPLEX, s, 0.5, n0)
            for _ in range(3):
                kp = hopf_point(rng.uniform(0.4, 1.1), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
                closed = tate_section_complex(phi, pa, kp, "closed")
                quad = tate_section_complex(phi, pa, kp, "quadrature")
                assert abs(closed - quad) < 1e-8 * max(1.0, abs(closed))


def test_tate_section_gamma_value():
    # the base section evaluates to the gamma factor times the harmonic
    pa = ArchParams(Place.COMPLEX, 0.0, 0.0, 0)
    kp = hopf_point(0.7, 0.9, 1.3)
    phi = section_su2(0, 0)
    assert abs(tate_section_complex(phi, pa, kp) - 1 / math.pi) < 1e-13
    # weight-two section: gamma factor times the (0, 2, 0) harmonic value
    phi2 = section_su2(0, 2)
    h = harmonic_su2(0, 2, 0)
    val = tate_section_complex(phi2, pa, kp)
    assert abs(val - gamma_factor(GammaKind.COMPLEX, 2.0) * h(kp)) < 1e-13
    # at the identity the harmonic vanishes, so the section does too
    from intertwine.harmonics import SU2Point

    assert abs(tate_section_complex(phi2, pa, SU2Point(1 + 0j, 0j))) < 1e-15
    # at the balanced point the harmonic is 1/2
    bal = SU2Point(complex(math.sqrt(0.5)), complex(math.sqrt(0.5)))
    assert abs(tate_section_complex(phi2, pa, bal) - gamma_factor(GammaKind.COMPLEX, 2.0) * 0.5) < 1e-13


def test_real_section_closed_equals_quadrature():
    for n0, n in ((0, 0), (0, 2), (1, 1), (1, -3)):
        phi = section_so2(n)
        pa = ArchParams(Place.REAL, 0.25, -0.3, n0)
        for theta in (0.4, 2.1):
            kp = cmath.exp(1j * theta)
            closed = tate_section_real(phi, pa, kp, "closed")
            quad = tate_section_real(phi, pa, kp, "quadrature")
            assert abs(closed - quad) < 1e-9 * max(1.0, abs(closed))


def test_quadrature_sections_raise_where_the_radial_moment_diverges():
    # the degree-0 radial moment converges only for Re s > -1/2
    kp = hopf_point(0.7, 0.9, 1.3)
    for s in (-0.5, -0.6 + 0.2j):
        with pytest.raises(ValueError, match="radial moment"):
            tate_section_complex(section_su2(0, 0), ArchParams(Place.COMPLEX, s, 0.0, 0), kp, "quadrature")
        with pytest.raises(ValueError, match="radial moment"):
            tate_section_real(section_so2(0), ArchParams(Place.REAL, s, 0.0, 0), cmath.exp(0.4j), "quadrature")
    for place in (Place.COMPLEX, Place.REAL):
        with pytest.raises(ValueError, match="radial moment"):
            mu_arch_oracle(ArchParams(place, -0.6, 0.0, 0), 0)


def test_oracle_matches_closed_form_complex():
    for n0 in range(-2, 3):
        for n in range(abs(n0), 7):
            if (n - n0) % 2:
                continue
            for s in (0.3, 0.25 + 0.1j):
                pa = ArchParams(Place.COMPLEX, s, 0.4, n0)
                assert abs(mu_arch(pa, n).value - mu_arch_oracle(pa, n)) < 1e-8


def test_oracle_matches_closed_form_real():
    for n0 in (0, 1):
        for n in (n0, n0 + 2, -(n0 + 2)):
            for s in (0.25, 0.2 - 0.1j):
                pr = ArchParams(Place.REAL, s, -0.2, n0)
                assert abs(mu_arch(pr, n).value - mu_arch_oracle(pr, n)) < 1e-8


def test_oracle_raised_sections():
    # a raised section carries the same eigenvalue: the intertwiner commutes
    # with the compact group
    pa = ArchParams(Place.COMPLEX, 0.3, 0.0, 1)
    base = mu_arch(pa, 3).value
    for k in (1, 2):
        assert abs(base - mu_arch_oracle(pa, 3, k=k)) < 1e-8


def test_derivative_exact_vs_fd():
    rng = random.Random(6)
    for _ in range(10):
        y = rng.uniform(-2, 2)
        n0 = rng.randint(-2, 2)
        n = abs(n0) + 2 * rng.randint(0, 3)
        pa = ArchParams(Place.COMPLEX, 1j * y, 0.0, n0)
        exact, fd = mu_arch_derivative(pa, n)
        assert abs(exact - fd) < 1e-5


def test_derivative_zero_at_base_weight():
    pa = ArchParams(Place.COMPLEX, 0.9j, 0.3, 2)
    exact, _ = mu_arch_derivative(pa, 2)
    assert exact == 0
    assert mu_arch_derivative_bound(pa, 2) == 0.0


def test_derivative_worked_example():
    # weight 4 at the center: the exact sum gives -4 (1/1 + 2/4) = -6 times
    # a unit phase, within the bound 4 (1 + log 2)
    pa = ArchParams(Place.COMPLEX, 0j, 0.0, 0)
    exact, _ = mu_arch_derivative(pa, 4)
    assert abs(abs(exact) - 6.0) < 1e-12
    bound = mu_arch_derivative_bound(pa, 4)
    assert abs(bound - 4 * (1 + math.log(2))) < 1e-12
    assert abs(exact) <= bound


def test_derivative_bounds_random():
    rng = random.Random(8)
    for _ in range(100):
        y = rng.uniform(-3, 3)
        n0 = rng.randint(-3, 3)
        n = abs(n0) + 2 * rng.randint(0, 4)
        assert mu_arch_bound_check(ArchParams(Place.COMPLEX, 1j * y, 0.0, n0), n)
        n0r = rng.randint(0, 1)
        nr = (n0r + 2 * rng.randint(0, 4)) * rng.choice((1, -1)) or n0r
        assert mu_arch_bound_check(ArchParams(Place.REAL, 1j * y, 0.0, n0r), nr)


def test_logderiv_sign():
    # the exact sum is nonpositive on the axis, largest at the base weight
    pa = ArchParams(Place.COMPLEX, 0.5j, 0.0, 0)
    vals = [mu_arch_logderiv(pa, n) for n in (0, 2, 4, 6)]
    assert vals[0] == 0.0
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_inconsistent_ratio_guard():
    from intertwine.errors import InconsistentRatio

    # an impossible tolerance turns quadrature noise into a detected
    # sample-point dependence
    pa = ArchParams(Place.COMPLEX, 0.3, 0.4, 0)
    with pytest.raises(InconsistentRatio):
        mu_arch_oracle(pa, 4, tol=1e-17)


def test_unnormalized_variant():
    # removing the L-factor normalization multiplies by the inverse ratio;
    # at the complex place with trivial weight this is a gamma-factor ratio
    pa = ArchParams(Place.COMPLEX, 0.2, 0.3, 0)
    r = mu_arch(pa, 2, normalized=True)
    m = mu_arch(pa, 2, normalized=False)
    assert m.normalized is False
    ratio = gamma_factor(GammaKind.COMPLEX, 1 - 2 * pa.s - 1j * pa.mu) / gamma_factor(
        GammaKind.COMPLEX, 1 + 2 * pa.s + 1j * pa.mu
    )
    assert abs(m.value - r.value * ratio) < 1e-13
