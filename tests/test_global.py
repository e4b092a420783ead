import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intertwine.arch import ArchParams, Place, mu_arch, mu_arch_logderiv
from intertwine.errors import PoleError, RangeError
from intertwine.globalq import (
    GlobalKType,
    GlobalSpectralPoint,
    completed_zeta,
    height_wn,
    laplace_eigenvalue,
    maass_selberg,
    maass_selberg_onaxis,
    mu_global,
    mu_global_factor,
    residue_at_one,
    residue_at_zero,
    residue_constant,
    riemann_zeta,
    sobolev_term_decay_slope,
    sobolev_weight_sum,
)


def test_zeta_reference_values():
    assert abs(riemann_zeta(2.0) - math.pi**2 / 6) < 1e-12
    assert abs(riemann_zeta(4.0) - math.pi**4 / 90) < 1e-12
    assert abs(riemann_zeta(-1.0) + Fraction(1, 12)) < 1e-10
    assert abs(riemann_zeta(0.0) + 0.5) < 1e-11


def test_completed_zeta_value_and_poles():
    assert abs(completed_zeta(2.0) - math.pi / 6) < 1e-12
    with pytest.raises(PoleError):
        completed_zeta(0.0)
    with pytest.raises(PoleError):
        completed_zeta(1.0)


def test_functional_equation_grid():
    rng = random.Random(0)
    worst = 0.0
    for t in np.linspace(0.1, 50.0, 41):
        z = complex(rng.uniform(0.05, 0.95), t)
        worst = max(worst, abs(completed_zeta(z) - completed_zeta(1 - z)))
    assert worst < 1e-9


def test_functional_equation_near_denominator_zeros():
    # 1 - 2^(1-z) vanishes on these lines, so a zeta that divides an
    # alternating series by it loses every digit there; keep them covered
    for k in (1, 2, 3):
        z = complex(1.0, 2 * math.pi * k / math.log(2))
        assert abs(completed_zeta(z) - completed_zeta(1 - z)) < 1e-9
        assert abs(completed_zeta(z + 0.01) - completed_zeta(1 - z - 0.01)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 40.0), st.floats(-1000.0, 1000.0))
def test_zeta_schwarz_reflection_on_the_strip(sigma, t):
    z = complex(sigma, t)
    assume(abs(z - 1) > 1e-3)
    lhs, rhs = riemann_zeta(z.conjugate()), riemann_zeta(z).conjugate()
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@settings(max_examples=80, deadline=None)
@given(st.floats(-0.25, 0.45), st.floats(-450.0, 450.0))
def test_functional_equation_on_the_strip(sigma, t):
    # both sides evaluated directly: Re z and Re(1 - z) stay in [-1/4, 5/4],
    # where completed_zeta does not reflect
    z = complex(sigma, t)
    assume(abs(z) > 1e-3)
    a, b = completed_zeta(z), completed_zeta(1 - z)
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-6, 200.0))
def test_global_factor_phase_oracle(y):
    # Lambda(1 - 2iy) = Lambda(2iy): the same ratio at another abscissa,
    # which sees the phase that the modulus check cannot
    oracle = completed_zeta(2j * y) / completed_zeta(1 + 2j * y)
    assert abs(mu_global_factor(y) - oracle) <= 1e-11


def test_domain_bounds():
    assert math.isfinite(abs(riemann_zeta(complex(-3.0, 1000.0))))
    assert riemann_zeta(1e200) == 1  # the tail stops once its terms underflow
    for z in (complex(0.5, 450.0), complex(200.0, -450.0), complex(-200.0, 450.0)):
        assert math.isfinite(abs(completed_zeta(z)))
    assert abs(abs(mu_global_factor(200.0)) - 1) < 1e-15
    for z in (complex(-3.001, 0.0), complex(0.5, 1000.01), complex(0.5, -1000.01), complex(math.inf, 0.0), complex(math.nan, 0.0)):
        with pytest.raises(RangeError):
            riemann_zeta(z)
    for z in (complex(0.5, 450.01), complex(0.5, -450.01), complex(200.01, 0.0), complex(-200.01, 0.0)):
        with pytest.raises(RangeError):
            completed_zeta(z)
    for y in (200.01, -200.01, math.nan):
        with pytest.raises(RangeError):
            mu_global_factor(y)


def test_zeta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def rel_err(z):
        ref = complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))
        return abs(riemann_zeta(z) - ref) / abs(ref)

    rng = random.Random(4)
    sample = [complex(rng.uniform(-1.0, 4.0), rng.uniform(-1000.0, 1000.0)) for _ in range(40)]
    with mpmath.workdps(30):
        for t in (150.0, 400.0, 1000.0):
            for sigma in (-1.0, -0.25, 0.5, 1.0, 2.0, 4.0):
                assert rel_err(complex(sigma, t)) <= 2e-11
        assert max(rel_err(z) for z in sample) <= 2e-11
        assert rel_err(complex(-3.0, 1000.0)) <= 1e-8


# riemann_zeta's documented error table: (lowest Re z, rel, abs) per strip,
# the error being bounded by rel * |zeta| + abs
ZETA_ERROR_TABLE = ((-3.0, 1.7e-8, 1e-11), (-1.0, 4e-11, 0.0), (-0.25, 1.5e-11, 2e-12), (1.0, 5e-13, 0.0), (4.0, 1e-14, 0.0))


def test_zeta_within_its_error_table():
    # the partial sum is one numpy exp over a table of log k
    mpmath = pytest.importorskip("mpmath")
    edges = [lo for lo, _, _ in ZETA_ERROR_TABLE[1:]] + [40.0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, len(ZETA_ERROR_TABLE) - 1), st.floats(0.0, 1.0), st.floats(-1000.0, 1000.0))
    def check(strip, frac, im):
        lo, rel, absolute = ZETA_ERROR_TABLE[strip]
        z = complex(lo + frac * (edges[strip] - lo), im)
        assume(z.real < edges[strip] or strip == len(ZETA_ERROR_TABLE) - 1)
        assume(abs(z - 1) > 1e-6)
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))
        assert abs(riemann_zeta(z) - ref) <= rel * abs(ref) + absolute

    check()


def test_global_factor_against_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def lam(z):
        z = mpmath.mpc(z.real, z.imag)
        return mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2) * mpmath.zeta(z)

    with mpmath.workdps(30):
        for t in (150.0, 400.0):
            z = complex(0.3, t)
            assert abs(completed_zeta(z) - complex(lam(z))) <= 1e-11 * abs(complex(lam(z)))
        for y in (60.0, 75.0, 120.0, 200.0):
            ref = complex(lam(complex(1, -2 * y)) / lam(complex(1, 2 * y)))
            assert abs(mu_global_factor(y) - ref) <= 2e-12


def test_schwarz_reflection():
    for y in np.linspace(0.1, 20, 40):
        lhs = completed_zeta(1 - 2j * y)
        rhs = completed_zeta(1 + 2j * y).conjugate()
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_global_factor_modulus_grid():
    for y in np.linspace(0.1, 20, 100):
        assert abs(abs(mu_global_factor(y)) - 1.0) < 1e-8


def test_global_factor_center_limit():
    assert mu_global_factor(0.0) == -1.0 + 0j
    # continuity: small y stays near the limit
    assert abs(mu_global_factor(1e-4) + 1.0) < 1e-2


def test_residues():
    assert abs(residue_at_one() - 1.0) < 1e-8
    assert abs(residue_at_zero() - 1.0) < 1e-7
    assert abs(residue_constant() - 3 / math.pi) < 1e-6


def test_mu_global_product():
    pt = GlobalSpectralPoint(1.0)
    # trivial type: the bare completed-zeta ratio
    assert abs(mu_global(pt, GlobalKType()) - mu_global_factor(1.0)) < 1e-14
    # real-place weight only
    kt = GlobalKType(real_weight=2)
    expected = mu_global_factor(1.0) * mu_arch(ArchParams(Place.REAL, 1j, 0.0, 0), 2)
    assert abs(mu_global(pt, kt) - expected) < 1e-12
    # mixed data stays unitary
    rng = random.Random(3)
    for _ in range(50):
        kt = GlobalKType(
            real_weight=2 * rng.randint(0, 3),
            finite_weights=tuple((p, rng.randint(0, 2)) for p in rng.sample((3, 5, 7, 11), 2)),
        )
        val = mu_global(GlobalSpectralPoint(rng.uniform(0.1, 5.0)), kt)
        assert abs(abs(val) - 1.0) < 1e-8


def test_ktype_validation():
    with pytest.raises(RangeError):
        GlobalKType(real_weight=1)
    with pytest.raises(RangeError):
        GlobalKType(finite_weights=((5, -1),))


def test_laplace_values():
    assert laplace_eigenvalue(Place.REAL, 0, 0, 0) == 0.25
    assert laplace_eigenvalue(Place.COMPLEX, 0, 0, 2, 0) == 4.25
    assert laplace_eigenvalue(Place.REAL, 1, 0, 1) == 1.75
    for n in range(0, 20, 2):
        lo = laplace_eigenvalue(Place.COMPLEX, 0.3, 0.1, n, 0)
        hi = laplace_eigenvalue(Place.COMPLEX, 0.3, 0.1, n + 2, 0)
        assert 0 < lo < hi


def test_maass_selberg_positive_and_scaling():
    # a unitary scalar model off the axis gives a positive value
    s = complex(0.1, 0.6)
    m = mu_arch(ArchParams(Place.COMPLEX, s, 0.0, 0), 4)
    val = maass_selberg(s, 2.0, 1.0, abs(m), m.conjugate())
    assert val > 0
    # doubling the height adds 2 log 2 in the axis limit with flat phase
    v1 = maass_selberg_onaxis(0.3, 2.0, cmath.exp(0.4j), 0.0)
    v2 = maass_selberg_onaxis(0.3, 4.0, cmath.exp(0.4j), 0.0)
    assert abs((v2 - v1) - 2 * math.log(2)) < 1e-12


def test_maass_selberg_limit_consistency():
    for (y, c) in ((0.7, 2.0), (1.5, 3.0)):
        pa = ArchParams(Place.COMPLEX, 1j * y, 0.0, 0)
        m_iy = mu_arch(pa, 4)
        m_prime = m_iy * mu_arch_logderiv(pa, 4)
        target = maass_selberg_onaxis(y, c, m_iy, m_prime)
        sigmas = (1e-2, 1e-3, 1e-4)
        vals = []
        for sig in sigmas:
            m = mu_arch(ArchParams(Place.COMPLEX, complex(sig, y), 0.0, 0), 4)
            vals.append(maass_selberg(complex(sig, y), c, 1.0, abs(m), m.conjugate()))
        mat = np.array([[1.0, s, s * s] for s in sigmas])
        extrap = float(np.linalg.solve(mat, np.array(vals))[0])
        assert abs(extrap - target) < 1e-6


def test_maass_selberg_selfdual_branch():
    y0, c0 = 0.5, 2.0
    m0 = mu_global_factor(y0)
    h = 1e-5
    m0p = (mu_global_factor(y0 + h) - mu_global_factor(y0 - h)) / (2 * h) * (-1j)
    onax = maass_selberg_onaxis(y0, c0, m0, m0p, is_selfdual=True)
    sigmas = (1e-2, 1e-3, 1e-4)
    vals = []
    for sig in sigmas:
        s = complex(sig, y0)
        m = completed_zeta(1 - 2 * s) / completed_zeta(1 + 2 * s)
        vals.append(maass_selberg(s, c0, 1.0, abs(m), m.conjugate(), True))
    mat = np.array([[1.0, sg, sg * sg] for sg in sigmas])
    extrap = float(np.linalg.solve(mat, np.array(vals))[0])
    assert abs(extrap - onax) < 1e-5


def test_maass_selberg_selfdual_center_limit():
    # at the center the model value is -1 and the capped form stays finite,
    # bounded by 2 log c plus the derivative size
    h = 1e-5
    m0p = (mu_global_factor(2 * h) - mu_global_factor(h)) / h * (-1j)
    val = maass_selberg_onaxis(0.0, 2.0, -1.0 + 0j, m0p, is_selfdual=True)
    assert math.isfinite(val)
    assert abs(val) <= 2 * math.log(2.0) + abs(m0p) + abs(m0p.real) + 1e-9


def test_maass_selberg_guards():
    with pytest.raises(ValueError):
        maass_selberg(0.6j, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        maass_selberg(complex(0.1, 0.0), 2.0, 1.0, 1.0, 1.0, True)
    with pytest.raises(ValueError):
        maass_selberg_onaxis(0.5, 2.0, 2.0 + 0j, 0.0)


def test_heights():
    assert height_wn(Place.REAL, 0.0) == 1.0
    assert height_wn(Place.REAL, 2.0) == 0.25
    assert height_wn(Place.REAL, 0.5) == 1.0
    assert abs(height_wn(Place.COMPLEX, 2.0 + 0j) - 2.0**-4) < 1e-15
    assert height_wn(5, Fraction(1, 5)) == 5.0**-2
    assert height_wn(5, Fraction(1)) == 1.0
    assert height_wn(5, Fraction(0)) == 1.0
    # global/height-bound draws at the real and complex places and at p = 5
    rng = random.Random(1)
    for _ in range(100):
        assert height_wn(7, Fraction(rng.randint(-300, 300), rng.choice((1, 7, 49)))) <= 1.0


def test_sobolev_sums():
    s1 = sobolev_weight_sum(3, 50.0, 20)
    s2 = sobolev_weight_sum(3, 100.0, 40)
    s3 = sobolev_weight_sum(3, 200.0, 80)
    assert abs(s3 - s2) < 0.01 * abs(s2)
    assert abs(s3 - s2) < abs(s2 - s1)
    # termwise domination in the exponent
    assert sobolev_weight_sum(3, 50.0, 20) < sobolev_weight_sum(2, 50.0, 20)
    with pytest.raises(RangeError):
        sobolev_weight_sum(1, 10.0, 4)


def test_sobolev_slope():
    slope = sobolev_term_decay_slope(3)
    assert abs(slope - (4 - 12)) < 0.25
    slope2 = sobolev_term_decay_slope(2)
    assert abs(slope2 - (4 - 8)) < 0.25
