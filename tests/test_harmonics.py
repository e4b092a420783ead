import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine.errors import ParityError, RangeError
from intertwine.exact import PiLaurent, VarPoly
from intertwine.harmonics import (
    LieGen,
    SU2Point,
    W_INV_POINT,
    eval_poly_grid,
    gram_matrix,
    haar_integrate_su2,
    harmonic_so2,
    harmonic_su2,
    hopf_grid,
    lie_act_su2,
    norm_su2_closed,
    norm_su2_closed_exact,
    normalized_harmonic_su2,
    su2_from_integers,
)
from intertwine.numerics import QUAD_ABS_TOL, QUAD_MAX_HALVINGS, QUAD_REL_TOL, quad_halfline
from intertwine.verify import ACCEPTANCE_SIZES


def conj_poly(poly: VarPoly) -> VarPoly:
    return VarPoly(4, {(c, d, a, b): coeff.conjugate() for (a, b, c, d), coeff in poly.terms.items()})


def test_lowest_weight_vectors():
    assert harmonic_su2(0, 0, 0).poly == VarPoly.monomial(4, (0, 0, 0, 0))
    assert harmonic_su2(0, 2, 0).poly == VarPoly.monomial(4, (1, 0, 0, 1))
    # raising once from (0,2,0), divided by n - k = 2, reproduces k = 1
    raised = lie_act_su2(LieGen.XPLUS, harmonic_su2(0, 2, 0)).scale(PiLaurent.rational(Fraction(1, 2)))
    assert raised == harmonic_su2(0, 2, 1).poly


def test_index_validation():
    with pytest.raises(ParityError):
        harmonic_su2(1, 2, 0)
    with pytest.raises(RangeError):
        harmonic_su2(4, 2, 0)
    with pytest.raises(RangeError):
        harmonic_su2(0, 2, 3)


def test_ladder_exact_through_six():
    for n0 in range(-6, 7):
        for n in range(abs(n0), 7):
            if (n - n0) % 2:
                continue
            for k in range(n):
                lhs = lie_act_su2(LieGen.XPLUS, harmonic_su2(n0, n, k))
                assert lhs == harmonic_su2(n0, n, k + 1).poly.scale(n - k)
            # top of the ladder annihilates
            assert lie_act_su2(LieGen.XPLUS, harmonic_su2(n0, n, n)).is_zero()
            # lowest vector is killed by the lowering operator
            assert lie_act_su2(LieGen.XMINUS, harmonic_su2(n0, n, 0)).is_zero()


def test_weight_eigenvalues_exact():
    for (n0, n, k) in ((0, 2, 1), (2, 4, 0), (-1, 3, 2), (1, 5, 4)):
        h = harmonic_su2(n0, n, k)
        assert lie_act_su2(LieGen.LH, h) == h.poly.scale(PiLaurent.rational(0, -n0))
        assert lie_act_su2(LieGen.RH, h) == h.poly.scale(PiLaurent.rational(0, n - 2 * k))


def test_closed_norms():
    assert norm_su2_closed_exact(0, 0, 0) == 1
    assert norm_su2_closed_exact(0, 2, 1) == Fraction(1, 12)
    assert norm_su2_closed_exact(2, 2, 0) == Fraction(1, 3)


def test_norm_quadrature_oracle():
    for (n0, n, k) in ((2, 2, 0), (0, 2, 1), (1, 3, 1), (-2, 4, 2)):
        h = harmonic_su2(n0, n, k)
        quad = haar_integrate_su2(h.poly * conj_poly(h.poly)).real
        assert abs(quad - norm_su2_closed(n0, n, k)) < 1e-6


def test_gram_identity_through_four():
    harms = []
    for n in range(5):
        for n0 in range(-n, n + 1, 2):
            for k in range(n + 1):
                harms.append(normalized_harmonic_su2(n0, n, k))
    G = gram_matrix(harms)
    assert abs(G - np.eye(len(harms))).max() < 1e-6


def test_haar_basic_values():
    assert abs(haar_integrate_su2(VarPoly.monomial(4, (0, 0, 0, 0))) - 1.0) < 1e-10
    assert abs(haar_integrate_su2(VarPoly.monomial(4, (1, 0, 1, 0))) - 0.5) < 1e-10
    assert abs(haar_integrate_su2(VarPoly.monomial(4, (1, 0, 0, 1)))) < 1e-12


def test_measure_calibration():
    # product of the radial Gaussian moment and the polar constant: the
    # plane measure is twice Lebesgue per complex coordinate
    radial = quad_halfline(lambda r: math.exp(-r * r) * r**3).real
    total = 8 * math.pi**2 * radial
    assert abs(total - 4 * math.pi**2) < 1e-8


def test_su2_point_validation():
    with pytest.raises(ValueError):
        SU2Point(1.0 + 0j, 0.5 + 0j)
    pt = su2_from_integers(2, 1, 1, 1)
    assert abs(abs(pt.z1) ** 2 + abs(pt.z2) ** 2 - 1) < 1e-15


def test_quaternion_product_and_weyl():
    pt = su2_from_integers(1, 2, 3, 1)
    w_inv_pt = W_INV_POINT.mul(pt)
    assert abs(w_inv_pt.z1 - (-pt.z2.conjugate())) < 1e-15
    assert abs(w_inv_pt.z2 - pt.z1.conjugate()) < 1e-15


def test_so2_characters():
    assert harmonic_so2(0).poly == VarPoly.monomial(2, (0, 0))
    assert harmonic_so2(3).poly == VarPoly.monomial(2, (3, 0))
    assert harmonic_so2(-2).poly == VarPoly.monomial(2, (0, 2))
    # unit norm and orthogonality on the circle, trapezoid is exact here
    thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    zs = np.exp(1j * thetas)
    e3 = zs**3
    em2 = np.conj(zs) ** 2
    assert abs(np.mean(np.abs(e3) ** 2) - 1.0) < 1e-14
    assert abs(np.mean(e3 * np.conj(em2))) < 1e-14


def test_haar_moment_via_polar_identity():
    # |z1|^2 against the Gaussian-moment oracle: the plane integral of
    # exp(-r^2) |z1|^2 computed once with the polar constant 8 pi^2 and once
    # as a product of one-coordinate moments (plane measure twice Lebesgue)
    radial = quad_halfline(lambda r: math.exp(-r * r) * r**5).real
    haar_val = haar_integrate_su2(VarPoly.monomial(4, (1, 0, 1, 0))).real
    polar = 8 * math.pi**2 * radial * haar_val
    product = (2 * math.pi) * (2 * math.pi)  # moment factor times plain Gaussian mass
    assert abs(polar - product) < 1e-8 * product
    assert abs(haar_val - 0.5) < 1e-10


# ---------------------------------------------------------------------------
# the compact Hopf grid against the full meshgrid construction, bit for bit


def _meshgrid_hopf(n_theta: int, n_phi: int):
    """The Hopf grid as full (n_theta, n_phi, n_phi) meshgrids."""
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.25 * math.pi * (nodes + 1.0)
    wtheta = 0.25 * math.pi * wts * np.sin(theta) * np.cos(theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    T, P1, P2 = np.meshgrid(theta, phi, phi, indexing="ij")
    WT = np.meshgrid(wtheta, phi, phi, indexing="ij")[0]
    Zr1 = np.cos(T) * np.exp(1j * P1)
    Zr2 = np.sin(T) * np.exp(1j * P2)
    weights = WT * wphi * wphi / (2.0 * math.pi**2)
    return (Zr1, Zr2, np.conj(Zr1), np.conj(Zr2)), weights


def _eval_full(poly: VarPoly, values) -> np.ndarray:
    """Term-by-term evaluation on full-shape grids."""
    v1, v2, v3, v4 = values
    total = np.zeros(v1.shape, dtype=complex)
    for (a, b, c, d), coeff in poly.terms.items():
        term = np.ones_like(total)
        for v, e in ((v1, a), (v2, b), (v3, c), (v4, d)):
            if e:
                term = term * v**e
        total += complex(coeff) * term
    return total


def _haar_full(level) -> complex:
    """haar_integrate_su2's doubling loop over full-grid level values."""
    n = 12
    prev = level(n)
    for _ in range(QUAD_MAX_HALVINGS):
        n *= 2
        cur = level(n)
        if abs(cur - prev) <= max(QUAD_ABS_TOL * 10, QUAD_REL_TOL * 10 * abs(cur)):
            return cur
        prev = cur
    raise AssertionError("reference quadrature did not stabilize")


def _norm_integrand(n0: int, n: int, k: int) -> VarPoly:
    h = harmonic_su2(n0, n, k)
    return h.poly * conj_poly(h.poly)


@pytest.mark.parametrize("n_theta,n_phi", [(12, 12), (24, 24), (48, 48), (16, 20)])
def test_hopf_grid_equals_full_meshgrid(n_theta, n_phi):
    values, weights = hopf_grid(n_theta, n_phi)
    ref_values, ref_weights = _meshgrid_hopf(n_theta, n_phi)
    shape = (n_theta, n_phi, n_phi)
    assert [v.shape for v in values] == [(n_theta, n_phi, 1), (n_theta, 1, n_phi)] * 2
    assert weights.shape == (n_theta, 1, 1)
    for got, ref in zip(values + (weights,), ref_values + (ref_weights,)):
        assert np.array_equal(np.broadcast_to(got, shape), ref)


def test_hopf_grid_cached_and_read_only():
    values, weights = hopf_grid(12, 12)
    again = hopf_grid(12, 12)
    assert again[0] is values and again[1] is weights
    for arr in values + (weights,):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0


@pytest.mark.parametrize("n_theta", [12, 24, 48])
def test_eval_poly_grid_equals_full_grid(n_theta):
    values = hopf_grid(n_theta, n_theta)[0]
    ref_values = _meshgrid_hopf(n_theta, n_theta)[0]
    for triple in ACCEPTANCE_SIZES.norm_triples:
        poly = _norm_integrand(*triple)
        assert np.array_equal(eval_poly_grid(poly, values), _eval_full(poly, ref_values))


def _harmonics_through_four():
    """The 55 normalized harmonics with n <= 4 of the harmonics suite's Gram check."""
    return [
        normalized_harmonic_su2(n0, n, k)
        for n in range(5)
        for n0 in range(-n, n + 1, 2)
        for k in range(n + 1)
    ]


def test_gram_matrix_equals_full_grid():
    harms = _harmonics_through_four()
    assert len(harms) == 55
    ref_values, ref_weights = _meshgrid_hopf(24, 24)
    rows = np.array([_eval_full(h.poly, ref_values).ravel() for h in harms])
    ref = (rows * ref_weights.ravel()) @ np.conj(rows.T)
    assert np.array_equal(gram_matrix(harms), ref)


def test_gram_matrix_peak_memory():
    harms = _harmonics_through_four()
    gram_matrix(harms)  # fill the grid and coefficient caches
    rows_nbytes = len(harms) * 24**3 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        gram_matrix(harms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sampled rows and their weighted copy; no third grid-sized array
    assert peak < 2.2 * rows_nbytes


def test_haar_polynomial_path_equals_full_grid():
    for triple in ACCEPTANCE_SIZES.norm_triples:
        poly = _norm_integrand(*triple)

        def level(n):
            values, weights = _meshgrid_hopf(n, n)
            return complex(np.sum(_eval_full(poly, values) * weights))

        assert haar_integrate_su2(poly) == _haar_full(level)


# ---------------------------------------------------------------------------
# float coefficient views against a conversion on every call


exact_rational = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)
pi_laurent = st.dictionaries(
    st.integers(min_value=-3, max_value=3), st.tuples(exact_rational, exact_rational), max_size=4
).map(PiLaurent)


def _complex_by_fractions(x: PiLaurent) -> complex:
    """Each coefficient converted through Fraction arithmetic."""
    total = 0j
    for k, (re, im) in x.terms.items():
        total += complex(re + im * 1j) * math.pi**k
    return total


@settings(max_examples=60, deadline=None)
@given(pi_laurent)
def test_pi_laurent_complex_matches_fraction_conversion(x):
    assert repr(complex(x)) == repr(_complex_by_fractions(x))  # repr tells -0.0 from 0.0


def test_pi_laurent_complex_edge_terms():
    for x in (
        PiLaurent.rational(0, Fraction(-3, 7)),  # zero real part, negative imaginary part
        PiLaurent.pi_power(-2, Fraction(5, 3), Fraction(-1, 9)),  # negative power of pi
        PiLaurent({-1: (Fraction(-1, 3), Fraction(0)), 2: (Fraction(0), Fraction(-2))}),
        PiLaurent(),
    ):
        assert repr(complex(x)) == repr(_complex_by_fractions(x))


@settings(max_examples=20, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * 4), pi_laurent, min_size=1, max_size=5),
    st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
)
def test_varpoly_evaluate_matches_conversion_per_call(terms, values):
    poly = VarPoly(4, terms)
    ref = 0j
    for key, c in poly.terms.items():
        prod = _complex_by_fractions(c)
        for v, e in zip(values, key):
            if e:
                prod *= v**e
        ref += prod
    assert repr(poly.evaluate(values)) == repr(ref)
    assert repr(poly.evaluate(values)) == repr(ref)  # a second call reads the cached view
