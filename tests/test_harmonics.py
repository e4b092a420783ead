import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import harmonics, verify
from intertwine.errors import ParityError, RangeError
from intertwine.exact import PiLaurent, VarPoly
from intertwine.harmonics import (
    HarmonicSU2,
    LieGen,
    SU2Point,
    W_INV_POINT,
    _hopf_factors,
    gram_matrix,
    haar_integrate_su2,
    harmonic_su2,
    hopf_grid,
    lie_act_su2,
    norm_su2_closed,
    norm_su2_closed_exact,
    normalized_harmonic_su2,
    su2_from_integers,
)
from intertwine.numerics import quad_halfline
from intertwine.schwartz import section_so2


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
    radial = quad_halfline(lambda r: np.exp(-r * r) * r**3).real
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
    # the degree-n character is exp(pi) section_so2(n) at i z; unit norm and
    # orthogonality on the circle, trapezoid is exact here
    thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    zs = np.exp(1j * thetas)
    e3, em2 = (np.array([math.exp(math.pi) * section_so2(n)(1j * z) for z in zs]) for n in (3, -2))
    assert abs(np.mean(np.abs(e3) ** 2) - 1.0) < 1e-14
    assert abs(np.mean(e3 * np.conj(em2))) < 1e-14


def test_haar_moment_via_polar_identity():
    # |z1|^2 against the Gaussian-moment oracle: the plane integral of
    # exp(-r^2) |z1|^2 computed once with the polar constant 8 pi^2 and once
    # as a product of one-coordinate moments (plane measure twice Lebesgue)
    radial = quad_halfline(lambda r: np.exp(-r * r) * r**5).real
    haar_val = haar_integrate_su2(VarPoly.monomial(4, (1, 0, 1, 0))).real
    polar = 8 * math.pi**2 * radial * haar_val
    product = (2 * math.pi) * (2 * math.pi)  # moment factor times plain Gaussian mass
    assert abs(polar - product) < 1e-8 * product
    assert abs(haar_val - 0.5) < 1e-10


# ---------------------------------------------------------------------------
# the separable Hopf-grid quadrature against the full meshgrid construction


@lru_cache(maxsize=None)
def _meshgrid_hopf(n_theta: int, n_phi: int):
    """The Hopf grid as full (n_theta, n_phi, n_phi) meshgrids: Gauss-Legendre
    in x = cos^2(theta), with cos(theta) = sqrt(x) and sin(theta) = sqrt(1 - x)."""
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    C, P1, P2 = np.meshgrid(np.sqrt(0.5 * (1.0 + nodes)), phi, phi, indexing="ij")
    S = np.meshgrid(np.sqrt(0.5 * (1.0 - nodes)), phi, phi, indexing="ij")[0]
    W = np.meshgrid(wts, phi, phi, indexing="ij")[0]
    Zr1 = C * np.exp(1j * P1)
    Zr2 = S * np.exp(1j * P2)
    return (Zr1, Zr2, np.conj(Zr1), np.conj(Zr2)), W / (2 * n_phi * n_phi)


def _theta_meshgrid_hopf(n: int):
    """An independent Hopf rule on full n x n x n meshgrids: Gauss-Legendre in
    theta on [0, pi/2] with the density sin(theta) cos(theta) in the weights."""
    nodes, wts = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * math.pi * (nodes + 1.0)
    wtheta = 0.25 * math.pi * wts * np.sin(theta) * np.cos(theta)
    phi = 2.0 * math.pi * np.arange(n) / n
    T, P1, P2 = np.meshgrid(theta, phi, phi, indexing="ij")
    WT = np.meshgrid(wtheta, phi, phi, indexing="ij")[0]
    Zr1 = np.cos(T) * np.exp(1j * P1)
    Zr2 = np.sin(T) * np.exp(1j * P2)
    return (Zr1, Zr2, np.conj(Zr1), np.conj(Zr2)), WT * (2.0 * math.pi / n) ** 2 / (2.0 * math.pi**2)


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


def _norm_integrand(n0: int, n: int, k: int) -> VarPoly:
    h = harmonic_su2(n0, n, k)
    return h.poly * conj_poly(h.poly)


def _su2_triples(n_max: int):
    return [(n0, n, k) for n in range(n_max + 1) for n0 in range(-n, n + 1, 2) for k in range(n + 1)]


@pytest.mark.parametrize("n_theta,n_phi", [(1, 1), (3, 9), (12, 12), (24, 24), (48, 48), (16, 20)])
def test_hopf_grid_equals_full_meshgrid(n_theta, n_phi):
    values, weights = hopf_grid(n_theta, n_phi)
    ref_values, ref_weights = _meshgrid_hopf(n_theta, n_phi)
    shape = (n_theta, n_phi, n_phi)
    assert [v.shape for v in values] == [(n_theta, n_phi, 1), (n_theta, 1, n_phi)] * 2
    assert weights.shape == (n_theta, 1, 1)
    for got, ref in zip(values + (weights,), ref_values + (ref_weights,)):
        assert np.array_equal(np.broadcast_to(got, shape), ref)
    assert abs(np.sum(ref_weights) - 1.0) < 1e-15


def test_hopf_grid_cached_and_read_only():
    values, weights = hopf_grid(12, 12)
    again = hopf_grid(12, 12)
    assert again[0] is values and again[1] is weights
    for arr in values + (weights,):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0


@pytest.mark.parametrize("degree", [0, 3, 8, 12, 24, 48])
def test_hopf_factors_equal_full_grid(degree):
    # degree // 4 + 1 nodes in x and degree + 1 points per phi axis; A(theta,
    # phi1) B(theta, phi2) is the monomial on the full grid, and the theta
    # weights are the full grid's weights
    n_theta, n_phi = degree // 4 + 1, degree + 1
    keys = list(dict.fromkeys(key for triple in _su2_triples(4) for key in _norm_integrand(*triple).terms))
    A, ia, B, ib, w = _hopf_factors(keys, degree)
    # one factor per distinct (a, c) and per distinct (b, d) pair
    assert A.shape == (len({(a, c) for a, _, c, _ in keys}), n_theta, n_phi)
    assert B.shape == (len({(b, d) for _, b, _, d in keys}), n_theta, n_phi)
    ref_values, ref_weights = _meshgrid_hopf(n_theta, n_phi)
    assert np.array_equal(np.broadcast_to(w[:, None, None], ref_weights.shape), ref_weights)
    for t, key in enumerate(keys):
        ref = _eval_full(VarPoly.monomial(4, key), ref_values)
        assert abs(A[ia[t], :, :, None] * B[ib[t], :, None, :] - ref).max() < 1e-15


def _harmonics_through_four():
    """The 55 normalized harmonics with n <= 4 of the harmonics suite's Gram check."""
    return [normalized_harmonic_su2(*triple) for triple in _su2_triples(4)]


def test_gram_matrix_matches_full_grid():
    # degree 8 products: the same 3 x 9 x 9 rule summed in another order
    harms = _harmonics_through_four()
    assert len(harms) == 55
    ref_values, ref_weights = _meshgrid_hopf(3, 9)
    rows = np.array([_eval_full(h.poly, ref_values).ravel() for h in harms])
    ref = (rows * ref_weights.ravel()) @ np.conj(rows.T)
    assert abs(gram_matrix(harms) - ref).max() < 1e-14


def test_gram_matrix_peak_memory():
    harms = _harmonics_through_four()
    gram_matrix(harms)  # fill the grid and coefficient caches
    tracemalloc.start()
    try:
        gram_matrix(harms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.79 MB measured on the 3 x 9 x 9 grid (numpy 2.4), with 26 % headroom;
    # the 55 harmonics sampled on a 24 x 24 x 24 grid take 12 MB, and their
    # separable factors on the 24 x 24 Hopf grid peak at 4.5 MB
    assert peak < 1_000_000


def test_haar_norm_integrands_match_full_grid():
    # every norm integrand with n <= 6 against GL in theta on a 48^3 grid
    ref_values, ref_weights = _theta_meshgrid_hopf(48)
    for triple in _su2_triples(6):
        poly = _norm_integrand(*triple)
        ref = complex(np.sum(_eval_full(poly, ref_values) * ref_weights))
        assert abs(haar_integrate_su2(poly) - ref) < 1e-14 * abs(ref)


def test_haar_monomial_moments_exact():
    # every monomial of total degree <= 12 or with exponents <= 4, each on the
    # grid sized for its own degree: int |z1|^2a |z2|^2b dk = a! b! / (a + b + 1)!,
    # and every monomial with a phase integrates to zero
    for key in itertools.product(range(13), repeat=4):
        if sum(key) > 12 and max(key) > 4:
            continue
        got = haar_integrate_su2(VarPoly.monomial(4, key))
        a, b, c, d = key
        if (a, b) == (c, d):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 1)
            assert abs(got - exact) < 1e-14 * exact
        else:
            assert abs(got) < 1e-15


# ---------------------------------------------------------------------------
# the checks of the harmonics suite can fail


def _case(report, key):
    return next(c for c in report.cases if c.key == key)


def test_gram_identity_catches_one_perturbed_coefficient(monkeypatch):
    def perturbed(n0, n, k):
        h = normalized_harmonic_su2(n0, n, k)
        if (n0, n, k) != (0, 4, 0):
            return h
        ((key, c),) = h.poly.terms.items()  # z1^2 conj(z2)^2, one term
        return HarmonicSU2(n0, n, k, VarPoly(4, {key: c * (1 + 1e-6)}))

    assert _case(verify.suite_harmonics(), "harmonics/gram-identity").passed
    monkeypatch.setattr(verify, "normalized_harmonic_su2", perturbed)
    assert not _case(verify.suite_harmonics(), "harmonics/gram-identity").passed


def test_ladder_exact_catches_a_sign_flip(monkeypatch):
    # Xplus with +d (a, b, c+1, d-1) in place of -d (a, b, c+1, d-1)
    assert _case(verify.suite_harmonics(), "harmonics/ladder-exact").passed
    monkeypatch.setitem(harmonics._LIE_PARTS, LieGen.XPLUS, (None, ((0, 1, 1), (3, 2, 1))))
    assert not _case(verify.suite_harmonics(), "harmonics/ladder-exact").passed


# ---------------------------------------------------------------------------
# the one-pass Lie action against derivatives and monomial multiplications

_Z1, _Z2, _Z1C, _Z2C = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def _lie_act_composed(gen: LieGen, poly: VarPoly) -> VarPoly:
    """Each generator as sums of deriv and mul_monomial polynomials."""
    d1, d2 = poly.deriv(0), poly.deriv(1)
    db1, db2 = poly.deriv(2), poly.deriv(3)
    if gen is LieGen.LH:
        combo = (
            d1.mul_monomial(_Z1)
            + db1.mul_monomial(_Z1C).scale(-1)
            + d2.mul_monomial(_Z2)
            + db2.mul_monomial(_Z2C).scale(-1)
        )
        return combo.scale(PiLaurent.rational(0, -1))
    if gen is LieGen.RH:
        combo = (
            d1.mul_monomial(_Z1)
            + db1.mul_monomial(_Z1C).scale(-1)
            + d2.mul_monomial(_Z2).scale(-1)
            + db2.mul_monomial(_Z2C)
        )
        return combo.scale(PiLaurent.rational(0, 1))
    if gen is LieGen.XPLUS:
        return d1.mul_monomial(_Z2) + db2.mul_monomial(_Z1C).scale(-1)
    return d2.mul_monomial(_Z1) + db1.mul_monomial(_Z2C).scale(-1)


def _assert_same_action(poly: VarPoly):
    for gen in LieGen:
        got, ref = lie_act_su2(gen, poly), _lie_act_composed(gen, poly)
        assert got.terms == ref.terms
        assert list(got.terms) == list(ref.terms)


def test_lie_action_equals_composition_on_harmonics():
    for triple in _su2_triples(6):
        _assert_same_action(harmonic_su2(*triple).poly)
        _assert_same_action(normalized_harmonic_su2(*triple).poly)


# ---------------------------------------------------------------------------
# float coefficient views against a conversion on every call


exact_rational = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)
pi_laurent = st.dictionaries(
    st.integers(min_value=-3, max_value=3), st.tuples(exact_rational, exact_rational), max_size=4
).map(PiLaurent)


def _complex_by_fractions(x: PiLaurent) -> complex:
    """Each coefficient converted through Fraction arithmetic."""
    total = 0j
    for k, (re, im) in x.fraction_terms().items():
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


def _scalar_pool(size: int = 32) -> tuple:
    """Zero and size - 1 fixed scalars of one to four pi-power terms, each
    coefficient a rational pair with numerators in [-9, 9] and denominators
    up to 12 (the range of pi_laurent, drawn once instead of per example)."""
    rng = random.Random(424)

    def ratio() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    pool = [PiLaurent()]
    while len(pool) < size:
        pool.append(PiLaurent({rng.randint(-3, 3): (ratio(), ratio()) for _ in range(rng.randint(1, 4))}))
    return tuple(pool)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * 4), st.sampled_from(_scalar_pool()),
                       max_size=8))
def test_lie_action_equals_composition_on_drawn_polynomials(terms):
    _assert_same_action(VarPoly(4, terms))
