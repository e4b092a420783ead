import math
import random
from fractions import Fraction

import numpy as np
import pytest

from intertwine.errors import ParityError, RangeError
from intertwine.exact import PiLaurent, VarPoly
from intertwine.harmonics import W_INV_POINT, SU2Point, harmonic_su2, hopf_point, su2_exact_values, su2_from_integers
from intertwine.schwartz import (
    PolyGaussian2,
    PolyGaussian4,
    fourier_hat_c,
    fourier_hat_h,
    k_act,
    restrict_circle,
    restrict_sphere,
    section_so2,
    section_su2,
)


def random_poly4(rng: random.Random, max_deg: int = 3) -> PolyGaussian4:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, max_deg) for _ in range(4))
        terms[key] = PiLaurent.rational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
        )
    return PolyGaussian4(VarPoly(4, terms))


def test_gaussian_fixed_point():
    g = PolyGaussian4.gaussian()
    assert fourier_hat_h(g) == g
    g2 = PolyGaussian2.gaussian()
    assert fourier_hat_c(g2) == g2


def test_gaussian_fixed_point_against_quadrature():
    # the twisted kernel integral at sample points, Gauss-Hermite grid per
    # real coordinate with the plane measure twice Lebesgue
    nodes, weights = np.polynomial.hermite.hermgauss(24)
    xs = nodes / math.sqrt(2 * math.pi)
    ws = weights / math.sqrt(2 * math.pi)
    X1, Y1, X2, Y2 = np.meshgrid(xs, xs, xs, xs, indexing="ij")
    WW = (
        ws[:, None, None, None]
        * ws[None, :, None, None]
        * ws[None, None, :, None]
        * ws[None, None, None, :]
    )
    U1 = X1 + 1j * Y1
    U2 = X2 + 1j * Y2
    samples = [(0.2 + 0.1j, -0.3 + 0.05j), (0.0j, 0.4 + 0.0j), (0.25 - 0.2j, 0.1 + 0.3j)]
    for z1, z2 in samples:
        phase = np.exp(
            -2j
            * math.pi
            * (z1 * U2 - z2 * U1 + np.conj(z1) * np.conj(U2) - np.conj(z2) * np.conj(U1))
        )
        val = 4.0 * np.sum(WW * phase)  # the Gaussian weight is inside hermgauss
        expected = math.exp(-2 * math.pi * (abs(z1) ** 2 + abs(z2) ** 2))
        assert abs(val - expected) < 1e-6


def test_section_transform_images():
    # hat of the weight-(n0, n) section is i^(n0) times the opposite section
    for (n0, n) in ((0, 0), (0, 2), (2, 2), (1, 3), (-2, 4), (3, 5), (-1, 5), (0, 6)):
        lhs = fourier_hat_h(section_su2(n0, n))
        rhs = section_su2(-n0, n).scale(PiLaurent.i_power(n0))
        assert lhs == rhs


def test_involution_exact_4var():
    rng = random.Random(3)
    for _ in range(8):
        phi = random_poly4(rng)
        assert fourier_hat_h(fourier_hat_h(phi)) == phi


def test_involution_exact_2var():
    for n in range(-6, 7):
        p = PolyGaussian2.monomial(((abs(n) + n) // 2, (abs(n) - n) // 2))
        assert fourier_hat_c(fourier_hat_c(p)) == p
    phi = PolyGaussian2(VarPoly(2, {(2, 1): PiLaurent.rational(Fraction(1, 3), 2), (0, 3): PiLaurent.rational(-2)}))
    assert fourier_hat_c(fourier_hat_c(phi)) == phi


def test_so2_section_transform_sign():
    for n in range(-5, 6):
        lhs = fourier_hat_c(section_so2(n))
        rhs = section_so2(n).scale(PiLaurent.rational((-1) ** ((abs(n) - n) // 2)))
        assert lhs == rhs


def test_k_equivariance_exact():
    rng = random.Random(5)
    phi = random_poly4(rng, max_deg=2)
    for quad in ((1, 1, 1, 0), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (3, 1, 2, 1)):
        kap = su2_exact_values(*quad)
        assert fourier_hat_h(k_act(kap, phi)) == k_act(kap, fourier_hat_h(phi))
    phi2 = PolyGaussian2(VarPoly(2, {(2, 0): PiLaurent.rational(1), (1, 2): PiLaurent.rational(0, Fraction(1, 2))}))
    for (a, b, c) in ((3, 4, 5), (5, 12, 13), (8, 15, 17)):
        rot = (PiLaurent.rational(Fraction(a, c), Fraction(b, c)), PiLaurent.rational(Fraction(a, c), Fraction(-b, c)))
        assert fourier_hat_c(k_act(rot, phi2)) == k_act(rot, fourier_hat_c(phi2))


def test_k_act_identity_and_torus():
    phi = section_su2(1, 3)
    ident = su2_exact_values(1, 0, 0, 0)
    assert k_act(ident, phi) == phi
    # left torus translation scales the section by the opposite weight
    for (a, b, c) in ((3, 4, 5), (5, 12, 13)):
        rot = complex(Fraction(a, c), Fraction(b, c))
        kap = su2_from_integers(2, 1, 1, 1)
        from intertwine.harmonics import SU2Point

        left = SU2Point(rot * kap.z1, rot * kap.z2)
        lhs = restrict_sphere(phi, left)
        rhs = rot.conjugate() ** 1 * restrict_sphere(phi, kap)
        assert abs(lhs - rhs) < 1e-14


def _ref_k_act(kappa, phi):
    """The hand-written per-class rotation images, frozen."""
    z1, z2, z1c, z2c = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    if isinstance(phi, PolyGaussian4):
        k1, k2, k1c, k2c = kappa.values() if isinstance(kappa, SU2Point) else kappa
        images = [
            VarPoly(4, {z1: k1, z2: -k2c}),
            VarPoly(4, {z1: k2, z2: k1c}),
            VarPoly(4, {z1c: k1c, z2c: -k2}),
            VarPoly(4, {z1c: k2c, z2c: k1}),
        ]
        return PolyGaussian4(phi.poly.substitute(images))
    c, cc = (kappa, kappa.conjugate()) if isinstance(kappa, complex) else kappa
    return PolyGaussian2(phi.poly.substitute([VarPoly(2, {(1, 0): c}), VarPoly(2, {(0, 1): cc})]))


def _term_bits(phi) -> list:
    return [(key, complex(c).real.hex(), complex(c).imag.hex()) for key, c in phi.poly.terms.items()]


def test_k_act_is_bitwise_the_hand_written_images():
    rng = random.Random(11)
    for quad in ((1, 1, 1, 0), (2, 1, 1, 1), (3, 1, 2, 1)):
        kap = su2_exact_values(*quad)
        phi = random_poly4(rng, max_deg=3)
        assert _term_bits(k_act(kap, phi)) == _term_bits(_ref_k_act(kap, phi))
    floats4 = PolyGaussian4(VarPoly(4, {(1, 0, 2, 0): 0.5 - 1.25j, (0, 2, 0, 1): 2 + 0j, (1, 1, 1, 1): -0.75j}))
    for angles in ((0.6, 0.4, 1.2), (1.0, 5.0, 2.6), (0.9, 1.7, 5.5)):
        kap = hopf_point(*angles)
        for phi in (floats4, section_su2(1, 3), section_su2(-2, 4)):
            assert _term_bits(k_act(kap, phi)) == _term_bits(_ref_k_act(kap, phi))
    exact2 = PolyGaussian2(VarPoly(2, {(2, 0): PiLaurent.rational(1), (1, 2): PiLaurent.rational(0, Fraction(1, 2))}))
    rot = (PiLaurent.rational(Fraction(3, 5), Fraction(4, 5)), PiLaurent.rational(Fraction(3, 5), Fraction(-4, 5)))
    assert _term_bits(k_act(rot, exact2)) == _term_bits(_ref_k_act(rot, exact2))
    floats2 = PolyGaussian2(VarPoly(2, {(2, 1): 0.5 - 1.25j, (0, 3): 2 + 0j, (1, 1): 0.3j}))
    for t in (0.3, 1.1, 4.0):
        kap = complex(math.cos(t), math.sin(t))
        for phi in (floats2, section_so2(3), section_so2(-4)):
            assert _term_bits(k_act(kap, phi)) == _term_bits(_ref_k_act(kap, phi))


def test_k_act_rejects_other_operands():
    with pytest.raises(TypeError):
        k_act(1 + 0j, VarPoly(2, {(1, 0): 1.0}))
    with pytest.raises(TypeError):
        k_act(hopf_point(0.6, 0.4, 1.2), PolyGaussian2.gaussian())
    with pytest.raises(TypeError):
        k_act(1 + 0j, PolyGaussian4.gaussian())


def test_restrict_sphere_values():
    e2pi = math.exp(-2 * math.pi)
    g = PolyGaussian4.gaussian()
    for quad in ((1, 1, 1, 0), (2, 1, 1, 1), (1, 2, 3, 1)):
        kap = su2_from_integers(*quad)
        assert abs(restrict_sphere(g, kap) - e2pi) < 1e-15
    # the section through the Weyl point restricts to the harmonic
    for (n0, n) in ((0, 2), (1, 3), (-2, 4), (2, 2)):
        phi = section_su2(n0, n)
        h = harmonic_su2(n0, n, 0)
        for quad in ((1, 2, 3, 1), (2, 1, 1, 1), (1, 1, 1, 1), (3, 1, 2, 1), (1, 3, 1, 2)):
            kap = su2_from_integers(*quad)
            lhs = restrict_sphere(phi, W_INV_POINT.mul(kap))
            assert abs(lhs - e2pi * h(kap)) < 1e-14


def test_restrict_linearity():
    rng = random.Random(9)
    a, b = random_poly4(rng), random_poly4(rng)
    kap = su2_from_integers(1, 1, 1, 0)
    lhs = restrict_sphere(a + b.scale(PiLaurent.rational(2)), kap)
    rhs = restrict_sphere(a, kap) + 2 * restrict_sphere(b, kap)
    assert abs(lhs - rhs) < 1e-14


def test_so2_section_restriction():
    for n in (-3, -1, 0, 1, 2, 4):
        phi = section_so2(n)
        for theta in (0.3, 1.2, 2.9):
            c = complex(math.cos(theta), math.sin(theta))
            en = c**n if n >= 0 else c.conjugate() ** (-n)
            lhs = restrict_circle(phi, 1j * c)  # the Weyl point of the circle is i
            assert abs(lhs - math.exp(-math.pi) * en) < 1e-14


def test_transform_against_kernel_quadrature_degree_two():
    # symbolic transform of a mixed monomial against the honest 4D integral
    nodes, weights = np.polynomial.hermite.hermgauss(28)
    xs = nodes / math.sqrt(2 * math.pi)
    ws = weights / math.sqrt(2 * math.pi)
    X1, Y1, X2, Y2 = np.meshgrid(xs, xs, xs, xs, indexing="ij")
    WW = (
        ws[:, None, None, None]
        * ws[None, :, None, None]
        * ws[None, None, :, None]
        * ws[None, None, None, :]
    )
    U1 = X1 + 1j * Y1
    U2 = X2 + 1j * Y2
    phi = PolyGaussian4(VarPoly(4, {(1, 0, 0, 1): PiLaurent.rational(1), (0, 1, 1, 0): PiLaurent.rational(0, 2)}))
    phi_hat = fourier_hat_h(phi)
    poly_vals = U1 * np.conj(U2) + 2j * U2 * np.conj(U1)
    for z1, z2 in ((0.2 + 0.1j, -0.3 + 0.05j), (0.15 - 0.25j, 0.2 + 0.2j)):
        phase = np.exp(
            -2j * math.pi * (z1 * U2 - z2 * U1 + np.conj(z1) * np.conj(U2) - np.conj(z2) * np.conj(U1))
        )
        val = 4.0 * np.sum(WW * poly_vals * phase)
        assert abs(val - phi_hat(z1, z2)) < 1e-6


def test_transform_against_kernel_quadrature_two_slots():
    # the two-slot transform against its kernel integral
    # int poly(u, conj u) exp(-pi |u|^2) exp(-pi (u conj z - conj u z)) du
    # under Lebesgue measure on C, Gauss-Hermite per real coordinate
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    xs = nodes / math.sqrt(math.pi)
    ws = weights / math.sqrt(math.pi)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    WW = ws[:, None] * ws[None, :]
    U = X + 1j * Y
    mixed = PolyGaussian2(
        VarPoly(2, {(2, 0): PiLaurent.rational(1), (1, 1): PiLaurent.rational(0, Fraction(1, 2)), (0, 3): PiLaurent.rational(-2)})
    )
    cases = ((PolyGaussian2.gaussian(), np.ones_like(U)), (mixed, U**2 + 0.5j * U * np.conj(U) - 2 * np.conj(U) ** 3))
    for phi, poly_vals in cases:
        phi_hat = fourier_hat_c(phi)
        for z in (0.2 + 0.1j, -0.3 + 0.25j):
            phase = np.exp(-math.pi * (U * np.conj(z) - np.conj(U) * z))
            val = np.sum(WW * poly_vals * phase)
            assert abs(val - phi_hat(z)) < 1e-12


def test_section_su2_rejects_inadmissible_weights():
    with pytest.raises(ParityError):
        section_su2(0, 1)
    with pytest.raises(RangeError):
        section_su2(2, 0)


def test_classes_of_different_slot_counts_never_equal():
    assert PolyGaussian4.gaussian() != PolyGaussian2.gaussian()
    assert PolyGaussian2.gaussian() == PolyGaussian2.monomial((0, 0))


def test_evaluation_takes_one_point_per_variable():
    with pytest.raises(TypeError):
        PolyGaussian4.gaussian()(0.1j)
    with pytest.raises(TypeError):
        PolyGaussian2.gaussian()(0.1j, 0.2)
