"""Polynomial-times-Gaussian Schwartz classes with exact twisted transforms.

Two families, both exactly closed under their Fourier transform:

  * four-variable class: poly(z1, z2, conj z1, conj z2) * exp(-2 pi (|z1|^2 + |z2|^2)),
    transform kernel exp(-2 pi i (z1 u2 - z2 u1 + conj z1 conj u2 - conj z2 conj u1)),
    which already carries the Weyl twist (the plain transform composed with
    right translation by the inverse rotation);

  * two-variable class: poly(z, conj z) * exp(-pi |z|^2), kernel
    exp(-pi (u conj z - conj u z)).

The transforms are computed by peeling one variable at a time through the
multiplication/derivation interchange of the kernel, so the result is exact
in the PiLaurent coefficient ring; the involution hat(hat(Phi)) = Phi and the
rotation equivariance hat(kappa.Phi)(z) = hat(Phi)(z kappa) are coefficient
identities, not numerical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import ONE, PiLaurent, VarPoly
from .harmonics import SU2Point

_E2PI = math.exp(-2.0 * math.pi)

# scalars used by the interchange rules
_I_OVER_2PI = PiLaurent.pi_power(-1, 0, Fraction(1, 2))      # i / (2 pi)
_MINUS_I_OVER_2PI = PiLaurent.pi_power(-1, 0, Fraction(-1, 2))
_MINUS_2PI = PiLaurent.pi_power(1, -2)
_MINUS_PI = PiLaurent.pi_power(1, -1)
_ONE_OVER_PI = PiLaurent.pi_power(-1, 1)
_MINUS_ONE_OVER_PI = PiLaurent.pi_power(-1, -1)


@dataclass(frozen=True)
class PolyGaussian4:
    """poly * exp(-2 pi (|z1|^2 + |z2|^2)) with poly in (z1, z2, conj z1, conj z2)."""

    poly: VarPoly

    @classmethod
    def monomial(cls, expts: tuple[int, int, int, int], coeff=ONE) -> "PolyGaussian4":
        return cls(VarPoly.monomial(4, expts, coeff))

    @classmethod
    def gaussian(cls) -> "PolyGaussian4":
        return cls.monomial((0, 0, 0, 0))

    def scale(self, s) -> "PolyGaussian4":
        return PolyGaussian4(self.poly.scale(s))

    def __add__(self, other: "PolyGaussian4") -> "PolyGaussian4":
        return PolyGaussian4(self.poly + other.poly)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyGaussian4):
            return NotImplemented
        return self.poly == other.poly

    def __call__(self, z1: complex, z2: complex) -> complex:
        gauss = math.exp(-2.0 * math.pi * (abs(z1) ** 2 + abs(z2) ** 2))
        return gauss * self.poly.evaluate((z1, z2, z1.conjugate(), z2.conjugate()))


@dataclass(frozen=True)
class PolyGaussian2:
    """poly * exp(-pi |z|^2) with poly in (z, conj z)."""

    poly: VarPoly

    @classmethod
    def monomial(cls, expts: tuple[int, int], coeff=ONE) -> "PolyGaussian2":
        return cls(VarPoly.monomial(2, expts, coeff))

    @classmethod
    def gaussian(cls) -> "PolyGaussian2":
        return cls.monomial((0, 0))

    def scale(self, s) -> "PolyGaussian2":
        return PolyGaussian2(self.poly.scale(s))

    def __add__(self, other: "PolyGaussian2") -> "PolyGaussian2":
        return PolyGaussian2(self.poly + other.poly)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyGaussian2):
            return NotImplemented
        return self.poly == other.poly

    def __call__(self, z: complex) -> complex:
        gauss = math.exp(-math.pi * abs(z) ** 2)
        return gauss * self.poly.evaluate((z, z.conjugate()))


# Wirtinger derivatives of poly * Gaussian, returned as the polynomial part.
# The Gaussian exp(-2 pi (z1 conj z1 + z2 conj z2)) contributes -2 pi times
# the conjugate variable.

def _d4(poly: VarPoly, var: int) -> VarPoly:
    partner = {0: (0, 0, 1, 0), 1: (0, 0, 0, 1), 2: (1, 0, 0, 0), 3: (0, 1, 0, 0)}[var]
    return poly.deriv(var) + poly.mul_monomial(partner, _MINUS_2PI)


def _d2(poly: VarPoly, var: int) -> VarPoly:
    partner = {0: (0, 1), 1: (1, 0)}[var]
    return poly.deriv(var) + poly.mul_monomial(partner, _MINUS_PI)


@lru_cache(maxsize=None)
def _hat4_monomial(key: tuple[int, int, int, int]) -> VarPoly:
    """Transform of the monomial-times-Gaussian, polynomial part only.

    Peeling rules, with T the transform of the remaining factor:
      z1:      -(i/2pi) d_{z2} T        z2:      +(i/2pi) d_{z1} T
      conj z1: -(i/2pi) d_{conj z2} T   conj z2: +(i/2pi) d_{conj z1} T
    The base Gaussian is its own transform under the twisted kernel.
    """
    a, b, c, d = key
    if key == (0, 0, 0, 0):
        return VarPoly.monomial(4, (0, 0, 0, 0))
    if a:
        return _d4(_hat4_monomial((a - 1, b, c, d)), 1).scale(_MINUS_I_OVER_2PI)
    if b:
        return _d4(_hat4_monomial((a, b - 1, c, d)), 0).scale(_I_OVER_2PI)
    if c:
        return _d4(_hat4_monomial((a, b, c - 1, d)), 3).scale(_MINUS_I_OVER_2PI)
    return _d4(_hat4_monomial((a, b, c, d - 1)), 2).scale(_I_OVER_2PI)


def fourier_hat_h(phi: PolyGaussian4) -> PolyGaussian4:
    """Exact twisted Fourier transform on the four-variable class."""
    total = VarPoly.zero(4)
    for key, coeff in phi.poly.terms.items():
        total = total + _hat4_monomial(key).scale(coeff)
    return PolyGaussian4(total)


@lru_cache(maxsize=None)
def _hat2_monomial(key: tuple[int, int]) -> VarPoly:
    a, b = key
    if key == (0, 0):
        return VarPoly.monomial(2, (0, 0))
    if a:
        return _d2(_hat2_monomial((a - 1, b)), 1).scale(_MINUS_ONE_OVER_PI)
    return _d2(_hat2_monomial((a, b - 1)), 0).scale(_ONE_OVER_PI)


def fourier_hat_c(phi: PolyGaussian2) -> PolyGaussian2:
    """Exact twisted Fourier transform on the two-variable class."""
    total = VarPoly.zero(2)
    for key, coeff in phi.poly.terms.items():
        total = total + _hat2_monomial(key).scale(coeff)
    return PolyGaussian2(total)


def k_act(kappa, phi):
    """Right rotation action (kappa.Phi)(z) = Phi(z kappa).

    For the four-variable class kappa is an SU2Point or an exact 4-tuple of
    scalars (k1, k2, conj k1, conj k2); for the two-variable class it is a
    unit complex number or an exact (c, conj c) pair.  The Gaussian factor is
    rotation invariant, so only the polynomial part substitutes.
    """
    if isinstance(phi, PolyGaussian4):
        if isinstance(kappa, SU2Point):
            k1, k2, k1c, k2c = kappa.values()
        else:
            k1, k2, k1c, k2c = kappa
        images = [
            # z1 -> z1 k1 - z2 conj k2, z2 -> z1 k2 + z2 conj k1, conjugates likewise
            VarPoly(4, {Z1_KEY: k1, Z2_KEY: -k2c}),
            VarPoly(4, {Z1_KEY: k2, Z2_KEY: k1c}),
            VarPoly(4, {Z1C_KEY: k1c, Z2C_KEY: -k2}),
            VarPoly(4, {Z1C_KEY: k2c, Z2C_KEY: k1}),
        ]
        return PolyGaussian4(phi.poly.substitute(images))
    if isinstance(phi, PolyGaussian2):
        if isinstance(kappa, complex):
            c, cc = kappa, kappa.conjugate()
        else:
            c, cc = kappa
        images = [
            VarPoly(2, {(1, 0): c}),
            VarPoly(2, {(0, 1): cc}),
        ]
        return PolyGaussian2(phi.poly.substitute(images))
    raise TypeError(f"unsupported operand {type(phi)!r}")


Z1_KEY, Z2_KEY, Z1C_KEY, Z2C_KEY = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def restrict_sphere(phi: PolyGaussian4, kappa: SU2Point) -> complex:
    """Value of phi at a point of the unit sphere; the Gaussian is exp(-2 pi)."""
    return _E2PI * phi.poly.evaluate(kappa.values())


def restrict_circle(phi: PolyGaussian2, z: complex) -> complex:
    return math.exp(-math.pi) * phi.poly.evaluate((z, z.conjugate()))


def section_su2(n0: int, n: int) -> PolyGaussian4:
    """The Schwartz element whose sphere restriction through the Weyl point is
    exp(-2 pi) times the k = 0 harmonic of type (n0, n).

    Concretely (-1)^((n - n0)/2) z1^((n-n0)/2) conj(z2)^((n+n0)/2) times the
    Gaussian; left torus translation multiplies it by exp(-i n0 alpha).
    """
    if (n - n0) % 2 != 0 or n < abs(n0):
        raise ValueError(f"inadmissible section indices n={n}, n0={n0}")
    a = (n - n0) // 2
    d = (n + n0) // 2
    sign = PiLaurent.rational((-1) ** a)
    return PolyGaussian4.monomial((a, 0, 0, d), sign)


def section_so2(n: int) -> PolyGaussian2:
    """Two-variable analogue: (-i)^n z^((|n|+n)/2) conj(z)^((|n|-n)/2) Gaussian."""
    a = (abs(n) + n) // 2
    b = (abs(n) - n) // 2
    return PolyGaussian2.monomial((a, b), PiLaurent.i_power(-n))
