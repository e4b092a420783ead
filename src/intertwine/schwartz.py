"""Polynomial-times-Gaussian Schwartz classes with exact twisted transforms.

Two families, both exactly closed under their Fourier transform:

  * four-variable class: poly(z1, z2, conj z1, conj z2) * exp(-2 pi (|z1|^2 + |z2|^2)),
    transform kernel exp(-2 pi i (z1 u2 - z2 u1 + conj z1 conj u2 - conj z2 conj u1)),
    which already carries the Weyl twist (the plain transform composed with
    right translation by the inverse rotation);

  * two-variable class: poly(z, conj z) * exp(-pi |z|^2), kernel
    exp(-pi (u conj z - conj u z)).

Both are one class body over n slots (the variables, then their conjugates)
and the Gaussian exp(-gamma sum |z_j|^2).  The transform peels one slot at a
time through the multiplication/derivation interchange of the kernel: with T
the transform of the remaining factor, multiplying by slot i becomes

    -/+ kappa (d/d(slot i^1) - gamma * slot (i^1 + n/2) mod n) T

(minus for even i; i^1 flips the last bit of i, and the second term is the
derivative of the Gaussian).  The only per-place facts are

    n = 4:  gamma = 2 pi,  kappa = i/(2 pi)
    n = 2:  gamma = pi,    kappa = 1/pi

and the base Gaussian is its own transform.  The result is exact in the
PiLaurent coefficient ring; the involution hat(hat(Phi)) = Phi and the
rotation equivariance hat(kappa.Phi)(z) = hat(Phi)(z kappa) are coefficient
identities, not numerical ones.

The right rotation z -> z k (k in SU(2) at n = 4, a unit complex number at
n = 2) is one rule as well: _ROTATIONS gives the matrix of k from its slot
values, and k_act substitutes it into the polynomial part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

from .exact import ONE, PiLaurent, VarPoly
from .harmonics import SU2Point, _check_su2_indices

# (gamma, kappa) of the interchange rule, by slot count
_RULES = {
    4: (PiLaurent.pi_power(1, 2), PiLaurent.pi_power(-1, 0, Fraction(1, 2))),
    2: (PiLaurent.pi_power(1, 1), PiLaurent.pi_power(-1, 1)),
}

# matrix of the rotation z -> z kappa from kappa's slot values, by slot count
_ROTATIONS = {
    4: lambda k1, k2, k1c, k2c: ((k1, k2), (-k2c, k1c)),
    2: lambda c, cc: ((c,),),
}


@dataclass(frozen=True)
class _PolyGaussian:
    """poly * exp(-WIDTH sum |z_j|^2), poly in the SLOTS slots (z, conj z)."""

    SLOTS: ClassVar[int]
    WIDTH: ClassVar[float]

    poly: VarPoly

    @classmethod
    def monomial(cls, expts: tuple[int, ...], coeff=ONE):
        return cls(VarPoly.monomial(cls.SLOTS, expts, coeff))

    @classmethod
    def gaussian(cls):
        return cls.monomial((0,) * cls.SLOTS)

    def scale(self, s):
        return type(self)(self.poly.scale(s))

    def __add__(self, other):
        return type(self)(self.poly + other.poly)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.poly == other.poly

    def __call__(self, *zs: complex) -> complex:
        if 2 * len(zs) != self.SLOTS:
            raise TypeError(f"{type(self).__name__} takes {self.SLOTS // 2} points, got {len(zs)}")
        gauss = math.exp(-self.WIDTH * sum(abs(z) ** 2 for z in zs))
        return gauss * self.poly.evaluate(zs + tuple(z.conjugate() for z in zs))


class PolyGaussian4(_PolyGaussian):
    """poly * exp(-2 pi (|z1|^2 + |z2|^2)) with poly in (z1, z2, conj z1, conj z2)."""

    SLOTS = 4
    WIDTH = 2.0 * math.pi


class PolyGaussian2(_PolyGaussian):
    """poly * exp(-pi |z|^2) with poly in (z, conj z)."""

    SLOTS = 2
    WIDTH = math.pi


def _slot_key(n: int, i: int) -> tuple[int, ...]:
    """Exponent key of the monomial slot i, one of n slots."""
    return tuple(int(m == i) for m in range(n))


@lru_cache(maxsize=None)
def _hat_monomial(key: tuple[int, ...]) -> VarPoly:
    """Transform of the monomial-times-Gaussian, polynomial part only: peel
    the first nonzero slot by the interchange rule of the module docstring."""
    n = len(key)
    i = next((j for j, e in enumerate(key) if e), None)
    if i is None:
        return VarPoly.monomial(n, key)
    gamma, kappa = _RULES[n]
    t = _hat_monomial(key[:i] + (key[i] - 1,) + key[i + 1 :])
    j = i ^ 1
    return (t.deriv(j) + t.mul_monomial(_slot_key(n, (j + n // 2) % n), -gamma)).scale(kappa if i % 2 else -kappa)


def _fourier_hat(phi: _PolyGaussian) -> _PolyGaussian:
    total = VarPoly.zero(phi.SLOTS)
    for key, coeff in phi.poly.terms.items():
        total = total + _hat_monomial(key).scale(coeff)
    return type(phi)(total)


def fourier_hat_h(phi: PolyGaussian4) -> PolyGaussian4:
    """Exact twisted Fourier transform on the four-variable class."""
    return _fourier_hat(phi)


def fourier_hat_c(phi: PolyGaussian2) -> PolyGaussian2:
    """Exact twisted Fourier transform on the two-variable class."""
    return _fourier_hat(phi)


def k_act(kappa, phi):
    """Right rotation action (kappa.Phi)(z) = Phi(z kappa).

    kappa is given by its slot values: an SU2Point or an exact 4-tuple
    (k1, k2, conj k1, conj k2) for the four-variable class, a unit complex
    number or an exact (c, conj c) pair for the two-variable class.  Slot j
    goes to sum_i slot_i M[i][j], M the _ROTATIONS matrix of the values; a
    conjugate slot takes the same rule on the conjugate values (the two
    halves swapped).  The Gaussian factor is rotation invariant, so only the
    polynomial part substitutes.
    """
    if not isinstance(phi, _PolyGaussian):
        raise TypeError(f"unsupported operand {type(phi)!r}")
    if isinstance(kappa, SU2Point):
        values = kappa.values()
    elif isinstance(kappa, complex):
        values = (kappa, kappa.conjugate())
    else:
        values = tuple(kappa)
    n = phi.SLOTS
    if len(values) != n:
        raise TypeError(f"{type(phi).__name__} rotates by {n} slot values, got {len(values)}")
    half = n // 2
    images = []
    for offset in (0, half):
        matrix = _ROTATIONS[n](*values[offset:], *values[:offset])
        for j in range(half):
            images.append(VarPoly(n, {_slot_key(n, offset + i): row[j] for i, row in enumerate(matrix)}))
    return type(phi)(phi.poly.substitute(images))


def section_su2(n0: int, n: int) -> PolyGaussian4:
    """The Schwartz element whose sphere restriction through the Weyl point is
    exp(-2 pi) times the k = 0 harmonic of type (n0, n).

    Concretely (-1)^((n - n0)/2) z1^((n-n0)/2) conj(z2)^((n+n0)/2) times the
    Gaussian; left torus translation multiplies it by exp(-i n0 alpha).
    """
    _check_su2_indices(n0, n, 0)
    a = (n - n0) // 2
    d = (n + n0) // 2
    sign = PiLaurent.rational((-1) ** a)
    return PolyGaussian4.monomial((a, 0, 0, d), sign)


def section_so2(n: int) -> PolyGaussian2:
    """Two-variable analogue: (-i)^n z^((|n|+n)/2) conj(z)^((|n|-n)/2) Gaussian."""
    a = (abs(n) + n) // 2
    b = (abs(n) - n) // 2
    return PolyGaussian2.monomial((a, b), PiLaurent.i_power(-n))
