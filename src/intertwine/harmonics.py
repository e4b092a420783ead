"""Spherical harmonics on SU(2) and SO(2) with exact polynomial realizations.

The SU(2) harmonics are the weight vectors of the degree-n irreducible
inside the polynomial functions on the unit quaternions, realized as exact
polynomials in (z1, z2, conj z1, conj z2).  Raising, lowering, and the two
torus generators act as first-order differential operators; ladder relations
and weights are exact coefficient identities, while norms have both a closed
rational formula and a Haar-measure quadrature oracle in Hopf coordinates.

Conventions fixed here and asserted by tests:
  * probability Haar measure on SU(2); in Hopf coordinates
    z1 = cos(theta) e^{i phi1}, z2 = sin(theta) e^{i phi2} it is
    (2 pi^2)^{-1} sin(theta) cos(theta) dtheta dphi1 dphi2;
  * the plane measure on C is twice Lebesgue measure, so the calibration
    integral of exp(-|z1|^2 - |z2|^2) over C^2 equals 4 pi^2 and the polar
    factorization constant is 8 pi^2;
  * SO(2) is identified with the unit circle, with the degree-n character
    z^n for n >= 0 and conj(z)^(-n) for n < 0, each of unit norm for the
    probability measure on the circle.

The Haar quadrature grid (hopf_grid) is cached per size and compact: z1 has
shape (n_theta, n_phi, 1), z2 (n_theta, 1, n_phi) and the weights
(n_theta, 1, 1), which broadcast to the full tensor-product grid.
eval_poly_grid takes each power on the compact array and copies it out to a
contiguous full-shape array before multiplying, so its values keep the bits
of an evaluation on full meshgrids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ParityError, RangeError, ToleranceNotMet
from .exact import ONE, PiLaurent, VarPoly
from .numerics import QUAD_ABS_TOL, QUAD_MAX_HALVINGS, QUAD_REL_TOL

# theta and phi nodes of the Hopf grid gram_matrix integrates on
GRAM_NODES = 24

# variable order for 4-variable polynomials: z1, z2, conj z1, conj z2
Z1, Z2, Z1C, Z2C = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


class LieGen(Enum):
    LH = "LH"
    RH = "RH"
    XPLUS = "Xplus"
    XMINUS = "Xminus"


@dataclass(frozen=True)
class SU2Point:
    """Unit quaternion (z1, z2), the matrix [[z1, z2], [-conj z2, conj z1]]."""

    z1: complex
    z2: complex

    def __post_init__(self):
        r = abs(self.z1) ** 2 + abs(self.z2) ** 2
        if abs(r - 1.0) > 1e-12:
            raise ValueError(f"not on the unit sphere: |z|^2 = {r}")

    def mul(self, other: "SU2Point") -> "SU2Point":
        return SU2Point(
            self.z1 * other.z1 - self.z2 * other.z2.conjugate(),
            self.z1 * other.z2 + self.z2 * other.z1.conjugate(),
        )

    def values(self) -> tuple[complex, complex, complex, complex]:
        return (self.z1, self.z2, self.z1.conjugate(), self.z2.conjugate())


W_POINT = SU2Point(0j, -1 + 0j)       # the Weyl rotation
W_INV_POINT = SU2Point(0j, 1 + 0j)    # its inverse


def hopf_point(theta: float, phi1: float, phi2: float) -> SU2Point:
    return SU2Point(
        math.cos(theta) * complex(math.cos(phi1), math.sin(phi1)),
        math.sin(theta) * complex(math.cos(phi2), math.sin(phi2)),
    )


def su2_from_integers(a: int, b: int, c: int, d: int) -> SU2Point:
    """Rational point of the unit sphere from the square of an integer quaternion.

    (a + bi + cj + dk)^2 / (a^2+b^2+c^2+d^2) has exactly rational coordinates,
    which keeps polynomial substitution tests exact.
    """
    n = a * a + b * b + c * c + d * d
    if n == 0:
        raise ValueError("zero quaternion")
    z1 = complex(Fraction(a * a - b * b - c * c - d * d, n), Fraction(2 * a * b, n))
    z2 = complex(Fraction(2 * a * c, n), Fraction(2 * a * d, n))
    return SU2Point(z1, z2)


def su2_exact_values(a: int, b: int, c: int, d: int) -> tuple[PiLaurent, ...]:
    """The same rational sphere point as exact scalars (z1, z2, conj z1, conj z2)."""
    n = a * a + b * b + c * c + d * d
    re1, im1 = Fraction(a * a - b * b - c * c - d * d, n), Fraction(2 * a * b, n)
    re2, im2 = Fraction(2 * a * c, n), Fraction(2 * a * d, n)
    return (
        PiLaurent.rational(re1, im1),
        PiLaurent.rational(re2, im2),
        PiLaurent.rational(re1, -im1),
        PiLaurent.rational(re2, -im2),
    )


@dataclass(frozen=True)
class HarmonicSU2:
    """Weight vector indexed by (n0, n, k) with its exact polynomial."""

    n0: int
    n: int
    k: int
    poly: VarPoly

    def __call__(self, point: SU2Point) -> complex:
        return self.poly.evaluate(point.values())

    def eval_grid(self, values) -> np.ndarray:
        return eval_poly_grid(self.poly, values)


@dataclass(frozen=True)
class HarmonicSO2:
    """Circle character of degree n: z^n for n >= 0, conj(z)^(-n) for n < 0."""

    n: int
    poly: VarPoly

    def __call__(self, z: complex) -> complex:
        return self.poly.evaluate((z, z.conjugate()))


def _check_su2_indices(n0: int, n: int, k: int):
    if n < 0 or n < abs(n0):
        raise RangeError(f"need n >= |n0|, got n={n}, n0={n0}")
    if (n - n0) % 2 != 0:
        raise ParityError(f"need n = n0 mod 2, got n={n}, n0={n0}")
    if not (0 <= k <= n):
        raise RangeError(f"need 0 <= k <= n, got k={k}")


def harmonic_su2(n0: int, n: int, k: int) -> HarmonicSU2:
    """Exact weight vector: binom(n,k)^{-1} sum_j (-1)^{k-j} binom(p,j) binom(m,k-j)
    z1^{p-j} z2^j conj(z1)^{k-j} conj(z2)^{m-(k-j)} with p=(n+n0)/2, m=(n-n0)/2.

    For k = 0 this is z1^p conj(z2)^m; successive k are generated by the
    raising operator, which the ladder test checks as an exact identity.
    """
    _check_su2_indices(n0, n, k)
    p = (n + n0) // 2
    m = (n - n0) // 2
    terms: dict = {}
    inv_binom = Fraction(1, math.comb(n, k))
    for j in range(0, k + 1):
        if j > p or (k - j) > m:
            continue
        coeff = Fraction((-1) ** (k - j) * math.comb(p, j) * math.comb(m, k - j)) * inv_binom
        key = (p - j, j, k - j, m - (k - j))
        terms[key] = PiLaurent.rational(coeff)
    return HarmonicSU2(n0, n, k, VarPoly(4, terms))


def lie_act_su2(gen: LieGen, h: HarmonicSU2 | VarPoly) -> VarPoly:
    """Differential-operator action of the complexified Lie algebra.

    LH     = -i (z1 d1 - conj z1 dbar1 + z2 d2 - conj z2 dbar2)
    RH     =  i (z1 d1 - conj z1 dbar1 - z2 d2 + conj z2 dbar2)
    Xplus  =  z2 d1 - conj z1 dbar2
    Xminus =  z1 d2 - conj z2 dbar1
    """
    poly = h.poly if isinstance(h, HarmonicSU2) else h
    d1, d2 = poly.deriv(0), poly.deriv(1)
    db1, db2 = poly.deriv(2), poly.deriv(3)
    if gen is LieGen.LH:
        combo = (
            d1.mul_monomial(Z1)
            + db1.mul_monomial(Z1C).scale(-1)
            + d2.mul_monomial(Z2)
            + db2.mul_monomial(Z2C).scale(-1)
        )
        return combo.scale(PiLaurent.rational(0, -1))
    if gen is LieGen.RH:
        combo = (
            d1.mul_monomial(Z1)
            + db1.mul_monomial(Z1C).scale(-1)
            + d2.mul_monomial(Z2).scale(-1)
            + db2.mul_monomial(Z2C)
        )
        return combo.scale(PiLaurent.rational(0, 1))
    if gen is LieGen.XPLUS:
        return d1.mul_monomial(Z2) + db2.mul_monomial(Z1C).scale(-1)
    if gen is LieGen.XMINUS:
        return d2.mul_monomial(Z1) + db1.mul_monomial(Z2C).scale(-1)
    raise ValueError(f"unknown generator {gen!r}")


def norm_su2_closed_exact(n0: int, n: int, k: int) -> Fraction:
    """Squared Haar norm of harmonic_su2(n0, n, k) as an exact rational."""
    _check_su2_indices(n0, n, k)
    return Fraction(1, (n + 1) * math.comb(n, k) * math.comb(n, (n - n0) // 2))


def norm_su2_closed(n0: int, n: int, k: int) -> float:
    return float(norm_su2_closed_exact(n0, n, k))


def normalized_harmonic_su2(n0: int, n: int, k: int) -> HarmonicSU2:
    """Unit-norm harmonic; the normalizing constant is irrational in general,
    so the polynomial coefficients degrade to floats here."""
    h = harmonic_su2(n0, n, k)
    scale = 1.0 / math.sqrt(norm_su2_closed(n0, n, k))
    return HarmonicSU2(n0, n, k, h.poly.scale(complex(scale)))


def harmonic_so2(n: int) -> HarmonicSO2:
    key = (n, 0) if n >= 0 else (0, -n)
    return HarmonicSO2(n, VarPoly(2, {key: ONE}))


def eval_poly_grid(poly: VarPoly, values) -> np.ndarray:
    """Evaluate a 4-variable polynomial on numpy grids (Z1, Z2, conj Z1, conj Z2).

    The grids may be compact arrays that broadcast against each other, as
    hopf_grid returns them.  Each power is taken on the compact array and
    then copied out to a contiguous full-shape array before it multiplies
    into the term: numpy's complex multiply can round the last bit
    differently when one operand is a stride-0 broadcast, and the copy keeps
    every value equal to an evaluation on full meshgrids.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in values))
    total = np.zeros(shape, dtype=complex)
    for key, coeff in poly.complex_terms():
        term = np.ones_like(total)
        for v, e in zip(values, key):
            if e:
                term = term * np.ascontiguousarray(np.broadcast_to(v**e, shape))
        total += coeff * term
    return total


@lru_cache(maxsize=None)
def hopf_grid(n_theta: int, n_phi: int):
    """Gauss-Legendre nodes in theta tensored with periodic trapezoid in phi.

    Returns (values, weights): values is the 4-tuple of coordinate grids
    (z1, z2, conj z1, conj z2) and weights sums to 1, the probability Haar
    measure.  z1 depends on (theta, phi1) and z2 on (theta, phi2) only, so
    the arrays are compact and broadcast against each other to the full
    (n_theta, n_phi, n_phi) grid: z1 and conj z1 have shape
    (n_theta, n_phi, 1), z2 and conj z2 (n_theta, 1, n_phi), and weights
    (n_theta, 1, 1).  Every entry has the bits of the full meshgrid
    construction.  Grids are cached per size and read-only; at n = 48 one
    grid holds about 148 KB, where full meshgrids would take about 8 MB.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.25 * math.pi * (nodes + 1.0)
    wtheta = 0.25 * math.pi * wts * np.sin(theta) * np.cos(theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    z1 = (np.cos(T) * np.exp(1j * P))[:, :, None]
    z2 = (np.sin(T) * np.exp(1j * P))[:, None, :]
    weights = (wtheta * wphi * wphi / (2.0 * math.pi**2))[:, None, None]
    values = (z1, z2, np.conj(z1), np.conj(z2))
    for arr in values + (weights,):
        arr.flags.writeable = False
    return values, weights


def haar_integrate_su2(f: HarmonicSU2 | VarPoly) -> complex:
    """Integral against probability Haar measure on SU(2).

    The exact polynomial is evaluated on the whole Hopf grid at once.  The
    grid starts at 12 x 12 and doubles until two successive levels agree
    within ten times the package's quadrature tolerances.
    """
    poly = f.poly if isinstance(f, HarmonicSU2) else f

    def level(n: int) -> complex:
        values, weights = hopf_grid(n, n)
        return complex(np.sum(eval_poly_grid(poly, values) * weights))

    n = 12
    prev = level(n)
    for _ in range(QUAD_MAX_HALVINGS):
        n *= 2
        cur = level(n)
        if abs(cur - prev) <= max(QUAD_ABS_TOL * 10, QUAD_REL_TOL * 10 * abs(cur)):
            return cur
        prev = cur
        if n > 400:
            break
    raise ToleranceNotMet("Haar quadrature did not stabilize")


def gram_matrix(harms: list[HarmonicSU2]) -> np.ndarray:
    """Quadrature Gram matrix <h_i, h_j> for a list of harmonics on the
    GRAM_NODES x GRAM_NODES Hopf grid."""
    values, weights = hopf_grid(GRAM_NODES, GRAM_NODES)
    flat_w = np.broadcast_to(weights, (GRAM_NODES,) * 3).ravel()
    rows = np.empty((len(harms), flat_w.size), dtype=complex)
    for i, h in enumerate(harms):
        rows[i] = eval_poly_grid(h.poly, values).ravel()
    # conjugate in place: weighted @ conj(rows).T is the same F-ordered
    # operand as conj(rows.T), without a third array of the grid's size
    weighted = rows * flat_w
    np.conj(rows, out=rows)
    return weighted @ rows.T
