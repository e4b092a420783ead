"""Spherical harmonics on SU(2) with exact polynomial realizations.

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
  * SO(2) is identified with the unit circle.  Its degree-n character,
    z^n for n >= 0 and conj(z)^(-n) for n < 0, has unit norm for the
    probability measure on the circle and is exp(pi) times
    schwartz.section_so2(n) at i z (the Weyl point of the circle is i).

The Haar and Gram quadratures integrate polynomials exactly on one Hopf grid
sized from the degree (_hopf_factors).  There z1^a z2^b conj(z1)^c conj(z2)^d
is z1^a conj(z1)^c, a function of (theta, phi1), times z2^b conj(z2)^d, a
function of (theta, phi2), so they sum the two phi axes separately and never
evaluate on the full (theta, phi1, phi2) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ParityError, RangeError
from .exact import PiLaurent, VarPoly, scalar_is_zero

_FR0 = Fraction(0)


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


W_INV_POINT = SU2Point(0j, 1 + 0j)  # the inverse Weyl rotation


def hopf_point(theta: float, phi1: float, phi2: float) -> SU2Point:
    return SU2Point(
        math.cos(theta) * complex(math.cos(phi1), math.sin(phi1)),
        math.sin(theta) * complex(math.cos(phi2), math.sin(phi2)),
    )


def su2_exact_values(a: int, b: int, c: int, d: int) -> tuple[PiLaurent, ...]:
    """Rational point of the unit sphere from the square of an integer
    quaternion, as exact scalars (z1, z2, conj z1, conj z2).

    (a + bi + cj + dk)^2 / (a^2+b^2+c^2+d^2) has exactly rational coordinates,
    which keeps polynomial substitution tests exact.
    """
    n = a * a + b * b + c * c + d * d
    if n == 0:
        raise ValueError("zero quaternion")
    re1, im1 = Fraction(a * a - b * b - c * c - d * d, n), Fraction(2 * a * b, n)
    re2, im2 = Fraction(2 * a * c, n), Fraction(2 * a * d, n)
    return (
        PiLaurent.rational(re1, im1),
        PiLaurent.rational(re2, im2),
        PiLaurent.rational(re1, -im1),
        PiLaurent.rational(re2, -im2),
    )


def su2_from_integers(a: int, b: int, c: int, d: int) -> SU2Point:
    """The point of su2_exact_values in floats."""
    z1, z2 = su2_exact_values(a, b, c, d)[:2]
    return SU2Point(complex(z1), complex(z2))


@dataclass(frozen=True)
class HarmonicSU2:
    """Weight vector indexed by (n0, n, k) with its exact polynomial."""

    n0: int
    n: int
    k: int
    poly: VarPoly

    def __call__(self, point: SU2Point) -> complex:
        return self.poly.evaluate(point.values())


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
    binom = math.comb(n, k)
    for j in range(max(0, k - m), min(k, p) + 1):
        coeff = Fraction((-1) ** (k - j) * math.comb(p, j) * math.comb(m, k - j), binom)
        terms[(p - j, j, k - j, m - (k - j))] = PiLaurent({0: (coeff, _FR0)})
    return HarmonicSU2(n0, n, k, VarPoly(4, terms))


# generator = unit * sum of parts (src, dst, sign) = sign * z_dst d/dz_src, over
# the variables (z1, z2, conj z1, conj z2); unit None stands for 1
_LIE_PARTS = {
    LieGen.LH: (PiLaurent.rational(0, -1), ((0, 0, 1), (2, 2, -1), (1, 1, 1), (3, 3, -1))),
    LieGen.RH: (PiLaurent.rational(0, 1), ((0, 0, 1), (2, 2, -1), (1, 1, -1), (3, 3, 1))),
    LieGen.XPLUS: (None, ((0, 1, 1), (3, 2, -1))),
    LieGen.XMINUS: (None, ((1, 0, 1), (2, 3, -1))),
}


def lie_act_su2(gen: LieGen, h: HarmonicSU2 | VarPoly) -> VarPoly:
    """Differential-operator action of the complexified Lie algebra.

    LH     = -i (z1 d1 - conj z1 dbar1 + z2 d2 - conj z2 dbar2)
    RH     =  i (z1 d1 - conj z1 dbar1 - z2 d2 + conj z2 dbar2)
    Xplus  =  z2 d1 - conj z1 dbar2
    Xminus =  z1 d2 - conj z2 dbar1

    Each part sends a monomial to one monomial times an integer: Xplus sends
    (a, b, c, d) to a (a-1, b+1, c, d) - d (a, b, c+1, d-1), and LH and RH
    are diagonal.  The parts are summed in this order, dropping zero sums
    after each, so keys and float sums come out as from polynomial additions.
    """
    if gen not in _LIE_PARTS:
        raise ValueError(f"unknown generator {gen!r}")
    poly = h.poly if isinstance(h, HarmonicSU2) else h
    unit, parts = _LIE_PARTS[gen]
    out: dict = {}
    for src, dst, sign in parts:
        for key, c in poly.terms.items():
            e = key[src]
            if e:
                nk = list(key)
                nk[src] -= 1
                nk[dst] += 1
                nkey = tuple(nk)
                term = c * (sign * e)
                out[nkey] = out[nkey] + term if nkey in out else term
        out = {key: c for key, c in out.items() if not scalar_is_zero(c)}
    if unit is not None:
        out = {key: unit * c for key, c in out.items()}
    return VarPoly(poly.nvars, out)


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


@lru_cache(maxsize=None)
def hopf_grid(n_theta: int, n_phi: int):
    """Gauss-Legendre nodes in x = cos^2(theta) tensored with periodic trapezoid in phi.

    In x the Haar measure is (4 pi^2)^{-1} dx dphi1 dphi2 on [0, 1]: node t_j
    maps to x = (1 + t_j) / 2, cos(theta) = sqrt(x), sin(theta) = sqrt(1 - x),
    and weight w_j to w_j / 4 times (2 pi / n_phi)^2 / (2 pi^2) = w_j / (2 n_phi^2).

    Returns (values, weights): values is the 4-tuple of coordinate grids
    (z1, z2, conj z1, conj z2) and weights sums to 1, the probability Haar
    measure.  z1 depends on (theta, phi1) and z2 on (theta, phi2) only, so
    the arrays are compact and broadcast against each other to the full
    (n_theta, n_phi, n_phi) grid: z1 and conj z1 have shape
    (n_theta, n_phi, 1), z2 and conj z2 (n_theta, 1, n_phi), and weights
    (n_theta, 1, 1).  Every entry has the bits of the full meshgrid
    construction.  Grids are cached per size and read-only.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    cos_t = np.sqrt(0.5 * (1.0 + nodes))
    sin_t = np.sqrt(0.5 * (1.0 - nodes))
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    z1 = (cos_t[:, None] * np.exp(1j * phi))[:, :, None]
    z2 = (sin_t[:, None] * np.exp(1j * phi))[:, None, :]
    weights = (wts / (2 * n_phi * n_phi))[:, None, None]
    values = (z1, z2, np.conj(z1), np.conj(z2))
    for arr in values + (weights,):
        arr.flags.writeable = False
    return values, weights


def _hopf_factors(keys, degree: int):
    """Factors of the monomials keyed (a, b, c, d) on the Hopf grid exact at `degree`.

    degree + 1 points per phi axis make the trapezoid exact for the phases
    e^{i (a - c) phi}, |a - c| <= degree, and degree // 4 + 1 nodes in x make
    Gauss-Legendre exact for what the phi sums leave, x^a (1 - x)^b of degree
    a + b <= degree / 2.

    Returns (A, ia, B, ib, w): A[s, theta, phi1] = z1^a conj(z1)^c for the
    distinct pairs (a, c) and ia the pair of each key, B[s, theta, phi2] =
    z2^b conj(z2)^d and ib likewise for (b, d), and w the theta weights, which
    carry the phi weights.  Key t is A[ia[t], theta, phi1] B[ib[t], theta, phi2].
    """
    m, n = degree // 4 + 1, degree + 1
    values, weights = hopf_grid(m, n)
    z1, z2, z1c, z2c = (v.reshape(m, n) for v in values)
    pairs_a, pairs_b = {}, {}
    ia = np.array([pairs_a.setdefault((a, c), len(pairs_a)) for a, _, c, _ in keys], dtype=int)
    ib = np.array([pairs_b.setdefault((b, d), len(pairs_b)) for _, b, _, d in keys], dtype=int)
    A = np.array([z1**a * z1c**c for a, c in pairs_a], dtype=complex).reshape(-1, m, n)
    B = np.array([z2**b * z2c**d for b, d in pairs_b], dtype=complex).reshape(-1, m, n)
    return A, ia, B, ib, weights.ravel()


def haar_integrate_su2(f: HarmonicSU2 | VarPoly) -> complex:
    """Integral against probability Haar measure on SU(2), exact for polynomials.

    Sums c_t w (sum_phi1 A)(sum_phi2 B) over the terms t, with A and B the
    factors of term t and w the theta weights, on the grid that _hopf_factors
    sizes from the largest total degree of f.
    """
    poly = f.poly if isinstance(f, HarmonicSU2) else f
    coeffs = np.array([c for _, c in poly.complex_terms()], dtype=complex)
    A, ia, B, ib, w = _hopf_factors(poly.terms, poly.max_degree())
    return complex(np.sum(coeffs[:, None] * A.sum(axis=2)[ia] * B.sum(axis=2)[ib] * w))


def gram_matrix(harms: list[HarmonicSU2]) -> np.ndarray:
    """Exact Gram matrix <h_i, h_j> on the grid for twice the largest degree:
    C M C^H, C the coefficients over the distinct monomials t and M_tu =
    sum_theta w (sum_phi1 A_t conj A_u)(sum_phi2 B_t conj B_u) (see _hopf_factors)."""
    keys = list(dict.fromkeys(key for h in harms for key in h.poly.terms))
    rows = [dict(h.poly.complex_terms()) for h in harms]
    C = np.array([[row.get(key, 0) for key in keys] for row in rows], dtype=complex)
    A, ia, B, ib, w = _hopf_factors(keys, 2 * max((h.poly.max_degree() for h in harms), default=0))
    # einsum, not matmul: each call into a threaded BLAS can wait for an idle
    # worker thread, and the products here are small
    PA = np.einsum("sqp,rqp->qsr", A, A.conj())
    PB = np.einsum("sqp,rqp->qsr", B, B.conj())
    M = np.einsum("q,qtu,qtu->tu", w, PA[:, ia[:, None], ia], PB[:, ib[:, None], ib])
    return np.einsum("iu,ju->ij", np.einsum("it,tu->iu", C, M), C.conj())
