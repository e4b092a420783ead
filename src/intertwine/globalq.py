"""Global layer over the rationals with everywhere-unramified data.

The completed zeta factor Lambda(z) = Gamma_R(z) zeta(z) satisfies
Lambda(z) = Lambda(1 - z) with simple poles at 0 and 1; the unitary-axis
ratio Lambda(1 - 2iy) / Lambda(1 + 2iy) is the global factor of the
intertwining eigenvalue, and the finitely many nontrivial local factors
multiply it.  The module also evaluates the truncated-norm identity in the
scalar unitary model (off the axis and its on-axis limit form), Laplacian
eigenvalues of isotypic vectors, the local height of a Weyl translate, the
residue constant of the intertwiner at the edge point, and the weighted
spectral sums whose convergence backs the dominated-convergence step.

zeta is evaluated by the accelerated alternating series (Chebyshev weighted)
with an Euler-Maclaurin fallback near the spurious zero lines of the
alternating-series denominator 1 - 2^(1-z), where that route loses digits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .arch import ArchParams, Place, mu_arch
from .errors import PoleError, RangeError
from .numerics import GammaKind, gamma_factor, trapezoid
from .padic import mu_finite, unramified_params, val_p

# Bernoulli numbers B_2 .. B_30 for the Euler-Maclaurin tail
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
)


@lru_cache(maxsize=8)
def _chebyshev_weights(n: int) -> tuple[float, ...]:
    """Partial-sum weights (d_n - d_k)/d_n of the accelerated alternating
    series, d_k = n * sum_{i <= k} (n+i-1)! 4^i / ((n-i)! (2i)!), exact
    integer arithmetic before the final division."""
    increments = [
        Fraction(math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i))
        for i in range(n + 1)
    ]
    partial = Fraction(0)
    ds = []
    for i in range(n + 1):
        partial += increments[i]
        ds.append(n * partial)
    dn = ds[-1]
    return tuple(float((dn - dk) / dn) for dk in ds[:-1])


def _eta_accelerated(z: complex, n: int = 48) -> complex:
    """Alternating zeta by Chebyshev-weighted partial sums; entire in z."""
    weights = _chebyshev_weights(n)
    total = 0j
    sign = 1.0
    for k, w in enumerate(weights):
        total += sign * w * cmath.exp(-z * math.log(k + 1))
        sign = -sign
    return total


def _zeta_euler_maclaurin(z: complex, big_n: int | None = None) -> complex:
    """Euler-Maclaurin evaluation, reliable on the strip |Im z| <= 60."""
    if big_n is None:
        big_n = max(30, int(1.6 * abs(z.imag)) + 10)
    total = 0j
    for k in range(1, big_n):
        total += cmath.exp(-z * math.log(k))
    ln = math.log(big_n)
    total += cmath.exp((1 - z) * ln) / (z - 1)
    total += 0.5 * cmath.exp(-z * ln)
    # correction terms with the rising product z (z+1) ... (z + 2k - 2)
    rising = z
    power = cmath.exp(-(z + 1) * ln)
    for idx, b in enumerate(_BERNOULLI):
        k = idx + 1
        total += float(b) / math.factorial(2 * k) * rising * power
        rising *= (z + 2 * k - 1) * (z + 2 * k)
        power /= big_n * big_n
    return total


def riemann_zeta(z: complex) -> complex:
    """zeta(z) on Re z in [-3, 4], |Im z| <= 60, to roughly 1e-12.

    Default route: accelerated alternating series divided by 1 - 2^(1-z).
    Near the zeros of that denominator (z = 1 + 2 pi i k / log 2, k != 0)
    the division is ill conditioned, so the Euler-Maclaurin form takes over.
    """
    z = complex(z)
    if abs(z - 1) < 1e-12:
        raise PoleError("zeta pole at z = 1")
    den = 1 - cmath.exp((1 - z) * math.log(2))
    if abs(den) < 0.1:
        return _zeta_euler_maclaurin(z)
    n = 48 if abs(z.imag) < 25 else 80
    return _eta_accelerated(z, n) / den


def completed_zeta(z: complex) -> complex:
    """Lambda(z) = Gamma_R(z) zeta(z); poles at 0 and 1; reflection for the
    left half-plane keeps the trivial-zero cancellation away from 0 * inf."""
    z = complex(z)
    if abs(z) < 1e-10 or abs(z - 1) < 1e-10:
        raise PoleError(f"completed zeta pole at z = {z}")
    if z.real < -0.25:
        z = 1 - z
    return gamma_factor(GammaKind.REAL, z) * riemann_zeta(z)


def residue_constant() -> float:
    """-Lambda*(0) / (2 Lambda(2)) with Lambda*(0) the residue at 0.

    Both residues are measured by extrapolating (z - a) Lambda(z); the value
    is 3/pi once the residue at 1 comes out as 1 and Lambda(2) = pi/6, and
    the tests check those two inputs independently.
    """
    res1 = residue_at_one()
    res0 = -res1  # functional equation; also measured directly in tests
    return -res0 / (2 * completed_zeta(2.0).real)


def _richardson(f: Callable[[float], float], eps: float, levels: int) -> float:
    """lim_{h -> 0+} f(h) from f(eps / 2^i), i < levels, by a Neville table
    in h (first-order sequence)."""
    vals = []
    h = eps
    for _ in range(levels):
        vals.append(f(h))
        h /= 2
    for j in range(1, levels):
        for i in range(levels - 1, j - 1, -1):
            vals[i] = (2**j * vals[i] - vals[i - 1]) / (2**j - 1)
    return vals[-1]


def residue_at_one(eps: float = 1e-2, levels: int = 4) -> float:
    """lim (z - 1) Lambda(z) by Richardson extrapolation from the right."""
    return _richardson(lambda h: ((1 + h) - 1) * completed_zeta(1 + h).real, eps, levels)


def residue_at_zero(eps: float = 1e-2, levels: int = 4) -> float:
    # lim (z - 0) Lambda(z) with z -> 0^+ from h = z
    return -_richardson(lambda h: h * completed_zeta(0 + h).real, eps, levels)


def mu_global_factor(y: float) -> complex:
    """Lambda(1 - 2iy) / Lambda(1 + 2iy), the global eigenvalue factor.

    The simple poles at the center cancel in the ratio, which tends to -1;
    below the pole guard the limit value is returned directly.
    """
    if abs(y) < 1e-9:
        return -1.0 + 0j
    return completed_zeta(1 - 2j * y) / completed_zeta(1 + 2j * y)


@dataclass(frozen=True)
class GlobalKType:
    """Finitely supported isotypic datum: weight at the real place and at
    finitely many primes (everything else at the base type)."""

    real_weight: int = 0
    finite_weights: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.real_weight % 2 != 0:
            raise RangeError("unramified real-place weights are even")
        for p, n in self.finite_weights:
            if n < 0:
                raise RangeError("finite weights are nonnegative levels")


@dataclass(frozen=True)
class GlobalSpectralPoint:
    """Axis point s = iy for the everywhere-unramified global datum; the
    normalization of the global twist makes its exponent zero."""

    y: float
    mu: float = 0.0


def mu_global(point: GlobalSpectralPoint, ktype: GlobalKType) -> complex:
    """Global eigenvalue: completed-zeta ratio times the nontrivial local factors."""
    val = mu_global_factor(point.y)
    s = 1j * point.y
    if ktype.real_weight != 0:
        val *= mu_arch(ArchParams(Place.REAL, s, point.mu, 0), ktype.real_weight).value
    for p, n in ktype.finite_weights:
        if n != 0:
            val *= mu_finite(unramified_params(p, s, point.mu), n)
    return val


def laplace_eigenvalue(
    place: Place,
    y: float,
    mu: float,
    n: int,
    n0: int = 0,
) -> float:
    """Eigenvalue of the elliptic operator on the type-(n, n0) subspace.

    complex place: (1 + (2y + mu)^2)/4 + (2 n (n + 2) - n0^2)/4
    real place:    (1 + (2y + mu)^2)/4 + n^2/2
    Strictly positive, increasing in |n|.
    """
    base = (1 + (2 * y + mu) ** 2) / 4
    if place is Place.COMPLEX:
        if n < abs(n0):
            raise RangeError("need n >= |n0|")
        return base + (2 * n * (n + 2) - n0 * n0) / 4
    return base + n * n / 2


def maass_selberg(
    s: complex,
    c: float,
    normf: float,
    normMf: float,
    pairing: complex,
    mu_char: float = 0.0,
    is_selfdual: bool = False,
) -> float:
    """Truncated-norm identity off the axis (Re s != 0).

    (2 Re s)^(-1) (|f|^2 c^(2 Re s) - |Mf|^2 c^(-2 Re s))
      + [selfdual] 2 Im(pairing * c^(i (2 Im s + mu))) / (2 Im s + mu)
    """
    sigma, tau = s.real, s.imag
    if sigma == 0:
        raise ValueError("off-axis form needs Re s != 0; use the on-axis limit")
    if c <= 1:
        raise ValueError("truncation height must exceed 1")
    val = (normf**2 * c ** (2 * sigma) - normMf**2 * c ** (-2 * sigma)) / (2 * sigma)
    if is_selfdual:
        freq = 2 * tau + mu_char
        if freq == 0:
            raise ZeroDivisionError("self-dual term at zero frequency: use the limit form")
        val += 2 * (pairing * cmath.exp(1j * freq * math.log(c))).imag / freq
    return val


def maass_selberg_onaxis(
    y: float,
    c: float,
    mu_value: complex,
    mu_prime: complex,
    is_selfdual: bool = False,
    y_limit_floor: float = 1e-8,
) -> float:
    """On-axis limit of the truncated-norm identity in the scalar model.

    2 log c - Re(mu'/mu) plus, in the self-dual case, Im(c^(2iy) conj(mu))/y
    with the finite y -> 0 limit -2 log c - Re(mu') used below the floor
    (the model then has mu(0) = -1, so the singular parts cancel).
    """
    if c <= 1:
        raise ValueError("truncation height must exceed 1")
    if abs(abs(mu_value) - 1) > 1e-9:
        raise ValueError("scalar model requires |mu| = 1 on the axis")
    val = 2 * math.log(c) - (mu_prime / mu_value).real
    if is_selfdual:
        if abs(y) < y_limit_floor:
            val += -2 * math.log(c) - mu_prime.real
        else:
            val += (cmath.exp(2j * y * math.log(c)) * mu_value.conjugate()).imag / y
    return val


def height_wn(place: Place | int, x) -> float:
    """Local height of the Weyl translate of a unipotent, always <= 1.

    Row reduction of [[0, -1], [1, x]] against the integral-entry pivot:
    inside the unit ball the matrix itself is compact, height 1; outside,
    the diagonal comes out as (1/x, x), so the height is |x|_v^(-2), with
    the normalized absolute value (square of the modulus at a complex place,
    p^(-v) at a finite place).
    """
    if place is Place.REAL:
        a = abs(float(x))
    elif place is Place.COMPLEX:
        a = abs(complex(x)) ** 2
    elif isinstance(place, int):
        v = val_p(Fraction(x), place)
        a = 0.0 if v is None else float(place) ** (-v)
    else:
        raise ValueError(f"unsupported place {place!r}")
    if a <= 1.0:
        return 1.0
    return a ** (-2.0)


def height_bound_check(place: Place | int, xs) -> bool:
    return all(height_wn(place, x) <= 1.0 + 1e-15 for x in xs)


def sobolev_weight_sum(
    a_power: int,
    y_max: float,
    n_max: int,
    place: Place = Place.REAL,
    mu: float = 0.0,
    y_steps: int | None = None,
) -> float:
    """Partial value of the spectral weight sum

        sum over admissible n of int_0^{y_max} (1 + lambda(iy; n))^(2 - 2 a) dy,

    a convergence diagnostic: doubling the cutoffs must change the value by a
    vanishing amount once a_power >= 3.
    """
    if a_power < 2:
        raise RangeError("weight exponent must be >= 2")
    if y_steps is None:
        y_steps = max(200, int(8 * y_max))  # fixed spacing across cutoffs
    ys = np.linspace(0.0, y_max, y_steps + 1)
    total = 0.0
    for n in range(0, n_max + 1, 2):
        lam = (1 + (2 * ys + mu) ** 2) / 4
        lam = lam + (n * n / 2 if place is Place.REAL else (2 * n * (n + 2)) / 4)
        vals = (1.0 + lam) ** (2 - 2 * a_power)
        total += float(trapezoid(vals, ys))
    return total


def sobolev_term_decay_slope(a_power: int, y: float = 1.0, n_lo: int = 32, n_hi: int = 256) -> float:
    """Log-log slope of the complex-place term against n; near 4 - 4a."""
    ns = np.array([n for n in range(n_lo, n_hi + 1, 2)], dtype=float)
    lam = (1 + (2 * y) ** 2) / 4 + (2 * ns * (ns + 2)) / 4
    terms = (1 + lam) ** (2 - 2 * a_power)
    slope = np.polyfit(np.log(ns), np.log(terms), 1)[0]
    return float(slope)
