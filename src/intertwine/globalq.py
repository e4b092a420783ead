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

zeta has one route, Euler-Maclaurin summation (H. M. Edwards, Riemann's Zeta
Function, ch. 6), on Re z >= -3, |Im z| <= 1000.  The completed zeta holds
on |Re z| <= 200, |Im z| <= 450 and the global factor on |y| <= 200.  Each
docstring gives the accuracy measured there against mpmath at 30 digits;
outside its domain an evaluator raises RangeError.

riemann_zeta, completed_zeta and mu_global_factor take scalars, ndarrays,
lists and tuples of points as the numerics module docstring says, and
mu_global a sequence of points: one vectorized Euler-Maclaurin body serves
them, and a scalar is its one-point case (about 60 us for zeta, against
12 us for the scalar loop it replaced), so the callers here and in verify
pass each grid in one call: the residue extrapolations their four nodes,
the suite's functional-equation, reflection and factor grids their points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .arch import Place, mu_arch
from .errors import PoleError, RangeError
from .numerics import GammaKind, _stack, gamma_factor, limit_at_zero, trapezoid
from .padic import mu_finite, unramified_params, val_p

# riemann_zeta's height bound, which also sizes its table of log k
_ZETA_MAX_IM = 1000.0

# Euler-Maclaurin tail coefficients B_2k / (2k)! for k = 1 .. 15 (B_2 .. B_30)
_BERNOULLI = np.array([
    float(Fraction(num, den) / math.factorial(2 * k))
    for k, (num, den) in enumerate(
        (
            (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
            (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
            (-23749461029, 870), (8615841276005, 14322),
        ),
        start=1,
    )
])


@cache
def _log_k() -> np.ndarray:
    """log k for k = 1 .. N - 1 at the largest N riemann_zeta's domain needs."""
    logs = np.log(np.arange(1.0, int(1.6 * _ZETA_MAX_IM) + 10))
    logs.flags.writeable = False
    return logs


def _zeta_euler_maclaurin(z: np.ndarray) -> np.ndarray:
    """sum_{k<N} k^-z + N^(1-z)/(z-1) + N^-z/2 + sum_j B_2j/(2j)! z(z+1)...(z+2j-2) N^(1-z-2j)
    for a 1-d complex array z, with N = max(30, 1.6 |Im z| + 10) per point,
    so the tail shrinks at every height.  Needs |Im z| <= _ZETA_MAX_IM."""
    big_n = np.maximum(30, (1.6 * np.abs(z.imag)).astype(int) + 10)
    # k^-z = k^n exp(-(z + n) log k) with n = round(-Re z) >= 0, and the same
    # for N: the integer power is exact, so the exp's argument (and its
    # rounding) stays small where Re z < 0 and the sum cancels down to zeta.
    # Every k^-z, N^-z and tail term with k >= 2 underflows once Re z > 1100,
    # so capping Re z there keeps -z log k and the rising factorials finite
    # (no 0 * inf) without moving the value.
    shift = np.maximum(0, np.rint(-z.real)).astype(int)
    zc = z.copy()
    zc.real = np.minimum(z.real, 1100.0)
    w = zc + shift
    # the partial sums one block of rows per distinct N, each row exactly
    # N - 1 terms long, so a point's sum does not depend on its batch
    total = np.empty(z.size, complex)
    for n in set(big_n.tolist()):
        rows = big_n == n
        terms = np.exp(-w[rows, None] * _log_k()[: n - 1])
        if shift[rows].any():
            terms *= (np.arange(1, n) ** shift[rows, None]).astype(float)
        total[rows] = terms.sum(axis=1)
    ln = np.log(big_n)
    scale = (big_n ** shift).astype(float)
    total += np.exp((1 - w) * ln) * scale / (z - 1)
    total += 0.5 * np.exp(-w * ln) * scale
    # z(z+1)...(z+2j-2) N^(1-z-2j) for j = 1 .. 15: the first term, then one
    # cumprod over the steps (z+2j-1)(z+2j)/N^2
    steps = np.arange(1, len(_BERNOULLI))
    tail = np.empty((z.size, len(_BERNOULLI)), complex)
    tail[:, 0] = zc * np.exp(-(w + 1) * ln) * scale
    tail[:, 1:] = (zc[:, None] + (2 * steps - 1)) * (zc[:, None] + 2 * steps) / (big_n * big_n)[:, None]
    return total + (np.cumprod(tail, axis=1) * _BERNOULLI).sum(axis=1)


def riemann_zeta(z):
    """zeta(z) on Re z >= -3, |Im z| <= 1000, by Euler-Maclaurin summation.

    z is taken as in the numerics module docstring; one vectorized body
    serves every point, with N and the integer shift set per point.  A
    scalar is a one-point array (about 60 us against 12 us for the scalar
    loop it replaced), so callers pass their points in one array.

    The error against mpmath at 30 digits stays below rel * |zeta| + abs per
    strip of Re z, |Im z| <= 1000.  Each bound is about 1.5 times the worst
    seen over 400 random points per strip, Im z = 0, 0.5, ..., 1000 at the
    strip's lower edge (the worst Re z), in the critical strip six values
    of Re z at Im z = 0.25, 2.25, ..., 998.25, and on [-3, -1) 4096 values
    of Re z at Im z = 0, 1/8, 1/2, 2:

                    rel      abs
        [-3, -1)    1.7e-8   1e-11   (rel near Re z = -3 and the real axis,
                                      where the partial sum cancels; abs
                                      near the trivial zero at -2)
        [-1, -1/4)  4e-11    0
        [-1/4, 1)   1.5e-11  2e-12   (abs near the zeros; 1.2e-12 at 50
                                      zeros up to height 1000)
        [1, 4)      5e-13    0
        [4, 40]     1e-14    0

    There is no reflection branch: completed_zeta reflects Re z < -1/4
    itself.  Raises RangeError outside the domain, PoleError at z = 1, each
    naming the first such element of an array.
    """
    (zs,), back = _stack("riemann_zeta", z=z)
    zs = zs.astype(complex, copy=False)
    bad = ~((-3.0 <= zs.real) & (np.abs(zs.imag) <= _ZETA_MAX_IM))
    if bad.any():
        raise RangeError(f"riemann_zeta needs Re z >= -3 and |Im z| <= 1000, got {zs[bad][0]}")
    if (np.abs(zs - 1) < 1e-12).any():
        raise PoleError("zeta pole at z = 1")
    return back(_zeta_euler_maclaurin(zs))


def completed_zeta(z):
    """Lambda(z) = Gamma_R(z) zeta(z) on |Re z| <= 200, |Im z| <= 450.

    z is taken as in the numerics module docstring, an array in one
    gamma_factor call and one pass of riemann_zeta's Euler-Maclaurin body.
    Poles at 0 and 1.  Re z < -1/4 goes through Lambda(z) = Lambda(1 - z),
    which keeps the trivial-zero cancellation away from 0 * inf.  The bounds
    are where Gamma_R leaves float range: on Re z < 1 the reflection inside
    complex_gamma overflows from |Im z| = 452.5 (on Re z >= 1 the value
    underflows from |Im z| of about 900), and Gamma_R overflows from Re z of
    about 250.  Worst relative error against mpmath at 30 digits, 150 random
    points per strip: 1.9e-12 on Re z in [-1/4, 5/4], 3.7e-13 elsewhere.
    Raises RangeError outside the domain and PoleError at a pole, each
    naming the first such element of an array.
    """
    (zs,), back = _stack("completed_zeta", z=z)
    zs = zs.astype(complex, copy=False)
    bad = ~((np.abs(zs.real) <= 200.0) & (np.abs(zs.imag) <= 450.0))
    if bad.any():
        raise RangeError(f"completed_zeta needs |Re z| <= 200 and |Im z| <= 450, got {zs[bad][0]}")
    pole = (np.abs(zs) < 1e-10) | (np.abs(zs - 1) < 1e-10)
    if pole.any():
        raise PoleError(f"completed zeta pole at z = {zs[pole][0]}")
    zs = np.where(zs.real < -0.25, 1 - zs, zs)
    # reflected, every point is inside riemann_zeta's domain and off its pole
    return back(gamma_factor(GammaKind.REAL, zs) * _zeta_euler_maclaurin(zs))


def residue_constant() -> float:
    """-Lambda*(0) / (2 Lambda(2)) with Lambda*(0) the residue at 0.

    Both residues are measured by extrapolating (z - a) Lambda(z); the value
    is 3/pi once the residue at 1 comes out as 1 and Lambda(2) = pi/6, and
    the tests check those two inputs independently.
    """
    res1 = residue_at_one()
    res0 = -res1  # functional equation; also measured directly in tests
    return -res0 / (2 * completed_zeta(2.0).real)


# nodes h = 10^-2 / 2^i, i < 4, of both residue extrapolations
_RESIDUE_HS = tuple(1e-2 / 2**i for i in range(4))


def residue_at_one() -> float:
    """lim (z - 1) Lambda(z) by Richardson extrapolation from the right; the
    four nodes take one completed_zeta call."""
    lam = completed_zeta(1 + np.array(_RESIDUE_HS)).real.tolist()
    return limit_at_zero(_RESIDUE_HS, [((1 + h) - 1) * v for h, v in zip(_RESIDUE_HS, lam)])


def residue_at_zero() -> float:
    # lim (z - 0) Lambda(z) with z -> 0^+ from h = z, the nodes in one call
    lam = completed_zeta(np.array(_RESIDUE_HS)).real.tolist()
    return -limit_at_zero(_RESIDUE_HS, [h * v for h, v in zip(_RESIDUE_HS, lam)])


def mu_global_factor(y):
    """Lambda(1 - 2iy) / Lambda(1 + 2iy), the global eigenvalue factor, on |y| <= 200.

    y is real, taken as in the numerics module docstring (an array in one
    completed_zeta call); a complex y raises TypeError.  For real y,
    Lambda(1 - 2iy) = conj Lambda(1 + 2iy), so the factor is conj(w) / w
    with w = Lambda(1 + 2iy): one evaluation, unit modulus by construction,
    all of the error in the phase.  Worst absolute error against mpmath at
    30 digits, 300 random y <= 200: 5.2e-13.  The bound keeps the phase
    oracle Lambda(2iy) / Lambda(1 + 2iy) in range, whose gamma reflection
    overflows from y = 226.  The simple poles at the center cancel in the
    ratio, which tends to -1; below the pole guard the limit value is
    returned directly.  Raises RangeError for |y| > 200, naming the first
    such element of an array.
    """
    (ys,), back = _stack("mu_global_factor", real=("y",), y=y)
    ys = ys.astype(float, copy=False)
    bad = ~(np.abs(ys) <= 200.0)
    if bad.any():
        raise RangeError(f"mu_global_factor needs |y| <= 200, got {ys[bad][0]}")
    vals = np.full(ys.shape, -1.0 + 0j)
    far = np.abs(ys) >= 1e-9
    w = completed_zeta(1 + 2j * ys[far])
    vals[far] = w.conj() / w
    return back(vals)


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


def mu_global(points: Sequence[GlobalSpectralPoint], ktypes: Sequence[GlobalKType]) -> np.ndarray:
    """Global eigenvalue at each point with its K-type: the completed-zeta
    ratio times the nontrivial local factors.

    The ratios of all points take one mu_global_factor call, and the
    real-place factors of the points with a nonzero real weight one
    mu_arch call on arrays of their s = iy, mu and weights (n0 = 0); each
    value then takes its finite-place factors in the order of its K-type.
    """
    if len(points) != len(ktypes):
        raise ValueError(f"need one K-type per point, got {len(points)} points and {len(ktypes)} K-types")
    ys = np.array([pt.y for pt in points], float)
    vals = mu_global_factor(ys)
    real = [i for i, kt in enumerate(ktypes) if kt.real_weight != 0]
    if real:
        vals[real] *= mu_arch(Place.REAL, 1j * ys[real], [points[i].mu for i in real], 0,
                              [ktypes[i].real_weight for i in real])
    for i, (pt, kt) in enumerate(zip(points, ktypes)):
        s = 1j * pt.y
        for p, n in kt.finite_weights:
            if n != 0:
                vals[i] *= mu_finite(unramified_params(p, s, pt.mu), n)
    return vals


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
    is_selfdual: bool = False,
) -> float:
    """Truncated-norm identity off the axis (Re s != 0), untwisted.

    (2 Re s)^(-1) (|f|^2 c^(2 Re s) - |Mf|^2 c^(-2 Re s))
      + [selfdual] 2 Im(pairing * c^(2 i Im s)) / (2 Im s)
    """
    sigma, tau = s.real, s.imag
    if sigma == 0:
        raise ValueError("off-axis form needs Re s != 0; use the on-axis limit")
    if c <= 1:
        raise ValueError("truncation height must exceed 1")
    val = (normf**2 * c ** (2 * sigma) - normMf**2 * c ** (-2 * sigma)) / (2 * sigma)
    if is_selfdual:
        freq = 2 * tau
        if freq == 0:
            raise ZeroDivisionError("self-dual term at zero frequency: use the limit form")
        val += 2 * (pairing * cmath.exp(1j * freq * math.log(c))).imag / freq
    return val


# How far |mu| may stray from 1 where maass_selberg_onaxis takes the scalar
# model's unitarity on trust.
AXIS_MODULUS_TOL = 1e-9


def maass_selberg_onaxis(
    y: float,
    c: float,
    mu_value: complex,
    mu_prime: complex,
    is_selfdual: bool = False,
) -> float:
    """On-axis limit of the truncated-norm identity in the scalar model.

    2 log c - Re(mu'/mu) plus, in the self-dual case, Im(c^(2iy) conj(mu))/y
    with the finite y -> 0 limit -2 log c - Re(mu') used for |y| < 1e-8
    (the model then has mu(0) = -1, so the singular parts cancel).
    """
    if c <= 1:
        raise ValueError("truncation height must exceed 1")
    if abs(abs(mu_value) - 1) > AXIS_MODULUS_TOL:
        raise ValueError("scalar model requires |mu| = 1 on the axis")
    val = 2 * math.log(c) - (mu_prime / mu_value).real
    if is_selfdual:
        if abs(y) < 1e-8:
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


def sobolev_weight_sum(a_power: int, y_max: float, n_max: int) -> float:
    """Partial value of the untwisted real-place spectral weight sum

        sum over even 0 <= n <= n_max of int_0^{y_max} (1 + lambda(iy; n))^(2 - 2 a) dy,

    a convergence diagnostic: doubling the cutoffs must change the value by a
    vanishing amount once a_power >= 3.  The trapezoid rule takes
    max(200, 8 y_max) steps, a fixed spacing across cutoffs.
    """
    if a_power < 2:
        raise RangeError("weight exponent must be >= 2")
    ys = np.linspace(0.0, y_max, max(200, int(8 * y_max)) + 1)
    total = 0.0
    for n in range(0, n_max + 1, 2):
        vals = (1.0 + laplace_eigenvalue(Place.REAL, ys, 0.0, n)) ** (2 - 2 * a_power)
        total += float(trapezoid(vals, ys))
    return total


def sobolev_term_decay_slope(a_power: int) -> float:
    """Log-log slope of the complex-place term at y = 1 against even n in
    [32, 256]; near 4 - 4a."""
    ns = range(32, 257, 2)
    lam = np.array([laplace_eigenvalue(Place.COMPLEX, 1.0, 0.0, n) for n in ns])
    terms = (1 + lam) ** (2 - 2 * a_power)
    slope = np.polyfit(np.log(np.array(ns, dtype=float)), np.log(terms), 1)[0]
    return float(slope)
