"""Archimedean Tate sections and intertwining eigenvalues, with oracles.

A Schwartz element Phi is carried to a section of the induced representation
by the radial integral

    f_Phi(s; kappa) = int_{F^x} Phi((0, t) kappa) chi(t) |t|^(1+2s) d*t,

where chi has twist exponent mu and angular weight n0.  On the maximal
compact the integral collapses to gamma factors times the harmonic attached
to Phi, which is the closed form; the same integral evaluated by numeric
angular averaging plus double-exponential radial quadrature is the oracle.

Multiplicative measures are the ones that reproduce the closed forms
exactly: d*t = (2/pi) (dr/r) dalpha on C^x and d*t = dt/|t| on R^x.  The
tests assert these calibrations rather than assuming them.

The normalized eigenvalue on the weight-n flat section is

  complex place:  Gc(a+|n0|/2)/Gc(b+|n0|/2) * i**n0 * Gc(b+n/2)/Gc(a+n/2)
  real place:     Gr(a+n0)/Gr(b+n0) * (-1)**((|n|-n)/2) * Gr(b+|n|)/Gr(a+|n|)

with a = 1+2s+i mu, b = 1-2s-i mu.  The i**n0 phase at the complex place is
the one the transform pipeline produces; see the oracle tests, which pin it
for odd n0 where the two possible sign conventions genuinely differ.

Each quantity has one evaluator on the points (s, mu, n0, n) of one place,
taken and returned by the convention of the numerics module docstring:
mu_arch (the closed form), mu_arch_logderiv, mu_arch_derivative and
mu_arch_oracle.  Each checks its points once (_points) and evaluates all of
them in one pass: mu_arch with one gamma_factor call over an array (a point
costs about 1.5-2 us in an array of 100 or more, against about 100-150 us
for a one-point call, so verify's loops and the mu tables pass whole
arrays), the oracle with one gamma_factor call for the local L-factors of
all its points and one array call of radial_gaussian_moment for their
moments, one stacked quadrature for every moment the cache lacks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParityError, RangeError
from .harmonics import (
    LieGen,
    SU2Point,
    _check_su2_indices,
    harmonic_su2,
    hopf_point,
    lie_act_su2,
)
from .numerics import GammaKind, _consistent_ratio, _stack, gamma_factor, radial_gaussian_moment
from .schwartz import (
    PolyGaussian2,
    PolyGaussian4,
    fourier_hat_c,
    fourier_hat_h,
    section_so2,
    section_su2,
)


class Place(Enum):
    REAL = "real"
    COMPLEX = "complex"


@dataclass(frozen=True)
class ArchParams:
    """Spectral point at one archimedean place.

    mu is the real twist exponent of the inducing character pair; n0 is its
    angular weight (any integer at a complex place, a parity in {0, 1} at a
    real place); s is the continuous induction parameter.
    """

    place: Place
    s: complex
    mu: float = 0.0
    n0: int = 0

    def __post_init__(self):
        if not (cmath.isfinite(self.s) and math.isfinite(self.mu)):
            raise RangeError(f"need finite s and mu, got s={self.s}, mu={self.mu}")
        if self.place is Place.REAL and self.n0 not in (0, 1):
            raise ParityError(f"real-place angular weight must be 0 or 1, got {self.n0}")


def _check_type_index(place: Place, n0: int, n: int):
    if place is Place.COMPLEX:
        _check_su2_indices(n0, n, 0)
    else:
        if abs(n) < n0:
            raise RangeError(f"need |n| >= n0, got n={n}, n0={n0}")
        if (n - n0) % 2 != 0:
            raise ParityError(f"need n = n0 mod 2, got n={n}, n0={n0}")


_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def _i_pow(n: int) -> complex:
    return _I_POWERS[n % 4]


# (gamma kind, weight divisor d) at each place: weight n enters the gamma
# factors as |n| / d
_GAMMA = {Place.COMPLEX: (GammaKind.COMPLEX, 2), Place.REAL: (GammaKind.REAL, 1)}


# |Re s| at most this counts as the unitary axis s = iy, the domain of the
# log derivative and of the product form; _ON_AXIS is that domain as
# numerics._stack takes it
_AXIS = 1e-14
_ON_AXIS = (f"s on the unitary axis (|Re s| <= {_AXIS:g})", lambda s: np.abs(np.real(s)) <= _AXIS)


def _out_of_range(y: float, n: int, name: str = "mu_arch") -> RangeError:
    return RangeError(f"{name}: gamma ratio leaves float range at y = {y:g}, n = {n}")


def _points(name: str, place: Place, s, mu, n0, n, on_axis: bool = False) -> tuple[tuple[np.ndarray, ...], Callable]:
    """s, mu, n0 and n flattened by numerics._stack for the evaluator
    `name`, and the function that puts its result back; each point checked
    as ArchParams and _check_type_index check it, and with on_axis for
    |Re s| <= _AXIS."""
    domain = {"s": _ON_AXIS} if on_axis else None
    (s, mu, n0, n), back = _stack(name, real=("mu",), domain=domain, s=s, mu=mu, n0=n0, n=n)
    if place is Place.REAL:
        bad = (n0 != 0) & (n0 != 1)
        if bad.any():
            raise ParityError(f"real-place angular weight must be 0 or 1, got {n0[bad][0]}")
    for pair in dict.fromkeys(zip(n0.tolist(), n.tolist())):
        _check_type_index(place, *pair)
    return (s.astype(complex, copy=False), mu.astype(float, copy=False), n0, n), back


def _mu_values(place: Place, s: np.ndarray, mu: np.ndarray, n0: np.ndarray, n: np.ndarray) -> np.ndarray:
    """mu_arch at the checked flat points of _points, as a flat array."""
    kind, d = _GAMMA[place]
    a = 1 + 2 * s + 1j * mu
    b = 1 - 2 * s - 1j * mu
    h = np.abs(n0) / d
    m = np.abs(n) / d
    with np.errstate(all="ignore"):
        ga_h, gb_h, gb_m, ga_m = gamma_factor(kind, np.concatenate((a + h, b + h, b + m, a + m))).reshape(4, -1)
        head = ga_h / gb_h
        if place is Place.COMPLEX:
            head = head * np.array(_I_POWERS)[n0 % 4]
        sign = np.where((np.abs(n) - n) // 2 % 2, -1.0, 1.0)
        vals = head * sign * gb_m / ga_m
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise _out_of_range(float(s[i].imag), int(n[i]))
    return vals


def mu_arch(place: Place, s, mu, n0, n):
    """Closed-form eigenvalue of the normalized intertwiner on weight-n flat
    sections, at the points (s, mu, n0, n) of one place.

    s (complex), mu (real), n0 and n (ints) are taken as in the numerics
    module docstring: point i is ArchParams(place, s[i], mu[i], n0[i]) at
    weight n[i], checked as ArchParams and _check_type_index check it.
    Every gamma factor of every point is evaluated in one gamma_factor
    call over an array, and point i's value is head * sign * G(b+|n|/d) /
    G(a+|n|/d), head = G(a+|n0|/d) / G(b+|n0|/d) times i**n0 at the
    complex place, the left-to-right order of the four-gamma formula in the
    module docstring.  A value does not depend on the other points of its
    call.  Raises RangeError when a value is not finite (a gamma ratio
    leaves float range), naming the y = Im s and the n of the first such
    point.

    The normalization is by the local L-factors: the unnormalized operator
    has eigenvalue mu_arch times L(1 - 2s, chi^-1) / L(1 + 2s, chi), where
    L(z, chi) = G(z + i mu + |n0|/d) and chi^-1 has twist -mu.  With it the
    value has unit modulus on the axis.
    """
    args, back = _points("mu_arch", place, s, mu, n0, n)
    return back(_mu_values(place, *args))


def mu_arch_product(params: ArchParams, n: int) -> complex:
    """Finite-product form of the eigenvalue on the unitary axis (s = iy).

    Obtained from the gamma ratios by the step recursion; agreement with
    mu_arch to machine precision is one of the cross-checks.
    """
    _check_type_index(params.place, params.n0, n)
    y = params.s.imag
    if abs(params.s.real) > _AXIS:
        raise RangeError(f"mu_arch_product requires {_ON_AXIS[0]}, got {params.s!r}")
    t = 2 * y + params.mu
    ah = complex(1, t)
    bh = complex(1, -t)
    if params.place is Place.COMPLEX:
        val = _i_pow(params.n0)
        h = abs(params.n0) / 2
        for k in range((n - abs(params.n0)) // 2):
            val *= (bh + h + k) / (ah + h + k)
        return val
    val = (-1.0) ** ((abs(n) - n) // 2)
    for k in range((abs(n) - params.n0) // 2):
        val *= (bh + params.n0 + 2 * k) / (ah + params.n0 + 2 * k)
    return val


def _logderiv_values(place: Place, s: np.ndarray, mu: np.ndarray, n0: np.ndarray, n: np.ndarray) -> np.ndarray:
    """mu_arch_logderiv at the checked flat points of _points, as a flat
    real array."""
    d = _GAMMA[place][1]
    t = 2 * s.imag + mu
    counts = (np.abs(n) - np.abs(n0)) // 2
    c0, dc = 1 + np.abs(n0) / d, 2 / d
    total = np.zeros(t.shape)
    for k in range(int(counts.max(initial=0))):
        c = c0 + dc * k
        total = np.where(k < counts, total - 4 * c / (t * t + c * c), total)
    return total


def mu_arch_logderiv(place: Place, s, mu, n0, n):
    """Exact logarithmic derivative (d/ds) log mu_arch on the unitary axis,
    at the points of mu_arch (same arguments, same checks); real and <= 0,
    returned as complex values by the convention of mu_arch.

    Domain: s = iy with |Re s| <= 1e-14, the test of mu_arch_product; the
    sum below holds only there, so an off-axis s raises RangeError naming
    the first one.  Weight n sums K = (|n| - |n0|) / 2 terms -4c / (t^2 + c^2),
    with t = 2y + mu and c = 1 + (|n0| + 2k) / d for k = 0 .. K - 1,
    subtracted in order of k; so a value does not depend on the other points.
    """
    args, back = _points("mu_arch_logderiv", place, s, mu, n0, n, on_axis=True)
    return back(_logderiv_values(place, *args).astype(complex))


def mu_arch_derivative(place: Place, s, mu, n0, n):
    """(exact, finite difference) values of d mu / ds at the points s = iy
    of mu_arch_logderiv (same arguments, same checks, same domain), each
    returned as mu_arch returns its values.

    The exact value is mu * logderiv; the central difference evaluates the
    gamma-ratio form at s +- 1e-5 and is the independent check.  mu at s,
    s + 1e-5 and s - 1e-5 come from one closed-form pass over the points
    checked once.  Only the cross-checks want the difference (verify's
    arch/deriv-fd cases and the tests); a caller that needs just the
    derivative computes mu * logderiv itself and evaluates the gamma ratios
    once instead of three times.
    """
    (s, mu, n0, n), back = _points("mu_arch_derivative", place, s, mu, n0, n, on_axis=True)
    h = 1e-5
    val, plus, minus = _mu_values(place, np.concatenate((s, s + h, s - h)), np.tile(mu, 3), np.tile(n0, 3),
                                  np.tile(n, 3)).reshape(3, -1)
    return back(val * _logderiv_values(place, s, mu, n0, n)), back((plus - minus) / (2 * h))


def mu_arch_derivative_bound(params: ArchParams, n: int) -> float:
    """Displayed upper bound for |mu'(iy)| at this place and weight."""
    _check_type_index(params.place, params.n0, n)
    if params.place is Place.COMPLEX:
        m = abs(params.n0)
        if n == m:
            return 0.0
        return 4.0 * (2.0 / (m + 2) + math.log(n / (m + 2)))
    m = params.n0
    if abs(n) == m:
        return 0.0
    return 2.0 * (2.0 / (m + 1) + math.log((abs(n) - 1) / (m + 1)))


# ---------------------------------------------------------------------------
# Tate sections


def _bottom_row(kappa: SU2Point) -> tuple[complex, complex]:
    # (0, 1) kappa: the first row of the Weyl-rotated point
    return (-kappa.z2.conjugate(), kappa.z1.conjugate())


def _angular_trapezoid(m: int, n_alpha: int) -> complex:
    """n_alpha-point trapezoid sum of int_0^(2 pi) exp(i m alpha) dalpha.

    2 pi when n_alpha divides m and zero to rounding otherwise, so it is the
    exact integral once n_alpha > |m|.
    """
    acc = 0j
    for j in range(n_alpha):
        alpha = 2.0 * math.pi * j / n_alpha
        acc += cmath.exp(1j * m * alpha)
    return acc * (2.0 * math.pi / n_alpha)


def _check_method(method: str):
    if method not in ("closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")


def _complex_degree_weights(phi: PolyGaussian4, n0: int, kappa: SU2Point, method: str) -> tuple:
    """(degree, weight) pairs of the complex-place section of phi at kappa.

    The section is sum_deg W_deg * R(deg), R the radial integral of
    _section_sum.  W_deg sums coeff * v1^a v2^b conj(v1)^c conj(v2)^d over
    the monomials of total degree deg whose angular weight matches -n0,
    times (2/pi) * (trapezoid angular sum) for "quadrature"; degrees come in
    the order of their first monomial.  This is the only monomial loop of
    the complex place: both methods of tate_section_complex and the oracle's
    plan read it.
    """
    v1, v2 = _bottom_row(kappa)
    v1c, v2c = v1.conjugate(), v2.conjugate()
    if method == "quadrature":
        n_alpha = 4 * (phi.poly.max_degree() + abs(n0) + 2) + 8
    weights: dict[int, complex] = {}
    for (a, b, c, d), coeff in phi.poly.complex_terms():
        if method == "closed":
            if a + b - c - d != -n0:
                continue
            w = coeff * v1**a * v2**b * v1c**c * v2c**d
        else:
            angular = _angular_trapezoid(n0 + a + b - c - d, n_alpha)
            # the sum is 2 pi or rounding noise (at most 4e-14 for |m| <= 40 and
            # n_alpha <= 59), so any threshold between the two skips exactly the
            # monomials whose weight does not match n0, as the closed form does
            if abs(angular) < 1e-9:
                continue
            w = coeff * v1**a * v2**b * v1c**c * v2c**d * (2.0 / math.pi) * angular
        deg = a + b + c + d
        weights[deg] = weights[deg] + w if deg in weights else w
    return tuple(weights.items())


def _real_degree_weights(phi: PolyGaussian2, n0: int, kappa: complex) -> tuple:
    """(degree, weight) pairs of the real-place section of phi at kappa.

    W_deg sums coeff * v^a conj(v)^b * (1 + (-1)^(n0 + a + b)) over the
    monomials of degree a + b = deg, v = i kappa; the parity factor folds
    the two half-lines of R^x.  The weights do not depend on the method.
    This is the only monomial loop of the real place.
    """
    v = 1j * kappa
    vc = v.conjugate()
    weights: dict[int, complex] = {}
    for (a, b), coeff in phi.poly.complex_terms():
        parity = 1.0 + (-1.0) ** (n0 + a + b)
        if parity == 0.0:
            continue
        w = coeff * v**a * vc**b * parity
        deg = a + b
        weights[deg] = weights[deg] + w if deg in weights else w
    return tuple(weights.items())


def _section_sum(weights: tuple, params: ArchParams, method: str) -> complex:
    """sum_deg W_deg * R(deg), R(deg) the radial integral of the degree-deg
    monomials at params' s and mu, as a gamma factor ("closed", RangeError
    out of float range) or by double-exponential quadrature ("quadrature")."""
    if method == "quadrature":
        zs = _moment_zs(params.place, params.s, params.mu, weights)
        return _weighted_sum(weights, _quadrature_radials(params.place, zs))
    kind, d = _GAMMA[params.place]
    base = 1 + 2 * params.s + 1j * params.mu
    gammas = gamma_factor(kind, np.array([base + deg / d for deg, _ in weights]))
    if not np.isfinite(gammas).all():
        raise RangeError(f"tate section: a gamma factor leaves float range at s = {params.s}")
    rads = gammas.tolist()
    if params.place is Place.REAL:
        rads = [0.5 * g for g in rads]
    return _weighted_sum(weights, rads)


def _weighted_sum(weights: tuple, rads) -> complex:
    """sum_deg W_deg * R(deg), left to right; rads is a sequence or an
    iterator of the radial integrals, and only len(weights) are taken."""
    total = 0j
    for (_, w), rad in zip(weights, rads):
        total += w * rad
    return total


def _moment_zs(place: Place, s: complex, mu: float, weights: tuple) -> list[complex]:
    """The exponents z of the radial moments behind the radial integrals of
    the "quadrature" method, one per (degree, weight) pair: 1 + 2s + i mu +
    deg at the real place, 2 + 4s + 2i mu + deg at the complex place,
    summed left to right."""
    base = 1 + 2 * s + 1j * mu if place is Place.REAL else 2 + 4 * s + 2j * mu
    return [base + deg for deg, _ in weights]


def _quadrature_radials(place: Place, zs: list[complex]) -> list[complex]:
    """The radial integrals whose moment exponents are zs, from one array
    call of radial_gaussian_moment: the moment / 2 at the real place,
    int_0^inf exp(-2 pi r^2) r^z dr/r = moment / 4 at the complex place."""
    kind, d = _GAMMA[place]
    return [m / (2 * d) for m in radial_gaussian_moment(kind, np.array(zs)).tolist()]


def tate_section_complex(
    phi: PolyGaussian4,
    params: ArchParams,
    kappa: SU2Point,
    method: str = "closed",
) -> complex:
    """Section value f_Phi(s; kappa) at the complex place.

    method "closed" sums gamma factors over the monomials whose angular
    weight matches -n0 (valid for all s away from poles); "quadrature"
    replaces the angular integral by a trapezoid sum over the circle, which
    is exact for these trigonometric polynomials, and the radial integral by
    double-exponential quadrature (requires the integrals to converge, i.e.
    moderate |Re s|).  Both methods group the monomials by degree through
    _complex_degree_weights, then sum each degree's weight times its radial
    integral.
    """
    if params.place is not Place.COMPLEX:
        raise ValueError(f"tate_section_complex requires the complex place, got {params.place.value!r}")
    _check_method(method)
    return _section_sum(_complex_degree_weights(phi, params.n0, kappa, method), params, method)


def tate_section_real(
    phi: PolyGaussian2,
    params: ArchParams,
    kappa: complex,
    method: str = "closed",
) -> complex:
    """Section value at the real place; kappa is a unit complex number.

    The row (0, t) kappa corresponds to the complex number t * i * kappa; the
    two half-lines of the multiplicative group fold into a parity factor.
    Both methods sum the per-degree weights of _real_degree_weights times
    each degree's radial integral.
    """
    if params.place is not Place.REAL:
        raise ValueError(f"tate_section_real requires the real place, got {params.place.value!r}")
    _check_method(method)
    return _section_sum(_real_degree_weights(phi, params.n0, kappa), params, method)


# sample points of mu_arch_oracle at the complex and at the real place
_KAPPAS = (
    hopf_point(0.6, 0.4, 1.2),
    hopf_point(0.8, 2.1, 0.3),
    hopf_point(1.0, 5.0, 2.6),
    hopf_point(0.7, 3.4, 4.1),
    hopf_point(0.9, 1.7, 5.5),
)
_REAL_KAPPAS = tuple(cmath.exp(1j * t) for t in (0.3, 1.1, 2.5, 4.0))


@lru_cache(maxsize=None)
def _plan(place: Place, n0: int, n: int, k: int) -> tuple:
    """The part of mu_arch_oracle that does not depend on s or mu.

    One row per usable sample point: (harmonics, denominator weights,
    numerator weights), the weights those of the exact section for weight
    (n0, n), raised k times, and of its exact twisted transform (at weight
    -n0 on the complex place).  harmonics is (h_src(kappa), h_dst(kappa)) at
    the complex place and () at the real place, where both sections carry
    the same character of kappa.  A complex sample point where either
    harmonic is below 1e-6 is not usable and has no row.  Every container is
    a tuple.
    """
    rows = []
    if place is Place.COMPLEX:
        phi = section_su2(n0, n)
        for _ in range(k):
            phi = PolyGaussian4(lie_act_su2(LieGen.XPLUS, phi.poly))
        phi_hat = fourier_hat_h(phi)
        h_src = harmonic_su2(n0, n, k)
        h_dst = harmonic_su2(-n0, n, k)
        for kp in _KAPPAS:
            denom_h = h_src(kp)
            num_h = h_dst(kp)
            if abs(denom_h) < 1e-6 or abs(num_h) < 1e-6:
                continue
            rows.append((
                (denom_h, num_h),
                _complex_degree_weights(phi, n0, kp, "quadrature"),
                _complex_degree_weights(phi_hat, -n0, kp, "quadrature"),
            ))
    else:
        phi = section_so2(n)
        phi_hat = fourier_hat_c(phi)
        for kp in _REAL_KAPPAS:
            rows.append(((), _real_degree_weights(phi, n0, kp), _real_degree_weights(phi_hat, n0, kp)))
    return tuple(rows)


def _l_ratios(place: Place, points: list[tuple]) -> list[complex]:
    """L(1 + 2s, chi) / L(1 - 2s, chi^-1) at each (s, mu, n0, n) of points,
    the local L-factors G(z + i mu + |n0| / d) of the character and of its
    inverse (twist -mu), all from one gamma_factor call; each ratio in
    Python complex arithmetic.  RangeError (_out_of_range) at the first
    point whose L-factor of chi^-1 is 0 or not finite, or whose ratio is
    not finite."""
    kind, d = _GAMMA[place]
    zs = []
    for s, mu, n0, _ in points:
        h = abs(n0) / d
        zs += (1 + 2 * s + 1j * mu + h, 1 - 2 * s + 1j * -mu + h)
    values = gamma_factor(kind, np.array(zs, complex)).tolist()
    ratios = []
    for (s, _, _, n), num, den in zip(points, values[0::2], values[1::2]):
        if den == 0 or not (cmath.isfinite(den) and cmath.isfinite(ratio := num / den)):
            raise _out_of_range(s.imag, n, "mu_arch_oracle")
        ratios.append(ratio)
    return ratios


def mu_arch_oracle(place: Place, s, mu, n0, n, k: int = 0, tol: float = 1e-8):
    """Eigenvalue recovered from the transform pipeline, independent of
    mu_arch, at the points of mu_arch (same arguments, same checks, values
    returned the same way); each value is bit for bit its one-point call's.

    At each point: builds the Schwartz section for weight (n0, n),
    optionally raised k times, applies the exact twisted transform,
    evaluates both Tate integrals by quadrature at several sample points,
    normalizes by the local L-factors, and checks that the resulting ratio
    does not depend on the sample point.

    Work is split by what it depends on.  Once per shape (place, n0, n, k),
    in the cached _plan: the exact section and its transform are built, and
    the harmonic values at the sample points and each section's per-degree
    weights there are kept.  Once per call: the L-factor ratios of every
    point (one gamma_factor call), the radial moments of every point's
    sample rows at its s and mu (one array call of radial_gaussian_moment,
    which computes the ones missing from its cache in one stacked
    quadrature), the sums of weights times moments, and each point's
    consistency check across sample points.  Every point is checked
    (weight, raise count, L-factor ratio) before any moment is computed.

    Raises ValueError for k != 0 at the real place, RangeError where an
    L-factor ratio is not finite, and RangeError where a radial moment
    diverges: the degree-d moment needs Re s > -(d + 2)/4 at the complex
    place and Re s > -(d + 1)/2 at the real place for the section, and the
    same with -s for its transform.  Raises InconsistentRatio when two
    sample points disagree by more than tol.
    """
    (s, mu, n0, n), back = _points("mu_arch_oracle", place, s, mu, n0, n)
    if place is Place.REAL and k != 0:
        raise ValueError("raised sections only exist at the complex place")
    points = list(zip(s.tolist(), mu.tolist(), n0.tolist(), n.tolist()))
    l_ratios = _l_ratios(place, points)
    plans = [_plan(place, n0_i, n_i, k) for _, _, n0_i, n_i in points]

    # every moment in one call, taken back in the order it was listed: point
    # by point, row by row, the section's degrees before the transform's,
    # which lives on the target representation (s and the twist flip sign)
    zs: list[complex] = []
    for (s_i, mu_i, _, _), plan in zip(points, plans):
        for _, den_w, num_w in plan:
            zs += _moment_zs(place, s_i, mu_i, den_w)
            zs += _moment_zs(place, -s_i, -mu_i, num_w)
    taken = iter(_quadrature_radials(place, zs))

    out = []
    for l_ratio, plan in zip(l_ratios, plans):
        ratios: list[complex] = []
        for harmonics, den_w, num_w in plan:
            d_val = _weighted_sum(den_w, taken)
            n_val = _weighted_sum(num_w, taken)
            if harmonics:
                denom_h, num_h = harmonics
                ratios.append(l_ratio * (n_val / num_h) / (d_val / denom_h))
            else:
                ratios.append(l_ratio * n_val / d_val)
        out.append(_consistent_ratio(ratios, tol, "point"))
    return back(np.array(out, complex))
