"""Gamma factors, Bessel-K integrals, and double-exponential quadrature.

Everything downstream (Tate-type radial integrals, archimedean eigenvalues,
the completed zeta factor) is built on the two normalized gamma factors

    Gamma_R(s) = pi**(-s/2) * Gamma(s/2)
    Gamma_C(s) = 2 * (2*pi)**(-s) * Gamma(s)

and on adaptive trapezoid quadrature after a double-exponential change of
variables.  The normalizations are not assumed: the test suite pins them by
matching the radial integrals they are meant to equal.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InconsistentRatio, PoleError, ToleranceNotMet

# np.trapezoid from numpy 2.0 on; np.trapz, its old name, before (and gone in 2.4)
trapezoid = getattr(np, "trapezoid", None) or np.trapz


class GammaKind(Enum):
    REAL = "real"
    COMPLEX = "complex"


# Convergence test of every adaptive quadrature in the package (_refine): two
# successive refinements agree within max(QUAD_ABS_TOL, QUAD_REL_TOL * |I|),
# else ToleranceNotMet.  The trapezoid rule takes QUAD_MAX_HALVINGS
# refinements; harmonics.haar_integrate_su2 takes 6 at ten times the tolerances.
QUAD_ABS_TOL = 1e-13
QUAD_REL_TOL = 1e-12
QUAD_MAX_HALVINGS = 12

# Lanczos approximation, g = 7 with 9 coefficients.  Relative accuracy is
# around 1e-13 or better on the strips used here, which sits comfortably
# under the 1e-8 .. 1e-10 tolerances of the consumers.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex argument (Lanczos, reflection for Re z < 1/2)."""
    z = complex(z)
    if z.real < 0.5:
        s = cmath.sin(math.pi * z)
        if s == 0:
            raise PoleError(f"gamma pole at z = {z}")
        return math.pi / (s * complex_gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def _near_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    if z.real > 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol and abs(z.imag) <= tol


def gamma_factor(kind: GammaKind, s: complex) -> complex:
    """Normalized gamma factor at an archimedean completion.

    REAL gives pi**(-s/2) Gamma(s/2), COMPLEX gives 2 (2 pi)**(-s) Gamma(s).
    Raises PoleError when the underlying Gamma argument sits at a nonpositive
    integer; continuation through poles is the caller's responsibility.
    """
    s = complex(s)
    if kind is GammaKind.REAL:
        if _near_nonpositive_integer(s / 2):
            raise PoleError(f"Gamma_R pole at s = {s}")
        return cmath.exp(-(s / 2) * math.log(math.pi)) * complex_gamma(s / 2)
    if kind is GammaKind.COMPLEX:
        if _near_nonpositive_integer(s):
            raise PoleError(f"Gamma_C pole at s = {s}")
        return 2.0 * cmath.exp(-s * math.log(2.0 * math.pi)) * complex_gamma(s)
    raise ValueError(f"unknown gamma kind {kind!r}")


def _refine(level: Callable[[int], complex], refinements: int, scale: int, failure: str) -> complex:
    """level(k) at k = 1, 2, ... until it agrees with level(k - 1) within
    max(scale * QUAD_ABS_TOL, scale * QUAD_REL_TOL * |level(k)|); raises
    ToleranceNotMet(failure) after `refinements` refinements."""
    prev = level(0)
    for k in range(1, refinements + 1):
        cur = level(k)
        if abs(cur - prev) <= max(QUAD_ABS_TOL * scale, QUAD_REL_TOL * scale * abs(cur)):
            return cur
        prev = cur
    raise ToleranceNotMet(failure)


def _trapezoid_doubling(g: Callable[[float], complex]) -> complex:
    """Trapezoid rule with step halving for integrands decaying fast on R.

    Each sweep at step h walks outward from 0 in both directions until six
    terms in a row fall below the truncation floor.  The step is halved
    until two consecutive sweeps agree; every sweep evaluates all of its
    nodes afresh, including those an earlier, coarser sweep already took.
    """
    floor = QUAD_ABS_TOL * 1e-3

    def sweep(h: float) -> complex:
        total = complex(g(0.0))
        for direction in (1.0, -1.0):
            k = 1
            quiet = 0
            while True:
                v = complex(g(direction * k * h))
                total += v
                mag = abs(v)
                if mag < floor * (1.0 + abs(total)):
                    quiet += 1
                    if quiet >= 6:
                        break
                else:
                    quiet = 0
                k += 1
                if k > 200000:
                    raise ToleranceNotMet("integrand does not decay on the grid")
        return total * h

    return _refine(lambda k: sweep(0.5 ** (k + 1)), QUAD_MAX_HALVINGS, 1, "trapezoid refinement budget exhausted")


def quad_realline(g: Callable[[float], complex]) -> complex:
    """Integral over R of a smooth integrand with at least exponential decay."""
    return _trapezoid_doubling(g)


def quad_halfline(f: Callable[[float], complex]) -> complex:
    """Integral over (0, inf) via the exp-sinh substitution r = exp(c sinh u).

    Handles integrands with power behavior at 0 and Gaussian or exponential
    decay at infinity; both tails become doubly exponential after the
    substitution, so the trapezoid rule converges geometrically.
    """
    c = 0.5 * math.pi

    def g(u: float) -> complex:
        arg = c * math.sinh(u)
        if arg > 700.0 or arg < -700.0:
            return 0.0j
        r = math.exp(arg)
        w = r * c * math.cosh(u)
        if not math.isfinite(w):
            return 0.0j
        v = complex(f(r))
        return v * w

    return _trapezoid_doubling(g)


def bessel_k(nu: complex, y: float) -> complex:
    """Modified Bessel function of the second kind as a half-line integral.

    Evaluates (1/2) * int_0^inf exp(-y (t + 1/t)) t**nu dt/t after the
    logarithmic substitution t = exp(u), which makes the integrand
    symmetric with doubly exponential decay.
    """
    if y <= 0:
        raise ValueError("bessel_k requires y > 0")
    nu = complex(nu)

    def g(u: float) -> complex:
        expo = -2.0 * y * math.cosh(u)
        if expo < -745.0:
            return 0.0j
        return 0.5 * cmath.exp(expo + nu * u)

    return _trapezoid_doubling(g)


def bessel_k_alt(nu: complex, y: float) -> complex:
    """Second integral representation: int_0^inf exp(-y(t^2 + t^-2)) t^(2 nu) dt/t."""
    if y <= 0:
        raise ValueError("bessel_k_alt requires y > 0")
    nu = complex(nu)

    def g(u: float) -> complex:
        expo = -2.0 * y * math.cosh(2.0 * u)
        if expo < -745.0:
            return 0.0j
        return cmath.exp(expo + 2.0 * nu * u)

    return _trapezoid_doubling(g)


def kernel_ka(kind: GammaKind, a: float, w: complex) -> complex:
    """Radial kernel of the smooth-section surjectivity argument.

    COMPLEX: 4 K_w(a); REAL: 2 K_{w/2}(a), where K is bessel_k.  The defining
    integrals (see kernel_ka_quad) reduce to these by t = r^2 resp. t = r.
    """
    if not (1.0 <= a < 2.0):
        raise ValueError("a must lie in [1, 2)")
    if kind is GammaKind.COMPLEX:
        return 4.0 * bessel_k(w, a)
    if kind is GammaKind.REAL:
        return 2.0 * bessel_k(complex(w) / 2.0, a)
    raise ValueError(f"unknown gamma kind {kind!r}")


def kernel_ka_quad(kind: GammaKind, a: float, w: complex) -> complex:
    """Direct quadrature of the defining kernel integral, used as the oracle.

    COMPLEX: 4 int_0^inf exp(-a (r^2 + r^-2)) r^(2w) dr/r
    REAL:    2 int_0^inf exp(-a (r^2 + r^-2)) r^w     dr/r
    """
    w = complex(w)
    mult = 2.0 * w if kind is GammaKind.COMPLEX else w
    front = 4.0 if kind is GammaKind.COMPLEX else 2.0

    def f(r: float) -> complex:
        lr = math.log(r)
        expo = -a * (r * r + 1.0 / (r * r))
        if expo < -745.0:
            return 0.0j
        return cmath.exp(expo + (mult - 1.0) * lr)

    return front * quad_halfline(f)


@lru_cache(maxsize=None)
def radial_gaussian_moment(kind: GammaKind, z: complex) -> complex:
    """Quadrature of the Tate radial integral whose closed form is gamma_factor.

    COMPLEX: 4 int_0^inf exp(-2 pi r^2) r^z dr/r  =  Gamma_C(z/2)
    REAL:    2 int_0^inf exp(-pi r^2)   r^z dr/r  =  Gamma_R(z)

    Converges for Re z > 0.  These identities pin the gamma-factor
    normalizations; the tests assert them rather than assume them.  Cached:
    the archimedean oracle needs the same moments at every sample point.
    """
    z = complex(z)
    if z.real <= 0:
        raise ValueError("radial moment requires Re z > 0")
    if kind is GammaKind.COMPLEX:
        front, coef = 4.0, 2.0 * math.pi
    else:
        front, coef = 2.0, math.pi

    def f(r: float) -> complex:
        expo = -coef * r * r
        if expo < -745.0:
            return 0.0j
        return cmath.exp(expo + (z - 1.0) * math.log(r))

    return front * quad_halfline(f)


def _consistent_ratio(ratios: list[complex], tol: float, sample: str) -> complex:
    """Mean of an oracle's eigenvalue ratios, once they agree.

    Each ratio comes from one sample point or row; `sample` ("point" or
    "row") names it in the error.  Raises InconsistentRatio with fewer than
    two ratios, or when one lies farther than tol * max(1, |first ratio|)
    from the first.
    """
    if len(ratios) < 2:
        raise InconsistentRatio(f"not enough usable sample {sample}s")
    center = ratios[0]
    scale = max(1.0, abs(center))
    for r in ratios[1:]:
        if abs(r - center) > tol * scale:
            raise InconsistentRatio(f"sample-{sample} dependence {abs(r - center):.3e} exceeds {tol:.1e}")
    return sum(ratios) / len(ratios)
