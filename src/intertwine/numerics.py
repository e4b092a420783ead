"""Gamma factors, Bessel-K integrals, and double-exponential quadrature.

Everything downstream (Tate-type radial integrals, archimedean eigenvalues,
the completed zeta factor) is built on the two normalized gamma factors

    Gamma_R(s) = pi**(-s/2) * Gamma(s/2)
    Gamma_C(s) = 2 * (2*pi)**(-s) * Gamma(s)

and on adaptive trapezoid quadrature after a double-exponential change of
variables.  The normalizations are not assumed: the test suite pins them by
matching the radial integrals they are meant to equal.

Limits at an edge (the residues of the completed zeta at 0 and 1, the
on-axis limit of the truncated norm) all go through limit_at_zero: the
value at h = 0 of the polynomial through samples at a few small h.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import InconsistentRatio, PoleError, ToleranceNotMet

# np.trapezoid from numpy 2.0 on; np.trapz, its old name, before (and gone in 2.4)
trapezoid = getattr(np, "trapezoid", None) or np.trapz


class GammaKind(Enum):
    REAL = "real"
    COMPLEX = "complex"


# Convergence test of the adaptive trapezoid rule: two successive step
# halvings agree within max(QUAD_ABS_TOL, QUAD_REL_TOL * |I|), else
# ToleranceNotMet after QUAD_MAX_HALVINGS halvings.
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


# The coarsest sweep (step 1/2) takes its nodes outward in blocks per side,
# _BLOCK, _BLOCK, 2 _BLOCK, 4 _BLOCK, ... nodes, until a side holds
# _QUIET_RUN terms in a row below the truncation floor; no side may take
# more than _MAX_NODES nodes at one level.  A side that turns out too narrow
# at a finer level grows by _BLOCK coarse steps at a time.
_BLOCK = 8
_QUIET_RUN = 6
_MAX_NODES = 200_000


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _line_nodes(level: int, first_p: int, first_n: int, stride: int, n_p: int, n_n: int):
    """Nodes h (first_p + stride i), i < n_p, then -h (first_n + stride i),
    i < n_n, with h = 2^-(level + 1); unit weights, nothing masked."""
    h = 0.5 ** (level + 1)
    u = np.concatenate((first_p + stride * np.arange(n_p), -(first_n + stride * np.arange(n_n)))) * h
    return _frozen(u), None, None


_EXP_SINH_C = 0.5 * math.pi
# |c sinh u| <= 700 keeps r = exp(c sinh u) and its weight in float range
_EXP_SINH_EDGE = math.asinh(700.0 / _EXP_SINH_C)


@lru_cache(maxsize=64)
def _exp_sinh_nodes(level: int, first_p: int, first_n: int, stride: int, n_p: int, n_n: int):
    """The _line_nodes set mapped by r = exp(c sinh u), with weights
    dr/du = r c cosh u.  Nodes with |c sinh u| > 700 are masked out: `keep`
    marks the rest (None when nothing is masked), and r and w hold only those."""
    u, _, _ = _line_nodes(level, first_p, first_n, stride, n_p, n_n)
    keep = np.abs(u) <= _EXP_SINH_EDGE
    if keep.all():
        keep = None
    else:
        u = u[keep]
    r = np.exp(_EXP_SINH_C * np.sinh(u))
    w = r * _EXP_SINH_C * np.cosh(u)
    return _frozen(r), _frozen(w), keep if keep is None else _frozen(keep)


def _trapezoid_doubling(f: Callable[[np.ndarray], np.ndarray], nodes=_line_nodes) -> complex:
    """Trapezoid rule with nested step halving for integrands decaying fast on R.

    `nodes(level, first_p, first_n, stride, n_p, n_n)` gives the points x at
    which f is evaluated and their weights dx/du (see _line_nodes and
    _exp_sinh_nodes).  The sweep at step 1/2 walks outward from 0 in blocks
    until each side ends in six terms in a row below the truncation floor
    floor * (1 + |running total|); the nodes it took fix the window.  Each
    halving then evaluates only the new odd nodes of the window, both sides
    in one call of f, and adds them to the running sum, so no node is
    evaluated twice.  A side whose outermost new node is not below the floor
    grows by blocks of coarse steps, taking every node of a block at the
    current spacing, until a block ends in six quiet terms.  The step is
    halved until two successive levels agree.  Raises ToleranceNotMet when f
    returns a value that is not finite (naming its node), when a side needs
    more than _MAX_NODES nodes at one level, or when QUAD_MAX_HALVINGS
    halvings do not converge.
    """
    floor = QUAD_ABS_TOL * 1e-3

    def evaluate(level, first_p, first_n, stride, n_p, n_n):
        x, w, keep = nodes(level, first_p, first_n, stride, n_p, n_n)
        v = f(x)
        if np.shape(v) != x.shape:
            raise ValueError(f"integrand returned shape {np.shape(v)} for {x.shape[0]} nodes")
        if w is not None:
            v = v * w
        part = v.sum()
        if not cmath.isfinite(part):
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ToleranceNotMet(f"integrand value {complex(v[i])} at node x = {float(x[i])!r} is not finite")
        if keep is not None:
            full = np.zeros(keep.shape, v.dtype)
            full[keep] = v
            v = full
        return v, part

    # coarsest sweep: node 0 and a block on each side, then further blocks
    # on each side until it holds a run of quiet terms; every node taken
    # stays in the window
    total = 0.0
    window = [0, 0]  # coarse nodes taken on the positive and the negative side
    run = [0, 0]  # quiet terms at the end of each side so far
    ended = [False, False]
    start, n_p, n_n = 1, _BLOCK + 1, _BLOCK  # the first call also takes node 0
    block = _BLOCK
    while True:
        v, part = evaluate(0, window[0] + 1 - start, window[1] + 1, 1, n_p, n_n)
        total += part
        quiet = (np.abs(v) < floor * (1.0 + abs(total))).tolist()
        for s, lo, hi in ((0, start, n_p), (1, n_p, n_p + n_n)):
            r = run[s]
            for q in quiet[lo:hi]:
                r = r + 1 if q else 0
                if r == _QUIET_RUN:
                    ended[s] = True
                    break
            run[s] = r
            window[s] += hi - lo
        if ended[0] and ended[1]:
            break
        if max(window[s] for s in (0, 1) if not ended[s]) >= _MAX_NODES:
            raise ToleranceNotMet("integrand does not decay on the grid")
        start = 0
        n_p, n_n = (0 if ended[s] else min(block, _MAX_NODES - window[s]) for s in (0, 1))
        block *= 2

    prev = 0.5 * total
    for level in range(1, QUAD_MAX_HALVINGS + 1):
        # the odd multiples of h = 2^-(level + 1) inside each side's window
        n_p, n_n = window[0] << (level - 1), window[1] << (level - 1)
        v, part = evaluate(level, 1, 1, 2, n_p, n_n)
        total += part
        # magnitude of each side's outermost new node
        edges = [abs(v[n_p - 1]), abs(v[-1])]
        for s in (0, 1):
            while edges[s] >= floor * (1.0 + abs(total)):
                # the window was too narrow: one more block of coarse steps
                # on this side, every node at this level's spacing, until
                # the block ends in six quiet terms
                count = _BLOCK << level
                if (window[s] << level) + count > _MAX_NODES:
                    raise ToleranceNotMet("integrand does not decay on the grid")
                first = (window[s] << level) + 1
                ext, part = evaluate(level, first, first, 1, count if s == 0 else 0, count if s == 1 else 0)
                total += part
                window[s] += _BLOCK
                edges[s] = np.abs(ext[-_QUIET_RUN:]).max()
        cur = total * 0.5 ** (level + 1)
        if abs(cur - prev) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(cur)):
            return complex(cur)
        prev = cur
    raise ToleranceNotMet("trapezoid refinement budget exhausted")


def quad_realline(g: Callable[[np.ndarray], np.ndarray]) -> complex:
    """Integral over R of a smooth integrand with at least exponential decay.

    g takes a float64 array of nodes and returns an array of the same shape
    (real or complex), finite at every node it is given.  The step-1/2
    sweep finds the window, each halving evaluates only the new odd nodes
    in one call of g, and no node is evaluated twice; a non-finite value
    raises ToleranceNotMet naming its node.
    """
    return _trapezoid_doubling(g)


def quad_halfline(f: Callable[[np.ndarray], np.ndarray]) -> complex:
    """Integral over (0, inf) via the exp-sinh substitution r = exp(c sinh u).

    Handles integrands with power behavior at 0 and Gaussian or exponential
    decay at infinity; both tails become doubly exponential after the
    substitution, so the trapezoid rule converges geometrically.  f takes a
    float64 array of r values, any of them in [exp(-700), exp(700)], and
    returns an array of the same shape, finite and computed without
    overflow at every r it is given (compute in log form and mask where a
    factor would leave float range).  The map and its weights are cached
    per node set; the nodes are nested as in quad_realline.
    """
    return _trapezoid_doubling(f, _exp_sinh_nodes)


def _masked_exp(expo: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """exp(expo + rest) where expo >= -745 and 0 elsewhere; the masked nodes
    are never exponentiated, so a large rest there cannot overflow."""
    keep = expo >= -745.0
    if keep.all():
        return np.exp(expo + rest)
    out = np.zeros(expo.shape, complex)
    out[keep] = np.exp(expo[keep] + rest[keep])
    return out


def bessel_k(nu: complex, y: float) -> complex:
    """Modified Bessel function of the second kind as a half-line integral.

    Evaluates (1/2) * int_0^inf exp(-y (t + 1/t)) t**nu dt/t after the
    logarithmic substitution t = exp(u), which makes the integrand
    symmetric with doubly exponential decay.  At order 1/2, against the
    closed form sqrt(pi / (4y)) exp(-2y) on 1e-6 <= y <= 300, the error is
    at most 1.4e-15 relative while K >= 1e-11 and 4e-18 absolute below
    (3 000 log-spaced y): QUAD_ABS_TOL, not the rule, limits the relative
    accuracy of small values.
    """
    if y <= 0:
        raise ValueError("bessel_k requires y > 0")
    nu = complex(nu)

    def g(u: np.ndarray) -> np.ndarray:
        # cosh stays finite on |u| <= 700, and past it the term is masked anyway
        return 0.5 * _masked_exp(-2.0 * y * np.cosh(np.minimum(np.abs(u), 700.0)), nu * u)

    return _trapezoid_doubling(g)


def bessel_k_alt(nu: complex, y: float) -> complex:
    """Second integral representation: int_0^inf exp(-y(t^2 + t^-2)) t^(2 nu) dt/t."""
    if y <= 0:
        raise ValueError("bessel_k_alt requires y > 0")
    nu = complex(nu)

    def g(u: np.ndarray) -> np.ndarray:
        return _masked_exp(-2.0 * y * np.cosh(np.minimum(np.abs(2.0 * u), 700.0)), 2.0 * nu * u)

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

    def f(r: np.ndarray) -> np.ndarray:
        # a (r^2 + r^-2) stays finite on [1e-100, 1e100]; past it the term is masked
        rc = np.clip(r, 1e-100, 1e100)
        return _masked_exp(-a * (rc * rc + 1.0 / (rc * rc)), (mult - 1.0) * np.log(r))

    return front * quad_halfline(f)


@lru_cache(maxsize=None)
def radial_gaussian_moment(kind: GammaKind, z: complex) -> complex:
    """Quadrature of the Tate radial integral whose closed form is gamma_factor.

    COMPLEX: 4 int_0^inf exp(-2 pi r^2) r^z dr/r  =  Gamma_C(z/2)
    REAL:    2 int_0^inf exp(-pi r^2)   r^z dr/r  =  Gamma_R(z)

    Converges for Re z > 0.  These identities pin the gamma-factor
    normalizations; the tests assert them rather than assume them.  On
    0.05 <= Re z <= 60, |Im z| <= 30 the two sides differ by at most
    1.8e-13 * max(1, |closed form|) (1 200 random points, both kinds);
    below Re z = 0.05 the cut at r = exp(-700) costs exp(-700 Re z) / Re z.
    Cached: the archimedean oracle needs the same moments at every sample
    point.
    """
    z = complex(z)
    if z.real <= 0:
        raise ValueError("radial moment requires Re z > 0")
    if kind is GammaKind.COMPLEX:
        front, coef = 4.0, 2.0 * math.pi
    else:
        front, coef = 2.0, math.pi

    def f(r: np.ndarray) -> np.ndarray:
        # coef r^2 stays finite below r = 1e100; past it the term is masked
        rc = np.minimum(r, 1e100)
        return _masked_exp(-coef * rc * rc, (z - 1.0) * np.log(r))

    return front * quad_halfline(f)


def limit_at_zero(hs: Sequence[float], values: Sequence[float]) -> float:
    """Value at h = 0 of the polynomial of degree < len(hs) through the
    points (hs[i], values[i]), by Neville's table.

    Level j replaces p[i] by (r p[i] - p[i - 1]) / (r - 1) with
    r = hs[i - j] / hs[i], the interpolant through hs[i - j .. i] at 0.  On
    nodes h_i = h_0 / 2^i every r is exactly 2^j: the Richardson table of a
    first-order sequence.  The nodes must be distinct and nonzero.
    """
    if len(hs) != len(values) or not hs:
        raise ValueError(f"need one value per node, got {len(hs)} nodes and {len(values)} values")
    if 0 in hs or len(set(hs)) != len(hs):
        raise ValueError(f"nodes must be distinct and nonzero, got {list(hs)}")
    p = list(values)
    for j in range(1, len(p)):
        for i in range(len(p) - 1, j - 1, -1):
            r = hs[i - j] / hs[i]
            p[i] = (r * p[i] - p[i - 1]) / (r - 1)
    return p[-1]


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
