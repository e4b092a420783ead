"""The one-dimensional reference theory on the Gaussian span.

Functions are finite sums  sum_n c_n x^n exp(-q pi x^2)  with q a positive
rational; the polynomial part is a one-variable exact.VarPoly.  The Fourier
transform with kernel exp(-2 pi i x xi) maps the span to itself, sending the
width parameter q to 1/q, and is implemented as a symbolic recursion on that
polynomial so that the double-transform identity

    ft(ft(f))(x) = f(-x)

holds at the level of exact coefficients.  The mollifier family and the
decay diagnostics at the bottom mirror, on a grid, the convergence facts
whose exact analogues drive the archimedean modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import RangeError
from .exact import PiLaurent, VarPoly, fraction_sqrt
from .numerics import quad_realline


class PolyGaussian1D:
    """Polynomial times Gaussian: sqrt(scale_sq) * poly(x) exp(-q pi x^2).

    The polynomial part is a one-variable exact.VarPoly, built from a
    {n: c_n} dict; coefficients are exact PiLaurent scalars unless a float
    has been mixed in.  The Gaussian width is stored as the rational q.
    scale_sq records the square of a positive prefactor accumulated by
    transforms; it folds into the coefficients whenever it is a perfect
    rational square, which restores exact equality after a round trip.  All
    of these are set only by the constructor, which also keeps the float
    views of q and sqrt(scale_sq) for evaluation.
    """

    __slots__ = ("poly", "q", "scale_sq", "_q_float", "_scale")

    def __init__(self, coeffs: dict, q, scale_sq=1):
        q = Fraction(q)
        if q <= 0:
            raise ValueError("Gaussian width must be positive")
        self.q = q
        self.scale_sq = Fraction(scale_sq)
        self.poly = VarPoly(1, {
            (int(n),): PiLaurent.rational(c) if isinstance(c, (int, Fraction)) else c
            for n, c in coeffs.items()
        })
        root = fraction_sqrt(self.scale_sq)
        if root is not None and root != 1:
            self.poly = self.poly.scale(root)
            self.scale_sq = Fraction(1)
        self._q_float = float(self.q)
        self._scale = math.sqrt(float(self.scale_sq))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyGaussian1D):
            return NotImplemented
        return self.q == other.q and self.scale_sq == other.scale_sq and self.poly == other.poly

    def __call__(self, x):
        """The value at a float, or elementwise on an array of floats."""
        gauss = np.exp(-self._q_float * math.pi * x * x)
        return self._scale * gauss * self.poly.evaluate((x,))

    def reflected(self) -> "PolyGaussian1D":
        """The function x -> f(-x)."""
        return PolyGaussian1D(
            {n: (c if n % 2 == 0 else -c) for (n,), c in self.poly.terms.items()},
            self.q,
            self.scale_sq,
        )

    def __repr__(self):
        return f"PolyGaussian1D(poly={self.poly!r}, q={self.q}, scale_sq={self.scale_sq})"


def ft_1d(f: PolyGaussian1D) -> PolyGaussian1D:
    """Exact Fourier transform on the Gaussian span, kernel exp(-2 pi i x xi).

    The base Gaussian exp(-q pi x^2) maps to q**(-1/2) exp(-(pi/q) xi^2); a
    monomial factor x^n becomes (i/2pi)^n d^n/dxi^n on the transform.  The
    derivative calculus stays inside polynomial-times-Gaussian, so the whole
    map is a finite exact recursion.
    """
    qi = 1 / f.q
    # d/dxi of p(xi) exp(-qi pi xi^2) is (p'(xi) - 2 qi pi xi p(xi)) exp(...);
    # p' first keeps the terms in ascending degree, the order they are summed in
    pull = PiLaurent.pi_power(1, -2 * qi)
    result = VarPoly.zero(1)
    for (n,), c in f.poly.terms.items():
        poly = VarPoly.monomial(1, (0,))
        for _ in range(n):
            poly = poly.deriv(0) + poly.mul_monomial((1,), pull)
        front = PiLaurent.i_power(n) * PiLaurent.pi_power(-n, Fraction(1, 2**n))
        result = result + poly.scale(c * front)
    return PolyGaussian1D({n: c for (n,), c in result.terms.items()}, qi, f.scale_sq * qi)


def dirac_family(eps) -> PolyGaussian1D:
    """Normalized Gaussian of width eps: (1/eps) exp(-pi x^2 / eps^2).

    Integrates to 1 for every eps > 0 and approximates the Dirac measure as
    eps -> 0.  Pass eps as a Fraction (or an exactly representable float) to
    keep the transform identities exact.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return PolyGaussian1D({0: PiLaurent.rational(1 / eps)}, 1 / eps**2)


def integrate(f: PolyGaussian1D) -> complex:
    return quad_realline(f)


def l2_norm_sq(f: PolyGaussian1D) -> float:
    return quad_realline(lambda x: np.abs(f(x)) ** 2).real


def _grid_width(eps) -> float:
    """eps as a float, checked before a grid of spacing proportional to it
    is built.  A width that is not finite and positive gives no grid.  The
    grids grow as 1/eps, so the floor is 1e-3: tracemalloc peaks read about
    0.068/eps MB for mollify_deficit and 0.0094/eps MB for
    point_mollification (68 and 9.4 MB at eps = 1e-3)."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 1e-3):
        raise RangeError(f"the mollifier width must be finite and at least 1e-3, got eps={eps}")
    return eps


def mollify_deficit(f: Callable[[np.ndarray], np.ndarray], eps: float, p: float) -> float:
    """Discretized || f * v_eps - f ||_p on a uniform grid of [-4, 4] with spacing eps/8.

    f must be bounded with support inside the grid window.  The convolution
    kernel is the dirac_family Gaussian sampled on the same grid.  eps must
    be finite and at least 1e-3 (RangeError otherwise, before any grid is
    built); the grid stacks 65 shifted copies of 64/eps + 1 samples, a
    tracemalloc peak of about 68 MB at eps = 1e-3.
    """
    eps = _grid_width(eps)
    if p < 1:
        raise ValueError("p must be >= 1")
    h = eps / 8.0
    xs = np.arange(-4.0, 4.0 + 0.5 * h, h)
    fx = np.asarray(f(xs), dtype=float)
    # kernel radius: Gaussian tail below 1e-16 of its peak
    radius = int(math.ceil(4.0 * eps / h))
    offs = np.arange(-radius, radius + 1) * h
    kernel = (1.0 / eps) * np.exp(-math.pi * offs**2 / eps**2)
    shifted = np.array([f(xs - t) for t in offs], dtype=float)
    conv = h * kernel @ shifted
    return float((h * np.sum(np.abs(conv - fx) ** p)) ** (1.0 / p))


def point_mollification(f: Callable[[np.ndarray], np.ndarray], y: float, eps: float) -> complex:
    """Grid value of int f(y + x) conj(v_eps(x)) dx over [-6, 6] with spacing
    eps/16, the pointwise inversion probe.  eps must be finite and at least
    1e-3 (RangeError otherwise, before any grid is built); the grid has
    192/eps + 1 points, a tracemalloc peak of about 9.4 MB at eps = 1e-3."""
    eps = _grid_width(eps)
    h = eps / 16.0
    xs = np.arange(-6.0, 6.0 + 0.5 * h, h)
    kernel = (1.0 / eps) * np.exp(-math.pi * xs**2 / eps**2)
    vals = np.asarray(f(y + xs), dtype=complex)
    return complex(h * np.sum(vals * kernel))


def decay_check(
    h: Callable[[np.ndarray], np.ndarray],
    n: int,
    x_halfwidth: float = 6.0,
    xi_max: float = 8.0,
    grid: int = 2048,
) -> float:
    """sup over a xi grid of |xi|^n |h^(xi)| with a Riemann-sum transform.

    Finite for any bounded integrable sample; for smooth h the value reflects
    the integration-by-parts decay rate of the transform.

    The Riemann sum h^(xi_j) = dx sum_k h(x_k) exp(-2 pi i xi_j x_k) runs over
    `grid` points x_k = x_0 + k dx of [-x_halfwidth, x_halfwidth) and 257
    points xi_j = xi_0 + j dxi of [-xi_max, xi_max].  With c = dxi dx and
    jk = (j^2 + k^2 - (j - k)^2) / 2 it is, up to a phase that depends on j
    alone, the convolution dx sum_k a_k b_(j-k) with
    a_k = h(x_k) exp(-2 pi i (xi_0 x_k + c k^2 / 2)) and b_m = exp(i pi c m^2)
    (Bluestein's chirp-z transform), taken by FFT.  c m^2 is reduced mod 2
    before it is multiplied by pi.

    Accuracy: for 2 <= grid <= 4096, 0.5 <= x_halfwidth <= 12 and
    0.5 <= xi_max <= 16, and h a Gaussian times a polynomial of degree <= 6
    or a complex Gaussian modulated at a frequency inside [-xi_max, xi_max],
    each |h^(xi_j)| is within 5e-13 * max_j |h^(xi_j)| + 1e-300 of the dense
    sum (the floor is for samples that are all subnormal).  A zero sample
    gives exactly 0.0.
    grid < 2, x_halfwidth <= 0 or xi_max <= 0 raises RangeError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if grid < 2 or not x_halfwidth > 0 or not xi_max > 0:
        raise RangeError(
            f"decay_check needs grid >= 2, x_halfwidth > 0 and xi_max > 0, "
            f"got grid={grid}, x_halfwidth={x_halfwidth}, xi_max={xi_max}"
        )
    xs, x_step = np.linspace(-x_halfwidth, x_halfwidth, grid, endpoint=False, retstep=True)
    hx = np.asarray(h(xs), dtype=complex)
    xis, xi_step = np.linspace(-xi_max, xi_max, 257, retstep=True)
    # c from the steps linspace places the points with (xs[1] - xs[0] can be
    # off by an ulp of x_0, which k^2 would magnify); c = c_hi + c_lo with
    # c_hi on 26 bits (Veltkamp's split), so c_hi q is exact for integers
    # q < 2^27 and only the small c_lo q is rounded before the mod 2
    c = xi_step * x_step
    t = c * 134217729.0
    c_hi = t - (t - c)
    c_lo = c - c_hi

    def chirp(q: np.ndarray) -> np.ndarray:
        q = q.astype(float)
        return np.exp(1j * math.pi * np.fmod(np.fmod(c_hi * q, 2.0) + c_lo * q, 2.0))

    k = np.arange(grid)
    m = np.arange(1 - grid, xis.size)
    a = hx * np.exp(-2j * math.pi * xis[0] * xs) * np.conj(chirp(k * k))
    # b_m at index m mod size: no wrap-around once size >= grid + 257 - 1
    size = 1 << (grid + xis.size - 2).bit_length()
    b = np.zeros(size, dtype=complex)
    b[m % size] = chirp(m * m)
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b))[: xis.size]
    return float(np.max(np.abs(xis) ** n * (x_step * np.abs(conv))))
