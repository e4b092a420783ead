"""Gamma factors, Bessel-K integrals, and double-exponential quadrature.

Everything downstream (Tate-type radial integrals, archimedean eigenvalues,
the completed zeta factor) is built on the two normalized gamma factors

    Gamma_R(s) = pi**(-s/2) * Gamma(s/2)
    Gamma_C(s) = 2 * (2*pi)**(-s) * Gamma(s)

and on adaptive trapezoid quadrature after a double-exponential change of
variables.  The normalizations are not assumed: the test suite pins them by
matching the radial integrals they are meant to equal.

Every evaluator here, in globalq and in arch takes its arguments through
_stack and _unstack: each a scalar, ndarray, list or tuple, broadcast
together and evaluated as one flat array, each element bit for bit its
scalar call.  Any ndarray (0-d included), list or tuple gives a complex
array of the broadcast shape; all scalars give a Python complex, and
RangeError names them where that value is not finite.  A non-finite
argument raises RangeError (a ValueError) naming the evaluator, the
argument and its index, and a complex one where a real is required
TypeError, before anything is evaluated.  An argument outside the
evaluator's domain (y > 0 for bessel_k, say) raises RangeError the same
way, naming the domain, the value and its index.

complex_gamma and gamma_factor have one vectorized Lanczos body each, and
a scalar is a one-point array (about 55 us a call), so the closed forms
built on them (arch.mu_arch, the oracle's L-factors,
globalq.completed_zeta) pass each batch of points in one call.

The quadratures are stacked too: _trapezoid_doubling runs the one-row
rule (_row_schedule) for each row of a stack and evaluates the rows that
need the same node set next in one call, each row bit for bit its one-row
value.  bessel_k, bessel_k_alt, kernel_ka, kernel_ka_quad and
radial_gaussian_moment take arrays (a 20-point Bessel stack costs about
a quarter of 20 scalar calls); quad_realline, quad_halfline and a scalar
call of any of them are one-row stacks.

Limits at an edge (the residues of the completed zeta at 0 and 1, the
on-axis limit of the truncated norm) all go through limit_at_zero: the
value at h = 0 of the polynomial through samples at a few small h.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import InconsistentRatio, PoleError, RangeError, ToleranceNotMet

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

# Lanczos approximation (Pugh, PhD thesis, 2004), g = 7 with 9
# coefficients; see gamma_factor for the accuracy measured on the box the
# library reaches.
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
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


def _lanczos(z: np.ndarray) -> np.ndarray:
    """Gamma(z) on Re z >= 1/2 by the Lanczos sum, elementwise."""
    z = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * np.exp(-t) * x


def complex_gamma(z):
    """Gamma function for complex argument: the Lanczos sum on Re z >= 1/2,
    and below it the reflection Gamma(z) = pi / (sin(pi z) Gamma(1 - z)).

    Arguments and results as in the module docstring; an array element
    that leaves float range is inf or nan, with no warning.  sin(pi z) is
    taken on the reflected elements only, so that sin never sees, and never
    overflows on, an element that does not reflect.  Raises PoleError where
    sin(pi z) is exactly 0.
    """
    (z,), back = _stack("Gamma", z=z)
    z = z.astype(complex, copy=False)
    left = z.real < 0.5
    with np.errstate(all="ignore"):
        g = _lanczos(np.where(left, 1.0 - z, z))
        zl = z[left]
        s = np.sin(math.pi * zl)
        if not s.all():
            raise PoleError(f"gamma pole at z = {zl[s == 0][0]}")
        g[left] = math.pi / (s * g[left])
    return back(g)


def gamma_factor(kind: GammaKind, s):
    """Normalized gamma factor at an archimedean completion.

    REAL gives pi**(-s/2) Gamma(s/2), COMPLEX gives 2 (2 pi)**(-s) Gamma(s),
    on complex s as in the module docstring.  An array element that leaves
    float range is inf or nan, with no warning.  Raises PoleError when the
    Gamma argument lies within 1e-12 of a nonpositive integer, naming the
    first such element; continuation through poles is the caller's
    responsibility.

    Accuracy against mpmath at 30 digits, on the box -1/4 <= Re s <= 42,
    |Im s| <= 50, which holds every argument that verify (at both sizes)
    and the benchmark's mu tables pass: at most 2.1e-13 relative (both
    kinds; 160 000 random points and the 38 000 distinct arguments of those
    runs); the worst random points lie near |Im s| = 50.
    """
    if kind not in (GammaKind.REAL, GammaKind.COMPLEX):
        raise ValueError(f"unknown gamma kind {kind!r}")

    (s,), back = _stack(f"Gamma_{kind.name[0]}", s=s)
    s = s.astype(complex, copy=False)
    z = s / 2 if kind is GammaKind.REAL else s
    x = z.real
    n = (x + 0.5) // 1.0
    pole = (n <= 0) & (abs(x - n) <= 1e-12) & (abs(z.imag) <= 1e-12)
    if pole.any():
        raise PoleError(f"Gamma_{kind.name[0]} pole at s = {s[pole][0]}")
    with np.errstate(all="ignore"):
        if kind is GammaKind.REAL:
            return back(np.exp(-z * _LOG_PI) * complex_gamma(z))
        return back(2.0 * np.exp(-z * _LOG_2PI) * complex_gamma(z))


# _row_schedule's block of coarse steps, run of quiet terms, and nodes a
# side may take at one level
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
    dr/du = r c cosh u.  Nodes with |c sinh u| > 700 are masked out: r and
    w hold only the others, and `keep` marks which nodes of the set they
    are (None when nothing is masked)."""
    u, _, _ = _line_nodes(level, first_p, first_n, stride, n_p, n_n)
    keep = np.abs(u) <= _EXP_SINH_EDGE
    keep = None if keep.all() else _frozen(keep)
    u = u if keep is None else u[keep]
    r = np.exp(_EXP_SINH_C * np.sinh(u))
    w = r * _EXP_SINH_C * np.cosh(u)
    return _frozen(r), _frozen(w), keep


def _row_schedule():
    """The trapezoid rule with nested step halving for one integrand decaying
    fast on R, as a generator: it yields the key (level, first_p, first_n,
    stride, n_p, n_n) of each node set it needs (see _line_nodes), is sent
    (v, part), the set's weighted values (0 at a masked node, see
    _exp_sinh_nodes) and the sum of those evaluated, and returns the
    integral.

    The sweep at step 1/2 walks outward from 0 in blocks of _BLOCK, _BLOCK,
    2 _BLOCK, 4 _BLOCK, ... nodes per side until each side ends in
    _QUIET_RUN terms in a row below the truncation floor
    floor * (1 + |running total|); the nodes it took fix the window.  Each
    halving then takes only the new odd nodes of the window, both sides in
    one set.  A side whose outermost new node is not below the floor grows
    by _BLOCK coarse steps at a time, every node at the current spacing,
    until a block ends in _QUIET_RUN quiet terms.  The step is halved until
    two successive levels agree; no node is taken twice.  Raises
    ToleranceNotMet when a side needs more than _MAX_NODES nodes at one
    level, or when QUAD_MAX_HALVINGS halvings do not converge.
    """
    floor = QUAD_ABS_TOL * 1e-3
    total, window, run, ended = 0.0, [0, 0], [0, 0], [False, False]
    # the first set also takes node 0, which neither side's window counts
    start, n_p, n_n, block = 1, _BLOCK + 1, _BLOCK, _BLOCK
    while True:
        # an ended side's empty range starts at 1, so that rows that differ
        # only there share the set
        v, part = yield (0, window[0] + 1 - start if n_p else 1, window[1] + 1 if n_n else 1, 1, n_p, n_n)
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
        v, part = yield (level, 1, 1, 2, n_p, n_n)
        total += part
        edges = [abs(v[n_p - 1]), abs(v[-1])]
        for s in (0, 1):
            # a window that was too narrow: one more block of coarse steps
            # on this side, every node at this level's spacing, until the
            # block ends in _QUIET_RUN quiet terms
            while edges[s] >= floor * (1.0 + abs(total)):
                count = _BLOCK << level
                first = (window[s] << level) + 1
                if first - 1 + count > _MAX_NODES:
                    raise ToleranceNotMet("integrand does not decay on the grid")
                v, part = yield (level, first, first, 1, count if s == 0 else 0, count if s == 1 else 0)
                total += part
                window[s] += _BLOCK
                edges[s] = np.abs(v[-_QUIET_RUN:]).max()
        cur = total * 0.5 ** (level + 1)
        if abs(cur - prev) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(cur)):
            return complex(cur)
        prev = cur
    raise ToleranceNotMet("trapezoid refinement budget exhausted")


def _trapezoid_doubling(f: Callable, nodes=_line_nodes, rows: int | None = None):
    """The rule of _row_schedule for a stack of integrands, each row on its
    own schedule.

    With rows None, f maps a node array of shape (n,) to its values, shape
    (n,), and the integral comes back as a complex.  With rows = K, f(x, r)
    maps the nodes x and some rows r (an ascending int array) to the values
    of those rows, shape (len(r), n), and the K integrals come back as a
    complex array.  `nodes(level, first_p, first_n, stride, n_p, n_n)` gives
    the points x, their weights dx/du and the mask of the nodes kept (see
    _line_nodes and _exp_sinh_nodes).

    Each step groups the still-active rows by the node set they ask for
    next and evaluates each group in one call of f.  A row is evaluated
    only at its own nodes and summed as a 1-D array of its values would be,
    so it is bit for bit its one-row value, whatever else is in the stack.
    Raises ToleranceNotMet, naming the row of a stack, when a row's sum over
    a node set is not finite (naming the node of its first non-finite value,
    if any, and with weights the integrand value there), or when its
    schedule raises.
    """
    stacked = rows is not None
    if not stacked:
        one, rows = f, 1

        def f(x, active):
            return np.asarray(one(x))[None]

    in_row = " in row {}" if stacked else ""
    schedules = [_row_schedule() for _ in range(rows)]
    keys = [next(s) for s in schedules]
    out: list = [None] * rows
    active = range(rows)
    while active:
        groups: dict = {}
        for r in active:
            groups.setdefault(keys[r], []).append(r)
        for key, group in groups.items():
            x, w, keep = nodes(*key)
            n = x.shape[0]
            v = f(x, np.array(group))
            if v.shape != (len(group), n):
                raise ValueError(f"integrand returned shape {v.shape} for {len(group)} rows of {n} nodes")
            # weighted or summed, finite values may leave float range; the
            # check below reports it, with no RuntimeWarning.  A C-contiguous
            # block sums each row as a 1-D array.
            raw = v
            with np.errstate(over="ignore"):
                v = np.ascontiguousarray(v if w is None else v * w)
                sums = np.add.reduce(v, axis=1).tolist()
            full = v
            if keep is not None:
                full = np.zeros((len(group), keep.size), v.dtype)
                full[:, keep] = v
            for i, (r, part) in enumerate(zip(group, sums)):
                if not cmath.isfinite(part):
                    bad = np.flatnonzero(~np.isfinite(v[i]))
                    what = f"value {complex(v[i, bad[0]])}" if bad.size else f"sum {part}"
                    at = f" at node x = {float(x[bad[0]])!r}" if bad.size else ""
                    note = f" (integrand value {complex(raw[i, bad[0]])})" if bad.size and w is not None else ""
                    kind = "integrand" if w is None else "weighted"
                    raise ToleranceNotMet(f"{kind} {what}{in_row.format(r)}{at} is not finite{note}")
                try:
                    keys[r] = schedules[r].send((full[i], part))
                except StopIteration as done:
                    out[r] = done.value
                except ToleranceNotMet as exc:
                    raise ToleranceNotMet(f"{exc}{in_row.format(r)}") from None
        active = [r for r in active if out[r] is None]
    return np.array(out, complex) if stacked else out[0]


def quad_realline(g: Callable[[np.ndarray], np.ndarray]) -> complex:
    """Integral over R of a smooth integrand with at least exponential decay.

    g takes a float64 array of nodes and returns an array of the same shape
    (real or complex), finite at every node it is given.  The rule of
    _row_schedule, one call of g per node set: no node is evaluated twice,
    and a non-finite value raises ToleranceNotMet naming its node.
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
    per node set of quad_realline's rule.
    """
    return _trapezoid_doubling(f, _exp_sinh_nodes)


def _masked_exp(expo: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """exp(expo + rest) where expo >= -745 and 0 elsewhere; rest is a
    (rows, nodes) array and expo has its shape or is one row for every
    row.  The masked entries are never exponentiated, so a large rest
    there cannot overflow."""
    keep = expo >= -745.0
    if keep.all():
        return np.exp(expo + rest)
    if expo.shape != rest.shape:
        expo, keep = expo[None].repeat(rest.shape[0], 0), keep[None].repeat(rest.shape[0], 0)
    # flat views: masking a 2-D array by columns costs several times more
    keep = keep.ravel()
    out = np.zeros(rest.size, complex)
    out[keep] = np.exp(expo.ravel()[keep] + rest.ravel()[keep])
    return out.reshape(rest.shape)


def _stack(name: str, real: tuple = (), domain: dict | None = None, **args) -> tuple[list[np.ndarray], Callable]:
    """The arguments of an evaluator as flat arrays of their common
    broadcast shape, and the function (_unstack) that turns the flat
    result back as the module docstring says.  Raises TypeError for a
    complex array of an argument named in `real`, RangeError naming the
    first non-finite entry, and then, for each argument named in `domain`
    (a map to the pair (need, ok) of a domain text and an elementwise test),
    RangeError "`name` requires `need`" naming the first entry that fails
    ok; all before anything is evaluated."""
    arrays = {key: np.asarray(v) for key, v in args.items()}
    for key, a in arrays.items():
        if key in real and np.iscomplexobj(a):
            raise TypeError(f"{name} requires real {key}, got {a.dtype}")
        _require(name, f"finite {key}", a, np.isfinite(a))
    for key, (need, ok) in (domain or {}).items():
        _require(name, need, arrays[key], ok(arrays[key]))
    shape = np.broadcast_shapes(*(a.shape for a in arrays.values()))
    flat = [(a if a.shape == shape else np.broadcast_to(a, shape)).ravel() for a in arrays.values()]
    scalar = not shape and not any(isinstance(v, np.ndarray) for v in args.values())
    return flat, partial(_unstack, name, args if scalar else None, shape)


def _require(name: str, need: str, a: np.ndarray, ok: np.ndarray):
    """RangeError "`name` requires `need`, got <value> at index <i>" for
    the first entry of a where ok is False (no index for a 0-d a)."""
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        at = f" at index {tuple(int(i) for i in np.unravel_index(bad, a.shape))}" if a.ndim else ""
        raise RangeError(f"{name} requires {need}, got {a.flat[bad].item()!r}{at}")


def _unstack(name: str, scalars: dict | None, shape: tuple, values: np.ndarray):
    """values in the arguments' broadcast shape, or for scalar arguments
    the one value as a complex, RangeError naming them if it is not finite."""
    if scalars is None:
        return values.reshape(shape)
    v = complex(values[0])
    if not cmath.isfinite(v):
        at = ", ".join(f"{key} = {x}" for key, x in scalars.items())
        raise RangeError(f"{name}({', '.join(scalars)}) leaves float range at {at}")
    return v


# the domain of bessel_k's and bessel_k_alt's y, as _stack takes it
_POSITIVE = ("y > 0", lambda y: y > 0)


def bessel_k(nu, y):
    """Modified Bessel function of the second kind as a half-line integral.

    Evaluates (1/2) * int_0^inf exp(-y (t + 1/t)) t**nu dt/t after the
    logarithmic substitution t = exp(u), which makes the integrand
    symmetric with doubly exponential decay.  nu (complex) and y (real)
    are taken as in the module docstring, an array in one stacked
    quadrature.

    Domain: finite nu and finite y > 0.  At order 1/2,
    against the closed form sqrt(pi / (4y)) exp(-2y) on 1e-6 <= y <= 300,
    the error is at most 1.4e-15 relative while K >= 1e-11 and 4e-18
    absolute below (3 000 log-spaced y): QUAD_ABS_TOL, not the rule, limits
    the relative accuracy of small values.
    """
    (nu, y), back = _stack("bessel_k", domain={"y": _POSITIVE}, nu=nu, y=y)
    scale = np.array([-2.0 * v for v in y.tolist()])[:, None]
    order = np.array([complex(v) for v in nu.tolist()])[:, None]

    def g(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # cosh stays finite on |u| <= 700, and past it the term is masked anyway
        return 0.5 * _masked_exp(scale[rows] * np.cosh(np.minimum(np.abs(u), 700.0)), order[rows] * u)

    return back(_trapezoid_doubling(g, rows=y.size))


def bessel_k_alt(nu, y):
    """Second integral representation: int_0^inf exp(-y(t^2 + t^-2)) t^(2 nu) dt/t,
    on the arguments and domain of bessel_k."""
    (nu, y), back = _stack("bessel_k_alt", domain={"y": _POSITIVE}, nu=nu, y=y)
    scale = np.array([-2.0 * v for v in y.tolist()])[:, None]
    order = np.array([2.0 * complex(v) for v in nu.tolist()])[:, None]

    def g(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return _masked_exp(scale[rows] * np.cosh(np.minimum(np.abs(2.0 * u), 700.0)), order[rows] * u)

    return back(_trapezoid_doubling(g, rows=y.size))


def kernel_ka(kind: GammaKind, a, w):
    """Radial kernel of the smooth-section surjectivity argument.

    COMPLEX: 4 K_w(a); REAL: 2 K_{w/2}(a), where K is bessel_k.  The defining
    integrals (see kernel_ka_quad) reduce to these by t = r^2 resp. t = r.
    a in [1, 2) and finite complex w are taken as in bessel_k.
    """
    (a, w), back = _stack("kernel_ka", domain={"a": ("a in [1, 2)", lambda a: (1.0 <= a) & (a < 2.0))}, a=a, w=w)
    if kind is GammaKind.COMPLEX:
        return back(4.0 * bessel_k(w, a))
    if kind is GammaKind.REAL:
        return back(2.0 * bessel_k(np.array([complex(v) / 2.0 for v in w.tolist()]), a))
    raise ValueError(f"unknown gamma kind {kind!r}")


def kernel_ka_quad(kind: GammaKind, a, w):
    """Direct quadrature of the defining kernel integral, used as the oracle.

    COMPLEX: 4 int_0^inf exp(-a (r^2 + r^-2)) r^(2w) dr/r
    REAL:    2 int_0^inf exp(-a (r^2 + r^-2)) r^w     dr/r

    Finite a > 0, where the integral converges, and finite w, taken as in
    bessel_k; a <= 0 raises RangeError before any node is evaluated.
    """
    (a, w), back = _stack("kernel_ka_quad", domain={"a": ("a > 0", lambda a: a > 0)}, a=a, w=w)
    scale = np.array([-v for v in a.tolist()])[:, None]
    power = np.array([(2.0 * complex(v) if kind is GammaKind.COMPLEX else complex(v)) - 1.0 for v in w.tolist()])[:, None]
    front = 4.0 if kind is GammaKind.COMPLEX else 2.0

    def f(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # a (r^2 + r^-2) stays finite on [1e-100, 1e100]; past it the term is masked
        rc = np.clip(r, 1e-100, 1e100)
        return _masked_exp(scale[rows] * (rc * rc + 1.0 / (rc * rc)), power[rows] * np.log(r))

    return back(front * _trapezoid_doubling(f, _exp_sinh_nodes, rows=a.size))


# radial_gaussian_moment's values per kind, keyed on complex z
_MOMENTS: dict[GammaKind, dict[complex, complex]] = {kind: {} for kind in GammaKind}


def radial_gaussian_moment(kind: GammaKind, z):
    """Quadrature of the Tate radial integral whose closed form is gamma_factor.

    COMPLEX: 4 int_0^inf exp(-2 pi r^2) r^z dr/r  =  Gamma_C(z/2)
    REAL:    2 int_0^inf exp(-pi r^2)   r^z dr/r  =  Gamma_R(z)

    Converges for Re z > 0; z must be finite.  These identities pin the
    gamma-factor normalizations; the tests assert them rather than assume
    them.  On 0.05 <= Re z <= 60, |Im z| <= 30 the two sides differ by at
    most 1.8e-13 * max(1, |closed form|) (1 200 random points, both kinds);
    below Re z = 0.05 the cut at r = exp(-700) costs exp(-700 Re z) / Re z.
    z is taken as in the module docstring.  Cached per (kind, z): the
    archimedean oracle needs the same moments at every sample point, and an
    array call computes only the entries missing from the cache, in one
    stacked quadrature.
    """
    cache = _MOMENTS[kind]
    (z,), back = _stack("radial_gaussian_moment", domain={"z": ("Re z > 0", lambda z: z.real > 0)}, z=z)
    zs = z.tolist()
    missing = [v for v in dict.fromkeys(zs) if v not in cache]
    if missing:
        missing = [complex(v) for v in missing]
        if kind is GammaKind.COMPLEX:
            front, coef = 4.0, 2.0 * math.pi
        else:
            front, coef = 2.0, math.pi
        power = np.array([v - 1.0 for v in missing])[:, None]

        def f(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
            # coef r^2 stays finite below r = 1e100; past it the term is masked
            rc = np.minimum(r, 1e100)
            return _masked_exp(-coef * rc * rc, power[rows] * np.log(r))

        values = front * _trapezoid_doubling(f, _exp_sinh_nodes, rows=len(missing))
        cache.update(zip(missing, values.tolist()))
    return back(np.array([cache[v] for v in zs], complex))


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
