"""Gamma factors, Bessel-K integrals, and double-exponential quadrature.

Everything downstream (Tate-type radial integrals, archimedean eigenvalues,
the completed zeta factor) is built on the two normalized gamma factors

    Gamma_R(s) = pi**(-s/2) * Gamma(s/2)
    Gamma_C(s) = 2 * (2*pi)**(-s) * Gamma(s)

and on adaptive trapezoid quadrature after a double-exponential change of
variables.  The normalizations are not assumed: the test suite pins them by
matching the radial integrals they are meant to equal.

complex_gamma and gamma_factor take a complex scalar or an ndarray through
one Lanczos body: a scalar stays on Python complex arithmetic (about 3 us a
call), an array is one vectorized pass (a one-point array costs about
55 us, so arrays pay from about 20-30 points).  The closed forms built on
them (arch.mu_arch_many, globalq.completed_zeta) pass each batch of points
in one call.

The quadratures are stacked the same way: one trapezoid driver integrates a
stack of integrands on one node schedule, each row bit for bit its one-row
value.  bessel_k, bessel_k_alt, kernel_ka, kernel_ka_quad and
radial_gaussian_moment take arrays (a 20-point Bessel stack costs about a
third of 20 scalar calls); quad_realline, quad_halfline and a scalar call
of any of them are one-row stacks.

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


def _lanczos(z, exp):
    """Gamma(z) on Re z >= 1/2 by the Lanczos sum, for a complex scalar or a
    complex array; exp is cmath.exp or np.exp to match."""
    z = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * exp(-t) * x


def complex_gamma(z):
    """Gamma function for complex argument: the Lanczos sum on Re z >= 1/2,
    and below it the reflection Gamma(z) = pi / (sin(pi z) Gamma(1 - z)).

    A scalar z gives a Python complex, computed in Python complex
    arithmetic.  An ndarray gives a complex array of its shape: one Lanczos
    sum over every element (at 1 - z where Re z < 1/2), then sin(pi z) and
    the reflection on those elements only, so that sin never sees, and
    never overflows on, an element that does not reflect.  Array elements
    that leave float range come back inf or nan, with no warning.  Raises
    PoleError where sin(pi z) is exactly 0.
    """
    if not isinstance(z, np.ndarray):
        z = complex(z)
        if not z.real < 0.5:
            return _lanczos(z, cmath.exp)
        s = cmath.sin(math.pi * z)
        if s == 0:
            raise PoleError(f"gamma pole at z = {z}")
        return math.pi / (s * _lanczos(1.0 - z, cmath.exp))
    z = z.astype(complex)
    left = z.real < 0.5
    with np.errstate(all="ignore"):
        g = _lanczos(np.where(left, 1.0 - z, z), np.exp)
        zl = z[left]
        s = np.sin(math.pi * zl)
        if not s.all():
            raise PoleError(f"gamma pole at z = {zl[s == 0][0]}")
        g[left] = math.pi / (s * g[left])
    return g


def _near_nonpositive_integer(z, tol: float = 1e-12):
    """Whether z lies within tol of 0, -1, -2, ...; elementwise for an array."""
    x = z.real
    n = (x + 0.5) // 1.0
    return (n <= 0) & (abs(x - n) <= tol) & (abs(z.imag) <= tol)


def gamma_factor(kind: GammaKind, s):
    """Normalized gamma factor at an archimedean completion.

    REAL gives pi**(-s/2) Gamma(s/2), COMPLEX gives 2 (2 pi)**(-s) Gamma(s).
    s is a complex scalar (Python complex arithmetic, a Python complex
    back) or an ndarray (one vectorized pass, an array of its shape back,
    with inf or nan and no warning where an element leaves float range).
    Raises PoleError when the underlying Gamma argument sits at a
    nonpositive integer, naming the first such element of an array;
    continuation through poles is the caller's responsibility.

    Accuracy against mpmath at 30 digits, on the box -1/4 <= Re s <= 42,
    |Im s| <= 50, which holds every argument that verify (at both sizes)
    and the benchmark's mu tables pass: at most 2.1e-13 relative, for a
    scalar and for an array alike, and an array element lies within 4.5e-14
    relative of the scalar value (both kinds; 160 000 random points and the
    38 000 distinct arguments of those runs); the worst random points lie
    near |Im s| = 50.
    """
    if not isinstance(s, np.ndarray):
        return _gamma_factor(kind, complex(s), False)
    with np.errstate(all="ignore"):
        return _gamma_factor(kind, s.astype(complex), True)


def _gamma_factor(kind: GammaKind, s, array: bool):
    """gamma_factor of a Python complex s, or of a complex ndarray s under a
    quiet np.errstate."""
    if kind is GammaKind.REAL:
        z, log_base = s / 2, _LOG_PI
    elif kind is GammaKind.COMPLEX:
        z, log_base = s, _LOG_2PI
    else:
        raise ValueError(f"unknown gamma kind {kind!r}")
    if array:
        pole = _near_nonpositive_integer(z)
        if pole.any():
            raise PoleError(f"Gamma_{kind.name[0]} pole at s = {s[pole][0]}")
    elif z.real <= 0.5 and _near_nonpositive_integer(z):
        raise PoleError(f"Gamma_{kind.name[0]} pole at s = {s}")
    front = (np.exp if array else cmath.exp)(-z * log_base)
    if kind is GammaKind.COMPLEX:
        front = 2.0 * front
    return front * complex_gamma(z)


# The coarsest sweep (step 1/2) takes its nodes outward in blocks per side,
# _BLOCK, _BLOCK, 2 _BLOCK, 4 _BLOCK, ... nodes, until a side holds
# _QUIET_RUN terms in a row below the truncation floor; no side may take
# more than _MAX_NODES nodes at one level.  A side that turns out too narrow
# at a finer level grows by _BLOCK coarse steps at a time.
_BLOCK = 8
_QUIET_RUN = 6
_MAX_NODES = 200_000
# One integrand call of a stack holds at most _STACK_CELLS values (rows x
# nodes); the driver splits the still-active rows of a larger call, so that
# a stack's temporaries stay near those of one row (the tracemalloc peak of
# a verify arch suite grows by about 0.2 MB).
_STACK_CELLS = 1 << 11


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
    w hold only the others, and `where` maps each node of the set to its
    index in r, -1 where masked (None when nothing is masked)."""
    u, _, _ = _line_nodes(level, first_p, first_n, stride, n_p, n_n)
    keep = np.abs(u) <= _EXP_SINH_EDGE
    where = None
    if not keep.all():
        u = u[keep]
        where = _frozen(np.where(keep, np.cumsum(keep) - 1, -1))
    r = np.exp(_EXP_SINH_C * np.sinh(u))
    w = r * _EXP_SINH_C * np.cosh(u)
    return _frozen(r), _frozen(w), where


def _columns(spans: tuple, where: np.ndarray | None, n: int) -> np.ndarray | None:
    """Indices among the n evaluated values of a node set of its nodes in
    the index ranges `spans` of the whole set, masked nodes skipped (see
    _exp_sinh_nodes); None when that is every value."""
    if sum(hi - lo for lo, hi in spans) == (n if where is None else where.size):
        return None
    idx = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
    if where is not None:
        idx = where[idx]
        idx = idx[idx >= 0]
    return idx


def _row_sums(v: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    """Each row's sum over the columns idx (None: all) of a C-contiguous
    (rows, n) array.  np.take keeps the block C-contiguous, so each row is
    summed as a 1-D array of its own values would be; the fancy index
    v[:, idx] comes out F-ordered, and its row sums regroup the terms."""
    return np.add.reduce(v if idx is None else np.take(v, idx, axis=1), axis=1)


def _full(v: np.ndarray, where: np.ndarray | None, nodes=None) -> np.ndarray:
    """Rows of evaluated values v at the given nodes of the whole set (a
    list or a slice of indices; None: every node), 0 where a node is
    masked (see _exp_sinh_nodes)."""
    if where is None:
        return v if nodes is None else v[:, nodes]
    idx = where if nodes is None else where[nodes]
    if not v.shape[1]:
        return np.zeros((v.shape[0], idx.size), v.dtype)
    return np.where(idx >= 0, v[:, idx], 0)


def _trapezoid_doubling(f: Callable, nodes=_line_nodes, rows: int | None = None):
    """Trapezoid rule with nested step halving for a stack of integrands
    decaying fast on R.

    With rows None, f maps a node array of shape (n,) to its values, shape
    (n,), and the integral comes back as a complex.  With rows = K, f(x, r)
    maps the nodes x and the still-active rows r (a slice or an ascending
    int array) to the values of those rows, shape (len(r), n), and the K
    integrals come back as a complex array; the one-row case is the same
    loop with one row.  `nodes(level, first_p, first_n, stride, n_p, n_n)`
    gives the points x and their weights dx/du (see _line_nodes and
    _exp_sinh_nodes).

    Per row: the sweep at step 1/2 walks outward from 0 in blocks until
    each side ends in six terms in a row below the truncation floor
    floor * (1 + |running total|); the nodes it took fix the window.  Each
    halving then takes only the new odd nodes of the window, both sides
    together, and adds them to the running sum.  A side whose outermost
    new node is not below the floor grows by blocks of coarse steps, taking
    every node of a block at the current spacing, until a block ends in six
    quiet terms.  The step is halved until two successive levels agree.

    Each sweep, halving and growth step evaluates the union of the nodes
    its still-active rows need, in one call of f (split into row chunks of
    at most _STACK_CELLS values), and each row sums exactly its own nodes,
    in the order of a one-row call (_row_sums).  So a row's value is bit
    for bit its one-row value, whatever else is in the stack.  A row never
    takes a node twice; it is evaluated again at a node only when it grows
    over nodes that a wider row's window made a union call take.

    Raises ToleranceNotMet, naming the row of a stack, when a row's value
    at one of its own nodes is not finite (naming the node), when a side
    needs more than _MAX_NODES nodes at one level, or when
    QUAD_MAX_HALVINGS halvings do not converge.
    """
    stacked = rows is not None
    if not stacked:
        one, rows = f, 1

        def f(x, active):
            v = np.asarray(one(x))
            if v.shape != x.shape:
                raise ValueError(f"integrand returned shape {v.shape} for {x.shape[0]} nodes")
            return v[None]

    if rows == 0:
        return np.zeros(0, complex)
    floor = QUAD_ABS_TOL * 1e-3

    def of(r):
        return f" in row {r}" if stacked else ""

    def evaluate(key, active, spans):
        # yield (rows, span, parts, values, where) for each group of the rows
        # `active` whose own nodes are the same index ranges `span` of the
        # node set `key` (spans[i] belongs to row active[i]): the rows'
        # sums over their own nodes, their evaluated values, and the set's
        # map to them (_full)
        x, w, where = nodes(*key)
        n = x.shape[0]
        step = len(active) if len(active) * n <= _STACK_CELLS else max(1, _STACK_CELLS // n)
        for c in range(0, len(active), step):
            rs, sp = active[c:c + step], spans[c:c + step]
            # a run of consecutive rows is passed as a slice
            v = f(x, slice(rs[0], rs[-1] + 1) if rs[-1] - rs[0] == len(rs) - 1 else np.array(rs))
            if v.shape != (len(rs), n):
                raise ValueError(f"integrand returned shape {v.shape} for {len(rs)} rows of {n} nodes")
            if w is not None:
                v = v * w
            if not v.flags.c_contiguous:
                v = np.ascontiguousarray(v)
            if sp.count(sp[0]) == len(sp):
                groups = [(rs, sp[0], v)]
            else:
                groups = []
                for span in dict.fromkeys(sp):
                    own = [i for i, other in enumerate(sp) if other == span]
                    groups.append(([rs[i] for i in own], span, v[own]))
            for g_rows, span, g_v in groups:
                idx = _columns(span, where, n)
                parts = _row_sums(g_v, idx).tolist()
                if not all(map(cmath.isfinite, parts)):
                    i = [cmath.isfinite(part) for part in parts].index(False)
                    idx = np.arange(n) if idx is None else idx
                    j = int(idx[np.flatnonzero(~np.isfinite(g_v[i, idx]))[0]])
                    raise ToleranceNotMet(
                        f"integrand value {complex(g_v[i, j])}{of(g_rows[i])} at node x = {float(x[j])!r} is not finite"
                    )
                yield g_rows, span, parts, g_v, where

    # coarsest sweep: node 0 and a block on each side, then further blocks
    # on each side until it holds a run of quiet terms; every node taken
    # stays in the window.  Every side still sweeping has taken the same
    # blocks, so the rows that extend a side share its next block.
    total: list = [0.0] * rows
    window = [[0, 0] for _ in range(rows)]  # coarse nodes taken on the positive and the negative side
    run = [[0, 0] for _ in range(rows)]  # quiet terms at the end of each side so far
    ended = [[False, False] for _ in range(rows)]
    sweeping = list(range(rows))
    start, first, size = 1, [0, 1], [_BLOCK + 1, _BLOCK]  # the first call also takes node 0
    block = _BLOCK
    while sweeping:
        n_p, n_n = size
        spans = [((0, 0 if ended[r][0] else n_p), (n_p, n_p if ended[r][1] else n_p + n_n)) for r in sweeping]
        for rs, span, parts, v, where in evaluate((0, first[0], first[1], 1, n_p, n_n), sweeping, spans):
            floors = []
            for r, part in zip(rs, parts):
                total[r] += part
                floors.append(floor * (1.0 + abs(total[r])))
            for r, quiet in zip(rs, (np.abs(_full(v, where)) < np.array(floors)[:, None]).tolist()):
                for s, (lo, hi) in enumerate(span):
                    lo = max(lo, start)
                    q = run[r][s]
                    for quiet_term in quiet[lo:hi]:
                        q = q + 1 if quiet_term else 0
                        if q == _QUIET_RUN:
                            ended[r][s] = True
                            break
                    run[r][s] = q
                    window[r][s] += hi - lo
        sweeping = [r for r in sweeping if not (ended[r][0] and ended[r][1])]
        start = 0
        for s in (0, 1):
            extending = [r for r in sweeping if not ended[r][s]]
            if not extending:
                first[s], size[s] = 1, 0
                continue
            taken = window[extending[0]][s]
            if taken >= _MAX_NODES:
                raise ToleranceNotMet(f"integrand does not decay on the grid{of(extending[0])}")
            first[s], size[s] = taken + 1, min(block, _MAX_NODES - taken)
        block *= 2

    prev = [0.5 * t for t in total]
    out: list = [None] * rows
    active = list(range(rows))
    edges = [[0.0, 0.0] for _ in range(rows)]
    for level in range(1, QUAD_MAX_HALVINGS + 1):
        # the odd multiples of h = 2^-(level + 1) inside each side's window
        sh = level - 1
        n_p = max([window[r][0] for r in active]) << sh
        n_n = max([window[r][1] for r in active]) << sh
        spans = [((0, window[r][0] << sh), (n_p, n_p + (window[r][1] << sh))) for r in active]
        for rs, ((_, a), (_, b)), parts, v, where in evaluate((level, 1, 1, 2, n_p, n_n), active, spans):
            # each side's outermost new node
            for r, part, outer in zip(rs, parts, _full(v, where, [a - 1, b - 1]).tolist()):
                total[r] += part
                edges[r] = [abs(outer[0]), abs(outer[1])]
        for s in (0, 1):
            # a window that was too narrow: one more block of coarse steps
            # on this side, every node at this level's spacing, until the
            # block ends in six quiet terms
            growing = [r for r in active if edges[r][s] >= floor * (1.0 + abs(total[r]))]
            count = _BLOCK << level
            while growing:
                for r in growing:
                    if (window[r][s] << level) + count > _MAX_NODES:
                        raise ToleranceNotMet(f"integrand does not decay on the grid{of(r)}")
                firsts = [(window[r][s] << level) + 1 for r in growing]
                lo = min(firsts)
                n = max(firsts) + count - lo
                spans = [((q - lo, q - lo + count),) for q in firsts]
                key = (level, lo, lo, 1, n if s == 0 else 0, n if s == 1 else 0)
                for rs, ((_, hi),), parts, v, where in evaluate(key, growing, spans):
                    tails = np.abs(_full(v, where, slice(hi - _QUIET_RUN, hi))).max(axis=1).tolist()
                    for r, part, tail in zip(rs, parts, tails):
                        total[r] += part
                        window[r][s] += _BLOCK
                        edges[r][s] = tail
                growing = [r for r in growing if edges[r][s] >= floor * (1.0 + abs(total[r]))]
        scale = 0.5 ** (level + 1)
        still = []
        for r in active:
            cur = total[r] * scale
            if abs(cur - prev[r]) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(cur)):
                out[r] = complex(cur)
            else:
                prev[r] = cur
                still.append(r)
        active = still
        if not active:
            return np.array(out, complex) if stacked else out[0]
    raise ToleranceNotMet(f"trapezoid refinement budget exhausted{of(active[0])}")


def quad_realline(g: Callable[[np.ndarray], np.ndarray]) -> complex:
    """Integral over R of a smooth integrand with at least exponential decay.

    g takes a float64 array of nodes and returns an array of the same shape
    (real or complex), finite at every node it is given.  The step-1/2
    sweep finds the window, each halving evaluates only the new odd nodes
    in one call of g, and no node is evaluated twice; a non-finite value
    raises ToleranceNotMet naming its node.  A one-row call of the stacked
    driver (_trapezoid_doubling).
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
    per node set; the nodes are nested as in quad_realline, and this too is
    a one-row call of the stacked driver.
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


def _stack(name: str, **args) -> tuple[list[np.ndarray], tuple | None]:
    """The arguments of an array evaluator as flat arrays of their common
    broadcast shape, and that shape: None when no argument is an ndarray,
    so that the evaluator returns a complex.  Raises ValueError naming the
    first non-finite entry, before any node is evaluated."""
    if not any(isinstance(v, np.ndarray) for v in args.values()):
        for key, v in args.items():
            if not cmath.isfinite(v):
                raise ValueError(f"{name} requires finite {key}, got {v!r}")
        return [np.array([v]) for v in args.values()], None
    arrays = [np.asarray(v) for v in args.values()]
    for key, a in zip(args, arrays):
        if not np.isfinite(a).all():
            bad = int(np.flatnonzero(~np.isfinite(a))[0])
            at = f" at index {tuple(int(i) for i in np.unravel_index(bad, a.shape))}" if a.ndim else ""
            raise ValueError(f"{name} requires finite {key}, got {a.flat[bad].item()!r}{at}")
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return [(a if a.shape == shape else np.broadcast_to(a, shape)).ravel() for a in arrays], shape


def _unstack(values: np.ndarray, shape: tuple | None):
    """An array evaluator's result: a complex for scalar arguments, else
    the values in the arguments' broadcast shape."""
    return complex(values[0]) if shape is None else values.reshape(shape)


def bessel_k(nu, y):
    """Modified Bessel function of the second kind as a half-line integral.

    Evaluates (1/2) * int_0^inf exp(-y (t + 1/t)) t**nu dt/t after the
    logarithmic substitution t = exp(u), which makes the integrand
    symmetric with doubly exponential decay.  nu (complex) and y (real)
    are scalars, giving a complex, or arrays broadcast together, giving an
    array of their shape in one stacked quadrature; each entry is bit for
    bit the value of its scalar call.

    Domain: finite nu and finite y > 0; a non-finite entry raises
    ValueError naming it, before any node is evaluated.  At order 1/2,
    against the closed form sqrt(pi / (4y)) exp(-2y) on 1e-6 <= y <= 300,
    the error is at most 1.4e-15 relative while K >= 1e-11 and 4e-18
    absolute below (3 000 log-spaced y): QUAD_ABS_TOL, not the rule, limits
    the relative accuracy of small values.
    """
    (nu, y), shape = _stack("bessel_k", nu=nu, y=y)
    if not (y > 0).all():
        raise ValueError("bessel_k requires y > 0")
    scale = np.array([-2.0 * v for v in y.tolist()])[:, None]
    order = np.array([complex(v) for v in nu.tolist()])[:, None]

    def g(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # cosh stays finite on |u| <= 700, and past it the term is masked anyway
        return 0.5 * _masked_exp(scale[rows] * np.cosh(np.minimum(np.abs(u), 700.0)), order[rows] * u)

    return _unstack(_trapezoid_doubling(g, rows=y.size), shape)


def bessel_k_alt(nu, y):
    """Second integral representation: int_0^inf exp(-y(t^2 + t^-2)) t^(2 nu) dt/t,
    on the arguments and domain of bessel_k."""
    (nu, y), shape = _stack("bessel_k_alt", nu=nu, y=y)
    if not (y > 0).all():
        raise ValueError("bessel_k_alt requires y > 0")
    scale = np.array([-2.0 * v for v in y.tolist()])[:, None]
    order = np.array([2.0 * complex(v) for v in nu.tolist()])[:, None]

    def g(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return _masked_exp(scale[rows] * np.cosh(np.minimum(np.abs(2.0 * u), 700.0)), order[rows] * u)

    return _unstack(_trapezoid_doubling(g, rows=y.size), shape)


def kernel_ka(kind: GammaKind, a, w):
    """Radial kernel of the smooth-section surjectivity argument.

    COMPLEX: 4 K_w(a); REAL: 2 K_{w/2}(a), where K is bessel_k.  The defining
    integrals (see kernel_ka_quad) reduce to these by t = r^2 resp. t = r.
    a in [1, 2) and finite complex w are scalars or arrays broadcast
    together, as in bessel_k.
    """
    (a, w), shape = _stack("kernel_ka", a=a, w=w)
    if not ((1.0 <= a) & (a < 2.0)).all():
        raise ValueError("a must lie in [1, 2)")
    if kind is GammaKind.COMPLEX:
        return _unstack(4.0 * bessel_k(w, a), shape)
    if kind is GammaKind.REAL:
        return _unstack(2.0 * bessel_k(np.array([complex(v) / 2.0 for v in w.tolist()]), a), shape)
    raise ValueError(f"unknown gamma kind {kind!r}")


def kernel_ka_quad(kind: GammaKind, a, w):
    """Direct quadrature of the defining kernel integral, used as the oracle.

    COMPLEX: 4 int_0^inf exp(-a (r^2 + r^-2)) r^(2w) dr/r
    REAL:    2 int_0^inf exp(-a (r^2 + r^-2)) r^w     dr/r

    Finite a and w, scalars or arrays broadcast together, as in bessel_k.
    """
    (a, w), shape = _stack("kernel_ka_quad", a=a, w=w)
    scale = np.array([-v for v in a.tolist()])[:, None]
    power = np.array([(2.0 * complex(v) if kind is GammaKind.COMPLEX else complex(v)) - 1.0 for v in w.tolist()])[:, None]
    front = 4.0 if kind is GammaKind.COMPLEX else 2.0

    def f(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # a (r^2 + r^-2) stays finite on [1e-100, 1e100]; past it the term is masked
        rc = np.clip(r, 1e-100, 1e100)
        return _masked_exp(scale[rows] * (rc * rc + 1.0 / (rc * rc)), power[rows] * np.log(r))

    return _unstack(front * _trapezoid_doubling(f, _exp_sinh_nodes, rows=a.size), shape)


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
    z is a scalar (a complex back) or an array (an array of its shape).
    Cached per (kind, z): the archimedean oracle needs the same moments at
    every sample point, and an array call computes only the entries missing
    from the cache, in one stacked quadrature.
    """
    cache = _MOMENTS[kind]
    if not isinstance(z, np.ndarray):
        hit = cache.get(complex(z))
        if hit is not None:
            return hit
    (z,), shape = _stack("radial_gaussian_moment", z=z)
    zs = z.tolist()
    missing = [v for v in dict.fromkeys(zs) if v not in cache]
    if missing:
        missing = [complex(v) for v in missing]
        if any(v.real <= 0 for v in missing):
            raise ValueError("radial moment requires Re z > 0")
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
    return _unstack(np.array([cache[v] for v in zs], complex), shape)


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
