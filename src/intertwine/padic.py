"""Exact local theory at every prime: characters, Gauss sums, atoms,
classical vectors, and the finite-place intertwining eigenvalues.

Everything here is a finite exact computation.  Unit-group characters are
stored primitively (the recorded exponents live at the conductor modulus) on
one walk of the units that works at every level, (-1)^sign g^k for a fixed
generator g: the sign half is empty at odd p, where g generates the cyclic
group, and at p = 2 the units are {+-1} x <5>.  Values are roots of unity
evaluated from exact rational angles.  Every Gauss-type sum (the Gauss sum,
the unit integral behind its support window, the shells of the brute-force
transform) is one unit integral that hands integer angle numerators over a
common denominator to a single kernel,
_root_sums (root_of_unity_sum is its public entry on a numerator array,
which the tests call).  The numerators are built as int64 arrays and the
kernel takes cos and sin in numpy blocks, sums each component exactly in
integer-valued float limbs and rounds it once (the value math.fsum gives),
so a sum adds no rounding of its own.  When the denominator is at most
both the call's term count and _SUM_BLOCK, it takes the cos and sin of each
residue once, into a table of at most one piece (512 KB), and gathers every
term from it, to the floats the direct path computes; the Gauss tables go
that way.  Each term still carries the rounding of its cos and sin (its
cos alone in the trivial character's row, below), so the error floor grows
with the number of terms: the trivial unit sum mod 3^13 (1 062 882 units
in 531 441 pairs, exactly 0) reads 4.1e-11, and mod 7^6 (100 842 units,
50 421 pairs) 4.0e-12.  The kernel sums many rows at once:
a (rows, n) array gives one exactly rounded sum per row, the same bits as a
call on that row alone.  _root_sums alone sizes its pieces, and asks its
caller to build each one.  _unit_sums writes the unit sum's numerators
once, one row per character of one conductor; gauss_sums sums every
primitive character of a conductor that way, at every prime.  A ramified
row walks the units as (-1)^sign g^k, taking the powers of g one piece at
a time, each piece g^c0 times one cached head table of at most _SUM_BLOCK
powers (_unit_power_piece), so it holds one piece of powers, never
phi(p^depth) of them; only _dlog_table, which inverts the walk, builds a
whole unit group.  The trivial character's row, which every tail shell
of the brute-force transform sums, takes no powers: its terms at y and -y
are conjugate, so it sums one unit of each pair, in natural order, at
twice the cos of the pair's residue folded into [0, den / 2], one cos
where the walk took two cos and two sin.  The int64 products bound the
domain: a unit integral whose denominator times p^depth reaches 2^63
raises RangeError, and gauss_sums checks it first.
Gauss sums are cached on (chi, psi).  A unit integral's raw sum is cached on
(chi, b, r), where p^c(psi) t = A / p^b in lowest terms and r = A mod p^b;
for the trivial character r is 1 (0 when b = 0), since its sum has the same
terms for every unit A.  Brute-force points whose shells have the same terms
therefore share one sum.  Functions on the multiplicative group are finite
linear combinations of two kinds of atoms,

    [chi, n]   supported on p^n * units, value chi(unit part),
    [1, >= n]  the indicator of p^n * integers,

which the local Fourier transform permutes with Gauss-sum coefficients.
Functions on the line (SimpleFunction) and pure-tensor combinations on the
plane (TensorSimpleFunction) are the arity-1 and arity-2 cases of one
atom-sum body, a dict from tuples of canonical atoms to coefficients.  One
per-atom rule, _atom_hat, gives the Fourier image of an atom to the line
transform fourier_atom and to the plane's twisted fourier_hat alike;
fourier_bruteforce, the oracle for fourier_atom, sums shells without it.
Measures are self-dual: additive vol(o) = C(psi)^(-1/2) and multiplicative
vol(o^x) = C(psi)^(-1/2); both normalizations are asserted by tests.

Radial (Tate) integrals of atom functions reduce to finite sums plus a
closed geometric tail, never a numerical truncation.  The oracle takes them
at many sample rows in one call per section, which keeps the terms that
survive the unit character once and memoizes the character values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import ConductorError, PoleError, RangeError
from .numerics import _consistent_ratio


# ---------------------------------------------------------------------------
# modular utilities


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def unit_generator(p: int) -> int:
    """The generator g of the unit walk mod p^m (_unit_group), valid for
    every m >= 1: 5 at p = 2; at odd p a primitive root r mod p, which also
    generates mod p^2 unless r^(p-1) = 1 there, in which case r + p does;
    either choice then works for all higher m."""
    if p == 2:
        return 5
    if not is_odd_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    phi = p - 1

    def is_primitive(r: int) -> bool:
        for q in _prime_factors(phi):
            if pow(r, phi // q, p) == 1:
                return False
        return True

    r = 2
    while not is_primitive(r):
        r += 1
    if pow(r, p - 1, p * p) == 1:
        r += p
    return r


@lru_cache(maxsize=None)
def _unit_group(p: int, d: int) -> tuple[int, int, int, int]:
    """(signs, order, lift, below) of the units mod p^d, d >= 0: they are
    (-1)^sign g^k, sign < signs and k < order, g = unit_generator(p),
    phi(p^d) = signs order of them (1 at d = 0).  The sign half is empty
    (signs = 1) at odd p, where -1 is a power of g, and at p^d <= 2; at
    p = 2 from d = 2 on, signs = 2 and order = 2^(d - 2).

    A character (eps, a) mod p^d factors through p^(d - 1), and so is
    imprimitive, when a % lift == 0 and eps < below: lift is the ratio of
    the orders of g at d and d - 1, and below the signs at d - 1 (0 at
    d = 0, where nothing lies below).  Raises ValueError unless p is prime.
    """
    if p != 2 and not is_odd_prime(p):
        raise ValueError(f"p must be a prime, got {p}")

    def units(e: int) -> tuple[int, int]:
        if p == 2:
            return (2, 2 ** (e - 2)) if e >= 2 else (1, 1)
        return 1, (p - 1) * p ** (e - 1) if e else 1

    signs, order = units(d)
    if d == 0:
        return signs, order, 1, 0
    below, below_order = units(d - 1)
    return signs, order, order // below_order, below


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _dlog_table(p: int, m: int) -> list[int]:
    """The walk index j of each unit u mod p^m, at index u (entries at
    multiples of p unused): u = (-1)^sign g^k with (sign, k) =
    divmod(j, order), order from _unit_group(p, m), the inverse permutation
    of the walk of _unit_sums."""
    (signs, order), mod = _unit_group(p, m)[:2], p**m
    walk = _unit_powers(unit_generator(p), mod, order)
    if signs == 2:
        walk = np.concatenate((walk, mod - walk))
    table = np.zeros(mod, dtype=np.int64)
    table[walk] = np.arange(walk.size)
    return table.tolist()


def e_of(t: Fraction) -> complex:
    """exp(2 pi i t) from an exact rational angle."""
    t -= math.floor(t)
    return cmath.exp(2j * math.pi * float(t))


def root_of_unity_sum(numerators, den: int) -> complex | list[complex]:
    """Sum of e(k / den) over the integers k, each component exactly rounded.

    numerators is any int array-like whose values fit in int64, and
    0 < den < 2^53, so that (k mod den) / den is the float of the reduced
    fraction, the same value e_of takes from the exact rational.  The angles
    go through numpy cos and sin one block at a time, and each component is
    summed exactly and rounded once (_ExactSum), so the total is the one
    math.fsum gives and does not depend on the order of the terms.

    A 2-D (rows, n) array gives a list with one sum per row, each equal to
    the sum of that row alone to the bit.  When den is at most both rows n
    and _SUM_BLOCK, the cos and sin of each residue are taken once and every
    term is read from that table, to the same bits (_root_sums).
    """
    try:
        k = np.asarray(numerators, dtype=np.int64)
    except OverflowError:
        raise RangeError("root-of-unity numerators must fit in int64") from None
    if k.ndim not in (1, 2):
        raise ValueError(f"numerators must be a 1-D or 2-D array, got {k.ndim} dimensions")
    rows = np.atleast_2d(k)
    sums = _root_sums(rows.shape, lambda r, c: rows[r, c], den)
    return sums[0] if k.ndim == 1 else sums


def _root_sums(shape: tuple[int, int], block, den: int, cos_weight: int = 0) -> list[complex]:
    """root_of_unity_sum of each row of a (rows, n) numerator array, built
    one int64 piece at a time by block(row_slice, col_slice).  The one place
    that sizes pieces: a pass takes as many whole rows as fit in _SUM_BLOCK
    numerators, and a longer row goes alone, _SUM_BLOCK columns a piece.

    cos_weight w > 0 asks for the cos part only, for rows whose numerators k
    each stand for w terms that are e(k / den) or its conjugate: each
    residue r is folded to min(r, den - r), whose angle lies in [0, pi], and
    a row's value is w times the exact sum of the cos of its folded angles,
    rounded once, with imaginary part 0.0.

    When den is at most both rows n and _SUM_BLOCK, the cos and sin of each
    residue r / den are taken once, into a 2 x den table no larger than one
    piece (512 KB), and every term is gathered from it; otherwise each term
    takes its own cos and sin.  Both paths form the angle as (k mod den) / den
    times 2 pi, so every term, and every sum, keeps its bits."""
    if not 0 < den < 2**53:
        raise RangeError(f"root-of-unity denominator {den} is outside (0, 2^53)")
    rows, n = shape

    def angles(r: np.ndarray) -> np.ndarray:
        # 2 pi r / den for residues r, the one formula of both paths
        theta = r / den
        theta *= 2 * math.pi
        return theta

    parts = 1 if cos_weight else 2
    table = None
    if den <= min(rows * n, _SUM_BLOCK):
        theta = angles(np.arange(den, dtype=np.int64))
        table = np.array([np.cos(theta), np.sin(theta)][:parts])
    group = max(1, _SUM_BLOCK // max(n, 1))
    out = []
    for start in range(0, rows, group):
        part = slice(start, min(start + group, rows))
        count = part.stop - start
        sums = _ExactSum(parts * count)
        for col in range(0, n, _SUM_BLOCK):
            r = np.remainder(block(part, slice(col, min(col + _SUM_BLOCK, n))), den)
            if cos_weight:
                r = np.minimum(r, den - r)
            if table is None:
                theta = angles(r)
                x = np.cos(theta) if cos_weight else np.concatenate((np.cos(theta), np.sin(theta)))
            else:
                # the cos of each row's terms above their sin
                x = np.take(table, r, axis=1, mode="clip").reshape(parts * count, -1)
            sums.add(x)
        if cos_weight:
            out += [complex(re, 0.0) for re in sums.values(cos_weight)]
        else:
            values = sums.values()
            out += [complex(re, im) for re, im in zip(values[:count], values[count:])]
    return out


# A float x with |x| <= 1 is a fixed-point number whose last bit is at most
# 2^-1074.  _ExactSum cuts it into integer limbs of _LIMB_BITS bits, held as
# floats, so that a piece of _SUM_BLOCK limbs, each of modulus at most 2^37,
# sums exactly in float64 in any order (every partial sum is an integer of
# modulus at most 2^15 * 2^37 = 2^52), and _LIMBS limbs reach below 2^-1074.
_SUM_BLOCK = 1 << 15
_LIMB_BITS = 37
_LIMB_SCALE = float(1 << _LIMB_BITS)
_LIMBS = -(-1074 // _LIMB_BITS)


class _ExactSum:
    """Exact running sums of rows of finite floats with |x| <= 1, each kept
    as the integer total / 2^(_LIMB_BITS * _LIMBS), 2^-1110.  values() rounds
    each once with int true division, which is correctly rounded and
    half-even, so a row's value is the one math.fsum returns for the same
    floats (+0.0 for a zero total)."""

    __slots__ = ("totals",)

    def __init__(self, rows: int):
        self.totals = [0] * rows

    def add(self, x: np.ndarray) -> None:
        """Add row i of the float array x, shape (rows, n) with n at most
        _SUM_BLOCK, to total i; overwrites x.  All rows go through each numpy
        call together, which keeps the cost of a short sum down."""
        if x.shape[1] > _SUM_BLOCK:
            raise ValueError(f"a piece holds at most {_SUM_BLOCK} columns, got {x.shape[1]}")
        limb = np.empty_like(x)
        sums, limbs = [0] * len(self.totals), 0
        # scaling by 2^37 and splitting off the nearest integer are both
        # exact, so the residual stays at modulus <= 1/2 and reaches zero
        # after at most _LIMBS limbs
        while x.any():
            x *= _LIMB_SCALE
            np.rint(x, out=limb)
            x -= limb
            row_sums = np.add.reduce(limb, axis=1).astype(np.int64).tolist()
            sums = [(total << _LIMB_BITS) + row for total, row in zip(sums, row_sums)]
            limbs += 1
        shift = _LIMB_BITS * (_LIMBS - limbs)
        self.totals = [total + (row << shift) for total, row in zip(self.totals, sums)]

    def values(self, weight: int = 1) -> list[float]:
        """Each total times the integer weight, rounded once."""
        return [weight * total / (1 << _LIMB_BITS * _LIMBS) for total in self.totals]


@lru_cache(maxsize=None)
def _unit_powers(g: int, mod: int, order: int) -> np.ndarray:
    """g^j mod mod, j = 0 .. order - 1, read-only: a table of powers of a
    generator (unit_generator(p) at odd p, 5 mod 2^m).  The unit sums ask
    for at most _SUM_BLOCK of them, the head of every piece they walk
    (_unit_power_piece); only _dlog_table asks for a whole unit group.

    Filled by doubling, out[n:2n] = out[:n] g^n mod mod, in uint64, so mod^2
    must stay below 2^64 (RangeError otherwise); the residues, below 2^32,
    are viewed as int64.
    """
    if mod * mod >= 2**64:
        raise RangeError(f"powers of a unit mod {mod} are beyond the uint64 table (mod^2 >= 2^64)")
    out = np.empty(order, dtype=np.uint64)
    out[0] = 1
    n = 1
    while n < order:
        step = min(n, order - n)
        out[n : n + step] = out[:step] * np.uint64(pow(g, n, mod)) % np.uint64(mod)
        n += step
    out = out.view(np.int64)
    out.flags.writeable = False
    return out


def _unit_power_piece(g: int, mod: int, order: int, start: int, size: int) -> np.ndarray:
    """g^j mod mod for the exponents j = start .. start + size - 1 of one
    kernel piece, size at most h = min(order, _SUM_BLOCK), g of order `order`.

    They are g^start times the head table _unit_powers(g, mod, h), taken in
    uint64: both factors are below mod, and mod^2 < 2^64 (_unit_powers
    checks it, and _unit_frame's den mod < 2^63 implies it), so every
    product and residue is exact.  The piece is a new array, which the
    caller may overwrite.  A deep shell thus holds one piece of powers at a
    time, never phi(p^depth) of them."""
    head = _unit_powers(g, mod, min(order, _SUM_BLOCK))[:size]
    piece = head.view(np.uint64) * np.uint64(pow(g, start, mod))
    piece %= np.uint64(mod)
    return piece.view(np.int64)


def _p_split(x, p: int) -> tuple[int | None, int, int]:
    """(v, num, den) with x = p^v num / den and num, den prime to p, for an
    int or a Fraction (any other rational goes through Fraction); (None, 0, 1)
    for zero."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num == 0:
        return None, 0, 1
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def val_p(x: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational (None for zero)."""
    return _p_split(x, p)[0]


# ---------------------------------------------------------------------------
# characters


def _same_prime(*primes: int) -> None:
    """Raise ValueError unless every p-adic operand lives at one prime."""
    if len(set(primes)) > 1:
        raise ValueError(f"operands at different primes: {sorted(set(primes))}")


@dataclass(frozen=True)
class MultChar:
    """Character of the unit group, stored primitively at its conductor.

    cond = 0 is the trivial character.  For cond >= 1 the units mod p^cond
    are (-1)^sign g^k on the fixed generator g = unit_generator(p), with
    sign < signs and k < order from _unit_group(p, cond), and the character
    is chi((-1)^sign g^k) = e(eps sign / 2 + a k / order).  At odd p -1 is
    a power of g, so sign and eps are 0; at p = 2 (g = 5) the conductor is
    2^2, with the one character chi4 (eps = 1, a = 0), or 2^m, m >= 3, with
    a odd, and no character has conductor 2.
    """

    p: int
    cond: int
    a: int = 0
    eps: int = 0

    def __post_init__(self):
        if self.cond < 0:
            raise ValueError("conductor exponent must be >= 0")
        signs, order, lift, below = _unit_group(self.p, self.cond)
        if not (0 <= self.a < order and 0 <= self.eps < signs):
            raise ValueError(f"exponents eps = {self.eps}, a = {self.a} are not reduced at conductor {self.cond}")
        if self.a % lift == 0 and self.eps < below:
            raise ValueError(f"exponents eps = {self.eps}, a = {self.a} are imprimitive at conductor {self.cond}")

    def __hash__(self):
        # eps = 0, as at every odd p, hashes as the triple (p, cond, a)
        return hash((self.p, self.cond, self.a, self.eps) if self.eps else (self.p, self.cond, self.a))

    @classmethod
    def trivial(cls, p: int) -> "MultChar":
        return cls(p, 0, 0)

    @classmethod
    def from_exponent(cls, p: int, m: int, a: int, eps: int = 0) -> "MultChar":
        """Character mod p^m with given exponents, reduced to its conductor."""
        signs, order, lift, below = _unit_group(p, m)
        a, eps = a % order, eps % signs
        while a % lift == 0 and eps < below:
            a, m = a // lift, m - 1
            lift, below = _unit_group(p, m)[2:]
        return cls(p, m, a, eps)

    @classmethod
    def all_primitive(cls, p: int, m: int) -> list["MultChar"]:
        """All characters of conductor exactly m, eps major (none for
        p^m = 2)."""
        signs, order, lift, below = _unit_group(p, m)
        return [cls(p, m, a, eps) for eps in range(signs) for a in range(order) if a % lift or eps >= below]

    @property
    def conductor_value(self) -> int:
        """C(chi) = p^cond."""
        return self.p**self.cond

    def is_trivial(self) -> bool:
        return self.cond == 0

    def angle(self, u) -> Fraction:
        """Exact angle t with chi(u) = exp(2 pi i t)."""
        if self.cond == 0:
            return Fraction(0)
        return Fraction(*self._angle(*self._unit_parts(u)))

    def value(self, u) -> complex:
        """chi(u) for an int unit u, or of the unit part of a Fraction u."""
        if self.cond == 0:
            return 1.0 + 0j
        return self._unit_value(*self._unit_parts(u))

    def _unit_parts(self, u) -> tuple[int, int]:
        """(num, den), both prime to p: an int unit over 1, or the unit part
        of a Fraction."""
        if isinstance(u, Fraction):
            v, num, den = _p_split(u, self.p)
            if v is None:
                raise ValueError("zero has no unit part")
            return num, den
        if int(u) % self.p == 0:
            raise ValueError(f"{u} is not a unit mod {self.conductor_value}")
        return int(u), 1

    def _angle(self, num: int, den: int) -> tuple[int, int]:
        """(t, n) with chi(num / den) = e(t / n), chi ramified, for num and
        den prime to p: with (sign, k) = divmod(j, order) for the walk index
        j of num / den mod p^cond (_dlog_table), eps sign / 2 + a k / order
        over n = 2 order."""
        mod, order = self.conductor_value, _unit_group(self.p, self.cond)[1]
        sign, k = divmod(_dlog_table(self.p, self.cond)[num * pow(den, -1, mod) % mod], order)
        return self.eps * sign * order + 2 * self.a * k, 2 * order

    def _unit_value(self, num: int, den: int) -> complex:
        """chi(num / den) for num and den prime to p, chi ramified.

        The angle t / n mod 1 becomes a float by int true division, which
        is correctly rounded, so this is e_of of the exact angle to the bit,
        without building a Fraction.
        """
        t, n = self._angle(num, den)
        return cmath.exp(2j * math.pi * ((t % n) / n))

    def at_minus_one(self) -> float:
        """chi(-1): (-1)^eps at p = 2, where -1 is the sign, and (-1)^a at
        odd p, where it is the half-order power of g."""
        return -1.0 if (self.eps if self.p == 2 else self.a) % 2 else 1.0

    def inverse(self) -> "MultChar":
        if self.cond == 0:
            return self
        return MultChar(self.p, self.cond, (-self.a) % _unit_group(self.p, self.cond)[1], self.eps)

    def __mul__(self, other: "MultChar") -> "MultChar":
        _same_prime(self.p, other.p)
        if other.cond == 0:
            return self
        if self.cond == 0:
            return other
        p, m = self.p, max(self.cond, other.cond)
        order = _unit_group(p, m)[1]
        # each exponent lifted to p^m
        a = self.a * (order // _unit_group(p, self.cond)[1]) + other.a * (order // _unit_group(p, other.cond)[1])
        return MultChar.from_exponent(p, m, a, self.eps + other.eps)


@dataclass(frozen=True)
class AddChar:
    """Additive character psi(x) = e(fractional part of p^c x); C(psi) = p^c.

    psi is trivial on p^(-c) integers and nontrivial one level deeper.
    """

    p: int
    c: int = 0

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("conductor exponent must be >= 0")

    @property
    def conductor_value(self) -> int:
        return self.p**self.c

    def value(self, x: Fraction) -> complex:
        return e_of(self.angle(x))

    def angle(self, x: Fraction) -> Fraction:
        t = Fraction(x) * self.p**self.c
        # inputs must be p-adic rationals: denominator a power of p
        if _p_split(t, self.p)[2] != 1:
            raise ValueError(f"{x} is not a p-adic rational at p = {self.p}")
        return Fraction(t.numerator % t.denominator, t.denominator)


# ---------------------------------------------------------------------------
# atoms and simple functions


@dataclass(frozen=True)
class CharAtom:
    """[chi, n]: supported on p^n units, value chi of the unit part."""

    chi: MultChar
    n: int


@dataclass(frozen=True)
class TailAtom:
    """[1, >= n]: indicator of p^n integers."""

    n: int


Atom = CharAtom | TailAtom


def _canon_atom(atom: Atom) -> list[tuple[float, Atom]]:
    """Canonical basis: ramified shell atoms and tail atoms only.

    A trivial-character shell indicator equals the difference of consecutive
    tails; expanding it makes representations unique, so atom-level equality
    of transforms is meaningful.
    """
    if isinstance(atom, CharAtom) and atom.chi.cond == 0:
        return [(1.0, TailAtom(atom.n)), (-1.0, TailAtom(atom.n + 1))]
    return [(1.0, atom)]


def _atom_value(atom: Atom, split: tuple[int | None, int, int]) -> complex:
    """Value of an atom at the point x whose _p_split is split."""
    v, num, den = split
    if isinstance(atom, TailAtom):
        return 1.0 if v is None or v >= atom.n else 0.0
    return atom.chi._unit_value(num, den) if v == atom.n else 0.0


class _AtomSum:
    """Finite complex combination of pure tensors of ARITY atoms, keyed by
    the tuple of atoms.

    The constructor takes (coeff, atom_1, ..., atom_ARITY) items, expands
    each atom in the canonical basis (_canon_atom), and merges equal keys, so
    every stored key is canonical and every stored coefficient nonzero.
    """

    __slots__ = ("p", "terms")
    ARITY: ClassVar[int]

    def __init__(self, p: int, terms=None):
        self.p = p
        merged: dict[tuple[Atom, ...], complex] = {}
        if terms:
            for coeff, *atoms in terms:
                if len(atoms) != self.ARITY:
                    raise ValueError(f"{type(self).__name__} terms hold {self.ARITY} atoms, got {len(atoms)}")
                if coeff == 0:
                    continue
                _same_prime(p, *(atom.chi.p for atom in atoms if isinstance(atom, CharAtom)))
                expanded = [(1.0, ())]
                for atom in atoms:
                    expanded = [(w * wa, key + (ca,)) for w, key in expanded for wa, ca in _canon_atom(atom)]
                c = complex(coeff)
                for w, key in expanded:
                    merged[key] = merged.get(key, 0j) + w * c
        self.terms = {k: c for k, c in merged.items() if c != 0}

    def scale(self, s: complex):
        return type(self)(self.p, [(c * s, *key) for key, c in self.terms.items()])

    def __add__(self, other):
        _same_prime(self.p, other.p)
        items = [(c, *key) for key, c in self.terms.items()]
        items += [(c, *key) for key, c in other.terms.items()]
        return type(self)(self.p, items)

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, {self.terms!r})"


class SimpleFunction(_AtomSum):
    """Finite complex combination of atoms on the multiplicative group,
    keyed by 1-tuples (atom,)."""

    __slots__ = ()
    ARITY = 1

    def evaluate(self, x: Fraction) -> complex:
        split = _p_split(x, self.p)
        total = 0j
        for (atom,), coeff in self.terms.items():
            total += coeff * _atom_value(atom, split)
        return total

    def negate_argument(self) -> "SimpleFunction":
        """The function x -> f(-x)."""
        out = []
        for (atom,), coeff in self.terms.items():
            if isinstance(atom, CharAtom):
                out.append((coeff * atom.chi.at_minus_one(), atom))
            else:
                out.append((coeff, atom))
        return SimpleFunction(self.p, out)


def _unit_integral(chi: MultChar, psi: AddChar, t: Fraction) -> complex:
    """int over units of chi(y) psi(-t y) dy (additive measure), exact.

    With p^c(psi) t = A / p^b reduced, the integrand chi(y) e(-A y / p^b) is
    constant on residues mod p^depth, depth = max(c(chi), b, 1), so the
    integral is p^(-depth) C(psi)^(-1/2) times _unit_sum(chi, b, r), where
    r = A mod p^b gives the same angles as A.

    For the trivial character r is 1 (0 when b = 0).  A is then a unit mod
    p^b, and y -> A y permutes the units mod p^b, so the angles -A y / p^b
    form the same multiset for every A.  The kernel's sum is exact and does
    not depend on the order of its terms, so every A gets the A = 1 sum to
    the bit.  That sum is a Ramanujan sum, real, and is still taken term by
    term rather than by its closed form, over one unit of each pair {y, -y}
    at twice the cos of the pair's folded residue (_unit_sums).
    """
    p = chi.p
    shift = t * p**psi.c
    v = val_p(shift, p)
    b = -v if v is not None and v < 0 else 0
    if shift.denominator != p**b:
        raise ValueError(f"{t} is not a p-adic rational at p = {p}")
    r = 1 if chi.cond == 0 and b > 0 else shift.numerator % p**b
    depth = max(chi.cond, b, 1)
    return p ** (-depth) * psi.conductor_value ** (-0.5) * _unit_sum(chi, b, r)


def _unit_frame(p: int, cond: int, b: int, r: int) -> tuple[int, int, int, int]:
    """(depth, den, chi_unit, psi_step) of the sum of chi(y) e(-r y / p^b)
    over the units y mod p^depth, depth = max(cond, b, 1), for characters of
    conductor p^cond.

    The units are walked as y = (-1)^sign g^k, (sign, k) = divmod(j, order)
    for the walk index j (unit_generator, _unit_group), so a character of
    exponents (eps, a) has chi(y) = e(eps sign / 2 + a k / order(cond)) and
    needs no discrete log; both angles are integers over the common
    denominator den = (p - 1) p^max(cond - 1, b).  The term at j has the
    numerator k (a chi_unit mod den) + sign eps den / 2 - psi_step y
    (_unit_sums).  Raises RangeError when den p^depth reaches 2^63, beyond
    the int64 numerators.
    """
    depth = max(cond, b, 1)
    top = max(cond - 1, b)
    den, mod = (p - 1) * p**top, p**depth
    if den * mod >= 2**63:
        raise RangeError(
            f"unit integral at p = {p}, depth {depth} is beyond the int64 kernel "
            "(angle denominator times p^depth >= 2^63)"
        )
    return depth, den, den // _unit_group(p, cond)[1], r * (p - 1) * p ** (top - b) % den


def _unit_sums(p: int, cond: int, chars, b: int, r: int) -> list[complex]:
    """Sum of chi(y) e(-r y / p^b) over the units y mod p^depth,
    depth = max(cond, b, 1), for each character chi of conductor p^cond in
    chars, one kernel row each (_unit_frame).  The numerators are built one
    piece at a time, so a deep shell never holds all of them.

    A ramified row walks the units as (-1)^sign g^k.  None of its
    numerators leaves int64: each lies in (-den p^depth, den p^depth) at odd
    p, and at p = 2, where den p^depth <= 2^62, within
    1.25 den p^depth + den / 2 of 0.

    The trivial character's row (cond = 0) is real: the terms of y and -y
    are conjugate.  It takes one unit y of each pair, the units in
    [1, p^depth / 2) in natural order, and the pair's value
    2 cos(2 pi rho / den) at rho = min(res, den - res), res the residue of
    -psi_step y mod den (_root_sums with cos_weight 2), so the term of -y is
    the exact conjugate of the term of y and the row is the exactly
    rounded sum of the cos at every unit's pair residue, with imaginary
    part 0.0.  At p^depth = 2 the one unit is its own negative and counts
    once.  Its numerators lie in (-den p^depth / 2, 0], no powers are taken,
    and the row has the same terms for every unit r (_unit_integral).
    """
    depth, den, chi_unit, psi_step = _unit_frame(p, cond, b, r)
    if cond == 0:
        pairs = (p - 1) * p ** (depth - 1) // 2

        def units(rows: slice, cols: slice) -> np.ndarray:
            # the unit of index j: p - 1 of them in each run of p integers
            j = np.arange(cols.start, cols.stop, dtype=np.int64)
            y = j // (p - 1)
            y += j
            y += 1
            y *= -psi_step
            return np.broadcast_to(y, (rows.stop - rows.start, y.size))

        return _root_sums((len(chars), max(pairs, 1)), units, den, cos_weight=2 if pairs else 1)

    steps = np.array([chi.a for chi in chars], dtype=np.int64) * chi_unit % den
    flips = np.array([chi.eps for chi in chars], dtype=np.int64) * (den // 2)
    (signs, order), g, mod = _unit_group(p, depth)[:2], unit_generator(p), p**depth

    def block(rows: slice, cols: slice) -> np.ndarray:
        # one part per sign half the piece meets: a piece lies in one half,
        # or is the whole walk (at p = 2 order and _SUM_BLOCK are powers of
        # 2), so each part's exponents are as _unit_power_piece asks
        parts = []
        for sign in range(cols.start // order, (cols.stop - 1) // order + 1):
            lo, hi = max(cols.start, sign * order) - sign * order, min(cols.stop - sign * order, order)
            # chi(g^k) = e(step k / den), and chi(-y) = chi(y) e(eps / 2)
            nums = np.multiply.outer(steps[rows], np.arange(lo, hi, dtype=np.int64))
            nums += (2 * sign - 1) * psi_step * _unit_power_piece(g, mod, order, lo, hi - lo)
            if sign:
                nums += flips[rows, None]
            parts.append(nums)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    return _root_sums((steps.size, signs * order), block, den)


@lru_cache(maxsize=None)
def _unit_sum(chi: MultChar, b: int, r: int) -> complex:
    """_unit_sums of the one character chi."""
    return _unit_sums(chi.p, chi.cond, [chi], b, r)[0]


@lru_cache(maxsize=None)
def gauss_sum(chi: MultChar, psi: AddChar) -> complex:
    """G(chi, psi): unit-group integral of chi against the shifted additive
    character, supported at shift -c(psi) - c(chi); exact finite sum.

    Uses additive measure with vol(o) = C(psi)^(-1/2), so each residue class
    mod p^m has volume p^(-m) C(psi)^(-1/2).
    """
    if chi.cond == 0:
        raise ConductorError("Gauss sum needs a ramified character")
    return _unit_integral(chi, psi, Fraction(1, chi.p ** (psi.c + chi.cond)))


def g_normalized(chi: MultChar, psi: AddChar) -> complex:
    """g(chi, psi) = G * C(chi)^(1/2) C(psi)^(1/2); unit modulus."""
    return gauss_sum(chi, psi) * math.sqrt(chi.conductor_value * psi.conductor_value)


def check_gauss_domain(p: int, m: int) -> None:
    """Raise RangeError unless Gauss sums of conductor p^m are inside the
    int64 kernel, (p - 1) p^m * p^m < 2^63; the domain shrinks as m grows."""
    _unit_frame(p, m, m, 1)


# The most root-of-unity terms one Gauss-sum table may sum, at any prime
# (check_gauss_work).  The kernel sums about 1.9e7 terms a second on its
# direct path (p = 2, m = 16) and 6.5e7 on its residue-table path (p = 2,
# m = 15; 2-vCPU Xeon VM, Python 3.11), so a table at the budget takes at
# most about a minute; p = 2 up to m = 16, p = 7 up to m = 5 and p = 101
# up to m = 2 fit.
GAUSS_TABLE_MAX_TERMS = 10**9

# The most rows one `intertwine mu` table may have, at any place; the CLI
# counts the --n by --y grid before it builds a point.  A JSON table takes
# about 75 000-100 000 rows a second at an archimedean place and 41 000 at
# p = 101 (levels 3-102; 2-vCPU Xeon VM, Python 3.11) and holds about
# 1.3 KB a row at its peak, so a table at the budget takes 5-12 s and about
# 0.7 GB.
MU_TABLE_MAX_ROWS = 5 * 10**5


def check_gauss_work(p: int, m_max: int) -> None:
    """Raise RangeError when the Gauss sums of every primitive character of
    conductor p^m, m <= m_max, sum more than GAUSS_TABLE_MAX_TERMS root-of-
    unity terms: phi(p^m) terms for each of the phi(p^m) - phi(p^(m - 1))
    primitive characters of a conductor, at every prime (p - 2 at m = 1 and
    (p - 1)^2 p^(m - 2) above at odd p; none at m = 1, one at m = 2 and
    2^(m - 2) above at p = 2)."""
    phi = [1] + [(p - 1) * p ** (m - 1) for m in range(1, m_max + 1)]
    terms = sum((phi[m] - phi[m - 1]) * phi[m] for m in range(1, m_max + 1))
    if terms > GAUSS_TABLE_MAX_TERMS:
        raise RangeError(
            f"Gauss sums at p = {p} up to m = {m_max} take {terms:.3g} root-of-unity terms, "
            f"beyond the budget of {GAUSS_TABLE_MAX_TERMS:.0e}"
        )


def gauss_sums(p: int, m: int, psi: AddChar) -> dict[MultChar, complex]:
    """g_normalized(chi, psi) for every primitive character chi of conductor
    p^m, keyed in the order of MultChar.all_primitive, each equal to it bit
    for bit (none at p^m = 2).

    One _unit_sums call sums every character's row, and each row is scaled
    as gauss_sum and g_normalized scale it.  The domain is checked before
    the characters are enumerated.
    """
    _same_prime(p, psi.p)
    if m < 1:
        raise ConductorError("Gauss sum needs a ramified character")
    check_gauss_domain(p, m)
    chars = MultChar.all_primitive(p, m)
    raw = _unit_sums(p, m, chars, m, 1)
    # the grouping of _unit_integral, then of g_normalized
    scale = p ** (-m) * psi.conductor_value ** (-0.5)
    norm = math.sqrt(p**m * psi.conductor_value)
    return {chi: scale * g * norm for chi, g in zip(chars, raw)}


def unit_additive_integral(chi: MultChar, psi: AddChar, n: int) -> complex:
    """int over units of chi(y) psi(-p^n y) dy (additive measure), exact.

    Vanishes unless n = -c(psi) - c(chi); the value there is the Gauss sum.
    """
    return _unit_integral(chi, psi, Fraction(chi.p) ** n)


def _atom_hat(atom: Atom, psi: AddChar) -> tuple[float, complex, Atom]:
    """Fourier image of one canonical atom as (p^(-n), factor, image):

    [chi, n]   -> p^(-n) G(chi, psi) [chi^(-1), -n - c(psi) - c(chi)]
    [1, >= n]  -> p^(-n) C(psi)^(-1/2) [1, >= -n - c(psi)]

    A canonical shell atom is ramified, so its image is canonical too.
    """
    n = atom.n
    if isinstance(atom, TailAtom):
        return psi.p ** (-n), psi.conductor_value ** (-0.5), TailAtom(-n - psi.c)
    chi = atom.chi
    return psi.p ** (-n), gauss_sum(chi, psi), CharAtom(chi.inverse(), -n - psi.c - chi.cond)


def fourier_atom(f: SimpleFunction, psi: AddChar) -> SimpleFunction:
    """Atom-level Fourier transform, int f(u) psi(-u x) du: each atom goes
    to its image under _atom_hat, with coefficient coeff p^(-n) factor."""
    _same_prime(f.p, psi.p)
    out = []
    for (atom,), coeff in f.terms.items():
        scale, factor, image = _atom_hat(atom, psi)
        out.append((coeff * scale * factor, image))
    return SimpleFunction(f.p, out)


def fourier_bruteforce(f: SimpleFunction, psi: AddChar, x: Fraction) -> complex:
    """Pointwise transform by exact finite sums over residue shells.

    Splits the domain into shells p^k * units; on each shell the integrand is
    locally constant at an explicit depth, so the integral is a finite sum of
    roots of unity; the far tail where psi is trivial is a closed volume.
    """
    p = f.p
    x = Fraction(x)
    vx = val_p(x, p)

    def shell_integral(chi: MultChar, k: int) -> complex:
        # integral over p^k units of chi(unit part) psi(-u x) du
        return p ** (-k) * _unit_integral(chi, psi, Fraction(p) ** k * x)

    if x == 0:
        # plain integral of f; a ramified shell atom integrates to zero
        total = 0j
        for (atom,), coeff in f.terms.items():
            if isinstance(atom, TailAtom):
                total += coeff * p ** (-atom.n) * psi.conductor_value ** (-0.5)
        return total

    total = 0j
    for (atom,), coeff in f.terms.items():
        if isinstance(atom, CharAtom):
            total += coeff * shell_integral(atom.chi, atom.n)
        else:
            # active shells: psi nontrivial on the shell only while k < kstar
            kstar = -vx - psi.c
            for k in range(atom.n, max(atom.n, kstar)):
                total += coeff * shell_integral(MultChar.trivial(p), k)
            tail_start = max(atom.n, kstar)
            total += coeff * p ** (-tail_start) * psi.conductor_value ** (-0.5)
    return total


# ---------------------------------------------------------------------------
# two-variable tensors


class TensorSimpleFunction(_AtomSum):
    """Finite combination of pure tensors atomA (x) atomB on the plane,
    keyed by (atomA, atomB)."""

    __slots__ = ()
    ARITY = 2

    def evaluate(self, x: Fraction, y: Fraction) -> complex:
        return self._evaluate_split(_p_split(x, self.p), _p_split(y, self.p))

    def _evaluate_split(self, sx: tuple[int | None, int, int], sy: tuple[int | None, int, int]) -> complex:
        """evaluate at the point whose coordinates have the _p_split sx, sy."""
        total = 0j
        for (a, b), coeff in self.terms.items():
            fa = _atom_value(a, sx)
            if fa == 0:
                continue
            total += coeff * fa * _atom_value(b, sy)
        return total

    def fourier_hat(self, psi: AddChar) -> "TensorSimpleFunction":
        """Twisted plane transform hat(Phi)(x, y) = (full transform)(-y, x):
        atomA (x) atomB goes to hat(atomB) (x) hat(atomA)(-.)."""
        _same_prime(self.p, psi.p)
        out = []
        for (a, b), coeff in self.terms.items():
            scale_a, factor_a, image_a = _atom_hat(a, psi)
            scale_b, factor_b, image_b = _atom_hat(b, psi)
            ca = scale_a * factor_a
            if isinstance(image_a, CharAtom):  # hat(atomA)(-x) = chi(-1) hat(atomA)(x)
                ca *= image_a.chi.at_minus_one()
            # grouped as the per-slot transforms were, so every coefficient
            # keeps its bits
            out.append((coeff * (scale_b * factor_b) * ca, image_b, image_a))
        return TensorSimpleFunction(self.p, out)

    def inner(self, other: "TensorSimpleFunction", psi: AddChar) -> complex:
        """Plane inner product, exact closed orbit volumes per atom pair."""
        _same_prime(self.p, other.p, psi.p)
        total = 0j
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                ip = _atom_inner(a1, a2, self.p, psi) * _atom_inner(b1, b2, self.p, psi)
                if ip:
                    total += c1 * c2.conjugate() * ip
        return total

def _atom_inner(a: Atom, b: Atom, p: int, psi: AddChar) -> float:
    """Exact line inner product of two atoms (additive measure)."""
    unit_vol = (1 - 1 / p) * psi.conductor_value ** (-0.5)
    if isinstance(a, CharAtom) and isinstance(b, CharAtom):
        if a.n != b.n:
            return 0.0
        return p ** (-a.n) * unit_vol if a.chi == b.chi else 0.0
    if isinstance(a, CharAtom) or isinstance(b, CharAtom):
        # a ramified character integrates to zero over the units
        return 0.0
    return p ** (-max(a.n, b.n)) * psi.conductor_value ** (-0.5)


# ---------------------------------------------------------------------------
# local spectral data


@dataclass(frozen=True)
class FiniteParams:
    """Spectral point at a prime: induction parameter s, twist exponent
    mu, the two unit characters, and the additive character."""

    p: int
    s: complex
    mu: float
    xi: MultChar
    omega_xi_inv: MultChar
    psi: AddChar

    def __post_init__(self):
        if not (cmath.isfinite(self.s) and math.isfinite(self.mu)):
            raise ValueError(f"need finite s and mu, got s={self.s}, mu={self.mu}")
        _same_prime(self.p, self.xi.p, self.omega_xi_inv.p, self.psi.p)

    @property
    def conductor(self) -> int:
        """c = c(xi) + c(omega xi^-1), the level of the newest vector."""
        return self.xi.cond + self.omega_xi_inv.cond

    @property
    def twist_char(self) -> MultChar:
        """Unit part of the inducing twist: xi * (omega xi^-1)^(-1)."""
        return self.xi * self.omega_xi_inv.inverse()


def unramified_params(p: int, s: complex, mu: float = 0.0, psi_c: int = 0) -> FiniteParams:
    triv = MultChar.trivial(p)
    return FiniteParams(p, s, mu, triv, triv, AddChar(p, psi_c))


# ---------------------------------------------------------------------------
# classical vectors


def classical_vector(params: FiniteParams, n: int) -> TensorSimpleFunction:
    """Level-n vector of the plane model, one of four ramification shapes.

    Every vector has exact unit norm for the plane inner product, which the
    orthonormal-basis property requires; the two one-sided-ramified shapes
    at n > c need an extra (1 + 1/q)^(1/2) relative to the otherwise
    displayed constants, and that correction is what the norm oracle pins
    down.
    """
    c = params.conductor
    if n < c:
        raise RangeError(f"level {n} below conductor {c}")
    p = params.p
    m = n - c
    cpsi_half = math.sqrt(params.psi.conductor_value)
    xi_inv = params.xi.inverse()
    oxi = params.omega_xi_inv
    r1, r2 = params.xi.cond > 0, oxi.cond > 0
    one = MultChar.trivial(p)

    if r1 and r2:
        const = cpsi_half * math.sqrt(oxi.conductor_value) / (1 - 1 / p)
        if m > 0:
            const *= p ** (m / 2)
        return TensorSimpleFunction(
            p, [(const, CharAtom(xi_inv, oxi.cond + m), CharAtom(oxi, 0))]
        )
    if r1 and not r2:
        if m == 0:
            const = cpsi_half / math.sqrt(1 - 1 / p)
            return TensorSimpleFunction(p, [(const, CharAtom(xi_inv, 0), TailAtom(0))])
        # the displayed constant times the (1 + 1/q)^(1/2) correction
        const = p ** (m / 2) * cpsi_half / ((1 - 1 / p) * math.sqrt(1 + 1 / p)) * math.sqrt(1 + 1 / p)
        return TensorSimpleFunction(p, [(const, CharAtom(xi_inv, m), CharAtom(one, 0))])
    if r2 and not r1:
        if m == 0:
            const = cpsi_half * math.sqrt(oxi.conductor_value) / math.sqrt(1 - 1 / p)
            return TensorSimpleFunction(p, [(const, TailAtom(oxi.cond), CharAtom(oxi, 0))])
        const = (
            p ** (m / 2)
            * cpsi_half
            * math.sqrt(oxi.conductor_value)
            / ((1 - 1 / p) * math.sqrt(1 + 1 / p))
            * math.sqrt(1 + 1 / p)
        )
        return TensorSimpleFunction(
            p,
            [
                (const, TailAtom(oxi.cond + m), CharAtom(oxi, 0)),
                (-const / p, TailAtom(oxi.cond + m - 1), CharAtom(oxi, 0)),
            ],
        )
    # both unramified
    if n == 0:
        const = cpsi_half / math.sqrt(1 - p ** (-2))
        # indicator of the unit sphere of the plane: o x o minus p x p
        return TensorSimpleFunction(
            p, [(const, TailAtom(0), TailAtom(0)), (-const, TailAtom(1), TailAtom(1))]
        )
    if n == 1:
        const = cpsi_half * math.sqrt(p * (1 + 1 / p) / (1 - 1 / p))
        sphere = [(1.0, TailAtom(0), TailAtom(0)), (-1.0, TailAtom(1), TailAtom(1))]
        out = [(const, TailAtom(1), CharAtom(one, 0))]
        out += [(-const / (p + 1) * c0, a, b) for c0, a, b in sphere]
        return TensorSimpleFunction(p, out)
    const = p ** (n / 2) * cpsi_half / (1 - 1 / p)
    return TensorSimpleFunction(
        p,
        [
            (const, TailAtom(n), CharAtom(one, 0)),
            (-const / p, TailAtom(n - 1), CharAtom(one, 0)),
        ],
    )


def orbit_measures(params: FiniteParams, level: int) -> list[Fraction]:
    """Exact volumes of the congruence-orbit partition of the plane sphere.

    Orbits: units x integers; shells p^k units x units for 1 <= k < level;
    the closed core p^level x units.  Their total is the sphere volume
    (1 - q^-2) / C(psi).
    """
    if level < 1:
        raise RangeError("level must be >= 1")
    p = params.p
    cpsi = Fraction(params.psi.conductor_value)
    unit = (1 - Fraction(1, p)) / cpsi
    out = [Fraction(1, 1) * unit]  # units x integers: (1 - 1/q) * 1 / C
    for k in range(1, level):
        out.append((Fraction(1, p) ** k - Fraction(1, p) ** (k + 1)) * (1 - Fraction(1, p)) / cpsi)
    out.append(Fraction(1, p) ** level * (1 - Fraction(1, p)) / cpsi)
    return out


def level_membership(phi: TensorSimpleFunction, params: FiniteParams, level: int) -> bool:
    """Check the three congruence covariance conditions on exact sample points.

    (1) unit rescaling of each coordinate transforms by xi^-1 and omega xi^-1;
    (2) invariance under y -> y + t x for integral t;
    (3) invariance under x -> x + t y for t in p^level integers.
    Points and translations run over residue representatives at depth
    level + 2 plus the conductor margin; values agree to a relative 1e-10.
    """
    p = params.p
    depth = level + 2 + max(params.xi.cond, params.omega_xi_inv.cond)
    mod = p**depth
    g = unit_generator(p)
    units = [1, g % mod, pow(g, 7, mod)]
    # sample sphere points, all integers: one coordinate a unit, valuations
    # up to level + 1
    pts: list[tuple[int, int]] = []
    for vx in range(0, level + 2):
        for ux in units:
            pts.append((ux * p**vx, 1))
            pts.append((1, ux * p**vx))
    translations = [0, 1, g % mod, p, p * p, mod - 1]
    xi_inv, oxi = params.xi.inverse(), params.omega_xi_inv
    twists = [(u1, u2, xi_inv.value(u1) * oxi.value(u2)) for u1 in units for u2 in units]

    def close(a: complex, b: complex) -> bool:
        return abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    # the points share coordinates, so each is split once per call
    splits: dict[int, tuple[int | None, int, int]] = {}

    def value(x: int, y: int) -> complex:
        for c in (x, y):
            if c not in splits:
                splits[c] = _p_split(c, p)
        return phi._evaluate_split(splits[x], splits[y])

    for x, y in pts:
        base = value(x, y)
        for u1, u2, twist in twists:
            if not close(value(u1 * x, u2 * y), twist * base):
                return False
        for t in translations:
            if not close(value(x, y + t * x), base):
                return False
        for t in translations:
            if not close(value(x + (t * p**level) * y, y), base):
                return False
    return True


# ---------------------------------------------------------------------------
# eigenvalues


def _power(base: float, expo: complex) -> complex:
    return cmath.exp(-expo * math.log(base))


def _series_ratio(q: int, e: complex) -> complex:
    """(1 - q^-(1-e)) / (1 - q^-(1+e)), the unramified local L-factor ratio."""
    den = 1 - cmath.exp(-(1 + e) * math.log(q))
    if abs(den) < 1e-14:
        raise PoleError("denominator L-factor pole: 1 + 2s + i mu at a zero")
    num = 1 - cmath.exp(-(1 - e) * math.log(q))
    return num / den


def _ramification_shape(params: FiniteParams, n: int) -> tuple[int, bool, bool, bool]:
    """(base, r1, r2, series) of the closed form at level n >= c.

    r1 and r2 say whether xi and omega xi^-1 are ramified; base is the
    conductor power p^m C(psi) C(xi)^[r1] C(omega xi^-1)^[r2], m = n - c;
    series says whether the unramified L-factor ratio applies: both ramified
    with an unramified twist, or neither ramified at level n > 0.
    """
    c = params.conductor
    if n < c:
        raise RangeError(f"level {n} below conductor {c}")
    r1, r2 = params.xi.cond > 0, params.omega_xi_inv.cond > 0
    base = params.p ** (n - c) * params.psi.conductor_value
    if r1:
        base *= params.xi.conductor_value
    if r2:
        base *= params.omega_xi_inv.conductor_value
    if r1 and r2:
        series = params.twist_char.is_trivial()
    else:
        series = not (r1 or r2) and n > 0
    return base, r1, r2, series


def mu_finite(params: FiniteParams, n: int) -> complex:
    """Closed-form eigenvalue of the normalized intertwiner at level n >= c.

    Four ramification shapes; unit modulus on the axis.  The unramified-twist
    shapes carry the series ratio; the ramified shapes carry the Gauss-sum
    phases conj(g(xi, psi)) and g(omega xi^-1, psi) times the conductor
    power.  Phases follow the twist convention of the transform pipeline
    (hat(Phi)(x, y) = full transform at (-y, x)); the mu_finite_oracle tests
    pin them, and the one-sided shape scales by the conductor of whichever
    character is ramified.
    """
    base, r1, r2, series = _ramification_shape(params, n)
    e = 2 * params.s + 1j * params.mu
    val = _power(base, e)
    if r1 and r2:
        val = g_normalized(params.xi, params.psi).conjugate() * g_normalized(params.omega_xi_inv, params.psi) * val
    elif r1:
        val = g_normalized(params.xi, params.psi).conjugate() * val
    elif r2:
        val = g_normalized(params.omega_xi_inv, params.psi) * val
    if series:
        val *= _series_ratio(params.p, e)
    return val


def mu_finite_logderiv(params: FiniteParams, n: int) -> complex:
    """Exact (d/ds) log mu from termwise differentiation of the closed form."""
    base, _, _, series = _ramification_shape(params, n)
    logderiv = -2 * math.log(base) if base != 1 else 0.0
    if series:
        logderiv += _series_logderiv(params.p, 2 * params.s + 1j * params.mu)
    return logderiv


def mu_finite_derivative(params: FiniteParams, n: int) -> complex:
    """Exact d mu / ds = mu * (log mu)'."""
    return mu_finite(params, n) * mu_finite_logderiv(params, n)


def _series_logderiv(q: int, e: complex) -> complex:
    lq = math.log(q)
    u = cmath.exp(-(1 - e) * lq)
    v = cmath.exp(-(1 + e) * lq)
    return -2 * lq * u / (1 - u) - 2 * lq * v / (1 - v)


def mu_finite_derivative_bound(params: FiniteParams, n: int) -> float:
    """Displayed bound 2 (n log q + log C(psi) + [twist unramified] 2 log q / (1 - 1/q))."""
    q = params.p
    extra = 2 * math.log(q) / (1 - 1 / q) if params.twist_char.is_trivial() else 0.0
    return 2 * (n * math.log(q) + math.log(params.psi.conductor_value) + extra)


# ---------------------------------------------------------------------------
# the oracle: Tate integrals of atom tensors


def tate_integral_padic(
    phi: TensorSimpleFunction,
    eta: MultChar,
    mu: float,
    z: complex,
    row: tuple[Fraction, Fraction],
    psi: AddChar,
) -> complex:
    """int over F^x of phi(t x0, t y0) * twist(t) * |t|^z d*t, exact.

    The twist acts as eta on the unit part and as q^(-i mu k) on p^k; the
    multiplicative measure gives the unit group volume C(psi)^(-1/2).  Shell
    sums collapse by character orthogonality: each pure tensor contributes a
    pinned shell, a finite shell range, or a closed geometric tail, so the
    value is exact (no truncation).  The one-row case of _tate_integrals.
    """
    p = phi.p
    return _tate_integrals(phi, eta, mu, z, [(_p_split(row[0], p), _p_split(row[1], p))], psi)[0]


def _tate_integrals(
    phi: TensorSimpleFunction, eta: MultChar, mu: float, z: complex, splits, psi: AddChar
) -> list[complex]:
    """tate_integral_padic at each row (x0, y0), given as the pair of
    _p_splits of its coordinates: each value is the one its row gets alone,
    to the bit, and the first row that raises raises as it would alone.

    The row-independent work is done once: the plan is the terms of phi, in
    dict order, whose unit characters times eta are trivial (every other
    term vanishes by orthogonality at every row), and character values are
    memoized per (chi, unit part) within the call.
    """
    unit_vol = psi.conductor_value ** (-0.5)
    lq = math.log(phi.p)

    def k_factor(k: int) -> complex:
        return cmath.exp(-k * (z + 1j * mu) * lq)

    plan = []
    memos: dict[MultChar, dict[tuple[int, int], complex]] = {}
    for (a, b), coeff in phi.terms.items():
        prod = eta
        slots = []
        for atom in (a, b):
            if isinstance(atom, CharAtom):
                prod = prod * atom.chi
                slots.append((atom.n, atom.chi, memos.setdefault(atom.chi, {})))
            else:
                slots.append((atom.n, None, None))
        if prod.is_trivial():
            plan.append((coeff, slots))

    out = []
    for row in splits:
        total = 0j
        tail_terms: list[tuple[complex, int]] = []
        for coeff, slots in plan:
            # pin or bound the shell index from each slot
            pinned: int | None = None
            lower: int | None = None
            phase = 1.0 + 0j
            for (n, chi, memo), (v0, num, den) in zip(slots, row):
                if chi is None:
                    if v0 is not None:
                        lower = n - v0 if lower is None else max(lower, n - v0)
                    continue
                if v0 is None or pinned not in (None, n - v0):
                    break
                pinned = n - v0
                value = memo.get((num, den))
                if value is None:
                    value = memo[num, den] = chi._unit_value(num, den)
                phase *= value
            else:
                if pinned is not None:
                    if lower is None or pinned >= lower:
                        total += coeff * phase * unit_vol * k_factor(pinned)
                elif lower is None:
                    raise ValueError("unbounded support: not a section integrand")
                else:
                    tail_terms.append((coeff * phase * unit_vol, lower))
        if tail_terms:
            # sum of geometric tails sum_j c_j x^(L_j) / (1 - x); divergences
            # at x = 1 cancel exactly when the tails difference to a bounded set
            ratio = cmath.exp(-(z + 1j * mu) * lq)
            if abs(1 - ratio) > 1e-10:
                for c0, lower in tail_terms:
                    total += c0 * k_factor(lower) / (1 - ratio)
            else:
                head = sum(c0 for c0, _ in tail_terms)
                if abs(head) > 1e-12 * max(abs(c0) for c0, _ in tail_terms):
                    raise PoleError("geometric tail pole at this exponent")
                total += -sum(c0 * lower for c0, lower in tail_terms)
        out.append(total)
    return out


def mu_finite_oracle(params: FiniteParams, n: int, tol: float = 1e-10) -> complex:
    """Eigenvalue from the transform pipeline, independent of mu_finite.

    Builds the level-n vector, applies the exact twisted plane transform,
    evaluates the image and the target-side Tate integrals at sample bottom
    rows of the compact group, normalizes by the local L-factors, and checks
    sample-point independence.  One batched Tate call takes every row's
    denominator, and a second the numerators of the rows it keeps.
    """
    p = params.p
    phi = classical_vector(params, n)
    phi_swap = classical_vector(_swap_chars(params), n)
    phi_hat = phi.fourier_hat(params.psi)
    tau = params.twist_char
    e = 2 * params.s + 1j * params.mu
    if tau.is_trivial():
        l_ratio = _series_ratio(p, e)
    else:
        l_ratio = 1.0 + 0j

    tau_inv = tau.inverse()
    z_img = 1 - 2 * params.s
    # bottom rows of compact-group elements covering every valuation gap the
    # section can live on, with unit twists to expose any kappa dependence
    # of the ratio
    g = unit_generator(p)
    units = [1, g, (g * g) % p**3, p**3 - 1]
    rows = [(u * p**j, 1) for j in range(0, n + 3) for u in units]
    rows += [(u, p**j) for j in range(1, n + 3) for u in units]
    splits = [(_p_split(x, p), _p_split(y, p)) for x, y in rows]
    denoms = _tate_integrals(phi_swap, tau_inv, -params.mu, z_img, splits, params.psi)
    # a NaN denominator passes the guard, as it always has
    kept = [i for i, denom in enumerate(denoms) if not abs(denom) < 1e-12]
    numers = _tate_integrals(phi_hat, tau_inv, -params.mu, z_img, [splits[i] for i in kept], params.psi)
    ratios = [l_ratio * numer / denoms[i] for i, numer in zip(kept, numers)]
    return _consistent_ratio(ratios, tol, "row")


def _swap_chars(params: FiniteParams) -> FiniteParams:
    return FiniteParams(params.p, params.s, -params.mu, params.omega_xi_inv, params.xi, params.psi)


def iota_normalization(params: FiniteParams, phi: TensorSimpleFunction) -> complex:
    """The compact-model identification integral at exponent zero, at the row (0, 1).

    For a vector supported on the plane sphere this is vol(units) times the
    value at the row point, pinning vol(o^x, d*t) = C(psi)^(-1/2).
    """
    return tate_integral_padic(phi, params.twist_char, params.mu, 0.0, (Fraction(0), Fraction(1)), params.psi)
