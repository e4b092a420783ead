"""Exact local theory at an odd prime: characters, Gauss sums, atoms,
classical vectors, and the finite-place intertwining eigenvalues.

Everything here is a finite exact computation.  Unit-group characters are
stored primitively (the recorded exponent lives at the conductor modulus) on
a single generator that works at every level; values are roots of unity
evaluated from exact rational angles.  Every Gauss-type sum (the Gauss sum,
the unit integral behind its support window, the shells of the brute-force
transform) is one unit integral that walks the units as powers of that
generator and hands integer angle numerators over a common denominator to a
single kernel, root_of_unity_sum.  The numerators are built as int64 arrays
and the kernel takes cos and sin of every angle in one numpy pass, summing
each component exactly rounded with math.fsum, so sums are exact up to a
rounding floor near 1e-15.  The int64 products bound the domain: a unit
integral whose denominator times p^depth reaches 2^63 raises RangeError.
Gauss sums are cached on (chi, psi), and unit integrals on (chi, psi, t),
since neighbouring brute-force points share shells.  Functions on the
multiplicative group are finite linear combinations of two kinds of atoms,

    [chi, n]   supported on p^n * units, value chi(unit part),
    [1, >= n]  the indicator of p^n * integers,

which the local Fourier transform permutes with Gauss-sum coefficients.
Measures are self-dual: additive vol(o) = C(psi)^(-1/2) and multiplicative
vol(o^x) = C(psi)^(-1/2); both normalizations are asserted by tests.

Radial (Tate) integrals of atom functions reduce to finite sums plus a
closed geometric tail, never a numerical truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConductorError, InconsistentRatio, PoleError, RangeError


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
    """Generator of the cyclic unit group mod p^m, valid for every m >= 1.

    A primitive root r mod p also generates mod p^2 unless r^(p-1) = 1 there,
    in which case r + p does; either choice then works for all higher m.
    """
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
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
def _dlog_table(p: int, m: int) -> dict[int, int]:
    g = unit_generator(p)
    mod = p**m
    phi = (p - 1) * p ** (m - 1)
    table = {}
    x = 1
    for k in range(phi):
        table[x] = k
        x = (x * g) % mod
    return table


def e_of(t: Fraction) -> complex:
    """exp(2 pi i t) from an exact rational angle."""
    t -= math.floor(t)
    return cmath.exp(2j * math.pi * float(t))


def root_of_unity_sum(numerators, den: int) -> complex:
    """Sum of e(k / den) over the integers k, each component exactly rounded.

    numerators is any int array-like whose values fit in int64, and
    0 < den < 2^53, so that (k mod den) / den is the float of the reduced
    fraction, the same value e_of takes from the exact rational.  The angles
    go through numpy cos and sin in one array pass, and math.fsum makes the
    total independent of the order of the terms.
    """
    if not 0 < den < 2**53:
        raise RangeError(f"root-of-unity denominator {den} is outside (0, 2^53)")
    try:
        k = np.asarray(numerators, dtype=np.int64)
    except OverflowError:
        raise RangeError("root-of-unity numerators must fit in int64") from None
    theta = np.remainder(k, den) / den
    theta *= 2 * math.pi
    return complex(_fsum(np.cos(theta)), _fsum(np.sin(theta, out=theta)))


_FSUM_CHUNK = 4096


def _fsum(values: np.ndarray) -> float:
    """math.fsum of a float array, fed in chunks so that no list of all of
    its values is built."""
    chunks = (values[i : i + _FSUM_CHUNK].tolist() for i in range(0, len(values), _FSUM_CHUNK))
    return math.fsum(chain.from_iterable(chunks))


@lru_cache(maxsize=None)
def _unit_powers(p: int, depth: int) -> np.ndarray:
    """The units mod p^depth as g^j mod p^depth, j = 0 .. phi(p^depth) - 1.

    Filled by doubling, out[n:2n] = out[:n] g^n mod p^depth, in uint64: the
    products stay below p^(2 depth), which is < 2^64 on the domain of
    _unit_integral.  Read-only, since every caller shares it.
    """
    g, mod = unit_generator(p), p**depth
    phi = (p - 1) * p ** (depth - 1)
    out = np.empty(phi, dtype=np.uint64)
    out[0] = 1
    n = 1
    while n < phi:
        step = min(n, phi - n)
        out[n : n + step] = out[:step] * np.uint64(pow(g, n, mod)) % np.uint64(mod)
        n += step
    out = out.astype(np.int64)
    out.flags.writeable = False
    return out


def val_p(x: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational (None for zero)."""
    if x == 0:
        return None
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_residue(x: Fraction, p: int, m: int) -> int:
    """Residue mod p^m of the unit part of x = p^v * u."""
    if x == 0:
        raise ValueError("zero has no unit part")
    num = x.numerator
    den = x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    mod = p**m
    return (num * pow(den, -1, mod)) % mod


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class MultChar:
    """Character of the unit group, stored primitively at its conductor.

    cond = 0 is the trivial character.  For cond >= 1 the exponent a defines
    chi(g^k) = exp(2 pi i a k / phi(p^cond)) on the fixed generator g.
    """

    p: int
    cond: int
    a: int = 0

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.cond < 0:
            raise ValueError("conductor exponent must be >= 0")
        if self.cond == 0:
            if self.a != 0:
                raise ValueError("trivial character must have exponent 0")
        else:
            phi = (self.p - 1) * self.p ** (self.cond - 1)
            if not (0 < self.a < phi):
                raise ValueError("exponent must be reduced and nonzero")
            if self.cond >= 2 and self.a % self.p == 0:
                raise ValueError(f"exponent {self.a} is imprimitive at conductor {self.cond}")

    @classmethod
    def trivial(cls, p: int) -> "MultChar":
        return cls(p, 0, 0)

    @classmethod
    def from_exponent(cls, p: int, m: int, a: int) -> "MultChar":
        """Character mod p^m with given exponent, reduced to its conductor."""
        if m == 0:
            return cls.trivial(p)
        phi = (p - 1) * p ** (m - 1)
        a %= phi
        if a == 0:
            return cls.trivial(p)
        drop = 0
        while drop < m - 1 and a % p == 0:
            a //= p
            drop += 1
        return cls(p, m - drop, a)

    @classmethod
    def all_primitive(cls, p: int, m: int) -> list["MultChar"]:
        """All characters of conductor exactly m."""
        if m == 0:
            return [cls.trivial(p)]
        phi = (p - 1) * p ** (m - 1)
        out = []
        for a in range(1, phi):
            if m >= 2 and a % p == 0:
                continue
            out.append(cls(p, m, a))
        return out

    @property
    def modulus(self) -> int:
        return self.p**self.cond

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
        if isinstance(u, Fraction):
            res = unit_residue(u, self.p, self.cond)
        else:
            res = int(u) % self.modulus
        if res % self.p == 0:
            raise ValueError(f"{u} is not a unit mod {self.modulus}")
        phi = (self.p - 1) * self.p ** (self.cond - 1)
        k = _dlog_table(self.p, self.cond)[res]
        return Fraction(self.a * k, phi)

    def value(self, u) -> complex:
        if self.cond == 0:
            return 1.0 + 0j
        return e_of(self.angle(u))

    def at_minus_one(self) -> float:
        """chi(-1) = (-1)^a; -1 is the half-order point of the cyclic group."""
        if self.cond == 0:
            return 1.0
        return -1.0 if self.a % 2 else 1.0

    def inverse(self) -> "MultChar":
        if self.cond == 0:
            return self
        phi = (self.p - 1) * self.p ** (self.cond - 1)
        return MultChar(self.p, self.cond, (-self.a) % phi)

    def __mul__(self, other: "MultChar") -> "MultChar":
        if self.p != other.p:
            raise ValueError("characters at different primes")
        m = max(self.cond, other.cond)
        if m == 0:
            return MultChar.trivial(self.p)

        def lift(chi: "MultChar") -> int:
            if chi.cond == 0:
                return 0
            return chi.a * chi.p ** (m - chi.cond)

        return MultChar.from_exponent(self.p, m, lift(self) + lift(other))


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
        den = t.denominator
        # inputs must be p-adic rationals: denominator a power of p
        d = den
        while d % self.p == 0:
            d //= self.p
        if d != 1:
            raise ValueError(f"{x} is not a p-adic rational at p = {self.p}")
        return Fraction(t.numerator % den, den)


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


def _atom_value(atom: Atom, x: Fraction, v: int | None) -> complex:
    """Value of an atom at x, where v = val_p(x) (None for x = 0)."""
    if isinstance(atom, TailAtom):
        return 1.0 if v is None or v >= atom.n else 0.0
    return atom.chi.value(x) if v == atom.n else 0.0


class SimpleFunction:
    """Finite complex combination of atoms on the multiplicative group."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        merged: dict[Atom, complex] = {}
        if terms:
            for coeff, atom in terms:
                if coeff == 0:
                    continue
                for w, canon in _canon_atom(atom):
                    merged[canon] = merged.get(canon, 0j) + w * complex(coeff)
        self.terms = {a: c for a, c in merged.items() if c != 0}

    def items(self):
        return self.terms.items()

    def scale(self, s: complex) -> "SimpleFunction":
        return SimpleFunction(self.p, [(c * s, a) for a, c in self.terms.items()])

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        return SimpleFunction(
            self.p,
            [(c, a) for a, c in self.terms.items()] + [(c, a) for a, c in other.terms.items()],
        )

    def evaluate(self, x: Fraction) -> complex:
        x = Fraction(x)
        v = val_p(x, self.p)
        total = 0j
        for atom, coeff in self.terms.items():
            total += coeff * _atom_value(atom, x, v)
        return total

    def negate_argument(self) -> "SimpleFunction":
        """The function x -> f(-x)."""
        out = []
        for atom, coeff in self.terms.items():
            if isinstance(atom, CharAtom):
                out.append((coeff * atom.chi.at_minus_one(), atom))
            else:
                out.append((coeff, atom))
        return SimpleFunction(self.p, out)

    def __repr__(self):
        return f"SimpleFunction(p={self.p}, {self.terms!r})"


@lru_cache(maxsize=None)
def _unit_integral(chi: MultChar, psi: AddChar, t: Fraction) -> complex:
    """int over units of chi(y) psi(-t y) dy (additive measure), exact.

    With p^c(psi) t = A / p^b reduced, the integrand is constant on residues
    mod p^depth, depth = max(c(chi), b, 1).  The units there are walked as
    powers y = g^j of the fixed generator, so chi(y) = e(a j / phi(p^c(chi)))
    needs no discrete log, and psi(-t y) = e(-A y / p^b); both angles are
    integers over the common denominator (p - 1) p^max(c(chi) - 1, b).
    """
    p = chi.p
    shift = t * p**psi.c
    v = val_p(shift, p)
    b = -v if v is not None and v < 0 else 0
    if shift.denominator != p**b:
        raise ValueError(f"{t} is not a p-adic rational at p = {p}")
    depth = max(chi.cond, b, 1)
    top = max(chi.cond - 1, b)
    den, mod = (p - 1) * p**top, p**depth
    if den * mod >= 2**63:
        raise RangeError(
            f"unit integral at p = {p}, depth {depth} is beyond the int64 kernel "
            "(angle denominator times p^depth >= 2^63)"
        )
    chi_step = chi.a * p ** (top - chi.cond + 1) % den
    psi_step = shift.numerator * (p - 1) * p ** (top - b) % den
    # both terms lie in [0, den * mod), so k never leaves int64
    k = np.arange((p - 1) * p ** (depth - 1), dtype=np.int64)
    k *= chi_step
    k -= psi_step * _unit_powers(p, depth)
    return p ** (-depth) * psi.conductor_value ** (-0.5) * root_of_unity_sum(k, den)


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


def unit_additive_integral(chi: MultChar, psi: AddChar, n: int) -> complex:
    """int over units of chi(y) psi(-p^n y) dy (additive measure), exact.

    Vanishes unless n = -c(psi) - c(chi); the value there is the Gauss sum.
    """
    return _unit_integral(chi, psi, Fraction(chi.p) ** n)


def fourier_atom(f: SimpleFunction, psi: AddChar) -> SimpleFunction:
    """Atom-level Fourier transform, int f(u) psi(-u x) du.

    [chi, n]   -> p^(-n) G(chi, psi) [chi^(-1), -n - c(psi) - c(chi)]
    [1, >= n]  -> p^(-n) C(psi)^(-1/2) [1, >= -n - c(psi)]

    A trivial-character shell atom is first rewritten as a difference of two
    tail atoms.
    """
    p = f.p
    out = []
    for atom, coeff in f.terms.items():
        if isinstance(atom, TailAtom):
            n = atom.n
            out.append((coeff * p ** (-n) * psi.conductor_value ** (-0.5), TailAtom(-n - psi.c)))
        elif atom.chi.cond == 0:
            for n, sgn in ((atom.n, 1.0), (atom.n + 1, -1.0)):
                out.append(
                    (sgn * coeff * p ** (-n) * psi.conductor_value ** (-0.5), TailAtom(-n - psi.c))
                )
        else:
            n, chi = atom.n, atom.chi
            out.append(
                (
                    coeff * p ** (-n) * gauss_sum(chi, psi),
                    CharAtom(chi.inverse(), -n - psi.c - chi.cond),
                )
            )
    return SimpleFunction(p, out)


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
        # plain integral of f
        total = 0j
        for atom, coeff in f.terms.items():
            if isinstance(atom, TailAtom):
                total += coeff * p ** (-atom.n) * psi.conductor_value ** (-0.5)
            elif atom.chi.cond == 0:
                total += coeff * p ** (-atom.n) * (1 - Fraction(1, p)) * psi.conductor_value ** (-0.5)
        return total

    total = 0j
    for atom, coeff in f.terms.items():
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


class TensorSimpleFunction:
    """Finite combination of pure tensors atomA (x) atomB on the plane."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        merged: dict[tuple[Atom, Atom], complex] = {}
        if terms:
            for coeff, a, b in terms:
                if coeff == 0:
                    continue
                for wa, ca in _canon_atom(a):
                    for wb, cb in _canon_atom(b):
                        key = (ca, cb)
                        merged[key] = merged.get(key, 0j) + wa * wb * complex(coeff)
        self.terms = {k: c for k, c in merged.items() if c != 0}

    def items(self):
        return self.terms.items()

    def scale(self, s: complex) -> "TensorSimpleFunction":
        return TensorSimpleFunction(self.p, [(c * s, a, b) for (a, b), c in self.terms.items()])

    def __add__(self, other: "TensorSimpleFunction") -> "TensorSimpleFunction":
        items = [(c, a, b) for (a, b), c in self.terms.items()]
        items += [(c, a, b) for (a, b), c in other.terms.items()]
        return TensorSimpleFunction(self.p, items)

    def evaluate(self, x: Fraction, y: Fraction) -> complex:
        x, y = Fraction(x), Fraction(y)
        vx, vy = val_p(x, self.p), val_p(y, self.p)
        total = 0j
        for (a, b), coeff in self.terms.items():
            fa = _atom_value(a, x, vx)
            if fa == 0:
                continue
            total += coeff * fa * _atom_value(b, y, vy)
        return total

    def fourier_hat(self, psi: AddChar) -> "TensorSimpleFunction":
        """Twisted plane transform hat(Phi)(x, y) = (full transform)(-y, x)."""
        out = []
        for (a, b), coeff in self.terms.items():
            fa = fourier_atom(SimpleFunction(self.p, [(1.0, a)]), psi).negate_argument()
            fb = fourier_atom(SimpleFunction(self.p, [(1.0, b)]), psi)
            for a2, c2 in fb.terms.items():
                for b2, c3 in fa.terms.items():
                    out.append((coeff * c2 * c3, a2, b2))
        return TensorSimpleFunction(self.p, out)

    def inner(self, other: "TensorSimpleFunction", psi: AddChar) -> complex:
        """Plane inner product, exact closed orbit volumes per atom pair."""
        total = 0j
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                ip = _atom_inner(a1, a2, self.p, psi) * _atom_inner(b1, b2, self.p, psi)
                if ip:
                    total += c1 * c2.conjugate() * ip
        return total

    def __repr__(self):
        return f"TensorSimpleFunction(p={self.p}, {self.terms!r})"


def _atom_inner(a: Atom, b: Atom, p: int, psi: AddChar) -> float:
    """Exact line inner product of two atoms (additive measure)."""
    unit_vol = (1 - 1 / p) * psi.conductor_value ** (-0.5)
    if isinstance(a, CharAtom) and isinstance(b, CharAtom):
        if a.n != b.n:
            return 0.0
        return p ** (-a.n) * unit_vol if a.chi == b.chi else 0.0
    if isinstance(a, CharAtom) and isinstance(b, TailAtom):
        if a.n < b.n or a.chi.cond:
            return 0.0
        return p ** (-a.n) * unit_vol
    if isinstance(a, TailAtom) and isinstance(b, CharAtom):
        return _atom_inner(b, a, p, psi)
    return p ** (-max(a.n, b.n)) * psi.conductor_value ** (-0.5)


# ---------------------------------------------------------------------------
# local spectral data


@dataclass(frozen=True)
class FiniteParams:
    """Spectral point at an odd prime: induction parameter s, twist exponent
    mu, the two unit characters, and the additive character."""

    p: int
    s: complex
    mu: float
    xi: MultChar
    omega_xi_inv: MultChar
    psi: AddChar

    def __post_init__(self):
        if not (self.p == self.xi.p == self.omega_xi_inv.p == self.psi.p):
            raise ValueError("mismatched primes")

    @property
    def conductor(self) -> int:
        """c = c(xi) + c(omega xi^-1), the level of the newest vector."""
        return self.xi.cond + self.omega_xi_inv.cond

    @property
    def twist_char(self) -> MultChar:
        """Unit part of the inducing twist: xi * (omega xi^-1)^(-1)."""
        return self.xi * self.omega_xi_inv.inverse()

    def swapped(self) -> "FiniteParams":
        """Data of the image representation: characters exchanged, s and mu flipped."""
        return FiniteParams(self.p, -self.s, -self.mu, self.omega_xi_inv, self.xi, self.psi)


def unramified_params(p: int, s: complex, mu: float = 0.0, psi_c: int = 0) -> FiniteParams:
    triv = MultChar.trivial(p)
    return FiniteParams(p, s, mu, triv, triv, AddChar(p, psi_c))


def dim_ktype_finite(params: FiniteParams, n: int) -> int:
    """Dimension of the level-n new part: (q^n - q^(n-2) [n>=2]) [n >= c]."""
    if n < 0:
        raise RangeError("level must be >= 0")
    q = params.p
    if n < params.conductor:
        return 0
    return q**n - (q ** (n - 2) if n >= 2 else 0)


# ---------------------------------------------------------------------------
# classical vectors


def classical_vector(params: FiniteParams, n: int, normalized: bool = True) -> TensorSimpleFunction:
    """Level-n vector of the plane model, one of four ramification shapes.

    With normalized=True (default) every vector has exact unit norm for the
    plane inner product, which the orthonormal-basis property requires; the
    two one-sided-ramified shapes at n > c need an extra (1 + 1/q)^(1/2)
    relative to the otherwise displayed constants, and that correction is
    what the norm oracle pins down.  normalized=False returns the
    uncorrected variant.
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
    fix = math.sqrt(1 + 1 / p) if normalized else 1.0

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
        const = p ** (m / 2) * cpsi_half / ((1 - 1 / p) * math.sqrt(1 + 1 / p)) * fix
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
            * fix
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


def level_membership(
    phi: TensorSimpleFunction,
    params: FiniteParams,
    level: int,
    samples: int = 3,
    tol: float = 1e-10,
) -> bool:
    """Check the three congruence covariance conditions on exact sample points.

    (1) unit rescaling of each coordinate transforms by xi^-1 and omega xi^-1;
    (2) invariance under y -> y + t x for integral t;
    (3) invariance under x -> x + t y for t in p^level integers.
    Points and translations run over residue representatives at depth
    level + 2 plus the conductor margin.
    """
    p = params.p
    depth = level + 2 + max(params.xi.cond, params.omega_xi_inv.cond)
    mod = p**depth
    g = unit_generator(p)
    units = [1, g % mod, pow(g, 7, mod), mod - 1]
    # sample sphere points: one coordinate a unit, valuations up to level + 1
    pts: list[tuple[Fraction, Fraction]] = []
    for vx in range(0, level + 2):
        for ux in units[:samples]:
            pts.append((Fraction(ux * p**vx), Fraction(1)))
            pts.append((Fraction(1), Fraction(ux * p**vx)))
    translations = [0, 1, g % mod, p, p * p, mod - 1]

    def close(a: complex, b: complex) -> bool:
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    for x, y in pts:
        base = phi.evaluate(x, y)
        for u1 in units[:samples]:
            for u2 in units[:samples]:
                lhs = phi.evaluate(u1 * x, u2 * y)
                rhs = params.xi.inverse().value(u1) * params.omega_xi_inv.value(u2) * base
                if not close(lhs, rhs):
                    return False
        for t in translations:
            if not close(phi.evaluate(x, y + t * x), base):
                return False
        for t in translations:
            if not close(phi.evaluate(x + (t * p**level) * y, y), base):
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
    c = params.conductor
    if n < c:
        raise RangeError(f"level {n} below conductor {c}")
    p = params.p
    m = n - c
    e = 2 * params.s + 1j * params.mu
    cpsi = params.psi.conductor_value
    r1, r2 = params.xi.cond > 0, params.omega_xi_inv.cond > 0
    tau = params.twist_char

    if r1 and r2:
        val = (
            g_normalized(params.xi, params.psi).conjugate()
            * g_normalized(params.omega_xi_inv, params.psi)
            * _power(p**m * cpsi * params.xi.conductor_value * params.omega_xi_inv.conductor_value, e)
        )
        if tau.is_trivial():
            val *= _series_ratio(p, e)
        return val
    if r1 and not r2:
        return g_normalized(params.xi, params.psi).conjugate() * _power(
            p**m * cpsi * params.xi.conductor_value, e
        )
    if r2 and not r1:
        return g_normalized(params.omega_xi_inv, params.psi) * _power(
            p**m * cpsi * params.omega_xi_inv.conductor_value, e
        )
    if n == 0:
        return _power(cpsi, e)
    return _series_ratio(p, e) * _power(p**n * cpsi, e)


def mu_finite_derivative(params: FiniteParams, n: int) -> complex:
    """Exact d mu / ds from termwise differentiation of the closed form."""
    p = params.p
    e = 2 * params.s + 1j * params.mu
    c = params.conductor
    m = n - c
    cpsi = params.psi.conductor_value
    r1, r2 = params.xi.cond > 0, params.omega_xi_inv.cond > 0
    tau = params.twist_char
    if r1 and r2:
        base = p**m * cpsi * params.xi.conductor_value * params.omega_xi_inv.conductor_value
        logderiv = -2 * math.log(base)
        if tau.is_trivial():
            logderiv += _series_logderiv(p, e)
    elif r1 and not r2:
        logderiv = -2 * math.log(p**m * cpsi * params.xi.conductor_value)
    elif r2 and not r1:
        logderiv = -2 * math.log(p**m * cpsi * params.omega_xi_inv.conductor_value)
    elif n == 0:
        logderiv = -2 * math.log(cpsi) if cpsi != 1 else 0.0
    else:
        logderiv = -2 * math.log(p**n * cpsi) + _series_logderiv(p, e)
    return mu_finite(params, n) * logderiv


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


def mu_finite_bound_check(params: FiniteParams, n: int) -> bool:
    if abs(params.s.real) > 1e-14:
        raise ValueError("bound is stated on the unitary axis")
    return abs(mu_finite_derivative(params, n)) <= mu_finite_derivative_bound(params, n) + 1e-9


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
    value is exact (no truncation).
    """
    p = phi.p
    x0, y0 = Fraction(row[0]), Fraction(row[1])
    vx, vy = val_p(x0, p), val_p(y0, p)
    unit_vol = psi.conductor_value ** (-0.5)
    lq = math.log(p)

    def k_factor(k: int) -> complex:
        return cmath.exp(-k * (z + 1j * mu) * lq)

    total = 0j
    tail_terms: list[tuple[complex, int]] = []
    for (a, b), coeff in phi.terms.items():
        # pin or bound the shell index from each slot
        pinned: int | None = None
        lower: int | None = None
        ok = True
        for atom, v0 in ((a, vx), (b, vy)):
            if isinstance(atom, CharAtom):
                if v0 is None:
                    ok = False
                    break
                k = atom.n - v0
                if pinned is not None and pinned != k:
                    ok = False
                    break
                pinned = k
            else:
                if v0 is not None:
                    kmin = atom.n - v0
                    lower = kmin if lower is None else max(lower, kmin)
        if not ok:
            continue
        # combined unit character: chi_a chi_b eta must be trivial to survive
        prod = eta
        phase = 1.0 + 0j
        if isinstance(a, CharAtom) and a.chi.cond:
            prod = prod * a.chi
            phase *= a.chi.value(x0)
        if isinstance(b, CharAtom) and b.chi.cond:
            prod = prod * b.chi
            phase *= b.chi.value(y0)
        if not prod.is_trivial():
            continue
        if pinned is not None:
            if lower is not None and pinned < lower:
                continue
            total += coeff * phase * unit_vol * k_factor(pinned)
        else:
            if lower is None:
                raise ValueError("unbounded support: not a section integrand")
            tail_terms.append((coeff * phase * unit_vol, lower))
    if tail_terms:
        # sum of geometric tails sum_j c_j x^(L_j) / (1 - x); divergences at
        # x = 1 cancel exactly when the tails difference to a bounded set
        ratio = cmath.exp(-(z + 1j * mu) * lq)
        if abs(1 - ratio) > 1e-10:
            for c0, lower in tail_terms:
                total += c0 * k_factor(lower) / (1 - ratio)
        else:
            head = sum(c0 for c0, _ in tail_terms)
            if abs(head) > 1e-12 * max(abs(c0) for c0, _ in tail_terms):
                raise PoleError("geometric tail pole at this exponent")
            total += -sum(c0 * lower for c0, lower in tail_terms)
    return total


def mu_finite_oracle(
    params: FiniteParams,
    n: int,
    rows=None,
    tol: float = 1e-10,
) -> complex:
    """Eigenvalue from the transform pipeline, independent of mu_finite.

    Builds the level-n vector, applies the exact twisted plane transform,
    evaluates the image and the target-side Tate integrals at sample bottom
    rows of the compact group, normalizes by the local L-factors, and checks
    sample-point independence.
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
    if rows is None:
        # bottom rows of compact-group elements covering every valuation gap
        # the section can live on, with unit twists to expose any kappa
        # dependence of the ratio
        g = unit_generator(p)
        units = [1, g, (g * g) % p**3, p**3 - 1]
        rows = []
        for j in range(0, n + 3):
            for u in units:
                rows.append((Fraction(u * p**j), Fraction(1)))
        for j in range(1, n + 3):
            for u in units:
                rows.append((Fraction(u), Fraction(p**j)))
    ratios = []
    for row in rows:
        denom = tate_integral_padic(phi_swap, tau_inv, -params.mu, z_img, row, params.psi)
        if abs(denom) < 1e-12:
            continue
        numer = tate_integral_padic(phi_hat, tau_inv, -params.mu, z_img, row, params.psi)
        ratios.append(l_ratio * numer / denom)
    if len(ratios) < 2:
        raise InconsistentRatio("not enough usable sample rows")
    center = ratios[0]
    scale = max(1.0, abs(center))
    for r in ratios[1:]:
        if abs(r - center) > tol * scale:
            raise InconsistentRatio(f"sample-row dependence {abs(r - center):.3e} exceeds {tol:.1e}")
    return sum(ratios) / len(ratios)


def _swap_chars(params: FiniteParams) -> FiniteParams:
    return FiniteParams(params.p, params.s, -params.mu, params.omega_xi_inv, params.xi, params.psi)


def iota_normalization(params: FiniteParams, phi: TensorSimpleFunction, row=(Fraction(0), Fraction(1))) -> complex:
    """The compact-model identification integral at exponent zero.

    For a vector supported on the plane sphere this is vol(units) times the
    value at the row point, pinning vol(o^x, d*t) = C(psi)^(-1/2).
    """
    return tate_integral_padic(phi, params.twist_char, params.mu, 0.0, row, params.psi)
