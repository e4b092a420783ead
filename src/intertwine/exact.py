"""Exact coefficient arithmetic for the symbolic Fourier calculus.

Scalars live in the ring of finite Laurent combinations

    sum_k (a_k + i b_k) / d_k * pi**k,   a_k, b_k, d_k integers,

which is closed under every operation the symbolic transforms perform:
the 2 pi i factors of the Fourier interchange rules, the binomial
coefficients of the harmonics, and the Gaussian ladder all stay inside it.
Each coefficient is stored as one reduced triple of Python ints (a, b, d)
with gcd(a, b, d) = 1 and d > 0, a normal form that is unique, so an
operation is integer arithmetic followed by one gcd and equal scalars have
equal term dicts.  Identities asserted "exactly" in the tests are
coefficient equalities here, with no floating point involved.  Mixing a
PiLaurent with a float or complex degrades the computation to complex
arithmetic, which is what the numeric evaluation paths want anyway.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _reduced(a: int, b: int, d: int) -> tuple[int, int, int]:
    """(a, b, d) over gcd(a, b, d), for d > 0 and (a, b) != (0, 0)."""
    g = math.gcd(a, b, d)
    if g == 1:
        return a, b, d
    return a // g, b // g, d // g


def _num_den(x) -> tuple[int, int]:
    """Numerator and denominator of an int, a Fraction or anything Fraction accepts."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _triple(re, im) -> tuple[int, int, int]:
    """The normal form of re + i im, for rationals re, im not both zero."""
    a, da = _num_den(re)
    b, db = _num_den(im)
    if da == db:
        return _reduced(a, b, da)
    return _reduced(a * db, b * da, da * db)


class PiLaurent:
    """Element of Q(i)[pi, 1/pi], stored as {power of pi: (a, b, d)}.

    The triple (a, b, d) is the coefficient (a + i b) / d in normal form:
    gcd(a, b, d) = 1, d > 0, and (a, b) != (0, 0), since zero coefficients
    are dropped.  Every operation keeps the term order a sum or product of
    dicts of (re, im) pairs would give, because conversion to complex sums
    the terms in that order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        """From {power of pi: (re, im)} with re, im ints or Fractions."""
        clean: dict[int, tuple[int, int, int]] = {}
        if terms:
            for k, (re, im) in terms.items():
                if re or im:
                    clean[k] = _triple(re, im)
        self.terms = clean

    @classmethod
    def _of(cls, terms: dict[int, tuple[int, int, int]]) -> "PiLaurent":
        """A scalar on terms already in normal form, taken as they are."""
        new = object.__new__(cls)
        new.terms = terms
        return new

    @classmethod
    def _ratio(cls, a: int, b: int, d: int) -> "PiLaurent":
        """The rational scalar (a + i b) / d, for ints with d > 0."""
        return cls._of({0: _reduced(a, b, d)} if a or b else {})

    @classmethod
    def rational(cls, re, im=0) -> "PiLaurent":
        return cls({0: (re, im)})

    @classmethod
    def pi_power(cls, k: int, re=1, im=0) -> "PiLaurent":
        return cls({k: (re, im)})

    @classmethod
    def i_power(cls, n: int) -> "PiLaurent":
        re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]
        return cls.rational(re, im)

    def fraction_terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        """The coefficients as {power of pi: (re, im)} Fractions, in term order."""
        return {k: (Fraction(a, d), Fraction(b, d)) for k, (a, b, d) in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "PiLaurent":
        return PiLaurent._of({k: (-a, -b, d) for k, (a, b, d) in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, PiLaurent):
            out = dict(self.terms)
            for k, (a2, b2, d2) in other.terms.items():
                got = out.get(k)
                if got is None:
                    out[k] = (a2, b2, d2)
                    continue
                a1, b1, d1 = got
                if d1 == d2:
                    a, b, d = a1 + a2, b1 + b2, d1
                else:
                    a, b, d = a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2
                # each key of other comes once, so deleting a zero sum here
                # leaves the order that dropping it at the end would
                if a or b:
                    out[k] = _reduced(a, b, d)
                else:
                    del out[k]
            return PiLaurent._of(out)
        if isinstance(other, (int, Fraction)):
            return self + PiLaurent.rational(other)
        return complex(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PiLaurent):
            st, ot = self.terms, other.terms
            if len(st) == 1 and len(ot) == 1:
                ((k1, (a1, b1, d1)),) = st.items()
                ((k2, (a2, b2, d2)),) = ot.items()
                return PiLaurent._of({k1 + k2: _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)})
            # accumulate unreduced in first-appearance order, then reduce and
            # drop the zero sums
            out: dict[int, tuple[int, int, int]] = {}
            for k1, (a1, b1, d1) in st.items():
                for k2, (a2, b2, d2) in ot.items():
                    k = k1 + k2
                    a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
                    got = out.get(k)
                    if got is not None:
                        sa, sb, sd = got
                        if sd == d:
                            a, b = sa + a, sb + b
                        else:
                            a, b, d = sa * d + a * sd, sb * d + b * sd, sd * d
                    out[k] = (a, b, d)
            return PiLaurent._of({k: _reduced(a, b, d) for k, (a, b, d) in out.items() if a or b})
        if isinstance(other, int):
            if not other:
                return PiLaurent._of({})
            out = {}
            for k, (a, b, d) in self.terms.items():
                # gcd(a n, b n, d) = gcd(n, d), since gcd(gcd(a, b), d) = 1
                g = math.gcd(other, d)
                out[k] = (a * other // g, b * other // g, d // g)
            return PiLaurent._of(out)
        if isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
            if not n:
                return PiLaurent._of({})
            return PiLaurent._of({k: _reduced(a * n, b * n, d * m) for k, (a, b, d) in self.terms.items()})
        return complex(self) * other

    __rmul__ = __mul__

    def conjugate(self) -> "PiLaurent":
        return PiLaurent._of({k: (a, -b, d) for k, (a, b, d) in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, PiLaurent):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == PiLaurent.rational(other).terms
        return NotImplemented

    def __hash__(self):
        # a rational scalar equals its int or Fraction, so it hashes as one
        if self.terms.keys() <= {0}:
            a, b, d = self.terms.get(0, (0, 0, 1))
            if not b:
                return hash(Fraction(a, d))
        return hash(frozenset(self.terms.items()))

    def __complex__(self) -> complex:
        # a / d is correctly rounded, as float(Fraction(a, d)) is, so this has
        # the bits of complex(re + im * 1j) without the Fraction arithmetic
        total = 0j
        for k, (a, b, d) in self.terms.items():
            total += complex(a / d, b / d) * math.pi**k
        return total

    def __repr__(self):
        if not self.terms:
            return "PiLaurent(0)"
        bits = []
        for k, (re, im) in sorted(self.fraction_terms().items()):
            bits.append(f"({re}+{im}i)*pi^{k}")
        return "PiLaurent(" + " + ".join(bits) + ")"


ONE = PiLaurent.rational(1)


def scalar_is_zero(x) -> bool:
    if isinstance(x, PiLaurent):
        return x.is_zero()
    return x == 0


class VarPoly:
    """Polynomial in a fixed tuple of formal variables.

    Keys are exponent tuples, values are PiLaurent or complex scalars.  The
    conjugate variables of the Schwartz classes are separate formal slots;
    evaluation expects the caller to pass conjugate values where appropriate.
    A polynomial is never changed after construction, so complex_terms()
    converts the coefficients once, on first use.
    """

    __slots__ = ("nvars", "terms", "_complex_terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for key, c in terms.items():
                if not scalar_is_zero(c):
                    clean[key] = c
        self.terms = clean
        self._complex_terms = None

    def complex_terms(self) -> tuple:
        """The (exponents, complex coefficient) pairs, built once."""
        if self._complex_terms is None:
            self._complex_terms = tuple((key, complex(c)) for key, c in self.terms.items())
        return self._complex_terms

    @classmethod
    def monomial(cls, nvars: int, expts: tuple, coeff=ONE) -> "VarPoly":
        return cls(nvars, {tuple(expts): coeff})

    @classmethod
    def zero(cls, nvars: int) -> "VarPoly":
        return cls(nvars, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "VarPoly") -> "VarPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                out[key] = out[key] + c
            else:
                out[key] = c
        return VarPoly(self.nvars, out)

    def __sub__(self, other: "VarPoly") -> "VarPoly":
        return self + VarPoly(other.nvars, {key: -c for key, c in other.terms.items()})

    def scale(self, s) -> "VarPoly":
        if isinstance(s, int):
            s = PiLaurent.rational(s)
        return VarPoly(self.nvars, {key: s * c for key, c in self.terms.items()})

    def mul_monomial(self, expts: tuple, coeff=ONE) -> "VarPoly":
        out = {}
        for key, c in self.terms.items():
            nk = tuple(a + b for a, b in zip(key, expts))
            out[nk] = coeff * c
        return VarPoly(self.nvars, out)

    def __mul__(self, other: "VarPoly") -> "VarPoly":
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return VarPoly(self.nvars, out)

    def deriv(self, i: int) -> "VarPoly":
        out = {}
        for key, c in self.terms.items():
            if key[i] == 0:
                continue
            nk = list(key)
            nk[i] -= 1
            nkey = tuple(nk)
            term = c * key[i]
            if nkey in out:
                out[nkey] = out[nkey] + term
            else:
                out[nkey] = term
        return VarPoly(self.nvars, out)

    def substitute(self, images: list["VarPoly"]) -> "VarPoly":
        """Substitute variable i by the polynomial images[i]."""
        assert len(images) == self.nvars
        nv = images[0].nvars
        pow_cache: dict[tuple[int, int], VarPoly] = {}

        def power(i, e):
            if e == 0:
                return VarPoly.monomial(nv, (0,) * nv)
            got = pow_cache.get((i, e))
            if got is None:
                got = power(i, e - 1) * images[i]
                pow_cache[(i, e)] = got
            return got

        total = VarPoly.zero(nv)
        for key, c in self.terms.items():
            part = VarPoly.monomial(nv, (0,) * nv, c)
            for i, e in enumerate(key):
                if e:
                    part = part * power(i, e)
            total = total + part
        return total

    def evaluate(self, values) -> complex:
        total = 0j
        for key, c in self.complex_terms():
            prod = c
            for v, e in zip(values, key):
                if e:
                    prod *= v**e
            total += prod
        return total

    def max_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VarPoly):
            return NotImplemented
        # nonzero coefficients of one type are equal only as equal dicts
        return self.terms == other.terms or (
            any(type(c) is not type(other.terms.get(key)) for key, c in self.terms.items())
            and (self - other).is_zero()
        )

    def __repr__(self):
        return f"VarPoly({self.nvars}, {self.terms!r})"


def fraction_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None
