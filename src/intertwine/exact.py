"""Exact coefficient arithmetic for the symbolic Fourier calculus.

Scalars live in the ring of finite Laurent combinations

    sum_k (a_k + i b_k) * pi**k,   a_k, b_k rational,

which is closed under every operation the symbolic transforms perform:
the 2 pi i factors of the Fourier interchange rules, the binomial
coefficients of the harmonics, and the Gaussian ladder all stay inside it.
Identities asserted "exactly" in the tests are coefficient equalities here,
with no floating point involved.  Mixing a PiLaurent with a float or complex
degrades the computation to complex arithmetic, which is what the numeric
evaluation paths want anyway.
"""

from __future__ import annotations

import math
from fractions import Fraction

_FR0 = Fraction(0)


class PiLaurent:
    """Element of Q(i)[pi, 1/pi], stored as {power of pi: (re, im)}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, tuple[Fraction, Fraction]] | None = None):
        clean: dict[int, tuple[Fraction, Fraction]] = {}
        if terms:
            for k, (re, im) in terms.items():
                if re or im:
                    clean[k] = (re, im)
        self.terms = clean

    @classmethod
    def rational(cls, re, im=0) -> "PiLaurent":
        return cls({0: (Fraction(re), Fraction(im))})

    @classmethod
    def pi_power(cls, k: int, re=1, im=0) -> "PiLaurent":
        return cls({k: (Fraction(re), Fraction(im))})

    @classmethod
    def i_power(cls, n: int) -> "PiLaurent":
        re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]
        return cls.rational(re, im)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "PiLaurent":
        return PiLaurent({k: (-re, -im) for k, (re, im) in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, PiLaurent):
            out = dict(self.terms)
            for k, (re, im) in other.terms.items():
                a, b = out.get(k, (_FR0, _FR0))
                out[k] = (a + re, b + im)
            return PiLaurent(out)
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
            out: dict[int, tuple[Fraction, Fraction]] = {}
            for k1, (a, b) in self.terms.items():
                for k2, (c, d) in other.terms.items():
                    k = k1 + k2
                    re, im = out.get(k, (_FR0, _FR0))
                    out[k] = (re + a * c - b * d, im + a * d + b * c)
            return PiLaurent(out)
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return PiLaurent({k: (re * f, im * f) for k, (re, im) in self.terms.items()})
        return complex(self) * other

    __rmul__ = __mul__

    def conjugate(self) -> "PiLaurent":
        return PiLaurent({k: (re, -im) for k, (re, im) in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, PiLaurent):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == PiLaurent.rational(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __complex__(self) -> complex:
        # complex(float(re), float(im)) has the bits of complex(re + im * 1j)
        # without the Fraction arithmetic
        total = 0j
        for k, (re, im) in self.terms.items():
            total += complex(float(re), float(im)) * math.pi**k
        return total

    def __repr__(self):
        if not self.terms:
            return "PiLaurent(0)"
        bits = []
        for k in sorted(self.terms):
            re, im = self.terms[k]
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
