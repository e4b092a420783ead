"""PiLaurent on reduced integer triples against the Fraction-pair scalar it replaced.

FractionPairLaurent below is the earlier PiLaurent, frozen: each coefficient
is a pair of Fractions.  The integer-triple scalar must give the same values,
the same term order (complex() and VarPoly.complex_terms sum in that order),
the same complex bits and the same repr, and equal scalars must have equal
terms and equal hashes.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intertwine.exact import PiLaurent

_FR0 = Fraction(0)


class FractionPairLaurent:
    """The earlier PiLaurent: {power of pi: (re, im)} with Fraction re, im."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, (re, im) in terms.items():
                if re or im:
                    clean[k] = (re, im)
        self.terms = clean

    @classmethod
    def rational(cls, re, im=0):
        return cls({0: (Fraction(re), Fraction(im))})

    def __neg__(self):
        return FractionPairLaurent({k: (-re, -im) for k, (re, im) in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, FractionPairLaurent):
            out = dict(self.terms)
            for k, (re, im) in other.terms.items():
                a, b = out.get(k, (_FR0, _FR0))
                out[k] = (a + re, b + im)
            return FractionPairLaurent(out)
        if isinstance(other, (int, Fraction)):
            return self + FractionPairLaurent.rational(other)
        return complex(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FractionPairLaurent):
            out = {}
            for k1, (a, b) in self.terms.items():
                for k2, (c, d) in other.terms.items():
                    k = k1 + k2
                    re, im = out.get(k, (_FR0, _FR0))
                    out[k] = (re + a * c - b * d, im + a * d + b * c)
            return FractionPairLaurent(out)
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return FractionPairLaurent({k: (re * f, im * f) for k, (re, im) in self.terms.items()})
        return complex(self) * other

    __rmul__ = __mul__

    def conjugate(self):
        return FractionPairLaurent({k: (re, -im) for k, (re, im) in self.terms.items()})

    def __complex__(self):
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


def _assert_same(x: PiLaurent, ref: FractionPairLaurent):
    """x is the reference scalar: same values, term order, bits, text and
    normal form; and it equals (with the same hash) the scalar built from
    the reference's pairs."""
    assert x.fraction_terms() == ref.terms
    assert list(x.terms) == list(ref.terms)
    for a, b, d in x.terms.values():
        assert type(a) is int and type(b) is int and type(d) is int
        assert d > 0 and (a or b) and math.gcd(a, b, d) == 1
    assert repr(complex(x)) == repr(complex(ref))  # repr tells -0.0 from 0.0
    assert repr(x) == repr(ref)
    built = PiLaurent(ref.terms)
    assert x == built and hash(x) == hash(built)


small_rational = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)
# few values, so sums and products often cancel a coefficient
cancelling = st.sampled_from([Fraction(-1), Fraction(-1, 2), _FR0, Fraction(1, 2), Fraction(1)])
powers = st.integers(min_value=-3, max_value=3)
pairs = st.one_of(
    st.dictionaries(powers, st.tuples(small_rational, small_rational), max_size=4),
    st.dictionaries(powers, st.tuples(cancelling, cancelling), max_size=4),
)
scalars_of_fraction = st.one_of(st.integers(min_value=-6, max_value=6), small_rational)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_construction_negation_and_conjugate_match_the_fraction_pairs(terms):
    x, ref = PiLaurent(terms), FractionPairLaurent(terms)
    _assert_same(x, ref)
    _assert_same(-x, -ref)
    _assert_same(x.conjugate(), ref.conjugate())


@settings(max_examples=150, deadline=None)
@given(pairs, pairs)
def test_sum_difference_and_product_match_the_fraction_pairs(t1, t2):
    x, y = PiLaurent(t1), PiLaurent(t2)
    rx, ry = FractionPairLaurent(t1), FractionPairLaurent(t2)
    _assert_same(x + y, rx + ry)
    _assert_same(x - y, rx - ry)
    _assert_same(x * y, rx * ry)
    _assert_same(y * x, ry * rx)
    assert (x == y) == (rx.terms == ry.terms)


@settings(max_examples=100, deadline=None)
@given(pairs, scalars_of_fraction)
def test_int_and_fraction_operands_match_the_fraction_pairs(terms, s):
    x, ref = PiLaurent(terms), FractionPairLaurent(terms)
    _assert_same(x * s, ref * s)
    _assert_same(s * x, s * ref)
    _assert_same(x + s, ref + s)
    _assert_same(s + x, s + ref)
    _assert_same(x - s, ref - s)
    _assert_same(s - x, s - ref)


@settings(max_examples=50, deadline=None)
@given(pairs, st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
def test_complex_operands_give_the_same_bits(terms, z):
    x, ref = PiLaurent(terms), FractionPairLaurent(terms)
    for got, want in ((x * z, ref * z), (z * x, z * ref), (x + z, ref + z), (x - z, ref - z)):
        assert repr(got) == repr(want)


def test_a_product_keeps_a_power_that_cancelled_midway_in_its_first_place():
    # pi^2 collects 1, then -1 (zero so far), then 2; pi^1 cancels for good.
    # The surviving powers keep their first-appearance order 0, 2, 3, 4.
    t1 = {0: (Fraction(1), _FR0), 1: (Fraction(1), _FR0), 2: (Fraction(2), _FR0)}
    t2 = {0: (Fraction(1), _FR0), 1: (Fraction(-1), _FR0), 2: (Fraction(1), _FR0)}
    got = PiLaurent(t1) * PiLaurent(t2)
    _assert_same(got, FractionPairLaurent(t1) * FractionPairLaurent(t2))
    assert list(got.terms) == [0, 2, 3, 4]
    assert got == PiLaurent({0: (1, 0), 2: (2, 0), 3: (-1, 0), 4: (2, 0)})


def test_a_sum_that_cancels_every_term_is_zero():
    x = PiLaurent({-1: (Fraction(1, 3), Fraction(-2, 5)), 2: (Fraction(7), _FR0)})
    assert (x - x).terms == {} and not (x - x)
    assert x - x == 0 and hash(x - x) == hash(0)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(min_value=-10**6, max_value=10**6), st.fractions(max_denominator=10**6)))
@example(0)
@example(3)
@example(Fraction(-7, 4))
def test_a_rational_scalar_hashes_as_its_rational(q):
    x = PiLaurent.rational(q)
    assert x == q
    assert hash(x) == hash(q)
    assert q in {x} and x in {q}
    assert x in {PiLaurent.rational(Fraction(q))}
