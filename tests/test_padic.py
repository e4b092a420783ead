import cmath
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import padic
from intertwine.errors import ConductorError, InconsistentRatio, PoleError, RangeError
from intertwine.padic import (
    _LIMB_BITS,
    _LIMBS,
    _SUM_BLOCK,
    _ExactSum,
    _dlog_table,
    _unit_integral,
    _unit_powers,
    _unit_sum,
    AddChar,
    CharAtom,
    FiniteParams,
    MultChar,
    SimpleFunction,
    TailAtom,
    TensorSimpleFunction,
    classical_vector,
    e_of,
    fourier_atom,
    fourier_bruteforce,
    check_gauss_domain,
    g_normalized,
    gauss_sum,
    gauss_sums,
    iota_normalization,
    level_membership,
    mu_finite,
    mu_finite_derivative,
    mu_finite_derivative_bound,
    mu_finite_logderiv,
    mu_finite_oracle,
    orbit_measures,
    root_of_unity_sum,
    tate_integral_padic,
    unit_additive_integral,
    unit_generator,
    unramified_params,
    val_p,
)

PSI0 = AddChar(5, 0)


def params_for(p: int, shape: str, s=0.25, mu=0.3, psi_c=0) -> FiniteParams:
    tr = MultChar.trivial(p)
    chi1 = MultChar(p, 1, 1)
    chi1b = MultChar(p, 1, 2) if p > 3 else chi1
    chi2 = MultChar(p, 2, 1)
    psi = AddChar(p, psi_c)
    shapes = {
        "both": (chi1, chi1b),
        "both-trivial-twist": (chi1, chi1),
        "first": (chi1, tr),
        "second": (tr, chi2),
        "none": (tr, tr),
    }
    xi, oxi = shapes[shape]
    return FiniteParams(p, s, mu, xi, oxi, psi)


ALL_SHAPES = ("both", "both-trivial-twist", "first", "second", "none")


# ---------------------------------------------------------------------------
# characters


def test_unit_generator_generates():
    for p in (3, 5, 7, 11):
        g = unit_generator(p)
        for m in (1, 2, 3):
            mod = p**m
            seen = set()
            x = 1
            for _ in range((p - 1) * p ** (m - 1)):
                seen.add(x)
                x = x * g % mod
            assert len(seen) == (p - 1) * p ** (m - 1)


def test_char_conductor_reduction():
    # a mod-125 exponent divisible by 5 drops to conductor 2, twice to 1
    chi = MultChar.from_exponent(5, 3, 5)
    assert chi.cond == 2
    chi = MultChar.from_exponent(5, 3, 25)
    assert chi.cond == 1
    assert MultChar.from_exponent(5, 3, 0).is_trivial()
    with pytest.raises(ValueError):
        MultChar(5, 2, 5)  # imprimitive exponent


def test_char_group_operations():
    chi = MultChar(5, 2, 3)
    inv = chi.inverse()
    assert (chi * inv).is_trivial()
    assert abs(chi.value(7) * inv.value(7) - 1) < 1e-15
    # multiplicativity
    assert abs(chi.value(7 * 11) - chi.value(7) * chi.value(11)) < 1e-14
    # quadratic character knows its parity
    quad = MultChar(5, 1, 2)
    assert quad.at_minus_one() == 1.0
    assert MultChar(3, 1, 1).at_minus_one() == -1.0
    # twist conductor can drop when the two characters agree
    prm = params_for(5, "both-trivial-twist")
    assert prm.twist_char.is_trivial()
    assert not params_for(5, "both").twist_char.is_trivial()


def test_odd_prime_characters_keep_their_key():
    # the caches key on characters: eps defaults to 0 and leaves equality
    # and hash of an odd-p character as they were
    assert MultChar(5, 2, 3) == MultChar(5, 2, 3, 0) and hash(MultChar(5, 2, 3)) == hash((5, 2, 3))
    with pytest.raises(ValueError):
        MultChar(5, 1, 1, 1)


# the characters mod 2^m, m <= 5: chi4 at 2^2, eps in {0, 1} and odd a above
CHARS_AT_TWO = [chi for m in range(6) for chi in MultChar.all_primitive(2, m)]


def test_chars_at_two():
    assert MultChar.all_primitive(2, 1) == []
    assert MultChar.all_primitive(2, 2) == [MultChar(2, 2, 0, 1)]
    for m in range(3, 9):
        got = [(chi.eps, chi.a) for chi in MultChar.all_primitive(2, m)]
        assert got == [(eps, a) for eps in (0, 1) for a in range(1, 2 ** (m - 2), 2)]
    for bad in ((2, 1, 0, 0), (2, 1, 0, 1), (2, 2, 0, 0), (2, 2, 1, 1), (2, 3, 0, 1), (2, 4, 2, 0), (2, 3, 1, 2)):
        with pytest.raises(ValueError):
            MultChar(*bad)
    chi4 = MultChar(2, 2, 0, 1)
    for u, sign in ((1, 1), (3, -1), (5, 1), (7, -1), (-1, -1)):
        assert abs(chi4.value(u) - sign) < 1e-15
    # reduction to the conductor: 5 -> e(2 / 4) is 5 -> e(1 / 2) mod 8
    assert MultChar.from_exponent(2, 4, 2, 1) == MultChar(2, 3, 1, 1)
    assert MultChar.from_exponent(2, 5, 0, 1) == chi4
    assert MultChar.from_exponent(2, 5, 8, 2).is_trivial()


def test_char_group_at_two():
    # every unit mod 2^7 against every character mod 2^m, m <= 5: values are
    # the exact angles, multiplicative in the unit and in the character
    units = range(1, 2**7, 2)
    for chi in CHARS_AT_TWO:
        assert chi.at_minus_one() == chi.value(-1).real
        assert (chi * chi.inverse()).is_trivial()
        for u in units:
            assert chi.value(u) == e_of(chi.angle(u)) == chi.value(Fraction(u * 8))
            assert abs(chi.value(u * 3) - chi.value(u) * chi.value(3)) < 1e-14
        for other in CHARS_AT_TWO:
            prod = chi * other
            for u in (3, 5, 7, 45, 127):
                assert abs(prod.value(u) - chi.value(u) * other.value(u)) < 1e-14


@st.composite
def ramified_chars(draw):
    """A ramified character of conductor <= 3 at p in {3, 5, 7, 11}."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    cond = draw(st.integers(1, 3))
    phi = (p - 1) * p ** (cond - 1)
    a = draw(st.integers(1, phi - 1).filter(lambda a: cond == 1 or a % p))
    return MultChar(p, cond, a)


# nonzero signed numerators of p-adic rationals num * p^k
NUMERATORS = st.integers(-(10**9), 10**9).filter(bool)


@settings(max_examples=200, deadline=None)
@given(ramified_chars(), NUMERATORS, st.integers(-4, 4))
def test_char_value_is_e_of_exact_angle(chi, num, k):
    p = chi.p
    x = Fraction(num) * Fraction(p) ** k
    assert chi.value(x) == e_of(chi.angle(x))
    if num % p:
        assert chi.value(num) == e_of(chi.angle(num))
        assert chi.value(num) == chi.value(Fraction(num))
    # one atom at the valuation of x takes chi of its unit part
    v = val_p(x, p)
    assert SimpleFunction(p, [(1.0, CharAtom(chi, v))]).evaluate(x) == e_of(chi.angle(x))


@settings(max_examples=200, deadline=None)
@given(ramified_chars(), st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9), st.integers(0, 3))
def test_evaluate_same_for_int_and_fraction(chi, n, m, k):
    p = chi.p
    n *= p**k
    line = SimpleFunction(
        p,
        [(1.5 - 0.5j, CharAtom(chi, k)), (2.0, TailAtom(-1)), (1j, CharAtom(chi.inverse(), 0)), (0.25, TailAtom(k + 1))],
    )
    plane = TensorSimpleFunction(
        p,
        [
            (1.0 + 2j, CharAtom(chi, k), TailAtom(0)),
            (-0.5, TailAtom(k), CharAtom(chi.inverse(), 0)),
            (3.0, CharAtom(chi, 0), CharAtom(chi, 0)),
            (0.75j, TailAtom(0), TailAtom(1)),
        ],
    )
    assert line.evaluate(n) == line.evaluate(Fraction(n))
    assert plane.evaluate(n, m) == plane.evaluate(Fraction(n), Fraction(m))
    assert plane.evaluate(m, n) == plane.evaluate(Fraction(m), Fraction(n))


def test_char_value_rejects_non_units():
    chi = MultChar(5, 2, 3)
    for u in (0, 5, -10, 125):
        with pytest.raises(ValueError):
            chi.value(u)
        with pytest.raises(ValueError):
            chi.angle(u)
    with pytest.raises(ValueError):
        chi.value(Fraction(0))
    # a Fraction carries its unit part past any power of p
    assert chi.value(Fraction(5 * 7, 25)) == chi.value(7)


def test_addchar_values():
    psi = AddChar(5, 1)
    assert abs(psi.value(Fraction(1, 5)) - 1) < 1e-15  # trivial on p^(-c)
    assert abs(psi.value(Fraction(1, 25)) - complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))) < 1e-15
    with pytest.raises(ValueError):
        psi.value(Fraction(1, 3))


def test_valuation():
    assert val_p(Fraction(50), 5) == 2
    assert val_p(Fraction(3, 25), 5) == -2
    assert val_p(Fraction(0), 5) is None


# ---------------------------------------------------------------------------
# Gauss sums


def test_gauss_modulus_normalization():
    psi = AddChar(5, 0)
    chi = MultChar(5, 1, 2)
    assert abs(abs(gauss_sum(chi, psi)) - 5**-0.5) < 1e-14
    psi1 = AddChar(5, 1)
    assert abs(abs(gauss_sum(chi, psi1)) - 5**-0.5 * 5**-0.5) < 1e-14
    # the quadratic sum at 5 is real and normalizes to 1
    assert abs(g_normalized(chi, psi) - 1.0) < 1e-13


def test_gauss_requires_ramified():
    with pytest.raises(ConductorError):
        gauss_sum(MultChar.trivial(5), PSI0)


def test_gauss_conjugation_all_characters():
    for p in (3, 5, 7):
        psi = AddChar(p, 0)
        for m in (1, 2, 3):
            for chi in MultChar.all_primitive(p, m):
                g = g_normalized(chi, psi)
                assert abs(abs(g) - 1) < 1e-12
                assert abs(g_normalized(chi.inverse(), psi) - chi.at_minus_one() * g.conjugate()) < 1e-12


def test_gauss_support_window():
    chi = MultChar(5, 2, 3)
    psi = AddChar(5, 1)
    for n in range(-6, 1):
        val = unit_additive_integral(chi, psi, n)
        if n == -3:
            assert abs(val) > 1e-3
        else:
            assert abs(val) < 1e-14


@lru_cache(maxsize=None)
def _chi_classes(chi: MultChar) -> np.ndarray:
    """chi(y) at index y mod p^c(chi), through the discrete-log table once
    per unit class; non-units hold 0."""
    mod = chi.p**chi.cond
    out = np.zeros(mod, dtype=complex)
    for y in range(1, mod) if chi.cond else (1,):
        if y % chi.p:
            out[y % mod] = chi.value(y)
    return out


@lru_cache(maxsize=None)
def _psi_classes(psi: AddChar, n: int) -> np.ndarray:
    """psi(-p^n y) from exact rational angles at index y mod p^max(0, -(n + c(psi))),
    the modulus on which it depends."""
    p = psi.p
    shift = -Fraction(p) ** n
    return np.array([psi.value(shift * y) for y in range(p ** max(0, -(n + psi.c)))])


def _unit_integral_reference(chi: MultChar, psi: AddChar, n: int, depth: int) -> complex:
    """int over units of chi(y) psi(-p^n y) dy, term by term over every unit
    mod p^depth from the character values rather than from one angle per term."""
    p = chi.p
    y = np.arange(1, p**depth)
    y = y[y % p != 0]
    chi_vals, psi_vals = _chi_classes(chi), _psi_classes(psi, n)
    terms = chi_vals[y % chi_vals.size] * psi_vals[y % psi_vals.size]
    total = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return p ** (-depth) * psi.conductor_value ** (-0.5) * total


def test_gauss_sum_matches_termwise_reference():
    for p in (3, 5, 7):
        for psi_c in (0, 1, 2):
            psi = AddChar(p, psi_c)
            for m in (1, 2, 3):
                for chi in MultChar.all_primitive(p, m):
                    ref = _unit_integral_reference(chi, psi, -psi_c - m, m)
                    assert abs(gauss_sum(chi, psi) - ref) < 1e-15


def test_unit_integral_window_matches_termwise_reference():
    for p in (3, 5, 7):
        for psi_c in (0, 1, 2):
            psi = AddChar(p, psi_c)
            for chi in (MultChar.trivial(p), MultChar(p, 1, 1), MultChar(p, 2, p + 1)):
                for n in range(-6, 1):
                    depth = max(chi.cond, -(n + psi_c), 1)
                    ref = _unit_integral_reference(chi, psi, n, depth)
                    assert abs(unit_additive_integral(chi, psi, n) - ref) < 1e-15


def _root_of_unity_sum_reference(numerators, den: int) -> complex:
    """One cmath.exp per term, both parts summed by math.fsum."""
    terms = [cmath.exp(2j * math.pi * ((k % den) / den)) for k in numerators]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


ROOT_SUM_CASES = [
    ([-7, -1, 0, 3, 12, 25, -30], 12),  # negative numerators and numerators >= den
    ([4 * k - pow(5, k, 64) for k in range(16)], 64),  # a plain list, as the p = 2 table passes
    (np.random.default_rng(3).integers(-(10**12), 10**12, size=20000), 2 * 3**10),
    (np.arange(-5000, 5000), 10**6 + 3),
]


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_trivial_character_sum_is_the_same_for_every_unit():
    # y -> A y permutes the units mod p^b, so the exact sum of e(-A y / p^b)
    # must not move by a bit; the p = 7, b = 5 case takes a spread sample of
    # units, since all 14 406 of them cost ~20 s
    for p in (3, 5, 7):
        one = MultChar.trivial(p)
        for b in range(1, 6):
            ref = _bits(_unit_sum(one, b, 1))
            stride = 41 if p**b > 5000 else 1
            for unit in range(1, p**b, stride):
                if unit % p:
                    assert _bits(_unit_sum.__wrapped__(one, b, unit)) == ref, (p, b, unit)


def _unit_integral_direct(chi: MultChar, psi: AddChar, t: Fraction) -> complex:
    """_unit_integral from the unreduced numerator A of p^c(psi) t = A / p^b,
    as one full-length numerator array and no shared sums."""
    p = chi.p
    shift = t * p**psi.c
    v = val_p(shift, p)
    b = -v if v is not None and v < 0 else 0
    depth = max(chi.cond, b, 1)
    top = max(chi.cond - 1, b)
    den = (p - 1) * p**top
    chi_step = chi.a * p ** (top - chi.cond + 1) % den
    psi_step = shift.numerator * (p - 1) * p ** (top - b) % den
    k = np.arange((p - 1) * p ** (depth - 1), dtype=np.int64)
    k *= chi_step
    k -= psi_step * _unit_powers(unit_generator(p), p**depth, (p - 1) * p ** (depth - 1))
    return p ** (-depth) * psi.conductor_value ** (-0.5) * root_of_unity_sum(k, den)


def test_unit_integral_matches_direct_formula_bit_for_bit():
    for p in (3, 5):
        chars = [MultChar.trivial(p)]
        for m in (1, 2, 3):
            prim = MultChar.all_primitive(p, m)
            chars += dict.fromkeys([prim[0], prim[1 % len(prim)], prim[-1]])
        for psi_c in (0, 1, 2):
            psi = AddChar(p, psi_c)
            for chi in chars:
                for n in range(-6, 1):
                    for u in (1, 2, p + 2, -1):
                        t = Fraction(u) * Fraction(p) ** n
                        assert _bits(_unit_integral(chi, psi, t)) == _bits(_unit_integral_direct(chi, psi, t))
    # rows past three _SUM_BLOCKs (the 100 842 units mod 7^6): every piece
    # after the first is g^c0 times the head table, the reference reads one
    # full table
    psi = AddChar(7, 0)
    assert 6 * 7**5 > 3 * _SUM_BLOCK
    for chi in (MultChar.trivial(7), MultChar.all_primitive(7, 1)[1]):
        for u in (1, 3, -1):
            t = Fraction(u, 7**6)
            assert _bits(_unit_integral(chi, psi, t)) == _bits(_unit_integral_direct(chi, psi, t))


@pytest.mark.parametrize("p, b", [(7, 7), (2, 10)])
def test_trivial_unit_sum_is_the_sum_over_enumerated_units(p, b):
    # every step of the trivial character is 0, so its numerators are
    # -psi_step y alone: 22 pieces at p = 7, the last one shorter, and both
    # sign halves of the +-5^k walk at p = 2
    depth, den, _, psi_step = padic._unit_frame(p, 0, b, 1)
    units = np.arange(p**depth, dtype=np.int64)
    units = units[units % p != 0]
    (total,) = padic._unit_sums(p, 0, [MultChar.trivial(p)], b, 1)
    assert _bits(total) == _bits(_fsum_of_numpy_terms(-psi_step * units, den))


def test_unit_sums_keep_their_bits_in_smaller_pieces(monkeypatch):
    # pieces of 4 columns: every later piece of powers is g^c0 times the
    # head table, at odd p and for the +-5^k walk mod 2^m, which full-size
    # pieces reach only past 2^15 units (gauss_sums(2, m) from m = 18)
    def sums():
        return (
            padic._unit_sums(7, 1, [MultChar(7, 1, 1), MultChar(7, 1, 4)], 3, 5),
            padic._unit_sums(5, 2, [MultChar(5, 2, a) for a in (1, 2, 7)], 2, 1),
            list(gauss_sums(2, 7, AddChar(2, 0)).values()),
            list(gauss_sums(2, 3, AddChar(2, 0)).values()),
        )

    full = sums()
    monkeypatch.setattr(padic, "_SUM_BLOCK", 4)
    for whole, pieced in zip(full, sums()):
        assert [_bits(v) for v in whole] == [_bits(v) for v in pieced]


def test_deep_unit_sum_holds_one_piece_of_powers(monkeypatch):
    # the trivial shell mod 3^13: 1 062 882 units, whose whole table of
    # powers would take 8.5 MB; the walk asks only for the head table
    sizes = []
    raw = padic._unit_powers

    def recorded(g, mod, order):
        sizes.append(order)
        return raw(g, mod, order)

    monkeypatch.setattr(padic, "_unit_powers", recorded)
    raw.cache_clear()
    tracemalloc.start()
    try:
        (total,) = padic._unit_sums(3, 0, [MultChar.trivial(3)], 13, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= _SUM_BLOCK
    # a few pieces of int64 numerators and float64 terms, not the row
    assert peak < 16 * 8 * _SUM_BLOCK
    # the Ramanujan sum c_(3^13)(1) is 0
    assert abs(total) < 1e-9


def test_bruteforce_sums_each_trivial_shell_once(monkeypatch):
    # the suite's transform check: units 1, 2 and p + 2 at each valuation
    # have the same trivial-character shells, so each depth is summed once
    calls = Counter()
    raw = _unit_sum.__wrapped__

    def counted(chi, b, r):
        if chi.cond == 0:
            calls[chi.p, b] += 1
        return raw(chi, b, r)

    monkeypatch.setattr(padic, "_unit_sum", lru_cache(maxsize=None)(counted))
    for p in (3, 5, 7):
        chi, one = MultChar(p, 1, 1), MultChar.trivial(p)
        f = SimpleFunction(p, [(1.5 - 0.5j, CharAtom(chi, 1)), (2.0, TailAtom(-1)), (1j, CharAtom(one, 0))])
        points = [Fraction(u) * Fraction(p) ** v for v in range(-6, 7) for u in (1, 2, p + 2)] + [Fraction(0)]
        for psi_c in (0, 1):
            for x in points:
                fourier_bruteforce(f, AddChar(p, psi_c), x)
    assert max(b for _, b in calls) == 7
    assert set(calls.values()) == {1}


def test_root_of_unity_sum_matches_termwise_reference():
    for nums, den in ROOT_SUM_CASES:
        ref = _root_of_unity_sum_reference([int(k) for k in nums], den)
        assert abs(root_of_unity_sum(nums, den) - ref) < 1e-15


def _fsum_of_numpy_terms(row, den: int) -> complex:
    """math.fsum of numpy's cos and sin of one row's angles, formed as the
    kernel forms them."""
    theta = np.remainder(np.asarray(row, dtype=np.int64), den) / den * (2 * math.pi)
    return complex(math.fsum(np.cos(theta).tolist()), math.fsum(np.sin(theta).tolist()))


def test_root_of_unity_sum_is_fsum_of_numpy_terms():
    cases = ROOT_SUM_CASES + [
        # longer than one block, at the p = 7 deep-shell denominator
        (np.random.default_rng(5).integers(-(10**12), 10**12, size=_SUM_BLOCK + 1), 4941258),
        # 4 | den: cos(pi/2) = 6.1e-17 takes three limbs
        (np.arange(3 * _SUM_BLOCK), 4 * 7**5),
    ]
    for nums, den in cases:
        assert root_of_unity_sum(nums, den) == _fsum_of_numpy_terms(nums, den)


def _exact_sum(values) -> float:
    """_ExactSum of one row, fed in pieces of _SUM_BLOCK columns, as the
    kernel (_root_sums) splits a long row."""
    row = np.array([values], dtype=np.float64)
    sums = _ExactSum(1)
    for col in range(0, row.shape[1], _SUM_BLOCK):
        piece = row[:, col : col + _SUM_BLOCK]
        sums.add(piece, np.empty_like(piece))
    return sums.values()[0]


# finite floats of modulus <= 1, subnormals and both zeros included
UNIT_FLOATS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(UNIT_FLOATS, max_size=40), st.lists(UNIT_FLOATS, max_size=5))
def test_exact_sum_is_fsum_bit_for_bit(xs, rest):
    # xs and its negation cancel exactly, leaving rest
    for values in (xs, xs + [-x for x in reversed(xs)] + rest):
        assert _exact_sum(values).hex() == math.fsum(values).hex()


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.0],
        [-0.0],
        [-0.0, -0.0],
        [0.0, -0.0],
        [1.0, -1.0],
        [-1.0, 1.0, -0.0],
        [1.0, 2**-53],  # a half-ulp tie rounds to even
        [1.0, 2**-53, 2**-80],  # just above the tie
        [1.0, -(2**-54), -(2**-80)],  # just below the tie under 1.0
        [math.cos(math.pi / 2), 1.0, -1.0],  # three limbs
        [5e-324],
        [5e-324, -5e-324, 5e-324],
        [2.2250738585072014e-308, -1.5e-323, 1e-320],  # subnormal total
        [0.5, 2**-1074, -0.5],
        [2**-1022, 2**-1074],
        # pieces of one limb and of all 30, in both orders: every total sits
        # at the fixed scale 2^-1110, so no piece needs realigning
        [0.5] * _SUM_BLOCK + [5e-324, 2**-1022, 1e-300],
        [1e-300, 2**-1022, 5e-324] + [0.5] * _SUM_BLOCK,
        # full pieces whose first limbs are all 2^37, so a limb row sums to
        # 2^52, the edge of the float limb sums
        [1.0] * _SUM_BLOCK,
        [-1.0] * _SUM_BLOCK,
        [1 - 2**-53] * _SUM_BLOCK,
        [1.0] * _SUM_BLOCK + [-1.0] * _SUM_BLOCK + [1 - 2**-53] * _SUM_BLOCK,
    ],
)
def test_exact_sum_edge_cases(values):
    # a piece of limbs of modulus <= 2^_LIMB_BITS sums exactly in float64,
    # and the limbs reach the last bit of a subnormal
    assert _SUM_BLOCK << _LIMB_BITS <= 2**53
    assert _LIMB_BITS * _LIMBS >= 1074
    assert _exact_sum(values).hex() == math.fsum(values).hex()


@settings(max_examples=10, deadline=None)
@given(
    st.lists(UNIT_FLOATS, min_size=1, max_size=7),
    st.sampled_from([0, 1, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK]),
)
def test_exact_sum_across_blocks(pattern, n):
    tiled = np.resize(np.array(pattern), n)
    for values in (tiled, tiled * np.linspace(-1, 1, n)):
        assert _exact_sum(values).hex() == math.fsum(values.tolist()).hex()


def test_exact_sum_rejects_a_piece_wider_than_one_block():
    sums = _ExactSum(2)
    piece = np.zeros((2, _SUM_BLOCK + 1))
    with pytest.raises(ValueError):
        sums.add(piece, np.empty_like(piece))


def test_root_of_unity_sum_empty_and_domain():
    assert root_of_unity_sum([], 7) == 0j
    assert root_of_unity_sum(np.array([], dtype=np.int64), 7) == 0j
    assert abs(root_of_unity_sum(range(9), 9)) < 1e-15
    with pytest.raises(RangeError):
        root_of_unity_sum([1], 2**53)
    with pytest.raises(RangeError):
        root_of_unity_sum([2**63], 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_root_of_unity_sum_rows_match_single_rows_bit_for_bit(rows, data):
    # row lengths from empty to past one kernel call's share of _SUM_BLOCK;
    # den = 12 has 4 | den, so cos(pi/2) = 6.1e-17 makes its rows take three limbs
    limit = _SUM_BLOCK // rows + 2
    n = data.draw(st.one_of(st.integers(0, limit), st.just(limit), st.just(_SUM_BLOCK // rows)))
    den = data.draw(st.sampled_from([12, 4 * 7**5, 2 * 3**10, 10**6 + 3]))
    bound = data.draw(st.sampled_from([10 * den, 2**62]))
    nums = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(-bound, bound, size=(rows, n))
    sums = root_of_unity_sum(nums, den)
    assert len(sums) == rows
    for got, row in zip(sums, nums):
        assert _bits(got) == _bits(root_of_unity_sum(row, den))


def test_root_of_unity_sum_rows_edge_shapes():
    assert root_of_unity_sum(np.zeros((3, 0), dtype=np.int64), 12) == [0j, 0j, 0j]
    assert root_of_unity_sum(np.zeros((0, 5), dtype=np.int64), 12) == []
    with pytest.raises(ValueError):
        root_of_unity_sum(np.zeros((2, 2, 2), dtype=np.int64), 12)


I64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "rows, n, den",
    [
        (3, 5, 1),
        (4, 6, 24),  # den = rows n: the table
        (4, 6, 25),  # den = rows n + 1: the direct path
        (2, _SUM_BLOCK // 2 + 3, _SUM_BLOCK),  # the table at its largest
        (2, _SUM_BLOCK // 2 + 3, _SUM_BLOCK + 1),  # the direct path, although den < rows n
        (1, 2 * _SUM_BLOCK + 5, 12),  # a row longer than one piece, through the table
    ],
)
def test_root_of_unity_sum_table_path_is_fsum_of_numpy_terms(monkeypatch, rows, n, den):
    # the residue table is taken exactly when den <= min(rows n, _SUM_BLOCK),
    # and each row is then math.fsum of numpy's own cos and sin of its terms
    gathers = []
    take = np.take
    monkeypatch.setattr(np, "take", lambda *args, **kwargs: gathers.append(args[1].shape) or take(*args, **kwargs))
    rng = np.random.default_rng(rows * n + den)
    nums = rng.integers(I64.min, I64.max, size=(rows, n), endpoint=True)
    # negative numerators and both ends of int64
    nums[0, :4] = [I64.min, I64.max, -1, -den]
    for sample in (nums, nums % (3 * den) - den):
        gathers.clear()
        sums = root_of_unity_sum(sample, den)
        assert bool(gathers) == (den <= min(rows * n, _SUM_BLOCK))
        assert [_bits(got) for got in sums] == [_bits(_fsum_of_numpy_terms(row, den)) for row in sample]


@pytest.mark.parametrize(
    "p, m_max",
    [(3, 3), (5, 3), (7, 3), (11, 2), (101, 1), (2, 10), (17, 2)],
)
def test_gauss_sums_match_g_normalized_bit_for_bit(p, m_max):
    for psi_c in (0, 1, 2):
        psi = AddChar(p, psi_c)
        for m in range(1, m_max + 1):
            table = gauss_sums(p, m, psi)
            assert list(table) == MultChar.all_primitive(p, m)
            for chi, g in table.items():
                assert _bits(g) == _bits(g_normalized(chi, psi)), (p, m, psi_c, chi)


def test_gauss_sums_domain_is_checked_before_enumerating(monkeypatch):
    def never(*args):
        pytest.fail("characters enumerated outside the kernel's domain")

    monkeypatch.setattr(MultChar, "all_primitive", classmethod(never))
    # (p - 1) p^m p^m: 6 * 7^20 < 2^63 <= 6 * 7^22
    check_gauss_domain(7, 10)
    for m in (11, 12):
        with pytest.raises(RangeError):
            check_gauss_domain(7, m)
        with pytest.raises(RangeError):
            gauss_sums(7, m, AddChar(7, 0))
    with pytest.raises(ConductorError):
        gauss_sums(7, 0, AddChar(7, 0))
    with pytest.raises(ValueError):
        gauss_sums(7, 1, AddChar(5, 0))


def test_unit_powers_walk_every_unit():
    for p in (3, 5, 7, 11):
        g = unit_generator(p)
        for d in range(1, 5):
            mod = p**d
            phi = (p - 1) * p ** (d - 1)
            powers = _unit_powers(g, mod, phi)
            assert powers.dtype == np.int64 and not powers.flags.writeable
            assert powers.tolist() == [pow(g, j, mod) for j in range(phi)]
            assert sorted(powers.tolist()) == [u for u in range(1, mod) if u % p]
    # 5 has order 2^(m - 2) mod 2^m, and its powers are the units = 1 mod 4
    for m in range(2, 12):
        mod, order = 2**m, 2 ** (m - 2)
        powers = _unit_powers(5, mod, order)
        assert powers.tolist() == [pow(5, j, mod) for j in range(order)]
        assert sorted(powers.tolist()) == list(range(1, mod, 4))


def test_unit_power_pieces_are_the_powers():
    # each piece of a walk past one _SUM_BLOCK is g^c0 times the head table,
    # reduced mod p^depth (5 mod 2^m included)
    for g, mod, order in ((unit_generator(3), 3**13, 2 * 3**12), (unit_generator(7), 7**6, 6 * 7**5), (5, 2**20, 2**18)):
        for c0 in range(0, order, _SUM_BLOCK):
            j = np.arange(c0, min(c0 + _SUM_BLOCK, order), dtype=np.int64)
            piece = padic._unit_power_piece(g, mod, order, c0, j.size)
            assert piece.dtype == np.int64 and piece.shape == j.shape
            sample = np.r_[0 : j.size : 101, j.size - 1]
            assert piece[sample].tolist() == [pow(g, int(e), mod) for e in j[sample]], (g, mod, c0)


def test_unit_powers_beyond_uint64_raise_at_once():
    # the doubling products reach mod^2, so mod must stay below 2^32
    mod = 2**32 - 1
    assert _unit_powers(3, mod, 40).tolist() == [pow(3, j, mod) for j in range(40)]
    with pytest.raises(RangeError):
        _unit_powers(3, 2**32, 40)
    with pytest.raises(RangeError):
        MultChar(3, 41, 1).value(2)


def test_dlog_table_inverts_the_powers():
    for p in (3, 5, 7, 11, 13):
        g = unit_generator(p)
        for m in range(1, 5):
            mod, phi = p**m, (p - 1) * p ** (m - 1)
            table = _dlog_table(p, m)
            for u in range(1, mod):
                if u % p:
                    assert 0 <= table[u] < phi and pow(g, table[u], mod) == u, (p, m, u)


def test_dlog_table_inverts_the_signed_walk_at_two():
    # the units mod 2^m are (-1)^sign 5^k, (sign, k) = divmod(j, 2^(m - 2))
    assert unit_generator(2) == 5
    for m in range(1, 13):
        mod, order = 2**m, max(2 ** (m - 2), 1)
        table = _dlog_table(2, m)
        assert sorted(table[u] for u in range(1, mod, 2)) == list(range(2 ** (m - 1)))
        for u in range(1, mod, 2):
            sign, k = divmod(table[u], order)
            assert (-1) ** sign * pow(5, k, mod) % mod == u, (m, u)


def test_gauss_sums_at_two_have_unit_modulus_and_conjugate():
    # every primitive character mod 2^m, m <= 12: |g| = 1 and
    # g(chi^-1) = chi(-1) conj g(chi), through MultChar.inverse and
    # at_minus_one; each row is g_normalized bit for bit, one scaling at
    # every prime
    for psi_c in (0, 1):
        psi = AddChar(2, psi_c)
        for m in range(2, 13):
            table = gauss_sums(2, m, psi)
            assert len(table) == (1 if m == 2 else 2 ** (m - 2))
            for chi, g in table.items():
                assert abs(abs(g) - 1) < 1e-12
                assert abs(table[chi.inverse()] - chi.at_minus_one() * g.conjugate()) < 1e-12
            for chi in list(table)[:: max(1, len(table) // 7)]:
                assert _bits(table[chi]) == _bits(g_normalized(chi, psi))


def test_gauss_sums_p2_domain():
    # m <= 0 is no conductor, as at odd p; 4^m < 2^63 is m <= 31, and mod 2
    # there is no primitive character
    psi = AddChar(2, 0)
    for m in (-1, 0):
        with pytest.raises(ConductorError):
            gauss_sums(2, m, psi)
    for m in (32, 40):
        with pytest.raises(RangeError):
            gauss_sums(2, m, psi)
    assert gauss_sums(2, 1, psi) == {}
    assert list(gauss_sums(2, 2, psi)) == [MultChar(2, 2, 0, 1)]
    assert [(chi.eps, chi.a) for chi in gauss_sums(2, 4, psi)] == [(0, 1), (0, 3), (1, 1), (1, 3)]


def test_unit_integral_beyond_int64_raises_at_once():
    with pytest.raises(RangeError):
        unit_additive_integral(MultChar(5, 2, 3), AddChar(5, 1), -40)


def test_gauss_sum_is_cached():
    chi, psi = MultChar(7, 2, 5), AddChar(7, 1)
    first = gauss_sum(chi, psi)
    hits = gauss_sum.cache_info().hits
    assert gauss_sum(MultChar(7, 2, 5), AddChar(7, 1)) == first
    assert gauss_sum.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# atoms and transforms


def test_fourier_atom_rules():
    psi = AddChar(5, 0)
    # self-dual tail
    f = SimpleFunction(5, [(1.0, TailAtom(0))])
    fa = fourier_atom(f, psi)
    assert fa.terms == {(TailAtom(0),): 1.0 + 0j}
    # ramified shell picks up the Gauss sum at the reflected shift
    chi = MultChar(5, 1, 2)
    fa = fourier_atom(SimpleFunction(5, [(1.0, CharAtom(chi, 0))]), psi)
    ((atom,), coeff), = fa.terms.items()
    assert atom == CharAtom(chi.inverse(), -1)
    assert abs(coeff - gauss_sum(chi, psi)) < 1e-15


def test_fourier_pointwise_all_primes():
    for p in (3, 5, 7):
        for psi_c in (0, 1):
            psi = AddChar(p, psi_c)
            chi = MultChar(p, 1, 1)
            f = SimpleFunction(
                p,
                [
                    (1.5 - 0.5j, CharAtom(chi, 1)),
                    (2.0, TailAtom(-1)),
                    (1j, CharAtom(MultChar.trivial(p), 0)),
                ],
            )
            fa = fourier_atom(f, psi)
            for v in range(-6, 7):
                for u in (1, 2, p + 2):
                    x = Fraction(u) * Fraction(p) ** v
                    assert abs(fourier_bruteforce(f, psi, x) - fa.evaluate(x)) < 1e-14
            assert abs(fourier_bruteforce(f, psi, Fraction(0)) - fa.evaluate(Fraction(0))) < 1e-13


def test_fourier_pointwise_at_two():
    # the padic suite's two test functions, with a character of conductor 2^3
    one = MultChar.trivial(2)
    for chi in MultChar.all_primitive(2, 3):
        f = SimpleFunction(2, [(1.5 - 0.5j, CharAtom(chi, 1)), (2.0, TailAtom(-1)), (1j, CharAtom(one, 0))])
        g = SimpleFunction(2, [(2.0 - 1j, CharAtom(chi, -2)), (0.5, TailAtom(1)), (1.0, CharAtom(one, 0))])
        for psi_c in (0, 1):
            psi = AddChar(2, psi_c)
            for h in (f, g):
                ha = fourier_atom(h, psi)
                for v in range(-6, 7):
                    for u in (1, 3, 5, 7):
                        x = Fraction(u) * Fraction(2) ** v
                        assert abs(fourier_bruteforce(h, psi, x) - ha.evaluate(x)) < 1e-14
                assert abs(fourier_bruteforce(h, psi, Fraction(0)) - ha.evaluate(Fraction(0))) < 1e-13


def test_atom_values_at_negative_valuation():
    # x = u / p^k carries its unit part u: the atom [chi, -k] takes chi(u)
    # there, computed from the integer u without any p-stripping
    atom = CharAtom(MultChar(5, 1, 1), -1)
    assert abs(SimpleFunction(5, [(1, atom)]).evaluate(Fraction(3, 5)) + 1j) < 1e-15
    for chi, k in ((MultChar(5, 1, 1), 1), (MultChar(7, 2, 5), 3), (MultChar(3, 3, 4), 2)):
        p = chi.p
        line = SimpleFunction(p, [(1.0, CharAtom(chi, -k))])
        plane = TensorSimpleFunction(
            p, [(1.0, CharAtom(chi, -k), TailAtom(0)), (1.0, TailAtom(-k), CharAtom(chi, -k))]
        )
        for u in range(1, 2000):
            if u % p == 0:
                continue
            x = Fraction(u, p**k)
            assert abs(line.evaluate(x) - chi.value(u)) < 1e-15
            assert abs(plane.evaluate(x, 1) - chi.value(u)) < 1e-15
            assert abs(plane.evaluate(0, x) - chi.value(u)) < 1e-15


def test_tate_integral_row_at_negative_valuation():
    # substituting t -> p^k t moves the row (u / p^k, 1) to (u, p^k) and
    # multiplies by q^(-k (z + i mu)), so both rows must agree
    chi = MultChar(7, 2, 5)
    psi = AddChar(7, 1)
    phi = TensorSimpleFunction(7, [(1.0, CharAtom(chi, 0), TailAtom(0))])
    z, mu, k = 0.3 + 0.2j, 0.4, 3
    factor = cmath.exp(-k * (z + 1j * mu) * math.log(7))
    for u in range(1, 200):
        if u % 7 == 0:
            continue
        lhs = tate_integral_padic(phi, chi.inverse(), mu, z, (Fraction(u, 7**k), Fraction(1)), psi)
        rhs = factor * tate_integral_padic(phi, chi.inverse(), mu, z, (Fraction(u), Fraction(7**k)), psi)
        assert abs(lhs - rhs) < 1e-15
        assert abs(lhs - factor * chi.value(u) * psi.conductor_value ** (-0.5)) < 1e-15


def _shape_params(p: int, shape: str, s=0.25, mu=0.3, psi_c=0) -> FiniteParams:
    """params_for, with the characters of conductor 2^2 and 2^3 at p = 2,
    where no character has conductor 2."""
    if p != 2:
        return params_for(p, shape, s, mu, psi_c)
    tr, chi4 = MultChar.trivial(2), MultChar(2, 2, 0, 1)
    c3, c3b = MultChar.all_primitive(2, 3)[:2]
    shapes = {"both": (chi4, c3), "both-trivial-twist": (c3, c3), "first": (chi4, tr), "second": (tr, c3), "none": (tr, tr)}
    return FiniteParams(2, s, mu, *shapes[shape], AddChar(2, psi_c))


def _tate_rows(p: int) -> list[tuple]:
    """Int and Fraction rows: units at several valuations, negative
    valuations and zero coordinates."""
    g = unit_generator(p)
    ints = [(g * p**j, 1) for j in range(3)] + [(p**3 - 1, p), (1, g * p**2), (0, 1), (1, 0), (0, g * p)]
    fracs = [(Fraction(x), Fraction(y)) for x, y in ints]
    fracs += [(Fraction(g, p**2), Fraction(1)), (Fraction(1), Fraction(p + 2, p)), (Fraction(0), Fraction(1, p**3))]
    return ints + fracs


def _check_batched_tate(phi, eta, mu, z, rows, psi) -> None:
    """_tate_integrals over rows is tate_integral_padic row by row, bit for
    bit, and raises as the first row that raises."""
    expected, error = [], None
    for row in rows:
        try:
            expected.append(tate_integral_padic(phi, eta, mu, z, row, psi))
        except ValueError as exc:  # PoleError included
            error = exc
            break
    splits = [(padic._p_split(x, phi.p), padic._p_split(y, phi.p)) for x, y in rows]
    if error is not None:
        with pytest.raises(type(error)) as info:
            padic._tate_integrals(phi, eta, mu, z, splits, psi)
        assert type(info.value) is type(error) and str(info.value) == str(error)
    got = padic._tate_integrals(phi, eta, mu, z, splits[: len(expected)], psi)
    assert [_bits(v) for v in got] == [_bits(v) for v in expected]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_batched_tate_integral_is_the_one_row_call_bit_for_bit(p):
    rows = _tate_rows(p)
    for shape in ALL_SHAPES:
        for psi_c in (0, 1):
            prm = _shape_params(p, shape, s=0.25 + 0.1j, mu=0.3, psi_c=psi_c)
            tau = prm.twist_char
            for n in range(prm.conductor, prm.conductor + 2):
                phi = classical_vector(prm, n)
                sections = (phi, phi.fourier_hat(prm.psi), classical_vector(padic._swap_chars(prm), n))
                for section in sections:
                    for eta in (tau.inverse(), tau, prm.xi, MultChar.trivial(p)):
                        # the oracle's exponent, and z + i mu = 0, where the tails meet x = 1
                        for mu, z in ((-prm.mu, 1 - 2 * prm.s), (0.0, 0.0)):
                            _check_batched_tate(section, eta, mu, z, rows, prm.psi)


def test_batched_tate_integral_raises_from_the_first_row_that_raises():
    # one tail term: every row with a nonzero coordinate meets the pole at
    # z = mu = 0, and the row (0, 0) has unbounded support
    p, psi = 5, AddChar(5, 1)
    chi = MultChar(5, 1, 1)
    phi = TensorSimpleFunction(p, [(1.0, TailAtom(0), TailAtom(0)), (0.5, CharAtom(chi, 1), TailAtom(-1))])
    for rows in ([(0, 0), (1, 0)], [(1, 0), (0, 0)], [(3, 25), (0, 0)], [(Fraction(2, 5), 1), (0, 0), (1, 1)]):
        for z, mu in ((0.0, 0.0), (0.3, 0.1)):
            for eta in (MultChar.trivial(p), chi.inverse()):
                _check_batched_tate(phi, eta, mu, z, rows, psi)
    with pytest.raises(PoleError):
        padic._tate_integrals(phi, MultChar.trivial(p), 0.0, 0.0, [((0, 1, 1), (None, 0, 1))], psi)
    with pytest.raises(ValueError, match="unbounded support"):
        padic._tate_integrals(phi, MultChar.trivial(p), 0.3, 0.0, [((None, 0, 1), (None, 0, 1))], psi)


P_ATOMS = st.one_of(
    st.builds(TailAtom, st.integers(-3, 3)),
    st.builds(
        CharAtom,
        st.sampled_from([MultChar.trivial(5), MultChar(5, 1, 1), MultChar(5, 1, 2), MultChar(5, 2, 3)]),
        st.integers(-3, 3),
    ),
)
COEFFS = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


def _no_trivial_shell(atoms) -> bool:
    return all(isinstance(a, TailAtom) or a.chi.cond > 0 for a in atoms)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(COEFFS, P_ATOMS), max_size=6), st.lists(st.tuples(COEFFS, P_ATOMS, P_ATOMS), max_size=6))
def test_functions_never_hold_trivial_shell_atoms(line_terms, plane_terms):
    # fourier_atom, fourier_bruteforce and the inner products rely on this
    psi = AddChar(5, 1)
    f = SimpleFunction(5, line_terms)
    for g in (f, f.scale(2j), f + f.negate_argument(), fourier_atom(f, psi)):
        assert _no_trivial_shell(a for (a,) in g.terms)
    phi = TensorSimpleFunction(5, plane_terms)
    for h in (phi, phi.scale(-1), phi + phi, phi.fourier_hat(psi)):
        assert _no_trivial_shell(a for pair in h.terms for a in pair)


def test_bruteforce_rejects_non_p_adic_point():
    f = SimpleFunction(5, [(1.0, CharAtom(MultChar(5, 1, 1), 0))])
    with pytest.raises(ValueError):
        fourier_bruteforce(f, AddChar(5, 0), Fraction(1, 3))


def test_double_transform_is_reflection():
    for p in (3, 7):
        psi = AddChar(p, 1)
        chi = MultChar(p, 1, 1)
        f = SimpleFunction(p, [(2.0 - 1j, CharAtom(chi, -2)), (0.5, TailAtom(1)), (1.0, CharAtom(MultChar.trivial(p), 0))])
        ff = fourier_atom(fourier_atom(f, psi), psi)
        neg = f.negate_argument()
        keys = set(ff.terms) | set(neg.terms)
        assert max(abs(ff.terms.get(k, 0) - neg.terms.get(k, 0)) for k in keys) < 1e-13


def test_tensor_hat_involution():
    p = 5
    psi = AddChar(p, 1)
    chi = MultChar(p, 1, 1)
    phi = TensorSimpleFunction(
        p, [(1.0, CharAtom(chi, 0), TailAtom(0)), (0.5j, TailAtom(1), CharAtom(chi.inverse(), 2))]
    )
    hh = phi.fourier_hat(psi).fourier_hat(psi)
    keys = set(hh.terms) | set(phi.terms)
    assert max(abs(hh.terms.get(k, 0) - phi.terms.get(k, 0)) for k in keys) < 1e-13


# Bit-for-bit references, frozen from the per-shape code that the shared
# atom-sum body and _atom_hat replaced.  Coefficients are compared by their
# float bits, signed zeros included, and the term order must match too.


def _term_bits(terms: dict) -> list:
    return [(key, *_bits(c)) for key, c in terms.items()]


def _ref_line(p: int, items) -> dict:
    """The one-variable constructor: (coeff, atom) items to canonical terms."""
    merged = {}
    for coeff, atom in items:
        if coeff == 0:
            continue
        canon = [(1.0, atom)]
        if isinstance(atom, CharAtom) and atom.chi.cond == 0:
            canon = [(1.0, TailAtom(atom.n)), (-1.0, TailAtom(atom.n + 1))]
        for w, a in canon:
            merged[a] = merged.get(a, 0j) + w * complex(coeff)
    return {a: c for a, c in merged.items() if c != 0}


def _ref_fourier_atom(p: int, terms: dict, psi: AddChar) -> dict:
    out = []
    for atom, coeff in terms.items():
        if isinstance(atom, TailAtom):
            n = atom.n
            out.append((coeff * p ** (-n) * psi.conductor_value ** (-0.5), TailAtom(-n - psi.c)))
        else:
            n, chi = atom.n, atom.chi
            out.append((coeff * p ** (-n) * gauss_sum(chi, psi), CharAtom(chi.inverse(), -n - psi.c - chi.cond)))
    return _ref_line(p, out)


def _ref_negate(p: int, terms: dict) -> dict:
    out = []
    for atom, coeff in terms.items():
        out.append((coeff * atom.chi.at_minus_one() if isinstance(atom, CharAtom) else coeff, atom))
    return _ref_line(p, out)


def _ref_fourier_hat(phi: TensorSimpleFunction, psi: AddChar) -> dict:
    """One-atom line function -> fourier_atom -> negate_argument per slot,
    then the two-variable constructor."""
    p = phi.p
    merged = {}
    for (a, b), coeff in phi.terms.items():
        fa = _ref_negate(p, _ref_fourier_atom(p, _ref_line(p, [(1.0, a)]), psi))
        fb = _ref_fourier_atom(p, _ref_line(p, [(1.0, b)]), psi)
        for a2, c2 in fb.items():
            for b2, c3 in fa.items():
                # every image atom is canonical, so each weight is 1.0
                merged[(a2, b2)] = merged.get((a2, b2), 0j) + 1.0 * 1.0 * complex(coeff * c2 * c3)
    return {k: c for k, c in merged.items() if c != 0}


@st.composite
def canonical_tensors(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    chars = [MultChar.trivial(p), MultChar(p, 1, 1), MultChar(p, 1, p - 2), MultChar(p, 2, 1)]
    atoms = st.one_of(
        st.builds(TailAtom, st.integers(-3, 3)),
        st.builds(CharAtom, st.sampled_from(chars), st.integers(-3, 3)),
    )
    coeffs = st.complex_numbers(min_magnitude=1e-3, max_magnitude=8, allow_nan=False, allow_infinity=False)
    items = draw(st.lists(st.tuples(coeffs, atoms, atoms), min_size=1, max_size=6))
    return TensorSimpleFunction(p, items), AddChar(p, draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(canonical_tensors())
def test_fourier_hat_is_bitwise_the_one_atom_composition(drawn):
    phi, psi = drawn
    assert _term_bits(phi.fourier_hat(psi).terms) == _term_bits(_ref_fourier_hat(phi, psi))


@settings(max_examples=100, deadline=None)
@given(canonical_tensors())
def test_fourier_atom_is_bitwise_the_per_shape_rule(drawn):
    phi, psi = drawn
    line = SimpleFunction(phi.p, [(c, a) for (a, _), c in phi.terms.items()])
    ref = _ref_fourier_atom(phi.p, {a: c for (a,), c in line.terms.items()}, psi)
    assert _term_bits(fourier_atom(line, psi).terms) == _term_bits({(a,): c for a, c in ref.items()})


def _ref_atom_value(atom, x: Fraction, p: int) -> complex:
    """An atom's value from val_p and MultChar.value, not from a shared split."""
    v = val_p(Fraction(x), p)
    if isinstance(atom, TailAtom):
        return 1.0 if v is None or v >= atom.n else 0.0
    return atom.chi.value(Fraction(x)) if v == atom.n else 0.0


def _eval_points(p: int) -> list[Fraction]:
    pts = [Fraction(0)]
    for v in range(-4, 4):
        for u in (Fraction(1), Fraction(p - 1, p + 1), Fraction(2 * p + 1, p - 2)):
            pts.append(u * Fraction(p) ** v)
    return pts


@settings(max_examples=60, deadline=None)
@given(canonical_tensors())
def test_evaluate_is_bitwise_the_per_arity_loops(drawn):
    phi, _ = drawn
    p = phi.p
    pts = _eval_points(p)
    line = SimpleFunction(p, [(c, b) for (_, b), c in phi.terms.items()])
    for x in pts:
        total = 0j
        for (atom,), coeff in line.terms.items():
            total += coeff * _ref_atom_value(atom, x, p)
        assert _bits(line.evaluate(x)) == _bits(total)
    for x in pts[::3]:
        for y in pts:
            total = 0j
            for (a, b), coeff in phi.terms.items():
                fa = _ref_atom_value(a, x, p)
                if fa == 0:
                    continue
                total += coeff * fa * _ref_atom_value(b, y, p)
            assert _bits(phi.evaluate(x, y)) == _bits(total)


def test_atom_sums_check_their_arity():
    with pytest.raises(ValueError):
        SimpleFunction(5, [(1.0, TailAtom(0), TailAtom(0))])
    with pytest.raises(ValueError):
        TensorSimpleFunction(5, [(1.0, TailAtom(0))])


def test_atom_sum_constructor_rejects_a_character_at_another_prime():
    chi7 = MultChar(7, 1, 1)
    with pytest.raises(ValueError, match="different primes"):
        SimpleFunction(5, [(1.0, CharAtom(chi7, 0))])
    with pytest.raises(ValueError, match="different primes"):
        TensorSimpleFunction(5, [(1.0, TailAtom(0), CharAtom(chi7, 2))])


def test_atom_sum_addition_rejects_mixed_primes():
    # tail atoms carry no prime, so only the sum itself can see the mismatch
    with pytest.raises(ValueError, match="different primes"):
        SimpleFunction(5, [(1.0, TailAtom(0))]) + SimpleFunction(7, [(1.0, TailAtom(0))])
    with pytest.raises(ValueError, match="different primes"):
        TensorSimpleFunction(5, [(1.0, TailAtom(0), TailAtom(1))]) + TensorSimpleFunction(3, [])


def test_fourier_atom_rejects_a_character_at_another_prime():
    f = SimpleFunction(5, [(1.0, TailAtom(0)), (2.0, CharAtom(MultChar(5, 1, 1), -1))])
    with pytest.raises(ValueError, match="different primes"):
        fourier_atom(f, AddChar(3, 0))


def test_tensor_fourier_hat_rejects_a_character_at_another_prime():
    phi = TensorSimpleFunction(5, [(1.0, TailAtom(0), TailAtom(0))])
    with pytest.raises(ValueError, match="different primes"):
        phi.fourier_hat(AddChar(7, 0))


def test_tensor_inner_rejects_mixed_primes():
    phi5 = TensorSimpleFunction(5, [(1.0, TailAtom(0), TailAtom(0))])
    phi7 = TensorSimpleFunction(7, [(1.0, TailAtom(0), TailAtom(0))])
    for other, psi in ((phi7, AddChar(5, 0)), (phi5, AddChar(7, 0))):
        with pytest.raises(ValueError, match="different primes"):
            phi5.inner(other, psi)


@pytest.mark.parametrize("s,mu", [(complex("nan"), 0.3), (complex(math.inf, 0), 0.3), (0.25, math.nan), (0.25, math.inf)])
def test_finite_params_reject_non_finite_s_and_mu(s, mu):
    with pytest.raises(ValueError, match="finite"):
        params_for(5, "both", s=s, mu=mu)
    with pytest.raises(ValueError, match="finite"):
        unramified_params(3, s, mu)


# ---------------------------------------------------------------------------
# classical vectors


def test_vector_norms_all_shapes():
    for p in (3, 5):
        for shape in ALL_SHAPES:
            prm = params_for(p, shape)
            c = prm.conductor
            for n in range(c, c + 4):
                v = classical_vector(prm, n)
                assert abs(v.inner(v, prm.psi) - 1.0) < 1e-12


def test_vector_gram_identity():
    for p in (3, 5):
        for shape in ALL_SHAPES:
            prm = params_for(p, shape)
            c = prm.conductor
            vecs = [classical_vector(prm, n) for n in range(c, c + 4)]
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    target = 1.0 if i == j else 0.0
                    assert abs(vi.inner(vj, prm.psi) - target) < 1e-12


def test_uncorrected_constants_norm_deficit():
    # the otherwise displayed constants in the one-sided shapes lose exactly
    # (1 + 1/q)^(-1/2) at levels above the conductor
    for p in (3, 5):
        for shape in ("first", "second"):
            prm = params_for(p, shape)
            c = prm.conductor
            v = classical_vector(prm, c + 1, normalized=False)
            assert abs(v.inner(v, prm.psi) - 1 / (1 + 1 / p)) < 1e-12
            base = classical_vector(prm, c, normalized=False)
            assert abs(base.inner(base, prm.psi) - 1.0) < 1e-12


def test_vector_level_guard():
    prm = params_for(5, "both")
    with pytest.raises(RangeError):
        classical_vector(prm, prm.conductor - 1)


def test_level_membership_boundaries():
    for p in (3, 5):
        for shape in ALL_SHAPES:
            prm = params_for(p, shape)
            c = prm.conductor
            for n in range(c, c + 2):
                v = classical_vector(prm, n)
                assert level_membership(v, prm, n)
                if n >= 1:
                    assert not level_membership(v, prm, n - 1)
    # and the zero function is in every level
    prm = unramified_params(5, 0.2)
    zero = TensorSimpleFunction(5, [])
    assert level_membership(zero, prm, 0)


def test_level_membership_sees_swapped_characters():
    # condition (1) alone separates the two: with the characters exchanged
    # the vector keeps its support but transforms by the other pair
    for p in (5, 7):
        prm = params_for(p, "both")
        swapped = FiniteParams(p, prm.s, prm.mu, prm.omega_xi_inv, prm.xi, prm.psi)
        for n in range(prm.conductor, prm.conductor + 2):
            v = classical_vector(swapped, n)
            assert level_membership(v, swapped, n)
            assert not level_membership(v, prm, n)


def test_orbit_measures_additivity():
    for p in (3, 5, 7):
        for psi_c in (0, 1):
            prm = unramified_params(p, 0.2, psi_c=psi_c)
            for level in (1, 2, 5):
                oms = orbit_measures(prm, level)
                assert sum(oms) == (1 - Fraction(1, p * p)) * Fraction(1, p**psi_c)


def test_iota_identification_measure():
    # the compact-model identification pins vol(units) = C(psi)^(-1/2)
    for psi_c in (0, 1, 2):
        prm = unramified_params(5, 0.2, psi_c=psi_c)
        v0 = classical_vector(prm, 0)
        lhs = iota_normalization(prm, v0)
        rhs = prm.psi.conductor_value ** (-0.5) * v0.evaluate(Fraction(0), Fraction(1))
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# eigenvalues


def test_mu_values_unramified():
    # level 0 with trivial additive conductor: identically one
    prm = unramified_params(5, 0.37 + 0.12j, mu=0.0)
    assert abs(mu_finite(prm, 0) - 1.0) < 1e-15
    # level 1 on the axis: the displayed series ratio times the power
    y = 0.4
    prm = unramified_params(5, 1j * y, mu=0.0)
    e = 2j * y
    expected = (1 - 5 ** (-(1 - e))) / (1 - 5 ** (-(1 + e))) * 5**-e
    assert abs(mu_finite(prm, 1) - expected) < 1e-14
    assert abs(abs(mu_finite(prm, 1)) - 1) < 1e-14


def test_mu_one_sided_phase():
    # one-sided ramified shape: conjugate Gauss phase times the power
    prm = params_for(5, "first", s=0.0, mu=0.0)
    val = mu_finite(prm, prm.conductor)
    g = g_normalized(prm.xi, prm.psi)
    assert abs(val - g.conjugate()) < 1e-13
    assert abs(abs(val) - 1.0) < 1e-13


def test_mu_axis_unitarity_all_shapes():
    import random

    rng = random.Random(1)
    for p in (3, 5, 7):
        for shape in ALL_SHAPES:
            for _ in range(12):
                prm = params_for(p, shape, s=1j * rng.uniform(-4, 4), mu=rng.uniform(-2, 2), psi_c=rng.choice((0, 1)))
                for n in range(prm.conductor, prm.conductor + 3):
                    assert abs(abs(mu_finite(prm, n)) - 1.0) < 1e-12


def test_mu_oracle_all_shapes():
    for p in (3, 5, 7):
        for shape in ALL_SHAPES:
            for psi_c in (0, 1):
                prm = params_for(p, shape, s=0.25 + 0.1j, mu=0.3, psi_c=psi_c)
                for n in range(prm.conductor, prm.conductor + 4):
                    assert abs(mu_finite(prm, n) - mu_finite_oracle(prm, n)) < 1e-10


def _oracle_one_row_loop(params: FiniteParams, n: int, tol: float = 1e-10) -> complex:
    """mu_finite_oracle as one tate_integral_padic call per Fraction row and
    section, a numerator only where the denominator passes the guard."""
    p = params.p
    phi = classical_vector(params, n)
    phi_swap = classical_vector(padic._swap_chars(params), n)
    phi_hat = phi.fourier_hat(params.psi)
    tau = params.twist_char
    l_ratio = padic._series_ratio(p, 2 * params.s + 1j * params.mu) if tau.is_trivial() else 1.0 + 0j
    tau_inv, z_img = tau.inverse(), 1 - 2 * params.s
    g = unit_generator(p)
    units = [1, g, (g * g) % p**3, p**3 - 1]
    rows = [(Fraction(u * p**j), Fraction(1)) for j in range(0, n + 3) for u in units]
    rows += [(Fraction(u), Fraction(p**j)) for j in range(1, n + 3) for u in units]
    ratios = []
    for row in rows:
        denom = tate_integral_padic(phi_swap, tau_inv, -params.mu, z_img, row, params.psi)
        if abs(denom) < 1e-12:
            continue
        numer = tate_integral_padic(phi_hat, tau_inv, -params.mu, z_img, row, params.psi)
        ratios.append(l_ratio * numer / denom)
    return padic._consistent_ratio(ratios, tol, "row")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mu_oracle_is_the_one_row_loop_bit_for_bit(p):
    for shape in ALL_SHAPES:
        for psi_c in (0, 1):
            for s, mu in ((0.25 + 0.1j, 0.3), (0.7j, -0.4)):
                prm = _shape_params(p, shape, s=s, mu=mu, psi_c=psi_c)
                for n in range(prm.conductor, prm.conductor + 3):
                    assert _bits(mu_finite_oracle(prm, n)) == _bits(_oracle_one_row_loop(prm, n)), (shape, psi_c, s, n)


def test_mu_oracle_takes_numerators_only_where_the_denominator_passes(monkeypatch):
    calls = []
    batched = padic._tate_integrals

    def spy(phi, eta, mu, z, splits, psi):
        values = batched(phi, eta, mu, z, splits, psi)
        calls.append((list(splits), values))
        return values

    monkeypatch.setattr(padic, "_tate_integrals", spy)
    skipped = 0
    for p in (2, 5):
        for shape in ALL_SHAPES:
            prm = _shape_params(p, shape, psi_c=1)
            for n in range(prm.conductor, prm.conductor + 3):
                calls.clear()
                mu_finite_oracle(prm, n)
                # the denominators at every row, then the numerators of the kept rows
                assert len(calls) == 2
                (rows, denoms), (numer_rows, _) = calls
                assert len(rows) == 4 * (2 * n + 5)
                assert numer_rows == [row for row, d in zip(rows, denoms) if abs(d) >= 1e-12]
                skipped += len(rows) - len(numer_rows)
    assert skipped > 0


def test_mu_oracle_inconsistent_ratio_guard():
    # an impossible tolerance turns rounding in the sample rows (a spread of
    # about 8e-17 here) into a detected sample-row dependence
    with pytest.raises(InconsistentRatio):
        mu_finite_oracle(unramified_params(5, 0.2), 2, tol=1e-17)


def test_mu_level_guard():
    prm = params_for(5, "both")
    with pytest.raises(RangeError):
        mu_finite(prm, prm.conductor - 1)


def test_derivative_and_bounds():
    import random

    rng = random.Random(2)
    for p in (3, 5, 7):
        for shape in ALL_SHAPES:
            prm = params_for(p, shape, s=1j * rng.uniform(-3, 3), mu=rng.uniform(-1, 1), psi_c=rng.choice((0, 1)))
            for n in range(prm.conductor, prm.conductor + 3):
                # finite-difference cross-check of the exact derivative; the
                # bound is the padic/deriv-bound/* cases of the padic suite
                h = 5e-5
                plus = FiniteParams(p, prm.s + h, prm.mu, prm.xi, prm.omega_xi_inv, prm.psi)
                minus = FiniteParams(p, prm.s - h, prm.mu, prm.xi, prm.omega_xi_inv, prm.psi)
                num = (mu_finite(plus, n) - mu_finite(minus, n)) / (2 * h)
                assert abs(num - mu_finite_derivative(prm, n)) < 1e-5


def test_logderiv_times_mu_is_the_derivative():
    # the cases of test_mu_oracle_all_shapes and test_derivative_and_bounds
    import random

    rng = random.Random(2)
    for p in (3, 5, 7):
        for shape in ALL_SHAPES:
            cases = [params_for(p, shape, s=0.25 + 0.1j, mu=0.3, psi_c=psi_c) for psi_c in (0, 1)]
            cases.append(params_for(p, shape, s=1j * rng.uniform(-3, 3), mu=rng.uniform(-1, 1), psi_c=rng.choice((0, 1))))
            for prm in cases:
                for n in range(prm.conductor, prm.conductor + 4):
                    assert mu_finite(prm, n) * mu_finite_logderiv(prm, n) == mu_finite_derivative(prm, n)
            with pytest.raises(RangeError):
                mu_finite_logderiv(prm, prm.conductor - 1)


def test_derivative_zero_case():
    prm = unramified_params(5, 0.9j, mu=0.0, psi_c=0)
    assert mu_finite_derivative(prm, 0) == 0
    assert abs(mu_finite_derivative(prm, 0)) <= mu_finite_derivative_bound(prm, 0)


def test_tate_integral_sphere_value():
    # the level-zero vector is supported on the plane sphere; its radial
    # integral at exponent zero is a single-shell unit integral
    prm = unramified_params(5, 0.2)
    v0 = classical_vector(prm, 0)
    val = tate_integral_padic(v0, prm.twist_char, 0.0, 0.0, (Fraction(0), Fraction(1)), prm.psi)
    assert abs(val - v0.evaluate(Fraction(0), Fraction(1))) < 1e-14


def test_displayed_unramified_vector_forms():
    # level 0: the normalized sphere indicator; level 2 at p = 3: the
    # two-shell combination with the displayed constant
    prm = unramified_params(5, 0.2)
    v0 = classical_vector(prm, 0)
    c0 = 1 / math.sqrt(1 - 5.0**-2)
    assert abs(v0.terms[(TailAtom(0), TailAtom(0))] - c0) < 1e-14
    assert abs(v0.terms[(TailAtom(1), TailAtom(1))] + c0) < 1e-14
    prm3 = unramified_params(3, 0.2)
    v2 = classical_vector(prm3, 2)
    c2 = 3.0 / (1 - 1 / 3)
    # the unit-shell second slot canonicalizes to a tail difference
    assert abs(v2.terms[(TailAtom(2), TailAtom(0))] - c2) < 1e-12
    assert abs(v2.terms[(TailAtom(2), TailAtom(1))] + c2) < 1e-12
    assert abs(v2.terms[(TailAtom(1), TailAtom(0))] + c2 / 3) < 1e-12
    assert abs(v2.terms[(TailAtom(1), TailAtom(1))] - c2 / 3) < 1e-12


# the pairs (xi, omega xi^-1) at p = 2 of every ramification shape whose
# characters have conductor 2^2 or 2^3
def _shapes_at_two() -> list[tuple[MultChar, MultChar]]:
    tr, chi4 = MultChar.trivial(2), MultChar(2, 2, 0, 1)
    c3, c3b = MultChar.all_primitive(2, 3)
    return [(tr, tr), (chi4, tr), (c3b, tr), (tr, chi4), (tr, c3), (chi4, chi4), (c3, c3), (chi4, c3), (c3, c3b)]


def test_vectors_at_two_are_orthonormal_at_their_level():
    for xi, oxi in _shapes_at_two():
        prm = FiniteParams(2, 0.2, 0.0, xi, oxi, AddChar(2, 0))
        c = prm.conductor
        vecs = [classical_vector(prm, n) for n in range(c, c + 3)]
        for i, vi in enumerate(vecs):
            assert level_membership(vi, prm, c + i)
            assert c + i == 0 or not level_membership(vi, prm, c + i - 1)
            for j, vj in enumerate(vecs):
                assert abs(vi.inner(vj, prm.psi) - (i == j)) < 1e-12


def test_mu_finite_at_two_matches_the_oracle():
    for y in (0.3, -1.1):
        for n in range(4):
            prm = unramified_params(2, 1j * y)
            assert abs(mu_finite(prm, n) - mu_finite_oracle(prm, n)) < 1e-12
    for xi, oxi in _shapes_at_two():
        for psi_c in (0, 1):
            for s, mu in ((0.7j, 0.4), (0.25, 0.3)):
                prm = FiniteParams(2, s, mu, xi, oxi, AddChar(2, psi_c))
                for n in range(prm.conductor, prm.conductor + 3):
                    assert abs(mu_finite(prm, n) - mu_finite_oracle(prm, n)) < 1e-12, (xi, oxi, psi_c, s, n)
