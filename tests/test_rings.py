"""Scalar arithmetic across the four supported domains."""

import math
import random
from fractions import Fraction

import pytest

from shiftforge import (
    FormatError,
    PreconditionError,
    QQ,
    Ring,
    RingMismatchError,
    ZZ,
    modular,
    prime_field,
)
from shiftforge.rings import PRIME_MODULUS_BOUND, _is_prime

F5 = prime_field(5)
Z6 = modular(6)

ALL_RINGS = [ZZ, QQ, F5, Z6]


def test_construction_validates_moduli():
    with pytest.raises(FormatError):
        prime_field(6)
    with pytest.raises(FormatError):
        prime_field(1)
    with pytest.raises(FormatError):
        modular(1)
    assert prime_field(2).modulus == 2
    assert modular(4).modulus == 4


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_10000():
    assert [n for n in range(10 ** 4) if _is_prime(n)] == [
        n for n in range(10 ** 4) if trial_division_is_prime(n)
    ]


def test_is_prime_on_large_primes_and_pseudoprimes():
    # 2^61 - 1, the largest primes below 2^63 and above 10^18, and the
    # largest prime below the bound
    for p in (2305843009213693951, 9223372036854775783, 1000000000000000003,
              PRIME_MODULUS_BOUND - 168):
        assert _is_prime(p)
        assert prime_field(p).modulus == p
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7; 561 and
    # 41041 are Carmichael numbers; the last is the product of the two
    # primes after 10^12
    for n in (3215031751, 561, 41041, 1000000000000000001,
              1000000000039 * 1000000000061):
        assert not _is_prime(n)
        with pytest.raises(FormatError):
            prime_field(n)


def test_prime_modulus_bound():
    for p in (PRIME_MODULUS_BOUND, 2 ** 89 - 1):
        with pytest.raises(FormatError, match=str(PRIME_MODULUS_BOUND)):
            Ring.from_token("Fp %d" % p)
    # the bound itself is a strong pseudoprime to every base used
    for q in (PRIME_MODULUS_BOUND, 2 ** 89 - 1):
        big = modular(q)
        assert big.is_finite
        with pytest.raises(PreconditionError):
            big.is_field
    assert not modular(2 ** 90).is_field


def test_kind_flags():
    assert ZZ.is_integral_domain and not ZZ.is_field and not ZZ.is_finite
    assert QQ.is_field and not QQ.is_finite
    assert F5.is_field and F5.is_finite
    assert Z6.is_finite and not Z6.is_integral_domain


def test_arith_examples():
    assert F5.el(3) + F5.el(4) == F5.el(2)
    assert QQ.el(Fraction(1, 2)) * QQ.el(Fraction(2, 3)) == QQ.el(Fraction(1, 3))
    assert (Z6.el(2) * Z6.el(3)).is_zero


def test_canonical_forms():
    assert F5.el(12).val == 2
    assert F5.el(-1).val == 4
    assert QQ.el(Fraction(2, 4)).val == Fraction(1, 2)
    assert QQ.el(Fraction(3, -6)).val == Fraction(-1, 2)
    assert ZZ.el(7).val == 7


def test_mismatched_rings_rejected():
    with pytest.raises(RingMismatchError):
        ZZ.el(1) + QQ.el(1)
    with pytest.raises(RingMismatchError):
        F5.el(1) * modular(5).el(1)


def test_units_integers():
    assert ZZ.el(1).is_unit
    assert ZZ.el(-1).is_unit
    assert not ZZ.el(2).is_unit
    assert not ZZ.el(0).is_unit


def test_unit_of_z6_by_exhaustive_search():
    # oracle: 5 is a unit iff some residue multiplies to 1
    assert any((Z6.el(5) * Z6.el(b)).val == 1 for b in range(6))
    assert Z6.el(5).is_unit
    assert not Z6.el(2).is_unit
    assert not Z6.el(3).is_unit


def test_units_fields():
    assert F5.el(3).is_unit
    assert not F5.el(0).is_unit
    assert QQ.el(Fraction(-7, 3)).is_unit


def test_unit_matches_gcd_for_small_moduli():
    for q in range(2, 31):
        ring = modular(q)
        for a in range(q):
            assert ring.el(a).is_unit == (math.gcd(a, q) == 1)


def test_ring_axioms_on_random_triples():
    rng = random.Random(11)
    for ring in ALL_RINGS:
        for _ in range(1000):
            if ring.is_finite:
                a, b, c = (ring.el(rng.randrange(ring.modulus)) for _ in range(3))
            elif ring == QQ:
                a, b, c = (
                    ring.el(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                    for _ in range(3)
                )
            else:
                a, b, c = (ring.el(rng.randint(-9, 9)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_sub_neg_pow():
    assert ZZ.el(3) - ZZ.el(5) == ZZ.el(-2)
    assert -F5.el(2) == F5.el(3)
    assert F5.el(2) ** 3 == F5.el(3)
    assert ZZ.el(2) ** 10 == ZZ.el(1024)


def test_coefficient_text_round_trip():
    cases = [
        (ZZ, ["0", "-17", "12345678901234567890"]),
        (QQ, ["1/3", "-2/7", "4", "0"]),
        (F5, ["0", "4"]),
        (Z6, ["5", "0"]),
    ]
    for ring, texts in cases:
        for t in texts:
            el = ring.parse_coeff(t)
            assert ring.format_coeff(el) == t


def test_parse_coeff_rejects_garbage():
    with pytest.raises(FormatError):
        ZZ.parse_coeff("two")
    with pytest.raises(FormatError):
        QQ.parse_coeff("1/0")


def test_ring_token_round_trip():
    for ring in ALL_RINGS:
        assert Ring.from_token(ring.token()) == ring
    with pytest.raises(FormatError):
        Ring.from_token("Fp")
    with pytest.raises(FormatError):
        Ring.from_token("W 3")


def test_element_ordering_is_by_payload():
    assert ZZ.el(-2) < ZZ.el(0) < ZZ.el(1)
    assert F5.el(0) < F5.el(4)
    assert QQ.el(Fraction(1, 3)) < QQ.el(Fraction(1, 2))
