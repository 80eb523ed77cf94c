"""Disjoint-copy products, gap ratios, and copy-count selection."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from shiftforge import (
    ArityError,
    CapExceededError,
    EquationSystem,
    GapParams,
    Max3LinSystem,
    PreconditionError,
    SparsePoly,
    ZZ,
    amplified_shift,
    amplify,
    build_hn_instance,
    copies_for_gap,
    encode_max3lin,
    gap_alpha,
    modular,
    prime_field,
    save_poly,
    search_min_sparsity,
)
from shiftforge.oracles import SearchDomain

from helpers import random_nonzero, random_poly, random_vector

F2 = prime_field(2)
Z6 = modular(6)


def linear_plus_one(ring):
    return SparsePoly(ring, 1, {(1,): 1, (0,): 1}, ["x"])


def test_two_copies_of_linear_frozen():
    inst = amplify(linear_plus_one(ZZ), 2)
    assert inst.polynomial.var_names == ("x__c0", "x__c1")
    assert inst.polynomial.terms == {
        (1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1,
    }
    assert inst.polynomial.sparsity() == 4


def test_two_copies_of_encoded_system():
    names = ["x1", "x2"]
    S = EquationSystem(
        ZZ,
        names,
        [
            SparsePoly(ZZ, 2, {(1, 0): 1, (0, 0): -1}, names),
            SparsePoly(ZZ, 2, {(2, 0): -1, (0, 1): 1}, names),
        ],
    )
    base = build_hn_instance(S, ZZ.el(2)).polynomial
    assert base.sparsity() == 6
    inst = amplify(base, 2)
    assert inst.polynomial.sparsity() == 36
    assert inst.polynomial.degree() == 2 * base.degree()
    assert inst.polynomial.degree() <= 6
    assert inst.polynomial.nvars == 10


def test_zero_divisors_can_merge_terms():
    base = SparsePoly(Z6, 1, {(1,): 2, (0,): 3}, ["x"])
    inst = amplify(base, 2)
    # (2x+3)(2y+3) = 4xy + 6x + 6y + 9 = 4xy + 3 mod 6
    assert inst.polynomial.terms == {(1, 1): 4, (0, 0): 3}
    assert inst.polynomial.sparsity() == 2


def test_integral_domain_count_is_exact_power(monkeypatch):
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", str(10 ** 4))
    rng = random.Random(109)
    for ring in (ZZ, prime_field(5)):
        for _ in range(25):
            base = random_poly(ring, rng.randint(1, 3), 3, 4, rng)
            for d in (1, 2, 3):
                if base.sparsity() ** d > 10 ** 4:
                    continue
                inst = amplify(base, d)
                assert inst.polynomial.sparsity() == base.sparsity() ** d
                assert inst.polynomial.degree() == d * base.degree()
                assert inst.polynomial.nvars == d * base.nvars


def test_cap_refusal_and_bad_copy_count(monkeypatch):
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", str(10 ** 6))
    base = random_poly(ZZ, 2, 2, 4, random.Random(1))
    with pytest.raises(CapExceededError):
        amplify(linear_plus_one(ZZ), 30)
    with pytest.raises(PreconditionError):
        amplify(base, 0)


def test_amplified_shift_frozen():
    inst = amplify(linear_plus_one(ZZ), 2)
    zero = [(ZZ.zero,), (ZZ.zero,)]
    assert amplified_shift(inst, zero) == inst.polynomial
    minus = [(ZZ.el(-1),), (ZZ.el(-1),)]
    assert amplified_shift(inst, minus).terms == {(1, 1): 1}
    with pytest.raises(ArityError):
        amplified_shift(inst, [(ZZ.zero,)])


def test_amplified_shift_matches_monolithic():
    rng = random.Random(113)
    for _ in range(100):
        ring = rng.choice([ZZ, prime_field(3), Z6])
        base = random_poly(ring, rng.randint(1, 2), 2, 3, rng)
        d = rng.randint(1, 3)
        if base.sparsity() ** d > 200:
            continue
        inst = amplify(base, d)
        per_copy = [random_vector(ring, rng, base.nvars) for _ in range(d)]
        flat = [v for vec in per_copy for v in vec]
        assert amplified_shift(inst, per_copy) == inst.polynomial.shift(flat)


def test_min_box_sparsity_multiplies():
    # over the integers the per-copy factors cannot interact, so the
    # boxed minimum of the product is the boxed minimum of the base,
    # raised to the copy count
    rng = random.Random(127)
    box = SearchDomain.integer_box(1)
    checked = 0
    while checked < 8:
        base = random_poly(ZZ, rng.randint(1, 3), 2, 3, rng)
        if base.nvars > 3:
            continue
        d = 2
        inst = amplify(base, d)
        base_min = search_min_sparsity(base, box).min_sparsity
        prod_min = search_min_sparsity(inst.polynomial, box).min_sparsity
        assert prod_min == base_min ** d
        checked += 1


def test_gap_alpha_frozen():
    assert gap_alpha(0, 0, 10) == Fraction(40, 31)
    assert gap_alpha(0, 0, 10 ** 6) > Fraction(133, 100)
    assert gap_alpha(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(7, 8)
    with pytest.raises(PreconditionError):
        gap_alpha(1, 0, 5)
    with pytest.raises(PreconditionError):
        gap_alpha(0, -1, 5)
    with pytest.raises(PreconditionError):
        gap_alpha(0, 0, 0)


def test_copies_for_gap_frozen():
    assert copies_for_gap(2, 4) == 2
    assert copies_for_gap(6, 2) == 4
    assert copies_for_gap(2, Fraction(10 ** 9 + 1, 10 ** 9)) == 1
    with pytest.raises(PreconditionError):
        copies_for_gap(1, 2)
    with pytest.raises(PreconditionError):
        copies_for_gap(5, 1)


def test_copies_for_gap_is_minimal():
    for sigma in range(2, 8):
        for target in (Fraction(3, 2), 2, 3, 10):
            d = copies_for_gap(sigma, target)
            ratio = Fraction(sigma, sigma - 1)
            assert ratio ** d >= target
            assert d == 1 or ratio ** (d - 1) < target


def test_copies_for_gap_matches_the_rational_loop_at_every_tie():
    # the loop copies_for_gap replaced, kept as the reference: targets at,
    # just above and just below an exact power of the ratio make the
    # logarithmic estimate land on both sides of the least d
    def reference(sigma, target):
        ratio = Fraction(sigma, sigma - 1)
        acc, d = ratio, 1
        while acc < target:
            acc *= ratio
            d += 1
        return d

    for sigma in (2, 3, 5, 7, 10, 101, 1000):
        for k in (1, 2, 3, 7, 20, 50):
            power = Fraction(sigma, sigma - 1) ** k
            for target in (power, power + Fraction(1, 10 ** 40),
                           power - Fraction(1, 10 ** 40)):
                if target > 1:
                    assert copies_for_gap(sigma, target) == reference(sigma, target)


def test_copies_for_gap_agrees_with_exact_powers_off_the_ties():
    # away from a tie the logarithms settle d; the least d whose exact
    # powers reach the target is the reference
    rng = random.Random(53)
    for _ in range(300):
        sigma = rng.randint(2, 60)
        target = Fraction(rng.randint(2, 10 ** 6), rng.randint(1, 10 ** 4))
        if target <= 1:
            continue
        d = 1
        while sigma ** d * target.denominator < (
                target.numerator * (sigma - 1) ** d):
            d += 1
        assert copies_for_gap(sigma, target) == d


def test_copies_for_gap_refuses_before_building_a_huge_power():
    # about 1.15 million copies; the most whose power fits is 246,723
    start = time.process_time()
    with pytest.raises(CapExceededError, match="more than 246723 copies"):
        copies_for_gap(10 ** 5, 10 ** 5)
    assert time.process_time() - start < 0.5
    # t_yes = 10^13809 is refused before it is built
    with pytest.raises(CapExceededError, match="10\\^13809 has more than 4300"):
        GapParams(0, 0, 3, copies_for_gap(1000, 10 ** 6))


def test_gap_params_thresholds():
    p = GapParams(0, 0, 10, copies=4)
    assert p.alpha == Fraction(40, 31)
    assert p.t_yes == 31 ** 4
    assert p.t_no == 40 ** 4
    assert p.alpha > 1
    q = GapParams(Fraction(1, 2), Fraction(1, 2), 2)
    assert q.alpha <= 1
    with pytest.raises(PreconditionError):
        GapParams(0, 0, 5, copies=0)


def exhaustive_f2_profiles(poly):
    """All reachable (sparsity, has-constant) pairs over full F_2 shifts."""
    profiles = set()
    for combo in itertools.product(range(2), repeat=poly.nvars):
        shifted = poly.shift([F2.el(v) for v in combo])
        profiles.add(
            (shifted.sparsity(), 0 if shifted.constant_term().is_zero else 1)
        )
    return profiles


def min_nonconstant_f2(poly):
    best = None
    for combo in itertools.product(range(2), repeat=poly.nvars):
        nc = poly.shift([F2.el(v) for v in combo]).nonconstant_sparsity()
        best = nc if best is None else min(best, nc)
    return best


def test_empty_encoding_products_stay_constant():
    # a system with no equations encodes to a bare constant, and powers
    # of a constant keep zero nonconstant monomials
    for n in (1, 2):
        enc = encode_max3lin(Max3LinSystem(F2, n, []), e0=F2.one)
        assert enc.polynomial.nonconstant_sparsity() == 0
        for d in (1, 2, 3):
            inst = amplify(enc.polynomial, d)
            assert min_nonconstant_f2(inst.polynomial) == 0
            assert 0 == min_nonconstant_f2(enc.polynomial) ** d


def test_product_nonconstant_minimum_decomposes():
    # with disjoint copies over a field, a shifted product's nonconstant
    # count is s1*s2 - c1*c2 for per-copy profiles (s, c); the product
    # minimum is governed by the reachable profile set, and is bounded
    # below by the square of the base minimum
    rows = [((0, 1, 2), (F2.one, F2.one, F2.one), F2.one)]
    enc = encode_max3lin(Max3LinSystem(F2, 3, rows), e0=F2.one)
    base = enc.polynomial
    assert base.nvars == 6

    profiles = exhaustive_f2_profiles(base)
    expected = min(s1 * s2 - c1 * c2 for s1, c1 in profiles for s2, c2 in profiles)

    inst = amplify(base, 2)
    actual = min_nonconstant_f2(inst.polynomial)
    assert actual == expected

    base_min = min_nonconstant_f2(base)
    assert actual >= base_min ** 2


def test_amplified_bytes_are_pinned():
    """The digest of a written 28,561-term product (13^4 terms of degree
    up to 8 over 24 variables), and its reload, which writes the same
    bytes: the text writer and reader at construction size."""
    from hashlib import sha256

    from shiftforge import gen_max3lin
    from shiftforge.sparsepoly import poly_from_text, poly_to_text

    rng = random.Random(89)
    F5 = prime_field(5)
    while True:
        system = gen_max3lin(3, 3, F5, planted=True, seed=rng.randrange(10 ** 6))
        enc = encode_max3lin(system)
        if enc.polynomial.sparsity() == 13:
            break
    amp = amplify(enc.polynomial, 4).polynomial
    text = poly_to_text(amp)
    assert amp.sparsity() == 28561 and amp.nvars == 24
    assert sha256(text.encode()).hexdigest() == (
        "fb13f116d076b9fd4f3bd187178f3b455031116e5536836fdd277bb0183b625e")
    reloaded = poly_from_text(text)
    assert reloaded == amp and poly_to_text(reloaded) == text


def iterated_product(base, copies):
    """The product of the renamed copies of base, taken copy by copy."""
    n = base.nvars
    names = ["%s__c%d" % (name, k) for k in range(copies) for name in base.var_names]
    poly = base.embed(n * copies, 0, names)
    for k in range(1, copies):
        poly = poly.mul(base.embed(n * copies, k * n, names))
    return poly


def test_amplify_keeps_the_iterated_products_order_and_bytes(tmp_path):
    """amplify, which multiplies the copies on each side of the cut first,
    gives the keys of the product taken copy by copy in the same order,
    and, through the view it holds, the bytes written from the cut of a
    view-less copy; over Z, F5 and Z6, with odd and even base widths and
    a constant term."""
    rng = random.Random(293)
    for ring in (ZZ, prime_field(5), Z6):
        for nvars in (1, 2, 3, 6):
            terms = random_poly(ring, nvars, 2, 3, rng).terms
            terms[(0,) * nvars] = random_nonzero(ring, rng)
            base = SparsePoly(ring, nvars, terms)
            for d in range(1, 6):
                if base.sparsity() ** d > 2000:
                    continue
                amp = amplify(base, d).polynomial
                want = iterated_product(base, d)
                assert amp.var_names == want.var_names
                assert list(amp.sparse_terms.items()) == list(want.sparse_terms.items())
                plain = SparsePoly._from_payloads(ring, amp.nvars, dict(want.sparse_terms),
                                                  want.var_names)
                save_poly(str(tmp_path / "amp.poly"), amp)
                save_poly(str(tmp_path / "want.poly"), plain)
                assert ((tmp_path / "amp.poly").read_bytes()
                        == (tmp_path / "want.poly").read_bytes())


def test_construct_shape_holds_its_view_and_its_first_shift_cuts_nothing(monkeypatch):
    """The benchmark's construct shape, 4 copies of a 13-term F5 encoding,
    holds its view right after amplify, so its first shift makes no
    cut_keys call, and shifts as a copy that holds no view."""
    from shiftforge import gen_max3lin, sparsepoly

    F5 = prime_field(5)
    rng = random.Random(89)
    while True:
        system = gen_max3lin(3, 3, F5, planted=True, seed=rng.randrange(10 ** 6))
        base = encode_max3lin(system).polynomial
        if base.sparsity() == 13:
            break
    amp = amplify(base, 4).polynomial
    assert amp.sparsity() == 28561 and amp._halves is not None
    vec = [F5.el(v) for v in (0, 0, 0, 1, 2, 3) * 4]
    cuts = []
    real = sparsepoly.cut_keys
    monkeypatch.setattr(sparsepoly, "cut_keys",
                        lambda terms, h: cuts.append(h) or real(terms, h))
    shifted = amp.shift(vec)
    assert cuts == []
    plain = SparsePoly._from_payloads(F5, 24, dict(amp.sparse_terms), amp.var_names)
    assert plain.shift(vec) == shifted and cuts == [12]
