"""Canonical sparse polynomials: arithmetic, shift, and serialization."""

import inspect
import operator
import random
import textwrap
import time
from fractions import Fraction
from itertools import chain, product
from math import comb

import pytest

from shiftforge import (
    ArityError,
    CapExceededError,
    FormatError,
    QQ,
    Ring,
    RingMismatchError,
    SparsePoly,
    ZZ,
    modular,
    prime_field,
)
from shiftforge import sparsepoly
from shiftforge.amplifier import amplified_shift, amplify
from shiftforge.sparsepoly import (
    cut_keys,
    dense_exps,
    format_vector,
    parse_vector,
    poly_from_text,
    poly_to_text,
    shifted_term_map,
    slot_table,
    term_lines,
)

from helpers import (
    assert_canonical,
    random_element,
    random_nonzero,
    random_poly,
    random_vector,
    sorted_merge_shift,
    sparse_terms,
)

F5 = prime_field(5)
Z6 = modular(6)


def P(ring, nvars, terms, names=None):
    return SparsePoly(ring, nvars, terms, names)


def test_sparsity_examples():
    assert SparsePoly.zero(ZZ, 2).sparsity() == 0
    assert P(ZZ, 1, {(2,): 1, (1,): 2, (0,): 1}).sparsity() == 3
    cancel = P(ZZ, 1, {(2,): 1}).add(P(ZZ, 1, {(2,): -1}))
    assert cancel.sparsity() == 0
    assert cancel.is_zero


def test_nonconstant_sparsity_examples():
    assert P(ZZ, 1, {(1,): 1, (0,): 1}).nonconstant_sparsity() == 1
    assert SparsePoly.constant(ZZ, 1, 5).nonconstant_sparsity() == 0
    q = P(ZZ, 4, {(1, 0, 0, 1): 1, (1, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    assert q.nonconstant_sparsity() == 2


def test_constructor_accumulates_and_strips_zeros():
    p = P(F5, 1, {(1,): 3})
    q = P(F5, 1, {(1,): 2})
    assert p.add(q).sparsity() == 0
    assert P(ZZ, 2, {(1, 0): 0}).is_zero


def test_constructor_validates():
    with pytest.raises(ArityError):
        P(ZZ, 2, {(1,): 1})
    with pytest.raises(ValueError):
        P(ZZ, 1, {(-1,): 1})
    with pytest.raises(ValueError):
        P(ZZ, 2, {(1.0, 0): 1})
    with pytest.raises(ValueError):
        P(ZZ, 2, {("1", 0): 1})
    with pytest.raises(RingMismatchError):
        P(ZZ, 1, {(1,): F5.el(1)})


def test_coefficient_reads_dense_vectors():
    p = P(ZZ, 3, {(0, 2, 0): 5, (0, 0, 0): 7})
    assert p.coefficient((0, 2, 0)) == ZZ.el(5)
    assert p.coefficient([0, 0, 0]) == ZZ.el(7)
    assert p.coefficient((2, 0, 0)) == ZZ.zero
    with pytest.raises(ArityError):
        p.coefficient((0, 2, 0, 0))


def test_shift_identity_and_examples():
    square = P(ZZ, 1, {(2,): 1, (1,): 2, (0,): 1})
    zero_shift = square.shift([ZZ.zero])
    assert zero_shift == square
    shifted = square.shift([ZZ.el(-1)])
    assert shifted == P(ZZ, 1, {(2,): 1})
    assert shifted.sparsity() == 1
    p = P(ZZ, 1, {(2,): 1, (1,): -2})
    assert p.shift([ZZ.el(1)]) == P(ZZ, 1, {(2,): 1, (0,): -1})


def test_shift_requires_matching_arity_and_ring():
    p = P(ZZ, 2, {(1, 1): 1})
    with pytest.raises(ArityError):
        p.shift([ZZ.one])
    with pytest.raises(RingMismatchError):
        p.shift([F5.one, F5.one])


def test_shift_group_action():
    rng = random.Random(23)
    for ring in (ZZ, QQ, F5, Z6):
        for _ in range(500):
            p = random_poly(ring, 2, 3, 4, rng)
            a = random_vector(ring, rng, 2)
            b = random_vector(ring, rng, 2)
            ab = tuple(x + y for x, y in zip(a, b))
            assert p.shift(a).shift(b) == p.shift(ab)
            assert p.shift([ring.zero, ring.zero]) == p


def test_shift_eval_compatibility():
    rng = random.Random(29)
    for ring in (ZZ, QQ, F5, Z6):
        p = random_poly(ring, 3, 3, 5, rng)
        a = random_vector(ring, rng, 3)
        for _ in range(100):
            x = random_vector(ring, rng, 3)
            moved = tuple(xi + ai for xi, ai in zip(x, a))
            assert p.shift(a).eval(x) == p.eval(moved)


def test_mul_examples():
    x_plus = P(ZZ, 1, {(1,): 1, (0,): 1})
    x_minus = P(ZZ, 1, {(1,): 1, (0,): -1})
    assert x_plus.mul(x_minus) == P(ZZ, 1, {(2,): 1, (0,): -1})
    p = P(ZZ, 2, {(1, 0): 1, (0, 0): 1})
    q = P(ZZ, 2, {(0, 1): 1, (0, 0): 1})
    prod = p.mul(q)
    assert prod == P(ZZ, 2, {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert prod.sparsity() == 4


def test_mul_zero_divisor_cancellation():
    # (2x + 3)(2y + 3) = 4xy + 6x + 6y + 9 = 4xy + 3 mod 6
    p = P(Z6, 2, {(1, 0): 2, (0, 0): 3})
    q = P(Z6, 2, {(0, 1): 2, (0, 0): 3})
    prod = p.mul(q)
    assert prod == P(Z6, 2, {(1, 1): 4, (0, 0): 3})
    assert prod.sparsity() == 2 < 4


def test_disjoint_mul_multiplicative_over_domains():
    rng = random.Random(31)
    for ring in (ZZ, QQ, F5):
        for _ in range(50):
            p = random_poly(ring, 4, 2, 3, rng).embed(8, 0)
            q = random_poly(ring, 4, 2, 3, rng).embed(8, 4)
            assert p.mul(q).sparsity() == p.sparsity() * q.sparsity()
    for _ in range(50):
        p = random_poly(Z6, 4, 2, 3, rng).embed(8, 0)
        q = random_poly(Z6, 4, 2, 3, rng).embed(8, 4)
        assert p.mul(q).sparsity() <= p.sparsity() * q.sparsity()


def test_from_payloads_keeps_a_canonical_map_and_copies_any_other():
    """A zero-free map of canonical payloads, read as reduced or over Z,
    is taken over as it is; a map that holds a 0, or one that is reduced
    on the way, is copied, and the caller's map is left unchanged."""
    names = ("x", "y")
    for ring in (ZZ, QQ, F5, Z6):
        one, two = ring.el(1).val, ring.el(-2).val
        for reduced in (False, True):
            terms = {(0, 1): one, (0, 2, 1, 1): two, (): one}
            poly = SparsePoly._from_payloads(ring, 2, terms, names, reduced)
            assert (poly.sparse_terms is terms) == (reduced or ring is ZZ)
            assert poly.sparse_terms == {(0, 1): one, (0, 2, 1, 1): two, (): one}
            assert_canonical(poly)
            holed = {(0, 1): one, (1, 1): ring.canon(0), (): two}
            before = dict(holed)
            poly = SparsePoly._from_payloads(ring, 2, holed, names, reduced)
            assert poly.sparse_terms is not holed
            assert poly.sparse_terms == {(0, 1): one, (): two}
            assert list(holed.items()) == list(before.items())
            assert_canonical(poly)


def disjoint_operands(rng):
    """Random operands on the disjoint position ranges 0..3 and 4..7 over
    Z, Q, F5 and Z6, the ranges mul concatenates in one comprehension."""
    cases = []
    for ring in (ZZ, QQ, F5, Z6):
        for _ in range(40):
            p = random_poly(ring, 4, 3, 5, rng).embed(8, 0)
            q = random_poly(ring, 4, 3, 5, rng).embed(8, 4)
            cases.append((p, q))
    return cases


def test_disjoint_mul_matches_the_general_product():
    for p, q in disjoint_operands(random.Random(43)):
        got = p.mul(q)
        want = SparsePoly._from_payloads(
            p.ring, p.nvars, SparsePoly._product(p.sparse_terms, q.sparse_terms),
            p.var_names)
        assert list(got.sparse_terms.items()) == list(want.sparse_terms.items())
        assert_canonical(got)


def test_a_disjoint_product_left_unreduced_is_caught():
    """mul with its disjoint comprehension's `% m` taken out stores
    unreduced F5 payloads; recompiled unchanged, it matches mul."""
    source = textwrap.dedent(inspect.getsource(SparsePoly.mul))

    def mutant(old, new):
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), vars(sparsepoly), namespace)
        return namespace["mul"]

    unreduced = mutant("c1 * c2 % m for", "c1 * c2 for")
    same = mutant("self._align(other)", "self._align(other)")
    cases = [(p, q) for p, q in disjoint_operands(random.Random(47))
             if p.ring is F5]
    assert any(unreduced(p, q) != p.mul(q) for p, q in cases)
    assert all(same(p, q) == p.mul(q) for p, q in cases)


def test_the_empty_vector_round_trips():
    assert format_vector(()) == ""
    for ring in (ZZ, QQ, F5, Z6):
        assert parse_vector("", ring) == ()
        assert parse_vector(" \t ", ring) == ()
        vec = (ring.el(1), ring.el(-2), ring.el(0))
        assert parse_vector(format_vector(vec), ring) == vec
        for text in ("1,,2", ",", "1,", " , "):
            with pytest.raises(FormatError, match="^bad coefficient ''$"):
                parse_vector(text, ring)


def test_degree_examples_and_additivity():
    assert P(ZZ, 2, {(2, 1): 1, (1, 0): 1}).degree() == 3
    assert SparsePoly.zero(ZZ, 2).degree() == 0
    rng = random.Random(37)
    for ring in (ZZ, QQ, F5):
        for _ in range(30):
            p = random_poly(ring, 2, 3, 3, rng)
            q = random_poly(ring, 2, 3, 3, rng)
            assert p.mul(q).degree() == p.degree() + q.degree()


def test_eval_examples():
    p = P(ZZ, 1, {(2,): 1, (0,): -1})
    assert p.eval([ZZ.one]).is_zero
    c = SparsePoly.constant(QQ, 3, QQ.el(7))
    assert c.eval([QQ.el(1), QQ.el(2), QQ.el(3)]) == QQ.el(7)
    cube = P(F5, 1, {(3,): 1})
    assert cube.eval([F5.el(2)]) == F5.el(3)


def test_add_inverse():
    rng = random.Random(41)
    p = random_poly(ZZ, 3, 3, 5, rng)
    assert p.add(p.neg()).is_zero
    assert p.sub(p).is_zero


def test_scale():
    p = P(ZZ, 1, {(1,): 2, (0,): 3})
    assert p.scale(ZZ.el(2)) == P(ZZ, 1, {(1,): 4, (0,): 6})
    assert p.scale(ZZ.zero).is_zero


def test_rename_and_embed():
    p = P(ZZ, 1, {(1,): 1}, ["a"])
    q = p.embed(3, 1, ["u", "v", "w"])
    assert q.nvars == 3
    assert q == P(ZZ, 3, {(0, 1, 0): 1})
    assert q.var_names == ("u", "v", "w")
    r = p.rename(["b"])
    assert r.var_names == ("b",)
    assert r == p  # names are metadata only


def test_str_orders_terms_graded_lex_descending():
    p = P(ZZ, 2, {(0, 0): 1, (1, 1): 1, (2, 0): 1, (0, 1): 1}, ["x", "y"])
    assert str(p) == "x^2 + x*y + y + 1"


def test_file_round_trip_bit_exact():
    rng = random.Random(43)
    for ring in (ZZ, QQ, F5, Z6):
        for _ in range(25):
            p = random_poly(ring, 3, 4, 6, rng)
            text = poly_to_text(p)
            q = poly_from_text(text)
            assert q == p
            assert poly_to_text(q) == text


def token_lines(poly):
    """The `term` lines of poly joined token by token, in the order of
    sorted_keys: the writer's reference."""
    lines = []
    for key in poly.sorted_keys():
        tokens = ["term", poly.ring.format_coeff(poly.sparse_terms[key])]
        tokens += [str(e) for e in dense_exps(key, poly.nvars)]
        lines.append(" ".join(tokens))
    return lines


def test_term_lines_match_the_token_writer():
    """term_lines writes the reference's bytes, and they read back equal,
    over four rings, 0..30 variables and exponents 0..12, so on both sides
    of the one-digit rule."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def polys(draw):
        ring = draw(st.sampled_from((ZZ, QQ, F5, Z6)))
        nvars = draw(st.integers(0, 30))
        top = draw(st.sampled_from((1, 9, 12)))
        # the terms come from a drawn seed, which keeps each draw cheap;
        # each sets up to 8 positions, so rows of any width stay sparse
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        terms = {}
        for _ in range(draw(st.integers(0, 12))):
            exps = [0] * nvars
            for p in rng.sample(range(nvars), min(nvars, rng.randint(0, 8))):
                exps[p] = rng.randint(0, top)
            c = rng.randint(-10 ** 20, 10 ** 20)
            terms[tuple(exps)] = Fraction(c, rng.randint(1, 12)) if ring == QQ else c
        return P(ring, nvars, terms)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(polys())
    def check(p):
        text = poly_to_text(p)
        assert text.splitlines()[2:] == term_lines(p) == token_lines(p)
        assert poly_from_text(text) == p

    check()


def test_term_lines_cut_at_half_match_the_token_writer():
    """term_lines, which builds each row from the halves of its key cut at
    n // 2, writes the reference's bytes: narrow and 24-variable rows,
    300-variable rows with keys across positions 150, 255 and 256, keys
    in one half and the constant, a two-digit exponent in either half
    (the token path then writes the whole polynomial) and degrees above
    9 with one-digit exponents, up to 1,114,119, past the largest code
    point U+10FFFF."""
    rng = random.Random(150)

    def poly(ring, nvars, keys):
        return P(ring, nvars, {dense_exps(k, nvars): random_nonzero(ring, rng)
                               for k in keys})

    def random_keys(nvars, count, top=2):
        keys = set()
        for _ in range(count):
            positions = sorted(rng.sample(range(nvars), rng.randint(0, min(nvars, 5))))
            keys.add(tuple(v for p in positions for v in (p, rng.randint(1, top))))
        return keys

    cases = [poly(ring, n, random_keys(n, 40, 9))
             for ring in (ZZ, F5, QQ) for n in (1, 2, 3, 7, 24)]
    wide = {(149, 1, 150, 2), (150, 1), (254, 1, 255, 1, 256, 1), (255, 2),
            (256, 3), (0, 1, 299, 1), (0, 2, 149, 1), (150, 1, 299, 9), ()}
    cases.append(poly(F5, 300, wide | random_keys(300, 60)))
    for p in (0, 1, 150, 299):  # a two-digit exponent on either side of 150
        cases.append(poly(ZZ, 300, wide | {(p, 10)}))
    cases.append(poly(ZZ, 7, {(0, 10, 6, 1), (3, 1)}))
    cases.append(poly(ZZ, 7, {(2, 1), (5, 12), (6, 9)}))
    cases.append(poly(F5, 3, {(0, 9, 1, 9, 2, 9), (0, 9, 2, 1), (1, 9), ()}))
    cases.append(poly(F5, 24, {tuple(v for p in range(24) for v in (p, 9)), (23, 9)}))
    cases.append(poly(ZZ, 123791, {tuple(v for p in range(123791) for v in (p, 9)), ()}))
    for p in cases:
        assert term_lines(p) == token_lines(p)
        assert poly_from_text(poly_to_text(p)) == p


def test_file_format_fields():
    p = P(QQ, 2, {(1, 0): QQ.one, (0, 0): QQ.parse_coeff("1/2")}, ["u", "v"])
    text = poly_to_text(p)
    lines = text.splitlines()
    assert lines[0] == "ring Q"
    assert lines[1] == "vars 2 u v"
    assert lines[2] == "term 1 1 0"
    assert lines[3] == "term 1/2 0 0"


def test_parse_rejects_duplicates_and_garbage():
    base = "ring Z\nvars 1 x\n"
    with pytest.raises(FormatError):
        poly_from_text(base + "term 1 1\nterm 2 1\n")
    with pytest.raises(FormatError):
        poly_from_text(base + "term 1\n")
    with pytest.raises(FormatError):
        poly_from_text("vars 1 x\nterm 1 1\n")
    with pytest.raises(FormatError):
        poly_from_text(base + "monomial 1 1\n")


def test_comments_and_blank_lines_ignored():
    text = "# header\nring Z\n\nvars 1 x\n# note\nterm 1 1\n"
    assert poly_from_text(text) == P(ZZ, 1, {(1,): 1}, ["x"])


def random_shift_terms(ring, rng, nvars, shifted):
    """Payload terms of degree at most 4 in the shifted positions and up
    to 2 in each of the others."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 4) if shifted else 0):
            exps[rng.choice(shifted)] += 1
        for i in range(nvars):
            if i not in shifted:
                exps[i] = rng.randint(0, 2)
        terms[tuple(exps)] = random_nonzero(ring, rng).val
    return sparse_terms(P(ring, nvars, terms).terms)


def slot_count(ring, table, a):
    """The monomial count that slot_table's (fixed, slots) gives at the
    shift a, a map from shifted position to payload: every slot
    evaluated at a, directly."""
    fixed, slots = table
    count = fixed
    for const, part in slots:
        value = const
        for c, key in part:
            for p, e in zip(key[::2], key[1::2]):
                c *= a[p] ** e
            value += c
        count += bool(ring.canon(value))
    return count


def random_range(rng, nvars, shape):
    """A prefix, suffix, inner or empty range of positions below nvars;
    an inner one needs 3 positions or more and is else the whole range."""
    i = rng.randrange(nvars)
    if shape == "prefix":
        return range(i + 1)
    if shape == "suffix":
        return range(i, nvars)
    if shape == "empty":
        return range(i, i)
    if nvars < 3:
        return range(nvars)
    return range(*sorted(rng.sample(range(1, nvars), 2)))


def slot_table_mismatches(table_of):
    """The cases (ring, terms, shifted, point) where the count of
    table_of's slots differs from the size of the expansion at a random
    point of the shifted range: prefix, suffix, inner and empty ranges,
    and ranges around positions 254 to 257 of keys over 300 variables
    with pairs on both sides of them."""
    rng = random.Random(181)
    spots = [0, 3, 254, 255, 256, 257, 298, 299]
    bad = []
    for ring in (ZZ, QQ, F5, prime_field(2), modular(4), Z6):
        cases = []
        for _ in range(6):
            for shape in ("prefix", "suffix", "inner", "empty"):
                nvars = rng.randint(1, 6)
                shifted = random_range(rng, nvars, shape)
                cases.append((nvars, shifted,
                              random_shift_terms(ring, rng, nvars, shifted)))
        for shifted in (range(254, 258), range(255, 257), range(3, 256)):
            cases.append((300, shifted,
                          spread_poly(ring, rng, 300, spots).sparse_terms))
        for nvars, shifted, terms in cases:
            for nonconstant in (False, True):
                table = table_of(ring, terms, shifted, nonconstant)
                for _ in range(6):
                    point = [ring.canon(0)] * nvars
                    for j in shifted:
                        point[j] = random_element(ring, rng, 2).val
                    out = shifted_term_map(ring, terms, point)
                    if nonconstant:
                        out = [e for e in out if e]
                    if slot_count(ring, table, point) != len(out):
                        bad.append((ring, terms, shifted, point))
    return bad


def test_slot_table_counts_match_expansion_at_random_points():
    assert slot_table_mismatches(slot_table) == []


def test_a_cut_one_position_short_of_the_range_is_caught():
    """A slot_table whose cut stops one position short leaves the last
    shifted position in the rest, and its counts go wrong."""
    source = inspect.getsource(sparsepoly.slot_table)

    def mutant(old, new):
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), vars(sparsepoly), namespace)
        return namespace["slot_table"]

    assert slot_table_mismatches(
        mutant("bisect_left(positions, hi)", "bisect_left(positions, hi - 1)"))
    assert slot_table_mismatches(mutant("    m = ", "    m = ")) == []


def test_slot_table_takes_every_degree_and_bounds_it_first(monkeypatch):
    terms = sparse_terms(P(ZZ, 2, {(3, 0): 1, (0, 1): 1}).terms)
    # P(X + (0, a1)) = x0^3 + x1 + a1: two constant slots, and a1
    assert slot_table(ZZ, terms, range(1, 2)) == (2, [(0, [(1, (1, 1))])])
    assert slot_count(ZZ, slot_table(ZZ, terms, range(1, 2)), [0, 2]) == 3
    # P(X + (a0, 0)) = x0^3 + 3*a0*x0^2 + 3*a0^2*x0 + a0^3 + x1
    assert slot_table(ZZ, terms, range(1)) == (
        2, [(0, [(1, (0, 3))]), (0, [(3, (0, 2))]), (0, [(3, (0, 1))])])
    assert slot_count(ZZ, slot_table(ZZ, terms, range(1)), [2, 0]) == 5
    # over F3, C(3, 1) = C(3, 2) = 0: (x0 + a0)^3 = x0^3 + a0^3
    F3 = prime_field(3)
    assert slot_table(F3, sparse_terms(P(F3, 1, {(3,): 1}).terms), range(1)) == (
        1, [(0, [(1, (0, 3))])])
    # the worst case of the expansion, 4 + 2 terms, is checked first
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "5")
    with pytest.raises(CapExceededError,
                       match=r"^shifted polynomial may reach 6 terms, cap is 5$"):
        slot_table(ZZ, terms, range(2))
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "6")
    assert slot_table(ZZ, terms, range(2))[0] == 2


def test_slot_table_of_a_high_power_builds_its_binomial_row_fast():
    """x^20000 - 1: its row of binomials comes from the Pascal
    recurrence, one product of a big and a small int per entry; one comb
    call per entry took minutes."""
    terms = sparse_terms(P(ZZ, 1, {(20000,): 1, (0,): -1}).terms)
    start = time.process_time()
    fixed, slots = slot_table(ZZ, terms, range(1))
    assert time.process_time() - start < 1
    assert fixed == 1 and len(slots) == 20000
    for j in (0, 1, 777, 10000, 19999):
        assert slots[j] == (-1 if j == 0 else 0,
                            [(comb(20000, j), (0, 20000 - j))])


def test_shift_refuses_a_binomial_row_past_the_bit_bound():
    # 2000^2 times the 201 bits of 2^200 is 804,000,000 > 2^29
    x = P(ZZ, 1, {(2000,): 1})
    with pytest.raises(CapExceededError, match=(
            "^the binomials of exponent 2000 may take 804000000 bits, "
            "the limit is 536870912$")):
        x.shift([ZZ.el(1 << 200)])
    # over a finite ring the powers are reduced, so only the row counts
    assert P(F5, 1, {(20000,): 1}).shift([F5.el(3)]).sparsity() > 0


def random_offsets(ring, rng, k):
    """Nonzero shift entries; over Q, proper fractions too."""
    if ring == QQ:
        return [QQ.el(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
                for _ in range(k)]
    return [random_nonzero(ring, rng) for _ in range(k)]


def test_trusted_producers_match_public_constructor():
    rng = random.Random(223)
    names = ["a", "b", "c"]
    for ring in (ZZ, QQ, F5, Z6):
        for _ in range(15):
            p = random_poly(ring, 3, 3, 6, rng, names)
            q = random_poly(ring, 3, 3, 6, rng, names)
            results = [
                p.add(q), p.sub(q), p.neg(), p.mul(q),
                p.scale(random_element(ring, rng)), p.scale(ring.zero),
                p.shift(random_offsets(ring, rng, 3)),
                p.embed(5, 1), p.embed(5, 2, ["u", "v", "w", "y", "z"]),
                p.rename(["u", "v", "w"]),
                poly_from_text(poly_to_text(p)),
                p.add(p.neg()), p.sub(p),
            ]
            for r in results:
                assert_canonical(r)
            assert p.add(p.neg()).is_zero
    # zero divisors cancel whole terms in Z6
    two_x = P(Z6, 2, {(1, 0): 2})
    assert two_x.scale(Z6.el(3)).is_zero
    assert two_x.mul(P(Z6, 2, {(0, 1): 3, (1, 0): 1})) == P(Z6, 2, {(2, 0): 2})


def dense_product(p, q):
    """p * q on dense exponent vectors, through the public constructor."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(map(operator.add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return P(p.ring, p.nvars, out)


def spread_poly(ring, rng, nvars, spots):
    """A polynomial over nvars variables with exponents only at spots."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps = [0] * nvars
        for p in rng.sample(spots, rng.randint(0, min(4, len(spots)))):
            exps[p] = rng.randint(1, 2)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + random_nonzero(ring, rng).val
    return P(ring, nvars, terms)


def test_key_surgery_matches_dense_references(monkeypatch):
    """shift on moving sets that interleave with the rest of a key, also
    past position 255; mul of operands on ordered disjoint positions, in
    both orders and with a constant or the zero polynomial, which in
    ascending order concatenates keys without the general product."""
    rng = random.Random(239)
    for ring in (ZZ, QQ, F5, Z6):
        for nvars, spots in ((8, list(range(8))),
                             (300, [0, 3, 254, 255, 256, 257, 298, 299])):
            for _ in range(12):
                p = spread_poly(ring, rng, nvars, spots)
                if rng.random() < 0.5:
                    moving = set(spots[rng.randrange(2)::2])
                else:
                    moving = set(rng.sample(spots, rng.randint(1, len(spots) - 1)))
                offsets = [random_offsets(ring, rng, 1)[0] if j in moving
                           else ring.zero for j in range(nvars)]
                assert p.shift(offsets).sparse_terms == sparse_terms(
                    direct_shifted_term_map(ring, p.terms, [o.val for o in offsets]))

                cut = rng.choice(spots[1:])
                low = spread_poly(ring, rng, nvars, [j for j in spots if j < cut])
                high = spread_poly(ring, rng, nvars, [j for j in spots if j >= cut])
                const = P(ring, nvars, {(0,) * nvars: random_nonzero(ring, rng).val})
                zero = P(ring, nvars, {})
                expected = [dense_product(a, b) for a, b in (
                    (low, high), (high, low), (low, const), (const, high),
                    (low, zero), (zero, high))]
                with monkeypatch.context() as patch:
                    patch.setattr(SparsePoly, "_product", None)
                    got = [low.mul(high), None, low.mul(const),
                           const.mul(high), low.mul(zero), zero.mul(high)]
                # the reversed order takes the general product
                got[1] = high.mul(low)
                assert got == expected
                for r in got:
                    assert_canonical(r)
                assert got[-1].is_zero and got[-2].is_zero


def test_rename_and_embed_take_the_canonical_map_as_it_is(monkeypatch):
    p = P(QQ, 3, {(1, 0, 2): Fraction(3, 4), (0, 0, 0): -2}, ["a", "b", "c"])
    monkeypatch.setattr(Ring, "canon", None)
    renamed = p.rename(["u", "v", "w"])
    embedded = p.embed(5, 2)
    assert renamed.sparse_terms is p.sparse_terms
    assert renamed.var_names == ("u", "v", "w")
    assert embedded.sparse_terms == {(2, 1, 4, 2): Fraction(3, 4), (): -2}
    assert embedded.var_names == ("x1", "x2", "x3", "x4", "x5")


def test_shift_of_a_power_matches_binomials():
    e = 2000
    assert shifted_term_map(ZZ, sparse_terms({(e,): 1}), [1]) == sparse_terms({
        (k,): comb(e, k) for k in range(e + 1)
    })
    assert shifted_term_map(F5, sparse_terms({(e,): 1}), [1]) == sparse_terms({
        (k,): comb(e, k) % 5 for k in range(e + 1) if comb(e, k) % 5
    })


def direct_shifted_term_map(ring, terms, offsets):
    """P(X + a) by expanding every variable of every term with math.comb
    and a ** (e - k), then reducing."""
    out = {}
    for exps, c in terms.items():
        factors = [
            [(k, comb(e, k) * a ** (e - k)) for k in range(e + 1)]
            for e, a in zip(exps, offsets)
        ]
        for combo in product(*factors):
            v = c
            for _, s in combo:
                v *= s
            key = tuple(k for k, _ in combo)
            out[key] = out.get(key, 0) + v
    reduced = {e: ring.canon(v) for e, v in out.items()}
    return {e: v for e, v in reduced.items() if v}


def test_shifted_term_map_matches_direct_formula():
    rng = random.Random(227)
    for ring in (ZZ, QQ, F5, Z6):
        for _ in range(25):
            p = random_poly(ring, 3, 7, 5, rng)
            offsets = [o.val for o in random_offsets(ring, rng, 3)]
            if rng.random() < 0.3:
                offsets[rng.randrange(3)] = ring.canon(0)
            assert shifted_term_map(ring, sparse_terms(p.terms), offsets) == (
                sparse_terms(direct_shifted_term_map(ring, p.terms, offsets))
            )


def pooled_poly(ring, rng, nvars, moving):
    """A polynomial over nvars variables whose terms are products of an
    unshifted part and a moving monomial, each from a pool of four, with
    at most 4 nonzero exponents in all: many terms share a group, and
    many groups share a moving monomial."""
    fixed = [p for p in range(nvars) if p not in moving]

    def pool(positions):
        return [{p: rng.randint(1, 3)
                 for p in rng.sample(positions, rng.randint(0, min(2, len(positions))))}
                for _ in range(4)]

    rests, movs = pool(fixed), pool(sorted(moving))
    terms = {}
    for _ in range(rng.randint(1, 14)):
        exps = [0] * nvars
        for p, e in chain(rng.choice(rests).items(), rng.choice(movs).items()):
            exps[p] = e
        terms[tuple(exps)] = random_nonzero(ring, rng).val
    return P(ring, nvars, terms)


def test_regrouped_shift_matches_direct_formula():
    rng = random.Random(229)
    for ring in (ZZ, QQ, F5, modular(4), Z6):
        for _ in range(30):
            nvars = rng.randint(12, 30)
            moving = set(rng.sample(range(nvars), rng.randint(1, nvars - 1)))
            p = pooled_poly(ring, rng, nvars, moving)
            offsets = [random_offsets(ring, rng, 1)[0] if j in moving else ring.zero
                       for j in range(nvars)]
            vals = [o.val for o in offsets]
            assert shifted_term_map(ring, p.sparse_terms, vals) == (
                sparse_terms(direct_shifted_term_map(ring, p.terms, vals)))
            # P(X - a) shifted by a is P again, through cancellation in
            # every group
            back = p.shift([-o for o in offsets])
            assert back.shift(offsets) == p


def test_regrouped_shift_of_amplified_products():
    rng = random.Random(233)
    for ring in (ZZ, F5, Z6):
        for copies in (2, 3):
            base = pooled_poly(ring, rng, 4, {2, 3})
            inst = amplify(base, copies)
            per_copy = [[ring.zero, ring.zero] + random_offsets(ring, rng, 2)
                        for _ in range(copies)]
            flat = [v for vec in per_copy for v in vec]
            assert inst.polynomial.shift(flat) == amplified_shift(inst, per_copy)


def interleaved_cases():
    """(ring, terms, offsets) whose moving positions interleave with the
    others in both halves of n: alternate positions of a 12-variable
    polynomial, and the last 3 of each 6-variable copy of a 4-copy
    product, as in the shifts of amplified encodings."""
    rng = random.Random(251)
    cases = []
    for ring in (ZZ, F5, Z6):
        for moving in (set(range(1, 12, 2)), {0, 5, 6, 11}):
            p = pooled_poly(ring, rng, 12, moving)
            offsets = [rng.randint(1, 4) if j in moving else 0 for j in range(12)]
            cases.append((ring, p.sparse_terms, offsets))
        base = pooled_poly(ring, rng, 6, {3, 4, 5})
        offsets = [rng.randint(1, 4) if j % 6 > 2 else 0 for j in range(24)]
        cases.append((ring, amplify(base, 4).polynomial.sparse_terms, offsets))
    return cases


def edge_cases():
    """(ring, terms, offsets) at the edges of the cut at h = len(offsets)
    // 2: an odd n, n = 1 (h = 0), offsets shorter than the keys (the
    positions past them are unshifted), positions past 255, Q offsets
    with large denominators, and Z6 sums that vanish after stage 1 (in a
    row copied to the output) or after stage 2 (in a line, alone or with
    a copied row)."""
    rng = random.Random(257)
    cases = []
    for ring in (ZZ, QQ, F5, Z6):
        def offsets(n, moving):
            return [random_offsets(ring, rng, 1)[0].val if j in moving
                    else ring.canon(0) for j in range(n)]

        moving = {1, 4, 6, 7, 9, 12}
        cases.append((ring, pooled_poly(ring, rng, 13, moving).sparse_terms,
                      offsets(13, moving)))
        cases.append((ring, random_poly(ring, 1, 6, 5, rng).sparse_terms,
                      offsets(1, {0})))
        cases.append((ring, pooled_poly(ring, rng, 12, {0, 2, 3}).sparse_terms,
                      offsets(5, {0, 1, 2, 3})))
        spots = [0, 3, 149, 150, 254, 255, 256, 257, 298, 299]
        cases.append((ring, spread_poly(ring, rng, 300, spots).sparse_terms,
                      offsets(300, {3, 150, 255, 256, 299})))
    for _ in range(3):
        p = pooled_poly(QQ, rng, 8, {1, 2, 5, 6})
        cases.append((QQ, p.sparse_terms,
                      [Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1,
                                10 ** 12 + rng.randrange(10 ** 6)) if j in {1, 2, 5, 6}
                       else Fraction(0) for j in range(8)]))
    # over Z6, offsets (0, 3): 2*x1 + 6, the 6 dropped after stage 1
    cases.append((Z6, {(1, 1): 2, (0, 1): 1}, [0, 3]))
    # offsets (2, 0): 3*x0*x1 gives 6*x1 in the line of (), dropped
    # after stage 2; x0*x1 + 4*x1 + 5*x0 gives 2*x1 there, which cancels
    # the 4*x1 that the row of () copies out
    cases.append((Z6, {(0, 1, 1, 1): 3}, [2, 0]))
    cases.append((Z6, {(0, 1, 1, 1): 1, (1, 1): 4, (0, 1): 5}, [2, 0]))
    return cases


def test_halves_shift_matches_the_sorted_merge_and_the_direct_formula():
    """The term map of the shift by halves, cut at len(offsets) // 2,
    equals that of the whole-key sorted merge and of the direct formula
    on dense vectors.  Maps are compared, not their order: every consumer
    sorts them (term_lines, sorted_keys), counts them, or compares them."""
    for ring, terms, offsets in interleaved_cases() + edge_cases():
        got = shifted_term_map(ring, terms, offsets)
        assert got == sorted_merge_shift(ring, terms, offsets)
        n = max([len(offsets)] + [k[-2] + 1 for k in terms if k])
        dense = {dense_exps(k, n): c for k, c in terms.items()}
        padded = list(offsets) + [0] * (n - len(offsets))
        assert got == sparse_terms(direct_shifted_term_map(ring, dense, padded))


def test_stage_mutants_of_the_halves_shift_are_caught():
    """A stage 2 that takes a shifted left half as its own expansion, and
    a stage 1 that keeps the sums that reduce to zero, each give a wrong
    map on the interleaved and edge cases."""
    source = inspect.getsource(sparsepoly.shifted_term_map)

    def mutant(old, new):
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), vars(sparsepoly), namespace)
        return namespace["shifted_term_map"]

    unexpanded = mutant("in _expansion(left, offsets, m):", "in [(left, 1)]:")
    zeros = mutant("                if v:\n                    out[left",
                   "                if True:\n                    out[left")
    same = mutant("    return out\n", "    return out\n")
    cases = interleaved_cases() + edge_cases()
    for shift in (unexpanded, zeros):
        assert any(shift(ring, terms, offsets) != sorted_merge_shift(ring, terms, offsets)
                   for ring, terms, offsets in cases), shift
    assert all(same(ring, terms, offsets) == sorted_merge_shift(ring, terms, offsets)
               for ring, terms, offsets in cases)


def view_map(view):
    """A cut_keys view as {left half: {right half: payload}}, after
    checking that its numbers name distinct right halves."""
    rows, rights = view
    assert len(set(rights)) == len(rights)
    return {left: {rights[j]: c for j, c in row.items()} for left, row in rows.items()}


def holds_its_cut(p):
    """Whether p.halves() is the cut at nvars // 2 recomputed from
    sparse_terms."""
    return view_map(p.halves()) == view_map(cut_keys(p.sparse_terms, p.nvars // 2))


def halves_texts():
    """(text, handed): .poly texts, and whether poly_from_text hands the
    reader's cut over.  Fixed-width files of an amplified encoding over
    F5 and of random Z, Q and Z6 polynomials are; the F5 one is not with
    a token row (an exponent of 10) before or after the fixed-width rows,
    nor with a `term 0` row, nor over Zq 6 with a payload of 12."""
    rng = random.Random(263)
    amp = poly_to_text(amplify(pooled_poly(F5, rng, 6, {3, 4, 5}), 3).polynomial)
    head, rows = amp.split("term ", 1)
    nines = "9 " * 17 + "9"
    cases = [(amp, True)]
    for ring in (ZZ, QQ, Z6):
        for nvars in (1, 2, 7):
            cases.append((poly_to_text(random_poly(ring, nvars, 9, 12, rng)), True))
    cases += [
        (head + "term 2 " + "0 " * 17 + "10\n" + "term " + rows, False),
        (amp + "term 3 10 " + "0 " * 16 + "0\n", False),
        (amp + "term 0 " + nines + "\n", False),
        (amp.replace("ring Fp 5", "ring Zq 6") + "term 12 " + nines + "\n", False),
        (amp.replace("ring Fp 5", "ring Zq 6"), True),
    ]
    return cases


def test_the_view_a_polynomial_holds_is_the_cut_of_its_terms():
    """halves(), handed over by the reader or made from sparse_terms, equals
    cut_keys at nvars // 2 recomputed from sparse_terms, as maps: for the
    files of halves_texts, the terms and shift results of the interleaved
    and edge cases, and a shift by a view cut at any position.  The
    writer gives the token writer's lines from a handed-over view."""
    for text, handed in halves_texts():
        p = poly_from_text(text)
        assert (p._halves is not None) == handed
        assert holds_its_cut(p)
        assert term_lines(p) == token_lines(p)
    for ring, terms, offsets in interleaved_cases() + edge_cases():
        n = max([len(offsets)] + [k[-2] + 1 for k in terms if k])
        p = SparsePoly._from_payloads(ring, n, dict(terms), None)
        assert holds_its_cut(p)
        vec = [ring.el(v) for v in offsets] + [ring.zero] * (n - len(offsets))
        assert holds_its_cut(p.shift(vec))
        want = shifted_term_map(ring, terms, offsets)
        for h in (0, len(offsets) // 2, n):
            assert shifted_term_map(ring, terms, offsets, cut_keys(terms, h)) == want


def test_handing_over_a_view_the_map_does_not_match_is_caught():
    """poly_from_text recompiled to hand the reader's cut over after a row
    read by read_term, or after _from_payloads dropped a zero payload,
    gives a view that is not the cut of the polynomial's terms; as it is,
    every view is."""
    source = textwrap.dedent(inspect.getsource(sparsepoly.poly_from_text))

    def mutant(old, new):
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), vars(sparsepoly), namespace)
        return namespace["poly_from_text"]

    token_row = mutant("if reader.rows is not None and poly", "if poly")
    dropped = mutant(" and poly.sparse_terms is terms:", ":")
    same = mutant("    return poly\n", "    return poly\n")

    def views_hold(read):
        return all(holds_its_cut(read(text)) for text, _ in halves_texts())

    assert views_hold(same)
    assert not views_hold(token_row)
    assert not views_hold(dropped)


def exact_view(view):
    """A cut_keys view with its orders: the rows' items, each row's items,
    and the rights."""
    rows, rights = view
    return [(left, list(row.items())) for left, row in rows.items()], rights


def product_views():
    """(product, handed) for products of disjoint ordered operands over Z,
    Q, F5 and Z6 that meet at, below and above the cut at nvars // 2, and
    whether mul must hand the product its view: where every key of the
    first ends below the cut, every key of the second starts at or after
    it, and the product is not 0 and has no Z_q zero term."""
    rng = random.Random(281)
    cases = []
    for ring in (ZZ, QQ, F5, Z6):
        for nvars in (1, 2, 7, 10):
            h = nvars // 2
            for split in sorted({max(h - 1, 0), h, min(h + 1, nvars)}):
                for _ in range(3):
                    low = spread_poly(ring, rng, nvars, list(range(split)))
                    high = spread_poly(ring, rng, nvars, list(range(split, nvars)))
                    p = low.mul(high)
                    last = max((k[-2] for k in low.sparse_terms if k), default=-1)
                    first = min((k[0] for k in high.sparse_terms if k), default=nvars)
                    kept = 0 < p.sparsity() == low.sparsity() * high.sparsity()
                    cases.append((p, last < h <= first and kept))
    return cases


def handed_views_hold():
    """Whether mul hands over a view exactly where product_views says, and
    the view is cut_keys at nvars // 2 of the product's map, with its
    orders; and whether the construct-shaped amplified polynomial holds
    one."""
    for p, handed in product_views():
        if (p._halves is not None) != handed:
            return False
        if exact_view(p.halves()) != exact_view(cut_keys(p.sparse_terms, p.nvars // 2)):
            return False
    amp = amplify(pooled_poly(F5, random.Random(283), 6, {3, 4, 5}), 4).polynomial
    return amp._halves is not None


def test_disjoint_products_hand_over_the_cut_of_their_terms():
    """A product whose operands lie on either side of the cut holds its
    view, which is the cut of its terms, aligned or not; a Z6 product
    whose 2 * 3 cross term vanishes holds none."""
    cases = product_views()
    assert handed_views_hold()
    assert {handed for _, handed in cases} == {True, False}
    assert {p.ring for p, handed in cases if handed} == {ZZ, QQ, F5, Z6}
    low = P(Z6, 2, {(1, 0): 2, (0, 0): 1})
    high = P(Z6, 2, {(0, 1): 3, (0, 0): 1})
    p = low.mul(high)
    assert p.sparse_terms == {(0, 1): 2, (1, 1): 3, (): 1}
    assert p._halves is None and holds_its_cut(p)
    assert low.mul(P(Z6, 2, {(0, 1): 1, (0, 0): 1}))._halves is not None


def test_mutants_of_the_product_hand_over_are_caught(monkeypatch):
    """mul recompiled to test the operands against h - 1 instead of the
    cut h, or with its rights reversed, hands over no view or a wrong
    one; as it is, every view holds."""
    source = textwrap.dedent(inspect.getsource(SparsePoly.mul))

    def mutant(old, new):
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), vars(sparsepoly), namespace)
        return namespace["mul"]

    muls = {
        "same": mutant("    return poly\n", "    return poly\n"),
        "h - 1": mutant("last < self.nvars // 2 <= first",
                        "last < self.nvars // 2 - 1 <= first"),
        "reversed": mutant("list(theirs))", "list(theirs)[::-1])"),
    }
    for name, mul in muls.items():
        monkeypatch.setattr(SparsePoly, "mul", mul)
        assert handed_views_hold() == (name == "same"), name


def test_shift_cap_counts_every_term_of_a_shared_moving_monomial(monkeypatch):
    # ten groups share the moving monomial y^5: 10 * 6 monomials at most
    terms = {tuple(1 if j == i else 0 for j in range(10)) + (5,): 1 for i in range(10)}
    p = P(ZZ, 11, terms)
    by = [ZZ.zero] * 10 + [ZZ.one]
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "59")
    with pytest.raises(CapExceededError,
                       match=r"^shifted polynomial may reach 60 terms, cap is 59$"):
        p.shift(by)
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "60")
    assert p.shift(by).sparsity() == 60


def test_exponents_are_read_as_integers():
    base = "ring Z\nvars 3 x y z\n"
    assert poly_from_text(base + "term 2 00 1 -0\n") == P(ZZ, 3, {(0, 1, 0): 2},
                                                          ["x", "y", "z"])
    with pytest.raises(FormatError, match=r"duplicate exponent vector \(0, 1, 0\)"):
        poly_from_text(base + "term 1 0 1 0\nterm 2 00 1 0\n")
    with pytest.raises(FormatError, match="negative exponent in 'term 1 0 -1 2'"):
        poly_from_text(base + "term 1 0 -1 2\n")
    with pytest.raises(FormatError, match="bad integer 'q' in 'term 1 0 q -1'"):
        poly_from_text(base + "term 1 0 q -1\n")


def test_read_payloads_lose_their_zeros_and_are_reduced_once():
    # a 0 row, a row that reduces to 0 and one that reduces to 2, each
    # also as the one row of a file, read in one pass or token by token
    rows = ["term 0 1 0\n", "term 5 0 1\n", "term 7 0 0\n", "term 0\t1 1\n"]
    for text in ["".join(rows)] + rows:
        got = poly_from_text("ring Fp 5\nvars 2 x y\n" + text)
        assert_canonical(got)
        assert got.sparse_terms == ({(): 2} if "term 7" in text else {})


def test_term_cap_bounds_whole_products(monkeypatch):
    x = P(ZZ, 2, {(e, 0): 1 for e in range(20)})
    y = P(ZZ, 2, {(0, e): 1 for e in range(20)})
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "399")
    with pytest.raises(CapExceededError, match="product may reach 400 terms"):
        x.mul(y)
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "400")
    assert x.mul(y).sparsity() == 400


def wide_poly(ring, rng, nvars):
    """A polynomial over a wide catalog whose terms have at most 4
    nonzero exponents, at most 3 each; sometimes a constant."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * nvars
        for p in rng.sample(range(nvars), rng.randint(0, 4)):
            exps[p] = rng.randint(1, 3)
        terms[tuple(exps)] = random_offsets(ring, rng, 1)[0]
    return P(ring, nvars, terms)


def test_arithmetic_and_text_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(271)
    for ring in (ZZ, QQ, F5, prime_field(7), Z6, modular(4)):
        for _ in range(4):
            nvars = rng.randint(30, 40)
            gens = sympy.symbols("x0:%d" % nvars)

            def expr(poly):
                return sympy.Add(*(
                    sympy.Rational(str(c)) * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
                    for exps, c in poly.terms.items()))

            def reference(e):
                """The grlex-descending terms of e, expanded over Z or Q and
                reduced into the ring."""
                out = []
                for exps, c in sympy.Poly(e, *gens).terms(order="grlex"):
                    c = ring.canon(Fraction(int(c.p), int(c.q)) if ring == QQ else int(c))
                    if c:
                        out.append((exps, c))
                return out

            def check(poly, e):
                assert sorted(poly.terms.items()) == sorted(reference(e))

            p, q = wide_poly(ring, rng, nvars), wide_poly(ring, rng, nvars)
            offsets = [ring.zero] * nvars
            for i in rng.sample(range(nvars), rng.randint(1, 8)):
                offsets[i] = random_offsets(ring, rng, 1)[0]
            shifted = p.shift(offsets)
            check(shifted, expr(p).xreplace(
                {g: g + sympy.Rational(str(a.val)) for g, a in zip(gens, offsets)}))
            assert shifted.shift([-a for a in offsets]) == p
            check(p.mul(q), expr(p) * expr(q))
            check(p.add(q), expr(p) + expr(q))
            assert p.add(p.neg()).is_zero
            for poly in (p, shifted):
                text = poly_to_text(poly)
                rows = [line.split()[1:] for line in text.splitlines()[2:]]
                want = reference(expr(poly))
                assert [tuple(map(int, r[1:])) for r in rows] == [e for e, _ in want]
                assert [ring.parse_payload(r[0]) for r in rows] == [c for _, c in want]
                assert poly_from_text(text) == poly
