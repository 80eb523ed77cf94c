"""Canonical sparse polynomials: arithmetic, shift, and serialization."""

import random
from fractions import Fraction
from itertools import chain, product
from math import comb

import pytest

from shiftforge import (
    ArityError,
    CapExceededError,
    FormatError,
    PreconditionError,
    QQ,
    RingMismatchError,
    SparsePoly,
    ZZ,
    modular,
    prime_field,
)
from shiftforge.amplifier import amplified_shift, amplify
from shiftforge.sparsepoly import (
    poly_from_text,
    poly_to_text,
    shift_counts,
    shifted_term_map,
)

from helpers import (
    assert_canonical,
    random_element,
    random_nonzero,
    random_poly,
    random_vector,
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
    """Payload terms of degree at most 2 in the shifted positions and up
    to 2 in each of the others."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 2)):
            exps[rng.choice(shifted)] += 1
        for i in range(nvars):
            if i not in shifted:
                exps[i] = rng.randint(0, 2)
        terms[tuple(exps)] = random_nonzero(ring, rng).val
    return sparse_terms(P(ring, nvars, terms).terms)


def test_shift_counts_match_expansion_along_random_walks():
    rng = random.Random(181)
    for ring in (ZZ, QQ, F5, prime_field(2), modular(4), Z6):
        for _ in range(25):
            nvars = rng.randint(1, 5)
            shifted = sorted(rng.sample(range(nvars), rng.randint(1, nvars)))
            terms = random_shift_terms(ring, rng, nvars, shifted)
            a = [ring.canon(0)] * nvars
            walk = []
            points = []
            for _ in range(12):
                changes = [(j, random_element(ring, rng, 2).val)
                           for j in rng.sample(shifted, rng.randint(1, len(shifted)))]
                for j, v in changes:
                    a[j] = v
                walk.append((changes, len(points)))
                points.append(list(a))
            for nonconstant in (False, True):
                steps = list(shift_counts(ring, terms, shifted, walk, nonconstant))
                assert [tag for _, tag in steps] == list(range(len(points)))
                for (count, tag), point in zip(steps, points):
                    out = shifted_term_map(ring, terms, point)
                    if nonconstant:
                        out = [e for e in out if sum(e)]
                    assert count == len(out), (ring, terms, shifted, point)


def test_shift_counts_needs_degree_two_in_the_shifted_positions():
    terms = sparse_terms(P(ZZ, 2, {(3, 0): 1, (0, 1): 1}).terms)
    assert list(shift_counts(ZZ, terms, [1], [([(1, 2)], None)])) == [(3, None)]
    with pytest.raises(PreconditionError):
        next(shift_counts(ZZ, terms, [0], [([(0, 2)], None)]))


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
