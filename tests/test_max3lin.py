"""Three-variable linear rows and their quadratic shift encodings."""

import itertools
import random

import pytest

from shiftforge import (
    ArityError,
    FormatError,
    Max3LinSystem,
    PreconditionError,
    RingMismatchError,
    ZZ,
    count_satisfied,
    embed_assignment,
    encode_max3lin,
    gen_max3lin,
    load_max3lin,
    maxsat,
    prime_field,
    project_assignment,
    save_max3lin,
    search_min_sparsity,
    shifted_linear_coeff,
)
from shiftforge.max3lin import max3lin_from_text, max3lin_to_text
from shiftforge.oracles import SearchDomain

F2 = prime_field(2)
F3 = prime_field(3)


def single_row_f2():
    return Max3LinSystem(F2, 3, [((0, 1, 2), (F2.one,) * 3, F2.one)])


def all_points(ring, k):
    for combo in itertools.product(range(ring.modulus), repeat=k):
        yield [ring.el(v) for v in combo]


def test_row_validation():
    good = ((0, 1, 2), (F2.one,) * 3, F2.zero)
    Max3LinSystem(F2, 3, [good])
    with pytest.raises(PreconditionError):
        Max3LinSystem(F2, 3, [((0, 1, 1), (F2.one,) * 3, F2.zero)])
    with pytest.raises(PreconditionError):
        Max3LinSystem(F2, 3, [((0, 1, 2), (F2.one, F2.one, F2.zero), F2.zero)])
    with pytest.raises(ArityError):
        Max3LinSystem(F2, 3, [((0, 1, 3), (F2.one,) * 3, F2.zero)])
    with pytest.raises(RingMismatchError):
        Max3LinSystem(F2, 3, [((0, 1, 2), (F2.one, F2.one, F3.one), F2.zero)])
    with pytest.raises(PreconditionError):
        Max3LinSystem(F2, -1, [])


def test_row_ring_is_compared_by_value():
    # an equal ring built twice passes the check that identity spares;
    # another ring does not
    other_f2 = prime_field(2)
    assert other_f2 is not F2
    row = ((0, 1, 2), (other_f2.one, F2.one, other_f2.one), other_f2.zero)
    assert Max3LinSystem(F2, 3, [row]).rows == (row,)
    for entry in range(4):
        bad = [F2.one] * 4
        bad[entry] = F3.one
        with pytest.raises(RingMismatchError):
            Max3LinSystem(F2, 3, [((0, 1, 2), tuple(bad[:3]), bad[3])])


def test_width_is_max_of_doubled_counts():
    assert single_row_f2().w == 6
    assert Max3LinSystem(F2, 1, []).w == 2
    rows = [
        ((0, 1, 2), (F2.one,) * 3, F2.zero),
        ((0, 1, 2), (F2.one,) * 3, F2.one),
        ((0, 1, 2), (F2.one,) * 3, F2.zero),
        ((0, 1, 2), (F2.one,) * 3, F2.one),
    ]
    assert Max3LinSystem(F2, 3, rows).w == 8


def test_count_satisfied_examples():
    L = single_row_f2()
    assert count_satisfied(L, [F2.one, F2.zero, F2.zero]) == 1
    assert count_satisfied(L, [F2.zero, F2.zero, F2.zero]) == 0
    with pytest.raises(ArityError):
        count_satisfied(L, [F2.one])


def test_encoding_frozen_single_row():
    enc = encode_max3lin(single_row_f2(), e0=F2.one)
    assert enc.w == 6
    assert enc.polynomial.var_names == ("y1", "y2", "y3", "y4", "y5", "y6")
    assert enc.polynomial.terms == {
        (1, 0, 0, 1, 0, 0): 1,
        (1, 0, 0, 0, 1, 0): 1,
        (1, 0, 0, 0, 0, 1): 1,
        (1, 0, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 0, 0): 1,
    }
    assert enc.polynomial.sparsity() == 5
    assert enc.cmatrix == {(0, 3): F2.one, (0, 4): F2.one, (0, 5): F2.one}
    assert enc.evec == (F2.one,) + (F2.zero,) * 5
    assert enc.e0 == F2.one


def test_encoding_empty_system_is_constant():
    enc = encode_max3lin(Max3LinSystem(F2, 1, []))
    assert enc.w == 2
    assert enc.polynomial.terms == {(0, 0): 1}


def test_encoding_count_bound():
    rng = random.Random(131)
    for _ in range(30):
        ring = rng.choice([F2, F3, ZZ])
        L = gen_max3lin(rng.randint(3, 5), rng.randint(0, 4), ring, seed=rng.random())
        enc = encode_max3lin(L)
        assert enc.polynomial.sparsity() <= 4 * L.m + 1
    L3 = gen_max3lin(3, 2, F3, seed=5)
    assert L3.w == 6
    assert encode_max3lin(L3).polynomial.sparsity() <= 9


def test_shifted_linear_coeff_frozen():
    enc = encode_max3lin(single_row_f2(), e0=F2.one)
    a = embed_assignment(enc.source, [F2.one, F2.zero, F2.zero])
    assert a == (F2.zero,) * 3 + (F2.one, F2.zero, F2.zero)
    assert shifted_linear_coeff(enc, a, 1) == F2.zero
    zero = [F2.zero] * 6
    assert shifted_linear_coeff(enc, zero, 1) == F2.one
    assert shifted_linear_coeff(enc, a, 5) == F2.zero
    with pytest.raises(ArityError):
        shifted_linear_coeff(enc, a, 7)
    with pytest.raises(ArityError):
        shifted_linear_coeff(enc, a[:3], 1)


def test_formula_matches_symbolic_shift_everywhere():
    # no support restriction: this is the literal expansion identity
    for m in (1, 2):
        L = gen_max3lin(3, m, F2, seed=m)
        enc = encode_max3lin(L)
        w = enc.w
        for a in all_points(F2, w):
            shifted = enc.polynomial.shift(a)
            for i in range(1, w + 1):
                unit = tuple(1 if q == i - 1 else 0 for q in range(w))
                assert shifted.coefficient(unit) == shifted_linear_coeff(enc, a, i)


def test_embedded_coeff_tracks_row_satisfaction():
    cases = [(F2, 4), (F3, 2)]
    for ring, max_m in cases:
        for m in range(1, max_m + 1):
            L = gen_max3lin(3, m, ring, seed=m * 17)
            enc = encode_max3lin(L)
            for x in all_points(ring, 3):
                a = embed_assignment(L, x)
                for i in range(1, L.m + 1):
                    satisfied = L.row_value(i - 1, x).is_zero
                    assert (shifted_linear_coeff(enc, a, i).is_zero) == satisfied
                for i in range(L.m + 1, enc.w + 1):
                    assert shifted_linear_coeff(enc, a, i).is_zero


def test_unrestricted_shifts_can_light_up_late_coefficients():
    # without the support restriction the high coefficients need not die
    enc = encode_max3lin(single_row_f2(), e0=F2.one)
    a = [F2.one] + [F2.zero] * 5
    assert not shifted_linear_coeff(enc, a, 4).is_zero


def test_quadratic_part_is_shift_invariant():
    rng = random.Random(137)
    checked = 0
    while checked < 500:
        ring = rng.choice([F2, F3, ZZ])
        L = gen_max3lin(3, rng.randint(1, 3), ring, seed=rng.random())
        enc = encode_max3lin(L)
        base_quad = {
            e: c for e, c in enc.polynomial.terms.items() if sum(e) == 2
        }
        for _ in range(10):
            if ring.is_finite:
                a = [ring.el(rng.randrange(ring.modulus)) for _ in range(enc.w)]
            else:
                a = [ring.el(rng.randint(-3, 3)) for _ in range(enc.w)]
            shifted = enc.polynomial.shift(a)
            quad = {e: c for e, c in shifted.terms.items() if sum(e) == 2}
            assert quad == base_quad
            checked += 1


def test_min_shifted_count_equals_unsat_budget():
    # single satisfiable row: 4m - maxsat = 3
    enc = encode_max3lin(single_row_f2())
    dom = SearchDomain.exhaustive()
    report = search_min_sparsity(enc.polynomial, dom, metric="nonconstant")
    assert report.min_sparsity == 3
    assert maxsat(single_row_f2(), dom) == 1
    # contradictory pair: one row must fail, 4*2 - 1 = 7
    rows = [
        ((0, 1, 2), (F2.one,) * 3, F2.zero),
        ((0, 1, 2), (F2.one,) * 3, F2.one),
    ]
    L = Max3LinSystem(F2, 3, rows)
    enc2 = encode_max3lin(L)
    report2 = search_min_sparsity(enc2.polynomial, dom, metric="nonconstant")
    assert report2.min_sparsity == 7
    assert maxsat(L, dom) == 1


def test_embed_project_round_trip():
    rng = random.Random(139)
    for _ in range(20):
        L = gen_max3lin(rng.randint(3, 5), rng.randint(0, 3), F3, seed=rng.random())
        x = tuple(F3.el(rng.randrange(3)) for _ in range(L.n))
        a = embed_assignment(L, x)
        assert len(a) == L.w
        assert all(v.is_zero for v in a[: L.w - L.n])
        assert project_assignment(L, a) == x
    with pytest.raises(ArityError):
        embed_assignment(L, [F3.zero])
    with pytest.raises(ArityError):
        project_assignment(L, [F3.zero])


def test_generator_planted_and_noise():
    for ring in (F2, F3, ZZ):
        L = gen_max3lin(4, 6, ring, planted=True, noise_count=0, seed=11)
        plant = L.meta["planted"]
        assert count_satisfied(L, plant) == 6
        for k in (1, 3):
            noisy = gen_max3lin(4, 6, ring, planted=True, noise_count=k, seed=11)
            assert count_satisfied(noisy, noisy.meta["planted"]) == 6 - k


def test_generator_determinism_and_errors():
    a = gen_max3lin(5, 4, F3, planted=True, noise_count=1, seed=42)
    b = gen_max3lin(5, 4, F3, planted=True, noise_count=1, seed=42)
    assert max3lin_to_text(a) == max3lin_to_text(b)
    assert a == b
    c = gen_max3lin(5, 4, F3, planted=True, noise_count=1, seed=43)
    assert max3lin_to_text(a) != max3lin_to_text(c)
    with pytest.raises(PreconditionError):
        gen_max3lin(2, 1, F2)
    with pytest.raises(PreconditionError):
        gen_max3lin(3, 1, F2, planted=False, noise_count=1)
    with pytest.raises(PreconditionError):
        gen_max3lin(3, 1, F2, planted=True, noise_count=2)


def test_file_format_frozen():
    text = max3lin_to_text(single_row_f2())
    assert text == "ring Fp 2\nvars 3\neq 1 1 2 1 3 1 1\n"
    back = max3lin_from_text(text)
    assert back == single_row_f2()


def test_file_round_trip_with_metadata(tmp_path):
    L = gen_max3lin(4, 3, F3, planted=True, noise_count=1, seed=7)
    path = str(tmp_path / "inst.3lin")
    save_max3lin(path, L)
    back = load_max3lin(path)
    assert back == L
    assert back.meta["seed"] == 7
    assert back.meta["noise"] == 1
    assert back.meta["planted"] == L.meta["planted"]
    with open(path) as fh:
        first = fh.readline()
    assert first == "# seed 7\n"


def test_file_parse_rejections():
    with pytest.raises(FormatError):
        max3lin_from_text("vars 3\neq 1 1 2 1 3 1 1\n")
    with pytest.raises(FormatError):
        max3lin_from_text("ring Fp 2\nvars 3\neq 1 1 2 1 3 1\n")
    with pytest.raises(FormatError):
        max3lin_from_text("ring Fp 2\nvars 3\neq 1 1 2 1 4 1 1\n")
    with pytest.raises(FormatError):
        max3lin_from_text("ring Fp 2\nvars 3\nrow 1 1 2 1 3 1 1\n")
    with pytest.raises(FormatError):
        max3lin_from_text("ring Fp 2\n")
