"""Brute-force ground truth: searches, solvers, and round-trip verifiers."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from shiftforge import (
    ArityError,
    CapExceededError,
    Circuit,
    EquationSystem,
    InternalConsistencyError,
    Max3LinSystem,
    PreconditionError,
    QQ,
    SparsePoly,
    UnsupportedDomainError,
    ZZ,
    build_hn_instance,
    check_solution,
    extend_solution,
    gen_max3lin,
    maxsat,
    modular,
    prime_field,
    reduce_hn,
    search_min_sparsity,
    shift_instance,
    shift_to_solution,
    solution_to_shift,
    solve_system,
    verify_hn_roundtrip,
    verify_max3lin,
)
from shiftforge import bitslice, oracles
from shiftforge.circuits import ADD, CONST, INPUT, MUL
from shiftforge.oracles import NONE, SUPPORT_LAST, ZERO_SUM, SearchDomain
from shiftforge.quadratizer import ExtensionRecipe, check_payloads, quadratize_circuit
from shiftforge.sparsepoly import (
    eval_payload,
    format_vector,
    shifted_term_map,
    slot_table,
)

from helpers import (
    out_of_box_system,
    planted_integer_system,
    random_poly,
    random_nonzero,
    random_sparse_system,
    sparse_terms,
    unsolvable_integer_system,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def poly(ring, nvars, terms):
    return SparsePoly(ring, nvars, terms)


def system(ring, nvars, term_maps):
    names = ["x%d" % (i + 1) for i in range(nvars)]
    eqs = [SparsePoly(ring, nvars, t, names) for t in term_maps]
    return EquationSystem(ring, names, eqs)


def test_search_square_in_box():
    p = poly(ZZ, 1, {(2,): 1, (1,): 2, (0,): 1})
    report = search_min_sparsity(p, SearchDomain.integer_box(2))
    assert report.min_sparsity == 1
    assert tuple(v.val for v in report.witness) == (-1,)
    assert report.points == 5
    assert not report.complete


def test_search_constant_polynomial():
    p = poly(F5, 2, {(0, 0): 3})
    report = search_min_sparsity(p, SearchDomain.exhaustive())
    assert report.min_sparsity == 1
    assert all(v.is_zero for v in report.witness)
    assert report.points == 25
    assert report.complete


def test_search_report_lines_frozen():
    p = poly(ZZ, 1, {(2,): 1, (1,): 2, (0,): 1})
    report = search_min_sparsity(p, SearchDomain.integer_box(2))
    assert report.lines() == [
        "min_sparsity 1",
        "witness -1",
        "points 5",
        "complete false",
    ]


def test_search_zero_sum_restriction():
    # (x+1)(y+1): the free minimum needs (-1,-1), which is not zero-sum
    p = poly(ZZ, 2, {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})
    free = search_min_sparsity(p, SearchDomain.integer_box(2))
    assert free.min_sparsity == 1
    assert tuple(v.val for v in free.witness) == (-1, -1)
    dom = SearchDomain.integer_box(2).restricted(ZERO_SUM)
    report = search_min_sparsity(p, dom)
    assert report.min_sparsity == 2
    assert tuple(v.val for v in report.witness) == (-1, 1)
    assert report.points == 5  # one in-box completion per tail value


def test_search_support_last_restriction():
    p = poly(ZZ, 3, {
        (1, 1, 1): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1,
        (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1,
    })  # (x+1)(y+1)(z+1)
    dom = SearchDomain.integer_box(2).restricted(SUPPORT_LAST, 1)
    report = search_min_sparsity(p, dom)
    assert report.min_sparsity == 4
    assert tuple(v.val for v in report.witness) == (0, 0, -1)
    assert report.points == 5
    free = search_min_sparsity(p, SearchDomain.integer_box(1))
    assert free.min_sparsity == 1
    assert tuple(v.val for v in free.witness) == (-1, -1, -1)


def test_search_rational_grid():
    p = poly(QQ, 1, {(1,): 2, (0,): -1})
    dom = SearchDomain.rational_grid(range(-2, 3), (1, 2))
    report = search_min_sparsity(p, dom)
    assert report.min_sparsity == 1
    assert report.witness[0] == QQ.parse_coeff("1/2")
    # deduplicated grid: {-2, -1, -1/2, 0, 1/2, 1, 2}
    assert report.points == 7


def test_witness_reproduces_minimum():
    rng = random.Random(149)
    for _ in range(40):
        ring = rng.choice([ZZ, F3, F5])
        p = random_poly(ring, rng.randint(1, 3), 3, 4, rng)
        dom = (
            SearchDomain.exhaustive()
            if ring.is_finite
            else SearchDomain.integer_box(2)
        )
        metric = rng.choice(["total", "nonconstant"])
        report = search_min_sparsity(p, dom, metric=metric)
        shifted = p.shift(list(report.witness))
        count = (
            shifted.nonconstant_sparsity()
            if metric == "nonconstant"
            else shifted.sparsity()
        )
        assert count == report.min_sparsity


def test_domain_validation():
    zp = poly(ZZ, 1, {(1,): 1})
    fp = poly(F5, 1, {(1,): 1})
    qp = poly(QQ, 1, {(1,): 1})
    with pytest.raises(UnsupportedDomainError):
        search_min_sparsity(zp, SearchDomain.exhaustive())
    with pytest.raises(UnsupportedDomainError):
        search_min_sparsity(fp, SearchDomain.integer_box(2))
    with pytest.raises(UnsupportedDomainError):
        search_min_sparsity(zp, SearchDomain.rational_grid([1], [2]))
    search_min_sparsity(qp, SearchDomain.integer_box(1))
    with pytest.raises(PreconditionError):
        SearchDomain.integer_box(-1)
    with pytest.raises(PreconditionError):
        SearchDomain.rational_grid([1], [0])
    with pytest.raises(PreconditionError):
        SearchDomain.rational_grid([], [1])
    with pytest.raises(PreconditionError):
        SearchDomain.integer_box(2).restricted(SUPPORT_LAST)
    with pytest.raises(ArityError):
        search_min_sparsity(
            zp, SearchDomain.integer_box(1).restricted(SUPPORT_LAST, 4)
        )
    with pytest.raises(PreconditionError):
        search_min_sparsity(zp, SearchDomain.integer_box(1), metric="weird")


def test_cap_is_enforced():
    p = random_poly(ZZ, 3, 2, 3, random.Random(3))
    with pytest.raises(CapExceededError):
        search_min_sparsity(p, SearchDomain.integer_box(2, cap=100))
    S, _ = planted_integer_system(random.Random(5), max_vars=3)
    with pytest.raises(CapExceededError):
        solve_system(S, SearchDomain.integer_box(3, cap=10))


def test_solve_examples():
    assert solve_system(
        system(ZZ, 1, [{(1,): 1, (0,): -1}]), SearchDomain.integer_box(2)
    ) == (ZZ.one,)
    assert (
        solve_system(
            system(ZZ, 1, [{(2,): 1, (0,): 1}]), SearchDomain.integer_box(3)
        )
        is None
    )
    sol = solve_system(
        system(ZZ, 3, [{(1, 1, 1): 1, (0, 0, 0): -1}]), SearchDomain.integer_box(1)
    )
    assert tuple(v.val for v in sol) == (-1, -1, 1)


def test_solve_finds_planted_solutions():
    rng = random.Random(151)
    for _ in range(20):
        S, sol = planted_integer_system(rng, max_vars=2, value_bound=2)
        found = solve_system(S, SearchDomain.integer_box(2))
        assert found is not None
        assert all(eq.eval(list(found)).is_zero for eq in S.equations)
        assert tuple(found) <= tuple(sol)
    for _ in range(10):
        S = unsolvable_integer_system(rng)
        assert solve_system(S, SearchDomain.integer_box(2)) is None


def test_maxsat_examples():
    L = Max3LinSystem(F2, 3, [((0, 1, 2), (F2.one,) * 3, F2.one)])
    assert maxsat(L, SearchDomain.exhaustive()) == 1
    rows = [
        ((0, 1, 2), (F2.one,) * 3, F2.zero),
        ((0, 1, 2), (F2.one,) * 3, F2.one),
    ]
    assert maxsat(Max3LinSystem(F2, 3, rows), SearchDomain.exhaustive()) == 1
    for k in (0, 2):
        planted = gen_max3lin(4, 5, F3, planted=True, noise_count=k, seed=3)
        assert maxsat(planted, SearchDomain.exhaustive()) >= 5 - k


def test_roundtrip_frozen_line_example():
    S = system(ZZ, 1, [{(1,): 1, (0,): -1}])
    report = verify_hn_roundtrip(S, box=2)
    assert report.lines() == [
        "trivially_solvable false",
        "sigma 5",
        "solutions 1",
        "sparsifying_shifts 1",
        "solution_points 5",
        "shift_points 19",
        "violations 0",
        "consistent true",
    ]


def test_roundtrip_no_integer_root():
    S = system(ZZ, 1, [{(2,): 1, (0,): 1}])
    report = verify_hn_roundtrip(S, box=2)
    assert report.solutions == 0
    assert report.sparsifying_shifts == 0
    assert report.consistent


def test_roundtrip_trivial_branch():
    S = system(ZZ, 2, [{(1, 0): 1, (0, 1): -1}])
    report = verify_hn_roundtrip(S, box=2)
    assert report.trivial
    assert report.certificate_ok
    assert report.lines() == [
        "trivially_solvable true",
        "certificate 0,0",
        "certificate_ok true",
    ]


def small_planted(rng, value_bound, max_nsys=4):
    # keep the lowered variable count tiny so box enumeration stays fast
    from shiftforge import reduce_hn

    while True:
        S, sol = planted_integer_system(
            rng, max_vars=2, max_eqs=2, value_bound=value_bound,
            max_degree=2, max_terms=2,
        )
        inst = reduce_hn(S)
        if not hasattr(inst, "nsys") or inst.nsys <= max_nsys:
            return S, sol


def test_roundtrip_solution_counts_grow_with_box():
    rng = random.Random(157)
    for _ in range(8):
        S, _ = small_planted(rng, value_bound=1)
        small = verify_hn_roundtrip(S, box=1)
        big = verify_hn_roundtrip(S, box=2)
        assert small.consistent and big.consistent
        assert small.solutions <= big.solutions
        assert big.solutions >= 1


def test_roundtrip_out_of_box_solutions_are_invisible():
    rng = random.Random(163)
    for _ in range(8):
        S = out_of_box_system(rng, box=2)
        report = verify_hn_roundtrip(S, box=2)
        assert report.solutions == 0
        assert report.consistent


def test_roundtrip_random_consistency():
    from shiftforge import extend_solution, reduce_hn, solution_to_shift

    rng = random.Random(167)
    for _ in range(15):
        S, sol = small_planted(rng, value_bound=2)
        report = verify_hn_roundtrip(S, box=2)
        assert report.consistent
        assert report.solutions >= 1
        inst = reduce_hn(S)
        wired = solution_to_shift(inst, extend_solution(inst.recipe, sol))
        if all(abs(v.val) <= 2 for v in wired):
            assert report.sparsifying_shifts >= 1


def test_verify_max3lin_report():
    L = Max3LinSystem(F2, 3, [((0, 1, 2), (F2.one,) * 3, F2.one)])
    report = verify_max3lin(L)
    assert report.match
    assert report.lines() == [
        "w 6",
        "sigma 5",
        "maxsat 1",
        "min_nonconstant 3",
        "expected 3",
        "match true",
    ]
    with pytest.raises(UnsupportedDomainError):
        verify_max3lin(gen_max3lin(3, 1, ZZ, seed=1))


def test_zero_sum_over_a_finite_ring_visits_every_completion():
    # the forced first coordinate is reduced into the ring, so each of
    # the 9 tails of F3^3 has a completion
    p = poly(F3, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
    report = search_min_sparsity(p, SearchDomain.exhaustive().restricted(ZERO_SUM))
    assert report.lines() == [
        "min_sparsity 4",
        "witness 0,0,0",
        "points 9",
        "complete true",
    ]
    # solve and maxsat walk the same domain
    zs = SearchDomain.exhaustive().restricted(ZERO_SUM)
    sol = solve_system(system(F3, 3, [{(0, 1, 0): 1, (0, 0, 0): -1}]), zs)
    assert tuple(v.val for v in sol) == (0, 1, 2)
    L = Max3LinSystem(F3, 3, [((0, 1, 2), (F3.one, F3.one, F3.el(2)), F3.one)])
    assert maxsat(L, zs) == 1


def reference_search(p, dom, metric):
    """(min_sparsity, witness payloads, points) by expanding every point."""
    ring = p.ring
    k = p.nvars
    values = dom.values(ring)
    if dom.restriction == ZERO_SUM:
        free = range(1, k)
    elif dom.restriction == SUPPORT_LAST:
        free = range(k - dom.support_n, k)
    else:
        free = range(k)
    best = None
    points = 0
    for combo in itertools.product(values, repeat=len(free)):
        vec = [ring.canon(0)] * k
        for pos, v in zip(free, combo):
            vec[pos] = v
        if dom.restriction == ZERO_SUM:
            vec[0] = ring.canon(-sum(vec[1:], ring.canon(0)))
            if vec[0] not in values:
                continue
        points += 1
        shifted = p.shift([ring.el(v) for v in vec])
        count = (shifted.nonconstant_sparsity() if metric == "nonconstant"
                 else shifted.sparsity())
        if best is None or (count, tuple(vec)) < best:
            best = (count, tuple(vec))
    return best[0], best[1], points


def test_kernel_search_matches_expansion():
    rng = random.Random(191)
    rings = [ZZ, QQ, F2, F3, F5, modular(4), modular(6)]
    for ring in rings:
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            for metric in ("total", "nonconstant"):
                for _ in range(2):
                    k = rng.randint(1, 3)
                    p = random_poly(ring, k, 2, 6, rng)
                    if ring.is_finite:
                        dom = SearchDomain.exhaustive()
                    elif ring == QQ and rng.random() < 0.5:
                        dom = SearchDomain.rational_grid([-1, 0, 1], [1, 2])
                    else:
                        dom = SearchDomain.integer_box(rng.randint(1, 2))
                    dom = dom.restricted(restriction, rng.randint(0, k))
                    want = reference_search(p, dom, metric)
                    report = search_min_sparsity(p, dom, metric)
                    got = (report.min_sparsity,
                           tuple(v.val for v in report.witness),
                           report.points)
                    assert got == want, (ring, restriction, metric, p)


def test_kernel_counts_match_shift_instance_on_hn_corpora():
    rng = random.Random(193)
    checked = 0
    for _, inst in hn_corpus(rng):
        n = inst.nsys
        box = rng.randint(1, 2)
        values = list(range(-box, box + 1))
        free = list(range(1, n + 1))
        counts, _ = box_counts_from_planes(
            values, sparse_terms(inst.polynomial.terms), n + 1, free, True)
        points = reference_walk(values, free, n + 1, ZERO_SUM, ZZ)
        assert sorted(counts) == [rank for rank, _ in points]
        for rank, vec in points:
            b = [ZZ.el(v) for v in vec]
            assert counts[rank] == shift_instance(inst, b).sparsity()
        assert [vec for _, vec in points] == [
            (-sum(tail),) + tail for tail in itertools.product(values, repeat=n)
            if abs(sum(tail)) <= box]
        checked += 1
    assert checked >= 12


def hn_corpus(rng):
    """The systems of test_kernel_counts_match_shift_instance_on_hn_corpora:
    planted and unsolvable, lowered to at most 4 system variables."""
    systems = [planted_integer_system(rng, max_vars=2, max_eqs=2, value_bound=1,
                                      max_degree=2, max_terms=2)[0]
               for _ in range(12)]
    systems += [unsolvable_integer_system(rng) for _ in range(12)]
    for S in systems:
        inst = reduce_hn(S)
        if hasattr(inst, "nsys") and inst.nsys <= 4:
            yield S, inst


def test_roundtrip_solution_counts_match_shift_instance(monkeypatch):
    """Direction 1 counts each solution's wired shift from the slot
    table at that one point: the count equals the expansion's at every
    wired shift, also where x0 or an auxiliary coordinate lies outside
    the box, and at random points far outside it."""
    real = oracles.count_at
    seen = []

    def record(ring, fixed, slots, point):
        count = real(ring, fixed, slots, point)
        seen.append((tuple(point), count))
        return count

    monkeypatch.setattr(oracles, "count_at", record)
    rng = random.Random(193)
    outside = checked = 0
    for S, inst in hn_corpus(rng):
        box = rng.randint(1, 2)
        del seen[:]
        report = verify_hn_roundtrip(S, box=box)
        assert len(seen) == report.solutions
        for point, count in seen:
            assert count == shift_instance(
                inst, [ZZ.el(v) for v in point]).sparsity()
            outside += max(map(abs, point)) > box
        k = inst.nsys + 1
        table = slot_table(ZZ, inst.polynomial.sparse_terms, range(k))
        for _ in range(3):
            point = [rng.randint(-9, 9) for _ in range(k)]
            assert real(ZZ, *table, point) == shift_instance(
                inst, [ZZ.el(v) for v in point]).sparsity()
        checked += 1
    assert checked >= 12 and outside >= 3


def test_search_expands_only_the_certificate(monkeypatch):
    """Exhaustive, box, grid and over-wide searches count slots, and
    expand P(X + a) once, at the winner."""
    real = oracles.shifted_term_map
    calls = []

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(oracles, "shifted_term_map", counted)
    rng = random.Random(233)
    wide = poly(ZZ, 2, {(0, 500): 1, (0, 1): 3, (1, 0): 2, (0, 0): -1})
    cases = [
        (random_poly(F3, 3, 2, 6, rng), SearchDomain.exhaustive()),
        (random_poly(ZZ, 3, 3, 6, rng), SearchDomain.integer_box(2)),
        (random_poly(QQ, 2, 2, 5, rng),
         SearchDomain.rational_grid([-1, 0, 2], [1, 2])),
        (wide, SearchDomain.integer_box(7)),
    ]
    for p, base in cases:
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            dom = base.restricted(restriction, 1)
            del calls[:]
            report = search_min_sparsity(p, dom)
            assert calls == [tuple(v.val for v in report.witness)]


def test_grid_searches_match_the_reference_and_its_tie_break():
    """Grid searches under every restriction and both metrics against
    the expansion at every point; (x0 + x1)^2 has 3 monomials under
    every zero-sum shift, so its witness is the point with the least
    forced coordinate, the last rank."""
    rng = random.Random(239)
    grids = [SearchDomain.rational_grid([-1, 0, 1], [1, 2]),
             SearchDomain.rational_grid([-2, 0, 3], [1, 2, 3]),
             SearchDomain.rational_grid([1, 2], [3]),
             # integers, but not a run: no planes
             SearchDomain.rational_grid([-3, 0, 1, 4], [1])]
    cases = 0
    for grid in grids:
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            for metric in ("total", "nonconstant"):
                for _ in range(3):
                    k = rng.randint(1, 3)
                    p = random_poly(QQ, k, 2, 5, rng)
                    dom = grid.restricted(restriction, rng.randint(0, k))
                    if not reference_points(dom, QQ, k):
                        continue
                    report = search_min_sparsity(p, dom, metric)
                    assert (report.min_sparsity,
                            tuple(v.val for v in report.witness),
                            report.points) == reference_search(p, dom, metric)
                    cases += 1
    assert cases >= 50
    square = poly(QQ, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    dom = grids[0].restricted(ZERO_SUM)
    want = reference_search(square, dom, "total")
    assert want == (3, (Fraction(-1), Fraction(1)), 5)
    report = search_min_sparsity(square, dom)
    assert (report.min_sparsity, tuple(v.val for v in report.witness),
            report.points) == want


def test_search_certifies_the_kernel_count(monkeypatch):
    real = oracles.sliced_min_slots

    def off_by_one(*args):
        count, rank, points = real(*args)
        return count + 1, rank, points

    monkeypatch.setattr(oracles, "sliced_min_slots", off_by_one)
    for ring, dom in ((ZZ, SearchDomain.integer_box(1)),
                      (QQ, SearchDomain.integer_box(1).restricted(ZERO_SUM)),
                      (prime_field(11), SearchDomain.exhaustive())):
        p = poly(ring, 2, {(1, 1): 1, (1, 0): 1, (0, 0): 2})
        with pytest.raises(InternalConsistencyError):
            search_min_sparsity(p, dom)


def require_planes(monkeypatch, why):
    """Fail when the kernel would count a slot set one point per block
    instead of in planes."""
    real = bitslice._fits

    def planed(*args):
        assert real(*args), why
        return True

    monkeypatch.setattr(bitslice, "_fits", planed)


def forbid_planes(monkeypatch):
    """Fail when the kernel builds coordinate planes: every block must be
    one point, every coordinate fixed."""
    def no_planes(*args):
        raise AssertionError("planes were built for a one-point domain")

    monkeypatch.setattr(bitslice, "box_planes", no_planes)
    monkeypatch.setattr(bitslice, "class_planes", no_planes)


# the largest k per modulus that keeps the expansion reference fast
SLICED_K = {2: 8, 3: 5, 4: 4, 5: 3, 6: 3, 7: 3}


def test_sliced_search_matches_kernel_and_expansion(monkeypatch):
    real_planes = bitslice.class_planes

    def bounded_planes(q, digits):
        # as many coordinates as fit in one plane, and no more
        assert q ** digits <= bitslice.PLANE_BITS
        assert digits == free_count or q ** (digits + 1) > bitslice.PLANE_BITS
        return real_planes(q, digits)

    require_planes(monkeypatch, "a small finite ring search left the planes")
    monkeypatch.setattr(bitslice, "class_planes", bounded_planes)
    rng = random.Random(227)
    blocks = 0
    for ring in (F2, F3, F5, prime_field(7), modular(4), modular(6)):
        q = ring.modulus
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            for metric in ("total", "nonconstant"):
                for _ in range(3):
                    k = rng.randint(1, SLICED_K[q])
                    p = random_poly(ring, k, 2, 2 * k + 2, rng)
                    dom = SearchDomain.exhaustive().restricted(
                        restriction, rng.randint(0, k))
                    want = reference_search(p, dom, metric)
                    free_count = len(oracles._plan(dom, ring, k)[1])

                    def slots(moving):
                        return slot_table(ring, p.sparse_terms, moving,
                                          metric == "nonconstant")

                    # planes of 1 bit (every coordinate fixed per block),
                    # of some coordinates, and of the whole domain
                    for bits in (1, q, q * q + 1, 1 << 20):
                        monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                        blocks += want[2] > bits
                        assert oracles._least_key(dom, ring, k, slots) == (
                            want[:2], want[2])
                        report = search_min_sparsity(p, dom, metric)
                        got = (report.min_sparsity,
                               tuple(v.val for v in report.witness),
                               report.points)
                        assert got == want, (ring, restriction, metric, p, bits)
    assert blocks >= 100


def test_search_counts_grids_and_wide_slot_sets_one_point_per_block(
        monkeypatch):
    """Rational grids, and slot sets whose width bound exceeds
    MAX_WIDTH, get no planes: the kernel evaluates them one point per
    block, against the expansion at every point."""
    rng = random.Random(229)
    # x2^500 over [-7, 7]: 16 plane products of about 2,500 bits
    wide = {(0, 500): 1, (0, 1): 3, (1, 0): 2, (0, 0): -1}
    box = SearchDomain.integer_box(7)
    assert not bitslice._fits(ZZ, box.values(ZZ), slot_table(
        ZZ, poly(ZZ, 2, wide).sparse_terms, [1])[1])
    forbid_planes(monkeypatch)
    cases = [
        (random_poly(QQ, 2, 2, 5, rng), SearchDomain.rational_grid([-1, 0, 2], [1, 2])),
        (random_poly(QQ, 3, 4, 5, rng),
         SearchDomain.rational_grid([-1, 0, 1], [1, 3]).restricted(ZERO_SUM)),
        (poly(ZZ, 2, wide), box.restricted(SUPPORT_LAST, 1)),
        (poly(QQ, 2, wide), box.restricted(ZERO_SUM)),
    ]
    for p, dom in cases:
        report = search_min_sparsity(p, dom)
        assert (report.min_sparsity, tuple(v.val for v in report.witness),
                report.points) == reference_search(p, dom, "total")


def test_search_certifies_the_sliced_count(monkeypatch):
    real = oracles.sliced_min_slots

    def off_by_one(*args):
        count, rank, points = real(*args)
        return count + 1, rank, points

    monkeypatch.setattr(oracles, "sliced_min_slots", off_by_one)
    p = poly(F3, 2, {(1, 1): 1, (1, 0): 1, (0, 0): 2})
    with pytest.raises(InternalConsistencyError):
        search_min_sparsity(p, SearchDomain.exhaustive())


def reference_walk(values, free, k, restriction, ring):
    """(rank, vector) of every in-domain point, from itertools.product."""
    zero = ring.canon(0)
    points = []
    for rank, combo in enumerate(itertools.product(values, repeat=len(free))):
        vec = [zero] * k
        for pos, v in zip(free, combo):
            vec[pos] = v
        if restriction == ZERO_SUM:
            vec[0] = ring.canon(-sum(vec[1:], zero))
            if vec[0] not in values:
                continue
        points.append((rank, tuple(vec)))
    return points


def test_rank_decoding_matches_product_reference():
    spaces = [
        (ZZ, SearchDomain.integer_box(2), 4),
        (QQ, SearchDomain.integer_box(1), 4),
        # non-contiguous values: {-2, -1, 0, 3/2, 3}
        (QQ, SearchDomain.rational_grid([-2, 0, 3], [1, 2]), 4),
        (F3, SearchDomain.exhaustive(), 4),
        (modular(4), SearchDomain.exhaustive(), 3),
    ]
    for ring, dom, k in spaces:
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            values, free, _ = oracles._plan(dom.restricted(restriction, 2),
                                            ring, k)
            want = reference_walk(values, free, k, restriction, ring)
            for rank, vec in want:
                assert tuple(oracles._at(values, free, k, restriction, ring,
                                         rank)) == vec


def test_roundtrip_violations_are_in_rank_order(monkeypatch):
    from shiftforge import NoReductionError, extend_solution
    from shiftforge.sparsepoly import format_vector

    real_solution_to_shift = oracles.solution_to_shift

    def odd(vec):
        return vec[1].val % 2 == 1

    def moved(b):
        return (b[0] + ZZ.one,) + tuple(b[1:])

    def wired_off(inst, full):
        # every solution whose wired shift has an odd second coordinate
        # is wired one step off in x0
        b = real_solution_to_shift(inst, full)
        return moved(b) if odd(b) else b

    def refuse(inst, b):
        if odd(b):
            raise NoReductionError("refused")
        return tuple(b[1:])

    monkeypatch.setattr(oracles, "solution_to_shift", wired_off)
    monkeypatch.setattr(oracles, "shift_to_solution", refuse)
    S = system(ZZ, 3, [{(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -1}])
    box = 2
    inst = reduce_hn(S)
    values = range(-box, box + 1)
    want = []
    for combo in itertools.product(values, repeat=inst.n_inputs):
        full = extend_solution(inst.recipe, [ZZ.el(v) for v in combo])
        if not check_solution(inst.system, full):
            continue
        drop = inst.sigma - shift_instance(
            inst, wired_off(inst, full)).sparsity()
        if drop != 1:
            want.append("solution %s drops %d" % (format_vector(full), drop))
    for tail in itertools.product(values, repeat=inst.nsys):
        b = (ZZ.el(-sum(tail)),) + tuple(ZZ.el(v) for v in tail)
        if (abs(sum(tail)) <= box and odd(b)
                and shift_instance(inst, b).sparsity() < inst.sigma):
            want.append("shift %s: refused" % format_vector(b))
    assert len(want) >= 10
    assert any(w.startswith("solution") for w in want)
    assert verify_hn_roundtrip(S, box=box).violations == want


def test_roundtrip_checks_both_caps_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work began before the cap check")

    monkeypatch.setattr(oracles, "slot_table", no_work)
    monkeypatch.setattr(oracles, "check_solution", no_work)
    # direction 1 walks payloads with these two
    monkeypatch.setattr(oracles, "check_payloads", no_work)
    monkeypatch.setattr(ExtensionRecipe, "extend_payloads", no_work)
    S = system(ZZ, 2, [{(1, 0): 1, (0, 1): 1, (0, 0): -1}])
    # 25 source assignments fit, 625 zero-sum ranks do not
    with pytest.raises(CapExceededError):
        verify_hn_roundtrip(S, box=2, cap=100)


def payload_sources():
    """(source, instance) pairs whose recipes hold every kind of step:
    hn_corpus (var and mul), a circuit for x1*x2 - 1 (var, mul, const
    and sum) and an encoded system with no recipe at all, whose
    solutions are (1, 0) and (1, 1)."""
    pairs_ = list(hn_corpus(random.Random(211)))
    nodes = [(0, INPUT, 0), (1, INPUT, 1), (2, MUL, (0, 1)), (3, CONST, -1),
             (4, ADD, (2, 3))]
    circuits = [Circuit(ZZ, 2, nodes, output=4)]
    pairs_.append((circuits, reduce_hn(circuits)))
    S = system(ZZ, 2, [{(1, 0): 1, (0, 0): -1}, {(0, 2): 1, (0, 1): -1}])
    pairs_.append((S, build_hn_instance(S, ZZ.el(2))))
    return pairs_


def test_payload_walk_matches_ring_elements():
    """At every source point of the box, the payload core of the recipe
    gives the payloads of extend_solution, and check_payloads the answer
    of check_solution; over F5 and Q too."""
    sources = payload_sources()
    ops = {op for _, op, _ in sources[-2][1].recipe.steps}
    assert ops == {"var", "mul", "const", "sum"}
    assert sources[-1][1].recipe is None
    spaces = [(ZZ, range(-2, 3), inst.system, inst.recipe) for _, inst in sources]
    for ring, values in ((F5, range(5)), (QQ, [Fraction(v, 2) for v in range(-3, 4)])):
        lowered, recipe = quadratize_circuit([
            Circuit(ring, 2, [(0, INPUT, 0), (1, INPUT, 1), (2, MUL, (0, 1)),
                              (3, CONST, ring.canon(3)), (4, ADD, (2, 3, 0))],
                    output=4)])
        spaces.append((ring, values, lowered, recipe))
    solutions = 0
    for ring, values, S, recipe in spaces:
        for combo in itertools.product(values, repeat=S.n_inputs):
            ax = tuple(ring.el(v) for v in combo)
            if recipe is None:
                full, vals = ax, combo
            else:
                full = extend_solution(recipe, ax)
                vals = recipe.extend_payloads(combo)
                assert vals == tuple(v.val for v in full)
                assert [type(v) for v in vals] == [type(v.val) for v in full]
            ok = check_payloads(S, vals)
            assert ok == check_solution(S, full)
            solutions += ok
    assert solutions >= 20


def reference_roundtrip(inst, box):
    """verify_hn_roundtrip's report on an instance: direction 1 from
    extend_solution and check_solution on ring elements at every source
    point, direction 2 from the expansion at every zero-sum point."""
    values = list(range(-box, box + 1))
    violations = []
    solutions = 0
    points = list(itertools.product(values, repeat=inst.n_inputs))
    for combo in points:
        ax = tuple(ZZ.el(v) for v in combo)
        full = extend_solution(inst.recipe, ax) if inst.recipe else ax
        if not check_solution(inst.system, full):
            continue
        solutions += 1
        drop = inst.sigma - shift_instance(
            inst, solution_to_shift(inst, full)).sparsity()
        if drop != 1:
            violations.append("solution %s drops %d" % (format_vector(full), drop))
    k = inst.nsys + 1
    terms = sparse_terms(inst.polynomial.terms)
    shifts = reference_walk(values, list(range(1, k)), k, ZERO_SUM, ZZ)
    sparsifying = 0
    for _, vec in shifts:
        if len(shifted_term_map(ZZ, terms, vec)) < inst.sigma:
            sparsifying += 1
            b = tuple(ZZ.el(v) for v in vec)
            try:
                shift_to_solution(inst, b)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                violations.append("shift %s: %s" % (format_vector(b), exc))
    if solutions == 0 and sparsifying > 0:
        violations.append("sparsifying shifts exist without solutions")
    return oracles.RoundtripReport(
        trivial=False, sigma=inst.sigma, solutions=solutions,
        sparsifying_shifts=sparsifying, solution_points=len(points),
        shift_points=len(shifts), violations=violations)


def roundtrip_of(monkeypatch, inst, box):
    """verify_hn_roundtrip on an instance as given, recipe or none."""
    monkeypatch.setattr(oracles, "reduce_hn", lambda source, gamma=None: inst)
    return verify_hn_roundtrip(inst.system, box=box)


def test_roundtrip_matches_reference_walk(monkeypatch):
    """The report and violations of verify_hn_roundtrip equal those of a
    walk on ring elements, at box 1 and, up to 3 system variables, box 2."""
    found = 0
    for _, inst in payload_sources():
        for box in (1, 2) if inst.nsys <= 3 else (1,):
            report = roundtrip_of(monkeypatch, inst, box)
            want = reference_roundtrip(inst, box)
            assert report.lines() == want.lines()
            assert report.violations == want.violations
            found += report.solutions
    assert found >= 10


def test_roundtrip_payload_core_is_what_direction_1_runs(monkeypatch):
    """A payload core one off in the last auxiliary makes every
    instance with a solution in the box report otherwise."""
    sources = payload_sources()
    before = [roundtrip_of(monkeypatch, inst, 1) for _, inst in sources]
    real = ExtensionRecipe.extend_payloads

    def one_off(self, vals):
        full = real(self, vals)
        return full[:-1] + (full[-1] + 1,)

    monkeypatch.setattr(ExtensionRecipe, "extend_payloads", one_off)
    changed = 0
    for (_, inst), old in zip(sources, before):
        new = roundtrip_of(monkeypatch, inst, 1)
        if old.solutions and inst.recipe is not None:
            assert (new.lines(), new.violations) != (old.lines(), old.violations)
            changed += 1
    assert changed >= 5


def reference_points(dom, ring, k):
    """Every in-domain payload vector, in lexicographic order of the free
    coordinates, from itertools.product."""
    if dom.restriction == ZERO_SUM:
        free = range(1, k)
    elif dom.restriction == SUPPORT_LAST:
        free = range(k - dom.support_n, k)
    else:
        free = range(k)
    return [vec for _, vec in
            reference_walk(dom.values(ring), free, k, dom.restriction, ring)]


def reference_rows_satisfied(L, vec):
    """Rows of L that vanish at the payload vector, summed on payloads."""
    ring = L.ring
    return sum(1 for idx, coeffs, b in L.rows
               if not ring.canon(b.val + sum(c.val * vec[j]
                                             for j, c in zip(idx, coeffs))))


SCAN_SPACES = [
    (ZZ, SearchDomain.integer_box(1)),
    (ZZ, SearchDomain.integer_box(2)),
    (QQ, SearchDomain.integer_box(1)),
    (F2, SearchDomain.exhaustive()),
    (F3, SearchDomain.exhaustive()),
    (modular(4), SearchDomain.exhaustive()),
]


def test_solve_matches_product_reference():
    rng = random.Random(211)
    seen_ties = seen_none = 0
    for ring, base in SCAN_SPACES:
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            systems = [
                # x1 = x3: ties, where the least solution must win
                system(ring, 3, [{(1, 0, 0): 1, (0, 0, 1): -1}]),
                # 1 = 0: no solution anywhere
                system(ring, 2, [{(0, 0): 1}]),
            ]
            systems += [random_sparse_system(ring, rng, max_vars=3, max_degree=2,
                                             max_terms=3, max_eqs=2)
                        for _ in range(3)]
            for S in systems:
                dom = base.restricted(restriction, rng.randint(0, S.nvars))
                sols = [vec for vec in reference_points(dom, ring, S.nvars)
                        if check_solution(S, [ring.el(v) for v in vec])]
                want = min(sols) if sols else None
                seen_ties += len(sols) > 1
                seen_none += want is None
                got = solve_system(S, dom)
                got = None if got is None else tuple(v.val for v in got)
                assert got == want, (ring, restriction, S.equations)
    assert seen_ties and seen_none


def test_maxsat_matches_product_reference():
    rng = random.Random(223)
    for ring, base in SCAN_SPACES:
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            for planted in (False, True):
                n = rng.randint(3, 4)
                L = gen_max3lin(n, rng.randint(1, 4), ring, planted=planted,
                                seed=rng.randrange(10 ** 6))
                dom = base.restricted(restriction, rng.randint(0, n))
                want = max(reference_rows_satisfied(L, vec)
                           for vec in reference_points(dom, ring, n))
                assert maxsat(L, dom) == want, (ring, restriction, L.rows)


def test_maxsat_on_an_empty_domain_is_refused():
    # every zero-sum completion of the tail (1, 1) is -2, outside the grid
    L = gen_max3lin(3, 2, QQ, seed=5)
    dom = SearchDomain.rational_grid([1], [1]).restricted(ZERO_SUM)
    with pytest.raises(PreconditionError, match="search domain is empty"):
        maxsat(L, dom)
    assert solve_system(system(QQ, 3, [{(1, 0, 0): 1}]), dom) is None


SLICED_MAXSAT_SPACES = (
    [(ring, SearchDomain.exhaustive(), n)
     for ring, n in ((F2, 6), (F3, 5), (F5, 4), (prime_field(7), 4),
                     (modular(4), 4), (modular(6), 4))]
    + [(ZZ, SearchDomain.integer_box(box), n)
       for box, n in ((0, 5), (1, 5), (2, 4), (3, 4))])


def test_sliced_maxsat_matches_the_product(monkeypatch):
    require_planes(monkeypatch, "a bit-sliced maxsat domain left the planes")
    rng = random.Random(251)
    cases = blocks = 0
    for ring, base, max_n in SLICED_MAXSAT_SPACES:
        for planted, m in ((False, 0), (False, None), (True, None)):
            n = rng.randint(3, max_n)
            m = rng.randint(1, 2 * n) if m is None else m
            L = gen_max3lin(n, m, ring, planted=planted,
                            noise_count=rng.randint(0, m) if planted else 0,
                            seed=rng.randrange(10 ** 6))
            doms = [base, base.restricted(ZERO_SUM)]
            doms += [base.restricted(SUPPORT_LAST, w) for w in range(n + 1)]
            for dom in doms:
                cases += 1
                want = max(reference_rows_satisfied(L, vec)
                           for vec in reference_points(dom, ring, n))
                # planes of 1 bit (every coordinate fixed per block), of
                # some coordinates, and of the whole domain
                size = oracles._plan(dom, ring, n)[2]
                bits = (1, len(dom.values(ring)) + 1, 1 << 20)[cases % 3]
                blocks += size > bits
                monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                assert maxsat(L, dom) == want, \
                    (ring, dom.mode, dom.bound, dom.restriction,
                     dom.support_n, L.rows, bits)
    assert cases >= 200 and blocks >= 50


def test_sliced_maxsat_certifies_its_count(monkeypatch):
    real = oracles.sliced_min_slots

    def off_by_one(*args):
        count, rank, points = real(*args)
        return count + 1, rank, points

    monkeypatch.setattr(oracles, "sliced_min_slots", off_by_one)
    for ring, dom, _ in SLICED_MAXSAT_SPACES[1::3]:
        L = gen_max3lin(4, 5, ring, seed=7)
        with pytest.raises(InternalConsistencyError,
                           match="counted .* satisfied rows"):
            maxsat(L, dom)


def test_maxsat_counts_grids_one_point_per_block(monkeypatch):
    """Rational grids get no planes: the kernel evaluates the rows one
    point per block."""
    forbid_planes(monkeypatch)
    grid = SearchDomain.rational_grid([0, 1], [1, 2])
    for dom in (grid, grid.restricted(ZERO_SUM), grid.restricted(SUPPORT_LAST, 2),
                SearchDomain.rational_grid([-1, 1, 2], [1, 3])):
        L = gen_max3lin(3, 4, QQ, seed=3)
        want = max(reference_rows_satisfied(L, vec)
                   for vec in reference_points(dom, QQ, 3))
        assert maxsat(L, dom) == want


# (ring, domain, coordinates): every domain the kernel took over from
# the walk, with the expansion at every point as the reference
KERNEL_SPACES = (
    [(ring, SearchDomain.integer_box(box), 3) for ring in (ZZ, QQ)
     for box in range(4)]
    + [(prime_field(q), SearchDomain.exhaustive(), k)
       for q, k in ((11, 3), (13, 3), (31, 3), (101, 2))]
    + [(modular(q), SearchDomain.exhaustive(), 3) for q in (8, 9, 12)]
    # powers of two run binary with the adder cut at bit s
    + [(ring, SearchDomain.exhaustive(), k)
       for ring, k in ((prime_field(2), 5), (modular(2), 5), (modular(4), 4),
                       (modular(16), 3))])


def random_kernel_poly(ring, rng, k):
    """Degree at most 2 in k variables; fractions over Q, and some large
    coefficients over Z."""
    terms = {}
    for _ in range(rng.randint(1, 2 * k + 2)):
        exps = [0] * k
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(k)] += 1
        if ring.is_finite:
            c = rng.randrange(1, ring.modulus)
        else:
            c = rng.choice([-3, -1, 1, 2, 5, 10 ** 20])
            if ring == QQ:
                c = Fraction(c, rng.choice([1, 2, 3, 4]))
        terms[tuple(exps)] = c
    return poly(ring, k, terms)


def test_every_degree_two_search_and_maxsat_runs_the_kernel(monkeypatch):
    """Search over Z and Q boxes 0..3, Z_q of every size and the powers
    of two up to 16, under each restriction and both metrics, at several
    plane widths, against the expansion at every point; maxsat
    there against reference_rows_satisfied.  Every slot set gets
    planes."""
    require_planes(monkeypatch, "a degree-2 search or maxsat left the planes")
    rng = random.Random(271)
    cases = blocks = 0
    for ring, base, k in KERNEL_SPACES:
        values = base.values(ring)
        p = random_kernel_poly(ring, rng, k)
        counts = {}
        for vec in itertools.product(values, repeat=k):
            out = shifted_term_map(ring, p.sparse_terms, vec)
            counts[vec] = (len(out), sum(1 for key in out if key))
        L = gen_max3lin(3, rng.randint(1, 6), ring, planted=cases % 2 == 0,
                        noise_count=1, seed=rng.randrange(10 ** 6))
        doms = [base, base.restricted(ZERO_SUM),
                base.restricted(SUPPORT_LAST, rng.randint(0, k - 1))]
        for dom in doms:
            values, free, size = oracles._plan(dom, ring, k)
            points = [vec for _, vec in
                      reference_walk(values, free, k, dom.restriction, ring)]
            for m, metric in enumerate(("total", "nonconstant")):
                want = min((counts[vec][m], vec) for vec in points)
                want += (len(points),)
                # planes of 1 bit (every coordinate fixed per block) on
                # the small domains, of one or two coordinates, and of
                # the whole domain
                nv = len(values)
                for bits in ((1,) if size <= 2500 else ()) + (nv, nv * nv, 1 << 20):
                    monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                    cases += 1
                    blocks += size > bits
                    report = search_min_sparsity(p, dom, metric)
                    got = (report.min_sparsity,
                           tuple(v.val for v in report.witness), report.points)
                    assert got == want, (ring, dom.restriction, metric, p, bits)
            if size <= 2500:
                monkeypatch.setattr(bitslice, "PLANE_BITS", (1, nv, 1 << 20)[cases % 3])
                best = max(reference_rows_satisfied(L, vec)
                           for vec in reference_points(dom, ring, 3))
                assert maxsat(L, dom) == best, (ring, dom.restriction, L.rows)
    assert cases >= 300 and blocks >= 140


def digit_of(rank, span, digits, d):
    """The d-th base-span digit of rank, most significant first."""
    return rank // span ** (digits - 1 - d) % span


def test_class_planes_are_built_once_per_shape():
    bitslice.class_planes.cache_clear()
    planes = bitslice.class_planes(3, 4)
    assert bitslice.class_planes(3, 4) is planes
    assert isinstance(planes, tuple) and isinstance(planes[0], tuple)
    for d, row in enumerate(planes):
        for v, plane in enumerate(row):
            assert plane == sum(1 << r for r in range(3 ** 4)
                                if digit_of(r, 3, 4, d) == v)
    assert bitslice.class_planes.cache_info().maxsize == 4


def test_box_planes_are_built_once_per_shape():
    bitslice.box_planes.cache_clear()
    planes = bitslice.box_planes(-2, 2, 3)
    assert bitslice.box_planes(-2, 2, 3) is planes
    assert isinstance(planes, tuple) and isinstance(planes[0][1], tuple)
    assert [lo for lo, _ in planes] == [-2] * 3
    assert [k for k, _ in planes[0][1]] == [1, 2, 4]
    for lo, hi, digits in ((-2, 2, 3), (0, 0, 2), (-1, 1, 0), (0, 9, 2),
                           (3, 10, 2), (0, 1, 7), (-4, 12, 1)):
        span = hi - lo + 1
        for d, (base, bits) in enumerate(bitslice.box_planes(lo, hi, digits)):
            assert base == lo
            for k, plane in bits:
                assert plane == sum(1 << r for r in range(span ** digits)
                                    if digit_of(r, span, digits, d) & k)
    assert bitslice.box_planes.cache_info().maxsize == 4


def test_box_planes_take_log_operations_per_plane():
    """A box of 999,983 values in well under a second (a build with one
    shift per run takes time quadratic in the span), with every bit of
    a few ranks checked, and a search over a box of 600,001 values."""
    bitslice.box_planes.cache_clear()
    start = time.process_time()
    ((lo, bits),) = bitslice.box_planes(-499991, 499991, 1)
    assert time.process_time() - start < 1
    for rank in (0, 1, 2, 12345, 524287, 524288, 999982):
        assert sum(k for k, p in bits if p >> rank & 1) == rank
    assert all(p.bit_length() <= 999983 for _, p in bits)
    p = poly(ZZ, 1, {(2,): 3, (1,): 7, (0,): 5})
    report = search_min_sparsity(p, SearchDomain.integer_box(300000))
    assert report.lines()[:3] == ["min_sparsity 3", "witness -300000",
                                  "points 600001"]


def test_box_forced_matches_every_rank():
    """The forced coordinate, const minus the sum of the planed ones,
    and its in-box mask, against every rank."""
    lo, hi, digits = -1, 2, 2
    for const in (-3, 0, 2, 7):
        (base, bits), inside = bitslice.box_forced(lo, hi, digits, const)
        assert base == lo and isinstance(bits, tuple)
        for rank, combo in enumerate(itertools.product(range(lo, hi + 1),
                                                       repeat=digits)):
            x0 = const - sum(combo)
            assert inside >> rank & 1 == (lo <= x0 <= hi)
            if lo <= x0 <= hi:
                assert sum(k for k, p in bits if p >> rank & 1) == x0 - lo
    assert bitslice.box_forced(lo, hi, 0, 2) == (2, 1)
    assert bitslice.box_forced(lo, hi, 0, 3) == (3, 0)
    assert bitslice.box_forced(0, 0, 3, 0) == (0, 1)


def test_box_sum_is_built_once_per_shape():
    """A zero-sum F11 search over 7 coordinates runs 11 blocks, one per
    sum of the fixed coordinates; the planed sum behind every forced
    coordinate is built once, and a repeat of the search builds
    nothing."""
    bitslice.box_sum.cache_clear()
    F11 = prime_field(11)
    p = poly(F11, 7, {(1, 0, 0, 0, 0, 0, 1): 3, (0, 2, 0, 0, 0, 0, 0): 1,
                      (0, 0, 1, 0, 0, 0, 0): 5, (0, 0, 0, 0, 0, 0, 0): 2})
    dom = SearchDomain.exhaustive().restricted(ZERO_SUM)
    first = search_min_sparsity(p, dom).lines()
    assert bitslice.box_sum.cache_info()[:2] == (10, 1)  # (hits, misses)
    assert search_min_sparsity(p, dom).lines() == first
    assert bitslice.box_sum.cache_info()[:2] == (21, 1)
    assert bitslice.box_sum.cache_info().maxsize == 4


def random_box_poly(rng, k, unshifted):
    """A Z term map of degree at most 2 in its first k positions, with
    unshifted positions after them, and coefficients up to 10**30."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps = [0] * (k + unshifted)
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(k)] += 1
        for i in range(k, k + unshifted):
            exps[i] = rng.randint(0, 2)
        big = 10 ** rng.choice([1, 10, 30])
        terms[tuple(exps)] = rng.choice([-1, 1]) * rng.randint(1, big)
    return sparse_terms(SparsePoly(ZZ, k + unshifted, terms).terms)


def box_counts_from_planes(values, terms, k, free, zero_sum, ring=ZZ):
    """rank -> count at every in-domain point, read from the counter
    planes of the bit-sliced kernel, and the number of blocks."""
    counts = {}
    blocks = 0
    for offset, _, inside, fixed, counters in bitslice._blocks(
            ring, values, *slot_table(ring, terms, range(k)), k, free,
            zero_sum):
        blocks += 1
        for bit in range(inside.bit_length()):
            if inside >> bit & 1:
                counts[offset + bit] = fixed + sum(
                    (plane >> bit & 1) << b for b, plane in enumerate(counters))
    return counts, blocks


def test_sliced_box_counts_match_the_expansion(monkeypatch):
    rng = random.Random(241)
    split = 0
    for box in range(4):
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            for _ in range(4):
                k = rng.randint(1, 3)
                terms = random_box_poly(rng, k, rng.randint(0, 2))
                dom = SearchDomain.integer_box(box).restricted(
                    restriction, rng.randint(0, k))
                values, free, _ = oracles._plan(dom, ZZ, k)
                want = {rank: len(shifted_term_map(ZZ, terms, vec))
                        for rank, vec in reference_walk(values, free, k,
                                                        restriction, ZZ)}
                thresholds = {0, min(want.values()), min(want.values()) + 1,
                              max(want.values()), max(want.values()) + 1}
                zero_sum = restriction == ZERO_SUM
                for bits in (1, 5, 26, 1 << 20):
                    monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                    counts, blocks = box_counts_from_planes(values, terms, k,
                                                            free, zero_sum)
                    assert counts == want, (box, restriction, terms, bits)
                    split += blocks > 1
                    for t in thresholds:
                        got = bitslice.sliced_ranks_below(
                            ZZ, values, *slot_table(ZZ, terms, range(k)), k,
                            free, zero_sum, t)
                        assert got == (len(want), sorted(
                            r for r, c in want.items() if c < t))
    assert split >= 50


def wiring_poly(ring, rng, k, unshifted):
    """A term map shaped like the HN polynomial's wiring: per unshifted
    monomial, a group with one nonzero coefficient s on at least half of
    x_0..x_{k-1}, other linear terms, one or two squares or products,
    and a constant."""
    terms = {}
    rests = rng.sample(list(itertools.product(range(3), repeat=unshifted)),
                       rng.randint(1, 3))
    for rest in rests:
        s = rng.choice([-3, -2, -1, 1, 2, 3])
        shared = set(rng.sample(range(k), rng.randint((k + 1) // 2, k)))
        group = {(): rng.randint(-3, 3)}
        for i in range(k):
            c = s if i in shared else rng.choice([0, 0, 1, 3, -2])
            group[(i,)] = c
        for _ in range(rng.randint(1, 2)):
            group[tuple(sorted(rng.choices(range(k), k=2)))] = rng.choice(
                [-2, -1, 1, 2])
        for mov, c in group.items():
            exps = [0] * k + list(rest)
            for i in mov:
                exps[i] += 1
            terms[tuple(exps)] = c
    return sparse_terms(SparsePoly(ring, k + unshifted, terms).terms)


def test_balanced_zero_sum_slots_match_the_expansion(monkeypatch):
    """Zero-sum slots with t subtracted count the same as the expansion
    at every point of the reference walk, over Z boxes and Z_q, in both
    arithmetics, and t fires."""
    real = bitslice._balanced
    fired = []

    def parts(terms, domain):
        # the coefficients of a_i for i in domain, and the other terms
        linear = {key[0]: c for c, key in terms
                  if key[1:] == (1,) and key[0] in domain}
        return linear, {key: c for c, key in terms
                        if not (key[1:] == (1,) and key[0] in domain)}

    def checked(ring, slots, domain):
        out = real(ring, slots, domain)
        for (c0, before), (c1, after) in zip(slots, out):
            assert c0 == c1
            (lin0, rest0), (lin1, rest1) = (parts(before, domain),
                                            parts(after, domain))
            assert rest0 == rest1
            assert all(c and ring.canon(c) == c for c in lin1.values())
            assert len(lin1) <= len(lin0)
            fired.append(lin1 != lin0)
        return out

    monkeypatch.setattr(bitslice, "_balanced", checked)
    rng = random.Random(263)
    spaces = ([(ZZ, SearchDomain.integer_box(box)) for box in range(4)]
              + [(ring, SearchDomain.exhaustive())
                 for ring in (F2, F3, F5, prime_field(7), modular(4),
                              modular(6))])
    split = 0
    for ring, base in spaces:
        for _ in range(4):
            k = rng.randint(2, 4)
            terms = wiring_poly(ring, rng, k, rng.randint(1, 2))
            values, free, _ = oracles._plan(base.restricted(ZERO_SUM), ring, k)
            want = {rank: len(shifted_term_map(ring, terms, vec))
                    for rank, vec in reference_walk(values, free, k, ZERO_SUM,
                                                    ring)}
            for bits in (1, 5, 26, 1 << 20):
                monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                counts, blocks = box_counts_from_planes(values, terms, k, free,
                                                        True, ring)
                assert counts == want, (ring, values, terms, bits)
                split += blocks > 1
                t = min(want.values(), default=0) + 1
                assert bitslice.sliced_ranks_below(
                    ring, values, *slot_table(ring, terms, range(k)), k, free,
                    True, t) == (
                    len(want), sorted(r for r, c in want.items() if c < t))
    assert split >= 40
    assert sum(fired) >= 100


def squares_system(c1, c2, c0):
    return system(ZZ, 2, [{(2, 0): c1, (0, 2): c2, (0, 0): c0}])


def test_roundtrip_shift_direction_matches_the_walk(monkeypatch):
    """Direction 2 against the expansion at every point of the zero-sum
    walk: the same shift points, and the same sparsifying shifts, in
    rank order."""
    real = oracles.shift_to_solution
    inverted = []

    def record(inst, b):
        inverted.append(tuple(v.val for v in b))
        return real(inst, b)

    monkeypatch.setattr(oracles, "shift_to_solution", record)
    found = 0
    # (system, largest box): the expansion costs about 0.1 ms per point
    # of the 7-coordinate instances, so those stop at box 1
    systems = [
        (squares_system(1, 3, -1), 1),  # planted: (+-1, 0)
        (squares_system(2, -1, -1), 1),  # planted: (+-1, +-1)
        (squares_system(2, 1, 5), 1),  # sum of squares
        (squares_system(1, 1, -10 ** 30), 1),  # large c0
        (squares_system(10 ** 30, -1, 10 ** 30 - 1), 1),  # planted, large
        (system(ZZ, 2, [{(1, 0): 2, (0, 1): -4, (0, 0): 3}]), 3),  # parity
        (system(ZZ, 2, [{(1, 0): 1, (0, 1): 1, (0, 0): -1}]), 3),  # a line
        (system(ZZ, 1, [{(2,): 1, (0,): -1}]), 3),  # planted: +-1
        (system(ZZ, 2, [{(1, 1): 10 ** 30, (0, 0): -2 * 10 ** 30}]), 3),
    ]
    for S, largest in systems:
        inst = reduce_hn(S)
        k = inst.nsys + 1
        for box in range(largest + 1):
            values = list(range(-box, box + 1))
            free = list(range(1, k))
            terms = sparse_terms(inst.polynomial.terms)
            counts = [(len(shifted_term_map(ZZ, terms, vec)), vec) for _, vec
                      in reference_walk(values, free, k, ZERO_SUM, ZZ)]
            want = [vec for count, vec in counts if count < inst.sigma]
            del inverted[:]
            report = verify_hn_roundtrip(S, box=box)
            assert report.shift_points == len(counts)
            assert report.sparsifying_shifts == len(want)
            assert inverted == want
            assert report.consistent, report.violations
            found += len(want)
    assert found >= 5


def with_degree(ring, rng, k, degree):
    """A random polynomial in k variables with a term of total degree
    `degree` and others of lower degree."""
    exps = [0] * k
    for _ in range(degree):
        exps[rng.randrange(k)] += 1
    p = random_poly(ring, k, degree - 1, 5, rng)
    terms = dict(p.terms)
    terms[tuple(exps)] = random_nonzero(ring, rng).val
    return poly(ring, k, terms)


# (ring, domain, coordinates): one-hot F3 and F5, binary F7, F11, Z8, Z9
# and Z12, and Z and Q boxes, each small enough to expand at every point
HIGH_DEGREE_SPACES = (
    [(F3, SearchDomain.exhaustive(), 4), (F5, SearchDomain.exhaustive(), 3)]
    + [(ring, SearchDomain.exhaustive(), k)
       for ring, k in ((prime_field(7), 3), (prime_field(11), 2),
                       (modular(8), 3), (modular(9), 2), (modular(12), 2))]
    + [(ring, SearchDomain.integer_box(box), k)
       for ring, box, k in ((ZZ, 1, 3), (ZZ, 2, 3), (QQ, 1, 3), (QQ, 2, 2))])


@pytest.mark.parametrize(
    "ring, base, k", HIGH_DEGREE_SPACES,
    ids=["%s-%s%s" % (str(ring)[5:-1].replace(" ", ""), base.mode,
                       base.bound or "")
         for ring, base, _ in HIGH_DEGREE_SPACES])
def test_degree_three_and_four_searches_run_the_kernel(monkeypatch, ring, base,
                                                       k):
    """Degrees 3 and 4 under each restriction and both metrics, at two
    plane widths, against the expansion at every point; every slot set
    gets planes."""
    require_planes(monkeypatch, "a degree-3 or degree-4 search left the planes")
    rng = random.Random(281 + k * len(base.values(ring)))
    values = base.values(ring)
    for degree in (3, 4):
        p = with_degree(ring, rng, k, degree)
        counts = {}
        for vec in itertools.product(values, repeat=k):
            out = shifted_term_map(ring, p.sparse_terms, vec)
            counts[vec] = (len(out), sum(1 for key in out if key))
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            dom = base.restricted(restriction, rng.randint(1, k))
            points = reference_points(dom, ring, k)
            for m, metric in enumerate(("total", "nonconstant")):
                want = min((counts[vec][m], vec) for vec in points)
                for bits in (len(values), 1 << 20):
                    monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                    report = search_min_sparsity(p, dom, metric)
                    got = (report.min_sparsity,
                           tuple(v.val for v in report.witness), report.points)
                    assert got == want + (len(points),), \
                        (ring, restriction, metric, p, bits)


def planted_system(ring, rng, k, degree, point):
    """Up to two equations of degree at most `degree`, the first of that
    degree, that all vanish at the payload vector point."""
    eqs = []
    for i in range(rng.randint(1, 2)):
        p = (with_degree(ring, rng, k, degree) if i == 0
             else random_poly(ring, k, degree, 3, rng))
        terms = dict(p.terms)
        zero = (0,) * k
        terms[zero] = ring.canon(terms.get(zero, 0) - eval_payload(p, point))
        eqs.append(terms)
    return system(ring, k, eqs)


def test_solve_runs_the_kernel_at_degrees_one_to_four(monkeypatch):
    """Planted and random systems of degree 1 to 4 under each
    restriction, against check_solution at every point of
    reference_points; every slot set gets planes."""
    require_planes(monkeypatch, "a solve left the planes")
    rng = random.Random(283)
    seen = [0, 0]
    spaces = SCAN_SPACES + [(F5, SearchDomain.exhaustive()),
                            (modular(6), SearchDomain.exhaustive()),
                            (QQ, SearchDomain.integer_box(2))]
    for ring, base in spaces:
        values = base.values(ring)
        for restriction in (NONE, ZERO_SUM, SUPPORT_LAST):
            for degree in (1, 2, 3, 4):
                k = rng.randint(1, 3)
                dom = base.restricted(restriction, rng.randint(0, k))
                points = reference_points(dom, ring, k)
                if rng.random() < 0.5 and points:
                    S = planted_system(ring, rng, k, degree, rng.choice(points))
                else:
                    S = system(ring, k, [dict(with_degree(ring, rng, k,
                                                          degree).terms)])
                sols = [vec for vec in points
                        if check_solution(S, [ring.el(v) for v in vec])]
                want = min(sols) if sols else None
                seen[want is None] += 1
                got = solve_system(S, dom)
                got = None if got is None else tuple(v.val for v in got)
                assert got == want, (ring, restriction, S.equations)
    assert min(seen) >= 10


def test_solve_counts_an_over_wide_slot_set_one_point_per_block(monkeypatch):
    """x1^1000000 - 1 over [-2, 2] is too wide for planes, and the
    kernel's one-point blocks find -1."""
    S = system(ZZ, 1, [{(10 ** 6,): 1, (0,): -1}])
    assert not bitslice._fits(ZZ, list(range(-2, 3)),
                              [(-1, [(1, (0, 10 ** 6))])])
    forbid_planes(monkeypatch)
    assert solve_system(S, SearchDomain.integer_box(2)) == (ZZ.el(-1),)


def test_solve_certifies_its_solution(monkeypatch):
    real = oracles.sliced_min_slots

    def next_rank(*args):
        count, rank, points = real(*args)
        return count, rank + 1, points

    monkeypatch.setattr(oracles, "sliced_min_slots", next_rank)
    # x1 = 1 and x2 = 0: the one solution (1, 0) is not the last point
    for ring, dom in ((ZZ, SearchDomain.integer_box(1)),
                      (F5, SearchDomain.exhaustive())):
        S = system(ring, 2, [{(1, 0): 1, (0, 0): -1}, {(0, 1): 1}])
        with pytest.raises(InternalConsistencyError,
                           match="counted as a solution"):
            solve_system(S, dom)
