"""Brute-force ground truth: searches, solvers, and round-trip verifiers."""

import itertools
import random

import pytest

from shiftforge import (
    ArityError,
    CapExceededError,
    EquationSystem,
    InternalConsistencyError,
    Max3LinSystem,
    PreconditionError,
    QQ,
    SparsePoly,
    UnsupportedDomainError,
    ZZ,
    check_solution,
    gen_max3lin,
    maxsat,
    modular,
    prime_field,
    reduce_hn,
    search_min_sparsity,
    shift_instance,
    solution_to_shift,
    solve_system,
    verify_hn_roundtrip,
    verify_max3lin,
)
from shiftforge import bitslice, oracles
from shiftforge.oracles import NONE, SUPPORT_LAST, ZERO_SUM, SearchDomain
from shiftforge.sparsepoly import shift_counts

from helpers import (
    out_of_box_system,
    planted_integer_system,
    random_poly,
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
    assert report.violations == 0


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
        "violations 0",
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


def test_parallel_matches_serial():
    rng = random.Random(173)
    for _ in range(30):
        ring = rng.choice([F2, F3, ZZ])
        p = random_poly(ring, rng.randint(1, 3), 2, 4, rng)
        dom = (
            SearchDomain.exhaustive()
            if ring.is_finite
            else SearchDomain.integer_box(1)
        )
        serial = search_min_sparsity(p, dom)
        parallel = search_min_sparsity(p, dom, jobs=4)
        assert serial.min_sparsity == parallel.min_sparsity
        assert serial.witness == parallel.witness
        assert serial.points == parallel.points
    for _ in range(10):
        S, _ = planted_integer_system(rng, max_vars=2, value_bound=1)
        dom = SearchDomain.integer_box(1)
        assert solve_system(S, dom) == solve_system(S, dom, jobs=4)
    for _ in range(10):
        L = gen_max3lin(4, 4, F2, planted=True, seed=rng.random())
        dom = SearchDomain.exhaustive()
        assert maxsat(L, dom) == maxsat(L, dom, jobs=4)


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
        "violations 0",
    ]
    # solve and maxsat walk the same domain
    zs = SearchDomain.exhaustive().restricted(ZERO_SUM)
    sol = solve_system(system(F3, 3, [{(0, 1, 0): 1, (0, 0, 0): -1}]), zs)
    assert tuple(v.val for v in sol) == (0, 1, 2)
    L = Max3LinSystem(F3, 3, [((0, 1, 2), (F3.one, F3.one, F3.el(2)), F3.one)])
    assert maxsat(L, zs) == 1


class SerialPool:
    """Stands in for the process pool: same chunks, run in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


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


def test_kernel_search_matches_expansion(monkeypatch):
    monkeypatch.setattr(oracles, "ProcessPoolExecutor", SerialPool)
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
                    for jobs in (1, 2, 3, 7):
                        report = search_min_sparsity(p, dom, metric, jobs=jobs)
                        got = (report.min_sparsity,
                               tuple(v.val for v in report.witness),
                               report.points)
                        assert got == want, (ring, restriction, metric, p, jobs)


def test_kernel_counts_match_shift_instance_on_hn_corpora():
    rng = random.Random(193)
    systems = [planted_integer_system(rng, max_vars=2, max_eqs=2, value_bound=1,
                                      max_degree=2, max_terms=2)[0]
               for _ in range(12)]
    systems += [unsolvable_integer_system(rng) for _ in range(12)]
    checked = 0
    for S in systems:
        inst = reduce_hn(S)
        if not hasattr(inst, "nsys") or inst.nsys > 4:
            continue
        n = inst.nsys
        box = rng.randint(1, 2)
        values = list(range(-box, box + 1))
        walk = oracles._walk(values, range(1, n + 1), n + 1, ZERO_SUM, ZZ,
                             0, len(values) ** n)
        seen = []
        for count, vec in shift_counts(ZZ, sparse_terms(inst.polynomial.terms),
                                       range(n + 1), walk):
            if vec is None:
                continue
            b = [ZZ.el(v) for v in vec]
            assert count == shift_instance(inst, b).sparsity()
            seen.append(tuple(vec))
        assert seen == [(-sum(tail),) + tail
                        for tail in itertools.product(values, repeat=n)
                        if abs(sum(tail)) <= box]
        checked += 1
    assert checked >= 12


def test_search_certifies_the_kernel_count(monkeypatch):
    real = oracles.shift_counts

    def off_by_one(*args, **kwargs):
        for count, vec in real(*args, **kwargs):
            yield count + 1, vec

    monkeypatch.setattr(oracles, "shift_counts", off_by_one)
    p = poly(ZZ, 2, {(1, 1): 1, (1, 0): 1, (0, 0): 2})
    with pytest.raises(InternalConsistencyError):
        search_min_sparsity(p, SearchDomain.integer_box(1))


# the largest k per modulus that keeps the expansion reference fast
SLICED_K = {2: 8, 3: 5, 4: 4, 5: 3, 6: 3, 7: 3}


def test_sliced_search_matches_kernel_and_expansion(monkeypatch):
    real_scan = oracles._scan

    def no_scan(*args):
        raise AssertionError("a small finite ring search left the sliced path")

    real_planes = bitslice.class_planes

    def bounded_planes(q, digits):
        # as many coordinates as fit in one plane, and no more
        assert q ** digits <= bitslice.PLANE_BITS
        assert digits == free_count or q ** (digits + 1) > bitslice.PLANE_BITS
        return real_planes(q, digits)

    monkeypatch.setattr(oracles, "_scan", no_scan)
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
                    kernel = real_scan(oracles._shift_scores, (p, metric), dom,
                                       ring, k, 1)
                    # planes of 1 bit (every coordinate fixed per block),
                    # of some coordinates, and of the whole domain
                    for bits, jobs in ((1, 1), (q, 2), (q * q + 1, 3),
                                       (1 << 20, 7)):
                        monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                        blocks += want[2] > bits
                        assert oracles._sliced_scan(p, dom, metric) == kernel
                        report = search_min_sparsity(p, dom, metric, jobs=jobs)
                        got = (report.min_sparsity,
                               tuple(v.val for v in report.witness),
                               report.points)
                        assert got == want, (ring, restriction, metric, p, bits)
    assert blocks >= 100


def test_search_keeps_the_walk_outside_the_sliced_scope(monkeypatch):
    def no_slices(*args):
        raise AssertionError("the sliced kernel ran out of its scope")

    monkeypatch.setattr(oracles, "sliced_min_count", no_slices)
    rng = random.Random(229)
    cases = [
        (random_poly(prime_field(11), 2, 2, 5, rng), SearchDomain.exhaustive()),
        (random_poly(modular(8), 2, 2, 5, rng), SearchDomain.exhaustive()),
        (poly(F3, 2, {(3, 0): 1, (1, 1): 2, (0, 0): 1}), SearchDomain.exhaustive()),
        (random_poly(ZZ, 2, 2, 5, rng), SearchDomain.integer_box(1)),
    ]
    for p, dom in cases:
        report = search_min_sparsity(p, dom)
        assert (report.min_sparsity, tuple(v.val for v in report.witness),
                report.points) == reference_search(p, dom, "total")


def test_search_certifies_the_sliced_count(monkeypatch):
    real = oracles.sliced_min_count

    def off_by_one(*args):
        count, rank = real(*args)
        return count + 1, rank

    monkeypatch.setattr(oracles, "sliced_min_count", off_by_one)
    p = poly(F3, 2, {(1, 1): 1, (1, 0): 1, (0, 0): 2})
    with pytest.raises(InternalConsistencyError):
        search_min_sparsity(p, SearchDomain.exhaustive())


def test_scan_makes_no_more_chunks_than_usable_cpus(monkeypatch):
    pools = []

    class RecordingPool(SerialPool):
        def __init__(self, max_workers):
            self.workers = max_workers
            pools.append(self)

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracles, "_usable_cpus", lambda: 3)
    p = random_poly(ZZ, 4, 2, 6, random.Random(233))
    dom = SearchDomain.integer_box(2)
    serial = search_min_sparsity(p, dom).lines()
    assert pools == []
    assert search_min_sparsity(p, dom, jobs=10 ** 9).lines() == serial
    assert [(pool.workers, len(pool.tasks)) for pool in pools] == [(3, 3)]
    # one chunk per point below the CPU count, and none for one point
    grid = SearchDomain.rational_grid([0, 1], [1])
    search_min_sparsity(poly(QQ, 1, {(1,): 1}), grid, jobs=10 ** 9)
    one = SearchDomain.integer_box(0)
    search_min_sparsity(poly(ZZ, 1, {(1,): 1}), one, jobs=10 ** 9)
    assert [(pool.workers, len(pool.tasks)) for pool in pools[1:]] == [(2, 2)]


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    # the affinity mask wins over the host's CPU count
    monkeypatch.setattr(oracles.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(oracles.os, "cpu_count", lambda: 64)
    assert oracles._pool_size(10 ** 9, 10 ** 6) == 2
    assert oracles._pool_size(4, 1) == 1
    assert oracles._pool_size(1, 5) == 1
    # without an affinity call, the host's count
    monkeypatch.delattr(oracles.os, "sched_getaffinity", raising=False)
    assert oracles._pool_size(8, 3) == 3
    assert oracles._pool_size(100, 100) == 64
    monkeypatch.setattr(oracles.os, "cpu_count", lambda: None)
    assert oracles._pool_size(8, 8) == 1
    # the chunk count follows jobs, not the machine
    assert len(oracles._chunk_bounds(100, 8)) == 8


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


def test_walk_matches_product_reference():
    rng = random.Random(197)
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
            values, free, size = oracles._plan(dom.restricted(restriction, 2),
                                               ring, k)
            want = reference_walk(values, free, k, restriction, ring)
            splits = [(0, size), (0, 0), (size, size), (size - 1, size)]
            splits += [tuple(sorted(rng.sample(range(size + 1), 2)))
                       for _ in range(6)]
            for parts in (2, 3, 7):
                splits += oracles._chunk_bounds(size, parts)
            for lo, hi in splits:
                got = []
                replay = [ring.canon(0)] * k
                entries = 0
                for changes, vec in oracles._walk(values, free, k, restriction,
                                                  ring, lo, hi):
                    for pos, v in changes:
                        replay[pos] = v
                    entries += len(changes)
                    assert len({pos for pos, _ in changes}) == len(changes)
                    assert replay == vec, (ring, restriction, lo, hi)
                    got.append(tuple(vec))
                assert got == [v for r, v in want if lo <= r < hi], \
                    (ring, restriction, lo, hi)
                # each rank moves at most two odometer digits on average,
                # plus the forced coordinate: linear in the ranks walked
                assert entries <= 3 * (hi - lo) + k, (ring, restriction, lo, hi)


def test_roundtrip_violations_are_in_rank_order(monkeypatch):
    from shiftforge import NoReductionError, extend_solution
    from shiftforge.sparsepoly import format_vector

    real_shift_instance = oracles.shift_instance

    def odd(vec):
        return vec[1].val % 2 == 1

    def short_drop(inst, b):
        # every solution whose wired shift has an odd second coordinate
        # reports no drop
        return inst.polynomial if odd(b) else real_shift_instance(inst, b)

    def refuse(inst, b):
        if odd(b):
            raise NoReductionError("refused")
        return tuple(b[1:])

    monkeypatch.setattr(oracles, "shift_instance", short_drop)
    monkeypatch.setattr(oracles, "shift_to_solution", refuse)
    S = system(ZZ, 3, [{(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -1}])
    box = 2
    inst = reduce_hn(S)
    values = range(-box, box + 1)
    want = []
    for combo in itertools.product(values, repeat=inst.n_inputs):
        full = extend_solution(inst.recipe, [ZZ.el(v) for v in combo])
        if check_solution(inst.system, full) and odd(solution_to_shift(inst, full)):
            want.append("solution %s drops 0" % format_vector(full))
    for tail in itertools.product(values, repeat=inst.nsys):
        b = (ZZ.el(-sum(tail)),) + tuple(ZZ.el(v) for v in tail)
        if (abs(sum(tail)) <= box and odd(b)
                and real_shift_instance(inst, b).sparsity() < inst.sigma):
            want.append("shift %s: refused" % format_vector(b))
    assert len(want) >= 10
    assert any(w.startswith("solution") for w in want)
    assert verify_hn_roundtrip(S, box=box).violations == want


def test_roundtrip_checks_both_caps_before_any_work(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a space was walked before the cap check")

    monkeypatch.setattr(oracles, "_walk", no_walk)
    S = system(ZZ, 2, [{(1, 0): 1, (0, 1): 1, (0, 0): -1}])
    # 25 source assignments fit, 625 zero-sum ranks do not
    with pytest.raises(CapExceededError):
        verify_hn_roundtrip(S, box=2, cap=100)


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


def test_solve_matches_product_reference(monkeypatch):
    monkeypatch.setattr(oracles, "ProcessPoolExecutor", SerialPool)
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
                for jobs in (1, 2, 3, 7):
                    got = solve_system(S, dom, jobs=jobs)
                    got = None if got is None else tuple(v.val for v in got)
                    assert got == want, (ring, restriction, S.equations, jobs)
    assert seen_ties and seen_none


def test_maxsat_matches_product_reference(monkeypatch):
    monkeypatch.setattr(oracles, "ProcessPoolExecutor", SerialPool)
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
                for jobs in (1, 2, 3, 7):
                    assert maxsat(L, dom, jobs=jobs) == want, \
                        (ring, restriction, L.rows, jobs)


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


def test_sliced_maxsat_matches_the_walk_and_the_product(monkeypatch):
    real_scan = oracles._scan

    def no_scan(*args):
        raise AssertionError("a bit-sliced maxsat domain was walked")

    monkeypatch.setattr(oracles, "_scan", no_scan)
    monkeypatch.setattr(oracles, "ProcessPoolExecutor", SerialPool)
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
                jobs = (1, 2, 3, 7)[cases % 4]
                cases += 1
                want = max(reference_rows_satisfied(L, vec)
                           for vec in reference_points(dom, ring, n))
                walk, _ = real_scan(oracles._maxsat_scores, L, dom, ring, n, jobs)
                assert -walk[0] == want
                # planes of 1 bit (every coordinate fixed per block), of
                # some coordinates, and of the whole domain
                size = oracles._plan(dom, ring, n)[2]
                bits = (1, len(dom.values(ring)) + 1, 1 << 20)[cases % 3]
                blocks += size > bits
                monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                assert maxsat(L, dom, jobs=jobs) == want, \
                    (ring, dom.mode, dom.bound, dom.restriction,
                     dom.support_n, L.rows, bits)
    assert cases >= 200 and blocks >= 50


def test_sliced_maxsat_certifies_its_count(monkeypatch):
    real = oracles.sliced_min_slots

    def off_by_one(*args):
        count, rank = real(*args)
        return count + 1, rank

    monkeypatch.setattr(oracles, "sliced_min_slots", off_by_one)
    for ring, dom, _ in SLICED_MAXSAT_SPACES[1::3]:
        L = gen_max3lin(4, 5, ring, seed=7)
        with pytest.raises(InternalConsistencyError,
                           match="counted .* satisfied rows"):
            maxsat(L, dom)


def test_maxsat_keeps_the_walk_outside_the_sliced_scope(monkeypatch):
    def no_slices(*args):
        raise AssertionError("the sliced kernel ran out of its scope")

    monkeypatch.setattr(oracles, "sliced_min_slots", no_slices)
    for ring, dom in ((prime_field(11), SearchDomain.exhaustive()),
                      (modular(8), SearchDomain.exhaustive()),
                      (QQ, SearchDomain.integer_box(1)),
                      (QQ, SearchDomain.rational_grid([0, 1], [1, 2]))):
        L = gen_max3lin(3, 4, ring, seed=3)
        want = max(reference_rows_satisfied(L, vec)
                   for vec in reference_points(dom, ring, 3))
        assert maxsat(L, dom) == want


def test_class_planes_are_built_once_per_shape():
    bitslice.class_planes.cache_clear()
    planes = bitslice.class_planes(3, 4)
    assert bitslice.class_planes(3, 4) is planes
    assert isinstance(planes, tuple) and isinstance(planes[0], tuple)
    assert planes == tuple(map(tuple, bitslice.digit_planes(
        3, 4, [[(v, v + 1)] for v in range(3)])))
    assert bitslice.class_planes.cache_info().maxsize == 4


def test_box_planes_are_built_once_per_shape():
    bitslice.box_planes.cache_clear()
    planes = bitslice.box_planes(-2, 2, 3)
    assert bitslice.box_planes(-2, 2, 3) is planes
    assert isinstance(planes, tuple) and isinstance(planes[0][1], tuple)
    runs = [[(1, 2), (3, 4)], [(2, 4)], [(4, 5)]]
    assert tuple(tuple(p for _, p in bits) for _, bits in planes) == tuple(
        map(tuple, bitslice.digit_planes(5, 3, runs)))
    assert [lo for lo, _ in planes] == [-2] * 3
    assert [k for k, _ in planes[0][1]] == [1, 2, 4]
    assert bitslice.box_planes.cache_info().maxsize == 4


def test_box_forced_is_built_once_per_block_shape():
    """The forced coordinate, const minus the sum of the planed ones,
    and its in-box mask, against every rank; const is part of the key."""
    bitslice.box_forced.cache_clear()
    lo, hi, digits = -1, 2, 2
    for const in (-3, 0, 2, 7):
        forced = bitslice.box_forced(lo, hi, digits, const)
        assert bitslice.box_forced(lo, hi, digits, const) is forced
        (base, bits), inside = forced
        assert base == lo and isinstance(bits, tuple)
        for rank, combo in enumerate(itertools.product(range(lo, hi + 1),
                                                       repeat=digits)):
            x0 = const - sum(combo)
            assert inside >> rank & 1 == (lo <= x0 <= hi)
            if lo <= x0 <= hi:
                assert sum(k for k, p in bits if p >> rank & 1) == x0 - lo
    assert bitslice.box_forced(lo, hi, 0, 2) == (2, 1)
    assert bitslice.box_forced(lo, hi, 0, 3) == (3, 0)
    assert bitslice.box_forced.cache_info().maxsize == 8


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
            ring, values, *bitslice.term_slots(ring, terms, k), k, free,
            zero_sum):
        blocks += 1
        for bit in range(inside.bit_length()):
            if inside >> bit & 1:
                counts[offset + bit] = fixed + sum(
                    (plane >> bit & 1) << b for b, plane in enumerate(counters))
    return counts, blocks


def test_sliced_box_counts_match_shift_counts(monkeypatch):
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
                points = reference_walk(values, free, k, restriction, ZZ)
                walk = (([(pos, v) for pos, v in enumerate(vec)], rank)
                        for rank, vec in points)
                want = {rank: count for count, rank
                        in shift_counts(ZZ, terms, range(k), walk)}
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
                            ZZ, values, terms, k, free, zero_sum, t)
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


def test_balanced_zero_sum_slots_match_shift_counts(monkeypatch):
    """Zero-sum slots with t subtracted count the same as shift_counts
    along the reference walk, over Z boxes and Z_q, and t fires."""
    real = bitslice._balanced
    fired = []

    def checked(ring, slots, domain):
        out = real(ring, slots, domain)
        for (c0, before, q0), (c1, after, q1) in zip(slots, out):
            assert (c0, q0) == (c1, q1)
            assert all(ring.canon(c) == c for _, c in after)
            nonzero = [sum(1 for i, c in lin if i in domain and c)
                       for lin in (before, after)]
            assert nonzero[1] <= nonzero[0]
            fired.append(after != before)
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
            points = reference_walk(values, free, k, ZERO_SUM, ring)
            walk = (([(pos, v) for pos, v in enumerate(vec)], rank)
                    for rank, vec in points)
            want = {rank: count for count, rank
                    in shift_counts(ring, terms, range(k), walk)}
            for bits in (1, 5, 26, 1 << 20):
                monkeypatch.setattr(bitslice, "PLANE_BITS", bits)
                counts, blocks = box_counts_from_planes(values, terms, k, free,
                                                        True, ring)
                assert counts == want, (ring, values, terms, bits)
                split += blocks > 1
                t = min(want.values(), default=0) + 1
                assert bitslice.sliced_ranks_below(
                    ring, values, terms, k, free, True, t) == (
                    len(want), sorted(r for r, c in want.items() if c < t))
    assert split >= 40
    assert sum(fired) >= 100


def squares_system(c1, c2, c0):
    return system(ZZ, 2, [{(2, 0): c1, (0, 2): c2, (0, 0): c0}])


def test_roundtrip_shift_direction_matches_the_walk(monkeypatch):
    """Direction 2 against shift_counts along the zero-sum walk: the same
    shift points, and the same sparsifying shifts, in rank order."""
    real = oracles.shift_to_solution
    inverted = []

    def record(inst, b):
        inverted.append(tuple(v.val for v in b))
        return real(inst, b)

    monkeypatch.setattr(oracles, "shift_to_solution", record)
    found = 0
    systems = [
        squares_system(1, 3, -1),  # planted: (+-1, 0)
        squares_system(2, -1, -1),  # planted: (+-1, +-1)
        squares_system(2, 1, 5),  # sum of squares
        system(ZZ, 2, [{(1, 0): 2, (0, 1): -4, (0, 0): 3}]),  # parity
        squares_system(1, 1, -10 ** 30),  # large c0
        squares_system(10 ** 30, -1, 10 ** 30 - 1),  # planted, large
    ]
    for S in systems:
        inst = reduce_hn(S)
        k = inst.nsys + 1
        for box in range(4):
            values = list(range(-box, box + 1))
            free = list(range(1, k))
            walk = oracles._walk(values, free, k, ZERO_SUM, ZZ, 0,
                                 len(values) ** len(free))
            counts = [(count, tuple(vec)) for count, vec
                      in shift_counts(ZZ, sparse_terms(inst.polynomial.terms), range(k), walk)]
            want = [vec for count, vec in counts if count < inst.sigma]
            del inverted[:]
            report = verify_hn_roundtrip(S, box=box)
            assert report.shift_points == len(counts)
            assert report.sparsifying_shifts == len(want)
            assert inverted == want
            assert report.consistent, report.violations
            found += len(want)
    assert found >= 5
