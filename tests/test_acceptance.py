"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line; run with -v (or -s) to see one
pass/fail line per criterion.  Everything is exact arithmetic at desk
scale: random corpora are seeded, quantifiers are exhausted literally,
and tolerances are zero unless a runtime budget is stated.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from shiftforge import (
    EquationSystem,
    Max3LinSystem,
    SparsePoly,
    ZZ,
    amplified_shift,
    amplify,
    build_hn_instance,
    check_solution,
    copies_for_gap,
    declared_sparsity_bound,
    embed_assignment,
    encode_max3lin,
    extend_solution,
    gap_alpha,
    gen_max3lin,
    is_quadratized_shape,
    modular,
    prime_field,
    quadratize_circuit,
    quadratize_sparse,
    reduce_hn,
    save_max3lin,
    save_poly,
    save_system,
    shift_instance,
    shifted_linear_coeff,
    solution_to_shift,
    verify_hn_roundtrip,
    verify_max3lin,
)
from shiftforge.cli import main as cli_main

from helpers import (
    out_of_box_system,
    planted_integer_system,
    random_circuit,
    random_sparse_system,
    unsolvable_integer_system,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
Z6 = modular(6)


def ok(text):
    print("PASS " + text)


def all_assignments(ring, n):
    values = [ring.el(v) for v in range(ring.modulus)]
    return [list(c) for c in itertools.product(values, repeat=n)]


@pytest.fixture(scope="session")
def sparse_corpus():
    rng = random.Random(20240501)
    out = []
    while len(out) < 200:
        S = random_sparse_system(F5, rng, max_vars=3, max_degree=4,
                                 max_terms=4, max_eqs=3)
        out.append((S,) + quadratize_sparse(S))
    return out


@pytest.fixture(scope="session")
def circuit_corpus():
    rng = random.Random(20240502)
    single = []
    while len(single) < 100:
        c = random_circuit(F5, rng.randint(1, 3), 10, rng)
        single.append(([c],) + quadratize_circuit([c]))
    grouped = []
    while len(grouped) < 30:
        nvars = rng.randint(1, 3)
        batch = [random_circuit(F5, nvars, 10, rng)
                 for _ in range(rng.randint(2, 3))]
        grouped.append((batch,) + quadratize_circuit(batch))
    return single, grouped


@pytest.fixture(scope="session")
def planted_corpus():
    rng = random.Random(20240503)
    out = []
    while len(out) < 100:
        S, sol = planted_integer_system(rng, max_vars=3, value_bound=3)
        inst = reduce_hn(S)
        out.append((S, sol, inst))
    return out


@pytest.fixture(scope="session")
def f2_corpus():
    rng = random.Random(20240504)
    out = []
    # fully satisfiable and noisy planted instances across widths
    while len(out) < 46:
        n = rng.randint(3, 4)
        m = rng.randint(1, 4)
        noise = rng.randint(0, min(1, m))
        out.append(gen_max3lin(n, m, F2, planted=True, noise_count=noise,
                               seed=len(out)))
    one = F2.one
    zero = F2.zero
    contradictory = Max3LinSystem(F2, 3, [
        ((0, 1, 2), (one,) * 3, zero),
        ((0, 1, 2), (one,) * 3, one),
    ])
    doubly = Max3LinSystem(F2, 4, [
        ((0, 1, 2), (one,) * 3, zero),
        ((0, 1, 2), (one,) * 3, one),
        ((0, 1, 3), (one,) * 3, zero),
        ((0, 1, 3), (one,) * 3, one),
    ])
    satisfiable = Max3LinSystem(F2, 3, [((0, 1, 2), (one,) * 3, one)])
    empty = Max3LinSystem(F2, 3, [])
    out += [contradictory, doubly, satisfiable, empty]
    assert all(L.w <= 8 for L in out)
    return out


@pytest.fixture(scope="session")
def f3_corpus():
    # three variables are the least any row allows, so the encoding width
    # is at least 6; exhausting 3^6 = 729 shifts per instance stays cheap
    rng = random.Random(20240505)
    out = []
    while len(out) < 48:
        m = rng.randint(1, 2)
        noise = rng.randint(0, m if rng.random() < 0.4 else 0)
        out.append(gen_max3lin(3, m, F3, planted=True, noise_count=noise,
                               seed=1000 + len(out)))
    one = F3.one
    contradictory = Max3LinSystem(F3, 3, [
        ((0, 1, 2), (one,) * 3, F3.zero),
        ((0, 1, 2), (one,) * 3, one),
    ])
    satisfiable = Max3LinSystem(F3, 3, [((0, 1, 2), (one, one, one), one)])
    out += [contradictory, satisfiable]
    assert all(L.w == 6 for L in out)
    return out


def test_criterion_01_quadratization_equivalence(sparse_corpus, circuit_corpus):
    start = time.monotonic()
    assignments = {n: all_assignments(F5, n) for n in (1, 2, 3)}
    checked = 0
    for S, T, recipe in sparse_corpus:
        for ax in assignments[S.nvars]:
            source_ok = all(eq.eval(ax).is_zero for eq in S.equations)
            lowered_ok = check_solution(T, extend_solution(recipe, ax))
            assert source_ok == lowered_ok
            checked += 1
    single, grouped = circuit_corpus
    for circuits, T, recipe in single + grouped:
        n = circuits[0].nvars
        for ax in assignments[n]:
            source_ok = all(c.eval(ax).is_zero for c in circuits)
            lowered_ok = check_solution(T, extend_solution(recipe, ax))
            assert source_ok == lowered_ok
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    ok("criterion 1: lowering preserves solutions pointwise on %d "
       "system/assignment pairs in %.1fs" % (checked, elapsed))


def test_criterion_02_output_shape(sparse_corpus, circuit_corpus):
    single, grouped = circuit_corpus
    total = 0
    for _, T, _ in sparse_corpus:
        assert is_quadratized_shape(T)
        total += 1
    for circuits, T, _ in single + grouped:
        assert is_quadratized_shape(T)
        aux = T.nvars - circuits[0].nvars
        assert aux <= len(circuits) * max(c.size for c in circuits)
        total += 1
    ok("criterion 2: all %d lowered systems are binomial-or-affine with "
       "bounded auxiliary count" % total)


def test_criterion_03_instance_structure(planted_corpus):
    strict = 0
    for _, _, inst in planted_corpus:
        poly = inst.polynomial
        assert poly.degree() <= 3
        wset = set(inst.witness.w_indices)
        for exps in poly.terms:
            touched = [p for p in wset if exps[p]]
            assert len(touched) == 1 and exps[touched[0]] == 1
        bound = declared_sparsity_bound(inst.system)
        assert inst.sigma <= bound
        if inst.sigma < bound:
            strict += 1
    assert strict >= 1
    ok("criterion 3: degree/linearity/count bounds hold on %d instances, "
       "%d strictly below the declared bound" % (len(planted_corpus), strict))


def test_criterion_04_wired_shift_exactness(planted_corpus):
    for S, sol, inst in planted_corpus:
        full = extend_solution(inst.recipe, sol)
        b = solution_to_shift(inst, full)
        assert shift_instance(inst, b).sparsity() == inst.sigma - 1
    ok("criterion 4: wired shifts drop the count by exactly one on %d "
       "planted systems" % len(planted_corpus))


def test_criterion_05_zero_sum_inversion_exhaustive(planted_corpus):
    handmade = []
    for term_maps, names in (
        ([{(1,): 1, (0,): -1}], ["x1"]),
        ([{(2,): 1, (0,): 1}], ["x1"]),
        ([{(1, 0): 1, (0, 0): -1}, {(2, 0): -1, (0, 1): 1}], ["x1", "x2"]),
    ):
        eqs = [SparsePoly(ZZ, len(names), t, names) for t in term_maps]
        handmade.append(reduce_hn(EquationSystem(ZZ, names, eqs)))
    small = [inst for inst in handmade if inst.nsys <= 4]
    small += [inst for _, _, inst in planted_corpus if inst.nsys <= 4]
    assert len(small) >= 3
    checked = 0
    for inst in small:
        begun = time.monotonic()
        for tail in itertools.product(range(-2, 3), repeat=inst.nsys):
            lead = -sum(tail)
            if abs(lead) > 2:
                continue
            b = [ZZ.el(lead)] + [ZZ.el(v) for v in tail]
            if shift_instance(inst, b).sparsity() < inst.sigma:
                a = tuple(b[1:])
                assert check_solution(inst.system, a)
                checked += 1
        assert time.monotonic() - begun < 120
    ok("criterion 5: every sparsifying zero-sum box shift inverted to a "
       "solution on %d instances (%d inversions)" % (len(small), checked))


def test_criterion_06_bounded_roundtrip_corpus():
    rng = random.Random(20240506)

    def small(builder):
        while True:
            S = builder()
            result = reduce_hn(S[0] if isinstance(S, tuple) else S)
            if getattr(result, "nsys", 0) <= 4:
                return S if not isinstance(S, tuple) else S[0]

    solvable = [
        small(lambda: planted_integer_system(
            rng, max_vars=2, max_eqs=2, value_bound=2,
            max_degree=2, max_terms=2))
        for _ in range(30)
    ]
    out_of_box = [small(lambda: out_of_box_system(rng, box=2))
                  for _ in range(15)]
    no_root = [small(lambda: unsolvable_integer_system(rng))
               for _ in range(15)]
    for S in solvable:
        report = verify_hn_roundtrip(S, box=2)
        assert report.consistent
        assert report.solutions >= 1
    for S in out_of_box + no_root:
        report = verify_hn_roundtrip(S, box=2)
        assert report.consistent
        assert report.solutions == 0
        assert report.sparsifying_shifts == 0
    ok("criterion 6: round-trip verifier consistent on %d solvable and %d "
       "solution-free systems" % (len(solvable), 30))


def test_criterion_07_amplification():
    rng = random.Random(20240507)
    cases = 0
    while cases < 25:
        base = random_sparse_system(ZZ, rng, max_vars=2, max_degree=3,
                                    max_terms=3, max_eqs=1).equations[0]
        if base.sparsity() > 6 or base.is_zero:
            continue
        for d in (1, 2, 3):
            inst = amplify(base, d)
            assert inst.polynomial.sparsity() == base.sparsity() ** d
            assert inst.polynomial.degree() == d * base.degree()
        cases += 1
    names = ["x1", "x2"]
    S = EquationSystem(ZZ, names, [
        SparsePoly(ZZ, 2, {(1, 0): 1, (0, 0): -1}, names),
        SparsePoly(ZZ, 2, {(2, 0): -1, (0, 1): 1}, names),
    ])
    hn = build_hn_instance(S, ZZ.el(2))
    for d in (1, 2, 3):
        inst = amplify(hn.polynomial, d)
        assert inst.polynomial.sparsity() == 6 ** d
        assert inst.polynomial.degree() <= 3 * d
    caveat = amplify(SparsePoly(Z6, 1, {(1,): 2, (0,): 3}, ["x"]), 2)
    assert caveat.polynomial.sparsity() <= 4
    assert caveat.polynomial.sparsity() == 2
    ok("criterion 7: disjoint products hit the exact count power over the "
       "integers on %d bases; zero-divisor case reported below it" % cases)


def test_criterion_08_shifted_count_identity(f2_corpus, f3_corpus):
    start = time.monotonic()
    for corpus in (f2_corpus, f3_corpus):
        for L in corpus:
            report = verify_max3lin(L)
            assert report.match, "min %d != 4m - maxsat %d" % (
                report.min_nonconstant, report.expected)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    ok("criterion 8: minimum shifted nonconstant count equals 4m - maxsat "
       "on %d instances in %.1fs"
       % (len(f2_corpus) + len(f3_corpus), elapsed))


def test_criterion_09_coefficient_formula(f2_corpus, f3_corpus):
    compared = 0
    for corpus, ring in ((f2_corpus, F2), (f3_corpus, F3)):
        for L in corpus:
            enc = encode_max3lin(L)
            w = enc.w
            units = [tuple(1 if q == i else 0 for q in range(w))
                     for i in range(w)]
            for combo in itertools.product(range(ring.modulus), repeat=w):
                a = [ring.el(v) for v in combo]
                shifted = enc.polynomial.shift(a)
                for i in range(1, w + 1):
                    assert (shifted.coefficient(units[i - 1])
                            == shifted_linear_coeff(enc, a, i))
                    compared += 1
            for x in all_assignments(ring, L.n):
                a = embed_assignment(L, x)
                for i in range(L.m + 1, w + 1):
                    assert shifted_linear_coeff(enc, a, i).is_zero
    ok("criterion 9: closed-form shifted coefficients match full expansion "
       "on %d coefficient evaluations; high coefficients vanish under "
       "embedded shifts" % compared)


def test_criterion_10_gap_parameters():
    assert gap_alpha(0, 0, 10) == Fraction(40, 31)
    grid = [Fraction(k, 8) for k in range(5)]
    for delta in grid:
        row = [gap_alpha(eps, delta, 10) for eps in grid]
        assert all(a > b for a, b in zip(row, row[1:]))
    for eps in grid:
        col = [gap_alpha(eps, delta, 10) for delta in grid]
        assert all(a > b for a, b in zip(col, col[1:]))
    assert copies_for_gap(6, 2) == 4
    ok("criterion 10: gap ratio exact at 40/31, strictly decreasing on the "
       "5x5 grid, copy count 4 for doubling from a 6-term base")


def test_criterion_11_determinism(tmp_path, capsys):
    names = ["x1"]
    sys_path = str(tmp_path / "s.sys")
    save_system(sys_path, EquationSystem(
        ZZ, names, [SparsePoly(ZZ, 1, {(1,): 1, (0,): -1}, names)]))
    cubic_path = str(tmp_path / "c.sys")
    cnames = ["x1", "x2", "x3"]
    save_system(cubic_path, EquationSystem(
        ZZ, cnames,
        [SparsePoly(ZZ, 3, {(1, 1, 1): 1, (0, 0, 0): -1}, cnames)]))
    poly_path = str(tmp_path / "p.poly")
    save_poly(poly_path, SparsePoly(ZZ, 1, {(2,): 1, (1,): 2, (0,): 1}, ["x"]))
    row_path = str(tmp_path / "r.3lin")
    save_max3lin(row_path, Max3LinSystem(
        F2, 3, [((0, 1, 2), (F2.one,) * 3, F2.one)]))
    enc_path = str(tmp_path / "enc.poly")

    commands = [
        ["sparsity", poly_path],
        ["shift", poly_path, "--by", "-1"],
        ["quadratize", cubic_path, "-o", str(tmp_path / "q.sys")],
        ["normalize", str(tmp_path / "q.sys"), "-o", str(tmp_path / "n.sys")],
        ["reduce-hn", sys_path, "-o", str(tmp_path / "h.poly"),
         "--witness", str(tmp_path / "h.wit")],
        ["reduce-max3lin", row_path, "-o", enc_path],
        ["amplify", poly_path, "--copies", "2",
         "-o", str(tmp_path / "a.poly")],
        ["search-shift", poly_path, "--box", "2"],
        ["solve", cubic_path, "--box", "1"],
        ["maxsat", row_path, "--exhaustive"],
        ["verify-hn", sys_path, "--box", "2"],
        ["verify-max3lin", row_path],
        ["gap-params", "--epsilon", "0", "--delta", "0", "-m", "10",
         "--target-gap", "2", "--sigma", "6"],
        ["gen-max3lin", "--n", "4", "--m", "3", "--ring", "Fp 2",
         "--planted", "--seed", "5", "-o", str(tmp_path / "g.3lin")],
    ]

    def run_once(argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, argv
        files = {}
        for flag in ("-o", "--witness"):
            if flag in argv:
                path = argv[argv.index(flag) + 1]
                with open(path, "rb") as fh:
                    files[path] = fh.read()
        return captured.out, files

    for argv in commands:
        first = run_once(argv)
        second = run_once(argv)
        assert first == second, argv

    oracle_runs = [
        ["search-shift", enc_path, "--exhaustive", "--nonconstant"],
        ["solve", cubic_path, "--box", "1"],
        ["maxsat", row_path, "--exhaustive"],
        ["verify-hn", sys_path, "--box", "2"],
        ["verify-max3lin", row_path],
    ]
    for argv in oracle_runs:
        assert run_once(argv) == run_once(argv), argv
    ok("criterion 11: %d commands byte-stable across reruns" % len(commands))
