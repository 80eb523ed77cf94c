"""Shift-sparsification encoding of root-finding over the integers."""

import inspect
import itertools
import random
import tracemalloc

import pytest

from shiftforge import (
    ArityError,
    EquationSystem,
    FormatError,
    HNInstance,
    InvalidGammaError,
    NoReductionError,
    NotASolutionError,
    PreconditionError,
    QQ,
    SparsePoly,
    StructureError,
    TriviallySolvable,
    UnsupportedDomainError,
    ZZ,
    build_hn_instance,
    check_solution,
    declared_sparsity_bound,
    extend_solution,
    load_witness,
    reduce_hn,
    save_witness,
    shift_instance,
    shift_to_solution,
    solution_to_shift,
)
from shiftforge import hn_reduce
from shiftforge.hn_reduce import witness_from_text, witness_to_text

from helpers import (
    assert_canonical,
    planted_integer_system,
    random_circuit,
    random_vector,
)

GAMMA = ZZ.el(2)


def xsystem(names, term_maps):
    n = len(names)
    eqs = [SparsePoly(ZZ, n, t, names) for t in term_maps]
    return EquationSystem(ZZ, names, eqs)


def test_single_equation_build_frozen():
    S = xsystem(["x1"], [{(1,): 1, (0,): -1}])
    inst = build_hn_instance(S, GAMMA)
    assert inst.polynomial.var_names == ("x0", "x1", "w1")
    assert inst.polynomial.terms == {(0, 1, 1): 1, (0, 0, 1): -1}
    assert inst.sigma == 2
    assert declared_sparsity_bound(S) == 2


def test_two_equation_build_frozen():
    S = xsystem(
        ["x1", "x2"],
        [{(1, 0): 1, (0, 0): -1}, {(2, 0): -1, (0, 1): 1}],
    )
    inst = build_hn_instance(S, GAMMA)
    assert inst.polynomial.var_names == ("x0", "x1", "x2", "w1", "w2")
    assert inst.polynomial.terms == {
        (0, 1, 0, 1, 0): 1,
        (0, 0, 0, 1, 0): -1,
        (0, 2, 0, 0, 1): -2,
        (1, 0, 0, 0, 1): 1,
        (0, 1, 0, 0, 1): 1,
        (0, 0, 1, 0, 1): 3,
    }
    assert inst.sigma == 6
    assert declared_sparsity_bound(S) == 7

    b = (ZZ.el(-2), ZZ.one, ZZ.one)
    assert shift_instance(inst, b).sparsity() == 5
    assert solution_to_shift(inst, (ZZ.one, ZZ.one)) == b
    assert shift_to_solution(inst, b) == (ZZ.one, ZZ.one)


def test_pipeline_on_cubic_monomial():
    S = xsystem(["x1", "x2", "x3"], [{(1, 1, 1): 1, (0, 0, 0): -1}])
    inst = reduce_hn(S)
    assert isinstance(inst, HNInstance)
    assert inst.nsys == 6
    assert inst.sigma == 25
    assert declared_sparsity_bound(inst.system) == 29
    assert inst.polynomial.degree() == 3
    assert inst.n_inputs == 3

    ones = extend_solution(inst.recipe, [ZZ.one] * 3)
    b = solution_to_shift(inst, ones)
    assert shift_instance(inst, b).sparsity() == inst.sigma - 1
    assert shift_to_solution(inst, b) == ones


def test_every_monomial_is_linear_in_one_outer_variable():
    rng = random.Random(83)
    for _ in range(25):
        S, _ = planted_integer_system(rng)
        inst = reduce_hn(S)
        wset = set(inst.witness.w_indices)
        for exps in inst.polynomial.terms:
            touched = [p for p in wset if exps[p]]
            assert len(touched) == 1 and exps[touched[0]] == 1
        assert inst.polynomial.degree() <= 3
        assert inst.sigma <= declared_sparsity_bound(inst.system)
        if len(inst.system.equations) >= 2:
            assert inst.sigma < declared_sparsity_bound(inst.system)


def test_sparsity_formula_exact():
    # first equation contributes its own count; every other one merges its
    # linear part into the window row, leaving quadratic terms plus N+1
    rng = random.Random(89)
    for _ in range(25):
        S, _ = planted_integer_system(rng)
        inst = reduce_hn(S)
        eqs = inst.system.equations
        n = inst.nsys
        expected = eqs[0].sparsity()
        for eq in eqs[1:]:
            quad = sum(1 for e in eq.terms if sum(e) == 2)
            expected += quad + n + 1
        assert inst.sigma == expected


def encoded_terms_reference(S, gamma):
    """w1*g1 + sum over i >= 2 of w_i*(gamma*g_i + x0 + ... + xN), summed
    term by term through the public constructor."""
    n, t = S.nvars, len(S.equations)
    terms = {}
    for i, eq in enumerate(S.equations):
        body = [((0,) + e, c * (gamma.val if i else 1)) for e, c in eq.terms.items()]
        if i:
            body += [(tuple(int(q == k) for q in range(n + 1)), 1)
                     for k in range(n + 1)]
        wtail = tuple(int(j == i) for j in range(t))
        for e, c in body:
            terms[e + wtail] = terms.get(e + wtail, 0) + c
    return SparsePoly(ZZ, n + 1 + t, terms).terms


def circuit_lowered_instances(rng, count):
    """HN instances of systems lowered from small random circuits over
    three inputs, each with at least 40 lowered variables: the sum and
    var rows of the lowering are linear, so the window block meets g_i's
    own linear terms in most summands."""
    out = []
    while len(out) < count:
        circuits = [random_circuit(ZZ, 3, 16, rng) for _ in range(4)]
        inst = reduce_hn(circuits)
        if isinstance(inst, HNInstance) and inst.nsys >= 40:
            out.append(inst)
    return out


def test_encoder_matches_term_by_term_reference():
    # planted systems of at most 4 variables, and circuit-lowered ones
    # of 40 or more
    rng = random.Random(97)
    lowered = [inst.system for inst in circuit_lowered_instances(random.Random(101), 4)]
    for gamma in (GAMMA, ZZ.el(-3)):
        for _ in range(25):
            S, _ = planted_integer_system(rng, max_vars=4, max_eqs=4, max_degree=4)
            inst = reduce_hn(S, gamma)
            assert_canonical(inst.polynomial)
            assert inst.polynomial.terms == encoded_terms_reference(inst.system, gamma)
        for S in lowered:
            poly = build_hn_instance(S, gamma).polynomial
            assert_canonical(poly)
            assert poly.terms == encoded_terms_reference(S, gamma)


def test_a_window_block_that_drops_the_linear_terms_is_caught():
    """build_hn_instance with the linear coefficients of gamma * g_i
    overwritten by the window block and not added back gives a wrong
    polynomial; recompiled unchanged, it gives the reference."""
    source = inspect.getsource(hn_reduce.build_hn_instance)

    def mutant(old, new):
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), vars(hn_reduce), namespace)
        return namespace["build_hn_instance"]

    overwritten = mutant("terms[key] += c\n", "pass\n")
    same = mutant("terms[key] += c\n", "terms[key] += c\n")
    insts = circuit_lowered_instances(random.Random(103), 3)
    for build, equal in ((overwritten, False), (same, True)):
        assert all((build(inst.system, GAMMA).polynomial.terms
                    == encoded_terms_reference(inst.system, GAMMA)) is equal
                   for inst in insts)


def test_trivially_solvable_homogeneous():
    S = xsystem(["x1", "x2"], [{(1, 0): 1, (0, 1): -1}])
    res = reduce_hn(S)
    assert isinstance(res, TriviallySolvable)
    assert res.certificate == (ZZ.zero, ZZ.zero)
    full = extend_solution(res.recipe, res.certificate)
    assert check_solution(res.system, full)


def test_contradictory_constant_system():
    S = EquationSystem(ZZ, [], [SparsePoly(ZZ, 0, {(): 2})])
    inst = reduce_hn(S)
    assert inst.polynomial.terms == {(0, 1): 1 * 2}
    assert inst.sigma == 1
    assert inst.nsys == 0
    # the only zero-sum shift is b = (0,), which cannot sparsify
    assert shift_instance(inst, [ZZ.zero]).sparsity() == 1


def test_gamma_validation():
    S = xsystem(["x1"], [{(1,): 1, (0,): -1}])
    for bad in (ZZ.zero, ZZ.one, ZZ.el(-1)):
        with pytest.raises(InvalidGammaError):
            build_hn_instance(S, bad)
    with pytest.raises(InvalidGammaError):
        build_hn_instance(S, QQ.el(2))
    with pytest.raises(InvalidGammaError):
        reduce_hn(S, gamma=ZZ.one)


def test_rejects_non_integer_rings():
    names = ["x1"]
    S = EquationSystem(QQ, names, [SparsePoly(QQ, 1, {(1,): 1, (0,): -1}, names)])
    with pytest.raises(UnsupportedDomainError):
        reduce_hn(S)
    with pytest.raises(UnsupportedDomainError):
        build_hn_instance(S, QQ.el(2))


def test_reduce_hn_refuses_no_circuits_and_shifts_of_the_wrong_length():
    with pytest.raises(PreconditionError, match="empty circuit list"):
        reduce_hn([])
    inst = build_hn_instance(xsystem(["x1"], [{(1,): 1, (0,): -1}]), GAMMA)
    assert inst.nsys == 1
    for b in ([], [ZZ.el(-1)], [ZZ.el(-1), ZZ.el(1), ZZ.el(0)]):
        with pytest.raises(ArityError, match="shift of length %d" % len(b)):
            shift_to_solution(inst, b)


def test_build_preconditions():
    with pytest.raises(PreconditionError):
        build_hn_instance(EquationSystem(ZZ, ["x1"], []), GAMMA)
    # first equation constant-free
    with pytest.raises(PreconditionError):
        build_hn_instance(xsystem(["x1"], [{(1,): 1}]), GAMMA)
    # first equation not affine-linear
    with pytest.raises(PreconditionError):
        build_hn_instance(xsystem(["x1"], [{(2,): 1, (0,): -1}]), GAMMA)
    # later equation carries a constant
    with pytest.raises(PreconditionError):
        build_hn_instance(
            xsystem(["x1"], [{(1,): 1, (0,): -1}, {(1,): 1, (0,): 1}]), GAMMA
        )
    # later equation above degree 2
    with pytest.raises(PreconditionError):
        build_hn_instance(
            xsystem(["x1"], [{(1,): 1, (0,): -1}, {(3,): 1}]), GAMMA
        )


def test_shift_and_inversion_errors():
    S = xsystem(["x1"], [{(1,): 1, (0,): -1}])
    inst = build_hn_instance(S, GAMMA)
    with pytest.raises(ArityError):
        shift_instance(inst, [ZZ.zero])
    with pytest.raises(ArityError):
        solution_to_shift(inst, [ZZ.one, ZZ.one])
    with pytest.raises(NotASolutionError):
        solution_to_shift(inst, [ZZ.zero])
    with pytest.raises(StructureError):
        shift_to_solution(inst, [ZZ.el(5), ZZ.one])
    with pytest.raises(NoReductionError):
        shift_to_solution(inst, [ZZ.zero, ZZ.zero])


def test_wired_shift_drops_exactly_one():
    rng = random.Random(97)
    for _ in range(40):
        S, sol = planted_integer_system(rng)
        inst = reduce_hn(S)
        full = extend_solution(inst.recipe, sol)
        b = solution_to_shift(inst, full)
        assert sum(v.val for v in b) == 0
        assert shift_instance(inst, b).sparsity() == inst.sigma - 1
        assert shift_to_solution(inst, b) == full


def test_outer_shifts_never_help():
    # the instance is linear in the outer block, so shifting it on top of
    # any x-shift only adds outer-free monomials; the count never drops,
    # and the sigma - 1 floor holds throughout
    rng = random.Random(101)
    seen = 0
    while seen < 200:
        S, _ = planted_integer_system(rng, max_vars=2, max_eqs=2)
        inst = reduce_hn(S)
        t = len(inst.witness.w_indices)
        for _ in range(20):
            seen += 1
            bx = random_vector(ZZ, rng, inst.nsys + 1)
            cw = random_vector(ZZ, rng, t)
            base = inst.polynomial.shift(list(bx) + [ZZ.zero] * t).sparsity()
            shifted = inst.polynomial.shift(list(bx) + list(cw)).sparsity()
            assert shifted >= base
            assert shifted >= inst.sigma - 1


def test_zero_sum_completion_is_optimal_at_solutions():
    # for a wired shift built from a solution, every other choice of the
    # lead coordinate is at least as dense
    rng = random.Random(103)
    for _ in range(25):
        S, sol = planted_integer_system(rng, max_vars=2, max_eqs=2)
        inst = reduce_hn(S)
        full = extend_solution(inst.recipe, sol)
        b = list(solution_to_shift(inst, full))
        best = shift_instance(inst, b).sparsity()
        for lead in range(-4, 5):
            cand = shift_instance(inst, [ZZ.el(lead)] + b[1:]).sparsity()
            assert cand >= best


def test_every_sparsifying_zero_sum_shift_in_box_inverts():
    rng = random.Random(107)
    cases = 0
    for _ in range(20):
        S, _ = planted_integer_system(
            rng, max_vars=2, max_eqs=2, max_degree=2, max_terms=2
        )
        inst = reduce_hn(S)
        if inst.nsys > 5:
            continue
        cases += 1
        for tail in itertools.product(range(-2, 3), repeat=inst.nsys):
            lead = -sum(tail)
            b = [ZZ.el(lead)] + [ZZ.el(v) for v in tail]
            if shift_instance(inst, b).sparsity() < inst.sigma:
                a = shift_to_solution(inst, b)
                assert check_solution(inst.system, a)
    assert cases >= 10


def test_witness_file_round_trip(tmp_path):
    S = xsystem(
        ["x1", "x2"],
        [{(1, 0): 1, (0, 0): -1}, {(2, 0): -1, (0, 1): 1}],
    )
    inst = build_hn_instance(S, GAMMA)
    text = witness_to_text(inst.witness, ZZ)
    assert text == (
        "# witness\n"
        "ring Z\n"
        "gamma 2\n"
        "x0 0\n"
        "xprime 1 2\n"
        "wvars 3 4\n"
        "g1 0\n"
    )
    path = str(tmp_path / "w.txt")
    save_witness(path, inst.witness, ZZ)
    back, ring = load_witness(path)
    assert ring == ZZ
    assert back == inst.witness
    with open(path) as fh:
        assert fh.read() == text
    assert witness_to_text(back, ring) == text


WITNESS = "ring Z\ngamma 2\nx0 0\nxprime 1 2\nwvars 3 4\ng1 0\n"


def test_witness_bad_integer_is_a_format_error():
    for line in ("gamma q", "x0 q", "xprime 1 z", "g1 1.5"):
        name = line.split()[0]
        text = "".join(line + "\n" if row.startswith(name + " ") else row + "\n"
                       for row in WITNESS.splitlines())
        with pytest.raises(FormatError, match=repr(line)):
            witness_from_text(text)


def test_witness_missing_value_is_a_format_error():
    for name in ("gamma", "x0", "g1"):
        text = "".join(name + "\n" if row.startswith(name + " ") else row + "\n"
                       for row in WITNESS.splitlines())
        with pytest.raises(FormatError, match="missing value in '%s'" % name):
            witness_from_text(text)
    # the index lists may be empty
    witness, _ = witness_from_text(WITNESS.replace("wvars 3 4", "wvars"))
    assert witness.w_indices == ()


def test_build_memory_stays_sparse():
    # 100 equations over 100 variables make about 10^4 keys over 201
    # positions: about 16 MB as dense exponent vectors, about 1 MB sparse
    n = 100
    names = ["x%d" % (i + 1) for i in range(n)]

    def eq(terms):
        return SparsePoly(ZZ, n, {tuple(1 if j in key else 0 for j in range(n)): c
                                  for key, c in terms.items()}, names)

    eqs = [eq({(0,): 1, (): -1})]
    eqs += [eq({(i, i + 1): 1, ((i + 2) % n,): -1}) for i in range(n - 1)]
    system = EquationSystem(ZZ, names, eqs)
    tracemalloc.start()
    try:
        inst = build_hn_instance(system, GAMMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.sigma > 10 ** 4
    assert peak < 4 * 2 ** 20, peak
