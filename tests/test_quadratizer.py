"""Lowering to quadratic form, constant normalization, recipes, files."""

import hashlib
import itertools
import os
import random

import pytest

from shiftforge import (
    ArityError,
    Circuit,
    EquationSystem,
    FormatError,
    PreconditionError,
    QQ,
    SearchDomain,
    SparsePoly,
    UnsupportedDomainError,
    ZZ,
    check_solution,
    extend_solution,
    first_constant_index,
    is_quadratized_shape,
    load_system,
    modular,
    normalize_constants,
    prime_field,
    quadratize_circuit,
    quadratize_sparse,
    save_system,
    solve_system,
)
from shiftforge.quadratizer import (
    binomial_head_dominates,
    equation_shape,
    system_from_text,
    system_to_text,
)

from helpers import random_circuit, random_sparse_system

F5 = prime_field(5)


def xsystem(ring, names, term_maps):
    n = len(names)
    eqs = [SparsePoly(ring, n, t, names) for t in term_maps]
    return EquationSystem(ring, names, eqs)


def solves_source(system, ax):
    return all(eq.eval(ax).is_zero for eq in system.equations)


def test_cubic_monomial_lowering_frozen():
    S = xsystem(ZZ, ["x1", "x2", "x3"], [{(1, 1, 1): 1, (0, 0, 0): -1}])
    T, recipe = quadratize_sparse(S)
    assert T.var_names == ("x1", "x2", "x3", "y1_1_1", "y1_1_2", "z1_1")
    assert T.tiers == ("x", "x", "x", "y", "y", "z")
    expected = [
        {(0, 0, 0, 1, 0, 0): 1, (1, 1, 0, 0, 0, 0): -1},
        {(0, 0, 0, 0, 1, 0): 1, (0, 0, 1, 1, 0, 0): -1},
        {(0, 0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 1, 0): -1},
        {(0, 0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0, 0): -1},
    ]
    assert [eq.terms for eq in T.equations] == expected
    assert recipe.steps == ((3, "mul", (1, 0)), (4, "mul", (3, 2)), (5, "var", (4,)))


def test_degree_one_equation_lowering_frozen():
    S = xsystem(ZZ, ["x1"], [{(1,): 1}])
    T, recipe = quadratize_sparse(S)
    assert T.var_names == ("x1", "z1_1")
    assert [eq.terms for eq in T.equations] == [
        {(0, 1): 1, (1, 0): -1},
        {(0, 1): 1},
    ]


def test_constant_only_equation_passes_through():
    S = xsystem(ZZ, ["x1"], [{(0,): 5}])
    T, recipe = quadratize_sparse(S)
    assert [eq.terms for eq in T.equations] == [{(0,): 5}]
    assert T.var_names == ("x1",)


def test_zero_equations_dropped():
    S = EquationSystem(
        ZZ, ["x1"], [SparsePoly.zero(ZZ, 1, ["x1"]), SparsePoly(ZZ, 1, {(1,): 1})]
    )
    T, _ = quadratize_sparse(S)
    assert len(T.equations) == 2  # z-def and f' of the surviving equation


def test_power_monomial_trailing_pair_is_repeated_variable():
    # x^3: the pair (x, x) peels first, then (y, x)
    S = xsystem(ZZ, ["x1"], [{(3,): 1, (0,): -1}])
    T, recipe = quadratize_sparse(S)
    assert T.var_names == ("x1", "y1_1_1", "y1_1_2", "z1_1")
    assert T.equations[0].terms == {(0, 1, 0, 0): 1, (2, 0, 0, 0): -1}
    assert T.equations[1].terms == {(0, 0, 1, 0): 1, (1, 1, 0, 0): -1}
    a = [ZZ.el(2)]
    full = extend_solution(recipe, a)
    assert [v.val for v in full] == [2, 4, 8, 8]


def test_circuit_lowering_frozen():
    c = Circuit(
        ZZ,
        2,
        [(0, "input", 0), (1, "input", 1), (2, "const", 3),
         (3, "mul", (0, 1)), (4, "add", (3, 2))],
        output=4,
    )
    T, recipe = quadratize_circuit([c])
    assert T.var_names == ("x1", "x2", "y1_1", "y1_2", "y1_3", "y1_4", "y1_5")
    expected = [
        {(0, 0, 1, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0, 0, 0): -1},
        {(0, 0, 0, 1, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0, 0): -1},
        {(0, 0, 0, 0, 1, 0, 0): 1, (0, 0, 0, 0, 0, 0, 0): -3},
        {(0, 0, 0, 0, 0, 1, 0): 1, (0, 0, 1, 1, 0, 0, 0): -1},
        {(0, 0, 0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0, 1, 0): -1,
         (0, 0, 0, 0, 1, 0, 0): -1},
        {(0, 0, 0, 0, 0, 0, 1): 1},
    ]
    assert [eq.terms for eq in T.equations] == expected
    full = extend_solution(recipe, [ZZ.el(1), ZZ.el(2)])
    assert [v.val for v in full] == [1, 2, 1, 2, 3, 2, 5]


def test_single_input_circuit():
    c = Circuit(ZZ, 1, [(0, "input", 0)], output=0)
    T, _ = quadratize_circuit([c])
    assert [eq.terms for eq in T.equations] == [
        {(0, 1): 1, (1, 0): -1},
        {(0, 1): 1},
    ]


def test_const_zero_circuit_satisfied_by_everything():
    c = Circuit(ZZ, 1, [(0, "const", 0)], output=0)
    T, recipe = quadratize_circuit([c])
    assert [eq.terms for eq in T.equations] == [{(0, 1): 1}, {(0, 1): 1}]
    for v in (-2, 0, 3):
        full = extend_solution(recipe, [ZZ.el(v)])
        assert check_solution(T, full)


def test_output_shape_is_quadratized():
    rng = random.Random(59)
    for _ in range(40):
        S = random_sparse_system(F5, rng)
        T, _ = quadratize_sparse(S)
        assert is_quadratized_shape(T)
        for eq in T.equations:
            if equation_shape(eq) == "binomial":
                assert binomial_head_dominates(eq)
    for _ in range(40):
        circuits = [
            random_circuit(F5, 2, 8, rng) for _ in range(rng.randint(1, 3))
        ]
        T, _ = quadratize_circuit(circuits)
        assert is_quadratized_shape(T)


def test_quadratized_shape_refuses_what_lowering_never_writes():
    """A cubic, a binomial with a constant, and a binomial whose linear
    variable does not come after both variables of its quadratic term."""
    names = ["x1", "x2", "x3"]
    head = {(0, 0, 1): 1, (1, 1, 0): -1}  # x3 - x1*x2
    assert is_quadratized_shape(xsystem(F5, names, [head]))
    for bad in ({(0, 0, 3): 1, (1, 0, 0): 1},
                {(0, 0, 1): 1, (1, 1, 0): -1, (0, 0, 0): 2},
                {(0, 1, 0): 1, (1, 0, 1): -1}):
        assert not is_quadratized_shape(xsystem(F5, names, [head, bad]))


def test_aux_count_bounds():
    rng = random.Random(61)
    for _ in range(40):
        S = random_sparse_system(ZZ, rng)
        T, _ = quadratize_sparse(S)
        budget = sum(
            eq.sparsity() * (eq.degree() + 1) for eq in S.equations
        )
        assert T.nvars - S.nvars <= budget
    for _ in range(40):
        r = rng.randint(1, 3)
        circuits = [random_circuit(ZZ, 2, 9, rng) for _ in range(r)]
        T, _ = quadratize_circuit(circuits)
        y_count = T.nvars - 2
        assert y_count <= r * max(c.size for c in circuits)


def lowering_digest(lower, sources):
    h = hashlib.sha256()
    for source in sources:
        h.update(system_to_text(*lower(source)).encode())
    return h.hexdigest()


def test_lowering_bytes_are_pinned():
    # digests of the written lowerings of a seeded corpus over four rings,
    # with powers up to 5 and odd-degree monomials
    rings = (ZZ, QQ, F5, modular(6))
    rng = random.Random(83)
    systems = [random_sparse_system(ring, rng, max_degree=rng.choice([4, 5]),
                                    max_terms=5)
               for ring in rings for _ in range(60)]
    assert lowering_digest(quadratize_sparse, systems) == (
        "8a587169e17d11c8ffdd5f6902a9843460b1ebc9faa39fbed940bc8181836f30")
    circuit_lists = []
    for ring in rings:
        for _ in range(40):
            nvars = rng.randint(1, 3)
            circuit_lists.append([random_circuit(ring, nvars, 8, rng)
                                  for _ in range(rng.randint(1, 3))])
    assert lowering_digest(quadratize_circuit, circuit_lists) == (
        "b2b1045258745090858f7a1a422d1e8eaa819486b54312b220724b664ec24c67")


def test_sparse_equivalence_exhaustive_f5():
    rng = random.Random(67)
    for _ in range(30):
        S = random_sparse_system(F5, rng, max_vars=2, max_degree=3)
        T, recipe = quadratize_sparse(S)
        for combo in itertools.product(range(5), repeat=S.nvars):
            ax = [F5.el(v) for v in combo]
            assert solves_source(S, ax) == check_solution(T, extend_solution(recipe, ax))


def test_full_assignments_restrict_to_source_solutions():
    S = xsystem(F5, ["x1"], [{(2,): 1, (0,): -1}])  # x^2 = 1
    T, recipe = quadratize_sparse(S)
    hits = 0
    for combo in itertools.product(range(5), repeat=T.nvars):
        full = [F5.el(v) for v in combo]
        if check_solution(T, full):
            hits += 1
            assert solves_source(S, full[: S.nvars])
            assert tuple(full) == extend_solution(recipe, full[: S.nvars])
    assert hits == 2  # x = 1 and x = 4


def test_circuit_equivalence_exhaustive_f5():
    rng = random.Random(71)
    for _ in range(20):
        circuits = [random_circuit(F5, 2, 7, rng) for _ in range(rng.randint(1, 2))]
        T, recipe = quadratize_circuit(circuits)
        for combo in itertools.product(range(5), repeat=2):
            ax = [F5.el(v) for v in combo]
            satisfied = all(c.eval(ax).is_zero for c in circuits)
            assert satisfied == check_solution(T, extend_solution(recipe, ax))


def test_normalize_frozen_example():
    T = xsystem(ZZ, ["x1", "x2"], [{(1, 0): 1, (0, 0): 2}, {(0, 1): 1, (0, 0): 3}])
    out, trivial = normalize_constants(T)
    assert not trivial
    assert [eq.terms for eq in out.equations] == [
        {(1, 0): 1, (0, 0): 2},
        {(0, 1): 2, (1, 0): -3},
    ]


def test_normalize_single_constant_unchanged():
    T = xsystem(ZZ, ["x1"], [{(1,): 1, (0,): -1}])
    out, trivial = normalize_constants(T)
    assert not trivial
    assert out.equations == T.equations


def test_normalize_homogeneous_flags_trivial():
    T = xsystem(ZZ, ["x1", "x2"], [{(1, 0): 1, (0, 1): -1}])
    out, trivial = normalize_constants(T)
    assert trivial
    assert out.equations == T.equations


def test_normalize_pivot_moves_first():
    T = xsystem(ZZ, ["x1", "x2"], [
        {(1, 0): 1, (0, 1): 1},          # constant-free
        {(0, 1): 1, (0, 0): -1},         # pivot
        {(1, 0): 1, (0, 0): 4},
    ])
    assert first_constant_index(T) == 1
    out, trivial = normalize_constants(T)
    assert not trivial
    assert out.equations[0].terms == {(0, 1): 1, (0, 0): -1}
    assert all(eq.constant_term().is_zero for eq in out.equations[1:])


def test_normalize_preserves_solutions_over_domains():
    rng = random.Random(73)
    for _ in range(20):
        S = random_sparse_system(ZZ, rng, max_degree=2)
        T, recipe = quadratize_sparse(S)
        out, trivial = normalize_constants(T)
        if trivial:
            continue
        for _ in range(10):
            ax = [ZZ.el(rng.randint(-2, 2)) for _ in range(S.nvars)]
            full = extend_solution(recipe, ax)
            assert check_solution(T, full) == check_solution(out, full)


def test_normalize_drops_cancelled_duplicates():
    # both equations share constants that cancel the cross-multiplication
    T = xsystem(ZZ, ["x1"], [{(1,): 1, (0,): 2}, {(1,): 1, (0,): 2}])
    out, trivial = normalize_constants(T)
    assert not trivial
    assert len(out.equations) == 1


def test_normalize_rejects_nonaffine_constant_bearers():
    T = xsystem(ZZ, ["x1"], [{(2,): 1, (0,): 2}, {(1,): 1, (0,): 1}])
    with pytest.raises(PreconditionError):
        normalize_constants(T)


def test_normalize_keeps_solvability_over_zq():
    """Over Z4, Z6 and Z9 a pivot constant c_1 that is a zero divisor
    turns g_i = 0 into c_1*g_i = 0, which more points satisfy: the pivot
    is the first unit constant instead, and a system whose constants
    hold no unit is refused."""
    rng = random.Random(263)
    dom = SearchDomain.exhaustive()
    moved = refused = 0
    for q in (4, 6, 9):
        ring = modular(q)
        for _ in range(150):
            n = rng.randint(1, 2)
            names = ["x%d" % (j + 1) for j in range(n)]
            rows = [{exps: rng.randrange(q)
                     for exps in itertools.product((0, 1), repeat=n)
                     if sum(exps) <= 1}
                    for _ in range(rng.randint(1, 3))]
            T = xsystem(ring, names, rows)
            try:
                out, trivial = normalize_constants(T)
            except UnsupportedDomainError:
                refused += 1
                continue
            if not trivial:
                moved += out.equations[0] != T.equations[first_constant_index(T)]
            assert (solve_system(T, dom) is None) == (
                solve_system(out, dom) is None), rows
    assert moved and refused


def test_extend_zero_assignment():
    S = xsystem(ZZ, ["x1", "x2", "x3"], [{(1, 1, 1): 1, (0, 0, 0): -1}])
    T, recipe = quadratize_sparse(S)
    full = extend_solution(recipe, [ZZ.zero] * 3)
    assert all(v.is_zero for v in full)
    ones = extend_solution(recipe, [ZZ.one] * 3)
    assert all(v.val == 1 for v in ones)
    assert check_solution(T, ones)


def test_check_solution_examples_and_arity():
    S = xsystem(ZZ, ["x1"], [{(1,): 1, (0,): -1}])
    assert check_solution(S, [ZZ.one])
    assert not check_solution(S, [ZZ.zero])
    with pytest.raises(ArityError):
        check_solution(S, [ZZ.one, ZZ.one])


def test_system_file_round_trip_with_recipe(tmp_path):
    rng = random.Random(79)
    for i in range(10):
        S = random_sparse_system(ZZ, rng)
        T, recipe = quadratize_sparse(S)
        path = os.path.join(tmp_path, "sys%d.txt" % i)
        save_system(path, T, recipe)
        kind, back, back_recipe = load_system(path)
        assert kind == "sparse"
        assert back == T
        assert back_recipe == recipe
        with open(path) as fh:
            text = fh.read()
        assert system_to_text(back, back_recipe) == text


def test_lowered_circuits_with_const_steps_round_trip():
    """A lowered circuit system's recipe has a `const` step per constant
    node; its file reads back to the same system and recipe, and writes
    the same bytes."""
    for ring, consts in ((ZZ, (-2, 7)), (QQ, (QQ.parse_payload("-3/4"), 5)),
                         (F5, (3, 4))):
        circuits = [Circuit(ring, 2, [(0, "input", 0), (1, "const", c),
                                      (2, "mul", (0, 1)), (3, "add", (2, 0))],
                            output=3) for c in consts]
        T, recipe = quadratize_circuit(circuits)
        assert [op for _, op, _ in recipe.steps].count("const") == 2
        text = system_to_text(T, recipe)
        kind, back, back_recipe = system_from_text(text)
        assert (kind, back, back_recipe) == ("sparse", T, recipe)
        assert system_to_text(back, back_recipe) == text


def test_raw_system_file_has_untagged_vars(tmp_path):
    S = xsystem(ZZ, ["x1", "x2"], [{(1, 1): 1}])
    text = system_to_text(S)
    assert text.splitlines()[1] == "vars 2 x1 x2"
    T, _ = quadratize_sparse(S)
    tagged = system_to_text(T)
    assert "y:" in tagged or "z:" in tagged


def test_circuit_manifest_loading(tmp_path):
    c1 = Circuit(ZZ, 2, [(0, "input", 0), (1, "input", 1), (2, "mul", (0, 1))],
                 output=2)
    c2 = Circuit(ZZ, 2, [(0, "input", 0), (1, "const", -1), (2, "add", (0, 1))],
                 output=2)
    from shiftforge import save_circuit

    save_circuit(os.path.join(tmp_path, "a.circ"), c1)
    save_circuit(os.path.join(tmp_path, "b.circ"), c2)
    manifest = os.path.join(tmp_path, "all.sys")
    with open(manifest, "w") as fh:
        fh.write("manifest\ncircuit a.circ\ncircuit b.circ\n")
    kind, circuits, recipe = load_system(manifest)
    assert recipe is None
    assert kind == "circuits"
    assert len(circuits) == 2
    assert circuits[0].eval([ZZ.el(2), ZZ.el(3)]) == ZZ.el(6)


def test_recipe_steps_read_only_inputs_and_earlier_targets(tmp_path):
    head = "ring Z\nvars 3 x:a y:b y:c\neq\nterm 1 1 0 0\n"
    good = tmp_path / "good.sys"
    good.write_text(head + "# recipe 1 var 0\n# recipe 2 mul 0 1\n")
    _, _, recipe = load_system(str(good))
    assert extend_solution(recipe, [ZZ.el(3)]) == (ZZ.el(3), ZZ.el(3), ZZ.el(9))
    head4 = "ring Z\nvars 4 x:a y:b y:c y:d\neq\nterm 1 1 0 0 0\n"
    bad = {
        "forward": head + "# recipe 1 var 2\n# recipe 2 var 0\n",
        "later-forward": head4 + "# recipe 1 var 0\n# recipe 2 sum 0 3\n"
                         "# recipe 3 var 0\n",
        "arity": head + "# recipe 1 mul 0\n# recipe 2 var 0\n",
        "range": head + "# recipe 1 var 7\n# recipe 2 var 0\n",
    }
    for name, text in bad.items():
        path = tmp_path / (name + ".sys")
        path.write_text(text)
        with pytest.raises(FormatError):
            load_system(str(path))
