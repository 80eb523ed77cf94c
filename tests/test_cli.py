"""Command-line surface: outputs, exit codes, file round-trips."""

import argparse
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from shiftforge import (
    EquationSystem,
    Max3LinSystem,
    Ring,
    SparsePoly,
    ZZ,
    encode_max3lin,
    load_max3lin,
    load_poly,
    load_system,
    load_witness,
    prime_field,
    quadratize_sparse,
    save_max3lin,
    save_poly,
    save_system,
)
from shiftforge import oracles
from shiftforge.cli import _build_parser, main
from shiftforge.max3lin import count_satisfied
from shiftforge.oracles import (
    SUPPORT_LAST,
    ZERO_SUM,
    SearchDomain,
    maxsat,
    solve_system,
)
from shiftforge.sparsepoly import eval_payload, shifted_term_map

from helpers import random_poly

F2 = prime_field(2)
F3 = prime_field(3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poly(tmp_path, name, ring, nvars, terms, var_names=None):
    path = str(tmp_path / name)
    save_poly(path, SparsePoly(ring, nvars, terms, var_names))
    return path


def write_system(tmp_path, name, ring, names, term_maps):
    eqs = [SparsePoly(ring, len(names), t, names) for t in term_maps]
    path = str(tmp_path / name)
    save_system(path, EquationSystem(ring, names, eqs))
    return path


def single_row_file(tmp_path):
    L = Max3LinSystem(F2, 3, [((0, 1, 2), (F2.one,) * 3, F2.one)])
    path = str(tmp_path / "row.3lin")
    save_max3lin(path, L)
    return path, L


def test_sparsity_of_encoding(tmp_path, capsys):
    path, L = single_row_file(tmp_path)
    poly_path = str(tmp_path / "enc.poly")
    save_poly(poly_path, encode_max3lin(L).polynomial)
    code, out, _ = run(capsys, "sparsity", poly_path)
    assert code == 0
    assert out == "5\n"


def test_shift_by_zero_is_identity(tmp_path, capsys):
    path = write_poly(
        tmp_path, "sq.poly", ZZ, 1, {(2,): 1, (1,): 2, (0,): 1}, ["x"]
    )
    code, out, _ = run(capsys, "shift", path, "--by", "0")
    assert code == 0
    with open(path) as fh:
        assert out == fh.read()


def test_shift_collapses_square(tmp_path, capsys):
    path = write_poly(
        tmp_path, "sq.poly", ZZ, 1, {(2,): 1, (1,): 2, (0,): 1}, ["x"]
    )
    code, out, _ = run(capsys, "shift", path, "--by", "-1")
    assert code == 0
    assert out == "ring Z\nvars 1 x\nterm 1 2\n"


def test_shift_by_the_empty_vector(tmp_path, capsys):
    # "" is the vector of a polynomial with no variables, as format_vector
    # writes it; an empty entry between commas is still a bad coefficient
    none = write_poly(tmp_path, "c.poly", ZZ, 0, {(): 5})
    code, out, _ = run(capsys, "shift", none, "--by", "")
    assert code == 0
    with open(none) as fh:
        assert out == fh.read()
    two = write_poly(tmp_path, "p.poly", ZZ, 2, {(1, 0): 1}, ["x", "y"])
    assert run(capsys, "shift", two, "--by", "") == (
        3, "", "precondition failed: shift vector of length 0 for 2 variables\n")
    assert run(capsys, "shift", two, "--by", "1,,2") == (
        2, "", "format error: bad coefficient ''\n")


def test_negative_vector_entries_parse_in_both_spellings(tmp_path, capsys):
    path = write_poly(tmp_path, "p.poly", ZZ, 2,
                      {(2, 0): 1, (1, 1): 3, (0, 0): 1}, ["x", "y"])
    joined = run(capsys, "shift", path, "--by=-1,2")
    assert joined[0] == 0
    assert run(capsys, "shift", path, "--by", "-1,2") == joined
    assert joined[1] == ("ring Z\nvars 2 x y\nterm 1 2 0\nterm 3 1 1\n"
                         "term 4 1 0\nterm -3 0 1\nterm -4 0 0\n")
    src = write_system(tmp_path, "s.sys", ZZ, ["x"], [{(3,): 1, (0,): -1}])
    outs = []
    for gamma in (["--gamma=-3"], ["--gamma", "-3"]):
        out = tmp_path / ("h%d.poly" % len(outs))
        assert run(capsys, "reduce-hn", src, "-o", str(out), *gamma,
                   "--witness", str(tmp_path / "h.wit"))[0] == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_quadratize_round_trip(tmp_path, capsys):
    src = write_system(
        tmp_path, "cubic.sys", ZZ, ["x1", "x2", "x3"],
        [{(1, 1, 1): 1, (0, 0, 0): -1}],
    )
    out_path = str(tmp_path / "lowered.sys")
    code, out, _ = run(capsys, "quadratize", src, "-o", out_path)
    assert code == 0
    assert out == "variables 6\nequations 4\n"
    kind, system, recipe = load_system(out_path)
    assert kind == "sparse"
    expected, expected_recipe = quadratize_sparse(load_system(src)[1])
    assert system == expected
    assert recipe == expected_recipe


def test_normalize_reports_equation_count(tmp_path, capsys):
    src = write_system(
        tmp_path, "two.sys", ZZ, ["x1", "x2"],
        [{(1, 0): 1, (0, 0): 2}, {(0, 1): 1, (0, 0): 3}],
    )
    out_path = str(tmp_path / "norm.sys")
    code, out, _ = run(capsys, "normalize", src, "-o", out_path)
    assert code == 0
    assert out == "trivially_solvable false\nequations 2\n"
    _, system, _ = load_system(out_path)
    assert system.equations[1].constant_term().is_zero


def test_normalize_keeps_a_z6_system_unsolvable(tmp_path, capsys):
    """2x + 2 = 0 and 2x + 5 = 0 over Z6 have no solution (their
    difference is 3 = 0).  Pivoting on 2x + 2 would leave
    2*(2x + 5) - 5*(2x + 2) = -6x = 0, dropped, and 2x + 2 alone is
    solved by x = 2; the unit constant 5 is the pivot instead.  With no
    unit constant, normalize exits 3 and names the ring."""
    src = tmp_path / "z6.sys"
    src.write_text("ring Zq 6\nvars 1 x1\neq\nterm 2 1\nterm 2 0\n"
                   "eq\nterm 2 1\nterm 5 0\n")
    out_path = str(tmp_path / "n.sys")
    assert run(capsys, "solve", str(src), "--exhaustive") == (
        0, "solution NONE\n", "")
    assert run(capsys, "normalize", str(src), "-o", out_path) == (
        0, "trivially_solvable false\nequations 1\n", "")
    with open(out_path) as f:
        assert f.read() == "ring Zq 6\nvars 1 x1\neq\nterm 2 1\nterm 5 0\n"
    assert run(capsys, "solve", out_path, "--exhaustive") == (
        0, "solution NONE\n", "")
    src.write_text("ring Zq 6\nvars 1 x1\neq\nterm 2 1\nterm 2 0\n"
                   "eq\nterm 3 1\nterm 4 0\n")
    code, out, err = run(capsys, "normalize", str(src), "-o", out_path)
    assert (code, out) == (3, "")
    assert "Zq 6" in err


def test_reduce_hn_writes_instance_and_witness(tmp_path, capsys):
    src = write_system(tmp_path, "s.sys", ZZ, ["x1"], [{(1,): 1, (0,): -1}])
    out_path = str(tmp_path / "inst.poly")
    wit_path = str(tmp_path / "inst.wit")
    code, out, _ = run(
        capsys, "reduce-hn", src, "-o", out_path, "--witness", wit_path
    )
    assert code == 0
    assert out == "trivially_solvable false\nsigma 5\n"
    poly = load_poly(out_path)
    assert poly.sparsity() == 5
    witness, ring = load_witness(wit_path)
    assert ring == ZZ
    assert witness.gamma == ZZ.el(2)


def test_reduce_hn_trivial_prints_certificate(tmp_path, capsys):
    src = write_system(
        tmp_path, "hom.sys", ZZ, ["x1", "x2"], [{(1, 0): 1, (0, 1): -1}]
    )
    out_path = str(tmp_path / "inst.poly")
    code, out, _ = run(
        capsys, "reduce-hn", src, "-o", out_path, "--witness",
        str(tmp_path / "w")
    )
    assert code == 0
    assert out == "trivially_solvable true\ncertificate 0,0\n"
    assert not os.path.exists(out_path)


def test_reduce_max3lin(tmp_path, capsys):
    path, L = single_row_file(tmp_path)
    out_path = str(tmp_path / "enc.poly")
    code, out, _ = run(capsys, "reduce-max3lin", path, "-o", out_path)
    assert code == 0
    assert out == "w 6\nsigma 5\n"
    assert load_poly(out_path) == encode_max3lin(L).polynomial


def test_amplify_writes_header(tmp_path, capsys):
    path = write_poly(tmp_path, "lin.poly", ZZ, 1, {(1,): 1, (0,): 1}, ["x"])
    out_path = str(tmp_path / "amp.poly")
    code, out, _ = run(capsys, "amplify", path, "--copies", "2", "-o", out_path)
    assert code == 0
    assert out == "copies 2\nsparsity 4\n"
    with open(out_path) as fh:
        assert fh.readline() == "# copies d=2 base_nvars=1\n"
    assert load_poly(out_path).sparsity() == 4


def test_search_shift_frozen_report(tmp_path, capsys):
    path = write_poly(
        tmp_path, "sq.poly", ZZ, 1, {(2,): 1, (1,): 2, (0,): 1}, ["x"]
    )
    code, out, _ = run(capsys, "search-shift", path, "--box", "2")
    assert code == 0
    assert out == (
        "min_sparsity 1\nwitness -1\npoints 5\ncomplete false\n"
    )


def test_solve_least_and_none(tmp_path, capsys):
    cubic = write_system(
        tmp_path, "cubic.sys", ZZ, ["x1", "x2", "x3"],
        [{(1, 1, 1): 1, (0, 0, 0): -1}],
    )
    code, out, _ = run(capsys, "solve", cubic, "--box", "1")
    assert code == 0
    assert out == "solution -1,-1,1\n"
    noroot = write_system(tmp_path, "no.sys", ZZ, ["x1"], [{(2,): 1, (0,): 1}])
    code, out, _ = run(capsys, "solve", noroot, "--box", "3")
    assert code == 0
    assert out == "solution NONE\n"


def test_maxsat_command(tmp_path, capsys):
    path, _ = single_row_file(tmp_path)
    code, out, _ = run(capsys, "maxsat", path, "--exhaustive")
    assert code == 0
    assert out == "maxsat 1\n"


# (ring, n, m, gen-max3lin flags, seed, domain flags, stdout), recorded
# from the walk before maxsat took the bit-sliced kernel
FROZEN_MAXSAT = [
    ("Fp 5", 5, 9, [], 3, ["--exhaustive"], "maxsat 7\n"),
    ("Fp 7", 4, 8, [], 4, ["--exhaustive"], "maxsat 6\n"),
    ("Zq 4", 5, 9, [], 5, ["--exhaustive"], "maxsat 7\n"),
    ("Z", 5, 8, [], 6, ["--box", "1"], "maxsat 3\n"),
    ("Z", 5, 8, ["--planted", "--noise", "2"], 7, ["--box", "2"], "maxsat 4\n"),
]


def gen_file(tmp_path, capsys, ring, n, m, flags, seed):
    path = str(tmp_path / ("s%d.3lin" % seed))
    code, _, _ = run(capsys, "gen-max3lin", "--n", str(n), "--m", str(m),
                     "--ring", ring, "--seed", str(seed), "-o", path, *flags)
    assert code == 0
    return path


@pytest.mark.parametrize("ring, n, m, flags, seed, domain, want", FROZEN_MAXSAT)
def test_maxsat_frozen(tmp_path, capsys, ring, n, m, flags, seed, domain, want):
    path = gen_file(tmp_path, capsys, ring, n, m, flags, seed)
    assert run(capsys, "maxsat", path, *domain) == (0, want, "")


def test_maxsat_frozen_under_restrictions(tmp_path, capsys):
    # the CLI's maxsat takes no restriction flags, so these go through the API
    boxes = [
        (FROZEN_MAXSAT[3], SearchDomain.integer_box(1).restricted(ZERO_SUM), 3),
        (FROZEN_MAXSAT[4], SearchDomain.integer_box(2).restricted(ZERO_SUM), 3),
        (FROZEN_MAXSAT[3], SearchDomain.integer_box(1).restricted(SUPPORT_LAST, 2), 3),
        (FROZEN_MAXSAT[4], SearchDomain.integer_box(2).restricted(SUPPORT_LAST, 2), 3),
    ]
    for (ring, n, m, flags, seed, _, _), dom, want in boxes:
        L = load_max3lin(gen_file(tmp_path, capsys, ring, n, m, flags, seed))
        assert maxsat(L, dom) == want


def test_verify_max3lin_frozen_over_f5(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "Fp 5", 3, 3, [], 8)
    assert run(capsys, "verify-max3lin", path) == (0, (
        "w 6\nsigma 12\nmaxsat 3\nmin_nonconstant 9\nexpected 9\nmatch true\n"
    ), "")


# (ring, variables, terms, flags, stdout): searches that left the walk
# for the bit-sliced kernel, with the bytes the walk printed before
FROZEN_SEARCH = [
    ("Z", 3, {(1, 0, 0): -1, (0, 0, 2): 1, (0, 0, 1): 4, (0, 0, 0): 3},
     ["--box", "2", "--zero-sum"], "3\nwitness 0,1,-1\npoints 19\ncomplete false"),
    ("Z", 3, {(2, 0, 0): 1, (1, 1, 0): 4, (1, 0, 1): 4, (1, 0, 0): -4, (0, 2, 0): 4,
              (0, 1, 1): 8, (0, 1, 0): -8, (0, 0, 2): 4, (0, 0, 1): -6, (0, 0, 0): 3},
     ["--box", "3", "--support-last", "2"],
     "8\nwitness 0,-2,3\npoints 49\ncomplete false"),
    ("Q", 3, {(2, 0, 0): Fraction(1, 2), (1, 1, 0): -2, (1, 0, 1): -1, (1, 0, 0): 2,
              (0, 2, 0): 2, (0, 1, 1): 2, (0, 1, 0): Fraction(-11, 2),
              (0, 0, 2): Fraction(1, 2), (0, 0, 1): -2, (0, 0, 0): 2},
     ["--box", "2", "--zero-sum", "--nonconstant"],
     "7\nwitness -1,0,1\npoints 19\ncomplete false"),
    ("Q", 2, {(2, 0): Fraction(1, 2), (1, 1): 1, (1, 0): 4, (0, 2): Fraction(1, 2),
              (0, 1): 3, (0, 0): Fraction(7, 2)},
     ["--box", "3", "--support-last", "1"], "5\nwitness 0,-3\npoints 7\ncomplete false"),
    ("Fp 11", 3, {(2, 0, 0): 4, (1, 1, 0): 4, (1, 0, 1): 8, (1, 0, 0): 5, (0, 2, 0): 1,
                  (0, 1, 1): 4, (0, 1, 0): 4, (0, 0, 2): 4, (0, 0, 1): 8, (0, 0, 0): 6},
     ["--exhaustive"], "7\nwitness 8,0,2\npoints 1331\ncomplete true"),
    ("Fp 11", 3, {(2, 0, 0): 1, (1, 0, 1): 4, (1, 0, 0): 6, (0, 1, 0): 3, (0, 0, 2): 4,
                  (0, 0, 1): 1},
     ["--exhaustive", "--zero-sum", "--nonconstant"],
     "4\nwitness 0,7,4\npoints 121\ncomplete true"),
    ("Fp 101", 2, {(2, 0): 4, (1, 1): 93, (1, 0): 12, (0, 2): 4, (0, 1): 91, (0, 0): 9},
     ["--exhaustive"], "4\nwitness 49,0\npoints 10201\ncomplete true"),
    ("Fp 101", 2, {(2, 0): 4, (1, 1): 93, (1, 0): 100, (0, 2): 4, (0, 1): 4, (0, 0): 3},
     ["--exhaustive", "--zero-sum"], "5\nwitness 19,82\npoints 101\ncomplete true"),
]


@pytest.mark.parametrize("ring, nvars, terms, flags, want", FROZEN_SEARCH)
def test_search_shift_frozen_on_the_kernel(tmp_path, capsys, ring, nvars, terms,
                                           flags, want):
    path = write_poly(tmp_path, "p.poly", Ring.from_token(ring), nvars, terms)
    assert run(capsys, "search-shift", path, *flags) == (
        0, "min_sparsity %s\n" % want, "")


def test_maxsat_and_verify_max3lin_frozen_over_f11(tmp_path, capsys):
    # 11^6 points for verify-max3lin; the walk printed the same bytes
    for flags, seed, maxsat_out, verify_out in (
            ([], 3, "maxsat 2\n", "w 6\nsigma 13\nmaxsat 2\nmin_nonconstant 10\n"
             "expected 10\nmatch true\n"),
            (["--planted", "--noise", "1"], 12, "maxsat 3\n",
             "w 6\nsigma 12\nmaxsat 3\nmin_nonconstant 9\nexpected 9\n"
             "match true\n")):
        path = gen_file(tmp_path, capsys, "Fp 11", 3, 3, flags, seed)
        assert run(capsys, "maxsat", path, "--exhaustive") == (0, maxsat_out, "")
        assert run(capsys, "verify-max3lin", path) == (0, verify_out, "")


def test_verify_hn_frozen(tmp_path, capsys):
    src = write_system(tmp_path, "s.sys", ZZ, ["x1"], [{(1,): 1, (0,): -1}])
    code, out, _ = run(capsys, "verify-hn", src, "--box", "2")
    assert code == 0
    assert out == (
        "trivially_solvable false\n"
        "sigma 5\n"
        "solutions 1\n"
        "sparsifying_shifts 1\n"
        "solution_points 5\n"
        "shift_points 19\n"
        "violations 0\n"
        "consistent true\n"
    )


# the finite rings of the ring contract: fields in value planes (F2, F3,
# F5) and binary (F7), and rings with zero divisors in binary residues
CONTRACT_RINGS = ["Fp 2", "Fp 3", "Fp 5", "Fp 7", "Zq 4", "Zq 6", "Zq 8",
                  "Zq 9", "Zq 12"]


@pytest.mark.parametrize("token", CONTRACT_RINGS)
def test_kernel_commands_keep_the_ring_contract(tmp_path, capsys, token):
    """Over each finite ring, on tiny seeded inputs: solve and maxsat
    match direct evaluation at every point, search-shift --exhaustive
    matches the expansion at every shift, and verify-max3lin prints
    match true or exits 4."""
    ring = Ring.from_token(token)
    q = ring.modulus
    rng = random.Random(q)
    points = list(itertools.product(range(q), repeat=3))
    for seed in (1, 2):
        path = gen_file(tmp_path, capsys, token, 3, 3, [], seed)
        rows = load_max3lin(path)
        best = max(count_satisfied(rows, [ring.el(v) for v in x])
                   for x in points)
        assert run(capsys, "maxsat", path, "--exhaustive") == (
            0, "maxsat %d\n" % best, "")
        code, out, _ = run(capsys, "verify-max3lin", path)
        assert (code, out.splitlines()[-1:]) in ((0, ["match true"]), (4, []))
    for planted in (True, False):
        eqs = [random_poly(ring, 2, 2, 3, rng).terms
               for _ in range(rng.randint(1, 2))]
        if planted:
            x = (rng.randrange(q), rng.randrange(q))
            for terms in eqs:
                value = eval_payload(SparsePoly(ring, 2, terms), x)
                terms[(0, 0)] = (terms.get((0, 0), 0) - value) % q
        path = write_system(tmp_path, "s.sys", ring, ["x1", "x2"], eqs)
        roots = [x for x in itertools.product(range(q), repeat=2)
                 if not any(eval_payload(SparsePoly(ring, 2, t), x)
                            for t in eqs)]
        want = ",".join(map(str, roots[0])) if roots else "NONE"
        assert run(capsys, "solve", path, "--exhaustive") == (
            0, "solution %s\n" % want, "")
    p = random_poly(ring, 3, 2, 6, rng)
    path = write_poly(tmp_path, "p.poly", ring, 3, p.terms)
    count, shift = min((len(shifted_term_map(ring, p.sparse_terms, x)), x)
                       for x in points)
    assert run(capsys, "search-shift", path, "--exhaustive") == (
        0, "min_sparsity %d\nwitness %s\npoints %d\ncomplete true\n"
        % (count, ",".join(map(str, shift)), len(points)), "")


@pytest.mark.parametrize("token", CONTRACT_RINGS)
def test_pipeline_commands_keep_the_ring_contract(tmp_path, capsys, token):
    """Over each finite ring, on tiny seeded systems in one variable:
    quadratize keeps the projected solution set, seen by solve
    --exhaustive before and after and with the source variable pinned to
    each value; normalize keeps solvability or exits 3 naming the ring;
    reduce-hn and verify-hn exit 3; amplify writes the product of two
    copies built term by term."""
    ring = Ring.from_token(token)
    q = ring.modulus
    rng = random.Random(q)
    low, norm = str(tmp_path / "low.sys"), str(tmp_path / "norm.sys")
    hn = ["-o", str(tmp_path / "hn.poly"), "--witness", str(tmp_path / "hn.wit")]
    for planted in (True, False, False):
        eqs = [random_poly(ring, 1, 2, 3, rng).terms,
               random_poly(ring, 1, 1, 2, rng).terms]
        if planted:
            x = rng.randrange(q)
            for terms in eqs:
                value = eval_payload(SparsePoly(ring, 1, terms), (x,))
                terms[(0,)] = (terms.get((0,), 0) - value) % q
        source = write_system(tmp_path, "s.sys", ring, ["x"], eqs)
        roots = [x for x in range(q) if not any(
            eval_payload(SparsePoly(ring, 1, t), (x,)) for t in eqs)]
        least = str(roots[0]) if roots else "NONE"
        assert run(capsys, "solve", source, "--exhaustive") == (
            0, "solution %s\n" % least, "")
        assert run(capsys, "quadratize", source, "-o", low)[0] == 0
        code, out, _ = run(capsys, "solve", low, "--exhaustive")
        assert (code, out.split()[1].split(",")[0]) == (0, least)
        _, lowered, _ = load_system(low)
        n = lowered.nvars
        pinned = [x for x in range(q) if solve_system(EquationSystem(
            ring, lowered.var_names, list(lowered.equations) + [SparsePoly(
                ring, n, {(1,) + (0,) * (n - 1): 1, (0,) * n: -x},
                lowered.var_names)], lowered.tiers),
            SearchDomain.exhaustive()) is not None]
        assert pinned == roots
        code, _, err = run(capsys, "normalize", low, "-o", norm)
        if code:
            assert code == 3 and "normalize over %s needs a unit" % token in err
        else:
            out = run(capsys, "solve", norm, "--exhaustive")[1]
            assert (out == "solution NONE\n") == (not roots)
        refusal = "precondition failed: encoding requires the integers\n"
        assert run(capsys, "reduce-hn", source, *hn) == (3, "", refusal)
        assert run(capsys, "verify-hn", source, "--box", "1") == (3, "", refusal)
    p = random_poly(ring, 2, 2, 4, rng)
    base, product = write_poly(tmp_path, "p.poly", ring, 2, p.terms), {}
    for (k1, c1), (k2, c2) in itertools.product(p.terms.items(), repeat=2):
        product[k1 + k2] = (product.get(k1 + k2, 0) + c1 * c2) % q
    product = {key: c for key, c in product.items() if c}
    amplified = str(tmp_path / "amp.poly")
    assert run(capsys, "amplify", base, "--copies", "2", "-o", amplified) == (
        0, "copies 2\nsparsity %d\n" % len(product), "")
    assert load_poly(amplified).terms == product


def test_an_internal_error_exits_1_and_says_so(tmp_path, capsys, monkeypatch):
    """An oracle whose certificate disagrees with the kernel raises
    InternalConsistencyError, which main reports on stderr with exit 1."""
    real = oracles.sliced_min_slots

    def off_by_one(*args):
        count, rank, points = real(*args)
        return count + 1, rank, points

    monkeypatch.setattr(oracles, "sliced_min_slots", off_by_one)
    path = write_poly(tmp_path, "p.poly", ZZ, 1, {(2,): 1, (0,): -1})
    assert run(capsys, "search-shift", path, "--box", "1") == (
        1, "", "internal error: shift -1: counted 3 monomials, expansion "
        "gives 2\n")


# x*y - 2 and x - 1 over Z, the circuit bodies of c1.circ and c2.circ
CIRCUITS = {
    "c1.circ": "node 0 input 0\nnode 1 input 1\nnode 2 mul 0 1\nnode 3 const -2\n"
               "node 4 add 2 3\noutput 4\n",
    "c2.circ": "node 0 input 0\nnode 1 const -1\nnode 2 add 0 1\noutput 2\n",
}


def test_circuit_sources_read_alike_from_a_manifest_and_inline(tmp_path, capsys):
    """quadratize, reduce-hn and verify-hn on two circuits written as a
    manifest of .circ files and as the node blocks of one .sys: the same
    files, byte for byte, and the same reports."""
    head = "ring Z\nvars 2 x y\n"
    for name, body in CIRCUITS.items():
        (tmp_path / name).write_text(head + body)
    (tmp_path / "manifest.sys").write_text(
        "manifest\n" + "".join("circuit %s\n" % name for name in CIRCUITS))
    (tmp_path / "inline.sys").write_text(
        head + "".join("eq\n" + body for body in CIRCUITS.values()))
    results = []
    for stem in ("manifest", "inline"):
        source = str(tmp_path / (stem + ".sys"))
        files = [tmp_path / (stem + ext) for ext in ("-low.sys", ".poly", ".wit")]
        reports = [
            run(capsys, "quadratize", source, "-o", str(files[0])),
            run(capsys, "reduce-hn", source, "--gamma", "3", "-o", str(files[1]),
                "--witness", str(files[2])),
            run(capsys, "verify-hn", source, "--box", "2"),
        ]
        results.append((reports, [f.read_text() for f in files]))
    assert results[0] == results[1]
    reports, (lowered, _, witness) = results[0]
    assert reports == [
        (0, "variables 10\nequations 10\n", ""),
        (0, "trivially_solvable false\nsigma 102\n", ""),
        (0, "trivially_solvable false\nsigma 102\nsolutions 1\n"
            "sparsifying_shifts 0\nsolution_points 25\nshift_points 4091495\n"
            "violations 0\nconsistent true\n", ""),
    ]
    assert "# recipe 5 const -2\n" in lowered and "gamma 3\n" in witness


def test_verify_hn_refuses_an_oversized_shift_space(tmp_path, capsys):
    # 12 lowered variables: 5^12 zero-sum ranks exceed the 10^7 cap
    names = ["x%d" % i for i in range(1, 13)]
    one_hot = [tuple(int(i == j) for j in range(12)) for i in range(12)]
    terms = dict.fromkeys(one_hot, 1)
    terms[(0,) * 12] = -1
    src = write_system(tmp_path, "wide.sys", ZZ, names, [terms])
    code, out, err = run(capsys, "verify-hn", src, "--box", "2")
    assert code == 4
    assert out == ""
    assert "exceeds the cap" in err


def test_verify_max3lin_frozen(tmp_path, capsys):
    path, _ = single_row_file(tmp_path)
    code, out, _ = run(capsys, "verify-max3lin", path)
    assert code == 0
    assert out == (
        "w 6\nsigma 5\nmaxsat 1\nmin_nonconstant 3\nexpected 3\nmatch true\n"
    )


def test_gap_params_frozen(capsys):
    code, out, _ = run(capsys, "gap-params", "--epsilon", "0", "--delta", "0",
                       "-m", "10")
    assert code == 0
    assert out == "alpha 40/31\n"
    code, out, _ = run(
        capsys, "gap-params", "--epsilon", "0", "--delta", "0", "-m", "10",
        "--target-gap", "2", "--sigma", "6",
    )
    assert code == 0
    assert out == "alpha 40/31\ncopies 4\nt_yes 923521\nt_no 2560000\n"
    code, _, err = run(
        capsys, "gap-params", "--epsilon", "0", "--delta", "0", "-m", "10",
        "--target-gap", "2",
    )
    assert code == 3
    assert "precondition" in err


def test_gen_max3lin_deterministic(tmp_path, capsys):
    a_path = str(tmp_path / "a.3lin")
    b_path = str(tmp_path / "b.3lin")
    code, out, _ = run(
        capsys, "gen-max3lin", "--n", "4", "--m", "3", "--ring", "Fp 2",
        "--planted", "--noise", "1", "--seed", "9", "-o", a_path,
    )
    assert code == 0
    assert out == "rows 3\nw 8\n"
    run(capsys, "gen-max3lin", "--n", "4", "--m", "3", "--ring", "Fp 2",
        "--planted", "--noise", "1", "--seed", "9", "-o", b_path)
    with open(a_path) as fa, open(b_path) as fb:
        assert fa.read() == fb.read()
    assert load_max3lin(a_path).meta["noise"] == 1
    run(capsys, "gen-max3lin", "--n", "4", "--m", "3", "--ring", "Fp 2",
        "--planted", "--noise", "1", "--seed", "10", "-o", b_path)
    with open(a_path) as fa, open(b_path) as fb:
        assert fa.read() != fb.read()


def test_gen_max3lin_refuses_more_variables_or_rows_than_the_cap(
        tmp_path, capsys, monkeypatch):
    """gen-max3lin writes no file that its readers would refuse: n and m
    above the term cap are exit 4 before anything is drawn, and a system
    at the cap reads back."""
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "8")
    path = str(tmp_path / "cap.3lin")
    for n, m, what in ((9, 3, "variables may reach 9"),
                       (3, 9, "rows may reach 9"),
                       (3, 10 ** 8, "rows may reach 100000000")):
        start = time.process_time()
        code, out, err = run(capsys, "gen-max3lin", "--n", str(n), "--m",
                             str(m), "--ring", "Fp 5", "-o", path)
        assert time.process_time() - start < 1
        assert (code, out) == (4, "")
        assert err == ("cap exceeded: the system's %s terms, cap is 8\n"
                       % what)
        assert not os.path.exists(path)
    code, out, _ = run(capsys, "gen-max3lin", "--n", "8", "--m", "8",
                       "--ring", "Fp 5", "-o", path)
    assert (code, out) == (0, "rows 8\nw 16\n")
    assert load_max3lin(path).m == 8
    code, out, _ = run(capsys, "maxsat", path, "--exhaustive")
    assert code == 0 and out.startswith("maxsat ")


def test_reduce_max3lin_and_amplify_refuse_more_variables_than_the_cap(
        tmp_path, capsys, monkeypatch):
    """reduce-max3lin and amplify write no file that their readers would
    refuse: w or 4m + 1 above the term cap, and d copies of n variables
    with n * d above it, are exit 4 before anything is built, and files
    at the cap read back."""
    rows, enc = str(tmp_path / "rows.3lin"), str(tmp_path / "enc.poly")
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "8")
    for n, m, what in ((8, 8, "encoding's variables may reach 16"),
                       (4, 2, "encoding may reach 9")):
        assert run(capsys, "gen-max3lin", "--n", str(n), "--m", str(m),
                   "--ring", "Fp 5", "--seed", "1", "-o", rows)[0] == 0
        code, out, err = run(capsys, "reduce-max3lin", rows, "-o", enc)
        assert (code, out) == (4, "")
        assert err == "cap exceeded: the %s terms, cap is 8\n" % what
        assert not os.path.exists(enc)
    assert run(capsys, "gen-max3lin", "--n", "4", "--m", "1", "--ring",
               "Fp 5", "--seed", "1", "-o", rows)[0] == 0
    assert run(capsys, "reduce-max3lin", rows, "-o", enc)[:2] == (0, "w 8\nsigma 5\n")
    assert run(capsys, "sparsity", enc)[:2] == (0, "5\n")

    def two_terms(nvars):  # x1 + 2 x_nvars
        return write_poly(tmp_path, "base%d.poly" % nvars, prime_field(5), nvars,
                          {(1,) + (0,) * (nvars - 1): 1, (0,) * (nvars - 1) + (1,): 2})

    amp = str(tmp_path / "amp.poly")
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "20")
    code, out, err = run(capsys, "amplify", two_terms(16), "--copies", "2", "-o", amp)
    assert (code, out) == (4, "")
    assert err == ("cap exceeded: the amplified polynomial's variables may "
                   "reach 32 terms, cap is 20\n")
    assert not os.path.exists(amp)
    code, out, _ = run(capsys, "amplify", two_terms(10), "--copies", "2", "-o", amp)
    assert (code, out) == (0, "copies 2\nsparsity 4\n")
    assert run(capsys, "sparsity", amp)[:2] == (0, "4\n")

    monkeypatch.delenv("SHIFTFORGE_TERM_CAP")
    one = str(tmp_path / "one.poly")
    with open(one, "w") as fh:
        fh.write("ring Fp 5\nvars 1\nterm 1 0\n")
    start = time.process_time()
    code, out, err = run(capsys, "amplify", one, "--copies", "100000000",
                         "-o", amp + "2")
    assert time.process_time() - start < 1
    assert (code, out) == (4, "")
    assert "variables may reach 100000000 terms" in err
    assert not os.path.exists(amp + "2")


def test_amplify_refuses_more_copies_than_the_cap(tmp_path, capsys, monkeypatch):
    """A constant base passes the term check (1^d = 1) and the variable
    check (0 * d = 0); its copy count d, the d - 1 products of the loop,
    is bounded by the term cap itself, exit 4 before any product is
    built, and d at the cap is amplified."""
    const, amp = str(tmp_path / "const.poly"), str(tmp_path / "amp.poly")
    with open(const, "w") as fh:
        fh.write("ring Fp 5\nvars 0\nterm 1\n")
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "50")
    assert run(capsys, "amplify", const, "--copies", "51", "-o", amp) == (
        4, "", "cap exceeded: the amplified polynomial's copies may reach 51 "
        "terms, cap is 50\n")
    assert not os.path.exists(amp)
    assert run(capsys, "amplify", const, "--copies", "50", "-o", amp)[:2] == (
        0, "copies 50\nsparsity 1\n")
    assert run(capsys, "sparsity", amp)[:2] == (0, "1\n")
    monkeypatch.delenv("SHIFTFORGE_TERM_CAP")
    start = time.process_time()
    code, out, err = run(capsys, "amplify", const, "--copies", "100000000",
                         "-o", amp + "2")
    assert time.process_time() - start < 1
    assert (code, out) == (4, "")
    assert "copies may reach 100000000 terms, cap is 1000000" in err
    assert not os.path.exists(amp + "2")


def test_missing_and_malformed_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "sparsity", str(tmp_path / "absent.poly"))
    assert code == 2
    assert "input error" in err
    bad = str(tmp_path / "bad.poly")
    with open(bad, "w") as fh:
        fh.write("ring Z\nvars 1 x\nterm oops 1\n")
    code, _, err = run(capsys, "sparsity", bad)
    assert code == 2
    assert "format error" in err


def test_domain_misuse_is_exit_3(tmp_path, capsys):
    zpoly = write_poly(tmp_path, "z.poly", ZZ, 1, {(1,): 1}, ["x"])
    code, _, err = run(capsys, "search-shift", zpoly, "--exhaustive")
    assert code == 3
    fpoly = write_poly(tmp_path, "f.poly", F2, 1, {(1,): 1}, ["x"])
    code, _, _ = run(capsys, "search-shift", fpoly, "--box", "2")
    assert code == 3
    # the mode is checked for every search, also with no free coordinate
    f3poly = write_poly(tmp_path, "f3.poly", F3, 1, {(1,): 1}, ["x"])
    for path, domain, message in (
            (zpoly, "--exhaustive", "exhaustive search needs a finite ring"),
            (f3poly, "--box=1", "integer boxes apply to Z and Q")):
        for width in ("1", "0"):
            code, out, err = run(capsys, "search-shift", path, domain,
                                 "--support-last", width)
            assert (code, out) == (3, "")
            assert message in err
    const = write_poly(tmp_path, "c0.poly", ZZ, 0, {(): 5})
    code, _, err = run(capsys, "search-shift", const, "--box", "1", "--zero-sum")
    assert code == 3
    assert "zero-sum restriction needs a coordinate" in err
    cube = write_system(tmp_path, "cube.sys", ZZ, ["x1"], [{(3,): 1, (0,): -1}])
    low = str(tmp_path / "low.sys")
    assert run(capsys, "quadratize", cube, "-o", low)[0] == 0
    code, _, err = run(capsys, "quadratize", low, "-o", str(tmp_path / "again.sys"))
    assert code == 3
    assert "input system must be over tier-x variables only" in err
    for name, nvars in (("c2.circ", 2), ("c3.circ", 3)):
        (tmp_path / name).write_text(
            "ring Z\nvars %d\nnode 0 input 0\noutput 0\n" % nvars)
    manifests = {"one.sys": "c2.circ", "two.sys": "c2.circ\ncircuit c3.circ"}
    for name, entries in manifests.items():
        (tmp_path / name).write_text("manifest\ncircuit %s\n" % entries)
    one = str(tmp_path / "one.sys")
    for argv in (["normalize", one, "-o", str(tmp_path / "n.sys")],
                 ["solve", one, "--box", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "this command needs an equation system file" in err
    assert not os.path.exists(tmp_path / "n.sys")
    code, _, err = run(capsys, "quadratize", str(tmp_path / "two.sys"),
                       "-o", str(tmp_path / "q.sys"))
    assert code == 3
    assert "circuits must share one variable catalog" in err
    src = write_system(tmp_path, "s.sys", ZZ, ["x1"], [{(1,): 1, (0,): -1}])
    code, _, err = run(
        capsys, "reduce-hn", src, "--gamma", "1",
        "-o", str(tmp_path / "o"), "--witness", str(tmp_path / "w"),
    )
    assert code == 3
    assert "precondition" in err


def test_term_cap_env_var_is_exit_4(tmp_path, capsys, monkeypatch):
    path = write_poly(tmp_path, "lin.poly", ZZ, 1, {(1,): 1, (0,): 1}, ["x"])
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "10")
    code, _, err = run(
        capsys, "amplify", path, "--copies", "4", "-o", str(tmp_path / "o")
    )
    assert code == 4
    assert "cap exceeded" in err
    monkeypatch.delenv("SHIFTFORGE_TERM_CAP")
    code, _, _ = run(
        capsys, "amplify", path, "--copies", "4", "-o", str(tmp_path / "o")
    )
    assert code == 0


def test_a_huge_binomial_row_is_exit_4_before_it_is_built(tmp_path, capsys):
    # 40 bytes: the row of C(999990, k) alone would take about 90 GB
    path = tmp_path / "x.poly"
    path.write_text("ring Z\nvars 1 x\nterm 1 999990\nterm -1 0\n")
    assert path.stat().st_size == 40
    start = time.process_time()
    code, out, err = run(capsys, "search-shift", str(path), "--box", "1")
    assert time.process_time() - start < 1
    assert code == 4
    assert out == ""
    assert err == ("cap exceeded: the binomials of exponent 999990 may take "
                   "999980000100 bits, the limit is 536870912\n")


def test_reduce_then_search_matches_verify(tmp_path, capsys):
    # piping the reduction into a zero-sum box search reproduces the
    # verifier's verdict: solvable drops to sigma - 1, unsolvable stays put
    solvable = write_system(
        tmp_path, "ok.sys", ZZ, ["x1"], [{(1,): 1, (0,): -1}]
    )
    noroot = write_system(tmp_path, "no.sys", ZZ, ["x1"], [{(2,): 1, (0,): 1}])
    for src, has_solution in ((solvable, True), (noroot, False)):
        out_path = str(tmp_path / "inst.poly")
        _, out, _ = run(
            capsys, "reduce-hn", src, "-o", out_path,
            "--witness", str(tmp_path / "w"),
        )
        sigma = int(out.splitlines()[1].split()[1])
        code, out, _ = run(
            capsys, "search-shift", out_path, "--zero-sum", "--box", "2"
        )
        assert code == 0
        found = int(out.splitlines()[0].split()[1])
        _, vout, _ = run(capsys, "verify-hn", src, "--box", "2")
        solutions = int(vout.splitlines()[2].split()[1])
        if has_solution:
            assert found == sigma - 1
            assert solutions >= 1
        else:
            assert found == sigma
            assert solutions == 0


def test_console_script_byte_determinism(tmp_path):
    src = str(tmp_path / "s.sys")
    names = ["x1"]
    save_system(src, EquationSystem(
        ZZ, names, [SparsePoly(ZZ, 1, {(1,): 1, (0,): -1}, names)]
    ))
    cmd = [sys.executable, "-c",
           "import sys; from shiftforge.cli import main; "
           "sys.exit(main(sys.argv[1:]))",
           "verify-hn", src, "--box", "2"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"trivially_solvable false")


def test_cli_import_does_not_load_multiprocessing():
    code = ("import sys, shiftforge.cli; "
            "print('multiprocessing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=env, check=True)
    assert out.stdout == b"False\n"


def test_jobs_is_refused_by_every_oracle_command(tmp_path, capsys):
    # --jobs is removed: argparse refuses it as an unknown option
    path = write_poly(tmp_path, "x.poly", ZZ, 1, {(1,): 1})
    for argv in (["search-shift", path, "--box", "1"],
                 ["solve", path, "--box", "1"],
                 ["maxsat", path, "--exhaustive"],
                 ["verify-hn", path, "--box", "1"],
                 ["verify-max3lin", path]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err


def assert_format_error(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("format error: bad integer %r" % token)
    assert "Traceback" not in err


def test_bad_integer_in_max3lin_file_is_exit_2(tmp_path, capsys):
    head = "ring Fp 2\nvars 3\n"
    cases = [
        (head + "eq 1 1 x 1 3 1 0\n", "x"),
        ("ring Fp 2\nvars three\n", "three"),
        ("# seed 1.5\n" + head, "1.5"),
        ("# noise many\n" + head, "many"),
    ]
    for text, token in cases:
        path = tmp_path / "bad.3lin"
        path.write_text(text)
        argv = ["reduce-max3lin", str(path), "-o", str(tmp_path / "o.poly")]
        assert_format_error(capsys, argv, token)


def test_bad_integer_in_system_file_is_exit_2(tmp_path, capsys):
    head = "ring Z\nvars 1 x\neq\n"
    cases = [
        (head + "term 1 y\n", "y"),
        (head + "node 0 input 0\noutput out\n", "out"),
        (head + "term 1 1\nterm -1 0\n# recipe t var 0\n", "t"),
        (head + "term 1 1\nterm -1 0\n# recipe 1 sum 0 z\n", "z"),
    ]
    for text, token in cases:
        path = tmp_path / "bad.sys"
        path.write_text(text)
        argv = ["reduce-hn", str(path), "-o", str(tmp_path / "o.poly"),
                "--witness", str(tmp_path / "o.wit")]
        assert_format_error(capsys, argv, token)


def test_bad_integer_in_circuit_file_is_exit_2(tmp_path, capsys):
    (tmp_path / "c.circ").write_text("ring Z\nvars 1 x\nnode 0 input 0\noutput last\n")
    manifest = tmp_path / "m.sys"
    manifest.write_text("manifest\ncircuit c.circ\n")
    argv = ["reduce-hn", str(manifest), "-o", str(tmp_path / "o.poly"),
            "--witness", str(tmp_path / "o.wit")]
    assert_format_error(capsys, argv, "last")


def test_term_cap_bounds_each_shifted_term_before_expanding(tmp_path, capsys,
                                                            monkeypatch):
    huge = write_poly(tmp_path, "huge.poly", ZZ, 1, {(10 ** 9,): 1}, ["x"])
    square = write_poly(tmp_path, "square.poly", ZZ, 2, {(40, 40): 1})
    # 41 monomials per term, 123 in all
    three = write_poly(tmp_path, "three.poly", ZZ, 3,
                       {(40, 0, 0): 1, (0, 40, 0): 1, (0, 0, 40): 1})
    for path, by, cap in ((huge, "1", None), (square, "1,1", "100"),
                          (three, "1,1,1", "122")):
        if cap is not None:
            monkeypatch.setenv("SHIFTFORGE_TERM_CAP", cap)
        # one untimed call first, so the clock sees neither lazy imports
        # nor first-call set-up; CPU time, so neither does the load
        run(capsys, "shift", path, "--by", by)
        start = time.process_time()
        code, out, err = run(capsys, "shift", path, "--by", by)
        assert time.process_time() - start < 0.1
        assert (code, out) == (4, "")
        assert err.startswith("cap exceeded: ")
    # 41 * 41 monomials: a term at the cap itself still expands
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "1681")
    code, out, _ = run(capsys, "shift", square, "--by", "1,1")
    assert code == 0
    assert out.count("\nterm ") == 1681


def test_term_cap_bounds_a_lowering_before_building_it(tmp_path, capsys):
    src = tmp_path / "huge.sys"
    src.write_text("ring Z\nvars 1 x1\neq\nterm 1 1000000000\nterm -1 0\n")
    for argv in (["quadratize", str(src), "-o", str(tmp_path / "l.sys")],
                 ["reduce-hn", str(src), "-o", str(tmp_path / "h.poly"),
                  "--witness", str(tmp_path / "h.wit")]):
        # one untimed call first, as in the shift test above
        run(capsys, *argv)
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 0.1
        assert (code, out) == (4, "")
        assert err == ("cap exceeded: the lowering's variable catalog may "
                       "reach 1000000001 terms, cap is 1000000\n")


def test_solve_refuses_a_huge_power_before_evaluating(tmp_path, capsys):
    src = tmp_path / "huge.sys"
    src.write_text("ring Z\nvars 1 x1\neq\nterm 1 1000000000\nterm -1 0\n")
    # one untimed call first, as in the shift test above
    run(capsys, "solve", str(src), "--box", "2")
    start = time.process_time()
    code, out, err = run(capsys, "solve", str(src), "--box", "2")
    assert time.process_time() - start < 0.1
    assert (code, out) == (4, "")
    assert err == ("cap exceeded: evaluation may build a power of 2000000000 "
                   "bits, the limit is 4194304\n")
    # 10^6 * bitlen(2) bits is under the limit, and over a box of 0 a
    # power is 0 bits
    src.write_text("ring Z\nvars 1 x1\neq\nterm 1 1000000\nterm -1 0\n")
    assert run(capsys, "solve", str(src), "--box", "2") == (0, "solution -1\n", "")
    src.write_text("ring Q\nvars 1 x1\neq\nterm 1 1000000000\n")
    assert run(capsys, "solve", str(src), "--box", "0") == (0, "solution 0\n", "")


def test_term_cap_that_is_not_an_integer_is_exit_3(tmp_path, capsys, monkeypatch):
    path = write_poly(tmp_path, "lin.poly", ZZ, 1, {(1,): 1}, ["x"])
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "1e6")
    code, _, err = run(capsys, "sparsity", path)
    assert code == 3
    assert "SHIFTFORGE_TERM_CAP must be an integer, not '1e6'" in err


def test_a_lowering_with_no_equations_reads_back(tmp_path, capsys):
    # the zero equations of the source lower to no equations at all
    src = tmp_path / "zero.sys"
    src.write_text("ring Z\nvars 2 a b\neq\nterm 0 1 0\neq\n")
    lowered = str(tmp_path / "lowered.sys")
    assert run(capsys, "quadratize", str(src), "-o", lowered) == (
        0, "variables 2\nequations 0\n", "")
    for path in (str(src), lowered):
        code, out, _ = run(capsys, "normalize", path, "-o", str(tmp_path / "n.sys"))
        assert (code, out.splitlines()[0]) == (0, "trivially_solvable true")
        assert run(capsys, "reduce-hn", path, "-o", str(tmp_path / "h.poly"),
                   "--witness", str(tmp_path / "h.wit")) == (
            0, "trivially_solvable true\ncertificate 0,0\n", "")



# inputs whose counts or coefficients are too long to print: each command
# exits 4 at once with a message that states the size, never a traceback
HOSTILE = [
    ({"wide.poly": "ring Z\nvars 10000\nterm 1%s\n" % (" 0" * 10000)},
     ["search-shift", "wide.poly", "--box", "1"],
     "the search space's size has more than 4300 digits (15850 bits)"),
    ({"three.poly": "ring Z\nvars 1\nterm 1 2\nterm 1 1\nterm 1 0\n"},
     ["amplify", "three.poly", "--copies", "100000", "-o", "out.poly"],
     "the term count of amplified polynomial has more than 4300 digits"),
    ({"x15000.poly": "ring Z\nvars 1\nterm 1 15000\nterm -1 0\n"},
     ["shift", "x15000.poly", "--by", "1"],
     "coefficient has more than 4300 digits (14993 bits)"),
    ({}, ["gap-params", "--epsilon", "0", "--delta", "0", "-m", "3",
          "--sigma", "1000", "--target-gap", "1000000"],
     "t_yes = 10^13809 has more than 4300 digits"),
    ({}, ["gap-params", "--epsilon", "0", "--delta", "0", "-m", "3",
          "--sigma", "100000", "--target-gap", "100000"],
     "the gap needs more than 246723 copies"),
    # 3^10000000 is refused from the copy count, before it is built
    ({"three.poly": "ring Z\nvars 1\nterm 1 2\nterm 1 1\nterm 1 0\n"},
     ["amplify", "three.poly", "--copies", "10000000", "-o", "out.poly"],
     "the term count of amplified polynomial has more than 4300 digits "
     "(at least 10000001 bits)"),
    # d = 239,789 copies, found with no 4-million-bit power of sigma
    ({}, ["gap-params", "--epsilon", "0", "--delta", "0", "-m", "3",
          "--sigma", "100000", "--target-gap", "11"],
     "t_yes = 10^239789 has more than 4300 digits"),
    # one block over the box would build a^e for every e up to 20000
    ({"x20000.poly": "ring Z\nvars 1\nterm 1 20000\nterm -1 0\n"},
     ["search-shift", "x20000.poly", "--box", "3"],
     "evaluation may build a power of 400020000 bits, the limit is 4194304"),
]


@pytest.mark.parametrize("files, argv, message", HOSTILE,
                         ids=["%s-%d" % (case[1][0], i)
                              for i, case in enumerate(HOSTILE)])
def test_hostile_sizes_exit_4_within_seconds(tmp_path, capsys, files, argv,
                                             message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files or a == "out.poly" else a
            for a in argv]

    def expire(signum, frame):
        raise TimeoutError("%s ran past its 3 s budget" % argv[0])

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (4, "")
    assert message in err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    assert not (tmp_path / "out.poly").exists()


# x1^2 + x2 - 1 over Z and over Zq 4000000, and as one equation: huge
# domains are sized from their value counts, 2B + 1 or q, before any list
# of values is built, and a domain with no free coordinate still answers
HUGE_POLY = "vars 2\nterm 1 2 0\nterm 1 0 1\nterm -1 0 0\n"
HUGE_DOMAINS = [
    (["search-shift", "z.poly", "--box", "3000000"], 4,
     "search space of 36000012000001 points exceeds the cap"),
    (["search-shift", "zq.poly", "--exhaustive"], 4,
     "search space of 16000000000000 points exceeds the cap"),
    (["search-shift", "z.poly", "--box", "10" * 10], 4, "exceeds the cap"),
    (["solve", "z.sys", "--box", "10" * 10], 4, "exceeds the cap"),
    (["verify-hn", "z.sys", "--box", "10" * 10], 4, "exceeds the cap"),
    (["search-shift", "z.poly", "--box", "10" * 10, "--support-last", "0"], 0,
     "min_sparsity 3\nwitness 0,0\npoints 1\ncomplete false\n"),
    (["search-shift", "zq.poly", "--exhaustive", "--support-last", "0"], 0,
     "min_sparsity 3\nwitness 0,0\npoints 1\ncomplete true\n"),
]


@pytest.mark.parametrize("argv, code, message", HUGE_DOMAINS,
                         ids=["%s-%s" % (case[0][0], i)
                              for i, case in enumerate(HUGE_DOMAINS)])
def test_huge_domains_are_sized_before_their_values_are_listed(
        tmp_path, capsys, argv, code, message):
    (tmp_path / "z.poly").write_text("ring Z\n" + HUGE_POLY)
    (tmp_path / "zq.poly").write_text("ring Zq 4000000\n" + HUGE_POLY)
    (tmp_path / "z.sys").write_text(
        "ring Z\nvars 2 x y\neq\n" + HUGE_POLY.split("\n", 1)[1])
    argv = [str(tmp_path / a) if a.endswith((".poly", ".sys")) else a
            for a in argv]
    tracemalloc.start()
    try:
        got = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of the 6,000,001 values of --box 3000000 alone is 48 MB
    assert peak < 2 * 2 ** 20, peak
    assert got[0] == code
    if code:
        assert got[1] == "" and message in got[2]
        assert "Traceback" not in got[2]
    else:
        assert got[1:] == (message, "")


def test_gap_params_refuses_an_unprintable_t_yes_at_once(capsys):
    # t_yes = 10^d with more than 4300 digits: the logarithms settle d
    # = 239,789, so no power of sigma of 4 million bits confirms it
    argv = ["gap-params", "--epsilon", "0", "--delta", "0", "-m", "3",
            "--sigma", "100000", "--target-gap", "11"]
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 0.5
    assert (code, out) == (4, "")
    assert err == ("cap exceeded: t_yes = 10^239789 has more than 4300 "
                   "digits (at least 719368 bits)\n")


def test_search_over_a_box_bounds_the_powers_of_a_block(tmp_path, capsys):
    # x^20000 - 1: each block builds a^e for e up to 20000, which stay
    # one bit over --box 1, and take 2 bits times e over --box 2 or 3
    src = tmp_path / "x20000.poly"
    src.write_text("ring Z\nvars 1\nterm 1 20000\nterm -1 0\n")
    assert run(capsys, "search-shift", str(src), "--box", "1") == (
        0, "min_sparsity 2\nwitness 0\npoints 3\ncomplete false\n", "")
    for box in ("2", "3"):
        assert run(capsys, "search-shift", str(src), "--box", box) == (
            4, "", "cap exceeded: evaluation may build a power of 400020000 "
            "bits, the limit is 4194304\n")


@pytest.mark.parametrize("gap", ["1e30000000", "1e3", "0.1", "1/0"])
def test_gap_params_reads_rationals_in_the_readers_grammar(capsys, gap):
    # -?[0-9]+(/[0-9]+)? as in the files: Fraction() also reads exponent
    # notation, and builds 10^30000000 in full
    def expire(signum, frame):
        raise TimeoutError("gap-params ran past its 3 s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        with pytest.raises(SystemExit) as exc:
            main(["gap-params", "--epsilon", "0", "--delta", "0", "-m", "3",
                  "--sigma", "5", "--target-gap", gap])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --target-gap: expected a rational like 1/10" in err


def test_readme_names_every_option_and_only_those():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions
               for o in a.option_strings if o.startswith("--")}
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z0-9-]*[a-z0-9])?", readme))
    # pip's flag, and --jobs, which README lists as removed
    others = {"--no-build-isolation", "--jobs"}
    assert "--jobs" not in options
    assert sorted(options - named) == []
    assert sorted(named - options - others) == []
