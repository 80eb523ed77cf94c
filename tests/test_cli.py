"""Command-line surface: outputs, exit codes, file round-trips."""

import argparse
import os
import re
import signal
import subprocess
import sys
import time
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
from shiftforge.cli import _build_parser, main
from shiftforge.oracles import SUPPORT_LAST, ZERO_SUM, SearchDomain, maxsat

F2 = prime_field(2)


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
