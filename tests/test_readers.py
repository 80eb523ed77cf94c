"""The file readers: line locations, the shared header rule, and fuzzing;
and the writers, which write a file whole or not at all."""

import random
import signal
import tempfile
import time
from pathlib import Path

import pytest

from shiftforge import (
    CONST,
    CapExceededError,
    Circuit,
    EquationSystem,
    FormatError,
    Max3LinSystem,
    QQ,
    ReductionWitnessMap,
    ShiftForgeError,
    SparsePoly,
    ZZ,
    gen_max3lin,
    modular,
    parse_vector,
    prime_field,
    quadratizer,
    save_circuit,
    save_max3lin,
    save_poly,
    save_system,
    save_witness,
)
from shiftforge.circuits import load_circuit
from shiftforge.cli import main
from shiftforge.errors import quoted
from shiftforge.hn_reduce import load_witness, witness_from_text
from shiftforge.max3lin import load_max3lin, max3lin_from_text, max3lin_to_text
from shiftforge.quadratizer import load_system
from shiftforge.sparsepoly import Reader, _lines, load_poly, parse_int

LOADERS = (load_poly, load_max3lin, load_circuit, load_system, load_witness)

WITNESS = "# witness\nring Z\ngamma 2\nx0 0\nxprime 1 2\nwvars 3 4\ng1 0\n"


def test_a_wide_duplicate_term_gives_a_short_message(tmp_path, capsys):
    zeros = " ".join(["0"] * 5000)
    path = tmp_path / "p.poly"
    path.write_text("ring Z\nvars 5000\nterm 1 %s\nterm 2 %s\n" % (zeros, zeros))
    assert main(["sparsity", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert err.startswith("format error: duplicate exponent vector '(0, 0, ")
    assert err.endswith("... (15000 characters) (%s:4)\n" % path)


@pytest.mark.parametrize("loader, name, text, lineno", [
    (load_poly, "p.poly", "# note\nring Z\nvars 1 x\n\nterm 1 y\n", 5),
    (load_max3lin, "s.3lin", "# seed 1\nring Fp 2\nvars 3\neq 1 1 x 1 3 1 0\n", 4),
    (load_max3lin, "s.3lin", "# planted 1,q\nring Fp 2\nvars 3\n", 1),
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode 0 input 0\nnode 1 add 0 q\n"
     "output 1\n", 4),
    (load_system, "s.sys", "ring Z\nvars 1 x\neq\nterm 1 1\neq\nterm 1 -1\n", 6),
    (load_system, "s.sys", "ring Z\nvars 1 x\neq\nterm 1 1\nterm -1 0\n"
     "# recipe 1 sum 0 z\n", 6),
    (load_witness, "w.txt", WITNESS.replace("x0 0", "x0 q"), 4),
    # the node checks run as each node line is read
    (load_system, "bad.sys", "ring Z\nvars 1 x\neq\nnode 0 input 0\n"
     "node 0 input 0\noutput 0\n", 5),
    (load_circuit, "bad2.circ", "ring Z\nvars 1 x\nnode 0 input 0\n"
     "node 1 mul 0 5\noutput 1\n", 4),
    (load_circuit, "c.circ", "ring Z\nvars 2 a b\nnode 0 input 2\noutput 0\n", 3),
    # lines end at "\n" alone, as undecodable bytes are numbered
    (load_poly, "p.poly", "ring Z\nvars 1 x\x0c\nterm 1 q\n", 3),
    # node and output lines that parse_node_line and read_circuit_line refuse
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode 0\noutput 0\n", 3),
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode -1 input 0\noutput -1\n", 3),
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode 0 input 0 0\noutput 0\n", 3),
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode 0 const 1 2\noutput 0\n", 3),
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode 0 input 0\noutput 0 0\n", 4),
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode 0 sub 0\noutput 0\n", 3),
    # a .3lin vars line holds its count alone
    (load_max3lin, "s.3lin", "ring Fp 2\nvars 3 a b c\n", 2),
    # the row checks run as each eq line is read: distinct indices, and
    # coefficients nonzero after reduction (3 is 0 over F3)
    (load_max3lin, "s.3lin", "ring Fp 3\nvars 4\neq 1 1 1 2 3 1 1\n", 3),
    (load_max3lin, "s.3lin", "ring Fp 3\nvars 4\neq 1 1 2 0 3 1 1\n", 3),
    (load_max3lin, "s.3lin", "ring Fp 3\nvars 4\neq 1 1 2 3 3 1 1\n", 3),
    # a planted assignment holds one entry per variable; vars follows it
    (load_max3lin, "s.3lin", "# planted 1,2\nring Fp 3\nvars 4\neq 1 1 2 1 3 1 1\n", 1),
    # the header rule of every format: a vars count, as many names as it
    # says, and vars before any other statement
    (load_poly, "p.poly", "ring Z\nvars\nterm 1\n", 2),
    (load_system, "s.sys", "ring Z\nvars 2 x\neq\nterm 1 0 0\n", 2),
    (load_poly, "p.poly", "ring Z\nterm 1\nvars 0\n", 2),
])
def test_format_error_names_file_and_line(tmp_path, loader, name, text, lineno):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        loader(str(path))
    assert (info.value.path, info.value.line) == (str(path), lineno)
    assert "%s:%d" % (path, lineno) in str(info.value)


TERM_HEAD = "ring Z\nvars 3 x y z\n"


@pytest.mark.parametrize("loader, name, body, want", [
    # a row as the writer writes it, keyed without being split
    # (test_one_pass_rows_read_as_the_token_path)
    (load_poly, "p.poly", "term 5 0 1 2\n", (0, 1, 2)),
    (load_system, "s.sys", "eq\nterm 5 0 1 2\n", (0, 1, 2)),
    # other blanks, a comment and other exponent spellings give the same
    # key as the token loop
    (load_poly, "p.poly", "term 5 0\t1 2\n", (0, 1, 2)),
    (load_poly, "p.poly", "term 5 0\x0c1 2\n", (0, 1, 2)),
    (load_poly, "p.poly", "term\t5 0 1 2\n", (0, 1, 2)),
    (load_poly, "p.poly", "term 5 0  1 2\n", (0, 1, 2)),
    (load_poly, "p.poly", " term 5 0 1 2 \t\n", (0, 1, 2)),
    (load_poly, "p.poly", "term 5 0 1 2 # note\n", (0, 1, 2)),
    (load_poly, "p.poly", "term 5 00 1 2\n", (0, 1, 2)),
    (load_poly, "p.poly", "term 5 +1 1 2\n", (1, 1, 2)),
    (load_poly, "p.poly", "term 5 1_0 1 2\n", (10, 1, 2)),
    (load_poly, "p.poly", "term 5 \u0663 1 2\n", (3, 1, 2)),
    # or the same error
    (load_poly, "p.poly", "term 5 -1 1 2\n", "negative exponent in 'term 5 -1 1 2'"),
    (load_poly, "p.poly", "term 5 q 1 2\n", "bad integer 'q' in 'term 5 q 1 2'"),
    (load_poly, "p.poly", "term 5 1 2 \u00b2\n",
     "bad integer '\u00b2' in 'term 5 1 2 \u00b2'"),
    (load_poly, "p.poly", "term 5 0 1\n", "term line needs 3 exponents"),
    (load_poly, "p.poly", "term 5 0 1 2 3\n", "term line needs 3 exponents"),
    (load_poly, "p.poly", "term x 0 1 2\n", "bad coefficient 'x'"),
    (load_poly, "p.poly", "term 5 0 1 2\nterm 6 0 1 2\n",
     "duplicate exponent vector (0, 1, 2)"),
    (load_system, "s.sys", "eq\nterm 5 0 1 2\nterm 6 0 1 2\n",
     "duplicate exponent vector (0, 1, 2)"),
    # a form feed ends no line, and a lone carriage return neither
    (load_poly, "p.poly", "term 5 0 1 2\x0c\nterm 6 0 1 2\n",
     "duplicate exponent vector (0, 1, 2)"),
    (load_poly, "p.poly", "# a\x0cnote\nterm 5 q 1 2\n",
     "bad integer 'q' in 'term 5 q 1 2'"),
    (load_poly, "p.poly", "term 5 0 1 2\rterm 6 0 1 3\n", "term line needs 3 exponents"),
])
def test_term_lines_read_the_same_by_position_and_by_token(tmp_path, loader, name,
                                                           body, want):
    path = tmp_path / name
    path.write_text(TERM_HEAD + body, encoding="utf-8")
    if isinstance(want, tuple):
        loaded = loader(str(path))
        poly = loaded if loader is load_poly else loaded[1].equations[0]
        assert poly.terms == {want: 5}
        return
    with pytest.raises(FormatError) as info:
        loader(str(path))
    lineno = TERM_HEAD.count("\n") + body.count("\n")
    assert str(info.value) == "%s (%s:%d)" % (want, path, lineno)


def test_one_pass_rows_read_as_the_token_path(tmp_path):
    """Fixed-width rows, keyed without being split, give the term maps, or
    the error, file and line, that the token path alone gives: .poly
    files and .sys eq blocks of rows as term_lines writes them and rows
    one edit away, with zero coefficients, duplicates and bad tokens."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    edits = st.sampled_from([None] * 80 + [
        "tab", "comment", "00", "+1", "crlf", "short", "long", "non-ascii",
        "two spaces", "no space", "leading space", "trailing space"])

    @st.composite
    def row(draw, exps):
        coef = draw(st.sampled_from(["1"] * 60 + ["4", "-1", "0", "12", "00"] * 4 + [
            "3/4", "-2/6", "5/0", "1/-2", "+1", "\u0663", "x"]))
        edit = draw(edits)
        if edit in ("00", "+1", "non-ascii"):
            exps[draw(st.integers(0, len(exps) - 1))] = {
                "00": "00", "+1": "+1", "non-ascii": "\u0663"}[edit]
        elif edit == "short":
            exps.pop()
        elif edit == "long":
            exps.append("0")
        line = "term %s %s" % (coef, " ".join(exps))
        if edit in ("tab", "two spaces", "no space"):
            cut = draw(st.sampled_from([i for i, ch in enumerate(line) if ch == " "]))
            gap = {"tab": "\t", "two spaces": "  ", "no space": "0"}[edit]
            line = line[:cut] + gap + line[cut + 1:]
        line = {"comment": line + " # c", "leading space": " " + line,
                "trailing space": line + " "}.get(edit, line)
        return line + ("\r\n" if edit == "crlf" else "\n")

    @st.composite
    def block(draw, n):
        # up to 20 distinct exponent rows, and now and then one row
        # again
        size = draw(st.integers(0, 20 if n > 1 else 10))
        exps = draw(st.lists(st.lists(st.sampled_from("0123456789"), min_size=n,
                                      max_size=n).map(tuple),
                             unique=True, min_size=size, max_size=size))
        if exps and draw(st.integers(0, 3)) == 0:
            exps.insert(draw(st.integers(0, len(exps))), draw(st.sampled_from(exps)))
        return "".join(draw(row(list(e))) for e in exps)

    @st.composite
    def files(draw):
        ring = draw(st.sampled_from(["Z", "Q", "Fp 5", "Zq 6"]))
        n = draw(st.sampled_from([1, 2, 3, 9, 17]))
        blocks = draw(st.lists(block(n), min_size=1, max_size=3))
        poly = draw(st.booleans())
        if poly:
            body = blocks[0]
        else:
            body = "".join("eq\n" + b for b in blocks)
        text = "ring %s\nvars %d\n%s" % (ring, n, body)
        if draw(st.booleans()):
            text = text.rstrip("\n")
        return poly, text

    def outcome(loader, path):
        try:
            got = loader(str(path))
        except FormatError as exc:
            return str(exc), exc.path, exc.line
        polys = [got] if loader is load_poly else got[1].equations
        return [list(p.sparse_terms.items()) for p in polys]

    taken = []
    take = Reader._take

    def counted(*args):
        taken.append(take(*args))
        return taken[-1]

    path = tmp_path / "input"

    @hypothesis.settings(max_examples=70, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(files())
    def check(case):
        poly, text = case
        loader = load_poly if poly else load_system
        path.write_text(text, encoding="utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Reader, "_take", counted)
            one_pass = outcome(loader, path)
            patch.setattr(Reader, "_take", lambda *args: False)
            assert outcome(loader, path) == one_pass

    check()
    # rows were both taken by _take and left to the token path
    assert True in taken and False in taken


def test_a_short_block_of_sys_rows_goes_to_read_term(tmp_path):
    # three rows, as hn-roundtrip's systems have: fixed-width, but a .sys
    # file reads every row token by token, as it does with _take off
    text = "ring Z\nvars 2 x1 x2\neq\nterm -3 2 0\nterm -2 0 2\nterm 3 0 0\n"
    path = tmp_path / "s.sys"
    path.write_text(text)
    taken, read = [], []
    take, read_term = Reader._take, quadratizer.read_term

    def counted(*args):
        taken.append(take(*args))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Reader, "_take", counted)
        patch.setattr(quadratizer, "read_term",
                      lambda *args: read.append(args[3]) or read_term(*args))
        one_pass = load_system(str(path))[1].equations
        patch.setattr(Reader, "_take", lambda *args: False)
        assert load_system(str(path))[1].equations == one_pass
    assert taken == [False] * 3
    assert read == ["term -3 2 0", "term -2 0 2", "term 3 0 0"] * 2
    assert one_pass[0].terms == {(2, 0): -3, (0, 2): -2, (0, 0): 3}


@pytest.mark.parametrize("bad", [None, 0, 100, 238, 239, 240, 477])
def test_rows_of_478_variables_read_as_the_token_path(tmp_path, bad):
    """Rows as wide as reduce-hn's, whose halves (positions below 239 and
    the rest) repeat across rows, give the token path's term map; a bad
    digit in either half sends its row to read_term, which raises the
    token path's error for the row's line."""
    n, rng = 478, random.Random(478)

    def halves(lo, hi, count):
        out = set()
        while len(out) < count:
            exps = ["0"] * (hi - lo)
            for p in rng.sample(range(hi - lo), rng.randint(0, 3)):
                exps[p] = rng.choice("12")
            out.add(" ".join(exps))
        return sorted(out)

    rows = ["term %d %s %s" % (rng.randint(-3, 3) or 1, left, right)
            for left in halves(0, 239, 5) for right in halves(239, n, 12)]
    if bad is not None:
        row = rows[31].split(" ")
        row[2 + bad] = "x"
        rows[31] = " ".join(row)
    path = tmp_path / "wide.poly"
    path.write_text("ring Z\nvars %d\n" % n + "".join(r + "\n" for r in rows))

    def outcome():
        try:
            return list(load_poly(str(path)).sparse_terms.items())
        except FormatError as exc:
            return str(exc)

    taken = []
    take = Reader._take

    def counted(*args):
        taken.append(take(*args))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Reader, "_take", counted)
        one_pass = outcome()
        patch.setattr(Reader, "_take", lambda *args: False)
        assert outcome() == one_pass
    if bad is None:
        assert taken == [True] * 60 and len(one_pass) == 60
    else:
        assert taken[31] is False
        assert one_pass == "bad integer 'x' in %s (%s:34)" % (quoted(rows[31]), path)


@pytest.mark.parametrize("n, gap", [(9, 1), (9, 7), (17, 7), (17, 12)])
def test_a_row_with_two_exponents_joined_is_read_by_token(tmp_path, n, gap):
    # positions gap and gap + 1 with no space between them, in one half
    # of the row or across its cut at n // 2: the width of a fixed-width
    # row, one exponent short, among 12 fixed-width rows
    rows = ["term 1 %s\n" % " ".join("0" * (n - 2) + str(e)) for e in range(10, 22)]
    cut = 8 + 2 * gap
    assert rows[5][cut] == " "
    rows[5] = rows[5][:cut] + "0" + rows[5][cut + 1:]
    path = tmp_path / "p.poly"
    path.write_text("ring Z\nvars %d\n" % n + "".join(rows))
    with pytest.raises(FormatError) as info:
        load_poly(str(path))
    assert str(info.value) == "term line needs %d exponents (%s:8)" % (n, path)


def test_a_dense_row_over_many_variables_reads_in_linear_time(tmp_path):
    # 200,000 nonzero one-digit exponents: keyed in two halves, as the
    # token path keys it, within a 3 s budget (summing the keys of many
    # short slices would take time quadratic in the row)
    n = 200000
    path = tmp_path / "p.poly"
    path.write_text("ring Z\nvars %d\nterm 1 %s\n" % (
        n, " ".join(str(1 + p % 9) for p in range(n))))

    def expire(signum, frame):
        raise TimeoutError("a dense row ran past its 3 s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        one_pass = load_poly(str(path)).sparse_terms
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Reader, "_take", lambda *args: False)
            assert load_poly(str(path)).sparse_terms == one_pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert list(one_pass) == [tuple(v for p in range(n) for v in (p, 1 + p % 9))]


@pytest.mark.parametrize("between", ["", "# a comment\n", "term 7 9\t9 9 9\n"])
def test_a_duplicate_in_a_later_run_names_its_line(tmp_path, between):
    # 1040 distinct fixed-width rows; the last repeats the first, after
    # a comment or a tab row or neither
    rows = ["term 1 %s\n" % " ".join("%04d" % i) for i in range(1040)]
    text = "ring Z\nvars 4\n" + rows[0] + between + "".join(rows[1:]) + rows[0]
    path = tmp_path / "p.poly"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        load_poly(str(path))
    assert str(info.value) == "duplicate exponent vector (0, 0, 0, 0) (%s:%d)" % (
        path, text.count("\n"))
    path.write_text(text[:-len(rows[0])])
    assert load_poly(str(path)).sparsity() == 1040 + between.startswith("term")


@pytest.mark.parametrize("first, second", [
    ("term 5 0 1 2", "term 6 0 1 2"),
    ("term 5 0\t1 2", "term 6 0 1 2"),
    ("term 5 0 1 2", "term 6 0\t1 2"),
])
def test_a_duplicate_row_names_its_line_whichever_path_reads_it(tmp_path, first,
                                                                 second):
    # a .poly keeps the cut of rows Reader._take reads, and a tab row
    # goes to read_term, before or after the row it repeats
    text = "%sterm 1 1 1 1\n%s\nterm 2 2 2 2\n%s\nterm 3 3 3 3\n" % (
        TERM_HEAD, first, second)
    path = tmp_path / "p.poly"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        load_poly(str(path))
    assert str(info.value) == "duplicate exponent vector (0, 1, 2) (%s:6)" % path


@pytest.mark.parametrize("widths", [(8191, 0), (8192, 0, 5), (0, 9000, 0, 0),
                                    (100, 8000, 91, 8193, 1)])
def test_lines_across_blocks_are_those_of_splitlines(widths):
    # _lines splits 8K characters at a time; a line may cross the 8K mark
    text = "\n".join("x" * w for w in widths)
    for t in (text, text + "\n", text + "\n\n"):
        assert list(_lines(t)) == t.splitlines()


def test_error_in_a_manifest_circuit_names_the_circuit_file(tmp_path):
    (tmp_path / "c.circ").write_text("ring Z\nvars 1 x\nnode 0 input 0\noutput last\n")
    manifest = tmp_path / "m.sys"
    manifest.write_text("manifest\ncircuit c.circ\n")
    with pytest.raises(FormatError, match="'output last' \\(%s:4\\)$"
                       % str(tmp_path / "c.circ")):
        load_system(str(manifest))


def test_file_wide_error_names_only_the_file(tmp_path):
    path = tmp_path / "p.poly"
    path.write_text("ring Z\n")
    with pytest.raises(FormatError) as info:
        load_poly(str(path))
    assert info.value.line is None
    assert str(info.value) == "polynomial file needs ring and vars lines (%s)" % path


def test_undecodable_bytes_are_exit_2(tmp_path, capsys):
    path = tmp_path / "b.poly"
    path.write_bytes(b"ring Z\nvars 1 x\nterm 1 \xff\n")
    assert main(["sparsity", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "format error: undecodable byte 0xff (%s:3)\n" % path


def test_negative_max3lin_variable_count_is_exit_2(tmp_path, capsys):
    path = tmp_path / "n.3lin"
    path.write_text("ring Fp 2\nvars -3\n")
    assert main(["verify-max3lin", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "format error: negative variable count (%s:2)\n" % path


def test_tier_order_error_names_the_vars_line(tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text("ring Z\nvars 2 y:a x:b\neq\nterm 1 1 0\n")
    assert main(["normalize", str(path), "-o", str(tmp_path / "out.sys")]) == 2
    err = capsys.readouterr().err
    assert err == ("format error: variable tiers must form contiguous x, y, z "
                   "blocks (%s:2)\n" % path)


@pytest.mark.parametrize("loader, name, text, message", [
    (load_max3lin, "s.3lin", "ring Fp 2\nring Fp 3\nvars 3\n", "duplicate ring line"),
    (load_system, "s.sys", "ring Z\nring Q\nvars 1 x\neq\nterm 1 1\n",
     "duplicate ring line"),
    (load_system, "s.sys", "ring Z\nvars 1 x\nvars 2\neq\n", "duplicate vars line"),
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nvars 1 x\nnode 0 input 0\noutput 0\n",
     "duplicate vars line"),
])
def test_second_header_line_is_rejected(tmp_path, loader, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FormatError, match="^%s " % message):
        loader(str(path))


def test_witness_rejects_unknown_and_duplicate_lines():
    with pytest.raises(FormatError, match="^unknown statement 'sigma' \\(line 8\\)"):
        witness_from_text(WITNESS + "sigma 3\n")
    with pytest.raises(FormatError, match="^duplicate x0 line \\(line 8\\)"):
        witness_from_text(WITNESS + "x0 1\n")
    with pytest.raises(FormatError, match="^gamma before ring"):
        witness_from_text("gamma 2\n" + WITNESS)


def test_any_bytes_raise_only_package_errors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # words of all five formats, so that some inputs get past the first
    # line; `circuit` is left out because a manifest line opens another
    # file, and a missing one is an OSError, which the command line
    # reports as an input error
    words = st.sampled_from([
        "ring", "Z", "Q", "Fp", "Zq", "vars", "term", "eq", "node", "input",
        "const", "mul", "add", "output", "manifest", "gamma", "x0", "xprime",
        "wvars", "g1", "var", "sum", "#", "# recipe", "# seed", "# planted",
        "# noise", "-1", "0", "1", "2", "3", "1/2", "1,0", "x", "y:b", "q",
    ])
    lines = st.lists(words, min_size=1, max_size=6).map(" ".join)
    texts = st.lists(lines, max_size=8).map(lambda ls: "\n".join(ls).encode())
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "input"

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.one_of(st.binary(max_size=64), texts))
        def check(data):
            path.write_bytes(data)
            for loader in LOADERS:
                try:
                    loader(str(path))
                except ShiftForgeError:
                    pass

        check()


@pytest.mark.parametrize("loader, name, body", [
    (load_poly, "p.poly", "term 1 1\n"),
    (load_circuit, "c.circ", "node 0 input 0\noutput 0\n"),
    (load_system, "s.sys", "eq\nterm 1 1\n"),
])
def test_variable_count_above_the_term_cap_fails_fast(tmp_path, loader, name, body):
    path = tmp_path / name
    path.write_text("ring Z\nvars 1000000000\n" + body)
    # one untimed call first, so the clock sees neither lazy imports nor
    # first-call set-up; CPU time, so neither does the load
    with pytest.raises(FormatError):
        loader(str(path))
    start = time.process_time()
    with pytest.raises(FormatError, match="^variable count 1000000000 exceeds") as info:
        loader(str(path))
    assert time.process_time() - start < 0.1
    assert (info.value.path, info.value.line) == (str(path), 2)


@pytest.mark.parametrize("ring, coef", [
    ("Q", "1e2"), ("Q", "1.5"), ("Q", "1_000"), ("Q", "+1"), ("Q", "1/-2"),
    ("Q", "1e10000000"), ("Z", "1_000"), ("Z", "1e2"), ("Fp 5", "1.5"),
    ("Zq 6", "\u0661"),
])
def test_coefficients_outside_the_written_grammar_are_exit_2(tmp_path, capsys,
                                                            ring, coef):
    path = tmp_path / "p.poly"
    path.write_text("ring %s\nvars 1 x\nterm %s 1\n" % (ring, coef), encoding="utf-8")
    # one untimed call first, so the clock sees neither lazy imports nor
    # first-call set-up; CPU time, so neither does the load
    assert main(["sparsity", str(path)]) == 2
    capsys.readouterr()
    start = time.process_time()
    assert main(["sparsity", str(path)]) == 2
    assert time.process_time() - start < 0.1
    err = capsys.readouterr().err
    assert err == "format error: bad coefficient %r (%s:3)\n" % (coef, path)


@pytest.mark.parametrize("loader, name, text, lineno", [
    (load_circuit, "c.circ", "ring Z\nvars 1 x\nnode 0 input 0\noutput 0\n"
     "node 1 mul 0 0\noutput 1\n", 6),
    (load_system, "s.sys", "ring Z\nvars 1 x\neq\nnode 0 input 0\noutput 0\n"
     "eq\nnode 0 input 0\nnode 1 mul 0 0\noutput 1\noutput 0\n", 10),
])
def test_second_output_line_is_rejected(tmp_path, loader, name, text, lineno):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FormatError, match="^duplicate output line") as info:
        loader(str(path))
    assert (info.value.path, info.value.line) == (str(path), lineno)


HUGE = "7" * 5000


@pytest.mark.parametrize("command, name, text, lineno", [
    ("sparsity", "c.poly", "ring Z\nvars 1 x\nterm %s 1\n" % HUGE, 3),
    ("sparsity", "c.poly", "ring Q\nvars 1 x\nterm 1/%s 1\n" % HUGE, 3),
    ("sparsity", "e.poly", "ring Z\nvars 1 x\nterm 1 %s\n" % HUGE, 3),
    ("sparsity", "m.poly", "ring Fp %s\nvars 1 x\nterm 1 1\n" % HUGE, 1),
    ("maxsat", "s.3lin", "ring Z\nvars 3\neq 1 1 2 1 3 1 -%s\n" % HUGE, 3),
    ("maxsat", "s.3lin", "ring Z\nvars 3\neq 1 1 2 1 3 1 --%s\n" % HUGE, 3),
], ids=["coefficient", "denominator", "exponent", "modulus", "row constant",
        "two signs"])
def test_huge_tokens_give_short_messages(tmp_path, capsys, command, name, text,
                                         lineno):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)] + (["--box", "1"] if command == "maxsat" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error: bad ")
    assert err.endswith("(%s:%d)\n" % (path, lineno))
    assert len(err.encode()) < 300, err
    assert "7" * 41 not in err and "set_int_max_str_digits" not in err


def test_quoted_tokens_are_cut_to_a_fixed_length():
    from shiftforge.errors import QUOTE_LIMIT, quoted

    assert quoted("term 1 0 q -1") == "'term 1 0 q -1'"
    head = "9" * QUOTE_LIMIT
    assert quoted(head) == repr(head)
    assert quoted(head + "99") == "%r... (%d characters)" % (head, QUOTE_LIMIT + 2)


SYS_HEAD = "ring Z\nvars 1 x\n"
TAGGED_HEAD = "ring Z\nvars 2 x:a y:b\neq\nterm 1 1 0\n"
RECIPE_HEAD = "ring Z\nvars 3 x:a y:b y:c\neq\nterm 1 1 0 0\n"


@pytest.mark.parametrize("text, message, lineno", [
    ("ring Z\nvars 2 q:a x:b\neq\nterm 1 1 0\n", "unknown tier prefix 'q'", 2),
    (SYS_HEAD + "term 1 1\n", "term line outside an eq block", 3),
    (SYS_HEAD + "eq\nterm 1 1\neq\nnode 0 input 0\noutput 0\n",
     "mixed term and node blocks", 6),
    (SYS_HEAD + "eq\nnode 0 input 0\noutput 0\neq\nterm 1 1\n",
     "mixed term and node blocks", 7),
    (TAGGED_HEAD + "# recipe 1 var\n", "truncated recipe line", 5),
    (TAGGED_HEAD + "# recipe 1 pow 0 2\n", "unknown recipe op 'pow'", 5),
    ("manifest\ncircuit c.circ\nnode 0 input 0\n",
     "manifest lines must be `circuit <path>`", 3),
    ("manifest\ncircuit c.circ\ncircuit c.circ c.circ\n",
     "manifest lines must be `circuit <path>`", 3),
    (SYS_HEAD + "eq\nnode 0 input 0\noutput 0\neq\nnode 0 input 0\n",
     "circuit block is missing an output line", None),
    (RECIPE_HEAD + "# recipe 1 var 0\n",
     "recipe must define each auxiliary exactly once", None),
    (RECIPE_HEAD + "# recipe 1 var 2\n# recipe 2 var 0\n",
     "recipe var step for 1 must read 1 inputs or earlier targets", None),
    ("manifest\n", "empty manifest", None),
], ids=["tier prefix", "term before eq", "term then node", "node then term",
        "short recipe", "recipe pow", "manifest node", "manifest two paths",
        "no output", "recipe misses a target", "recipe reads a later target",
        "empty manifest"])
def test_system_file_errors_are_exit_2_and_name_the_line(tmp_path, capsys, text,
                                                        message, lineno):
    # every command that reads a system file reports them alike; a
    # file-wide error names the file alone
    (tmp_path / "c.circ").write_text(SYS_HEAD + "node 0 input 0\noutput 0\n")
    path = tmp_path / "s.sys"
    path.write_text(text)
    where = str(path) if lineno is None else "%s:%d" % (path, lineno)
    for argv in (["quadratize", str(path), "-o", str(tmp_path / "q.sys")],
                 ["verify-hn", str(path), "--box", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "format error: %s (%s)\n" % (message, where))


def test_a_file_that_cannot_be_formatted_is_not_written(tmp_path):
    # a coefficient of 4,401 digits is past the written digit limit; the
    # text is finished before the file is opened, so none is left behind
    huge = 10 ** 4400
    poly = SparsePoly(ZZ, 1, {(1,): huge})
    one = ZZ.el(1)
    saves = {
        "p.poly": lambda path: save_poly(path, poly),
        "s.sys": lambda path: save_system(
            path, EquationSystem(ZZ, ("x",), [poly])),
        "c.circ": lambda path: save_circuit(
            path, Circuit(ZZ, 1, [(0, CONST, huge)], 0)),
        "r.3lin": lambda path: save_max3lin(
            path, Max3LinSystem(ZZ, 3, [((0, 1, 2), (one,) * 3, ZZ.el(huge))])),
        "w.wit": lambda path: save_witness(
            path, ReductionWitnessMap(ZZ.el(huge), 0, (1,), (2,), 0), ZZ),
    }
    for name, save in saves.items():
        path = tmp_path / name
        with pytest.raises(CapExceededError, match="more than 4300 digits"):
            save(str(path))
        assert not path.exists(), name


def _max3lin_by_token(text):
    """The .3lin reader, field by field: parse_int and ring.parse_coeff on
    every token, the row checks of max3lin_from_text in its order, and the
    system built through the checking constructor."""
    reader = Reader()
    rows, meta = [], {}

    def count_only(parts, line):
        if reader.names is not None:
            raise FormatError("vars line takes one count")

    def eq(parts, line):
        if len(parts) != 8:
            raise FormatError("eq lines need 3 index/coefficient pairs and a constant")
        idx = [parse_int(t, line) for t in parts[1:7:2]]
        for j in idx:
            if not 1 <= j <= reader.nvars:
                raise FormatError("variable index %d out of range" % j)
        coeffs = [reader.ring.parse_coeff(t) for t in parts[2:7:2]]
        b = reader.ring.parse_coeff(parts[7])
        if len(set(idx)) != 3:
            raise FormatError("row indices must be distinct")
        if any(c.is_zero for c in coeffs):
            raise FormatError("row coefficients must be nonzero")
        rows.append(([j - 1 for j in idx], coeffs, b))

    def provenance(words, line):
        if len(words) != 2:
            return
        key, value = words
        if key != "planted":
            meta[key] = parse_int(value, line)
            return
        meta[key] = parse_vector(value, reader.ring)
        if reader.nvars is not None and len(meta[key]) != reader.nvars:
            raise FormatError("planted vector of length %d for %d variables"
                              % (len(meta[key]), reader.nvars))

    reader.read(text, {"vars": count_only, "eq": eq},
                dict.fromkeys(("seed", "noise", "planted"), provenance))
    if reader.nvars is None:
        raise FormatError("system file needs ring and vars lines")
    return Max3LinSystem(reader.ring, reader.nvars, rows, meta or None)


def _max3lin_edits(text, ring):
    """text and its one-token edits: of an eq row's index, coefficient or
    constant, its length, a trailing comment, and the planted vector."""
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("eq "))
    parts = lines[at].split()
    zeros = ["0", "-0", "00"] + ([str(ring.modulus), "-%d" % ring.modulus]
                                 if ring.is_finite else [])
    swaps = [(1, "x"), (1, "0"), (3, "-1"), (5, "999"), (5, "1_0"), (3, parts[1]),
             (5, parts[3]), (2, "q"), (4, "1.5"), (6, "9" * 5000), (7, "9" * 5000),
             (7, "q"), (7, "0")] + [(k, z) for k in (2, 4, 6, 7) for z in zeros]
    edited = []
    for k, token in swaps:
        edited.append(parts[:k] + [token] + parts[k + 1:])
    edited += [parts + ["1"], parts[:-1], parts + ["#", "note"]]
    yield text
    for new in edited:
        yield "\n".join(lines[:at] + [" ".join(new)] + lines[at + 1:])
    for i, line in enumerate(lines):
        if line.startswith("# planted "):
            for planted in (line.rsplit(",", 1)[0], line + ",1", line + ",q"):
                yield "\n".join(lines[:i] + [planted] + lines[i + 1:])


@pytest.mark.parametrize("ring", [prime_field(2), prime_field(3), prime_field(5),
                                  modular(4), modular(6), ZZ, QQ], ids=str)
def test_max3lin_reader_matches_the_token_by_token_reader(ring):
    """The reader, which parses each distinct coefficient token once and
    checks each row as its line is read, gives the system and metadata, or
    the error and line, that parsing every field gives; equal tokens of a
    file give one shared element."""
    texts = [max3lin_to_text(gen_max3lin(n, m, ring, planted=planted,
                                         noise_count=noise, seed=seed))
             for n, m, planted, noise, seed in ((5, 6, True, 1, 1), (4, 3, False, 0, 2),
                                                (7, 7, True, 0, 3))]
    seen = 0
    for text in texts:
        for variant in _max3lin_edits(text, ring):
            try:
                want = _max3lin_by_token(variant)
            except FormatError as exc:
                with pytest.raises(FormatError) as info:
                    max3lin_from_text(variant)
                assert (str(info.value), info.value.line) == (str(exc), exc.line)
                continue
            got = max3lin_from_text(variant)
            assert got == want and got.meta == want.meta
            seen += 1
            lines = variant.split("\n")
            eqs = [line.split("#", 1)[0].split() for line in lines if line[:3] == "eq "]
            pairs = [pair for parts, (_, coeffs, b) in zip(eqs, got.rows)
                     for pair in zip(parts[2:7:2] + parts[7:], coeffs + (b,))]
            for line in lines:
                if line.startswith("# planted "):
                    pairs += zip(line.split()[2].split(","), got.meta["planted"])
            shared = {}
            for token, el in pairs:
                assert shared.setdefault(token, el) is el
                assert el == ring.parse_coeff(token)
    assert seen >= len(texts) * 3
