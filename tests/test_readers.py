"""The file readers: line locations, the shared header rule, and fuzzing."""

import tempfile
import time
from pathlib import Path

import pytest

from shiftforge import FormatError, ShiftForgeError
from shiftforge.circuits import load_circuit
from shiftforge.cli import main
from shiftforge.hn_reduce import load_witness, witness_from_text
from shiftforge.max3lin import load_max3lin
from shiftforge.quadratizer import load_system
from shiftforge.sparsepoly import load_poly

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
])
def test_format_error_names_file_and_line(tmp_path, loader, name, text, lineno):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        loader(str(path))
    assert (info.value.path, info.value.line) == (str(path), lineno)
    assert "%s:%d" % (path, lineno) in str(info.value)


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
