"""Arithmetic circuits: evaluation, expansion, validation, files."""

import random

import pytest

from shiftforge import (
    ADD,
    CapExceededError,
    Circuit,
    CONST,
    FormatError,
    INPUT,
    MUL,
    SparsePoly,
    ZZ,
    prime_field,
)
from shiftforge.circuits import circuit_from_text, circuit_to_text
from shiftforge.quadratizer import system_from_text
from shiftforge.sparsepoly import poly_from_text

from helpers import random_circuit, random_vector

F5 = prime_field(5)


def mul_plus_const_circuit():
    # x1*x2 + 3
    nodes = [
        (0, INPUT, 0),
        (1, INPUT, 1),
        (2, CONST, 3),
        (3, MUL, (0, 1)),
        (4, ADD, (3, 2)),
    ]
    return Circuit(ZZ, 2, nodes, output=4)


def test_eval_examples():
    c = mul_plus_const_circuit()
    assert c.eval([ZZ.el(2), ZZ.el(5)]) == ZZ.el(13)
    single = Circuit(ZZ, 1, [(0, INPUT, 0)], output=0)
    assert single.eval([ZZ.el(7)]) == ZZ.el(7)
    zero = Circuit(ZZ, 1, [(0, CONST, 0)], output=0)
    assert zero.eval([ZZ.el(9)]).is_zero


def test_expand_examples():
    c = mul_plus_const_circuit()
    assert c.expand() == SparsePoly(ZZ, 2, {(1, 1): 1, (0, 0): 3})
    doubled = Circuit(ZZ, 1, [(0, INPUT, 0), (1, ADD, (0, 0))], output=1)
    assert doubled.expand() == SparsePoly(ZZ, 1, {(1,): 2})
    square = Circuit(
        ZZ,
        1,
        [(0, INPUT, 0), (1, CONST, 1), (2, ADD, (0, 1)), (3, MUL, (2, 2))],
        output=3,
    )
    assert square.expand() == SparsePoly(ZZ, 1, {(2,): 1, (1,): 2, (0,): 1})


def test_size_counts_dangling_nodes():
    c = Circuit(ZZ, 1, [(0, INPUT, 0), (1, CONST, 5), (2, ADD, (0,))], output=2)
    assert c.size == 3


def test_validation():
    with pytest.raises(FormatError):
        Circuit(ZZ, 1, [(0, MUL, (0, 1))], output=0)  # forward reference
    with pytest.raises(FormatError):
        Circuit(ZZ, 1, [(0, INPUT, 0), (1, MUL, (0, 0, 0))], output=1)
    with pytest.raises(FormatError):
        Circuit(ZZ, 1, [(0, INPUT, 0), (1, ADD, ())], output=1)
    with pytest.raises(FormatError):
        Circuit(ZZ, 1, [(0, INPUT, 3)], output=0)
    with pytest.raises(FormatError):
        Circuit(ZZ, 1, [(1, INPUT, 0), (0, CONST, 1)], output=0)
    with pytest.raises(FormatError):
        Circuit(ZZ, 1, [(0, INPUT, 0)], output=5)


def test_expand_cap(monkeypatch):
    # ((x+1)^2)^2 ... repeated squaring grows the term count; a tiny cap trips
    nodes = [(0, INPUT, 0), (1, CONST, 1), (2, ADD, (0, 1))]
    prev = 2
    for nid in (3, 4, 5):
        nodes.append((nid, MUL, (prev, prev)))
        prev = nid
    c = Circuit(ZZ, 1, nodes, output=prev)
    assert c.expand().sparsity() == 9
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "4")
    with pytest.raises(CapExceededError):
        c.expand()


def test_eval_expand_agreement_random(monkeypatch):
    monkeypatch.setenv("SHIFTFORGE_TERM_CAP", "2000")
    rng = random.Random(47)
    for _ in range(200):
        ring = rng.choice([ZZ, F5])
        nvars = rng.randint(1, 3)
        c = random_circuit(ring, nvars, 12, rng)
        try:
            p = c.expand()
        except CapExceededError:
            continue
        for _ in range(100):
            x = random_vector(ring, rng, nvars)
            assert p.eval(x) == c.eval(x)


def test_file_round_trip():
    rng = random.Random(53)
    for _ in range(30):
        ring = rng.choice([ZZ, F5])
        c = random_circuit(ring, 2, 8, rng)
        text = circuit_to_text(c)
        back = circuit_from_text(text)
        assert circuit_to_text(back) == text
        assert back.size == c.size
        x = random_vector(ring, rng, 2)
        assert back.eval(x) == c.eval(x)


def test_file_format_example():
    c = mul_plus_const_circuit()
    lines = circuit_to_text(c).splitlines()
    assert lines[0] == "ring Z"
    assert lines[1] == "vars 2 x1 x2"
    assert lines[2] == "node 0 input 0"
    assert lines[4] == "node 2 const 3"
    assert lines[5] == "node 3 mul 0 1"
    assert lines[6] == "node 4 add 3 2"
    assert lines[7] == "output 4"


def test_parse_rejects_bad_lines():
    with pytest.raises(FormatError):
        circuit_from_text("ring Z\nvars 1 x\nnode 0 input 0\n")  # no output
    with pytest.raises(FormatError):
        circuit_from_text("ring Z\nvars 1 x\nnode 0 mystery\noutput 0\n")
    with pytest.raises(FormatError):
        circuit_from_text("ring Z\nvars 1 x\nnode 0 mul 1\noutput 0\n")


def test_bad_integer_fields_quote_their_line():
    cases = [
        (poly_from_text, "ring Z\nvars x\n", "vars x"),
        (circuit_from_text, "ring Z\nvars x\n", "vars x"),
        (circuit_from_text, "ring Z\nvars 1\nnode z input 0\noutput 0\n",
         "node z input 0"),
        (circuit_from_text, "ring Z\nvars 1\nnode 0 input q\noutput 0\n",
         "node 0 input q"),
        (circuit_from_text, "ring Z\nvars 1\nnode 0 input 0\nnode 1 add 0 q\n"
         "output 1\n", "node 1 add 0 q"),
        (system_from_text, "ring Z\nvars x\neq\nterm 1\n", "vars x"),
        (system_from_text, "ring Z\nvars 1\neq\nnode z input 0\noutput 0\n",
         "node z input 0"),
    ]
    for reader, text, line in cases:
        with pytest.raises(FormatError) as info:
            reader(text)
        assert repr(line) in str(info.value), (reader, text)
