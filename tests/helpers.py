"""Shared corpus builders for the test suite.

Everything is driven by seeded random.Random instances so test runs are
reproducible; builders return plain library objects.
"""

from itertools import chain

from shiftforge import (
    ADD,
    Circuit,
    CONST,
    EquationSystem,
    INPUT,
    MUL,
    SparsePoly,
    ZZ,
)
from shiftforge.sparsepoly import _expansion, pairs


def random_exponents(rng, nvars, max_degree):
    total = rng.randint(0, max_degree)
    exps = [0] * nvars
    for _ in range(total):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(ring, nvars, max_degree, max_terms, rng, names=None):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = random_exponents(rng, nvars, max_degree)
        coef = random_nonzero(ring, rng)
        terms[exps] = terms.get(exps, 0) + coef.val
    return SparsePoly(ring, nvars, terms, names)


def sparse_terms(terms):
    """A term map with dense exponent vectors as keys, rekeyed to the flat
    sparse keys (p1, e1, p2, e2, ...) that the count and shift kernels
    read: the nonzero exponents in ascending position."""
    return {tuple(v for p, e in enumerate(exps) if e for v in (p, e)): c
            for exps, c in terms.items()}


def reference_split(terms, moving):
    """Group a term map by the unshifted part of every key, pair by pair:
    a map from rest, a key's pairs off moving, to the list of (mov, c) of
    its terms, mov its pairs on moving, in the order the terms come."""
    groups = {}
    for key, c in terms.items():
        rest = tuple(v for p, e in pairs(key) if p not in moving for v in (p, e))
        mov = tuple(v for p, e in pairs(key) if p in moving for v in (p, e))
        groups.setdefault(rest, []).append((mov, c))
    return groups


def sorted_merge_shift(ring, terms, offsets):
    """The term map of P(X + a) with the terms grouped by their unshifted
    part (reference_split), each group's moving parts expanded and summed,
    and every interleaved key merged whole by sorting its pairs: the
    reference map for the shift by halves.  Only the maps are compared,
    not their order, which every consumer sorts or ignores."""
    m = ring.modulus
    moving = {p for p, a in enumerate(offsets) if a}
    if not moving:
        return dict(terms)
    groups = reference_split(terms, moving)
    expansions = {mov: _expansion(mov, offsets, m)
                  for group in groups.values() for mov, _ in group}
    out = {}
    for rest, group in groups.items():
        if len(group) == 1 and not group[0][0]:
            out[rest] = group[0][1]
            continue
        acc = {}
        for mov, c in group:
            for sub, s in expansions[mov]:
                acc[sub] = acc.get(sub, 0) + c * s
        for sub, v in acc.items():
            if m is not None:
                v %= m
            if not v:
                continue
            if not rest or not sub or rest[-2] < sub[0]:
                out[rest + sub] = v
            elif sub[-2] < rest[0]:
                out[sub + rest] = v
            else:
                key = sorted(list(pairs(rest)) + list(pairs(sub)))
                out[tuple(chain.from_iterable(key))] = v
    return out


def assert_canonical(p):
    """p equals its own term map re-validated by the public constructor,
    and every stored coefficient is nonzero and in canonical form."""
    again = SparsePoly(p.ring, p.nvars, dict(p.terms), p.var_names)
    assert again == p
    assert again.var_names == p.var_names
    for c in p.terms.values():
        assert c
        assert p.ring.canon(c) == c
        assert type(p.ring.canon(c)) is type(c)


def random_nonzero(ring, rng):
    if ring.is_finite:
        return ring.el(rng.randint(1, ring.modulus - 1))
    return ring.el(rng.choice([-3, -2, -1, 1, 2, 3]))


def random_element(ring, rng, bound=3):
    if ring.is_finite:
        return ring.el(rng.randrange(ring.modulus))
    return ring.el(rng.randint(-bound, bound))


def random_vector(ring, rng, k, bound=3):
    return tuple(random_element(ring, rng, bound) for _ in range(k))


def random_sparse_system(ring, rng, max_vars=3, max_degree=4, max_terms=4,
                         max_eqs=3):
    nvars = rng.randint(1, max_vars)
    names = ["x%d" % (i + 1) for i in range(nvars)]
    eqs = []
    for _ in range(rng.randint(1, max_eqs)):
        eqs.append(random_poly(ring, nvars, max_degree, max_terms, rng, names))
    return EquationSystem(ring, names, eqs)


def random_circuit(ring, nvars, max_nodes, rng):
    names = ["x%d" % (i + 1) for i in range(nvars)]
    nodes = []
    ids = []
    count = rng.randint(1, max_nodes)
    for nid in range(count):
        kinds = [INPUT, CONST] if not ids else [INPUT, CONST, MUL, ADD]
        kind = rng.choice(kinds)
        if kind == INPUT:
            nodes.append((nid, INPUT, rng.randrange(nvars)))
        elif kind == CONST:
            nodes.append((nid, CONST, random_element(ring, rng).val))
        elif kind == MUL:
            nodes.append((nid, MUL, (rng.choice(ids), rng.choice(ids))))
        else:
            width = rng.randint(1, min(3, len(ids)))
            nodes.append((nid, ADD, tuple(rng.choice(ids) for _ in range(width))))
        ids.append(nid)
    return Circuit(ring, nvars, nodes, output=ids[-1], var_names=names)


def planted_integer_system(rng, max_vars=3, max_eqs=3, value_bound=3,
                           max_degree=3, max_terms=3):
    """Random Z system with a recorded solution in [-bound, bound]; the
    first equation pins a coordinate so a constant term survives."""
    nvars = rng.randint(1, max_vars)
    names = ["x%d" % (i + 1) for i in range(nvars)]
    sol = [rng.randint(-value_bound, value_bound) for _ in range(nvars)]
    pin = rng.randrange(nvars)
    if sol[pin] == 0:
        sol[pin] = rng.choice([-1, 1, 2, -2])
    pin_exps = tuple(1 if i == pin else 0 for i in range(nvars))
    eqs = [SparsePoly(ZZ, nvars, {pin_exps: 1, (0,) * nvars: -sol[pin]}, names)]
    for _ in range(rng.randint(0, max_eqs - 1)):
        p = random_poly(ZZ, nvars, max_degree, max_terms, rng, names)
        value = p.eval([ZZ.el(v) for v in sol])
        eqs.append(p.sub(SparsePoly.constant(ZZ, nvars, value, names)))
    system = EquationSystem(ZZ, names, eqs)
    return system, tuple(ZZ.el(v) for v in sol)


def unsolvable_integer_system(rng, kind=None):
    """Z system with no solution at all: a sum of squares plus a positive
    constant, or an even linear form plus an odd constant."""
    kind = kind if kind is not None else rng.choice(["squares", "parity"])
    nvars = rng.randint(1, 2)
    names = ["x%d" % (i + 1) for i in range(nvars)]
    if kind == "squares":
        terms = {(0,) * nvars: rng.randint(1, 3)}
        for i in range(nvars):
            exps = tuple(2 if j == i else 0 for j in range(nvars))
            terms[exps] = rng.randint(1, 2)
    else:
        terms = {(0,) * nvars: rng.choice([1, 3, -1])}
        for i in range(nvars):
            exps = tuple(1 if j == i else 0 for j in range(nvars))
            terms[exps] = rng.choice([2, -2, 4])
    eqs = [SparsePoly(ZZ, nvars, terms, names)]
    if rng.random() < 0.5:
        extra = random_poly(ZZ, nvars, 2, 2, rng, names)
        eqs.append(extra.sub(SparsePoly.constant(
            ZZ, nvars, extra.eval([ZZ.zero] * nvars), names)))
    return EquationSystem(ZZ, names, eqs)


def out_of_box_system(rng, box):
    """Solvable over Z, but the unique solution lies outside [-box, box]."""
    nvars = rng.randint(1, 2)
    names = ["x%d" % (i + 1) for i in range(nvars)]
    eqs = []
    for i in range(nvars):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        value = rng.choice([box + 1, box + 2, -(box + 1)])
        eqs.append(SparsePoly(ZZ, nvars, {exps: 1, (0,) * nvars: -value}, names))
    return EquationSystem(ZZ, names, eqs)
