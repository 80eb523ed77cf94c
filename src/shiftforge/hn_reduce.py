"""Encoding root-finding as shift-sparsification over the integers.

Given a lowered, constant-normalized system T = {g_1, ..., g_t} over N
variables (g_1 the single constant-bearing, affine-linear equation), the
encoder emits one polynomial over x_0, the N system variables, and fresh
outer variables w_1..w_t:

    w_1*g_1  +  sum over i >= 2 of  w_i*(gamma*g_i + x_0 + x_1 + ... + x_N)

with gamma a fixed nonzero non-unit.  T has a solution exactly when some
zero-sum shift of the x-block lowers the polynomial's monomial count,
and the wired shift for a solution a is (-sum(a), a), which lowers the
count by exactly one; zero-sum shifts are what verify_hn_roundtrip
checks.  A shift of the x-block whose sum s is not zero may lower the
count of an unsolvable T, at a point where g_1 vanishes and every
gamma*g_i equals -s, so this is not yet a reduction to unrestricted
shifts; a sum guard (ROADMAP item 14) is the open fix.

gamma must be nonzero, not a unit and not a zero divisor: a unit would
break both directions, and a zero divisor lets gamma*g_i vanish where
g_i does not.  Z is the one supported ring with such an element.  A
field has no nonzero non-unit, and every nonzero non-unit of Z_q is a
zero divisor, so reduce_hn refuses every ring but Z.  The abstract's
claim that SparseShift_R is NP_R-complete for rings R that are not
fields is therefore not reproduced for Z_q; the construction it would
need is not in the paper's abstract.
"""

from __future__ import annotations

from itertools import repeat
from operator import add

from .errors import (
    ArityError,
    FormatError,
    InternalConsistencyError,
    InvalidGammaError,
    NoReductionError,
    NotASolutionError,
    PreconditionError,
    StructureError,
    UnsupportedDomainError,
    quoted,
)
from .quadratizer import (
    EquationSystem,
    check_solution,
    first_constant_index,
    normalize_constants,
    quadratize_circuit,
    quadratize_sparse,
)
from .rings import INTEGERS, RingElement
from .sparsepoly import Reader, SparsePoly, parse_int, read_file


class ReductionWitnessMap:
    """Bookkeeping tying instance variables back to the source system."""

    __slots__ = ("gamma", "x0_index", "xprime_indices", "w_indices", "g1_index")

    def __init__(self, gamma, x0_index, xprime_indices, w_indices, g1_index):
        self.gamma = gamma
        self.x0_index = x0_index
        self.xprime_indices = tuple(xprime_indices)
        self.w_indices = tuple(w_indices)
        self.g1_index = g1_index

    def __eq__(self, other):
        return isinstance(other, ReductionWitnessMap) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )


class HNInstance:
    """The encoded polynomial plus everything needed to invert the map."""

    __slots__ = ("polynomial", "witness", "system", "recipe")

    def __init__(self, polynomial, witness, system, recipe=None):
        self.polynomial = polynomial
        self.witness = witness
        self.system = system
        self.recipe = recipe

    @property
    def sigma(self):
        return self.polynomial.sparsity()

    @property
    def nsys(self):
        return self.system.nvars

    @property
    def n_inputs(self):
        return self.system.n_inputs


class TriviallySolvable:
    """Short-circuit result: no equation carries a constant, so the
    all-zero assignment is a certificate."""

    __slots__ = ("certificate", "system", "recipe")

    def __init__(self, certificate, system, recipe=None):
        self.certificate = tuple(certificate)
        self.system = system
        self.recipe = recipe


def _validate_gamma(ring, gamma):
    if not isinstance(gamma, RingElement) or gamma.ring != ring:
        raise InvalidGammaError("gamma must be an element of the system's ring")
    if gamma.is_zero or gamma.is_unit:
        raise InvalidGammaError("gamma must be nonzero and not a unit")


def declared_sparsity_bound(system):
    """(t-1)*(N+1) + sum of equation sparsities; the built instance can
    only merge terms, never split them, so its count is at most this."""
    t = len(system.equations)
    n = system.nvars
    return (t - 1) * (n + 1) + sum(eq.sparsity() for eq in system.equations)


def build_hn_instance(system, gamma, g1_index=0, recipe=None):
    """Encode a normalized system over the integers.

    Preconditions: the first equation is affine-linear with a nonzero
    constant term, every other equation is constant-free of degree at
    most 2, and gamma is a nonzero non-unit.
    """
    ring = system.ring
    if ring.kind != INTEGERS:
        raise UnsupportedDomainError(
            "encoding requires the integers, got %s" % ring.token()
        )
    _validate_gamma(ring, gamma)
    eqs = system.equations
    if not eqs:
        raise PreconditionError("empty system")
    if eqs[0].constant_term().is_zero:
        raise PreconditionError("first equation must carry the constant")
    if eqs[0].degree() > 1:
        raise PreconditionError("constant-bearing equation must be affine-linear")
    for i, eq in enumerate(eqs[1:], start=2):
        if not eq.constant_term().is_zero:
            raise PreconditionError("equation %d also carries a constant" % i)
        if eq.degree() > 2:
            raise PreconditionError("equation %d has degree > 2" % i)

    n = system.nvars
    t = len(eqs)
    nvars = n + 1 + t
    names = ["x0"] + list(system.var_names) + ["w%d" % (i + 1) for i in range(t)]

    # positions are (x0, x1..xN, w1..wt): a key of g_i moves up one
    # position and gains the pair (w_i, 1); summand i is the only one
    # with w_i = 1, so summands never merge, and inside a summand x_k
    # meets g_i only where g_i is linear in x_k.  The window x_0 + ... +
    # x_N is written in bulk, over the saved linear terms of gamma * g_i,
    # which are then added back
    up = (1, 0) * n
    xs = [(k, 1) for k in range(n + 1)]
    terms = {}
    for i, eq in enumerate(eqs):
        w = (n + 1 + i, 1)
        scale = gamma.val if i else 1
        for key, c in eq.sparse_terms.items():
            terms[tuple(map(add, key, up)) + w] = c * scale
        if i:
            linear = [((key[0] + 1, 1) + w, c * scale)
                      for key, c in eq.sparse_terms.items() if key[1:] == (1,)]
            terms.update(zip(map(add, xs, repeat(w)), repeat(1)))
            for key, c in linear:
                terms[key] += c

    poly = SparsePoly._from_payloads(ring, nvars, terms, names)
    witness = ReductionWitnessMap(
        gamma,
        0,
        range(1, n + 1),
        range(n + 1, n + 1 + t),
        g1_index,
    )
    return HNInstance(poly, witness, system, recipe)


def reduce_hn(source, gamma=None):
    """Full pipeline: lower, normalize constants, encode.

    source is a tier-x sparse system or a list of circuits over the
    integers.  Returns an HNInstance, or TriviallySolvable when the
    lowered system has no constant-bearing equation at all (the all-zero
    assignment on the source variables is then a certificate).
    """
    if isinstance(source, EquationSystem):
        ring, lower = source.ring, quadratize_sparse
    else:
        source = list(source)
        if not source:
            raise PreconditionError("empty circuit list")
        ring, lower = source[0].ring, quadratize_circuit
    if ring.kind != INTEGERS:
        raise UnsupportedDomainError("encoding requires the integers")
    lowered, recipe = lower(source)
    if gamma is None:
        gamma = ring.el(2)
    _validate_gamma(ring, gamma)
    g1 = first_constant_index(lowered)
    normalized, trivial = normalize_constants(lowered)
    if trivial:
        cert = tuple(ring.zero for _ in range(lowered.n_inputs))
        return TriviallySolvable(cert, normalized, recipe)
    return build_hn_instance(normalized, gamma, g1, recipe)


def shift_instance(inst, bx):
    """The instance polynomial with the x-block shifted by bx and the
    outer w variables left alone."""
    bx = list(bx)
    n = inst.nsys
    if len(bx) != n + 1:
        raise ArityError("shift vector must cover x0 and the %d system variables" % n)
    t = len(inst.witness.w_indices)
    full = bx + [inst.polynomial.ring.zero] * t
    return inst.polynomial.shift(full)


def solution_to_shift(inst, a):
    """The wired shift (-sum(a), a) for a verified solution a of the
    normalized system; it lowers the monomial count by exactly one."""
    a = tuple(a)
    if len(a) != inst.nsys:
        raise ArityError(
            "solution of length %d for %d system variables" % (len(a), inst.nsys)
        )
    if not check_solution(inst.system, a):
        raise NotASolutionError("assignment does not satisfy the system")
    ring = inst.polynomial.ring
    return (RingElement(ring, ring.canon(-sum(v.val for v in a))),) + a


def shift_to_solution(inst, b):
    """Invert a sparsifying zero-sum shift to a verified solution.

    b must satisfy b_0 = -(b_1 + ... + b_N) and strictly lower the
    monomial count with the w variables unshifted; the projection
    (b_1, ..., b_N) then satisfies the normalized system.
    """
    b = list(b)
    n = inst.nsys
    if len(b) != n + 1:
        raise ArityError("shift of length %d for %d+1 coordinates" % (len(b), n))
    ring = inst.polynomial.ring
    vals = ring.payloads(b, n + 1, "shift")
    if vals[0] != ring.canon(-sum(vals[1:])):
        raise StructureError("first coordinate must be minus the sum of the rest")
    if shift_instance(inst, b).sparsity() >= inst.sigma:
        raise NoReductionError("shift does not lower the monomial count")
    a = tuple(b[1:])
    if not check_solution(inst.system, a):
        raise InternalConsistencyError(
            "sparsifying zero-sum shift failed to yield a solution"
        )
    return a


# -- witness file format ------------------------------------------------
#
#   # witness
#   ring Z
#   gamma <coef>
#   x0 <index>
#   xprime <indices>
#   wvars <indices>
#   g1 <equation-index>


def witness_to_text(witness, ring):
    return (
        "# witness\n"
        + "ring %s\n" % ring.token()
        + "gamma %s\n" % ring.format_coeff(witness.gamma)
        + "x0 %d\n" % witness.x0_index
        + "xprime %s\n" % " ".join(map(str, witness.xprime_indices))
        + "wvars %s\n" % " ".join(map(str, witness.w_indices))
        + "g1 %d\n" % witness.g1_index
    )


def witness_from_text(text):
    reader = Reader(vars_line=False)
    fields = {}

    def field(parts, line):
        name = parts[0]
        if name in fields:
            raise FormatError("duplicate %s line" % name)
        if name in ("xprime", "wvars"):
            fields[name] = tuple(parse_int(v, line) for v in parts[1:])
        elif len(parts) < 2:
            raise FormatError("missing value in %s" % quoted(line))
        elif name != "gamma":
            fields[name] = parse_int(parts[1], line)
        else:
            try:
                fields[name] = reader.ring.parse_coeff(parts[1])
            except FormatError as exc:
                raise FormatError("%s in %s" % (exc, quoted(line))) from exc

    names = ("gamma", "x0", "xprime", "wvars", "g1")
    reader.read(text, dict.fromkeys(names, field))
    if len(fields) < len(names):
        raise FormatError("witness file is missing fields")
    return ReductionWitnessMap(*(fields[name] for name in names)), reader.ring


def save_witness(path, witness, ring):
    with open(path, "w") as fh:
        fh.write(witness_to_text(witness, ring))


def load_witness(path):
    return read_file(path, witness_from_text)
