"""Brute-force search oracles over declared finite domains.

Every oracle enumerates an explicitly finite space: all vectors over a
finite ring, an integer box [-B, B]^k, or a declared rational grid.
Restrictions either force the first coordinate to minus the sum of the
rest (membership in the domain is still required) or pin all but the
last n coordinates to zero.  Spaces are sized up front and refused when
they exceed the cap.  Witnesses are tie-broken to the lexicographically
least vector under the canonical element order.  Every oracle runs in
the calling process and counts the nonzero slots of slot_table with the
bit-sliced kernel (bitslice), over every domain; the full expansion only
certifies answers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .bitslice import count_at, ranked, sliced_min_slots, sliced_ranks_below
from .errors import (
    ArityError,
    CapExceededError,
    InternalConsistencyError,
    PreconditionError,
    UnsupportedDomainError,
)
from .hn_reduce import (
    TriviallySolvable,
    reduce_hn,
    shift_to_solution,
    solution_to_shift,
)
from .max3lin import count_satisfied, encode_max3lin
from .quadratizer import check_payloads, check_solution, extend_solution
from .rings import RATIONALS, RingElement, decimal_text
from .sparsepoly import (
    eval_payload,
    format_vector,
    shifted_term_map,
    slot_table,
)

DEFAULT_ENUM_CAP = 10 ** 7
# the expansions behind every oracle are bounded in bits by
# sparsepoly.ROW_BITS, each row of binomials before it is built, and
# the exact evaluations of the searches over Z or Q by rings.POWER_BITS
# (bitslice._check_powers)

EXHAUSTIVE = "exhaustive"
BOX = "box"
GRID = "grid"

NONE = "none"
ZERO_SUM = "zero-sum"
SUPPORT_LAST = "support-last"


class SearchDomain:
    __slots__ = ("mode", "bound", "numerators", "denominators", "restriction",
                 "support_n", "cap")

    def __init__(self, mode, bound=None, numerators=None, denominators=None,
                 restriction=NONE, support_n=None, cap=DEFAULT_ENUM_CAP):
        self.mode = mode
        self.bound = bound
        self.numerators = tuple(numerators) if numerators else None
        self.denominators = tuple(denominators) if denominators else None
        self.restriction = restriction
        self.support_n = support_n
        self.cap = cap

    @classmethod
    def exhaustive(cls, cap=DEFAULT_ENUM_CAP):
        return cls(EXHAUSTIVE, cap=cap)

    @classmethod
    def integer_box(cls, bound, cap=DEFAULT_ENUM_CAP):
        if bound < 0:
            raise PreconditionError("box bound must be >= 0")
        return cls(BOX, bound=bound, cap=cap)

    @classmethod
    def rational_grid(cls, numerators, denominators, cap=DEFAULT_ENUM_CAP):
        if not numerators or not denominators or any(d == 0 for d in denominators):
            raise PreconditionError("grid needs numerators and nonzero denominators")
        return cls(GRID, numerators=numerators, denominators=denominators, cap=cap)

    def restricted(self, restriction, support_n=None):
        if restriction == SUPPORT_LAST and (support_n is None or support_n < 0):
            raise PreconditionError("support restriction needs a width")
        return SearchDomain(self.mode, self.bound, self.numerators,
                            self.denominators, restriction, support_n, self.cap)

    def values(self, ring):
        """Allowed payload values for one coordinate, ascending: a range
        for the residues of Z_q, a box over Z or Q and a grid of
        consecutive integers, else the grid's sorted Fractions."""
        if self.mode == EXHAUSTIVE:
            if not ring.is_finite:
                raise UnsupportedDomainError(
                    "exhaustive search needs a finite ring; declare a box or grid"
                )
            return range(ring.modulus)
        if self.mode == BOX:
            if ring.is_finite:
                raise UnsupportedDomainError(
                    "integer boxes apply to Z and Q; use exhaustive search"
                )
            return range(-self.bound, self.bound + 1)
        if ring.kind != RATIONALS:
            raise UnsupportedDomainError("rational grids apply to Q only")
        vals = sorted({Fraction(a, d) for a in self.numerators
                       for d in self.denominators})
        if all(v.denominator == 1 for v in vals) and vals[-1] - vals[0] < len(vals):
            return range(vals[0].numerator, vals[-1].numerator + 1)
        return vals


def _plan(dom, ring, k):
    """Per-coordinate values, free coordinate positions and the size of
    the space, checked against the cap before any value is listed."""
    if dom.restriction == ZERO_SUM:
        if k < 1:
            raise PreconditionError("zero-sum restriction needs a coordinate")
        free = list(range(1, k))
    elif dom.restriction == SUPPORT_LAST:
        if dom.support_n > k:
            raise ArityError("support width exceeds the coordinate count")
        free = list(range(k - dom.support_n, k))
    else:
        free = list(range(k))
    # with no free coordinate every coordinate is 0, which every box and
    # ring holds, whatever the mode; a grid may not hold 0
    values = dom.values(ring) if free or dom.mode == GRID else range(1)
    # len() of a range of 2^63 values or more raises OverflowError
    count = (values[-1] - values[0] + 1 if isinstance(values, range)
             else len(values))
    size = count ** len(free)
    if size > dom.cap:
        raise CapExceededError(
            "search space of %s points exceeds the cap of %d"
            % (decimal_text(size, "the search space's size"), dom.cap)
        )
    return values, free, size


class SearchReport:
    __slots__ = ("min_sparsity", "witness", "points", "complete")

    def __init__(self, min_sparsity, witness, points, complete):
        self.min_sparsity = min_sparsity
        self.witness = witness
        self.points = points
        self.complete = complete

    def lines(self):
        return [
            "min_sparsity %d" % self.min_sparsity,
            "witness %s" % format_vector(self.witness),
            "points %d" % self.points,
            "complete %s" % ("true" if self.complete else "false"),
        ]


def _count(terms, metric):
    if metric == "nonconstant":
        return sum(1 for key in terms if key)
    return len(terms)


def _at(values, free, k, restriction, ring, rank):
    """The payload vector of an in-domain rank, decoded by ranked."""
    vec = [ring.canon(0)] * k
    for pos, v in ranked(values, free, rank):
        vec[pos] = ring.canon(v)
    if restriction == ZERO_SUM:
        vec[0] = ring.canon(-sum(vec[1:], ring.canon(0)))
    return vec


def _least_key(dom, ring, k, make_slots):
    """The least (count, vector) key over the domain and its number of
    points, where the count at a point is the number of nonzero slots
    there, plus fixed; make_slots(moving) gives (fixed, slots) for the
    range of positions that can move.  The bit-sliced kernel counts every
    domain, in this process."""
    values, free, _ = _plan(dom, ring, k)
    zero_sum = dom.restriction == ZERO_SUM
    fixed, slots = make_slots(range(free[0] - zero_sum, k)
                              if free and any(values) else range(0))
    found = sliced_min_slots(ring, values, fixed, slots, k, free, zero_sum)
    if found is None:
        return None, 0
    count, rank, points = found
    vec = _at(values, free, k, dom.restriction, ring, rank)
    return (count, tuple(vec)), points


def search_min_sparsity(poly, dom, metric="total"):
    """Minimum (non)constant monomial count of poly(X + a) over the
    domain, with the lexicographically least witness shift.

    The slots of slot_table are counted by _least_key; the winner is
    expanded once more and its count certified."""
    if metric not in ("total", "nonconstant"):
        raise PreconditionError("metric must be total or nonconstant")
    ring = poly.ring
    best, points = _least_key(
        dom, ring, poly.nvars,
        lambda moving: slot_table(ring, poly.sparse_terms, moving,
                                  metric == "nonconstant"))
    if best is None:
        raise PreconditionError("search domain is empty")
    witness = tuple(RingElement(poly.ring, v) for v in best[1])
    exact = _count(shifted_term_map(ring, poly.sparse_terms, best[1],
                                    poly.halves()), metric)
    if exact != best[0]:
        raise InternalConsistencyError(
            "shift %s: counted %d monomials, expansion gives %d"
            % (format_vector(witness), best[0], exact)
        )
    return SearchReport(best[0], witness, points, dom.mode == EXHAUSTIVE)


def solve_system(system, dom):
    """Lexicographically least solution over the domain, or None.

    Each equation is one slot, its value at the point, so a solution is
    a point with no nonzero slot, and the least key of _least_key is the
    least solution when its count is 0.  The solution is evaluated once
    more and certified."""
    ring = system.ring
    zero = ring.canon(0)
    slots = [(eq.sparse_terms.get((), zero),
              [(c, key) for key, c in eq.sparse_terms.items() if key])
             for eq in system.equations]
    best, _ = _least_key(dom, ring, system.nvars, lambda moving: (0, slots))
    if best is None or best[0]:
        return None
    found = tuple(RingElement(ring, v) for v in best[1])
    if any(eval_payload(eq, best[1]) for eq in system.equations):
        raise InternalConsistencyError(
            "point %s: counted as a solution, the equations do not vanish"
            % format_vector(found))
    return found


def maxsat(system, dom):
    """Exact maximum number of simultaneously satisfiable rows over the
    domain of assignments.

    A row is unsatisfied where its slot b + c1*x_i + c2*x_j + c3*x_k is
    nonzero, so maxsat is m less the least count of _least_key, and the
    point that reaches it is certified by count_satisfied."""
    ring = system.ring
    slots = [(b.val, [(c.val, (j, 1)) for j, c in zip(idx, coeffs)])
             for idx, coeffs, b in system.rows]
    found, _ = _least_key(dom, ring, system.n, lambda moving: (0, slots))
    if found is None:
        raise PreconditionError("search domain is empty")
    x = [RingElement(ring, v) for v in found[1]]
    best = system.m - found[0]
    exact = count_satisfied(system, x)
    if exact != best:
        raise InternalConsistencyError(
            "assignment %s: counted %d satisfied rows, the rows give %d"
            % (format_vector(x), best, exact)
        )
    return best


# -- end-to-end verifiers ------------------------------------------------


class RoundtripReport:
    """Both directions of the solvability/sparsifiability correspondence,
    checked exhaustively over a box."""

    __slots__ = (
        "trivial",
        "certificate",
        "certificate_ok",
        "sigma",
        "solutions",
        "sparsifying_shifts",
        "solution_points",
        "shift_points",
        "violations",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))

    @property
    def consistent(self):
        return not self.violations

    def lines(self):
        if self.trivial:
            return [
                "trivially_solvable true",
                "certificate %s" % format_vector(self.certificate),
                "certificate_ok %s" % ("true" if self.certificate_ok else "false"),
            ]
        return [
            "trivially_solvable false",
            "sigma %d" % self.sigma,
            "solutions %d" % self.solutions,
            "sparsifying_shifts %d" % self.sparsifying_shifts,
            "solution_points %d" % self.solution_points,
            "shift_points %d" % self.shift_points,
            "violations %d" % len(self.violations),
            "consistent %s" % ("true" if self.consistent else "false"),
        ]


def verify_hn_roundtrip(source, box=2, jobs=1, cap=DEFAULT_ENUM_CAP):
    """Reduce, then check both directions over the box, counting the
    slots of one slot_table with the x-block shifted and the w variables
    not.

    Solutions are enumerated over box-bounded assignments of the source
    variables as payload tuples: each extends uniquely
    (ExtensionRecipe.extend_payloads) and is checked on payloads
    (check_payloads), and only a solution is made ring elements.  Each
    solution must yield a wired shift that lowers the count by exactly
    one, counted at that point.  Shifts range over all zero-sum
    box-bounded vectors, counted at once by the bit-sliced kernel; each
    one that lowers the count must invert to a verified solution.  Box
    search over the integers is sound, not complete.  `jobs` is accepted
    and not used; it stays while the benchmark's workloads pass it.
    """
    result = reduce_hn(source)
    if isinstance(result, TriviallySolvable):
        full = extend_solution(result.recipe, result.certificate)
        ok = check_solution(result.system, full)
        return RoundtripReport(
            trivial=True, certificate=result.certificate, certificate_ok=ok
        )

    inst = result
    ring = inst.polynomial.ring
    sigma = inst.sigma
    dom = SearchDomain.integer_box(box, cap=cap)
    # both spaces are planned, and so capped, before any work
    k = inst.nsys + 1
    values = _plan(dom, ring, inst.n_inputs)[0]
    shift_values, shift_free, _ = _plan(dom.restricted(ZERO_SUM), ring, k)
    fixed, slots = slot_table(ring, inst.polynomial.sparse_terms, range(k))
    violations = []

    # direction 1: box-bounded source assignments, walked as payloads;
    # only a solution is made ring elements, by extend_solution
    recipe = inst.recipe
    solutions = 0
    solution_points = 0
    for combo in product(values, repeat=inst.n_inputs):
        solution_points += 1
        if not check_payloads(inst.system, recipe.extend_payloads(combo)):
            continue
        solutions += 1
        full = extend_solution(recipe, [RingElement(ring, v) for v in combo])
        b = solution_to_shift(inst, full)
        drop = sigma - count_at(ring, fixed, slots, [v.val for v in b])
        if drop != 1:
            violations.append("solution %s drops %d" % (format_vector(full), drop))

    # direction 2: zero-sum shifts of the x-block inside the box, counted
    # by the bit-sliced kernel; each one that lowers the count is decoded
    # from its rank
    shift_points, ranks = sliced_ranks_below(
        ring, shift_values, fixed, slots, k, shift_free, True, sigma)
    sparsifying = len(ranks)
    for rank in ranks:
        b = tuple(RingElement(ring, v) for v in _at(
            shift_values, shift_free, k, ZERO_SUM, ring, rank))
        try:
            shift_to_solution(inst, b)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            violations.append("shift %s: %s" % (format_vector(b), exc))
    if solutions == 0 and sparsifying > 0:
        violations.append("sparsifying shifts exist without solutions")

    return RoundtripReport(
        trivial=False,
        certificate=None,
        certificate_ok=None,
        sigma=sigma,
        solutions=solutions,
        sparsifying_shifts=sparsifying,
        solution_points=solution_points,
        shift_points=shift_points,
        violations=violations,
    )


class EncodingReport:
    __slots__ = ("w", "sigma", "maxsat", "min_nonconstant", "expected")

    def __init__(self, w, sigma, maxsat, min_nonconstant, expected):
        self.w = w
        self.sigma = sigma
        self.maxsat = maxsat
        self.min_nonconstant = min_nonconstant
        self.expected = expected

    @property
    def match(self):
        return self.min_nonconstant == self.expected

    def lines(self):
        return [
            "w %d" % self.w,
            "sigma %d" % self.sigma,
            "maxsat %d" % self.maxsat,
            "min_nonconstant %d" % self.min_nonconstant,
            "expected %d" % self.expected,
            "match %s" % ("true" if self.match else "false"),
        ]


def verify_max3lin(system, e0=None, jobs=1, cap=DEFAULT_ENUM_CAP):
    """Exhaustively confirm that the least nonconstant monomial count of
    the shifted encoding equals 4m minus the best satisfiable row count.
    `jobs` is accepted and not used; it stays while the benchmark's
    workloads pass it."""
    if not system.ring.is_finite:
        raise UnsupportedDomainError("exhaustive verification needs a finite ring")
    enc = encode_max3lin(system, e0)
    dom = SearchDomain.exhaustive(cap=cap)
    report = search_min_sparsity(enc.polynomial, dom, metric="nonconstant")
    best = maxsat(system, dom)
    expected = 4 * system.m - best
    return EncodingReport(enc.w, enc.polynomial.sparsity(), best,
                          report.min_sparsity, expected)
