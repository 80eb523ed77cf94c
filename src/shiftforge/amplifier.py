"""Gap amplification by products of variable-disjoint copies.

Multiplying d renamed copies of a base polynomial raises its monomial
count from sigma to sigma^d over an integral domain (zero divisors can
only merge terms, so over Z_q the product count may fall short), while a
per-copy family of shifts acts factor by factor.  The helper formulas
pick the copy count needed to stretch a multiplicative sparsity gap to a
target ratio.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import ceil, floor, inf, log, log1p

from .errors import ArityError, CapExceededError, PreconditionError
from .rings import POWER_BITS, check_power_digits, decimal_text
from .sparsepoly import SparsePoly, check_term_cap


class AmplifiedInstance:
    """Product of `copies` disjoint renamed copies of `base`.

    Copy k occupies variable positions [k*n, (k+1)*n) where n is the base
    variable count; its names carry the suffix `__c<k>`.
    """

    __slots__ = ("polynomial", "copies", "base")

    def __init__(self, polynomial, copies, base):
        self.polynomial = polynomial
        self.copies = copies
        self.base = base


def _copy_names(base, copies):
    names = []
    for k in range(copies):
        names.extend("%s__c%d" % (name, k) for name in base.var_names)
    return names


def amplify(base, copies):
    """The product of `copies` variable-disjoint renamed copies of base.

    The copies below d // 2 are multiplied, then the others, then the two
    products, which gives the keys of the product taken copy by copy in
    the same order; for an even d the two lie on either side of the cut
    at n * d // 2, so mul hands the result its halves()."""
    if copies < 1:
        raise PreconditionError("copy count must be >= 1")
    sigma = base.sparsity()
    check_power_digits(sigma, copies, "the term count of amplified polynomial")
    check_term_cap(sigma ** copies, "amplified polynomial")
    check_term_cap(base.nvars * copies, "the amplified polynomial's variables")
    check_term_cap(copies, "the amplified polynomial's copies")  # d - 1 products
    n = base.nvars
    total = n * copies
    names = _copy_names(base, copies)

    def factors(ks):
        return (base.embed(total, k * n, names) for k in ks)

    mid = copies // 2
    poly = reduce(SparsePoly.mul, factors(range(mid, copies)))
    if mid:
        poly = reduce(SparsePoly.mul, factors(range(mid))).mul(poly)
    return AmplifiedInstance(poly, copies, base)


def amplified_shift(inst, per_copy):
    """Shift copy k by per_copy[k] and re-multiply.  Equals shifting the
    product by the concatenation of the per-copy vectors."""
    per_copy = list(per_copy)
    if len(per_copy) != inst.copies:
        raise ArityError(
            "%d shift vectors for %d copies" % (len(per_copy), inst.copies)
        )
    base = inst.base
    n = base.nvars
    total = n * inst.copies
    names = _copy_names(base, inst.copies)
    poly = None
    for k, vec in enumerate(per_copy):
        factor = base.shift(vec).embed(total, k * n, names)
        poly = factor if poly is None else poly.mul(factor)
    return poly


def gap_alpha(epsilon, delta, m):
    """Exact achievable gap ratio (4 - delta) / (3 + epsilon + 1/m).

    A value <= 1 means the parameters leave no gap; callers must check.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if not (0 <= epsilon < 1 and 0 <= delta < 1):
        raise PreconditionError("epsilon and delta must lie in [0, 1)")
    if m < 1:
        raise PreconditionError("m must be >= 1")
    return (4 - delta) / (3 + epsilon + Fraction(1, m))


def copies_for_gap(sigma, target):
    """Smallest d with (sigma/(sigma-1))^d >= target, estimated from
    logarithms and confirmed by them, or with exact integer powers where
    d * log(sigma/(sigma-1)) lies within their rounding error of
    log(target).  sigma = 1 admits no amplification at all.
    CapExceededError, before any power is built, when d exceeds
    POWER_BITS // sigma.bit_length()."""
    if sigma < 2:
        raise PreconditionError("base count must be >= 2 to amplify a gap")
    target = Fraction(target)
    if target <= 1:
        raise PreconditionError("target gap must exceed 1")
    p, q = target.numerator, target.denominator
    most = POWER_BITS // sigma.bit_length()
    # both logarithms are accurate in double precision, so the walks
    # below take a step or two; their rounding errors, a few units in
    # the last place of the logarithms involved (and under 2^-1050 where
    # a quotient underflows), stay far below a 2^-40 share of those
    # logarithms plus 2^-1000
    log_target = log(p) - log(q) if target > 2 else log1p((p - q) / q)
    rate = log1p(1 / (sigma - 1))
    slack = (log(p) + log(q)) * 2 ** -40 + 2 ** -1000

    def reaches(d):
        if d > most:
            raise CapExceededError(
                "the gap needs more than %d copies, the most whose power "
                "of the base count fits in %d bits" % (most, POWER_BITS))
        gap = d * rate - log_target
        if abs(gap) > slack + d * rate * 2 ** -40:
            return gap > 0
        return q * sigma ** d >= p * (sigma - 1) ** d

    d = max(1, ceil(min(log_target / rate if rate else inf, most + 1)))
    while 1 < d <= most and reaches(d - 1):
        d -= 1
    while not reaches(d):
        d += 1
    return d


class GapParams:
    """Thresholds for a promise gap: YES instances stay at or below t_yes
    monomials, NO instances carry at least t_no nonconstant monomials."""

    __slots__ = ("alpha", "t_yes", "t_no")

    def __init__(self, epsilon, delta, m, copies=1):
        if copies < 1:
            raise PreconditionError("copy count must be >= 1")
        self.alpha = gap_alpha(epsilon, delta, m)
        base = floor((3 + Fraction(epsilon)) * m) + 1
        check_power_digits(base, copies, "t_yes = %s^%d" % (
            decimal_text(base, "t_yes"), copies))
        self.t_yes = base ** copies
        self.t_no = ceil(self.alpha ** copies * self.t_yes)
