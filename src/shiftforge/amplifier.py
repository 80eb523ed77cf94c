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
from math import ceil, floor

from .errors import ArityError, PreconditionError
from .sparsepoly import check_term_cap


class AmplifiedInstance:
    """Product of `copies` disjoint renamed copies of `base`.

    Copy k occupies variable positions [k*n, (k+1)*n) where n is the base
    variable count; its names carry the suffix `__c<k>`.  circuit_size is
    bookkeeping only: s*d + 1 when the base is promised a circuit of size
    s, else None.
    """

    __slots__ = ("polynomial", "copies", "base", "copy_layout", "circuit_size")

    def __init__(self, polynomial, copies, base, circuit_size=None):
        self.polynomial = polynomial
        self.copies = copies
        self.base = base
        n = base.nvars
        self.copy_layout = tuple((k * n, (k + 1) * n) for k in range(copies))
        self.circuit_size = circuit_size


def _copy_names(base, copies):
    names = []
    for k in range(copies):
        names.extend("%s__c%d" % (name, k) for name in base.var_names)
    return names


def amplify(base, copies, base_circuit_size=None, cap=None):
    """The product of `copies` variable-disjoint renamed copies of base."""
    if copies < 1:
        raise PreconditionError("copy count must be >= 1")
    check_term_cap(base.sparsity() ** copies, "amplified polynomial", cap)
    n = base.nvars
    total = n * copies
    names = _copy_names(base, copies)
    poly = base.embed(total, 0, names)
    for k in range(1, copies):
        poly = poly.mul(base.embed(total, k * n, names), cap)
    size = None if base_circuit_size is None else base_circuit_size * copies + 1
    return AmplifiedInstance(poly, copies, base, size)


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
    """Smallest d with (sigma/(sigma-1))^d >= target, by exact rational
    powering.  sigma = 1 admits no amplification at all."""
    if sigma < 2:
        raise PreconditionError("base count must be >= 2 to amplify a gap")
    target = Fraction(target)
    if target <= 1:
        raise PreconditionError("target gap must exceed 1")
    ratio = Fraction(sigma, sigma - 1)
    acc = ratio
    d = 1
    while acc < target:
        acc *= ratio
        d += 1
    return d


class GapParams:
    """Thresholds for a promise gap: YES instances stay at or below t_yes
    monomials, NO instances carry at least t_no nonconstant monomials."""

    __slots__ = ("epsilon", "delta", "m", "copies", "alpha", "t_yes", "t_no")

    def __init__(self, epsilon, delta, m, copies=1):
        self.epsilon = Fraction(epsilon)
        self.delta = Fraction(delta)
        self.m = m
        if copies < 1:
            raise PreconditionError("copy count must be >= 1")
        self.copies = copies
        self.alpha = gap_alpha(self.epsilon, self.delta, m)
        self.t_yes = (floor((3 + self.epsilon) * m) + 1) ** copies
        self.t_no = ceil(self.alpha ** copies * self.t_yes)

    @property
    def has_gap(self):
        return self.alpha > 1
