"""Bit-sliced shift counting over small finite rings.

Every point of a block of the search domain owns one bit of a Python
int, at its rank within the block.  A value in Z_q that varies over the
block is held as q one-hot planes: plane v has the bits of the points
where the value is v.  Adding or multiplying two such values costs q^2
AND/OR operations on whole planes, so the slots of slot_table, and from
them the monomial count of P(X + a), come out for every point of the
block at once.  The counts are summed into bit-sliced binary counter
planes by a ripple-carry adder.  This is bitslicing (Biham, FSE 1997)
and broadword computing (Knuth, TAOCP 4A, 7.1.3).

A plane has at most PLANE_BITS bits: the lowest free coordinates get
planes, and the higher ones are fixed for one block and enter as
constants, so memory stays bounded whatever the size of the domain.
"""

from __future__ import annotations

import operator

from .sparsepoly import slot_table

# the q^2 cost per term grows quickly with q, and moduli above this go
# to shift_counts
MAX_MODULUS = 7
# bits of one plane (128 KiB)
PLANE_BITS = 1 << 20


def class_planes(q, digits):
    """One-hot planes of the base-q digits of the ranks 0..q**digits - 1,
    most significant digit first: out[d][v] marks the ranks whose d-th
    digit is v.

    The plane of value v at weight s is a repunit, with one bit at every
    multiple of q*s, times the run of s ones at v*s; that product is
    written as the difference of two shifts."""
    out = []
    rep = 1  # one bit at every multiple of q*s below q**digits
    for d in reversed(range(digits)):
        s = q ** d
        out.append([(rep << (v + 1) * s) - (rep << v * s) for v in range(q)])
        rep = sum(rep << u * s for u in range(q))
    return out


def _apply(f, x, y, q):
    """f(x, y) mod q at every point of the block, where x and y are each
    a payload (the same at every point) or a list of one-hot planes."""
    if isinstance(x, int) and isinstance(y, int):
        return f(x, y) % q
    out = [0] * q
    # a payload is one plane that holds every point: the mask -1
    for u, p in [(x, -1)] if isinstance(x, int) else enumerate(x):
        for w, r in [(y, -1)] if isinstance(y, int) else enumerate(y):
            out[f(u, w) % q] |= p & r
    return out


def _block_min(table, coords, full, q):
    """Least count over one block and the points that reach it: returns
    (count, mask of those points)."""
    quadratic, groups = table
    fixed = quadratic
    counters = []  # bit b of every point's count, b = 0, 1, ...

    def count(value):
        nonlocal fixed
        if isinstance(value, int):
            fixed += value != 0
            return
        carry = full ^ value[0]  # the points where the slot is nonzero
        for b, plane in enumerate(counters):
            counters[b], carry = plane ^ carry, plane & carry
            if not carry:
                return
        if carry:
            counters.append(carry)

    for linear, quad, const in groups:
        for _, c, deriv in linear:
            value = c
            for j, d in deriv.items():
                value = _apply(lambda u, w: u + d * w, value, coords[j], q)
            count(value)
        if const is None:
            continue
        value = const
        for i, c, _ in linear:
            value = _apply(lambda u, w: u + c * w, value, coords[i], q)
        for (i, j), c in quad.items():
            term = _apply(operator.mul, coords[i], coords[j], q)
            value = _apply(lambda u, w: u + c * w, value, term, q)
        count(value)

    # the least count, one bit at a time from the top
    low = 0
    best = full
    for b in reversed(range(len(counters))):
        rest = best & ~counters[b]
        if rest:
            best = rest
        else:
            low |= 1 << b
    return fixed + low, best


def sliced_min_count(ring, terms, k, free, zero_sum, nonconstant=False):
    """Least monomial count of P(X + a) over a finite ring domain, and
    the rank of the least vector a that reaches it.

    The domain is every vector of Z_q^k whose coordinates off `free` are
    0, except that under zero_sum coordinate 0 (not in `free`) is minus
    the sum of the others.  Ranks are odometer ranks: the digits of the
    rank in base q are the free coordinates in order.  P is a payload
    term map of degree at most 2, and q is at most MAX_MODULUS.  Ties go
    to the lexicographically least vector: the least rank, except that
    under zero_sum the forced coordinate 0 is compared first.
    """
    q = ring.modulus
    table = slot_table(ring, terms, range(k), nonconstant)
    sliced = 0  # free coordinates that get planes: the lowest ones
    while sliced < len(free) and q ** (sliced + 1) <= PLANE_BITS:
        sliced += 1
    high = free[:len(free) - sliced]
    width = q ** sliced
    full = (1 << width) - 1
    planes = class_planes(q, sliced)
    best = None
    # blocks in rank order, each fixing the high coordinates
    for block in range(q ** len(high)):
        coords = [0] * k
        for pos, p in zip(free[len(high):], planes):
            coords[pos] = p
        rest = block
        for pos in reversed(high):
            rest, coords[pos] = divmod(rest, q)
        if zero_sum:
            for pos in free:
                coords[0] = _apply(operator.sub, coords[0], coords[pos], q)
        count, points = _block_min(table, coords, full, q)
        first = coords[0] if zero_sum else 0
        if not isinstance(first, int):
            # the forced coordinate leads the vector comparison
            first, points = next((v, points & p) for v, p in enumerate(first)
                                 if points & p)
        if best is None or (count, first) < best[:2]:
            rank = block * width + (points & -points).bit_length() - 1
            best = count, first, rank
    return best[0], best[2]
