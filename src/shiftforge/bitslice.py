"""Bit-sliced shift counting over small finite rings and integer boxes.

Every point of a block of the search domain owns one bit of a Python
int, at its rank within the block, so one operation on ints acts on
every point of the block at once.  The slots of slot_table, and from
them the monomial count of P(X + a), come out for the whole block; so
do the rows of a Max-3-Lin system, each a slot with no quadratic part,
and from them the unsatisfied row count:

- over Z_q a coordinate, and a slot, is q one-hot planes: plane v has
  the bits of the points where the value is v.  Adding or multiplying
  two such values costs q^2 AND/OR operations on whole planes.
- over an integer box a coordinate is its offset from the box's low end
  in binary, one plane per bit, and a slot is taken mod 2^W in
  two's-complement bit planes, where 2^W exceeds a bound on the slot's
  magnitude over the box, so the slot is 0 exactly where all W planes
  are.  Each slot is a weighted sum of coordinate bits and of ANDs of
  two of them, added column by column with full adders.

The "slot != 0" masks are summed into bit-sliced binary counter planes
by a ripple-carry adder, and the counts are read from those planes.
This is bitslicing (Biham, FSE 1997) and broadword computing (Knuth,
TAOCP 4A, 7.1.3).

A plane has at most PLANE_BITS bits: the lowest free coordinates get
planes, and the higher ones are fixed for one block and enter as
constants, so memory stays bounded whatever the size of the domain.

What depends only on the shape of a block is built once and cached: the
coordinate planes (class_planes over Z_q, box_planes over a box) and,
over a box under zero_sum, the forced coordinate and its in-box mask
(box_forced).  Under zero_sum, coordinate 0 and the free coordinates sum
to 0 (mod q over Z_q), so subtracting one t from all their linear
coefficients leaves a slot's value unchanged at every point of the
domain; _balanced takes t as each slot's commonest coefficient there,
which turns the HN wiring slot x0 + x1 + ... + 3*x3 + ... + x6 - 2*x1^2
into 2*x3 - 2*x1^2.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce

from .sparsepoly import slot_table

# the q^2 cost per term grows quickly with q, and moduli above this go
# to shift_counts
MAX_MODULUS = 7
# bits of one plane (128 KiB)
PLANE_BITS = 1 << 20


def digit_planes(q, digits, runs):
    """Planes over the ranks 0..q**digits - 1 that test their base-q
    digits, most significant digit first: out[d][i] marks the ranks
    whose d-th digit lies in one of the [lo, hi) runs of runs[i].

    The plane of a run at digit weight s is a repunit, with one bit at
    every multiple of q*s, times the ones from lo*s to hi*s; that product
    is written as the difference of two shifts."""
    out = []
    rep = 1  # one bit at every multiple of q*s below q**digits
    for d in reversed(range(digits)):
        s = q ** d
        planes = []
        for r in runs:
            (lo, hi), *rest = r
            plane = (rep << hi * s) - (rep << lo * s)
            for lo, hi in rest:
                plane |= (rep << hi * s) - (rep << lo * s)
            planes.append(plane)
        out.append(planes)
        rep = sum(rep << u * s for u in range(q))
    return out


# one entry is at most q * digits planes of PLANE_BITS bits: 5 MiB for
# q = 2, 4 or 7, so the cache holds at most about 21 MB
@lru_cache(maxsize=4)
def class_planes(q, digits):
    """One-hot digit planes: out[d][v] marks the ranks whose d-th digit
    is v.  Built once per (q, digits), as tuples."""
    return tuple(map(tuple, digit_planes(q, digits,
                                         [[(v, v + 1)] for v in range(q)])))


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


class _Residues:
    """Values over Z_q as q one-hot planes; a coordinate is its classes."""

    def __init__(self, q, full):
        self.q = q
        self.full = full

    def coordinates(self, digits):
        return class_planes(self.q, digits)

    def forced(self, coords, free):
        """Coordinate 0 as minus the sum of the free ones, and the mask of
        the points in the domain: all of them."""
        value = 0
        for pos in free:
            value = _apply(operator.sub, value, coords[pos], self.q)
        return value, self.full

    def slot(self, coords, const, linear, quad):
        """A slot of _blocks at the coordinates coords."""
        q = self.q
        value = const
        for i, c in linear:
            value = _apply(lambda u, w: u + c * w, value, coords[i], q)
        for (i, j), c in quad:
            term = _apply(operator.mul, coords[i], coords[j], q)
            value = _apply(lambda u, w: u + c * w, value, term, q)
        return value

    def nonzero(self, value):
        return self.full ^ value[0]


# one entry is digits * (span - 1).bit_length() planes of at most
# PLANE_BITS bits: at most 2.9 MiB (a box of 10 values, 6 digits), so the
# cache holds at most about 12 MB
@lru_cache(maxsize=4)
def box_planes(lo, hi, digits):
    """The coordinates of _Box for `digits` coordinates over the box
    lo..hi, one per digit of the rank, most significant first: each is
    (lo, bits), where bits lists (2^b, plane of bit b of its offset from
    lo).  Built once per (lo, hi, digits), as tuples."""
    # bit b of a digit is set on runs of 2^b digits from 2^b on
    span = hi - lo + 1
    runs = [[(r, min(r + (1 << b), span)) for r in range(1 << b, span, 2 << b)]
            for b in range((span - 1).bit_length())]
    return tuple((lo, tuple((1 << b, p) for b, p in enumerate(bits)))
                 for bits in digit_planes(span, digits, runs))


# one entry is the offset bits of coordinate 0 and its in-box mask,
# (span - 1).bit_length() + 1 planes of at most PLANE_BITS bits: at most
# 2.7 MiB (a box of 2^20 values, 1 digit), so the cache holds at most
# about 21 MB
@lru_cache(maxsize=8)
def box_forced(lo, hi, digits, const):
    """Coordinate 0 of a zero-sum block over the box lo..hi whose planed
    coordinates are those of box_planes(lo, hi, digits) and whose fixed
    free coordinates sum to -const: x0 = const minus the sum of the
    planed ones, and the mask of the points where it lies in the box,
    from the sign tests of x0 - lo >= 0 and hi - x0 >= 0.  In the box,
    x0 - lo is its offset from lo, so x0 is held as (lo, bits); with no
    planed coordinates it is an int, and the mask is 1 or 0."""
    box = _Box(lo, hi, (1 << (hi - lo + 1) ** digits) - 1)
    # each free coordinate is lo plus its offset bits
    const -= digits * lo
    terms = [(-k, p) for _, bits in box_planes(lo, hi, digits)
             for k, p in bits]
    if not terms:
        return const, box.full if lo <= const <= hi else 0
    up = box.bits(const - lo, terms, True)
    down = box.bits(hi - const, [(-k, p) for k, p in terms], True)
    inside = box.full & ~(up[-1] | down[-1])
    nbits = (hi - lo).bit_length()
    return (lo, tuple((1 << b, p) for b, p in enumerate(up[:nbits]))), inside


class _Box:
    """Values over the integer box lo..hi as two's-complement bit planes.

    A coordinate that varies over the block is a pair (lo, bits), where
    bits lists (2^b, plane of bit b) for its offset from lo.  A slot is a
    weighted sum of planes, const + sum of k * [p], whose planes are
    coordinate bits and ANDs of two of them; its bits come from adding
    each column of planes with full adders."""

    def __init__(self, lo, hi, full):
        self.lo = lo
        self.hi = hi
        self.full = full

    def coordinates(self, digits):
        return box_planes(self.lo, self.hi, digits)

    def forced(self, coords, free):
        """Coordinate 0 as box_forced gives it for the block."""
        const = digits = 0
        for pos in free:
            x = coords[pos]
            if isinstance(x, int):
                const -= x
            else:
                digits += 1
        return box_forced(self.lo, self.hi, digits, const)

    def slot(self, coords, const, linear, quad):
        """A slot of _blocks at the coordinates coords: an int when it is
        the same at every point, else its bits."""
        terms = []
        linear = [(c, coords[i]) for i, c in linear]
        for (i, j), c in quad:
            x, y = coords[i], coords[j]
            if isinstance(x, int):
                x, y = y, x
            if isinstance(y, int):
                linear.append((c * y, x))
                continue
            if i == j:
                # (o + sum of k * [p])^2, where [p]^2 = [p] and each pair
                # of distinct bits comes twice
                o, e = x
                const += c * o * o
                terms += [(c * k * (2 * o + k), p) for k, p in e]
                terms += [(2 * c * k * m, p & r)
                          for n, (k, p) in enumerate(e) for m, r in e[n + 1:]]
                continue
            (o1, e1), (o2, e2) = x, y
            const += c * o1 * o2
            terms += [(c * o2 * k, p) for k, p in e1]
            terms += [(c * o1 * k, p) for k, p in e2]
            terms += [(c * k * m, p & r) for k, p in e1 for m, r in e2]
        for c, x in linear:
            if isinstance(x, int):
                const += c * x
            else:
                const += c * x[0]
                terms += [(c * k, p) for k, p in x[1]]
        if not terms:
            return const
        return self.bits(const, terms)

    def bits(self, const, terms, signed=False):
        """The bits of const + sum of k * [p] over the (k, p) terms, mod
        2^W, where 2^W exceeds the magnitude of that sum at every point,
        with one more bit, the sign, when signed is set."""
        width = (abs(const) + sum(abs(k) for k, _ in terms)).bit_length()
        width += signed
        mask = (1 << width) - 1
        columns = [[] for _ in range(width + 1)]
        for k, p in terms:
            if k < 0:
                # k * [p] = -k * [not p] + k
                k, p = -k, self.full ^ p
                const -= k
            k &= mask
            while k:
                low = k & -k
                columns[low.bit_length() - 1].append(p)
                k ^= low
        const &= mask
        while const:
            low = const & -const
            columns[low.bit_length() - 1].append(self.full)
            const ^= low
        out = []
        for b in range(width):
            column = columns[b]
            carries = columns[b + 1]
            while len(column) > 1:
                x, y = column.pop(), column.pop()
                z = column.pop() if column else 0
                s = x ^ y
                column.append(s ^ z)
                carries.append(x & y | s & z)
            out.append(column[0] if column else 0)
        return out

    def nonzero(self, value):
        return reduce(operator.or_, value, 0)


def _count(fixed, slots, coords, arith):
    """The number of nonzero slots at every point of a block, plus fixed:
    returns (fixed, counters), where the count is fixed plus the binary
    number whose bit b is in counters[b]."""
    counters = []
    for slot in slots:
        value = arith.slot(coords, *slot)
        if isinstance(value, int):
            fixed += value != 0
            continue
        carry = arith.nonzero(value)
        for b, plane in enumerate(counters):
            counters[b], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            counters.append(carry)
    return fixed, counters


def term_slots(ring, terms, k, nonconstant=False):
    """The slots of slot_table for the payload term map `terms`, shifted
    in its first k positions, as _blocks takes them: returns (fixed,
    slots), where fixed counts the terms of degree 2 in those positions,
    which never move, and each slot is (const, linear, quad), the value
    const + sum of c * a_i over the (i, c) of linear + sum of
    c * a_i * a_j over the ((i, j), c) of quad."""
    fixed, groups = slot_table(ring, terms, range(k), nonconstant)
    slots = []
    for linear, quad, const in groups:
        slots += [(c, list(deriv.items()), ()) for _, c, deriv in linear]
        if const is not None:
            slots.append((const, [(i, c) for i, c, _ in linear],
                          list(quad.items())))
    return fixed, slots


def _balanced(ring, slots, domain):
    """The slots with t subtracted from the linear coefficient of every
    position of `domain`, where t is a slot's commonest coefficient there
    (an absent one is 0), and ties go to 0.

    Under zero_sum the coordinates of domain, coordinate 0 and the free
    ones, sum to 0 (mod q over Z_q), so each slot keeps its value at
    every point of the domain, and it never gets more nonzero
    coefficients.  The positions of a slot's linear part are distinct."""
    out = []
    for const, linear, quad in slots:
        # t can beat 0 only where most of domain has nonzero coefficients
        if 2 * len(linear) > len(domain):
            coef = dict(linear)
            column = [coef.get(i, 0) for i in domain]
            t = max(column, key=column.count)
            if column.count(t) > column.count(0):
                for i, c in zip(domain, column):
                    coef[i] = ring.canon(c - t)
                linear = [(i, c) for i, c in sorted(coef.items()) if c]
        out.append((const, linear, quad))
    return out


def _blocks(ring, values, fixed, slots, k, free, zero_sum):
    """The domain in blocks of at most PLANE_BITS ranks, in rank order.

    The domain is every vector whose coordinates off `free` are 0,
    except that under zero_sum coordinate 0 (not in `free`) is minus the
    sum of the others and must lie in `values`; ranks are odometer
    ranks, whose base-len(values) digits index the values of the free
    coordinates in order; over Z, `values` is a box lo..hi.  Yields
    (offset, coords, inside, fixed, counters) per block: its first rank,
    the coordinates (a payload, or planes as _Residues or _Box hold
    them), the mask of its points that lie in the domain, and the counts
    of _count over the slots, which are exact on those points.
    """
    nv = len(values)
    sliced = 0  # free coordinates that get planes: the lowest ones
    while sliced < len(free) and nv ** (sliced + 1) <= PLANE_BITS:
        sliced += 1
    high = free[:len(free) - sliced]
    width = nv ** sliced
    full = (1 << width) - 1
    arith = (_Residues(ring.modulus, full) if ring.is_finite
             else _Box(values[0], values[-1], full))
    planes = arith.coordinates(sliced)
    if zero_sum:
        slots = _balanced(ring, slots, [0] + free)
    for block in range(nv ** len(high)):
        coords = [0] * k
        for pos, p in zip(free[len(high):], planes):
            coords[pos] = p
        rest = block
        for pos in reversed(high):
            rest, digit = divmod(rest, nv)
            coords[pos] = values[digit]
        inside = full
        if zero_sum:
            coords[0], inside = arith.forced(coords, free)
        if inside:
            yield ((block * width, coords, inside)
                   + _count(fixed, slots, coords, arith))


def _least(counters, points):
    """The least count over the points of a block, less its fixed part,
    and the mask of the points that reach it: one bit at a time from the
    top."""
    low = 0
    for b in reversed(range(len(counters))):
        rest = points & ~counters[b]
        if rest:
            points = rest
        else:
            low |= 1 << b
    return low, points


def sliced_min_count(ring, terms, k, free, zero_sum, nonconstant=False):
    """Least monomial count of P(X + a) over the domain of _blocks in
    Z_q, q at most MAX_MODULUS, and the rank of the least vector a that
    reaches it.

    P is a payload term map of degree at most 2 in its first k
    positions.  Ties go to the lexicographically least vector: the least
    rank, except that under zero_sum the forced coordinate 0 is compared
    first.
    """
    best = None
    for offset, coords, inside, fixed, counters in _blocks(
            ring, range(ring.modulus),
            *term_slots(ring, terms, k, nonconstant), k, free, zero_sum):
        low, points = _least(counters, inside)
        first = coords[0] if zero_sum else 0
        if not isinstance(first, int):
            # the forced coordinate leads the vector comparison
            first, points = next((v, points & p) for v, p in enumerate(first)
                                 if points & p)
        if best is None or (fixed + low, first) < best[:2]:
            rank = offset + (points & -points).bit_length() - 1
            best = fixed + low, first, rank
    return best[0], best[2]


def sliced_min_slots(ring, values, slots, k, free, zero_sum):
    """Least number of nonzero slots over the domain of _blocks, over Z_q
    or an integer box, and the rank of one point that reaches it, or
    None when the domain is empty; slots are as in term_slots."""
    best = None
    for offset, _, inside, fixed, counters in _blocks(
            ring, values, 0, slots, k, free, zero_sum):
        low, points = _least(counters, inside)
        if best is None or fixed + low < best[0]:
            best = fixed + low, offset + (points & -points).bit_length() - 1
    return best


def sliced_ranks_below(ring, values, terms, k, free, zero_sum, threshold):
    """The number of points of the domain of _blocks, over Z_q or an
    integer box, and the ranks, ascending, of those where P(X + a) has
    fewer than `threshold` monomials; P is as in sliced_min_count."""
    points = 0
    ranks = []
    for offset, _, inside, fixed, counters in _blocks(
            ring, values, *term_slots(ring, terms, k), k, free, zero_sum):
        points += inside.bit_count()
        # compare each count with the threshold, one bit at a time from
        # the top: below holds the points already known to be smaller,
        # equal those that match the threshold on every bit read so far
        rest = threshold - fixed
        if rest <= 0:
            continue
        if rest >> len(counters):
            below = inside
        else:
            below, equal = 0, inside
            for b in reversed(range(len(counters))):
                if rest >> b & 1:
                    below |= equal & ~counters[b]
                    equal &= counters[b]
                else:
                    equal &= ~counters[b]
        while below:
            low = below & -below
            ranks.append(offset + low.bit_length() - 1)
            below ^= low
    return points, ranks
