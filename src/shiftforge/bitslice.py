"""Bit-sliced shift counting over finite rings, integer and rational boxes.

Every point of a block of the search domain owns one bit of a Python
int, at its rank within the block, so one operation on ints acts on
every point of the block at once.  The slots of slot_table, and from
them the monomial count of P(X + a), come out for the whole block; so
do the rows of a Max-3-Lin system, each a slot with no quadratic part,
and from them the unsatisfied row count:

- over Z_q with q = 3 or 5 (odd and at most MAX_MODULUS) a coordinate,
  and a slot, is q one-hot planes: plane v has the bits of the points
  where the value is v.  Adding or multiplying two such values costs
  q^2 AND/OR operations on whole planes.
- over an integer box a coordinate is its offset from the box's low end
  in binary, one plane per bit, and a slot is taken mod 2^W in
  two's-complement bit planes, where 2^W exceeds a bound on the slot's
  magnitude over the box, so the slot is 0 exactly where all W planes
  are.  Each slot is a weighted sum of coordinate bits and of ANDs of
  two of them, added column by column with full adders.  A box over Q
  holds integers, and each slot is scaled by the lcm of its
  denominators, which keeps its zeros.
- over any other Z_q a coordinate is its residue 0..q-1 in binary, as
  in the box 0..q-1, and a slot's coefficients are reduced into 0..q-1,
  so the slot is a sum of nonnegative terms, each below q.  Only
  "slot != 0 mod q" is tested, once per slot: for q = 2^s the adder
  stops at bit s, since only the low s bits matter, and the test is
  their OR; otherwise the bits are folded, bit b weighing 2^b mod q,
  until the bound stops shrinking, and the few multiples of q below the
  bound are tested for equality.

The "slot != 0" masks are summed into bit-sliced binary counter planes
by a ripple-carry adder, and the counts are read from those planes.
This is bitslicing (Biham, FSE 1997) and broadword computing (Knuth,
TAOCP 4A, 7.1.3).

A plane has at most PLANE_BITS bits: the lowest free coordinates get
planes, and the higher ones are fixed for one block and enter as
constants, so memory stays bounded whatever the size of the domain.

What depends only on the shape of a block is built once and cached: the
coordinate planes (class_planes one-hot, box_planes in binary, each in
O(log) big-int operations per plane) and, under zero_sum, the forced
coordinate and its in-domain mask (box_forced, in binary for every
arithmetic).  Under zero_sum, coordinate 0 and the free coordinates sum
to 0 (mod q over Z_q), so subtracting one t from all their linear
coefficients leaves a slot's value unchanged at every point of the
domain; _balanced takes t as each slot's commonest coefficient there,
which turns the HN wiring slot x0 + x1 + ... + 3*x3 + ... + x6 - 2*x1^2
into 2*x3 - 2*x1^2.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from math import lcm

from .rings import RATIONALS
from .sparsepoly import slot_table

# odd moduli up to this get one-hot planes (q^2 operations per term);
# larger ones and every power of two binary residues (a fold per slot,
# none for q = 2^s).  Measured on a 2-CPU VM with verify_max3lin
# (n = 3..7) and degree-2 searches of 10^4..10^6 points: one-hot wins or
# ties at q = 3 and 5, binary from q = 6 on (F7: 1.9 against 2.8 ms per
# verify and 19 against 28 ms per search), and at q = 2^s once the adder
# stops at bit s (Z4 n = 5: 5-6.5 against 16.5 ms per verify)
MAX_MODULUS = 5
# bits of one plane (128 KiB)
PLANE_BITS = 1 << 20


def _repeat(pattern, period, length):
    """pattern, whose bits lie below `period`, repeated every `period`
    bits and cut to `length` bits, by doubling: O(log(length / period))
    big-int operations."""
    while period < length:
        pattern |= pattern << period
        period <<= 1
    return pattern & ((1 << length) - 1)


# one entry is q * digits planes of at most PLANE_BITS bits: at most
# 2.3 MiB (q = 3, 12 digits), so the cache holds at most about 10 MB
@lru_cache(maxsize=4)
def class_planes(q, digits):
    """One-hot digit planes over the ranks 0..q**digits - 1: out[d][v]
    marks the ranks whose d-th digit, most significant first, is v.
    Built once per (q, digits), as tuples."""
    total = q ** digits
    return tuple(tuple(_repeat(((1 << s) - 1) << v * s, q * s, total)
                       for v in range(q))
                 for s in [q ** d for d in reversed(range(digits))])


# one entry is digits * (span - 1).bit_length() planes of at most
# PLANE_BITS bits: at most 2.9 MiB (a box of 10 values, 6 digits), so the
# cache holds at most about 12 MB
@lru_cache(maxsize=4)
def box_planes(lo, hi, digits):
    """The coordinates of _Box for `digits` coordinates over the box
    lo..hi, one per digit of the rank, most significant first: each is
    (lo, bits), where bits lists (2^b, plane of bit b of its offset from
    lo).  Built once per (lo, hi, digits), as tuples.

    Bit b of a digit of weight s is set on runs of 2^b * s ranks, one
    every 2^(b+1) * s ranks, within each period of span * s ranks."""
    span = hi - lo + 1
    total = span ** digits
    out = []
    for s in [span ** d for d in reversed(range(digits))]:
        bits = []
        for b in range((span - 1).bit_length()):
            run = s << b
            digit = _repeat(((1 << run) - 1) << run, 2 * run, span * s)
            bits.append((1 << b, _repeat(digit, span * s, total)))
        out.append((lo, tuple(bits)))
    return tuple(out)


def _below(value, bound, points):
    """The mask of the points where the unsigned bit planes `value` hold
    less than the int `bound`, one bit at a time from the top: below
    holds the points already known to be smaller, equal those that match
    bound on every bit read so far."""
    if bound <= 0:
        return 0
    if bound >> len(value):
        return points
    below, equal = 0, points
    for b in reversed(range(len(value))):
        if bound >> b & 1:
            below |= equal & ~value[b]
            equal &= value[b]
        else:
            equal &= ~value[b]
    return below


# one entry is the offset bits of coordinate 0 and its in-box mask,
# (span - 1).bit_length() + 1 planes of at most PLANE_BITS bits: at most
# 2.7 MiB (a box of 2^20 values, 1 digit), so the cache holds at most
# about 21 MB
@lru_cache(maxsize=8)
def box_forced(lo, hi, digits, const, modulus=None):
    """Coordinate 0 of a zero-sum block over the box lo..hi whose planed
    coordinates are those of box_planes(lo, hi, digits) and whose fixed
    free coordinates sum to -const: x0 = const minus the sum S of the
    planed ones, and the mask of the points where it lies in the domain,
    from the sign tests of x0 - lo >= 0 and hi - x0 >= 0.  In the box,
    x0 - lo is its offset from lo, so x0 is held as (lo, bits); with no
    planed coordinates it is an int, and the mask is 1 or 0.

    Over Z_q, (lo, hi) is (0, q - 1), const is reduced, and x0 is taken
    mod q: x0 = const + j*q - S for the one j in 0..digits that puts it
    in 0..q-1, so it is the disjoint union over j of the in-box parts of
    const + j*q - S, and every point is in the domain.  That j is digits
    less the number of bounds const + i*q, i < digits, that S does not
    exceed, so x0 is one bit-sliced sum."""
    full = (1 << (hi - lo + 1) ** digits) - 1
    box = _Box(lo, hi, full)
    # each planed coordinate is lo plus its offset bits
    const -= digits * lo
    terms = [(-k, p) for _, bits in box_planes(lo, hi, digits)
             for k, p in bits]
    if not terms:
        return const, full if lo <= const <= hi else 0
    if modulus is None:
        up = box.bits(const - lo, terms, True)
        down = box.bits(hi - const, [(-k, p) for k, p in terms], True)
        inside = full & ~(up[-1] | down[-1])
    else:
        planed = box.bits(0, [(-k, p) for k, p in terms])
        terms += [(-modulus, _below(planed, const + i * modulus + 1, full))
                  for i in range(digits)]
        up = box.bits(const + digits * modulus, terms)
        inside = full
    nbits = (hi - lo).bit_length()
    return (lo, tuple((1 << b, p) for b, p in enumerate(up[:nbits]))), inside


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
        self.lo, self.hi, self.modulus = 0, q - 1, q
        self.full = full

    def coordinates(self, digits):
        return class_planes(self.modulus, digits)

    def lift(self, value):
        """The one-hot planes of a coordinate given as box_forced gives
        it: an int, or (0, offset bits)."""
        if isinstance(value, int):
            return value
        return [reduce(operator.and_, (p if k & v else self.full ^ p
                                       for k, p in value[1]), self.full)
                for v in range(self.modulus)]

    def slot(self, coords, const, linear, quad):
        """A slot of _blocks at the coordinates coords."""
        q = self.modulus
        value = const
        for i, c in linear:
            value = _apply(lambda u, w: u + c * w, value, coords[i], q)
        for (i, j), c in quad:
            term = _apply(operator.mul, coords[i], coords[j], q)
            value = _apply(lambda u, w: u + c * w, value, term, q)
        return value

    def nonzero(self, value):
        return self.full ^ value[0]


class _Box:
    """Values over the integer box lo..hi as two's-complement bit planes,
    or, when modulus is set, over Z_q as residues in the box 0..q-1.

    A coordinate that varies over the block is a pair (lo, bits), where
    bits lists (2^b, plane of bit b) for its offset from lo.  A slot is a
    weighted sum of planes, const + sum of k * [p], whose planes are
    coordinate bits and ANDs of two of them; its bits come from adding
    each column of planes with full adders."""

    def __init__(self, lo, hi, full, modulus=None):
        self.lo = lo
        self.hi = hi
        self.full = full
        self.modulus = modulus
        # over Z_q with q = 2^s only the low s bits of a slot matter
        self.cap = None
        if modulus is not None and not modulus & modulus - 1:
            self.cap = modulus.bit_length() - 1

    def coordinates(self, digits):
        return box_planes(self.lo, self.hi, digits)

    def lift(self, value):
        return value

    def slot(self, coords, const, linear, quad):
        """A slot of _blocks at the coordinates coords: an int when it is
        the same at every point, else its bits.  Over Z_q both are only
        congruent to the slot mod q."""
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
        q = self.modulus
        if q is not None:
            const %= q
            terms = [(k % q, p) for k, p in terms if k % q]
        if not terms:
            return const
        return self.bits(const, terms)

    def bits(self, const, terms, signed=False):
        """The bits of const + sum of k * [p] over the (k, p) terms, mod
        2^W, where 2^W exceeds the magnitude of that sum at every point,
        with one more bit, the sign, when signed is set; W is at most s
        over Z_q with q = 2^s."""
        width = (abs(const) + sum(abs(k) for k, _ in terms)).bit_length()
        width += signed
        if self.cap is not None:
            width = min(width, self.cap)
        mask = (1 << width) - 1
        columns = [[] for _ in range(width)]
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
            if b + 1 == width:
                # the carries of the last column fall outside mod 2^W
                out.append(reduce(operator.xor, column, 0))
                break
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
        q = self.modulus
        if q is None or self.cap is not None:
            return reduce(operator.or_, value, 0)
        # the value is congruent to the sum of (2^b mod q) * [bit b]
        bound = (1 << len(value)) - 1
        while True:
            terms = [(pow(2, b, q), p) for b, p in enumerate(value) if p]
            folded = sum(k for k, _ in terms)
            if folded >= bound:
                break
            value, bound = self.bits(0, terms), folded
        zero = 0
        for j in range(0, bound + 1, q):
            zero |= reduce(operator.and_, (p if j >> b & 1 else self.full ^ p
                                           for b, p in enumerate(value)),
                           self.full)
        return self.full & ~zero


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


def _integral(slot):
    """A slot over Q times the lcm of its denominators: integer
    coefficients, and zero exactly where the slot is."""
    const, linear, quad = slot
    m = reduce(lcm, (c.denominator for _, c in (*linear, *quad)),
               const.denominator)
    return (int(const * m), [(i, int(c * m)) for i, c in linear],
            [(ij, int(c * m)) for ij, c in quad])


def _blocks(ring, values, fixed, slots, k, free, zero_sum):
    """The domain in blocks of at most PLANE_BITS ranks, in rank order.

    The domain is every vector whose coordinates off `free` are 0,
    except that under zero_sum coordinate 0 (not in `free`) is minus the
    sum of the others and must lie in `values`; ranks are odometer
    ranks, whose base-len(values) digits index the values of the free
    coordinates in order.  `values` is every residue of Z_q, or a box
    lo..hi of integers (over Q, of integral fractions).  Yields (offset,
    lead, inside, fixed, counters) per block: its first rank, coordinate
    0 as box_forced gives it under zero_sum (else the payload 0), the
    mask of its points that lie in the domain, and the counts of _count
    over the slots, which are exact on those points.
    """
    nv = len(values)
    sliced = 0  # free coordinates that get planes: the lowest ones
    while sliced < len(free) and nv ** (sliced + 1) <= PLANE_BITS:
        sliced += 1
    high = free[:len(free) - sliced]
    width = nv ** sliced
    full = (1 << width) - 1
    q = ring.modulus
    if q is None:
        arith = _Box(int(values[0]), int(values[-1]), full)
    elif q <= MAX_MODULUS and q & q - 1:
        arith = _Residues(q, full)
    else:
        arith = _Box(0, q - 1, full, q)
    planes = arith.coordinates(sliced)
    if zero_sum:
        slots = _balanced(ring, slots, [0] + free)
    if ring.kind == RATIONALS:
        slots = [_integral(slot) for slot in slots]
    lead = 0
    for block in range(nv ** len(high)):
        coords = [0] * k
        for pos, p in zip(free[len(high):], planes):
            coords[pos] = p
        rest = block
        for pos in reversed(high):
            rest, digit = divmod(rest, nv)
            coords[pos] = arith.lo + digit
        inside = full
        if zero_sum:
            const = -sum(coords[pos] for pos in high)
            if q is not None:
                const %= q
            lead, inside = box_forced(arith.lo, arith.hi, sliced, const, q)
            coords[0] = arith.lift(lead)
        if inside:
            yield ((block * width, lead, inside)
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


def sliced_min_slots(ring, values, fixed, slots, k, free, zero_sum):
    """The least of fixed plus the number of nonzero slots over the
    domain of _blocks, the rank of the lexicographically least vector
    that reaches it, and the number of points in the domain; None when
    the domain is empty.  Slots are as in term_slots.

    The least vector is the least rank, except that under zero_sum the
    forced coordinate 0 is compared first."""
    best = None
    total = 0
    for offset, lead, inside, fixed, counters in _blocks(
            ring, values, fixed, slots, k, free, zero_sum):
        total += inside.bit_count()
        low, points = _least(counters, inside)
        first = lead
        if not isinstance(lead, int):
            # the least coordinate 0 among them, from its offset bits
            first, points = _least([p for _, p in lead[1]], points)
            first += lead[0]
        if best is None or (fixed + low, first) < best[:2]:
            rank = offset + (points & -points).bit_length() - 1
            best = fixed + low, first, rank
    return None if best is None else (best[0], best[2], total)


def sliced_ranks_below(ring, values, terms, k, free, zero_sum, threshold):
    """The number of points of the domain of _blocks and the ranks,
    ascending, of those where P(X + a) has fewer than `threshold`
    monomials; P is a payload term map of degree at most 2 in its first
    k positions."""
    points = 0
    ranks = []
    for offset, _, inside, fixed, counters in _blocks(
            ring, values, *term_slots(ring, terms, k), k, free, zero_sum):
        points += inside.bit_count()
        below = _below(counters, threshold - fixed, inside)
        while below:
            low = below & -below
            ranks.append(offset + low.bit_length() - 1)
            below ^= low
    return points, ranks
