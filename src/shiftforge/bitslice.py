"""Bit-sliced shift counting over finite rings, boxes and rational grids.

Every point of a block of the search domain owns one bit of a Python
int, at its rank within the block, so one operation on ints acts on
every point of the block at once.  The slots of slot_table, and from
them the monomial count of P(X + a), come out for the whole block; so
do the rows of a Max-3-Lin system and the equations of a system, each a
slot, and from them the count of unsatisfied rows or equations.  A slot
is const plus a sum of c * a^key, for any degree:

- over Z_2, Z_3 and Z_5 a coordinate, and a slot, is q - 1 value
  planes: plane v - 1 has the bits of the points where the value is v,
  and 0 is where no plane is set.  An add is one XOR over GF(2), six
  operations over GF(3) and about 2q^2 over GF(5), a product one AND,
  six operations or 2(q - 1)^2, a scaling or a power a relabelling of
  the planes, and "slot != 0" is the OR of the planes.
- over an integer box a coordinate is its offset from the box's low end
  in binary, one plane per bit: the form o + sum of k * [p].  A product
  of forms multiplies out over those bits, with [p] * [p] = [p], into a
  weighted sum of ANDs of coordinate bits, and a slot, taken mod 2^W in
  two's-complement bit planes, where 2^W exceeds a bound on the slot's
  magnitude over the box, is 0 exactly where all W planes are; _add
  sums its planes column by column with full adders.  A box over Q
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

The binary layout takes a slot set while its width bound, the planes
its products may need times the bits of their values, is at most
MAX_WIDTH (_fits), over a range of integers, never listed.  A wider
slot set, and a rational grid's list, get no planes: each block is one
point, every coordinate fixed, and the same evaluation runs on exact
numbers.

In the binary layout a slot that reads few values of the planed
coordinates is a table instead (_Box._tabled): where the planed
coordinates it reads, its scope, take at most TABLE_ENTRIES values
together, and it reads no other varying coordinate (the forced
coordinate 0 under zero_sum), its exact values over them are Python
ints, reduced mod q over Z_q, built by broadcasting the value list of
each term.  The table is lifted to the mask of the points where the
slot is nonzero, full & ~OR over its zero entries of the AND of the
planes where each coordinate of the scope takes its value there, read
from class_planes(n, digits), whose digits are ordered as those of
box_planes.  The masks go to the same counter; the adder keeps every
other slot.

_add is the one adder of weighted planes; _below reads a sign from it.
Only the "slot != 0" masks go to a ripple-carry counter, whose binary
planes, about log2 of the slot count, hold the counts: one _add over
every mask would hold one plane per slot.  This is bitslicing (Biham,
FSE 1997) and broadword computing (Knuth, TAOCP 4A, 7.1.3).

A plane has at most PLANE_BITS bits: the lowest free coordinates get
planes, and the higher ones are fixed for one block and enter as
constants, so memory stays bounded whatever the size of the domain.

What depends only on the shape of a block is built once and cached: the
coordinate planes (class_planes as value planes, box_planes in binary,
each in O(log) big-int operations per plane) and, under zero_sum, the
sum S of the planed coordinates (box_sum), from which box_forced
derives the forced coordinate and its in-domain mask for each sum of
the fixed ones, keeping the last two.  Under zero_sum, coordinate 0 and
the free coordinates sum to 0 (mod q over Z_q), so subtracting one t
from all their linear coefficients leaves a slot's value unchanged at
every point of the domain; _balanced takes t as each slot's commonest
coefficient there, which turns the HN wiring slot
x0 + x1 + ... + 3*x3 + ... + x6 - 2*x1^2 into 2*x3 - 2*x1^2.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache, reduce
from math import comb, lcm

from .errors import CapExceededError
from .rings import POWER_BITS, RATIONALS, decimal_text
from .sparsepoly import pairs

# q = 2 and the odd moduli up to this get value planes, which fit any
# slot set; the others binary residues, which fit while the width bound
# allows (_fits): an F5 search of a degree-6 polynomial in 7 variables
# takes 0.04 s in value planes, 41 s in binary one-point blocks.  Medians
# on a 2-CPU VM, value planes against what they replaced: 0.25 against
# 0.35 ms per verify_max3lin for binary F2 (n = 7), 0.36 against 0.51 and
# 98 against 96 ms for q planes, one per value, over F3 and F5 (n = 5),
# 0.58 against 0.75 s per F5 search of degree 8 in 8 variables.  Binary
# wins at F7 (n = 4: 50 against 84 ms per verify) and at q = 2^s once
# the adder stops at bit s (Z4 n = 5: 5-6.5 against 16.5 ms per verify)
MAX_MODULUS = 5
# bits of one plane (128 KiB)
PLANE_BITS = 1 << 20
# the most entries of a slot's table (_Box._tabled): n^s for the s planed
# coordinates it reads, over n values.  Per slot of degree <= 2 with
# coefficients in [-3, 3], table against adder, best of 5 on a 2-CPU VM:
# in the smallest block, n^s points, 7.8 against 12.3 us (n = 5, s = 1),
# 13.3 against 26.9 (5, 2), 24 against 27 (7, 2), 28.4 against 28.2 at
# 27 entries (3, 3), but 54 against 50 at 125 (5, 3) and 61 against 40 at
# 81 (3, 4).  Larger blocks favour tables: over 15,625 points 14 against
# 36 us (5, 2) and 45 against 64 (5, 3).  27 is where the table first
# ties; 49 would add only s <= 2 (gains of 12-77%), at 15.5 MiB of digit
# planes per class_planes entry (n = 32) against 9.4 (n = 16)
TABLE_ENTRIES = 27
# the largest width bound (_fits) of a slot set that gets binary planes;
# a wider one gets none, and _blocks counts it one point per block.  The
# planes' cost grows with the bound, the one-point blocks' with the
# points.  Measured on a 2-CPU VM: over the 390,625 points of the solve
# of x1^e*x2 + x3 + ... + x8 - 1 over [-2, 2]^8, planes take 0.61 s at a
# bound of 448,448 against 5.1 s one point at a time, and 8.5 s against
# 17 s at 4.5e6; over the 5 points of x1^e - 1, one-point blocks take at
# most 3 ms up to e = 320,000, planes 22 ms at a bound of 102,416 and
# 77 s at 1e7.  2^15 keeps planes within milliseconds where one-point
# blocks are cheap
MAX_WIDTH = 1 << 15


def _repeat(pattern, period, length):
    """pattern, whose bits lie below `period`, repeated every `period`
    bits and cut to `length` bits, by doubling: O(log(length / period))
    big-int operations."""
    while period < length:
        pattern |= pattern << period
        period <<= 1
    return pattern & ((1 << length) - 1)


# one entry is (q - 1) * digits planes of at most PLANE_BITS bits: at
# most 2.5 MiB (q = 2, 20 digits) as the value planes of _Field, at most
# 9.4 MiB (q = 16, 5 digits) as the digit planes of a table, whose q is
# at most TABLE_ENTRIES, so the cache holds at most about 40 MB
@lru_cache(maxsize=4)
def class_planes(q, digits):
    """Value planes of the digits of the ranks 0..q**digits - 1:
    out[d][v - 1] marks the ranks whose d-th digit, most significant
    first, is v, for v = 1..q-1.  Built once per (q, digits), as tuples."""
    total = q ** digits
    return tuple(tuple(_repeat(((1 << s) - 1) << v * s, q * s, total)
                       for v in range(1, q))
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


def _add(full, const, terms, width=None):
    """The bits of const + sum of k * [p] over the (k, p) terms, mod
    2^width, least significant first, for planes p within the mask
    full: the one adder of this module.  Each column of planes is added
    with full adders, whose carries go to the next column.  The default
    width is the bit length of |const| + sum of |k|, so the sum is 0
    exactly where all its bits are; one bit more holds its sign."""
    if width is None:
        width = (abs(const) + sum(abs(k) for k, _ in terms)).bit_length()
    mask = (1 << width) - 1
    columns = [[] for _ in range(width)]
    for k, p in terms:
        if k < 0:
            # k * [p] = -k * [not p] + k
            k, p = -k, full ^ p
            const -= k
        k &= mask
        while k:
            low = k & -k
            columns[low.bit_length() - 1].append(p)
            k ^= low
    const &= mask
    while const:
        low = const & -const
        columns[low.bit_length() - 1].append(full)
        const ^= low
    out = []
    for b in range(width):
        column = columns[b]
        if b + 1 == width:
            # the carries of the last column fall outside mod 2^width
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


def _below(value, bound, points):
    """The mask of the points where the unsigned bit planes `value` hold
    less than the int `bound`: the sign plane of value - bound, summed
    by _add at a width that holds its sign.  Off `points` the sum is the
    value, which is not negative."""
    width = (abs(bound) + (1 << len(value))).bit_length() + 1
    return _add(points, -bound, [(1 << b, p) for b, p in enumerate(value)],
                width)[-1]


# one entry is the bits of the sum of the planed offsets, at most
# (digits * (span - 1)).bit_length() planes of at most PLANE_BITS bits:
# at most 2.7 MiB (a box of 2^20 values, 1 digit), so the cache holds at
# most about 11 MB
@lru_cache(maxsize=4)
def box_sum(lo, hi, digits):
    """The sum S of the offsets from lo of the coordinates of
    box_planes(lo, hi, digits), as unsigned bit planes, least significant
    first.  Built once per (lo, hi, digits), as a tuple."""
    full = (1 << (hi - lo + 1) ** digits) - 1
    return tuple(_add(full, 0, [(k, p) for _, bits in box_planes(lo, hi, digits)
                                for k, p in bits]))


# one entry is (hi - lo).bit_length() planes and a mask of at most
# PLANE_BITS bits: at most 2.6 MiB (a box of 2^20 values, 1 digit), so
# the cache holds at most about 5.5 MB; a miss costs only the derivation
# from box_sum, so a loop over more sums than entries loses nothing
@lru_cache(maxsize=2)
def box_forced(lo, hi, digits, const, modulus=None):
    """Coordinate 0 of a zero-sum block over the box lo..hi whose planed
    coordinates are those of box_planes(lo, hi, digits) and whose fixed
    free coordinates sum to -const, and the mask of the points where it
    lies in the domain.  With c = const - digits * lo and S from
    box_sum, x0 = c - S, which lies in the box where c - hi <= S <=
    c - lo: two _below masks.

    Over Z_q, (lo, hi) is (0, q - 1), const is reduced, and x0 is taken
    mod q: x0 = c + j*q - S for the one j in 0..digits that puts it in
    0..q-1, and every point is in the domain.  That j is digits less the
    number of bounds c + i*q, i < digits, that S does not exceed, each a
    _below mask.

    Either way x0 - lo, its offset from lo, is one _add over the planes
    of S and those masks, cut to the bits of hi - lo, and x0 is held as
    (lo, bits), whose bits are exact on the mask; with no planed
    coordinate bits it is an int, and the mask is full or 0."""
    full = (1 << (hi - lo + 1) ** digits) - 1
    const -= digits * lo
    if not digits or lo == hi:
        return const, full if lo <= const <= hi else 0
    planed = box_sum(lo, hi, digits)
    terms = [(-1 << b, p) for b, p in enumerate(planed)]
    inside = full
    if modulus is None:
        inside = (_below(planed, const - lo + 1, full)
                  & ~_below(planed, const - hi, full))
    else:
        terms += [(-modulus, _below(planed, const + i * modulus + 1, full))
                  for i in range(digits)]
        const += digits * modulus
    bits = _add(full, const - lo, terms, (hi - lo).bit_length())
    return (lo, tuple((1 << b, p) for b, p in enumerate(bits))), inside


class _Field:
    """Values over Z_q, q in (2, 3, 5), as q - 1 value planes; a
    coordinate is its classes.  A scaling or a power moves the planes,
    and adding a payload rotates them through the zero plane, the
    complement of their OR.  Planes add and multiply in closed forms over
    GF(2) and GF(3), and by tables over GF(5) (Boothby and Bradshaw,
    2009)."""

    # scaling by c moves the plane of u to c * u: plane v - 1 of the
    # product is plane v / c - 1 of the value
    SCALE = {(q, c): operator.itemgetter(*[v * pow(c, -1, q) % q - 1
                                           for v in range(1, q)])
             for q in range(3, MAX_MODULUS + 1, 2) for c in range(2, q)}

    def __init__(self, q, full):
        self.lo, self.hi, self.modulus = 0, q - 1, q
        self.full = full

    def coordinates(self, digits):
        return class_planes(self.modulus, digits)

    def lift(self, value):
        """The value planes of a coordinate given as box_forced gives it:
        an int, or (0, offset bits)."""
        if isinstance(value, int):
            return value
        return [reduce(operator.and_, (p if k & v else self.full ^ p
                                       for k, p in value[1]), self.full)
                for v in range(1, self.modulus)]

    def values(self, coords, slots):
        """The value of every slot at the coordinates coords, in order:
        a payload where it is the same at every point, else its planes.
        The value of each a^key is built once per block, one _factor per
        factor."""
        products = {(pos, 1): x for pos, x in enumerate(coords)}
        for const, terms in slots:
            value = const
            for c, key in terms:
                x = products.get(key)
                if x is None:
                    x = 1
                    for p, e in pairs(key):
                        x = self._factor(x, coords[p], e)
                    products[key] = x
                value = self._term(value, c, x)
            yield value

    # x * y^e and value + c * x
    def _factor(self, x, y, e):
        q = self.modulus
        if isinstance(y, int):
            y = pow(y, e, q)
        elif (e - 1) % (q - 1):
            # the plane of u moves to u^e, never 0, which depends only on
            # e mod q - 1
            y = [reduce(operator.or_, [p for u, p in enumerate(y, 1)
                                       if pow(u, e, q) == v], 0)
                 for v in range(1, q)]
        return self._times(x, y)

    def _term(self, value, c, x):
        return self._plus(value, x if c == 1 else self._times(c, x))

    def _times(self, x, y):
        q = self.modulus
        if isinstance(x, int):
            x, y = y, x
        if isinstance(x, int):
            return x * y % q
        if isinstance(y, int):
            c = y % q
            if c < 2:
                return x if c else 0
            return self.SCALE[q, c](x)
        if q == 2:
            return [x[0] & y[0]]
        if q == 3:
            (a1, a2), (b1, b2) = x, y
            return [a1 & b1 | a2 & b2, a1 & b2 | a2 & b1]
        # plane v - 1 ORs x[u - 1] & y[v / u - 1] over the nonzero u
        return [reduce(operator.or_, [x[u - 1] & y[v * pow(u, -1, q) % q - 1]
                                      for u in range(1, q)])
                for v in range(1, q)]

    def _plus(self, x, y):
        q = self.modulus
        if isinstance(x, int):
            x, y = y, x
        if isinstance(x, int):
            return (x + y) % q
        if isinstance(y, int):
            # adding c moves every value up by c, through 0: with the zero
            # plane first, plane v comes from plane (v - c) % q
            c = y % q
            if not c:
                return x
            x = [self.full ^ reduce(operator.or_, x), *x]
            return x[q - c + 1:] + x[:q - c]
        if q == 2:
            return [x[0] ^ y[0]]
        if q == 3:
            (a1, a2), (b1, b2) = x, y
            t = (a1 | b2) ^ (a2 | b1)
            return [(a2 | b2) ^ t, (a1 | b1) ^ t]
        # y[v - u] is y[(v - u) % q]: v - u lies in (-q, q)
        x, y = ([self.full ^ reduce(operator.or_, z), *z] for z in (x, y))
        return [reduce(operator.or_, [x[u] & y[v - u] for u in range(q)])
                for v in range(1, q)]

    def nonzero(self, value):
        return reduce(operator.or_, value)


class _Box:
    """Values over the integer box lo..hi as two's-complement bit planes,
    or, when modulus is set, over Z_q as residues in the box 0..q-1.

    A coordinate that varies over the block is a pair (lo, bits), where
    bits lists (2^b, plane of bit b) for its offset from lo: the form
    o + sum of k * [p] with o = lo.  A product of coordinates multiplies
    their forms out, so a slot is a weighted sum of planes, const + sum
    of k * [p], whose planes are ANDs of coordinate bits; _add gives
    its bits.

    A fixed coordinate enters a monomial as its powers, built once per
    block up the ladder of the slots to evaluate: for each position, the
    exponents above 1 that their keys raise it to, ascending, each power
    the one below times a^gap.

    `planed` lists the positions of the planed coordinates in the digit
    order of box_planes; a slot that reads at most TABLE_ENTRIES values
    of them, and no other varying coordinate, is evaluated as a table
    (_tabled) instead."""

    def __init__(self, lo, hi, full, modulus=None, slots=(), planed=()):
        self.lo = lo
        self.hi = hi
        self.full = full
        self.modulus = modulus
        ladder = {}
        for key in {key for _, terms in slots for _, key in terms}:
            for p, e in pairs(key):
                if e > 1:
                    ladder.setdefault(p, set()).add(e)
        self.ladder = [(p, sorted(exps)) for p, exps in ladder.items()]
        # over Z_q with q = 2^s only the low s bits of a slot matter
        self.cap = None
        if modulus is not None and not modulus & modulus - 1:
            self.cap = modulus.bit_length() - 1
        # the digit of each planed position; none in one-point blocks
        self.digit = {p: d for d, p in enumerate(planed)} if hi > lo else {}
        self.powers = {}
        self.lowest = {}

    def coordinates(self, digits):
        return box_planes(self.lo, self.hi, digits)

    def lift(self, value):
        return value

    def _times(self, f, g):
        """The product of two forms, maps from plane masks to
        coefficients (mask 0 for the constant): [p] * [p] = [p], so
        masks OR."""
        q = self.modulus
        out = {}
        for m, c in f.items():
            for n, d in g.items():
                out[m | n] = out.get(m | n, 0) + c * d
        return {m: c if q is None else c % q for m, c in out.items()
                if c and (q is None or c % q)}

    def values(self, coords, slots):
        """The value of every slot at the coordinates coords, in order:
        a number where it is the same at every point, else its bits.
        Over Z_q both are only congruent to the slot mod q.  A tabled
        slot gives only whether it is 0: 0 or 1 where that is the same at
        every point, else the one plane of the points where it is not.

        A varying coordinate (o, bits) enters a slot as const o plus its
        bits, and a monomial a^key of higher degree as _monomial gives
        it; each is built once per block, and so are the form of each
        varying coordinate, where each of its bits owns one mask bit, and
        the plane of each mask, the AND of its bits' planes."""
        q = self.modulus
        products = {(pos, 1): x for pos, x in enumerate(coords)}
        for p, exps in self.ladder:
            x, y, last = coords[p], 1, 0
            if isinstance(x, tuple):
                continue
            for e in exps:
                y *= pow(x, e - last, q)
                products[p, e] = y = y % q if q else y
                last = e
        forms, planes = {}, {}

        def form(p):
            f = forms.get(p)
            if f is None:
                f = forms[p] = {0: coords[p][0]} if coords[p][0] else {}
                for k, bit in coords[p][1]:
                    mask = 1 << len(planes)
                    f[mask], planes[mask] = k, bit
            return f

        def plane(mask):
            p = planes.get(mask)
            if p is None:
                low = mask & -mask
                p = planes[mask] = planes[low] & plane(mask ^ low)
            return p

        for const, terms in slots:
            value = self._tabled(products, const, terms) if self.digit else None
            if value is not None:
                yield value
                continue
            out = []
            for c, key in terms:
                x = products.get(key)
                if x is None:
                    x = products[key] = self._monomial(products, form, plane,
                                                       key)
                if isinstance(x, tuple):
                    const += c * x[0]
                    out += [(c * k, p) for k, p in x[1]]
                else:
                    const += c * x
            if q is not None:
                const %= q
                out = [(k % q, p) for k, p in out if k % q]
            yield _add(self.full, const, out, self.cap) if out else const

    def _tabled(self, products, const, terms):
        """The slot as a table lifted to its nonzero mask, as the module
        notes say, or None where it reads the forced coordinate 0, no
        planed coordinate, or more than TABLE_ENTRIES values of them.
        The first coordinate of the scope is the most significant.
        Terms that read one of them sum into a value list per
        coordinate, whose outer sum the table starts from; a term that
        reads more is broadcast over the others.  0 or 1 where the slot
        is zero or nonzero at every point, else the mask as one plane."""
        q = self.modulus
        n = self.hi - self.lo + 1
        scope, vectors, joint = [], [], []
        for c, key in terms:
            read = {}
            for p, e in pairs(key):
                if p not in self.digit:
                    x = products.get((p, e))
                    if not isinstance(x, int):
                        return None
                    c *= x
                    continue
                if p not in scope:
                    if n ** (len(scope) + 1) > TABLE_ENTRIES:
                        return None
                    scope.append(p)
                    vectors.append([0] * n)
                read[scope.index(p)] = e
            if len(read) > 1:
                joint.append((c, read))
            elif read:
                (j, e), = read.items()
                vectors[j] = [x + c * y
                              for x, y in zip(vectors[j], self._powers(e))]
            else:
                const += c
        if not scope:
            return None
        table = [0]
        for vector in vectors:
            table = [x + y for x in table for y in vector]
        for c, read in joint:
            # positions read before the first one tile the column whole
            column, tiles = [c], 1
            for j in range(len(scope)):
                if j in read:
                    powers = self._powers(read[j])
                    column = [x * y for x in column for y in powers]
                elif len(column) == 1:
                    tiles *= n
                else:
                    column = [x for x in column for _ in range(n)]
            table = list(map(operator.add, table, column * tiles))
        target = -const
        if q:
            table = [v % q for v in table]
            target %= q
        zero = 0
        # the value planes of class_planes, whose digits are ordered as
        # those of box_planes
        classes = class_planes(n, len(self.digit))
        digits = [self.digit[p] for p in reversed(scope)]
        for i in [i for i, v in enumerate(table) if v == target]:
            plane = self.full
            for d in digits:
                i, v = divmod(i, n)
                plane &= classes[d][v - 1] if v else self._lowest(d)
            zero |= plane
        mask = self.full & ~zero
        return [mask] if 0 < mask < self.full else int(mask != 0)

    def _powers(self, e):
        """a^e for every value a of the box, ascending, reduced mod q."""
        out = self.powers.get(e)
        if out is None:
            q = self.modulus
            out = self.powers[e] = [pow(v, e, q) if q else v ** e
                                    for v in range(self.lo, self.hi + 1)]
        return out

    def _lowest(self, d):
        """The plane where the planed coordinate of digit d is lo: where
        none of its value planes is set."""
        out = self.lowest.get(d)
        if out is None:
            planes = class_planes(self.hi - self.lo + 1, len(self.digit))[d]
            out = self.lowest[d] = self.full ^ reduce(operator.or_, planes)
        return out

    def _monomial(self, products, form, plane, key):
        """a^key as a varying coordinate is held, (const, [(k, plane)]),
        or a number where no factor varies: a fixed factor a_p^e is its
        power in products, and the forms of the varying ones multiply
        out, x^e by repeated squaring."""
        q = self.modulus
        scale, x = 1, None
        for p, e in pairs(key):
            if not isinstance(products[p, 1], tuple):
                scale *= products[p, e]
                continue
            power, base = None, form(p)
            while True:
                if e & 1:
                    power = base if power is None else self._times(power, base)
                e >>= 1
                if not e:
                    break
                base = self._times(base, base)
            x = power if x is None else self._times(x, power)
        if x is None or not scale:
            return scale if q is None else scale % q
        return (scale * x.get(0, 0),
                [(scale * k, plane(m)) for m, k in x.items() if m])

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
            value, bound = _add(self.full, 0, terms), folded
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
    for value in arith.values(coords, slots):
        if not isinstance(value, (list, tuple)):
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


def _balanced(ring, slots, domain):
    """The slots with t subtracted from the coefficient of a_i for every
    position i of `domain`, where t is a slot's commonest such
    coefficient (an absent one is 0), and ties go to 0.

    Under zero_sum the coordinates of domain, coordinate 0 and the free
    ones, sum to 0 (mod q over Z_q), so each slot keeps its value at
    every point of the domain, and it never gets more nonzero
    coefficients."""
    out = []
    for const, terms in slots:
        # t can beat 0 only where most of domain has nonzero coefficients
        if 2 * len(terms) > len(domain):
            coef = {key: c for c, key in terms}
            column = [coef.get((i, 1), 0) for i in domain]
            t = max(column, key=column.count)
            if column.count(t) > column.count(0):
                for i, c in zip(domain, column):
                    coef[i, 1] = ring.canon(c - t)
                terms = [(c, key) for key, c in coef.items() if c]
        out.append((const, terms))
    return out


def _integral(slot):
    """A slot over Q times the lcm of its denominators: integer
    coefficients, and zero exactly where the slot is."""
    const, terms = slot
    m = reduce(lcm, (c.denominator for c, _ in terms), const.denominator)
    return int(const * m), [(int(c * m), key) for c, key in terms]


def _layout(q):
    """The arithmetic of values over Z_q other than _Box, or None."""
    if q is not None and q <= MAX_MODULUS and (q & 1 or q == 2):
        return _Field


def _check_powers(ring, values, slots):
    """Refuse, before the first block over Z or Q, slots whose exact
    evaluation at one point may build powers of more than POWER_BITS
    bits in all: a fixed coordinate enters each a^key as its powers, of
    at most the key's degree times the bits of the largest |numerator|
    times the largest denominator of values (a range's two ends), or
    none where that is at most 1.  Finite rings reduce as they go."""
    if ring.is_finite:
        return
    ends = (values[0], values[-1]) if isinstance(values, range) else values
    top = (max(abs(v.numerator) for v in ends)
           * max(v.denominator for v in ends))
    keys = {key for _, terms in slots for _, key in terms}
    worst = (top.bit_length() if top > 1 else 0) * sum(
        sum(key[1::2]) for key in keys)
    if worst > POWER_BITS:
        raise CapExceededError(
            "evaluation may build a power of %s bits, the limit is %d"
            % (decimal_text(worst, "the power's bit count"), POWER_BITS))


def _fits(ring, values, slots):
    """Whether _blocks gives the slots planes: always in value planes,
    and in binary ones over Z_q, or over a range (a list is a rational
    grid), while their width bound is at most MAX_WIDTH.  The bound
    comes before any plane is built: the planes that the monomials a^key
    may need, ANDs of at most e of the bits of a_p for each factor a_p^e
    (and the empty one where a coordinate's form has a constant), times
    the bits that their values may take."""
    q = ring.modulus
    if _layout(q):
        return True
    if q is None and not isinstance(values, range):
        return False
    lo, hi = values[0], values[-1]
    if not slots:
        return True
    nbits = (hi - lo).bit_length()
    counts = [sum(comb(nbits, j) for j in range(0 if lo else 1, e + 1))
              for e in range(nbits + 1)]
    keys = {key for _, part in slots for _, key in part}
    # a_p alone, the common key, needs counts[1] planes
    nonlinear = [key for key in keys if len(key) > 2 or key[1] > 1]
    products = (len(keys) - len(nonlinear)) * counts[min(1, nbits)]
    degree = 1
    for key in nonlinear:
        n = 1
        for e in key[1::2]:
            n *= counts[min(e, nbits)]
        products += n
        degree = max(degree, sum(key[1::2]))
    if q is not None:
        # reduced coefficients: the value is below q * products
        return products * (q * products).bit_length() <= MAX_WIDTH
    coefs = [c for _, part in slots for c, _ in part]
    coefs += [const for const, _ in slots]
    # a coordinate's form o + sum of k * [p] is below 2^norm
    norm = (abs(lo) + (1 << nbits) - 1).bit_length()
    width = (degree * norm + max(max(coefs), -min(coefs)).bit_length()
             + max(len(part) for _, part in slots).bit_length())
    return products * width <= MAX_WIDTH


def ranked(values, positions, rank):
    """(position, value) for each of `positions`, the last first, at the
    odometer rank `rank`, whose base-len(values) digits index values."""
    for pos in reversed(positions):
        rank, digit = divmod(rank, len(values))
        yield pos, values[digit]


def _blocks(ring, values, fixed, slots, k, free, zero_sum):
    """The domain in blocks of at most PLANE_BITS ranks, in rank order.

    The domain is every vector whose coordinates off `free` are 0,
    except that under zero_sum coordinate 0 (not in `free`) is minus the
    sum of the others and must lie in `values`: as _plan gives them, a
    range (the residues of Z_q, a box over Z or Q) or a rational grid's
    ascending list, whose len the cap bounds.  Ranks are those of
    ranked.  Both budgets, _check_powers and _fits, are checked before
    the first block.  Where the slots _fit, the lowest free coordinates
    get planes; otherwise none does, and each block is one point, every
    coordinate fixed, whose slots are evaluated exactly.  Yields
    (offset, lead, inside, fixed, counters) per block: its first rank,
    coordinate 0 as box_forced gives it under zero_sum (else the payload
    0), the mask of its points that lie in the domain, and the counts of
    _count over the slots, which are exact on those points.
    """
    q = ring.modulus
    _check_powers(ring, values, slots)
    if zero_sum:
        slots = _balanced(ring, slots, [0] + free)
    if ring.kind == RATIONALS:
        slots = [_integral(slot) for slot in slots]
    nv = len(values)
    sliced = 0  # free coordinates that get planes: the lowest ones
    if _fits(ring, values, slots):
        while sliced < len(free) and nv ** (sliced + 1) <= PLANE_BITS:
            sliced += 1
    high = free[:len(free) - sliced]
    width = nv ** sliced
    full = (1 << width) - 1
    layout = _layout(q)
    planed = free[len(high):]
    arith = (layout(q, full) if layout
             else _Box(values[0], values[-1], full, q, slots, planed))
    planes = arith.coordinates(sliced) if sliced else ()
    lead = 0
    for block in range(nv ** len(high)):
        coords = [0] * k
        for pos, p in zip(planed, planes):
            coords[pos] = p
        for pos, v in ranked(values, high, block):
            coords[pos] = v
        inside = full
        if zero_sum:
            const = -sum(coords[pos] for pos in high)
            if q is not None:
                const %= q
            if sliced:
                lead, inside = box_forced(arith.lo, arith.hi, sliced, const, q)
            else:
                i = bisect_left(values, const)
                lead, inside = const, int(i < nv and values[i] == const)
            coords[0] = arith.lift(lead)
        if inside:
            yield ((block * width, lead, inside)
                   + _count(fixed, slots, coords, arith))


def count_at(ring, fixed, slots, point):
    """fixed plus the number of slots (as slot_table gives them) that are
    nonzero at the payload vector point, evaluated exactly."""
    arith = _Box(0, 0, 1, ring.modulus, slots)
    return _count(fixed, slots, list(point), arith)[0]


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
    the domain is empty.  Slots are as in slot_table.

    The least vector is the least rank, except that under zero_sum the
    forced coordinate 0 is compared first."""
    best = None
    total = 0
    for offset, lead, inside, fixed, counters in _blocks(
            ring, values, fixed, slots, k, free, zero_sum):
        total += inside.bit_count()
        low, points = _least(counters, inside)
        first = lead
        if isinstance(lead, tuple):
            # the least coordinate 0 among them, from its offset bits
            first, points = _least([p for _, p in lead[1]], points)
            first += lead[0]
        if best is None or (fixed + low, first) < best[:2]:
            rank = offset + (points & -points).bit_length() - 1
            best = fixed + low, first, rank
    return None if best is None else (best[0], best[2], total)


def sliced_ranks_below(ring, values, fixed, slots, k, free, zero_sum,
                       threshold):
    """The number of points of the domain of _blocks and the ranks,
    ascending, of those where fixed plus the number of nonzero slots is
    below `threshold`."""
    points = 0
    ranks = []
    for offset, _, inside, fixed, counters in _blocks(
            ring, values, fixed, slots, k, free, zero_sum):
        points += inside.bit_count()
        below = _below(counters, threshold - fixed, inside)
        while below:
            low = below & -below
            ranks.append(offset + low.bit_length() - 1)
            below ^= low
    return points, ranks
