"""Bit-sliced shift counting over finite rings, boxes and rational grids.

Every point of a block of the search domain owns one bit of a Python
int, at its rank within the block, so one operation on ints acts on
every point of the block at once.  The slots of slot_table, and from
them the monomial count of P(X + a), come out for the whole block; so
do the rows of a Max-3-Lin system and the equations of a system, each a
slot, and from them the count of unsatisfied rows or equations.  A slot
is const plus a sum of c * a^key, for any degree:

- over Z_q with q = 3 or 5 (odd and at most MAX_MODULUS) a coordinate,
  and a slot, is q one-hot planes: plane v has the bits of the points
  where the value is v.  Adding or multiplying two such values costs
  q^2 AND/OR operations on whole planes, and a factor a_i^e one
  relabelling of the planes of a_i.
- over an integer box a coordinate is its offset from the box's low end
  in binary, one plane per bit: the form o + sum of k * [p].  A product
  of forms multiplies out over those bits, with [p] * [p] = [p], into a
  weighted sum of ANDs of coordinate bits, and a slot, taken mod 2^W in
  two's-complement bit planes, where 2^W exceeds a bound on the slot's
  magnitude over the box, is 0 exactly where all W planes are; its
  planes are added column by column with full adders.  A box over Q
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
MAX_WIDTH (_fits).  A wider slot set, and a rational grid, get no
planes: each block is one point, every coordinate fixed, and the same
evaluation runs on exact numbers.

The "slot != 0" masks are summed into bit-sliced binary counter planes
by a ripple-carry adder, and the counts are read from those planes.
This is bitslicing (Biham, FSE 1997) and broadword computing (Knuth,
TAOCP 4A, 7.1.3).

A plane has at most PLANE_BITS bits: the lowest free coordinates get
planes, and the higher ones are fixed for one block and enter as
constants, so memory stays bounded whatever the size of the domain.

What depends only on the shape of a block is built once and cached: the
coordinate planes (class_planes one-hot, box_planes in binary, each in
O(log) big-int operations per plane) and, under zero_sum, the sum S of
the planed coordinates (box_sum), from which box_forced derives the
forced coordinate and its in-domain mask for each sum of the fixed
ones, keeping the last two.  Under zero_sum, coordinate 0 and the free
coordinates sum to 0 (mod q over Z_q), so subtracting one t from all
their linear coefficients leaves a slot's value unchanged at every
point of the domain; _balanced takes t as each slot's commonest
coefficient there, which turns the HN wiring slot
x0 + x1 + ... + 3*x3 + ... + x6 - 2*x1^2 into 2*x3 - 2*x1^2.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import product
from math import comb, lcm

from .rings import RATIONALS
from .sparsepoly import pairs

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


# one entry is the bits of the sum of the planed offsets, at most
# (digits * (span - 1)).bit_length() planes of at most PLANE_BITS bits:
# at most 2.7 MiB (a box of 2^20 values, 1 digit), so the cache holds at
# most about 11 MB
@lru_cache(maxsize=4)
def box_sum(lo, hi, digits):
    """The sum S of the offsets from lo of the coordinates of
    box_planes(lo, hi, digits), as unsigned bit planes, least significant
    first.  Built once per (lo, hi, digits), as a tuple."""
    box = _Box(lo, hi, (1 << (hi - lo + 1) ** digits) - 1)
    return tuple(box.bits(0, [(k, p) for _, bits in box_planes(lo, hi, digits)
                              for k, p in bits]))


# one entry is (hi - lo).bit_length() planes and a mask of at most
# PLANE_BITS bits: at most 2.6 MiB (a box of 2^20 values, 1 digit), so
# the cache holds at most about 5.5 MB; a miss costs only the derivation
# from box_sum, so a loop over more sums than entries loses nothing
@lru_cache(maxsize=2)
def box_forced(lo, hi, digits, const, modulus=None):
    """Coordinate 0 of a zero-sum block over the box lo..hi whose planed
    coordinates are those of box_planes(lo, hi, digits) and whose fixed
    free coordinates sum to -const: x0 = const minus the sum of the
    planed ones, that is c - S with c = const - digits * lo and S from
    box_sum, and the mask of the points where it lies in the domain,
    where c - hi <= S <= c - lo.  In the box, x0 - lo is its offset from
    lo, so x0 is held as (lo, bits), whose bits are exact on that mask;
    with no planed coordinate bits it is an int, and the mask is full or
    0.

    Over Z_q, (lo, hi) is (0, q - 1), const is reduced, and x0 is taken
    mod q: x0 = c + j*q - S for the one j in 0..digits that puts it in
    0..q-1, so it is the disjoint union over j of the in-box parts of
    c + j*q - S, and every point is in the domain.  That j is digits
    less the number of bounds c + i*q, i < digits, that S does not
    exceed, so x0 is one bit-sliced sum."""
    full = (1 << (hi - lo + 1) ** digits) - 1
    const -= digits * lo
    if not digits or lo == hi:
        return const, full if lo <= const <= hi else 0
    planed = box_sum(lo, hi, digits)
    nbits = (hi - lo).bit_length()
    if modulus is None:
        inside = (_below(planed, const - lo + 1, full)
                  & ~_below(planed, const - hi, full))
        # the low bits of const - lo - S: const - lo + ~S + 1, rippled
        up = []
        carry = full
        for b in range(nbits):
            x = full ^ planed[b] if b < len(planed) else full
            if const - lo >> b & 1:
                up.append(full ^ x ^ carry)
                carry |= x
            else:
                up.append(x ^ carry)
                carry &= x
    else:
        terms = [(-1 << b, p) for b, p in enumerate(planed)]
        terms += [(-modulus, _below(planed, const + i * modulus + 1, full))
                  for i in range(digits)]
        up = _Box(lo, hi, full).bits(const + digits * modulus, terms)
        inside = full
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

    def values(self, coords, slots):
        """The value of every slot at the coordinates coords, in order:
        a payload where it is the same at every point, else its classes.
        The value of each a^key is built once per block, one _apply per
        factor."""
        q = self.modulus
        products = {(pos, 1): x for pos, x in enumerate(coords)}
        for const, terms in slots:
            value = const
            for c, key in terms:
                x = products.get(key)
                if x is None:
                    x = 1
                    for p, e in pairs(key):
                        x = _apply(lambda u, w: u * pow(w, e, q), x,
                                   coords[p], q)
                    products[key] = x
                value = _apply(lambda u, w: u + c * w, value, x, q)
            yield value

    def nonzero(self, value):
        return self.full ^ value[0]


class _Box:
    """Values over the integer box lo..hi as two's-complement bit planes,
    or, when modulus is set, over Z_q as residues in the box 0..q-1.

    A coordinate that varies over the block is a pair (lo, bits), where
    bits lists (2^b, plane of bit b) for its offset from lo: the form
    o + sum of k * [p] with o = lo.  A product of coordinates multiplies
    their forms out, so a slot is a weighted sum of planes, const + sum
    of k * [p], whose planes are ANDs of coordinate bits; its bits come
    from adding each column of planes with full adders.

    A fixed coordinate enters a monomial as its powers, built once per
    block up the ladder of the slots to evaluate: for each position, the
    exponents above 1 that their keys raise it to, ascending, each power
    the one below times a^gap."""

    def __init__(self, lo, hi, full, modulus=None, slots=()):
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
        Over Z_q both are only congruent to the slot mod q.

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
            yield self.bits(const, out) if out else const

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

    def bits(self, const, terms):
        """The bits of const + sum of k * [p] over the (k, p) terms, mod
        2^W, where 2^W exceeds the magnitude of that sum at every point;
        W is s over Z_q with q = 2^s, where only the sum mod q matters."""
        if self.cap is not None:
            width = self.cap
        else:
            width = (abs(const) + sum(abs(k) for k, _ in terms)).bit_length()
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
    for value in arith.values(coords, slots):
        if not isinstance(value, list):
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


def _fits(ring, values, slots):
    """Whether _blocks gives the slots planes: always in one-hot ones,
    and in binary ones over a run of consecutive integers (not a
    rational grid) while their width bound is at most MAX_WIDTH.  The
    bound comes before any plane is built: the planes that the monomials
    a^key may need, ANDs of at most e of the bits of a_p for each factor
    a_p^e (and the empty one where a coordinate's form has a constant),
    times the bits that their values may take."""
    q = ring.modulus
    if q is not None and q <= MAX_MODULUS and q & q - 1:
        return True
    lo, hi = values[0], values[-1]
    if not all(isinstance(v, int) for v in values) or hi - lo >= len(values):
        return False
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


def _blocks(ring, values, fixed, slots, k, free, zero_sum):
    """The domain in blocks of at most PLANE_BITS ranks, in rank order.

    The domain is every vector whose coordinates off `free` are 0,
    except that under zero_sum coordinate 0 (not in `free`) is minus the
    sum of the others and must lie in `values`; ranks are odometer
    ranks, whose base-len(values) digits index the values of the free
    coordinates in order.  `values` is every residue of Z_q, a box lo..hi
    of integers (over Q, of integral fractions), or any ascending list
    of distinct numbers, such as a rational grid.  Where the slots
    _fit, the lowest free coordinates get planes; otherwise none does,
    and each block is one point, every coordinate fixed, whose slots
    are evaluated exactly.  Yields (offset, lead, inside, fixed,
    counters) per block: its first rank, coordinate 0 as box_forced
    gives it under zero_sum (else the payload 0), the mask of its points
    that lie in the domain, and the counts of _count over the slots,
    which are exact on those points.
    """
    q = ring.modulus
    if zero_sum:
        slots = _balanced(ring, slots, [0] + free)
    if ring.kind == RATIONALS:
        # a box over Q is planed as integers; a grid's values stay as given
        values = [v.numerator if v.denominator == 1 else v for v in values]
        slots = [_integral(slot) for slot in slots]
    nv = len(values)
    sliced = 0  # free coordinates that get planes: the lowest ones
    if _fits(ring, values, slots):
        while sliced < len(free) and nv ** (sliced + 1) <= PLANE_BITS:
            sliced += 1
    high = free[:len(free) - sliced]
    width = nv ** sliced
    full = (1 << width) - 1
    if q is not None and q <= MAX_MODULUS and q & q - 1:
        arith = _Residues(q, full)
    else:
        arith = _Box(values[0], values[-1], full, q, slots)
    planes = arith.coordinates(sliced) if sliced else ()
    members = set(values)
    lead = 0
    for block, combo in enumerate(product(values, repeat=len(high))):
        coords = [0] * k
        for pos, p in zip(free[len(high):], planes):
            coords[pos] = p
        for pos, v in zip(high, combo):
            coords[pos] = v
        inside = full
        if zero_sum:
            const = -sum(coords[pos] for pos in high)
            if q is not None:
                const %= q
            if sliced:
                lead, inside = box_forced(arith.lo, arith.hi, sliced, const, q)
            else:
                lead, inside = const, int(const in members)
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
