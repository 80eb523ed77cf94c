"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from monomial keys to nonzero coefficients over a
fixed positional variable catalog.  A key is flat and sparse: the nonzero
exponents in ascending position, as (p1, e1, p2, e2, ...), with () for
the constant; dense exponent vectors appear only at the boundary (the
public constructor, the `terms` view and the text format).  Display names
are metadata only; the arithmetic never consults them.  Every constructor
canonicalizes eagerly, so two equal polynomials have identical term maps.

Input is validated once, at the boundary: the public constructor checks
every exponent vector and coefficient it is given, and the file readers
check what they parse.  Arithmetic builds its results from keys it made
out of already checked polynomials, so it goes through the trusted
constructor `SparsePoly._from_payloads`, which only canonicalizes: it
takes over the producer's map, with no copy, when its payloads are
canonical and none is 0, and copies it otherwise.  The disjoint products
of `mul` reduce each payload as they are built, so they are taken over.

Every key is cut once per polynomial, at nvars // 2: `halves()` is the
cut_keys view of sparse_terms, made on first use and kept, from which
the shift expands and term_lines writes.  poly_from_text hands over the
view the reader builds as it keys fixed-width rows, but only when every
term row was such a row and the map was kept: not once a row went to
read_term, which ends the fixed-width rows for the rest of the file, nor
after a `term 0` row or a Z_q payload that reduced to 0.  Fixed-width
rows and the cut are the .poly format's alone: the other formats read
and write every row token by token.
"""

from __future__ import annotations

import operator
import os
import sys
from bisect import bisect_left
from functools import lru_cache, partial
from itertools import chain

from .errors import (
    QUOTE_LIMIT,
    ArityError,
    CapExceededError,
    FormatError,
    PreconditionError,
    RingMismatchError,
    quoted,
)
from .rings import INTEGERS, Ring, RingElement, decimal_text

DEFAULT_TERM_CAP = 10 ** 6
# the most bits, estimated as e * e times the bits of the offset, that
# the row of binomials of one exponent e may take in an expansion (64
# MiB): the term cap bounds monomials, not bits.  A row of x^e holds
# about 0.72 * e^2 bits; the row of x^20000, 36 MB, takes 0.14 s to
# build on one core of a 2-CPU x86-64 VM
ROW_BITS = 1 << 29


def term_cap():
    """Active term budget for expansions and products of expansions."""
    v = os.environ.get("SHIFTFORGE_TERM_CAP")
    try:
        return int(v) if v else DEFAULT_TERM_CAP
    except ValueError:
        raise PreconditionError(
            "SHIFTFORGE_TERM_CAP must be an integer, not %r" % v) from None


def check_term_cap(worst, what):
    """Raise CapExceededError, before any work starts, when `what` may
    reach `worst` terms, more than term_cap()."""
    cap = term_cap()
    if worst > cap:
        raise CapExceededError("%s may reach %s terms, cap is %d" % (
            what, decimal_text(worst, "the term count of " + what), cap))


def pairs(key):
    """The (position, exponent) pairs of a key."""
    it = iter(key)
    return zip(it, it)


def sparse_key(exps):
    """The key of a dense exponent vector."""
    return tuple(v for p, e in enumerate(exps) if e for v in (p, e))


def map_key(exps):
    """The key of a map from positions to nonzero exponents."""
    return tuple(chain.from_iterable(sorted(exps.items())))


def dense_exps(key, nvars):
    """The dense exponent vector of a key over nvars variables."""
    exps = [0] * nvars
    for p, e in pairs(key):
        exps[p] = e
    return tuple(exps)


def default_names(nvars):
    return tuple("x%d" % (i + 1) for i in range(nvars))


def catalog_names(nvars, var_names):
    """The name tuple for nvars variables; defaults when var_names is None."""
    if var_names is None:
        return default_names(nvars)
    var_names = tuple(var_names)
    if len(var_names) != nvars:
        raise ArityError("%d names for %d variables" % (len(var_names), nvars))
    return var_names


# one entry is a moving part and its count: a few MB at most
@lru_cache(maxsize=4096)
def _size(mov):
    """The monomial count of a moving part under a shift: the product of
    e + 1 over its pairs."""
    size = 1
    for e in mov[1::2]:
        size *= e + 1
    return size


def cut_keys(terms, h):
    """The two-level view of a term map that cuts every key at position
    h: (rows, rights), rows a map from each left half, a key's pairs below
    h, to {right half number: payload}, and rights the list of the right
    halves, the rest of each key, by number."""
    rows = {}
    rights = {}
    for key, c in terms.items():
        i = 2 * bisect_left(key[::2], h)
        rows.setdefault(key[:i], {})[rights.setdefault(key[i:], len(rights))] = c
    return rows, list(rights)


def _half_size(half, moving):
    """The monomial count of a key half under a shift of the positions in
    moving: the product of e + 1 over its pairs on moving."""
    size = 1
    for p, e in pairs(half):
        if p in moving:
            size *= e + 1
    return size


def _binomials(e, bits=1):
    """The row C(e, 0), ..., C(e, e), by the Pascal-row recurrence
    C(e, j + 1) = C(e, j) * (e - j) / (j + 1), whose division is exact:
    one product of a big and a small int per entry.

    Raises CapExceededError, before the row is built, when e * e * bits
    exceeds ROW_BITS: the row holds at most about e^2 bits, and about
    e^2 times the bits of the offset once scaled by its powers, which
    take `bits` bits each."""
    worst = e * e * bits
    if worst > ROW_BITS:
        raise CapExceededError(
            "the binomials of exponent %d may take %s bits, the limit is %d"
            % (e, decimal_text(worst, "the binomials' bit count"), ROW_BITS))
    row = [1]
    for j in range(e):
        row.append(row[-1] * (e - j) // (j + 1))
    return row


def _expansion(half, offsets, m):
    """The (subkey, coefficient) pairs of the product over the pairs
    (p, e) of half of (x_p + a_p)^e, a_p = 0 at or past len(offsets):
    flat sparse keys over the positions of half, the last half itself with
    1.  The factor of one variable has C(e, k) * a^(e-k), from k = 0 up,
    C(e, k) from _binomials, or x_p^e alone, with 1, where a_p = 0."""
    partial = [((), 1)]
    for p, e in pairs(half):
        a = offsets[p] if p < len(offsets) else 0
        if not a:
            opts = (((p, e), 1),)
        elif e == 1:  # x_p + a_p, where a_p is a reduced payload already
            opts = (((), a), ((p, 1), 1))
        else:
            # a power of a reduced offset is reduced again; one over Z
            # or Q grows by the bits of a per factor
            bits = 1 if m is not None else (
                a.numerator.bit_length() + a.denominator.bit_length() - 1)
            opts = []
            power = 1
            for k, binom in zip(range(e, -1, -1), _binomials(e, bits)):
                s = binom * power
                opts.append(((p, k) if k else (), s if m is None else s % m))
                power *= a
                if m is not None:
                    power %= m
            opts.reverse()
        partial = [(pk + piece, ps * s) for pk, ps in partial for piece, s in opts]
    return partial


def shifted_term_map(ring, terms, offsets, halves=None):
    """Term map of P(X + a) from a payload term map and payload offsets.

    The terms come as halves, their cut_keys view at any position, or
    else are cut at len(offsets) // 2: one row per left half, the right
    halves numbered.  Each distinct half is expanded once per call
    (_expansion), the right ones onto subkeys numbered as the halves are,
    so the sums hash small ints.  Stage 1 sums c * s over the expansions
    of a row's right halves and keeps the nonzero sums.  Stage 2 copies
    them to the output if the left half has no shifted pair, and else adds
    them, times s, to the line of each subkey of its expansion; the lines
    go to the output last.  An output key is the left subkey and the right
    one joined.  When the expansion may have more than term_cap()
    monomials, the sum over terms of the product of (e + 1) over their
    shifted pairs, CapExceededError is raised before any of it is built.
    The map holds reduced nonzero payloads, as sparse_terms does.
    """
    m = ring.modulus
    moving = {p for p, a in enumerate(offsets) if a}
    if not moving:
        return dict(terms)
    rows, rights = halves or cut_keys(terms, len(offsets) // 2)
    numbers = {sub: j for j, sub in enumerate(rights)}  # then the other subkeys
    sizes = [_half_size(right, moving) for right in rights]
    check_term_cap(sum(_half_size(left, moving) * sum(map(sizes.__getitem__, row))
                       for left, row in rows.items()), "shifted polynomial")
    # the expansion of each right half but its last subkey, the half
    lower = [[(numbers.setdefault(sub, len(numbers)), s)
              for sub, s in _expansion(right, offsets, m)[:-1]] if size > 1 else ()
             for right, size in zip(rights, sizes)]
    subs = list(numbers)
    out = {}
    lines = {}  # left subkey -> {right subkey number: sum}
    for left, row in rows.items():
        acc = dict(row)  # c * 1 on the last subkey of each right expansion
        for j, c in row.items():
            for k, s in lower[j]:
                acc[k] = acc.get(k, 0) + c * s
        if moving.isdisjoint(left[::2]):  # the left half is its own expansion
            for k, v in acc.items():
                if m is not None:
                    v %= m
                if v:
                    out[left + subs[k]] = v
            continue
        acc = {k: r for k, v in acc.items() if (r := v if m is None else v % m)}
        for sub, s in _expansion(left, offsets, m):
            line = lines.setdefault(sub, {})
            for k, v in acc.items():
                line[k] = line.get(k, 0) + s * v
    for left, line in lines.items():
        for k, v in line.items():
            key = left + subs[k]
            v += out.pop(key, 0)  # a left half with no shifted pair may hold it
            if m is not None:
                v %= m
            if v:
                out[key] = v
    return out


def slot_table(ring, terms, shifted, nonconstant=False):
    """The coefficients of P(X + a), as polynomials in the shift a.

    P is given by its payload term map, and a moves the positions in
    `shifted`, a range of consecutive positions.  Every key is cut once
    at the two ends of the range, as cut_keys cuts at one position: its
    pairs in the range are its moving part mov, the pairs before and
    after it joined are its rest.  A shift changes only mov, so terms of
    distinct rests never merge.  Among the terms of one rest, the
    coefficient of the shifted monomial m is its slot,

        sum over the terms c * x^t with t >= m of
        c * prod_i C(t_i, m_i) * a^(t - m),

    so the monomial count of P(X + a) is the number of nonzero slots.
    Distinct terms t give distinct keys t - m, so nothing merges.  A slot
    is (const, [(c, key)]), the value const plus the sum of c * a^key
    over flat sparse keys.

    Returns (fixed, slots): fixed counts the slots that are nonzero
    constants, such as the coefficient of a top-degree term, and slots
    lists the others that are not identically 0.  With nonconstant set,
    the constant slot of the rest () is left out.  The table has at most
    the entries of the worst-case expansion, checked first as
    shifted_term_map checks it.
    """
    m = ring.modulus
    lo, hi = shifted.start, shifted.stop
    cut = []
    for key, c in terms.items():
        positions = key[::2]
        i = 2 * bisect_left(positions, lo)
        j = 2 * bisect_left(positions, hi)
        cut.append((key[:i] + key[j:], key[i:j], c))
    check_term_cap(sum(_size(mov) for _, mov, _ in cut), "shifted polynomial")
    consts = {}  # (rest, m) -> c for each term c * x^m
    table = {}  # (rest, m) -> the nonconstant part of its slot
    for rest, mov, c in cut:
        consts[rest, mov] = c
        expansion = (_submonomials(mov) if _size(mov) <= 32
                     else _submonomials.__wrapped__(mov))
        # the first part of an expansion is the one of m = (), left out
        # of the rest () with nonconstant set
        for sub, key, b in expansion[nonconstant and not rest:]:
            if b != 1:
                v = c * b if m is None else c * b % m
                if not v:
                    continue
            else:
                v = c
            part = table.get((rest, sub))
            if part is None:
                table[rest, sub] = [(v, key)]
            else:
                part.append((v, key))
    if nonconstant:
        consts.pop(((), ()), None)
    zero = ring.canon(0)
    slots = [(consts.pop(at, zero), part) for at, part in table.items()]
    return len(consts), slots


# one entry holds at most 32 triples, so the cache holds at most a few MB
@lru_cache(maxsize=512)
def _submonomials(mov):
    """The expansion of x^t under the shift, t = mov: a triple (m, t - m,
    prod_i C(t_i, m_i)) for each monomial m under t but t itself, as
    flat sparse keys.  slot_table caches the small moving parts, which
    recur across calls, and builds the others through __wrapped__."""
    parts = [((), (), 1)]
    for p, e in pairs(mov):
        row = [((p, j) if j else (), (p, e - j) if j < e else (), b)
               for j, b in enumerate(_binomials(e))]
        parts = [(sub + s, key + k, b * c) for sub, key, b in parts
                 for s, k, c in row]
    return parts[:-1]


def _ends_before(first, second):
    """Whether every position in the keys of the term map first is below
    every position in those of second."""
    last = max((k[-2] for k in first if k), default=-1)
    return all(k[0] > last for k in second if k)


class SparsePoly:
    """A canonical sparse polynomial over a positional variable catalog.

    sparse_terms maps keys to payloads; `terms` is the same map with dense
    exponent vectors, built on every read.
    """

    __slots__ = ("ring", "nvars", "sparse_terms", "var_names", "_halves")

    def __init__(self, ring, nvars, terms=None, var_names=None):
        """terms maps dense exponent vectors to coefficients."""
        if not isinstance(ring, Ring):
            raise TypeError("ring required")
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        var_names = catalog_names(nvars, var_names)
        payloads = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ArityError("exponent vector %r has wrong length" % (exps,))
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative integers")
            if isinstance(c, RingElement):
                if c.ring != ring:
                    raise RingMismatchError("coefficient from a different ring")
                c = c.val
            key = sparse_key(exps)
            payloads[key] = payloads.get(key, 0) + ring.canon(c)
        self._canonicalize(ring, nvars, payloads, var_names)

    @classmethod
    def _from_payloads(cls, ring, nvars, terms, var_names, reduced=False):
        """Trusted constructor for producers that hold valid keys.

        terms maps keys over nvars variables, each once, to raw payloads
        of ring; the payloads are reduced and zeros are dropped.  With
        reduced set, the payloads are canonical already, as the readers
        parse them, and only the zeros are dropped.  The keys are not
        checked.

        The map is handed over: where its payloads are canonical (reduced
        set, or the ring is Z) and none is 0, it becomes sparse_terms
        itself, so the caller passes a fresh map and never touches it
        again.  Any other map is copied, and the caller's is left as it is.
        """
        self = cls.__new__(cls)
        self._canonicalize(ring, nvars, terms, catalog_names(nvars, var_names),
                           reduced)
        return self

    def _canonicalize(self, ring, nvars, terms, var_names, reduced=False):
        # the one place that reduces coefficients and drops zeros, in one
        # comprehension per ring kind; only Q calls canon per term.  A
        # canonical map with no zero, found by one scan of its values, is
        # kept as it is
        self.ring = ring
        self.nvars = nvars
        self.var_names = var_names
        self._halves = None
        m = ring.modulus
        if reduced or ring.kind == INTEGERS:
            self.sparse_terms = (terms if 0 not in terms.values()
                                 else {k: c for k, c in terms.items() if c})
        elif m is not None:
            self.sparse_terms = {k: v for k, c in terms.items() if (v := c % m)}
        else:
            canon = ring.canon
            self.sparse_terms = {k: v for k, c in terms.items() if (v := canon(c))}

    def _derived(self, nvars, sparse_terms, var_names):
        """A polynomial over the same ring that takes sparse_terms, keys
        over nvars variables to canonical nonzero payloads, as it is:
        what a rename, an embedding or a shift of this one holds."""
        out = SparsePoly.__new__(SparsePoly)
        out.ring = self.ring
        out.nvars = nvars
        out.sparse_terms = sparse_terms
        out.var_names = catalog_names(nvars, var_names)
        out._halves = None
        return out

    @property
    def terms(self):
        """The term map with dense exponent vectors as keys."""
        n = self.nvars
        return {dense_exps(k, n): c for k, c in self.sparse_terms.items()}

    def halves(self):
        """cut_keys(sparse_terms, nvars // 2), made on the first call or
        handed over by poly_from_text, and kept."""
        if self._halves is None:
            self._halves = cut_keys(self.sparse_terms, self.nvars // 2)
        return self._halves

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars, var_names=None):
        return cls(ring, nvars, {}, var_names)

    @classmethod
    def constant(cls, ring, nvars, value, var_names=None):
        return cls(ring, nvars, {(0,) * nvars: value}, var_names)

    @classmethod
    def variable(cls, ring, nvars, index, var_names=None):
        if not 0 <= index < nvars:
            raise ArityError("variable index %d out of range" % index)
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(ring, nvars, {exps: 1}, var_names)

    # -- inspection --------------------------------------------------

    def sparsity(self):
        """Number of monomials with nonzero coefficient."""
        return len(self.sparse_terms)

    def nonconstant_sparsity(self):
        return len(self.sparse_terms) - (() in self.sparse_terms)

    def degree(self):
        """Total degree; 0 for the zero polynomial."""
        return max((sum(k[1::2]) for k in self.sparse_terms), default=0)

    @property
    def is_zero(self):
        return not self.sparse_terms

    def coefficient(self, exps):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ArityError("exponent vector %r has wrong length" % (exps,))
        return RingElement(self.ring, self.sparse_terms.get(sparse_key(exps), 0))

    def constant_term(self):
        return RingElement(self.ring, self.sparse_terms.get((), 0))

    def sorted_keys(self):
        """Keys in graded-lexicographic descending order of their dense
        vectors: by degree, then by the pairs with each position negated,
        since an earlier position is the larger exponent vector.  Two
        stable passes, the second by degree, sort on cheaper keys than
        one pass by (degree, pairs).  This is the reference order of the
        text formats; term_lines reaches it by sorting strings when every
        exponent is one digit."""
        signs = (-1, 1) * self.nvars
        keys = sorted(self.sparse_terms, reverse=True,
                      key=lambda k: tuple(map(operator.mul, k, signs)))
        keys.sort(reverse=True, key=lambda k: sum(k[1::2]))
        return keys

    # -- arithmetic --------------------------------------------------

    def _align(self, other):
        if not isinstance(other, SparsePoly):
            raise TypeError("polynomial required")
        if self.ring != other.ring:
            raise RingMismatchError("mixed coefficient rings")
        if self.nvars != other.nvars:
            raise ArityError("mixed variable counts %d and %d" % (self.nvars, other.nvars))

    def add(self, other):
        self._align(other)
        out = dict(self.sparse_terms)
        for k, c in other.sparse_terms.items():
            out[k] = out.get(k, 0) + c
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)

    def sub(self, other):
        self._align(other)
        out = dict(self.sparse_terms)
        for k, c in other.sparse_terms.items():
            out[k] = out.get(k, 0) - c
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)

    def neg(self):
        out = {k: -c for k, c in self.sparse_terms.items()}
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)

    def scale(self, el):
        if not isinstance(el, RingElement) or el.ring != self.ring:
            raise RingMismatchError("scalar from a different ring")
        out = {k: c * el.val for k, c in self.sparse_terms.items()}
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)

    def mul(self, other):
        """The product, bounded by term_cap().

        Operands on disjoint ordered position ranges, such as the copies
        amplify multiplies, give distinct concatenated keys, built in one
        comprehension that also reduces each product mod m on a finite
        ring: a product of canonical Z or Q payloads is canonical, so the
        map is handed over unless a zero divisor of Z_q made a 0.  Other
        operands go through _product and are reduced after it."""
        self._align(other)
        mine, theirs = self.sparse_terms, other.sparse_terms
        check_term_cap(len(mine) * len(theirs), "product")
        if not _ends_before(mine, theirs):
            out = self._product(mine, theirs)
            return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)
        m = self.ring.modulus
        if m is None:
            out = {k1 + k2: c1 * c2 for k1, c1 in mine.items()
                   for k2, c2 in theirs.items()}
        else:
            out = {k1 + k2: c1 * c2 % m for k1, c1 in mine.items()
                   for k2, c2 in theirs.items()}
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names,
                                         reduced=True)

    @staticmethod
    def _product(mine, theirs):
        """The raw payload map of the product of two term maps."""
        out = {}
        for k1, c1 in mine.items():
            for k2, c2 in theirs.items():
                # keys on disjoint ordered position ranges concatenate
                if not k1 or not k2 or k1[-2] < k2[0]:
                    key = k1 + k2
                elif k2[-2] < k1[0]:
                    key = k2 + k1
                else:
                    exps = dict(pairs(k1))
                    for p, e in pairs(k2):
                        exps[p] = exps.get(p, 0) + e
                    key = map_key(exps)
                out[key] = out.get(key, 0) + c1 * c2
        return out

    def shift(self, offsets):
        """P(X + a) for a vector a of ring elements, expanded and reduced."""
        vals = self.ring.payloads(offsets, self.nvars, "shift vector")
        out = shifted_term_map(self.ring, self.sparse_terms, vals,
                               self.halves() if any(vals) else None)
        return self._derived(self.nvars, out, self.var_names)

    def eval(self, point):
        vals = self.ring.payloads(point, self.nvars, "point")
        return RingElement(self.ring, self.ring.canon(eval_payload(self, vals)))

    def embed(self, nvars, offset, var_names=None):
        """The same polynomial over a wider catalog, variables moved to
        positions offset..offset+nvars(self)-1."""
        if offset < 0 or offset + self.nvars > nvars:
            raise ArityError("embedding block out of range")
        step = (offset, 0) * self.nvars
        out = {tuple(map(operator.add, k, step)): c
               for k, c in self.sparse_terms.items()}
        return self._derived(nvars, out, var_names)

    def rename(self, var_names):
        return self._derived(self.nvars, self.sparse_terms, var_names)

    # -- comparison and display --------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.sparse_terms == other.sparse_terms
        )

    def __repr__(self):
        return "SparsePoly(%s, %d, %s)" % (self.ring.token(), self.nvars, str(self))

    def __str__(self):
        if not self.sparse_terms:
            return "0"
        parts = []
        for key in self.sorted_keys():
            c = RingElement(self.ring, self.sparse_terms[key])
            body = "*".join(
                self.var_names[p] + ("^%d" % e if e > 1 else "") for p, e in pairs(key)
            )
            txt = self.ring.format_coeff(c)
            if body:
                txt = body if txt == "1" else ("-" + body if txt == "-1" else txt + "*" + body)
            parts.append(txt)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def eval_payload(poly, vals):
    """Evaluate on raw payloads; returns an unreduced payload for Z and Q,
    a reduced residue otherwise."""
    m = poly.ring.modulus
    total = 0
    for key, c in poly.sparse_terms.items():
        t = c
        for p, e in pairs(key):
            t *= pow(vals[p], e, m) if m is not None else vals[p] ** e
        total += t
        if m is not None:
            total %= m
    return total


# -- file formats ----------------------------------------------------
#
#   ring Z | Q | Fp <p> | Zq <q>
#   vars <k> [<name> ...]
#   term <coef> <e1> ... <ek>
#
# Lines end at "\n" alone; '#' starts a comment; duplicate exponent
# vectors are rejected.  Terms are written in graded-lex descending
# order, one space between tokens, so when every exponent is one digit
# a row is fixed-width: in a .poly file, term_lines builds and sorts such
# rows as strings, and Reader._take keys them, unsplit.  Both work on
# the two halves of a row, the exponents of positions below n // 2 and
# the rest: the writer on those of halves(), the reader through a memo
# per half, building the view it hands over.  Any other row, and every
# `term` row of a .sys file, is written by token_lines and read by
# read_term, token by token.


class _Memo(dict):
    """A dict that fills a missing key k with fill(k)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


def _chunk_entry(start, slot, chunk):
    """The key of one half ` e e ... e` of a fixed-width row, from position
    start, and slot(key); ValueError unless each exponent is one ASCII
    digit after a space."""
    if chunk[::2].strip(" ") or not chunk.isascii():
        raise ValueError("not a fixed-width chunk")
    key = []
    for p, e in enumerate(chunk[1::2], start):
        if e != "0":
            key += (p, int(e))  # int(" ") raises ValueError
    key = tuple(key)
    return key, slot(key)


def _lines(text):
    """The lines of text, ended by "\\n" alone, split 8K characters at a time."""
    pos, end = 0, len(text) - text.endswith("\n")  # no empty line after the last
    while text and pos <= end:
        stop = text.find("\n", pos + 8192)
        stop = end if stop < 0 else stop
        yield from text[pos:stop].split("\n")
        pos = stop + 1


class Reader:
    """The line reader of every file format, with the header rule they share.

    read() calls the handler of each statement's first word with (parts,
    line), after the header rule: `ring` comes first and once, and `vars`
    (if the format has it) once, before any other statement.  Structured
    comments go to their handlers last, when the ring is known.  A
    FormatError raised while a line is handled names the line.
    """

    __slots__ = ("ring", "nvars", "names", "lineno", "vars_line",
                 "payloads", "chunks", "rows")

    def __init__(self, vars_line=True):
        self.ring = self.nvars = self.names = self.lineno = self.rows = None
        self.vars_line = vars_line
        # rows, set by poly_from_text alone until a row goes to read_term,
        # is None or the sink of fixed-width rows: (terms, row, number),
        # the term map they go straight into and the functions that give a
        # left half's row and a right half's number in the cut_keys view
        # at n // 2 kept with it.  The memos of both term paths are filled
        # once the ring and the variable count are known: coefficient
        # tokens to payloads, and each half's text to its key and its slot
        self.payloads = self.chunks = None

    def lines(self, text, notes=None):
        """Yield (parts, line) per statement line but the term rows _take
        reads into rows; comment lines go to notes."""
        self.lineno = 0
        for raw in _lines(text):
            self.lineno += 1
            if raw[:5] == "term " and self._take(raw):
                continue
            line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
            if line:
                yield line.split(), line
            elif notes is not None and "#" in raw:
                line = raw.strip()
                notes.append((self.lineno, line[1:].split(), line))

    def _take(self, raw):
        """Read the term line raw into rows, and True, if it is a fixed-width
        row, `term <coef>` and a space and one ASCII digit per exponent,
        whose key the term map lacks; if not, False, and read_term reads
        it.  The key is that of the row's exponents below position n // 2
        and that of the rest, each text looked up once per file, with its
        slot in the view kept: the row of the left half, the number of the
        right."""
        if self.rows is None or (self.chunks is None and not self.nvars):
            return False  # no row sink, or no variables and so no row
        if self.chunks is None:
            # the memos, and the widths of the exponents and of their left half
            n = self.nvars
            terms, row, number = self.rows
            self.chunks = (terms, _Memo(partial(_chunk_entry, 0, row)),
                           _Memo(partial(_chunk_entry, n // 2, number)),
                           2 * n, 2 * (n // 2))
        terms, left, right, width, mid = self.chunks
        cut = len(raw) - width  # the space before the exponents
        if cut <= 5:  # no coefficient
            return False
        mid += cut
        try:
            coef = self.payloads[raw[5:cut]]
            key, row = left[raw[cut:mid]]
            half, j = right[raw[mid:]]
        except (FormatError, ValueError):  # a bad coefficient or exponent
            return False
        if j in row:  # a duplicate has its number in the row
            return False
        row[j] = terms[key + half] = coef
        return True

    def read(self, text, statements, comments=()):
        """Handle the statements of text."""
        notes = []
        try:
            for parts, line in self.lines(text, notes):
                key = parts[0]
                handler = statements.get(key)
                if key == "ring":
                    if self.ring is not None:
                        raise FormatError("duplicate ring line")
                    self.ring = Ring.from_token(parts[1:])
                    self.payloads = _Memo(self.ring.parse_payload)
                elif handler is None and not (key == "vars" and self.vars_line):
                    raise FormatError("unknown statement %s" % quoted(key))
                elif self.ring is None:
                    raise FormatError("%s before ring" % key)
                elif key == "vars":
                    if self.nvars is not None:
                        raise FormatError("duplicate vars line")
                    self.nvars, self.names = parse_vars_line(parts[1:], line)
                elif self.vars_line and self.nvars is None:
                    raise FormatError("%s before vars" % key)
                if handler is not None:
                    handler(parts, line)
            for self.lineno, words, line in notes if self.ring else ():
                if words and words[0] in comments:
                    comments[words[0]](words, line)
        except FormatError as exc:
            raise exc.locate(line=self.lineno)


def read_file(path, parse):
    """parse(text) of the UTF-8 file at path; a FormatError, also one for
    bytes that are not UTF-8, names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        err = FormatError("undecodable byte 0x%02x" % data[exc.start])
        raise err.locate(path, data.count(b"\n", 0, exc.start) + 1) from None
    try:
        return parse(text)
    except FormatError as exc:
        raise exc.locate(path)


def parse_int(token, line):
    """One integer field of a file line; a bad one is a FormatError that
    quotes the line."""
    try:
        return int(token)
    except ValueError as exc:
        raise FormatError("bad integer %s in %s"
                          % (quoted(token), quoted(line))) from exc


def parse_vars_line(parts, line):
    """Parse the tail of the `vars` line `line`; returns (nvars, names or
    None)."""
    if not parts:
        raise FormatError("vars line needs a count")
    k = parse_int(parts[0], line)
    if k < 0:
        raise FormatError("negative variable count")
    cap = term_cap()
    if k > cap:
        raise FormatError("variable count %d exceeds the term cap of %d" % (k, cap))
    names = parts[1:]
    if names and len(names) != k:
        raise FormatError("vars line lists %d names for %d variables" % (len(names), k))
    return k, (tuple(names) if names else None)


def read_term(reader, terms, parts, line):
    """Add a `term` line, read token by token, to terms, a map from keys
    to payloads.  The fixed-width rows of a .poly file are read by
    Reader._take to the same keys, through the same coefficient memo."""
    n = reader.nvars
    if len(parts) != 2 + n:
        raise FormatError("term line needs %d exponents" % n)
    coef = reader.payloads[parts[1]]
    key = _token_key(parts, line)
    if key in terms:
        exps = repr(dense_exps(key, n))
        if len(exps) > QUOTE_LIMIT:
            exps = quoted(exps)
        raise FormatError("duplicate exponent vector %s" % exps)
    terms[key] = coef


def _token_key(parts, line):
    """The key of a `term` line's exponent tokens, parts[2:]."""
    key = []
    try:
        for p, token in enumerate(parts[2:]):
            if token != "0":
                key += (p, int(token))
    except ValueError:
        parse_int(token, line)  # quotes the first bad exponent
    exps = key[1::2]
    if exps and min(exps) <= 0:
        if min(exps) < 0:
            raise FormatError("negative exponent in %s" % quoted(line))
        key = [v for p, e in pairs(key) if e for v in (p, e)]  # such as "00"
    return tuple(key)


def header_lines(ring, nvars, names=()):
    """The `ring` and `vars` lines of a file."""
    head = "vars %d" % nvars
    if names:
        head += " " + " ".join(names)
    return ["ring " + ring.token(), head]


def term_lines(poly):
    """The `term` lines of poly, in graded-lexicographic descending order.

    When poly has variables, every exponent is one digit and the largest
    degrees of a left and a right half add to at most sys.maxunicode, a
    line is a head `term <coef> ` and a fixed-width row `e1 e2 ... ek`,
    whose byte 2p is the digit of position p; the records chr(degree) +
    row + head sort as strings, descending, into that order (by degree,
    then row), and rows are unique, so the head never decides.  A row
    joins the texts of the two halves of its key in poly.halves(), each
    made once per call.  Any other poly is written by token_lines, the
    reference."""
    n = poly.nvars
    if n:
        h = n // 2
        rows, rights = poly.halves()
        # (degree, text) of each left half and of each right half by number
        lefts = [_half_row(0, "0 " * h, left) for left in rows]
        rights = [_half_row(h, "0 " * (n - h - 1) + "0", right) for right in rights]
        if (None not in lefts and None not in rights
                and max(lefts, default=(0,))[0] + max(rights, default=(0,))[0]
                <= sys.maxunicode):
            fmt = _format(poly)
            heads = _Memo(lambda c: "term %s " % fmt(c))
            records = []
            for (degree, left), row in zip(lefts, rows.values()):
                records += [chr(degree + d) + left + right + heads[c]
                            for j, c in row.items() for d, right in (rights[j],)]
            records.sort(reverse=True)
            return [r[2 * n:] + r[1:2 * n] for r in records]
    return token_lines(poly)


def token_lines(poly):
    """The `term` lines of poly, written token by token in the order of
    sorted_keys."""
    fmt = _format(poly)
    row = ["0"] * poly.nvars
    lines = []
    for key in poly.sorted_keys():
        for p, e in pairs(key):
            row[p] = str(e)
        lines.append(("term %s " % fmt(poly.sparse_terms[key]) + " ".join(row)).rstrip())
        for p in key[::2]:
            row[p] = "0"
    return lines


def _format(poly):
    """poly.ring.format_coeff, after the widest parts of poly's payloads
    are formatted: a coefficient too long to write raises, naming the
    widest, before any line."""
    fmt = poly.ring.format_coeff
    if not poly.ring.is_finite:
        for part in map(operator.attrgetter, ("numerator", "denominator")):
            fmt(max(map(abs, map(part, poly.sparse_terms.values())), default=0))
    return fmt


def _half_row(start, zeros, half):
    """(degree, text) of a half of a fixed-width row: zeros, the row of
    its positions from start, with the digit of each exponent of the key
    half; None if an exponent has more than one digit."""
    row = bytearray(zeros, "ascii")
    for p, e in pairs(half):
        if e > 9:
            return None
        row[2 * (p - start)] = 48 + e  # the ASCII digit e
    return sum(half[1::2]), row.decode()


def poly_to_text(poly):
    lines = header_lines(poly.ring, poly.nvars, poly.var_names) + term_lines(poly)
    return "\n".join(lines) + "\n"


def poly_from_text(text):
    """The polynomial of a .poly text, with the reader's cut as its
    halves() where that is the cut of its terms (see the module notes)."""
    reader = Reader()
    terms, rows, numbers = {}, {}, {}
    reader.rows = (terms, lambda key: rows.setdefault(key, {}),
                   lambda key: numbers.setdefault(key, len(numbers)))

    def term(parts, line):
        reader.rows = None  # from here on, every row goes to read_term
        read_term(reader, terms, parts, line)

    reader.read(text, {"term": term})
    if reader.nvars is None:
        raise FormatError("polynomial file needs ring and vars lines")
    poly = SparsePoly._from_payloads(reader.ring, reader.nvars, terms, reader.names,
                                     reduced=True)
    if reader.rows is not None and poly.sparse_terms is terms:
        poly._halves = rows, list(numbers)
    return poly


def save_poly(path, poly, header_comments=()):
    body = poly_to_text(poly)
    head = "".join("# %s\n" % c for c in header_comments)
    with open(path, "w") as fh:
        fh.write(head + body)


def load_poly(path):
    return read_file(path, poly_from_text)


def parse_vector(text, ring):
    """Comma-separated coefficients in the ring's textual encoding; an
    empty or all-blank text is the empty vector, which format_vector
    writes as ""."""
    if not text.strip():
        return ()
    return tuple(ring.parse_coeff(t.strip()) for t in text.split(","))


def format_vector(vec):
    return ",".join(el.ring.format_coeff(el) for el in vec)
