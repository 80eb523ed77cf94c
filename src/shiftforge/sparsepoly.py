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
constructor `SparsePoly._from_payloads`, which only canonicalizes.
"""

from __future__ import annotations

import operator
import os
import re
import sys
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


def split_terms(terms, moving):
    """Group a payload term map by the unshifted part of every key.

    moving is the set of shifted positions.  Returns a map from rest to
    the list of (mov, c) of its terms, in the order the terms come: rest
    holds a key's pairs off moving and mov its pairs on moving, both
    flat sparse keys.  A shift changes only the mov part of a monomial,
    so the terms of two groups never merge, and the monomials of P(X + a)
    are the union of those of its groups.

    A key with pairs both on and off moving is split by the itemgetters
    of _selectors, looked up by its moving-flag mask: one byte per pair,
    translated from its positions through a table of the moving ones
    below 256, or built pair by pair when a position is 256 or more.
    """
    groups = {}
    table = None
    for key, c in terms.items():
        positions = key[::2]
        if moving.isdisjoint(positions):
            rest, mov = key, ()
        elif moving.issuperset(positions):
            rest, mov = (), key
        else:
            if table is None:
                table = bytearray(256)
                for p in moving:
                    if p < 256:
                        table[p] = 1
            try:
                mask = bytes(positions).translate(table)
            except ValueError:  # a position of 256 or more
                mask = bytes(p in moving for p in positions)
            off, on = _selectors(mask)
            rest, mov = off(key), on(key)
        group = groups.get(rest)
        if group is None:
            groups[rest] = [(mov, c)]
        else:
            group.append((mov, c))
    return groups


@lru_cache(maxsize=4096)
def _selectors(mask):
    """The itemgetters of the pairs of a key off and on moving, for a
    mask with a 0 byte per pair off moving and a 1 byte per pair on it,
    at least one of each."""
    off = [i for j, f in enumerate(mask) if not f for i in (2 * j, 2 * j + 1)]
    on = [i for j, f in enumerate(mask) if f for i in (2 * j, 2 * j + 1)]
    return operator.itemgetter(*off), operator.itemgetter(*on)


# one entry is a moving part and its count: a few MB at most
@lru_cache(maxsize=4096)
def _size(mov):
    """The monomial count of a moving part under a shift: the product of
    e + 1 over its pairs."""
    size = 1
    for e in mov[1::2]:
        size *= e + 1
    return size


def _moving_parts(groups):
    """The distinct moving parts of the split_terms groups, in the order
    they first come.  Raises CapExceededError, before anything is
    expanded, when the sum over the terms of their sizes exceeds
    term_cap()."""
    movs = [mov for group in groups.values() for mov, _ in group]
    check_term_cap(sum(map(_size, movs)), "shifted polynomial")
    return dict.fromkeys(movs)


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


def _expansion(mov, offsets, m):
    """The (subkey, coefficient) pairs of the product over the pairs
    (p, e) of mov of (x_p + a_p)^e; a subkey is the flat sparse key of a
    monomial over the positions of mov.  The coefficients of one variable
    are C(e, k) * a^(e-k), from k = 0 up, C(e, k) from _binomials."""
    partial = [((), 1)]
    for p, e in pairs(mov):
        a = offsets[p]
        if e == 1:  # x_p + a_p, where a_p is a reduced payload already
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


def shifted_term_map(ring, terms, offsets):
    """Term map of P(X + a) from a payload term map and payload offsets.

    The terms, nonzero reduced payloads as sparse_terms holds them, are
    grouped by their unshifted part with split_terms.  Each distinct
    moving part is expanded by the binomial theorem once per call
    (_expansion), however many groups hold it; a group sums its
    expansions on the short moving subkeys, and only the nonzero sums
    are merged with the group's rest into full keys.  A term with no
    moving part, alone in its group, is its own output.  When the
    expansion may have more than term_cap() monomials, the sum over
    terms (not over distinct moving parts) of the product of (e + 1)
    over their moving variables, CapExceededError is raised before any
    of it is built.  The map holds reduced nonzero payloads, as
    sparse_terms does.
    """
    m = ring.modulus
    moving = {p for p, a in enumerate(offsets) if a}
    if not moving:
        return dict(terms)
    groups = split_terms(terms, moving)
    # every moving part is expanded once, onto subkeys numbered in the
    # order they first appear, so the sums below hash small ints
    ids = {}
    expansions = {}
    for mov in _moving_parts(groups):
        expansions[mov] = [(ids.setdefault(sub, len(ids)), s)
                           for sub, s in _expansion(mov, offsets, m)]
    subs = list(ids)
    tails = [None] * len(subs)  # the pairs of each subkey, as merges need them
    out = {}
    for rest, group in groups.items():
        if len(group) == 1 and not group[0][0]:
            out[rest] = group[0][1]  # a term alone in its group, unshifted
            continue
        head = None  # the pairs of rest, as merges need them
        acc = {}
        for mov, c in group:
            for i, s in expansions[mov]:
                acc[i] = acc.get(i, 0) + c * s
        for i, v in acc.items():
            if m is not None:
                v %= m
            if not v:
                continue
            sub = subs[i]
            # keys on disjoint ordered position ranges concatenate
            if not rest or not sub or rest[-2] < sub[0]:
                out[rest + sub] = v
            elif sub[-2] < rest[0]:
                out[sub + rest] = v
            else:
                if head is None:
                    head = list(pairs(rest))
                tail = tails[i]
                if tail is None:
                    tail = tails[i] = list(pairs(sub))
                out[tuple(chain.from_iterable(sorted(head + tail)))] = v
    return out


def slot_table(ring, terms, shifted, nonconstant=False):
    """The coefficients of P(X + a), as polynomials in the shift a.

    P is given by its payload term map, and a moves the positions in
    `shifted`.  Terms are grouped by their unshifted part with
    split_terms, and distinct groups never merge.  In a group, the
    coefficient of the shifted monomial m is its slot,

        sum over the group's terms c * x^t with t >= m of
        c * prod_i C(t_i, m_i) * a^(t - m),

    so the monomial count of P(X + a) is the number of nonzero slots.
    Distinct terms t give distinct keys t - m, so nothing merges.  A slot
    is (const, [(c, key)]), the value const plus the sum of c * a^key
    over flat sparse keys.

    Returns (fixed, slots): fixed counts the slots that are nonzero
    constants, such as the coefficient of a top-degree term, and slots
    lists the others that are not identically 0.  With nonconstant set,
    the constant of the group whose unshifted part is () is left out.
    The table has at most the entries of the worst-case expansion,
    checked first as shifted_term_map checks it.
    """
    m = ring.modulus
    zero = ring.canon(0)
    groups = split_terms(terms, set(shifted))
    expansions = {mov: _submonomials(mov) if _size(mov) <= 32
                  else _submonomials.__wrapped__(mov)
                  for mov in _moving_parts(groups)}
    fixed = 0
    slots = []
    for rest, group in groups.items():
        consts = {}  # m -> c for each term c * x^m of the group
        table = {}  # m -> the nonconstant part of its slot
        drop = nonconstant and not rest  # leave out the slot of m = ()
        for mov, c in group:
            consts[mov] = c
            # the first part of an expansion is the one of m = ()
            for sub, key, b in expansions[mov][drop:]:
                if b != 1:
                    v = c * b if m is None else c * b % m
                    if not v:
                        continue
                else:
                    v = c
                part = table.get(sub)
                if part is None:
                    table[sub] = [(v, key)]
                else:
                    part.append((v, key))
        if drop:
            consts.pop((), None)
        for sub, part in table.items():
            slots.append((consts.pop(sub, zero), part))
        fixed += len(consts)
    return fixed, slots


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

    __slots__ = ("ring", "nvars", "sparse_terms", "var_names")

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
        """
        self = cls.__new__(cls)
        self._canonicalize(ring, nvars, terms, catalog_names(nvars, var_names),
                           reduced)
        return self

    def _canonicalize(self, ring, nvars, terms, var_names, reduced=False):
        # the one place that reduces coefficients and drops zeros, in one
        # comprehension per ring kind; only Q calls canon per term
        self.ring = ring
        self.nvars = nvars
        self.var_names = var_names
        m = ring.modulus
        if reduced or ring.kind == INTEGERS:
            self.sparse_terms = {k: c for k, c in terms.items() if c}
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
        return out

    @property
    def terms(self):
        """The term map with dense exponent vectors as keys."""
        n = self.nvars
        return {dense_exps(k, n): c for k, c in self.sparse_terms.items()}

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
        """The product, bounded by term_cap()."""
        self._align(other)
        mine, theirs = self.sparse_terms, other.sparse_terms
        check_term_cap(len(mine) * len(theirs), "product")
        # operands on disjoint ordered position ranges, such as the
        # copies amplify multiplies, give distinct concatenated keys
        if _ends_before(mine, theirs):
            out = {k1 + k2: c1 * c2 for k1, c1 in mine.items()
                   for k2, c2 in theirs.items()}
        elif _ends_before(theirs, mine):
            out = {k2 + k1: c1 * c2 for k1, c1 in mine.items()
                   for k2, c2 in theirs.items()}
        else:
            out = self._product(mine, theirs)
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)

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
        out = shifted_term_map(self.ring, self.sparse_terms, vals)
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
# '#' starts a comment; duplicate exponent vectors are rejected.  Terms
# are written in graded-lex descending order, one space between tokens,
# so when every exponent is one digit a row is fixed-width: term_lines
# builds and sorts such rows as strings, and Reader.lines reads each run
# of 8 or more of them in one regular-expression pass.  Any other row is
# written and read token by token, by read_term.

# the fewest and the most rows one pass of Reader.lines takes: below 8
# rows its fixed cost (memos, two passes, the term map of the run) is
# more than reading them token by token costs, and 1024 rows keep the
# strings one pass holds at once small
RUN_ROWS = (8, 1024)


class _Memo(dict):
    """A dict that fills a missing key k with fill(k)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


@lru_cache(maxsize=32)
def _row_patterns(n):
    """(run, row, width) for fixed-width term rows over n > 0 variables.

    row matches one row `term c e e ... e` and its newline, with a group
    for the coefficient and one for each chunk of `width` positions (at
    most 64 chunks); run matches as many rows as RUN_ROWS allows at a
    line start, so findall of row over a run gives its rows.  Both use
    only repeats of one character class, which the regular-expression
    engine runs fastest, so they let through rows whose coefficient or
    spacing is wrong: parse_payload and _chunk_key check those, once
    per distinct token."""
    width = max(8, -(-n // 64))

    def row(group):  # group opens "(" to capture or "(?:" not to
        return ("term %s[-0-9/]+)" % group
                + "".join(" %s[0-9 ]{%d})" % (group, 2 * min(width, n - s) - 1)
                          for s in range(0, n, width))
                + "\n")

    return (re.compile("^(?:%s){%d,%d}" % ((row("(?:"),) + RUN_ROWS), re.M),
            re.compile(row("(")), width)


def _chunk_key(start, chunk):
    """The key of one chunk `e e ... e` of a fixed-width row, whose first
    exponent is that of position start; ValueError when the chunk is not
    one-digit exponents with one space between them."""
    if chunk[1::2].strip(" "):  # a digit where a space belongs
        raise ValueError("not a fixed-width chunk")
    key = []
    for p, e in enumerate(chunk[::2], start):
        if e != "0":
            key += (p, int(e))  # int(" ") raises ValueError
    return tuple(key)


class Reader:
    """The line reader of every file format, with the header rule they share.

    read() calls the handler of each statement's first word with (parts,
    line), after the header rule: `ring` comes first and once, and `vars`
    (if the format has it) once, before any other statement.  Structured
    comments go to their handlers last, when the ring is known.  A
    FormatError raised while a line is handled names the line.
    """

    __slots__ = ("ring", "nvars", "names", "lineno", "vars_line",
                 "payloads", "chunks")

    def __init__(self, vars_line=True):
        self.ring = self.nvars = self.names = self.lineno = None
        self.vars_line = vars_line
        # the memos of both term paths, filled once the ring and the
        # variable count are known: coefficient tokens to payloads, and
        # for each chunk of a fixed-width row, its digits to its key
        self.payloads = self.chunks = None

    def lines(self, text, notes=None, rows=None):
        """Yield (parts, line) per statement line; comment lines go to notes.

        With rows given, once nvars is known, each run of fixed-width
        term rows (see _row_patterns) at a line start is offered to
        rows(), which returns the term map they belong in, or None.  The
        run is read into that map here, and none of its lines is
        yielded, unless a coefficient is bad or a key is in the map
        already or comes twice; then, as every other line, its rows are
        yielded one by one, for read_term to read or to reject with
        their own line numbers."""
        self.lineno = 0
        for part in self._parts(text, rows):
            for raw in part.splitlines():
                self.lineno += 1
                line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
                if line:
                    yield line.split(), line
                elif notes is not None and "#" in raw:
                    line = raw.strip()
                    notes.append((self.lineno, line[1:].split(), line))

    def _parts(self, text, rows):
        # the stretches of text that lines() reads line by line: all of
        # it but the runs that _take reads
        pos = 0
        end = len(text)
        while pos < end:
            run = None
            if rows is None or self.nvars == 0:
                stop = end
            elif self.nvars is None:  # the header, up to the first term row
                stop = text.find("\nterm ", pos) + 1 or end
            else:
                run = _row_patterns(self.nvars)[0].search(text, pos)
                stop = end if run is None else run.start()
            yield text[pos:stop]
            pos = stop
            if run is not None:
                pos = run.end()
                if not self._take(text, stop, pos, rows()):
                    yield text[stop:pos]

    def _take(self, text, pos, stop, terms):
        """Read the run of fixed-width rows text[pos:stop] into terms in
        one pass; False, with terms as they were, if terms is None or the
        rows cannot all be taken."""
        if terms is None:
            return False
        _, row, width = _row_patterns(self.nvars)
        if self.chunks is None:
            self.chunks = [_Memo(partial(_chunk_key, s))
                           for s in range(0, self.nvars, width)]
        cols = zip(*row.findall(text, pos, stop))
        try:
            coefs = list(map(self.payloads.__getitem__, next(cols)))
            keys = map(self.chunks[0].__getitem__, next(cols))
            for memo, col in zip(self.chunks[1:], cols):
                keys = map(operator.add, keys, map(memo.__getitem__, col))
            run = dict(zip(keys, coefs))
        except (FormatError, ValueError):  # a bad coefficient or chunk
            return False
        if len(run) < len(coefs) or not terms.keys().isdisjoint(run):
            return False
        terms.update(run)
        self.lineno += len(coefs)
        return True

    def read(self, text, statements, comments=(), rows=None):
        """Handle the statements of text; rows is as for lines()."""
        notes = []
        try:
            for parts, line in self.lines(text, notes, rows):
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
    to payloads.  Runs of fixed-width rows are read by Reader.lines to
    the same keys, through the same coefficient memo."""
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

    When poly has variables, every exponent is one digit and every degree
    is at most sys.maxunicode, a line is a head `term <coef> ` and a
    fixed-width row `e1 e2 ... ek`, whose byte 2p is the digit of
    position p; the records chr(degree) + row + head sort as strings,
    descending, into that order (by degree, then row), and rows are
    unique, so the head never decides.  Any other poly is written token
    by token in the order of sorted_keys, the reference."""
    n = poly.nvars
    fmt = poly.ring.format_coeff
    if not poly.ring.is_finite:  # the widest parts first, before any line
        for part in map(operator.attrgetter, ("numerator", "denominator")):
            fmt(max(map(abs, map(part, poly.sparse_terms.values())), default=0))
    if n:
        zeros = b"0 " * (n - 1) + b"0"
        heads = {}
        records = []
        for key, c in poly.sparse_terms.items():
            exps = key[1::2]
            degree = sum(exps)
            if degree > 9 and (max(exps) > 9 or degree > sys.maxunicode):
                break  # written token by token below
            row = bytearray(zeros)
            for p, e in pairs(key):
                row[2 * p] = 48 + e  # the ASCII digit e
            head = heads.get(c)
            if head is None:
                head = heads[c] = "term %s " % fmt(c)
            records.append(chr(degree) + row.decode() + head)
        else:
            records.sort(reverse=True)
            return [r[2 * n:] + r[1:2 * n] for r in records]
    row = ["0"] * n
    lines = []
    for key in poly.sorted_keys():
        for p, e in pairs(key):
            row[p] = str(e)
        lines.append(("term %s " % fmt(poly.sparse_terms[key]) + " ".join(row)).rstrip())
        for p in key[::2]:
            row[p] = "0"
    return lines


def poly_to_text(poly):
    lines = header_lines(poly.ring, poly.nvars, poly.var_names) + term_lines(poly)
    return "\n".join(lines) + "\n"


def poly_from_text(text):
    reader = Reader()
    terms = {}
    reader.read(text, {"term": partial(read_term, reader, terms)},
                rows=lambda: terms)
    if reader.nvars is None:
        raise FormatError("polynomial file needs ring and vars lines")
    return SparsePoly._from_payloads(reader.ring, reader.nvars, terms, reader.names,
                                     reduced=True)


def save_poly(path, poly, header_comments=()):
    body = poly_to_text(poly)
    head = "".join("# %s\n" % c for c in header_comments)
    with open(path, "w") as fh:
        fh.write(head + body)


def load_poly(path):
    return read_file(path, poly_from_text)


def parse_vector(text, ring):
    """Comma-separated coefficients in the ring's textual encoding."""
    items = [t.strip() for t in text.split(",")]
    return tuple(ring.parse_coeff(t) for t in items)


def format_vector(vec):
    return ",".join(el.ring.format_coeff(el) for el in vec)
