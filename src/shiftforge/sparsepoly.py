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
from functools import partial
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
from .rings import Ring, RingElement

DEFAULT_TERM_CAP = 10 ** 6


def term_cap():
    """Active term budget for expansions and products of expansions."""
    v = os.environ.get("SHIFTFORGE_TERM_CAP")
    try:
        return int(v) if v else DEFAULT_TERM_CAP
    except ValueError:
        raise PreconditionError(
            "SHIFTFORGE_TERM_CAP must be an integer, not %r" % v) from None


def check_term_cap(worst, what, cap=None):
    """Raise CapExceededError, before any work starts, when `what` may
    reach `worst` terms, more than cap (term_cap() when None)."""
    if cap is None:
        cap = term_cap()
    if worst > cap:
        raise CapExceededError("%s may reach %d terms, cap is %d" % (what, worst, cap))


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
    """
    groups = {}
    for key, c in terms.items():
        positions = key[::2]
        if moving.isdisjoint(positions):
            rest, mov = key, ()
        elif moving.issuperset(positions):
            rest, mov = (), key
        else:
            rest = mov = ()
            it = iter(key)
            for p, e in zip(it, it):
                if p in moving:
                    mov += (p, e)
                else:
                    rest += (p, e)
        group = groups.get(rest)
        if group is None:
            groups[rest] = [(mov, c)]
        else:
            group.append((mov, c))
    return groups


def _expansion(mov, offsets, m):
    """The (subkey, coefficient) pairs of the product over the pairs
    (p, e) of mov of (x_p + a_p)^e; a subkey is the flat sparse key of a
    monomial over the positions of mov.

    The coefficients C(e, k) * a^(e-k) of one variable come from a
    Pascal-row recurrence, from k = e down to 0; the running binomial
    stays an exact integer, because the recurrence divides it."""
    partial = [((), 1)]
    for p, e in pairs(mov):
        a = offsets[p]
        if e == 1:  # x_p + a_p, where a_p is a reduced payload already
            opts = (((), a), ((p, 1), 1))
        else:
            opts = []
            binom = 1
            power = 1
            for k in range(e, -1, -1):
                s = binom * power
                opts.append(((p, k) if k else (), s if m is None else s % m))
                binom = binom * k // (e - k + 1)
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
    of it is built.
    """
    m = ring.modulus
    moving = {p for p, a in enumerate(offsets) if a}
    if not moving:
        return dict(terms)
    groups = split_terms(terms, moving)
    sizes = {}  # the monomial count of each distinct moving part
    worst = 0
    for group in groups.values():
        for mov, _ in group:
            size = sizes.get(mov)
            if size is None:
                size = 1
                for e in mov[1::2]:
                    size *= e + 1
                sizes[mov] = size
            worst += size
    check_term_cap(worst, "shifted polynomial")
    # every moving part is expanded once, onto subkeys numbered in the
    # order they first appear, so the sums below hash small ints
    ids = {}
    expansions = {}
    for mov in sizes:
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
    """The moving coefficients of P(X + a), as functions of the shift a.

    P is given by its payload term map and has degree at most 2 in the
    shifted positions.  Terms are grouped by their exponents on the
    unshifted positions, and distinct groups never merge, so the
    monomial count of P(X + a) is a sum over groups.  In a group with
    quadratic part Q, the quadratic terms do not move, the coefficient
    of x_i is the partial derivative of Q at a, and the constant is
    Q(a).  These values are the slots.

    Returns (quadratic, groups): quadratic is the number of terms of
    degree 2 in the shifted positions, and each group is a triple
    (linear, quad, const):
    - linear lists (i, c, deriv) for every shifted x_i of the group,
      ascending in i: the slot of x_i holds c + sum(deriv[j] * a_j);
    - quad maps (i, j), i <= j, to the coefficient of x_i * x_j;
    - const is the constant of Q, or None when its slot is not counted:
      with nonconstant set, in the group whose unshifted exponents are
      all 0.
    """
    zero = ring.canon(0)
    quadratic = 0
    table = []
    for rest, group in split_terms(terms, set(shifted)).items():
        lin = {}
        quad = {}
        const = zero
        for mov, c in group:
            # mov is 1, x_i, x_i^2 or x_i * x_j with i < j
            if not mov:
                const = c
            elif len(mov) == 2 and mov[1] == 1:
                lin[mov[0]] = lin.get(mov[0], zero) + c
            elif mov[1::2] in ((2,), (1, 1)):
                quadratic += 1
                i, j = mov[0], mov[-2]
                quad[i, j] = c
                lin.setdefault(i, zero)
                lin.setdefault(j, zero)
            else:
                raise PreconditionError(
                    "term %r has degree above 2 in the shifted positions"
                    % (map_key(dict(pairs(rest + mov))),))
        deriv = {i: {} for i in lin}
        for (i, j), c in quad.items():
            if i == j:
                c = ring.canon(2 * c)
                if c:
                    deriv[i][i] = c
            else:
                deriv[j][i] = c
                deriv[i][j] = c
        linear = [(i, lin[i], deriv[i]) for i in sorted(lin)]
        if nonconstant and not rest:
            const = None
        table.append((linear, quad, const))
    return quadratic, table


def shift_counts(ring, terms, shifted, walk, nonconstant=False):
    """Monomial counts of P(X + a) along a walk of shifts, without expanding.

    P is given by its payload term map and has degree at most 2 in the
    shifted positions.  The shift a starts at zero; each step of the walk
    is (changes, tag), where changes is a sequence of (position, payload)
    pairs, all at shifted positions, that move a to the next point.  For
    every step this yields (count, tag): the number of monomials of
    P(X + a), or of its nonconstant monomials when nonconstant is set.

    The slots are those of slot_table; a step touches only the slots
    next to the positions it changes.
    """
    m = ring.modulus
    shifted = set(shifted)
    quadratic, table = slot_table(ring, terms, shifted, nonconstant)
    zero = ring.canon(0)
    slots = []  # current slot values
    const_steps = {}  # j -> [(constant slot, slot of x_j, coefficient of x_j^2)]
    lin_steps = {}  # j -> [(slot of x_i, coefficient of the change in a_j)]
    for linear, quad, const in table:
        slot_of = {}
        for i, c, deriv in linear:
            slot_of[i] = len(slots)
            for j, d in deriv.items():
                lin_steps.setdefault(j, []).append((slot_of[i], d))
            slots.append(c)
        if const is None:
            continue
        cslot = len(slots)
        slots.append(const)
        for i, s in slot_of.items():
            const_steps.setdefault(i, []).append((cslot, s, quad.get((i, i), zero)))

    a = {j: zero for j in shifted}
    nonzero = sum(1 for v in slots if v)
    for changes, tag in walk:
        for j, v in changes:
            d = v - a[j]
            if not d:
                continue
            a[j] = v
            # Q(a + d e_j) = Q(a) + d * dQ/dx_j(a) + q_jj * d^2, so the
            # constants move first, while the x_j slots still hold the
            # derivatives at the old point
            for cs, ls, q in const_steps.get(j, ()):
                old = slots[cs]
                new = old + d * (slots[ls] + q * d)
                if m is not None:
                    new %= m
                slots[cs] = new
                nonzero += (new != 0) - (old != 0)
            for s, q in lin_steps.get(j, ()):
                old = slots[s]
                new = old + q * d
                if m is not None:
                    new %= m
                slots[s] = new
                nonzero += (new != 0) - (old != 0)
        yield quadratic + nonzero, tag


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
    def _from_payloads(cls, ring, nvars, terms, var_names):
        """Trusted constructor for producers that hold valid keys.

        terms maps keys over nvars variables, each once, to raw payloads
        of ring; the payloads are reduced with ring.canon and zeros are
        dropped.  The keys are not checked.
        """
        self = cls.__new__(cls)
        self._canonicalize(ring, nvars, terms, catalog_names(nvars, var_names))
        return self

    def _canonicalize(self, ring, nvars, terms, var_names):
        # the one place that reduces coefficients and drops zeros
        self.ring = ring
        self.nvars = nvars
        self.var_names = var_names
        canon = ring.canon
        self.sparse_terms = {k: v for k, c in terms.items() if (v := canon(c))}

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
        one pass by (degree, pairs)."""
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

    def mul(self, other, cap=None):
        """The product; cap overrides term_cap() for its bound."""
        self._align(other)
        mine, theirs = self.sparse_terms, other.sparse_terms
        check_term_cap(len(mine) * len(theirs), "product", cap)
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
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)

    def shift(self, offsets):
        """P(X + a) for a vector a of ring elements, expanded and reduced."""
        vals = self.ring.payloads(offsets, self.nvars, "shift vector")
        out = shifted_term_map(self.ring, self.sparse_terms, vals)
        return SparsePoly._from_payloads(self.ring, self.nvars, out, self.var_names)

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
        return SparsePoly._from_payloads(self.ring, nvars, out, var_names)

    def rename(self, var_names):
        return SparsePoly._from_payloads(self.ring, self.nvars, self.sparse_terms, var_names)

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
# '#' starts a comment; duplicate exponent vectors are rejected.


class Reader:
    """The line reader of every file format, with the header rule they share.

    read() calls the handler of each statement's first word with (parts,
    line), after the header rule: `ring` comes first and once, and `vars`
    (if the format has it) once, before any other statement.  Structured
    comments go to their handlers last, when the ring is known.  A
    FormatError raised while a line is handled names the line.
    """

    __slots__ = ("ring", "nvars", "names", "lineno", "vars_line")

    def __init__(self, vars_line=True):
        self.ring = self.nvars = self.names = self.lineno = None
        self.vars_line = vars_line

    def lines(self, text, notes=None):
        """Yield (parts, line) per statement line; comment lines go to notes."""
        for self.lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line.split(), line
            elif notes is not None and "#" in raw:
                line = raw.strip()
                notes.append((self.lineno, line[1:].split(), line))

    def read(self, text, statements, comments=()):
        notes = []
        try:
            for parts, line in self.lines(text, notes):
                key = parts[0]
                handler = statements.get(key)
                if key == "ring":
                    if self.ring is not None:
                        raise FormatError("duplicate ring line")
                    self.ring = Ring.from_token(parts[1:])
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
    """Add a `term` line to terms, a map from keys to payloads."""
    if len(parts) != 2 + reader.nvars:
        raise FormatError("term line needs %d exponents" % reader.nvars)
    coef = reader.ring.parse_payload(parts[1])
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
    key = tuple(key)
    if key in terms:
        exps = repr(dense_exps(key, reader.nvars))
        if len(exps) > QUOTE_LIMIT:
            exps = quoted(exps)
        raise FormatError("duplicate exponent vector %s" % exps)
    terms[key] = coef


def header_lines(ring, nvars, names=()):
    """The `ring` and `vars` lines of a file."""
    head = "vars %d" % nvars
    if names:
        head += " " + " ".join(names)
    return ["ring " + ring.token(), head]


def term_lines(poly):
    """The `term` lines of poly, in graded-lexicographic descending order."""
    fmt = poly.ring.format_coeff
    row = ["0"] * poly.nvars
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
    reader.read(text, {"term": partial(read_term, reader, terms)})
    if reader.nvars is None:
        raise FormatError("polynomial file needs ring and vars lines")
    return SparsePoly._from_payloads(reader.ring, reader.nvars, terms, reader.names)


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
