"""Sparse 3-variable linear systems and their quadratic shift encodings.

A system is m rows c1*x_j1 + c2*x_j2 + c3*x_j3 + b = 0 over n variables,
three distinct indices and nonzero coefficients per row.  The encoding
places the coefficient matrix in the top-right block of a w-by-w matrix
C with w = max(2n, 2m), so row i of the system becomes quadratic terms
y_i * y_(w-n+j), plus linear terms from the row constants and one free
constant term:

    sum C[i][j]*y_i*y_j  +  sum e_i*y_i  +  e_0

Under a shift a, the coefficient of y_i becomes
e_i + sum_j a_j*(C[i][j] + C[j][i]); for i <= m that is exactly row i of
the system evaluated at the last n coordinates of a, so unsatisfied rows
show up as surviving linear monomials.
"""

from __future__ import annotations

import random

from .errors import ArityError, FormatError, PreconditionError, RingMismatchError
from .rings import RingElement
from .sparsepoly import (
    Reader,
    SparsePoly,
    check_term_cap,
    format_vector,
    header_lines,
    parse_int,
    parse_vector,
    read_file,
)

_COEFF_RANGE = 3  # nonzero draws from [-3, 3] over the infinite rings


class Max3LinSystem:
    __slots__ = ("ring", "n", "rows", "meta")

    def __init__(self, ring, n, rows, meta=None):
        if n < 0:
            raise PreconditionError("negative variable count")
        self.ring = ring
        self.n = n
        checked = []
        for idx, coeffs, b in rows:
            idx = tuple(idx)
            coeffs = tuple(coeffs)
            if len(idx) != 3 or len(coeffs) != 3:
                raise PreconditionError("rows take exactly three variables")
            if len(set(idx)) != 3:
                raise PreconditionError("row indices must be distinct")
            if any(not 0 <= j < n for j in idx):
                raise ArityError("row index out of range")
            for c in coeffs + (b,):
                if not isinstance(c, RingElement) or c.ring != ring:
                    raise RingMismatchError("row entry from a different ring")
            if any(c.is_zero for c in coeffs):
                raise PreconditionError("row coefficients must be nonzero")
            checked.append((idx, coeffs, b))
        self.rows = tuple(checked)
        self.meta = meta

    @property
    def m(self):
        return len(self.rows)

    @property
    def w(self):
        return max(2 * self.n, 2 * self.m)

    def row_value(self, i, x):
        idx, coeffs, b = self.rows[i]
        acc = b
        for j, c in zip(idx, coeffs):
            acc = acc + c * x[j]
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Max3LinSystem)
            and self.ring == other.ring
            and self.n == other.n
            and self.rows == other.rows
        )


def count_satisfied(system, x):
    """Rows of the system that vanish at the assignment x."""
    vals = system.ring.payloads(x, system.n, "assignment")
    canon = system.ring.canon
    satisfied = 0
    for (j1, j2, j3), (c1, c2, c3), b in system.rows:
        satisfied += not canon(b.val + c1.val * vals[j1] + c2.val * vals[j2]
                               + c3.val * vals[j3])
    return satisfied


class QuadraticEncoding:
    """The encoded polynomial with its matrix/vector bookkeeping."""

    __slots__ = ("polynomial", "w", "cmatrix", "evec", "e0", "source")

    def __init__(self, polynomial, w, cmatrix, evec, e0, source):
        self.polynomial = polynomial
        self.w = w
        self.cmatrix = cmatrix
        self.evec = evec
        self.e0 = e0
        self.source = source


def encode_max3lin(system, e0=None):
    """Build the quadratic shift encoding of a 3-sparse linear system.

    The monomial count is at most 4m + 1: three quadratic and one linear
    term per row, plus the constant e_0 (default 1).  Both it and the
    w variables are bounded by term_cap() before anything is built, as
    the readers bound them.
    """
    ring = system.ring
    check_term_cap(system.w, "the encoding's variables")
    check_term_cap(4 * system.m + 1, "the encoding")
    if e0 is None:
        e0 = ring.one
    if not isinstance(e0, RingElement) or e0.ring != ring:
        raise RingMismatchError("e0 from a different ring")
    n, m, w = system.n, system.m, system.w
    cmatrix = {}
    evec = [ring.zero] * w
    for i, (idx, coeffs, b) in enumerate(system.rows):
        for j, c in zip(idx, coeffs):
            cmatrix[(i, w - n + j)] = c
        evec[i] = b
    # a row index i < m stays below every column position w - n + j
    terms = {(i, 1, j, 1): c.val for (i, j), c in cmatrix.items()}
    for i, e in enumerate(evec):
        terms[(i, 1)] = e.val
    terms[()] = e0.val
    names = ["y%d" % (i + 1) for i in range(w)]
    poly = SparsePoly._from_payloads(ring, w, terms, names)
    return QuadraticEncoding(poly, w, cmatrix, tuple(evec), e0, system)


def shifted_linear_coeff(enc, a, i):
    """Coefficient of y_i (i counted from 1) in the encoded polynomial
    after the shift a, by the closed formula instead of expansion."""
    a = list(a)
    enc.polynomial.ring.payloads(a, enc.w, "shift")
    if not 1 <= i <= enc.w:
        raise ArityError("variable index %d out of range" % i)
    i0 = i - 1
    acc = enc.evec[i0]
    for (r, c), v in enc.cmatrix.items():
        if r == i0:
            acc = acc + a[c] * v
        if c == i0:
            acc = acc + a[r] * v
    return acc


def embed_assignment(system, x):
    """Place an assignment on the last n of the w encoding coordinates,
    zero elsewhere."""
    x = list(x)
    if len(x) != system.n:
        raise ArityError(
            "assignment of length %d for %d variables" % (len(x), system.n)
        )
    return tuple([system.ring.zero] * (system.w - system.n) + x)


def project_assignment(system, a):
    """The last n coordinates of an encoding-space vector."""
    a = list(a)
    if len(a) != system.w:
        raise ArityError("vector of length %d for %d coordinates" % (len(a), system.w))
    return tuple(a[system.w - system.n:])


def gen_max3lin(n, m, ring, planted=False, noise_count=0, seed=0):
    """Deterministic random system: per row, three distinct indices and
    nonzero coefficients.  With planted=True the recorded assignment
    satisfies all rows except exactly noise_count perturbed ones.  Over
    the infinite rings all draws come from [-3, 3].  n and m are at most
    the term cap, checked before anything is drawn: the readers refuse
    more variables, and the encoding has 4m + 1 terms."""
    if n < 3:
        raise PreconditionError("need at least 3 variables")
    if m < 0 or noise_count < 0 or noise_count > m:
        raise PreconditionError("noise count must lie in [0, m]")
    if not planted and noise_count:
        raise PreconditionError("noise requires a planted assignment")
    check_term_cap(n, "the system's variables")
    check_term_cap(m, "the system's rows")
    rng = random.Random(seed)
    if ring.is_finite:
        nonzero = list(range(1, ring.modulus))
        values = list(range(ring.modulus))
    else:
        nonzero = [v for v in range(-_COEFF_RANGE, _COEFF_RANGE + 1) if v]
        values = list(range(-_COEFF_RANGE, _COEFF_RANGE + 1))
    plant = tuple(ring.el(rng.choice(values)) for _ in range(n)) if planted else None
    rows = []
    for _ in range(m):
        idx = tuple(sorted(rng.sample(range(n), 3)))
        coeffs = tuple(ring.el(rng.choice(nonzero)) for _ in range(3))
        if planted:
            b = ring.zero
            for j, c in zip(idx, coeffs):
                b = b - c * plant[j]
        else:
            b = ring.el(rng.choice(values))
        rows.append((idx, coeffs, b))
    noisy = sorted(rng.sample(range(m), noise_count)) if noise_count else []
    for i in noisy:
        idx, coeffs, b = rows[i]
        rows[i] = (idx, coeffs, b + ring.el(rng.choice(nonzero)))
    meta = {"seed": seed, "planted": plant, "noise": noise_count}
    return Max3LinSystem(ring, n, rows, meta)


# -- file format --------------------------------------------------------
#
#   ring ...
#   vars <n>
#   eq <j1> <c1> <j2> <c2> <j3> <c3> <b>     (variable indices are 1-based)
#
# Generated instances carry their provenance up front:
#   # seed <s>
#   # planted <c,...>
#   # noise <k>


def max3lin_to_text(system):
    lines = []
    meta = system.meta or {}
    if "seed" in meta:
        lines.append("# seed %d" % meta["seed"])
    if meta.get("planted") is not None:
        lines.append("# planted %s" % format_vector(meta["planted"]))
    if "noise" in meta:
        lines.append("# noise %d" % meta["noise"])
    lines.extend(header_lines(system.ring, system.n))
    fmt = system.ring.format_coeff
    for idx, coeffs, b in system.rows:
        flat = []
        for j, c in zip(idx, coeffs):
            flat.append(str(j + 1))
            flat.append(fmt(c))
        lines.append("eq %s %s" % (" ".join(flat), fmt(b)))
    return "\n".join(lines) + "\n"


def max3lin_from_text(text):
    reader = Reader()
    rows = []
    meta = {}

    def count_only(parts, line):
        if reader.names is not None:
            raise FormatError("vars line takes one count")

    def eq(parts, line):
        if len(parts) != 8:
            raise FormatError("eq lines need 3 index/coefficient pairs and a constant")
        idx = tuple(parse_int(j, line) for j in parts[1:7:2])
        for j in idx:
            if not 1 <= j <= reader.nvars:
                raise FormatError("variable index %d out of range" % j)
        coeffs = tuple(map(reader.ring.parse_coeff, parts[2:7:2]))
        rows.append((tuple(j - 1 for j in idx), coeffs, reader.ring.parse_coeff(parts[7])))

    def provenance(words, line):
        if len(words) == 2:
            key, value = words
            meta[key] = (parse_vector(value, reader.ring) if key == "planted"
                         else parse_int(value, line))

    comments = dict.fromkeys(("seed", "noise", "planted"), provenance)
    reader.read(text, {"vars": count_only, "eq": eq}, comments)
    if reader.nvars is None:
        raise FormatError("system file needs ring and vars lines")
    return Max3LinSystem(reader.ring, reader.nvars, rows, meta or None)


def save_max3lin(path, system):
    with open(path, "w") as fh:
        fh.write(max3lin_to_text(system))


def load_max3lin(path):
    return read_file(path, max3lin_from_text)
