"""Exact coefficient arithmetic over the four supported scalar domains.

Supported domains: the integers Z, the rationals Q, prime fields F_p and
modular rings Z_q (q >= 2, not necessarily prime).  Elements are kept in
canonical form at all times: fractions in lowest terms with positive
denominator, residues in [0, modulus).  Integer payloads are arbitrary
precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    ArityError,
    CapExceededError,
    FormatError,
    PreconditionError,
    RingMismatchError,
    quoted,
)

INTEGERS = "Z"
RATIONALS = "Q"
PRIME_FIELD = "Fp"
MODULAR_RING = "Zq"

_KINDS = (INTEGERS, RATIONALS, PRIME_FIELD, MODULAR_RING)


# Miller-Rabin with the primes up to 41 as bases is deterministic for
# every n below this bound (Sorenson & Webster 2015, psi_13)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_MODULUS_BOUND = 3317044064679887385961981
# the most decimal digits of a number that is written: CPython's default
# int_max_str_digits, fixed here, so that the rule is the same where that
# limit is missing (Python 3.10.0 to 3.10.6)
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS


def _is_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= PRIME_MODULUS_BOUND:
        raise PreconditionError(
            "primality is decided only below %d" % PRIME_MODULUS_BOUND
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def decimal_text(v, what):
    """str(v) of an int or a Fraction; CapExceededError, stating the size
    of `what`, when a part has more than MAX_DIGITS digits."""
    for part in (v.numerator, v.denominator):
        if not -_TOO_LONG < part < _TOO_LONG:
            raise CapExceededError("%s has more than %d digits (%d bits)"
                                   % (what, MAX_DIGITS, part.bit_length()))
    return str(v)


class Ring:
    """A coefficient domain and its arithmetic on raw payloads."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind, modulus=None):
        if kind not in _KINDS:
            raise FormatError("unknown ring kind %r" % (kind,))
        if kind in (PRIME_FIELD, MODULAR_RING):
            if not isinstance(modulus, int) or modulus < 2:
                raise FormatError("modulus must be an integer >= 2")
            if kind == PRIME_FIELD and modulus >= PRIME_MODULUS_BOUND:
                raise FormatError(
                    "prime-field modulus must be below %d" % PRIME_MODULUS_BOUND
                )
            if kind == PRIME_FIELD and not _is_prime(modulus):
                raise FormatError("%d is not prime" % modulus)
        elif modulus is not None:
            raise ValueError("%s takes no modulus" % kind)
        self.kind = kind
        self.modulus = modulus

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return "Ring(%s)" % self.token()

    @property
    def is_finite(self):
        return self.modulus is not None

    def canon(self, v):
        """Reduce a raw payload to canonical form."""
        if self.modulus is not None:
            return v % self.modulus
        if self.kind == RATIONALS:
            return v if isinstance(v, Fraction) else Fraction(v)
        return v

    def el(self, v):
        """Wrap a payload (int, or Fraction over Q) as an element."""
        if self.kind == INTEGERS and not isinstance(v, int):
            raise TypeError("integer payload required, got %r" % (v,))
        if self.kind == RATIONALS and not isinstance(v, (int, Fraction)):
            raise TypeError("rational payload required, got %r" % (v,))
        if self.modulus is not None and not isinstance(v, int):
            raise TypeError("residue payload required, got %r" % (v,))
        return RingElement(self, self.canon(v))

    @property
    def zero(self):
        return RingElement(self, self.canon(0))

    @property
    def one(self):
        return RingElement(self, self.canon(1))

    def payloads(self, vec, n, what):
        """The payloads of vec, which must hold n elements of this ring;
        `what` names the vector in the error."""
        vec = list(vec)
        if len(vec) != n:
            raise ArityError(
                "%s of length %d for %d variables" % (what, len(vec), n)
            )
        vals = []
        for el in vec:
            if not isinstance(el, RingElement):
                raise TypeError("ring element required in %s" % what)
            # the identity test spares nearly every element Ring.__eq__
            if el.ring is not self and el.ring != self:
                raise RingMismatchError("%s entry from a different ring" % what)
            vals.append(el.val)
        return vals

    def token(self):
        if self.kind == PRIME_FIELD:
            return "Fp %d" % self.modulus
        if self.kind == MODULAR_RING:
            return "Zq %d" % self.modulus
        return self.kind

    @staticmethod
    def from_token(parts):
        """Build a ring from the whitespace-split tail of a `ring` line."""
        if isinstance(parts, str):
            parts = parts.split()
        if not parts:
            raise FormatError("empty ring token")
        kind = parts[0]
        try:
            if kind in (INTEGERS, RATIONALS):
                if len(parts) != 1:
                    raise FormatError("ring %s takes no modulus" % kind)
                return Ring(kind)
            if kind in (PRIME_FIELD, MODULAR_RING):
                if len(parts) != 2:
                    raise FormatError("ring %s needs a modulus" % kind)
                return Ring(kind, int(parts[1]))
        except ValueError as exc:
            raise FormatError("bad modulus %s" % quoted(parts[1])) from exc
        raise FormatError("unknown ring token %s" % quoted(" ".join(parts)))

    def parse_coeff(self, text):
        """Parse one coefficient in this ring's textual encoding."""
        return RingElement(self, self.parse_payload(text))

    def parse_payload(self, text):
        """parse_coeff's payload, without the element around it.

        Only the grammar format_coeff writes is read: -?[0-9]+, and over Q
        also -?[0-9]+/[0-9]+.  int and Fraction accept more, such as 1e2,
        1.5 and 1_000, and Fraction builds 10**e in full."""
        num, slash, den = (text.partition("/") if self.kind == RATIONALS
                           else (text, "", ""))
        digits = num[1:] if num[:1] == "-" else num
        if not (digits.isascii() and digits.isdigit()) or slash and not (
                den.isascii() and den.isdigit()):
            raise FormatError("bad coefficient %s" % quoted(text))
        try:
            v = int(num)
            if slash:
                return Fraction(v, int(den))
        except ValueError as exc:
            # the grammar holds, so int() refused the length
            raise FormatError("bad coefficient %s: too many digits"
                              % quoted(text)) from exc
        except ZeroDivisionError as exc:
            raise FormatError("bad coefficient %s: zero denominator"
                              % quoted(text)) from exc
        if self.kind == RATIONALS:
            return Fraction(v)
        return v if self.modulus is None else v % self.modulus

    def format_coeff(self, el):
        """Canonical text for an element: integers and residues as decimals,
        rationals as `a/b` with the `/b` omitted when the value is integral.
        A part of more than MAX_DIGITS digits raises CapExceededError."""
        return decimal_text(el.val if isinstance(el, RingElement) else el,
                            "coefficient")


class RingElement:
    """An immutable scalar tied to its ring."""

    __slots__ = ("ring", "val")

    def __init__(self, ring, val):
        # val is assumed canonical; go through Ring.el for raw payloads
        self.ring = ring
        self.val = val

    def _check(self, other):
        if not isinstance(other, RingElement):
            raise TypeError("ring element required, got %r" % (other,))
        if self.ring != other.ring:
            raise RingMismatchError(
                "mixed rings %s and %s" % (self.ring.token(), other.ring.token())
            )

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.canon(self.val + other.val))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.canon(self.val - other.val))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.canon(self.val * other.val))

    def __neg__(self):
        return RingElement(self.ring, self.ring.canon(-self.val))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent")
        m = self.ring.modulus
        if m is not None:
            return RingElement(self.ring, pow(self.val, k, m))
        return RingElement(self.ring, self.ring.canon(self.val ** k))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self.val == other.val
        )

    def __hash__(self):
        return hash((self.ring, self.val))

    def __lt__(self, other):
        # canonical element order: integers and rationals by value,
        # residues by representative in [0, modulus)
        self._check(other)
        return self.val < other.val

    def __le__(self, other):
        self._check(other)
        return self.val <= other.val

    @property
    def is_zero(self):
        return self.val == 0

    @property
    def is_unit(self):
        r = self.ring
        if r.kind == INTEGERS:
            return self.val in (1, -1)
        if r.kind == RATIONALS:
            return self.val != 0
        if r.kind == PRIME_FIELD:
            return self.val != 0
        return gcd(self.val, r.modulus) == 1

    def __repr__(self):
        return "%s(%s)" % (self.ring.token(), self.ring.format_coeff(self))

    def __str__(self):
        return self.ring.format_coeff(self)


ZZ = Ring(INTEGERS)
QQ = Ring(RATIONALS)


def prime_field(p):
    return Ring(PRIME_FIELD, p)


def modular(q):
    return Ring(MODULAR_RING, q)
