"""Exception types shared across the toolkit.

The command line maps these onto exit codes: malformed input is 2,
violated preconditions and domain problems are 3, exceeded budgets are 4.
"""


# characters of a file token or line that a message quotes in full
QUOTE_LIMIT = 40


def quoted(text):
    """repr(text) for an error message; a longer text than QUOTE_LIMIT is
    cut to its head and its length, so a huge token gives a short
    message."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return "%r... (%d characters)" % (text[:QUOTE_LIMIT], len(text))


class ShiftForgeError(Exception):
    """Base class for every error raised by this package."""


class FormatError(ShiftForgeError):
    """Malformed file or textual encoding; the readers set `path` and the
    1-based `line` at fault where they know them, and str() appends them."""

    path = line = None

    def locate(self, path=None, line=None):
        """Fill in the location unless a file is named already; returns self."""
        if self.path is None:
            if self.line is None:
                self.line = line
            self.path = path
        return self

    def __str__(self):
        text = super().__str__()
        if self.path is None:
            return text if self.line is None else "%s (line %d)" % (text, self.line)
        if self.line is None:
            return "%s (%s)" % (text, self.path)
        return "%s (%s:%d)" % (text, self.path, self.line)


class PreconditionError(ShiftForgeError):
    """An operation's stated precondition does not hold."""


class RingMismatchError(PreconditionError):
    """Operands live in different coefficient domains."""


class ArityError(PreconditionError):
    """A vector's length does not match the variable count."""


class UnsupportedDomainError(PreconditionError):
    """The coefficient domain is not admissible for this construction."""


class InvalidGammaError(PreconditionError):
    """The scale element must be nonzero and not a unit."""


class NotASolutionError(PreconditionError):
    """The assignment does not satisfy the system."""


class StructureError(PreconditionError):
    """The shift vector violates the required zero-sum structure."""


class NoReductionError(PreconditionError):
    """The shift does not reduce the monomial count."""


class InternalConsistencyError(ShiftForgeError):
    """A promised guarantee failed to hold; indicates a bug."""


class CapExceededError(ShiftForgeError):
    """A term or enumeration budget was exceeded."""
