"""Exception types shared across the package."""

from __future__ import annotations


class BkfactError(Exception):
    """Base class for all library errors."""


class ZeroLeadingError(BkfactError):
    """The leading principal-symbol coefficient is zero, so there is no
    quadratic characteristic polynomial to take roots of."""


class NoRationalRootsError(BkfactError):
    """The characteristic polynomial has no rational roots (negative or
    non-square discriminant)."""


class NotSimpleRootError(BkfactError):
    """A repeated characteristic root was passed where a simple root is
    required; the residual is undefined there."""


class DegreeTooHighError(BkfactError):
    """A polynomial coefficient exceeds the degree supported by the
    requested operation."""


class PreconditionViolatedError(BkfactError):
    """A quantifier-free criterion was evaluated outside the sign
    assumptions under which it is valid."""


class ParseError(BkfactError):
    """Polynomial text could not be parsed.

    Attributes:
        position: 0-based index into the source text.
        expected: token descriptions that would have been accepted.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.position = position
        self.expected = expected

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected:
            return f"{base} at position {self.position} (expected {', '.join(self.expected)})"
        return f"{base} at position {self.position}"


class ExponentError(ParseError):
    """An exponent was negative or not an integer, or a power exceeds a
    parser cap: total degree or exponent over MAX_DEGREE, or coefficients
    of more than MAX_POWER_BITS bits."""
