"""Exception types shared across the package."""


class MinaddError(Exception):
    """Base class for all package errors."""


class ValidationError(MinaddError):
    """An input (a set description or a construct parameter) violates a
    structural invariant."""


class ResidueOutOfRange(ValidationError):
    pass


class Y0NotNegative(ValidationError):
    pass


class Y0ResidueOutsideX(ValidationError):
    pass


class Y1ResidueInsideX(ValidationError):
    pass


class DuplicateElement(ValidationError):
    pass


class EmptySet(ValidationError):
    pass


class NonPositivePeriod(ValidationError):
    pass


class ExtraNotBelowThreshold(ValidationError):
    pass


class InvalidConstructParameter(ValidationError):
    """A step count or slack the inductive construction cannot use."""


class ModulusMismatch(MinaddError):
    pass


class BudgetExceeded(MinaddError):
    """A certificate search ran out of its node budget: the search did
    not finish, so it says nothing about whether C exists."""


class CapExceeded(MinaddError):
    """The naive reference was asked to run above its hard size cap."""


class CertificateInvalid(MinaddError):
    pass


class WindowTooSmall(MinaddError):
    pass


class WindowTooLarge(MinaddError):
    """A witness window whose listing is too long to hold in memory."""


class ModulusTooLarge(MinaddError):
    """A working modulus too large to hold a bit per residue."""


class MarginTooSmall(MinaddError):
    pass


class PrefixTooShort(MinaddError):
    pass


class ParseError(MinaddError):
    """A set-description or record file could not be parsed."""
