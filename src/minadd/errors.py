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
    """A witness window too long to hold in memory: the build's prune
    buffer and the checks' digit string hold a byte per integer of it,
    their masks a bit per integer."""


class ModulusTooLarge(MinaddError):
    """A working modulus too large to hold a bit per residue."""


class MarginTooSmall(MinaddError):
    pass


class ExclusionCollision(MinaddError):
    """An excluded point of the inductive construction fell into the
    already-built prefix; unreachable under the default offset rule."""


class PrefixTooShort(MinaddError):
    pass


class ParseError(MinaddError):
    """A set-description or record file could not be parsed."""
