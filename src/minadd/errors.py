"""Exception types shared across the package.

One class per way an error is handled.  Every deliberate error is a
``MinaddError``, which the CLI reports on stderr with exit code 2, and
its message says what went wrong; a subclass exists only where some
``except`` clause catches it apart from its base.  An error that every
caller treats alike is raised as ``MinaddError`` itself.
"""


class MinaddError(Exception):
    """Bad input or an unusable parameter: the package's error."""


class BudgetExceeded(MinaddError):
    """A certificate search ran out of its node budget: the search did
    not finish, so it says nothing about whether C exists.  ``decide``
    catches it and answers Unknown."""


class CertificateInvalid(MinaddError):
    """A certificate that fails a check; the witness checks catch it and
    report a failure rather than stop."""


class WindowTooSmall(MinaddError):
    """A witness window that ends before the prune's state repeats; a
    wider window builds."""
