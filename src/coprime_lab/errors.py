"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise the
most specific one that applies rather than a bare ``Exception``.
"""


class CoprimeLabError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(CoprimeLabError):
    """A request exceeds a documented size cap (table limit, box volume, ...)."""


class UnsupportedError(CoprimeLabError):
    """The requested counting method does not handle the constraint's class."""
