"""Exception types and resource caps shared across the package."""

import os

DEFAULT_CAP = 1 << 20


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured size cap."""


def effective_cap():
    """The size cap: ORIENTGEN_CAP when it is set, else DEFAULT_CAP."""
    env = os.environ.get("ORIENTGEN_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        value = int(env)
    except ValueError:
        raise InputError("ORIENTGEN_CAP must be an integer, got %r" % env)
    if value <= 0:
        raise InputError("ORIENTGEN_CAP must be positive")
    return value
