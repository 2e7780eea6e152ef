"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid argument (bad index, malformed value, domain violation)."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size cap.

    The message names the offending quantity (qubit count, sector count)
    so callers can report which engine refused the request.
    """


class ConsistencyError(RuntimeError):
    """Independent engines disagree beyond tolerance."""

