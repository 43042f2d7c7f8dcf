"""Exception types shared across the package, and the resolution of the
size caps whose violation they report."""

import os


class GraphParseError(ValueError):
    """Malformed graph input. `position` is a byte offset (graph6) or a
    1-based line number (edge list), when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ParameterRangeError(ValueError):
    """A constructor or operation was called with out-of-range parameters."""


class ResourceLimitError(RuntimeError):
    """An operation refused to run because an input exceeds its size cap."""


def resolve_cap(env_var: str, default: int) -> int:
    """A size cap: the integer in the environment variable env_var when set
    and non-empty, else default."""
    raw = os.environ.get(env_var)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParameterRangeError(
            f"{env_var} must be an integer, got {raw!r}") from None
