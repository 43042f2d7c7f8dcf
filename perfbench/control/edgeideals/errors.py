"""Exception types shared across the package."""


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
