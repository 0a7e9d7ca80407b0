"""Exceptions shared across the toolkit."""

__all__ = ["ResourceLimitError", "ConvergenceError"]


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its size cap."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to meet its tolerance.

    ``estimate`` holds the last iterate (or achieved error estimate) so
    callers can report how far the computation got.
    """

    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate
