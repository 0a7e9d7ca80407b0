"""Exceptions shared across the toolkit, and the size checks that raise them.

The checks need no array library, so the command line runs them before
numpy loads.
"""

import numbers

__all__ = ["ResourceLimitError", "ConvergenceError"]

#: Largest dense section, and row count of the truncated and quadrature applies
#: (~2 GiB of float64 at 16384**2).
DEFAULT_SECTION_CAP = 16384

#: Size cap for the FFT routes (n_rows and input length).
HANKEL_CAP = 1 << 22


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


def _check_size(size: int, cap: int) -> None:
    """Raise ``ValueError`` for a size that is not an integer >= 1, ``ResourceLimitError`` for one above ``cap``."""
    if not isinstance(size, numbers.Integral) or size < 1:
        raise ValueError(f"size must be an integer >= 1, got {size}")
    if size > cap:
        raise ResourceLimitError(f"size {size} exceeds cap {cap}")


def _check_block(mu, n_rows: int, n_cols: int, section_cap: int, hankel_cap: int) -> None:
    """Check a block of ``mu``'s matrix against its route's caps.

    A measure with interior atoms takes the dense route: ``n_rows`` is
    checked against ``section_cap`` and the columns are uncapped.  For any
    other both sizes are checked against ``hankel_cap``: it takes the FFT
    route, or the dense route on a small block
    (:class:`~genhilbert.certify._Block`), whose at most 512 rows lie far
    within ``section_cap``.
    """
    if mu.interior_atoms:
        _check_size(n_rows, section_cap)
    else:
        _check_size(n_rows, hankel_cap)
        _check_size(n_cols, hankel_cap)
