"""Entries and finite sections of the generalized Hilbert matrix.

The matrix attached to a measure has entries
``binom(n+k,k) * integral of (1-t)**n * t**k d(mu)``.  A density term
``coeff * t**alpha * (1-t)**beta`` contributes exactly
``coeff * (n+1)_beta * (k+1)_alpha / (n+k+1)_(alpha+beta+1)``, with
``(x)_m = Gamma(x+m)/Gamma(x)``: a row factor times a Hankel (diagonal)
factor times a column factor, each evaluated once per distinct row, column
or diagonal.  On a grid of consecutive rows by consecutive columns, as in
every section and row block, entry (i, j) reads the diagonal vector at
i + j through a read-only strided view; other index arrays gather it per
entry.  Interior atoms stay in log space (``Gamma(n+k+1)`` overflows) but
read ``ln Gamma(d+1)`` the same way.  A factor whose exponent is an integer
is an exact product in numpy; scipy.special is imported only for the others
and for an interior atom's log-gamma.

Scalar entries, dense sections, and row blocks all go through one array
core, so a section is bitwise identical to its individual entries.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ResourceLimitError
from .measure import JacobiTerm, Measure

__all__ = [
    "DEFAULT_SECTION_CAP",
    "FiniteSection",
    "entry",
    "entry_block",
    "finite_section",
    "jacobi_factors",
    "section_to_csv",
    "section_from_csv",
    "section_to_json",
    "section_from_json",
]

#: Largest dense section, and row count of the truncated and quadrature applies
#: (~2 GiB of float64 at 16384**2).
DEFAULT_SECTION_CAP = 16384

_TINY = np.finfo(np.float64).tiny
_UNIT_ROUNDOFF = 2.0**-53

#: Largest relative error bound of an interior atom's log-space entries.
_ATOM_RTOL = 1e-6

#: Least m whose m! is beyond float64; from it on every (x+1)_m with x >= 0 is too.
_FACTORIAL_OVERFLOW = 171


@dataclass(frozen=True)
class FiniteSection:
    """Dense N x N leading truncation, row index n, column index k."""

    size: int
    entries: np.ndarray


def _indices(x) -> np.ndarray:
    """``x`` as an intp array; raises unless every value is a nonnegative integer."""
    x = np.asarray(x)
    try:
        with np.errstate(invalid="ignore"):
            idx = x.astype(np.intp)
    except OverflowError:  # a Python int beyond the intp range
        idx = None
    if idx is None or not (np.array_equal(idx, x) and (idx.size == 0 or idx.min() >= 0)):
        raise ValueError("matrix indices must be nonnegative integers")
    return idx


def jacobi_factors(term: JacobiTerm, n, k, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and diagonal factors of one density term.

    The term's entry at ``(n, k)`` is ``row[n] * hankel[n+k] * col[k]``:
    ``row = coeff * (n+1)_beta``, ``col = (k+1)_alpha`` and ``hankel =
    1/(d+1)_(alpha+beta+1)`` over the diagonal indices ``d``, whose last
    element is the largest.  A row or column factor whose exponent is 0 is
    a read-only zero-stride constant (``coeff`` for beta = 0, 1.0 for
    alpha = 0): ``(x)_0`` is exactly 1.0, so its values are those of the
    product, and no array of ones is stored.  Raises ``ValueError``, naming
    ``term`` and the largest diagonal, when a factor leaves the float64
    range.
    """
    if term.beta == 0.0:
        row = np.broadcast_to(float(term.coeff), np.shape(n))
    else:
        # An overflow here is reported by the range error below.
        with np.errstate(over="ignore"):
            row = term.coeff * _rising(n, term.beta)
    col = _rising(k, term.alpha)
    hankel = 1.0 / _rising(d, term.alpha + term.beta + 1.0)
    if not (np.isfinite(row).all() and np.isfinite(col).all() and hankel.min() >= _TINY):
        raise _range_error(term, d[-1])
    return row, col, hankel


def _rising(x, exponent: float) -> np.ndarray:
    """``(x+1)_exponent`` for indices ``x``; the zero-stride constant 1.0 when the exponent is 0.

    A positive integer exponent m gives the product ``(a+m-1) (a+m-2) ... a``
    with ``a = x+1``, formed in that order: the recurrence, and so the bits,
    of ``scipy.special.poch``.  From m = ``_FACTORIAL_OVERFLOW`` on every
    value is inf, as poch's.  Any other exponent imports scipy.special.
    """
    if exponent == 0.0:
        return np.broadcast_to(1.0, np.shape(x))
    a = x + 1.0
    if not float(exponent).is_integer():
        from scipy.special import poch

        return poch(a, exponent)
    m = int(exponent)
    if m >= _FACTORIAL_OVERFLOW:
        return np.full(np.shape(a), math.inf)
    # An overflow gives inf, as poch's does; the callers raise the range error.
    with np.errstate(over="ignore"):
        r = a + (m - 1.0)
        for j in range(m - 2, -1, -1):
            r *= a + j
    return r


def _range_error(what, d_max) -> ValueError:
    """The error for a density term, or a measure's sum of components, ``what`` beyond float64 at n+k <= d_max."""
    return ValueError(f"{what} leaves the float64 range of the factored kernel at n+k <= {int(d_max)}")


def entry_block(mu: Measure, n, k) -> np.ndarray:
    """Matrix entries for broadcastable nonnegative integer index arrays ``n``, ``k``.

    This is the single code path behind :func:`entry`, :func:`finite_section`
    and the blocked matvec in :mod:`genhilbert.operator`; density terms take
    their factors from :func:`jacobi_factors`, as the FFT apply does.  When
    ``n`` is a column (R, 1) and ``k`` a row (1, C) of consecutive indices,
    the diagonal factors are read as ``as_strided(h, (R, C), (s, s))`` with
    ``s`` the vector's element stride, so no R x C index array is built;
    any other indices gather one value per distinct diagonal.  Both give
    the same bits, since each entry is the same products of the same
    factors.  Every
    component's contribution is nonnegative, so the plain running sum over
    components is accurate to (m-1) ulps.  A density term whose factors leave the
    float64 range, which takes (alpha+beta+1) * ln(n+k+1) above ~708,
    raises ``ValueError``, and so does a sum of finite components beyond
    it; the sum is checked only when the components' largest values add up
    to more than 2^1023.  An interior atom's entry is the exp of a sum of
    log-space terms; with M the sum of their magnitudes its relative error
    is at most 8 u M (u the unit roundoff), and a block whose largest
    indices put that bound above ``_ATOM_RTOL`` raises ``ValueError``.
    """
    n = _indices(n)
    k = _indices(k)
    out = np.zeros(np.broadcast_shapes(n.shape, k.shape))
    if out.size == 0:
        return out
    buf = np.empty(out.shape)
    if _is_grid(n, k):
        # n + k = n[0] + k[0] + i + j, so a vector over the diagonals is read
        # as an (R, C) view whose row and column strides are both one element.
        lo = int(n[0, 0]) + int(k[0, 0])
        d = np.arange(lo, lo + sum(out.shape) - 1, dtype=np.float64)

        def diagonal(h):
            return as_strided(h, out.shape, (h.strides[0],) * 2, writeable=False)

    else:
        # n + k cannot wrap in uint64; the factors read d in float64, as the
        # grid's, and a range error names the exact largest diagonal.
        d, diag = np.unique(n.astype(np.uint64) + k.astype(np.uint64), return_inverse=True)
        diag = diag.reshape(out.shape)

        def diagonal(h):
            return np.take(h, diag, out=buf, mode="clip")

    # An upper bound on the largest entry, summed over the components below.
    bound = 0.0
    for term in mu.jacobi_terms:
        row, col, hankel = jacobi_factors(term, n, k, d)
        bound += float(row.max()) * float(col.max()) * float(hankel.max())
        with np.errstate(over="ignore"):
            np.multiply(diagonal(hankel), row, out=buf)
            buf *= col
            out += buf
    if mu.interior_atoms:
        _check_log_space_bound(mu, int(n.max()), int(k.max()))
        from scipy.special import gammaln

        log_diag = gammaln(d + 1.0)
        log_row = gammaln(n + 1.0)
        log_col = gammaln(k + 1.0)
    for atom in mu.atoms:
        t = atom.location
        with np.errstate(over="ignore"):
            if t == 0.0:
                np.add(out, atom.mass, out=out, where=k == 0)
            elif t == 1.0:
                np.add(out, atom.mass, out=out, where=n == 0)
            else:
                np.add(diagonal(log_diag), k * math.log(t) - log_col, out=buf)
                buf += n * math.log1p(-t) - log_row
                np.exp(buf, out=buf)
                buf *= atom.mass
                out += buf
        # An interior atom's entry is at most mass / max(t, 1-t) <= 2 mass.
        bound += atom.mass if t in (0.0, 1.0) else 2.0 * atom.mass
    if bound > 2.0**1023 and not np.isfinite(out).all():
        raise _range_error(mu, d[-1])
    return out


def _is_grid(n: np.ndarray, k: np.ndarray) -> bool:
    """True when ``n`` is a column and ``k`` a row of consecutive indices, as in every section."""
    return (
        n.ndim == 2
        and n.shape[1] == 1
        and k.ndim == 2
        and k.shape[0] == 1
        and bool(np.all(np.diff(n[:, 0]) == 1) and np.all(np.diff(k[0]) == 1))
    )


def _check_log_space_bound(mu: Measure, n_max: int, k_max: int) -> None:
    """Raise ``ValueError`` when an interior atom's 8 u M bound at (n_max, k_max) exceeds _ATOM_RTOL.

    Every term of M grows with n and k, so the block's largest indices bound
    every entry's M.
    """
    logs = math.lgamma(n_max + k_max + 1.0) + math.lgamma(n_max + 1.0) + math.lgamma(k_max + 1.0)
    for atom in mu.interior_atoms:
        t = atom.location
        magnitude = logs - k_max * math.log(t) - n_max * math.log1p(-t)
        if 8.0 * _UNIT_ROUNDOFF * magnitude > _ATOM_RTOL:
            raise ValueError(
                f"interior atom at t={t} loses more than {_ATOM_RTOL:g} relative accuracy "
                f"in log space at n={n_max}, k={k_max}"
            )


def entry(mu: Measure, n: int, k: int) -> float:
    """Single matrix entry; always finite and nonnegative."""
    return float(entry_block(mu, n, k))


def _check_size(size: int, cap: int) -> None:
    """Raise ``ValueError`` for a size that is not an integer >= 1, ``ResourceLimitError`` for one above ``cap``."""
    if not isinstance(size, numbers.Integral) or size < 1:
        raise ValueError(f"size must be an integer >= 1, got {size}")
    if size > cap:
        raise ResourceLimitError(f"size {size} exceeds cap {cap}")


def finite_section(mu: Measure, size: int) -> FiniteSection:
    """Dense leading ``size x size`` truncation of the matrix."""
    _check_size(size, DEFAULT_SECTION_CAP)
    n = np.arange(size)[:, None]
    return FiniteSection(size, entry_block(mu, n, n.T))


def section_to_csv(section: FiniteSection) -> str:
    """Rows as comma-separated lines at full "%.17g" precision."""
    lines = []
    for row in section.entries:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def section_from_csv(text: str) -> FiniteSection:
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    entries = np.array(rows, dtype=np.float64)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square table, got shape {entries.shape}")
    return FiniteSection(entries.shape[0], entries)


def section_to_json(section: FiniteSection) -> str:
    return json.dumps(
        {"size": section.size, "entries": [float(v) for v in section.entries.ravel()]}
    )


def section_from_json(text: str) -> FiniteSection:
    obj = json.loads(text)
    size = int(obj["size"])
    entries = np.array(obj["entries"], dtype=np.float64).reshape(size, size)
    return FiniteSection(size, entries)
