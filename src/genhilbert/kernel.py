"""Entries and finite sections of the generalized Hilbert matrix.

The matrix attached to a measure has entries
``binom(n+k,k) * integral of (1-t)**n * t**k d(mu)``.  A density term
``coeff * t**alpha * (1-t)**beta`` contributes exactly
``coeff * (n+1)_beta * (k+1)_alpha / (n+k+1)_(alpha+beta+1)``, with
``(x)_m = Gamma(x+m)/Gamma(x)``: a row factor times a Hankel (diagonal)
factor times a column factor, each evaluated once per distinct row, column
or diagonal.  On a grid of consecutive rows by consecutive columns, as in
every section and truncated apply, entry (i, j) reads the diagonal vector
at i + j through a read-only strided view; other index arrays gather it
per entry.  Interior atoms stay in log space (``Gamma(n+k+1)`` overflows) but
read ``ln Gamma(d+1)`` the same way.  Everything is numpy: a factor whose
exponent is an integer is an exact product, with ``scipy.special.poch``'s
bits; any other, and ``ln Gamma``, take the Stirling series' remainder
(:func:`_stirling`), each within a stated relative error
(:func:`_rising_rtol`, ``_LOG_GAMMA_RTOL``).  Both follow one rule for
small indices (:func:`_tabled`): below ``_TABLE`` they are gathered from a
table of the form's own values, held per process.

Scalar entries, dense sections and the truncated apply's rows all come
from one stream (:func:`_row_blocks`), which computes each component's
factors once and yields row blocks of the one height rule
(:func:`_row_slices`), so a section is bitwise identical to its
individual entries and to the rows an apply sums.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DEFAULT_SECTION_CAP, _check_size
from .measure import JacobiTerm, Measure, _Record

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

_TINY = np.finfo(np.float64).tiny
_UNIT_ROUNDOFF = 2.0**-53

#: Largest relative error bound of an interior atom's log-space entries.
_ATOM_RTOL = 1e-6

#: Least m whose m! is beyond float64; from it on every (x+1)_m with x >= 0 is too.
_FACTORIAL_OVERFLOW = 171

#: B_2j / (2j (2j-1)), j = 1..8: the coefficients of the Stirling series (:func:`_stirling`).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)

#: Least argument of the Stirling series; smaller integers are shifted up to it.
_STIRLING_MIN = 16.0

#: Indices below this read non-integer Pochhammer factors and ``ln Gamma``
#: from tables of their values (:func:`_tabled`).
_TABLE = 1024

#: Tables held per process, least recently used out first (8 KiB each).
_TABLES = 64

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: ln(j!) for j < _STIRLING_MIN, each rounded once.
_LOG_FACTORIALS = np.array([math.log(math.factorial(j)) for j in range(int(_STIRLING_MIN))])
_LOG_FACTORIALS.flags.writeable = False

#: Relative error bound of :func:`_log_gamma`, in units of u.
_LOG_GAMMA_RTOL = 7.0

#: Target entries per row block (memory bound, :func:`_row_slices`): of a grid in
#: :func:`_row_blocks`, which sections and the truncated matvec stream, and of a
#: Gauss-Jacobi rule's Aberth sums (:mod:`genhilbert.operator`).
_APPLY_BLOCK_ELEMENTS = 1 << 18


class FiniteSection(_Record):
    """Dense N x N leading truncation, row index n, column index k."""

    __slots__ = ("size", "entries")

    def __init__(self, size: int, entries: np.ndarray):
        _Record.__init__(self, size, entries)


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
    value is inf, as poch's.  Any other exponent takes the Stirling form
    ``z**a * exp(r)``, ``z = max(x+1, _STIRLING_MIN)``, with
    ``r = (z + a - 1/2) log1p(a/z) - a + delta(z+a) - delta(z)``
    (:func:`_stirling`), which is ``ln (z)_a - a ln z`` exactly; below
    ``_STIRLING_MIN`` the value at ``_STIRLING_MIN`` is shifted down by the
    recurrence ``(j)_a = (j+1)_a j / (j+a)``.  Its relative error is at most
    :func:`_rising_rtol` of the exponent, for indices below 2^53.  Indices
    below ``_TABLE`` read these values from the exponent's table
    (:func:`_tabled`).
    """
    if exponent == 0.0:
        return np.broadcast_to(1.0, np.shape(x))
    if not float(exponent).is_integer():
        return _tabled(_stirling_rising, x, float(exponent))
    a = x + 1.0
    m = int(exponent)
    if m >= _FACTORIAL_OVERFLOW:
        return np.full(np.shape(a), math.inf)
    # An overflow gives inf, as poch's does; the callers raise the range error.
    with np.errstate(over="ignore"):
        r = a + (m - 1.0)
        for j in range(m - 2, -1, -1):
            r *= a + j
    return r


def _stirling(z: np.ndarray) -> np.ndarray:
    """The Stirling remainder ``delta(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2`` for ``z >= 15``.

    The series ``sum_j B_2j / (2j (2j-1) z^(2j-1))`` is cut after eight
    terms; the first omitted one, ``B_18 / (306 z^17)``, is below 2^-64 from
    z = 15 on, and the series alternates, so the cut errs by less than
    that.  Its terms lie below 1/(12 z) <= 1/180, so its rounding is below
    u/40.  Every value takes the same terms, so it does not depend on the
    other values in ``z``: a section keeps its entries' bits.
    """
    w = 1.0 / z
    w2 = w * w
    s = _STIRLING[-1] * w2
    for c in reversed(_STIRLING[1:-1]):
        s += c
        s *= w2
    s += _STIRLING[0]
    s *= w
    return s


def _stirling_rising(z: np.ndarray, a: float) -> np.ndarray:
    """``(z)_a`` for integer-valued ``z >= 1`` and a non-integer ``a > -1``, as :func:`_rising` states."""
    shape = np.shape(z)
    z = np.ravel(z)
    big = np.maximum(z, _STIRLING_MIN)
    r = np.log1p(a / big)
    r *= big + (a - 0.5)
    r -= a
    r += _stirling(big + a)
    r -= _stirling(big)
    # An overflow gives inf, as in the product; the callers raise the range error.
    with np.errstate(over="ignore"):
        np.exp(r, out=r)
        r *= big**a
    small = np.flatnonzero(z < _STIRLING_MIN)
    if small.size:
        # shift[j] = (j)_a / (16)_a
        shift = [1.0] * int(_STIRLING_MIN + 1)
        for j in range(int(_STIRLING_MIN) - 1, 0, -1):
            shift[j] = shift[j + 1] * j / (j + a)
        r[small] *= np.array(shift)[z[small].astype(np.intp)]
    return r.reshape(shape)


def _tabled(form, x, *args) -> np.ndarray:
    """``form(x + 1, *args)`` for integer-valued indices ``x >= 0``.

    When every index is below ``_TABLE`` the values are gathered from the
    form's table at ``1 .. _TABLE``, held per process: a small vector costs
    one gather, not the form's few dozen numpy calls.  Each value of a form
    is the form's at that argument alone (:func:`_stirling` is
    elementwise), so a gather has the bits of the form.
    """
    if np.max(x, initial=0) < _TABLE:
        return _table(form, *args)[np.asarray(x, dtype=np.intp)]
    return form(x + 1.0, *args)


@lru_cache(maxsize=_TABLES)
def _table(form, *args) -> np.ndarray:
    """``form(z, *args)`` at ``z = 1 .. _TABLE``, read-only (:func:`_tabled`)."""
    table = form(np.arange(1.0, _TABLE + 1.0), *args)
    table.flags.writeable = False
    return table


def _rising_rtol(exponent: float) -> float:
    """A bound on the relative error of :func:`_rising` at this exponent, for indices below 2^53.

    Exponent 0 is exact.  A positive integer m is a product of m exact
    factors, so it errs by at most ``(m - 1) u``.  A non-integer a errs by
    at most ``(14 |a| (1 + |a|/16) + 52) u``, to first order in u, taking
    numpy's log, log1p, exp and power to within one ulp (2 u relative; they
    measured below 0.7 ulp against mpmath with numpy 2.4 on x86-64).  In
    the Stirling form, ``log1p(a/z)`` errs by at most 3.1 u and
    ``z + a - 1/2`` by 2 u, so their product P, with ``|P| <= 1.11 |a|
    (1 + |a|/16)`` from z = 16 on, by 6.1 u; ``r = P - a + ...`` adds three
    roundings of at most ``|P| + |a|``, and the remainders u/20; ``exp``,
    ``z**a`` and their product add 5 u.  The shift below ``_STIRLING_MIN``
    adds three roundings per step and one product, at most 46 u.
    """
    if exponent == 0.0:
        return 0.0
    if float(exponent).is_integer():
        return (exponent - 1.0) * _UNIT_ROUNDOFF
    magnitude = abs(exponent) * (1.0 + abs(exponent) / _STIRLING_MIN)
    return (14.0 * magnitude + 52.0) * _UNIT_ROUNDOFF


def _log_gamma(z) -> np.ndarray:
    """``ln Gamma(z)`` for integer-valued ``z >= 1``, with relative error at most ``_LOG_GAMMA_RTOL`` u.

    The values are :func:`_stirling_log_gamma`'s, read from its table up to
    ``_TABLE`` (:func:`_tabled`).
    """
    return _tabled(_stirling_log_gamma, np.asarray(z, dtype=np.float64) - 1.0)


def _stirling_log_gamma(z: np.ndarray) -> np.ndarray:
    """``ln Gamma(z)`` for integer-valued ``z >= 1``, as :func:`_log_gamma` states.

    Below ``_STIRLING_MIN`` it is ``ln((z-1)!)`` from a table rounded once;
    from there on it is ``(z - 1/2) ln z - z + ln(2 pi)/2 + delta(z)``
    (:func:`_stirling`).  The product ``(z - 1/2) ln z`` errs by at most
    3 u relative (log's one ulp and the product), and the three additions
    by u times ``1``, ``z + 1`` and ``ln Gamma(z)``.  From z = 16 on, where
    the product is at most 1.55 times ``ln Gamma(z)`` and z at most 0.58
    times, that is below ``6.4 u ln Gamma(z)``.
    """
    shape = np.shape(z)
    z = np.ravel(z)
    big = np.maximum(z, _STIRLING_MIN)
    out = _stirling(big)
    out += _HALF_LOG_2PI
    out -= big
    out += (big - 0.5) * np.log(big)
    small = np.flatnonzero(z < _STIRLING_MIN)
    if small.size:
        out[small] = _LOG_FACTORIALS[z[small].astype(np.intp) - 1]
    return out.reshape(shape)


def _range_error(what, d_max) -> ValueError:
    """The error for a density term, or a measure's sum of components, ``what`` beyond float64 at n+k <= d_max."""
    return ValueError(f"{what} leaves the float64 range of the factored kernel at n+k <= {int(d_max)}")


def entry_block(mu: Measure, n, k) -> np.ndarray:
    """Matrix entries for broadcastable nonnegative integer index arrays ``n``, ``k``.

    This is the single code path behind :func:`entry` and
    :func:`finite_section`, and :func:`_row_blocks`, which it runs, also
    streams the truncated matvec in :mod:`genhilbert.operator`; density
    terms take their factors from :func:`jacobi_factors`, as the FFT apply
    does.  Each component's factors are computed once, over the whole index
    set.  When ``n`` is a column (R, 1) and ``k`` a row (1, C) of
    consecutive indices, the output is filled in the row blocks of
    :func:`_row_slices`, and each block reads the diagonal factors as
    ``as_strided(h[r0:], (rows, C), (s, s))`` with ``s`` the vector's
    element stride, so no R x C index array is built; any other indices
    are one block, which gathers one value per distinct diagonal.  In each
    block the first component is written straight into the output and
    every later one goes through one buffer of the block's size, then is
    added in, so the output is the only array of the full shape.  Both
    paths give the same bits, since each entry is the same products of the
    same factors, summed over the components in the same order.  Every
    component's contribution is nonnegative, so the plain running sum over
    components is accurate to (m-1) ulps.  A density term whose factors leave the
    float64 range, which takes (alpha+beta+1) * ln(n+k+1) above ~708,
    raises ``ValueError`` naming the largest n+k of the whole index set,
    and so does a sum of finite components beyond it; the sum is checked
    only when the components' largest values add up to more than 2^1023.
    An interior atom's entry is the exp of a sum of log-space terms; with
    M the sum of their magnitudes its relative error is at most
    ``11 u M + 3 u`` (u the unit roundoff, :func:`_atom_rtol`), and indices
    whose largest values put that bound above ``_ATOM_RTOL`` raise
    ``ValueError``.
    """
    n = _indices(n)
    k = _indices(k)
    out = np.empty(np.broadcast_shapes(n.shape, k.shape))
    for _ in _row_blocks(mu, n, k, out):
        pass
    return out


def _row_slices(rows: int, cols: int) -> list[slice]:
    """Consecutive row blocks of a ``rows x cols`` array, each of at most ``_APPLY_BLOCK_ELEMENTS`` entries and at least one row."""
    height = max(1, _APPLY_BLOCK_ELEMENTS // cols)
    return [slice(r0, min(r0 + height, rows)) for r0 in range(0, rows, height)]


def _row_blocks(mu: Measure, n: np.ndarray, k: np.ndarray, out: np.ndarray | None = None):
    """Yield ``(rows, block)``, the entries at intp index arrays ``n``, ``k`` one row block at a time, as :func:`entry_block` states.

    A grid's blocks are its :func:`_row_slices`; other indices are one
    block, ``rows = ...``.  Each block is ``out[rows]``, filled in place,
    when ``out`` (of the indices' broadcast shape) is given; otherwise, for
    a grid only, every block goes into one buffer of the first block's
    height, which the next block overwrites.  Each component's factors, with
    their range check, and the log-space check are computed once over all
    the indices before the first block; a sum beyond float64 raises in its
    block, naming the same largest n+k.
    """
    shape = np.broadcast_shapes(n.shape, k.shape)
    if math.prod(shape) == 0:
        return
    if _is_grid(n, k):
        # n + k = n[0] + k[0] + i + j, so a vector over the diagonals is read
        # as a (rows, C) view whose row and column strides are both one element.
        (R, C), lo = shape, int(n[0, 0]) + int(k[0, 0])
        d = np.arange(lo, lo + R + C - 1, dtype=np.float64)
        blocks = _row_slices(R, C)

        def diagonal(h, rows, into):
            return as_strided(h[rows.start :], into.shape, (h.strides[0],) * 2, writeable=False)

    else:
        # n + k cannot wrap in uint64; the factors read d in float64, as the
        # grid's, and a range error names the exact largest diagonal.
        d, diag = np.unique(n.astype(np.uint64) + k.astype(np.uint64), return_inverse=True)
        diag = diag.reshape(shape)
        blocks = [...]  # one block: the whole output

        def diagonal(h, rows, into):
            return np.take(h, diag, out=into, mode="clip")

    # Each component's factors, in the order the entries sum them: (diagonal
    # vector, row part, column part, mass); an endpoint atom's vector is None
    # and its row or column part the mask where it adds its mass.
    parts = []
    # An upper bound on the largest entry, summed over the components.
    bound = 0.0
    for term in mu.jacobi_terms:
        row, col, hankel = jacobi_factors(term, n, k, d)
        bound += float(row.max()) * float(col.max()) * float(hankel.max())
        parts.append((hankel, row, col, None))
    if mu.interior_atoms:
        _check_log_space_bound(mu, int(n.max()), int(k.max()))
        log_diag = _log_gamma(d + 1.0)
        log_row = _log_gamma(n + 1.0)
        log_col = _log_gamma(k + 1.0)
    for atom in mu.atoms:
        t = atom.location
        if t == 0.0:
            parts.append((None, None, k == 0, atom.mass))
        elif t == 1.0:
            parts.append((None, n == 0, None, atom.mass))
        else:
            parts.append((log_diag, n * math.log1p(-t) - log_row, k * math.log(t) - log_col, atom.mass))
        # An interior atom's entry is at most mass / max(t, 1-t) <= 2 mass.
        bound += atom.mass if t in (0.0, 1.0) else 2.0 * atom.mass
    # The first block: out's, or the buffer that every block of a grid reuses.
    first = out[blocks[0]] if out is not None else np.empty((blocks[0].stop, C))
    spare = np.empty(first.size) if any(part[0] is not None for part in parts[1:]) else None
    for rows in blocks:
        block = out[rows] if out is not None else first[: rows.stop - rows.start]
        if not parts or parts[0][0] is None:
            # Nothing is written in place: endpoint atoms add their masses to zeros.
            block.fill(0.0)
        with np.errstate(over="ignore"):
            for i, (vector, row, col, mass) in enumerate(parts):
                if vector is None:
                    np.add(block, mass, out=block, where=col if row is None else row[rows])
                    continue
                into = spare[: block.size].reshape(block.shape) if i else block
                if mass is None:
                    np.multiply(diagonal(vector, rows, into), row[rows], out=into)
                    into *= col
                else:
                    np.add(diagonal(vector, rows, into), col, out=into)
                    into += row[rows]
                    np.exp(into, out=into)
                    into *= mass
                if i:
                    block += into
        if bound > 2.0**1023 and not np.isfinite(block).all():
            raise _range_error(mu, d[-1])
        yield rows, block


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
    """Raise ``ValueError`` when an interior atom's :func:`_atom_rtol` at (n_max, k_max) exceeds _ATOM_RTOL."""
    for atom in mu.interior_atoms:
        if _atom_rtol(atom.location, n_max, k_max) > _ATOM_RTOL:
            raise ValueError(
                f"interior atom at t={atom.location} loses more than {_ATOM_RTOL:g} relative accuracy "
                f"in log space at n={n_max}, k={k_max}"
            )


def _atom_rtol(t: float, n_max: int, k_max: int) -> float:
    """``(_LOG_GAMMA_RTOL + 4) u M + 3 u``, an interior atom's entries' relative error bound up to (n_max, k_max).

    M is the sum of the log-space terms' magnitudes, three ``ln Gamma``
    (:func:`_log_gamma`, each within ``_LOG_GAMMA_RTOL`` u relative), ``k ln t``
    and ``n ln(1-t)`` (each within 3 u: the logarithm and the product),
    whose four additions add at most u M each; ``exp`` and the mass add
    3 u.  Every term of M grows with n and k, so the largest indices bound
    every entry's M.
    """
    magnitude = (
        math.lgamma(n_max + k_max + 1.0) + math.lgamma(n_max + 1.0) + math.lgamma(k_max + 1.0)
        - k_max * math.log(t) - n_max * math.log1p(-t)
    )
    return ((_LOG_GAMMA_RTOL + 4.0) * magnitude + 3.0) * _UNIT_ROUNDOFF


def _term_rtol(term: JacobiTerm) -> float:
    """A bound on the relative error of a density term's :func:`jacobi_factors` product ``row * hankel * col``.

    Each factor errs by :func:`_rising_rtol` of its exponent, and the
    coefficient's product and the Hankel factor's reciprocal add u each.
    """
    exponents = (term.beta, term.alpha, term.alpha + term.beta + 1.0)
    return sum(_rising_rtol(e) for e in exponents) + 2.0 * _UNIT_ROUNDOFF


def _entry_rtol(mu: Measure) -> float:
    """A bound on the relative error of :func:`entry_block`'s entries of ``mu`` against the exact matrix.

    A density term's part errs by :func:`_term_rtol` plus the two products
    that form it (2 u), an endpoint atom's mass not at all, and summing m
    nonnegative parts adds ``(m - 1) u``.  An interior atom's part counts as
    exact here: its own bound, :func:`_atom_rtol`, grows with the indices
    (7e-11 relative for a unit atom at 1/2 at N = 2048), far above the
    error its entries show against mpmath, and is stated with
    :func:`entry_block` alone.  Those errors still lie far above the
    ``K u`` of a K-column row sum: delta_1/2's entries err by up to 2.9e-12
    relative at N = 1024 and 8.3e-11 at 16384, where K u is 1.1e-13 and
    1.8e-12.  So an atom's rows fall outside the per-row summation
    statement of :meth:`~genhilbert.certify._Block.apply`; no unsound
    ratio has been seen, since the row errors cancel in the ell-p norm.
    """
    parts = [_term_rtol(term) + 2.0 * _UNIT_ROUNDOFF for term in mu.jacobi_terms]
    return max(parts, default=0.0) + (len(mu.jacobi_terms) + len(mu.atoms) - 1) * _UNIT_ROUNDOFF


def entry(mu: Measure, n: int, k: int) -> float:
    """Single matrix entry; always finite and nonnegative."""
    return float(entry_block(mu, n, k))


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
    """The section :func:`section_to_csv` wrote; ``ValueError`` for a ragged, non-square or non-finite table."""
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("section rows must all have the same number of cells")
    return _read_section(np.array(rows, dtype=np.float64))


def section_to_json(section: FiniteSection) -> str:
    return json.dumps(
        {"size": section.size, "entries": [float(v) for v in section.entries.ravel()]}
    )


def section_from_json(text: str) -> FiniteSection:
    """The section :func:`section_to_json` wrote; ``ValueError`` for a size below 1 or not an integer, or a non-finite entry."""
    obj = json.loads(text)
    size = obj["size"]
    _check_size(size, math.inf)
    return _read_section(np.array(obj["entries"], dtype=np.float64).reshape(size, size))


def _read_section(entries: np.ndarray) -> FiniteSection:
    """``entries`` as a section; raises ``ValueError`` unless they are a square table of finite numbers."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square table, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise ValueError("section entries must be finite")
    return FiniteSection(entries.shape[0], entries)
