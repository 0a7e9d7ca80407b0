"""Applying the operator to sequences.

Two deliberately redundant routes: an entrywise truncated matvec (the
workhorse) and quadrature of the row generating series against the measure
(the reference).  Measures without interior atoms additionally get an
FFT apply: each density term is a Hankel matrix scaled by diagonal factors
on both sides, so the image of any block of it is one convolution against
a Hankel spectrum that an :class:`FFTPlan` computes once.
:func:`fft_plan` picks each block's tiling before any transform, from both
tilings' stated error bounds: one tile convolves the whole block at once,
and tiles inside which n+k varies by a bounded factor keep each tile's
bound near its own rows' image where the factors grow or shrink.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import as_strided

from .errors import DEFAULT_SECTION_CAP, HANKEL_CAP, ConvergenceError, ResourceLimitError, _check_size
from .kernel import _TINY, _UNIT_ROUNDOFF, _log_gamma, _row_blocks, _row_slices, _term_rtol, jacobi_factors
from .measure import LEBESGUE, Atom, JacobiTerm, Measure, _Record, beta as beta_function
from .norms import parse_sequence_csv, validate_p

__all__ = [
    "SequenceVector",
    "HANKEL_CAP",
    "lp_norm",
    "row_series_value",
    "apply_truncated",
    "apply_via_quadrature",
    "FFTPlan",
    "fft_plan",
    "hankel_fast_apply",
    "sequence_to_csv",
    "sequence_from_csv",
]

# Entries per column chunk of _row_sums: at most 10000, the length above which
# OpenBLAS 0.3.31 splits one ddot between threads and so changes its sum.
_ROW_CHUNK = 8192

# Largest Gauss-Jacobi rule used for exact polynomial integration; beyond
# this the quadrature route falls back to compare-two-rules refinement.
_GAUSS_EXACT_MAX = 1024

# Gauss-Jacobi rules kept per process, least recently used out first.  The
# bound only caps their memory: a rule has at most 2 * _GAUSS_EXACT_MAX
# nodes, so 128 rules hold at most 4 MiB, while a measure uses one rule per
# Jacobi term and node count.
_JACOBI_RULES = 128

# Newton steps a Gauss-Jacobi rule may take (_jacobi_rule).
_NEWTON_STEPS = 40

# Re-derive the row series' running log-binomial from log-gamma at the first
# block start at or past each multiple of this many terms.
_LOG_REFRESH = 4096

# Row-series blocks of W terms: (W-1) ln(n_max+2) <= _BLOCK_LOG_SPAN keeps
# every in-block binomial ratio and each block's prefactor in the normal
# float64 range (see _row_series_block).
_BLOCK_LOG_SPAN = 640.0

# Row-series truncation: stop once the tail bound is below _TAIL_TOL at
# every grid point; raise ConvergenceError after _MAX_TERMS terms.
_TAIL_TOL = 1e-12
_MAX_TERMS = 10**7


class SequenceVector(_Record):
    """Finite stored prefix of a sequence, implicitly zero beyond its end.

    ``nonneg`` is read from the values: whether none is negative.
    """

    __slots__ = ("values", "nonneg")

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"sequence values must be one-dimensional, got shape {values.shape}")
        _Record.__init__(self, values, bool(values.size == 0 or values.min() >= 0.0))

    def __len__(self):
        return len(self.values)


def lp_norm(values, p: float) -> float:
    """ell-p norm of a finite vector; p may be math.inf.

    Returns math.inf only when the norm itself is beyond the float64 range.
    """
    values = np.asarray(values, dtype=np.float64)
    p = validate_p(p)
    if values.size == 0:
        return 0.0
    magnitude = np.abs(values)
    if math.isinf(p):
        return float(magnitude.max())
    # Dividing by the power of two 2**e above max |v| is exact and keeps
    # |v|**p and their sum in range, p = 1 included; the root is scaled back.
    # Once 0.5**p is no longer a normal number, the largest term could
    # underflow as well, and the scaled values are divided by their max too.
    _, e = math.frexp(float(magnitude.max()))
    np.ldexp(magnitude, -e, out=magnitude)
    unit = 1.0
    if 0.5**p < _TINY:
        unit = float(magnitude.max())
        magnitude /= unit
    magnitude **= p
    root = unit * float(magnitude.sum() ** (1.0 / p))
    return _ldexp(root, e)


def _ldexp(x: float, e: int) -> float:
    """``x * 2**e``, or math.inf when that is beyond the float64 range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _scaled(x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """``x`` divided by 2**e, the power of two above its largest magnitude, the quotient's 2-norm, and e.

    The division is exact and keeps the quotient's squares in range, so
    ``2**e`` times the norm is ``||x||_2`` to within the norm's own rounding.
    """
    e = math.frexp(max(x.max(), -x.min()))[1]
    x = np.ldexp(x, -e)
    return x, math.sqrt(x.dot(x)), e


def _norms_1_2(x: np.ndarray) -> tuple[float, float, int]:
    """``||x||_1`` and ``||x||_2`` in units of 2**e, the power of two above max |x|, and e (:func:`_scaled`).

    x's extremes give e, and when none is negative, x/2**e is its own magnitude and is summed as it is.
    """
    low = x.min()
    e = math.frexp(max(x.max(), -low))[1]
    x = np.ldexp(x, -e)
    return float((x if low >= 0.0 else np.abs(x)).sum()), math.sqrt(x.dot(x)), e


def _row_series_block(rows, t, values) -> np.ndarray:
    """Row series sum_m binom(n+m,m) t^m (1-t)^n a_m on a rows-by-nodes grid.

    ``t`` must lie strictly inside (0,1) and ``values`` be nonempty.  The
    terms are taken in blocks of W consecutive ones, m = m0, ..., m0+W-1.
    With ``G[n, m] = ln binom(n+m, m)`` and ``L`` the block's last term, a
    block adds ``exp(P) * (A @ V)`` to the R x T grid, where
    ``P[n, j] = G[n, L] + m0 ln t_j + n ln(1-t_j)``,
    ``A[n, w] = a_(m0+w) exp(G[n, m0+w] - G[n, L])`` and ``V[w, j] = t_j^w``.
    So a block costs one ``exp`` per grid point, one (R x W) @ (W x T)
    product and four more passes over the grid.  ``A``'s factor is a
    product of ratios ``(m+1)/(n+m+1)``, so it lies in
    ``[(n+1)^-(W-1), 1]`` and ``|A| <= |a|``.

    Width rule: W is the largest width with ``(W-1) ln(n_max+2) <=
    _BLOCK_LOG_SPAN = 640``, cut to K and to ``_LOG_REFRESH`` (so that each
    multiple of it gets its own refresh).  Then every factor of ``A`` is a
    normal number, and ``P`` is at most ``-ln(1-t) + 640 < 677``, since a
    term is at most ``1/(1-t)``, so ``exp(P)`` is finite.  Only products of
    ``A`` and ``V`` (and ``V``'s own powers) may underflow.  Each loses at
    most 2^-1074 absolute before the factor ``exp(P) < e^677``, so underflow
    adds an absolute error below ``W 2^-1074 e^677 (1 + max|a|) < 1e-29 W
    (1 + max|a|)`` per grid point, far below the absolute ``_TAIL_TOL``.

    ``G`` is carried from block to block as a row vector and re-derived from
    :func:`~genhilbert.kernel._log_gamma` at the first block start at or past each multiple of
    ``_LOG_REFRESH``.  At each block start the series stops once the
    geometric tail bound (ratio threshold (1+t)/2) falls below ``_TAIL_TOL``
    at every grid point, and it is exact at the stored length otherwise.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 1)
    t = np.asarray(t, dtype=np.float64).reshape(1, -1)
    K = len(values)
    suffix_max = np.maximum.accumulate(np.abs(values)[::-1])[::-1]
    log_t = np.log(t)
    row_log_1mt = rows * np.log1p(-t)
    r_star = (1.0 + t) / 2.0
    tail_scale = 1.0 / (1.0 - r_star)
    n_max = float(rows.max())
    width = min(K, _LOG_REFRESH, 1 + int(_BLOCK_LOG_SPAN / math.log(n_max + 2.0)))
    powers = t ** np.arange(width, dtype=np.float64)[:, None]
    steps = np.arange(1.0, width)
    out = np.zeros(row_log_1mt.shape)
    prefactor = np.empty(out.shape)
    block = np.empty(out.shape)
    log_binom = np.zeros(rows.shape)
    m0 = 0
    while True:
        w = min(width, K - m0)
        # factors[n, i] = binom(n+m0+i, m0+i) / binom(n+m0+w-1, m0+w-1)
        m = m0 + steps[: w - 1]
        ratios = m / (rows + m)
        factors = np.ones((rows.shape[0], w))
        factors[:, :-1] = np.cumprod(ratios[:, ::-1], axis=1)[:, ::-1]
        log_last = log_binom - np.log(factors[:, :1])
        np.add(row_log_1mt, m0 * log_t, out=prefactor)
        prefactor += log_last
        np.exp(prefactor, out=prefactor)
        if m0:
            if np.all(t * (n_max + m0 + 1.0) / (m0 + 1.0) <= r_star):
                tail_bound = suffix_max[m0] * (prefactor * factors[:, :1]) * tail_scale
                if np.all(tail_bound < _TAIL_TOL):
                    return out
            if m0 >= _MAX_TERMS:
                raise ConvergenceError(
                    f"row series not converged after {m0} terms (tail_tol={_TAIL_TOL})",
                    estimate=float(np.max(suffix_max[m0] * (prefactor * factors[:, :1]) * tail_scale)),
                )
        np.matmul(factors * values[m0 : m0 + w], powers[:w], out=block)
        block *= prefactor
        out += block
        m0 += w
        if m0 == K:
            return out
        if m0 // _LOG_REFRESH > (m0 - w) // _LOG_REFRESH:
            log_binom = _log_gamma(rows + (m0 + 1.0)) - _log_gamma(m0 + 1.0) - _log_gamma(rows + 1.0)
        else:
            log_binom = log_last + np.log((rows + m0) / m0)


def row_series_value(n: int, t: float, a: SequenceVector) -> float:
    """Value at ``t`` of the series sum_m binom(n+m,m) t^m (1-t)^n a_m.

    At t=0 only the m=0 term survives; at t=1 the value is 0 for n >= 1 and
    the full stored sum for n=0 (the pairing the p=1 endpoint-atom norm
    needs).
    """
    if n < 0:
        raise ValueError(f"row index must be nonnegative, got {n}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0,1], got {t}")
    values = a.values
    if len(values) == 0:
        return 0.0
    if t == 0.0:
        return float(values[0])
    if t == 1.0:
        return float(values.sum()) if n == 0 else 0.0
    return float(_row_series_block([n], [t], values)[0, 0])


def apply_truncated(mu: Measure, a: SequenceVector, n_rows: int) -> SequenceVector:
    """First ``n_rows`` outputs of the matrix applied to the stored sequence.

    Exact truncation: input beyond the stored length is treated as zero.
    The entries come from one :func:`~genhilbert.kernel._row_blocks`
    stream over the ``n_rows x len(a)`` grid, which computes each
    component's factors once and fills one reused buffer per row block of
    :func:`~genhilbert.kernel._row_slices`, and :func:`_row_sums` sums each
    row in an order fixed by its length alone, so results do not depend on
    the blocking and equal the row sums of a held section bit for bit.  A
    range error names the largest n+k of the whole grid, as
    :func:`fft_plan` and :func:`~genhilbert.kernel.finite_section` do.
    """
    _check_size(n_rows, DEFAULT_SECTION_CAP)
    out = np.zeros(n_rows)
    for rows, block in _row_blocks(mu, np.arange(n_rows)[:, None], np.arange(len(a))[None, :]):
        _row_sums(block, a.values, out=out[rows])
    return SequenceVector(out)


def _row_sums(rows: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sum_k rows[i, k] * values[k]`` for every row i, into ``out`` when given.

    ``numpy.vecdot`` calls BLAS ``ddot`` once per row, on column chunks of
    at most ``_ROW_CHUNK`` entries whose sums are added left to right.
    ``ddot`` sums a vector in an order set by its length alone, and a chunk
    is too short for OpenBLAS to split it between threads, so a row's sum
    has the same bits in a block of any height, wherever the row starts in
    memory, in a held section and under any BLAS thread count.  A matrix
    product ``@`` does not: its sums change with the block's height.  Any
    order sums a row of K products to within ``gamma_K`` of the exact sum
    of their magnitudes (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., (3.11)), the bound the dense route states.
    """
    out = np.vecdot(rows[:, :_ROW_CHUNK], values[:_ROW_CHUNK], out=out)
    for c0 in range(_ROW_CHUNK, len(values), _ROW_CHUNK):
        out += np.vecdot(rows[:, c0 : c0 + _ROW_CHUNK], values[c0 : c0 + _ROW_CHUNK])
    return out


def _gauss_jacobi_integrals(term, rows, values, n_nodes):
    """Integrals of the row series against coeff * t^alpha (1-t)^beta dt."""
    t, w = _jacobi_rule(n_nodes, term.alpha, term.beta)
    e = _row_series_block(rows, t, values)
    return term.coeff * (e * w).sum(axis=1)


@lru_cache(maxsize=_JACOBI_RULES)
def _jacobi_rule(n_nodes: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_nodes``-point Gauss rule for t^alpha (1-t)^beta dt on (0, 1): nodes t and weights, read-only.

    In ``x = 2t - 1`` the weight is ``(1-x)^a (1+x)^b`` with ``a = beta``
    and ``b = alpha``, and the nodes are the zeros of its degree-n
    orthogonal polynomial q, scaled so that the recurrence starts from
    ``q_0 = 1`` (:func:`_jacobi_values`).  Newton's method finds them from
    Gatteschi and Pittaluga's asymptotic values (F. Gatteschi and
    G. Pittaluga, 1985)
    ``x_k = cos(phi_k + ((1/4 - a^2) cot(phi_k/2) - (1/4 - b^2) tan(phi_k/2)) / (4 rho^2))``,
    ``phi_k = (k + a/2 - 1/4) pi / rho``, ``rho = n + (a+b+1)/2``, with
    Aberth's correction ``dx / (1 - dx sum_(i != k) 1/(x_k - x_i))`` to each
    Newton step ``dx = q/q'``, which keeps the iterates at distinct zeros
    where the asymptotic values are poor (exponents far from [-1/2, 1/2]).
    It stops after the step whose largest correction is at most 16 u and
    raises :class:`~genhilbert.errors.ConvergenceError` after
    ``_NEWTON_STEPS``.  The weights come from the derivative at the final
    nodes, ``B(alpha+1, beta+1) (2n + a + b + 1) / ((1 - x^2) q'(x)^2)``,
    which needs no value of q_(n-1): that value, near an endpoint, carries
    the recurrence's rounding many times over.  The coefficients take
    ``a + b`` as an exact two-term sum, since ``k + a + b`` cancels near
    ``a + b = -2``.  A node at distance d from an endpoint carries x's
    rounding, u/d relative, into its weight: for an exponent e near -1 the
    nearest node lies about ``2 (1 + e) / n^2`` from its endpoint (9e-11 at
    n = 64 and e = -0.999).  A rule is computed once and
    served to every later apply while it is among the ``_JACOBI_RULES``
    most recently used.
    """
    n, a, b = n_nodes, beta, alpha
    # a + b = ab + ab_low exactly: near a + b = -2 the sums k + a + b below
    # cancel, and the rounding of a + b would dominate them.
    ab = a + b
    ab_low = math.fsum((a, b, -ab))
    k = np.arange(n, dtype=np.float64)
    s = 2.0 * k + ab + ab_low
    # The monic recurrence's coefficients; the first of each has its
    # vanishing factors cancelled, which the general formulas would divide by.
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = (b - a) * (b + a) / (s * (s + 2.0))
        s += 2.0
        j = k + 1.0
        scale = 4.0 * j * (j + a) * (j + b) * (j + ab + ab_low) / (s * s * (s + 1.0) * (s - 1.0))
    two = 2.0 + ab + ab_low
    shift[0] = (b - a) / two
    scale[0] = 4.0 * (1.0 + a) * (1.0 + b) / (two * two * (two + 1.0))
    coefficients = list(zip(shift.tolist(), np.sqrt(scale).tolist()))
    rho = n + (a + b + 1.0) / 2.0
    phi = (np.arange(1.0, n + 1.0) + (a / 2.0 - 0.25)) * (math.pi / rho)
    half = phi / 2.0
    x = np.cos(phi + ((0.25 - a * a) / np.tan(half) - (0.25 - b * b) * np.tan(half)) / (4.0 * rho * rho))
    for _ in range(_NEWTON_STEPS):
        q, dq = _jacobi_values(x, coefficients)
        step = q / dq
        if n > 1:
            # sum_(i != k) 1/(x_k - x_i), from the row blocks of the gap matrix
            # (kernel._row_slices): a row's sum has the same bits at any block height.
            sums = np.empty(n)
            for rows in _row_slices(n, n):
                gaps = x[rows, None] - x[None, :]
                np.fill_diagonal(gaps[:, rows.start :], math.inf)
                sums[rows] = np.reciprocal(gaps, out=gaps).sum(axis=1)
            step /= 1.0 - step * sums
        x -= step
        if np.abs(step).max() <= 16.0 * _UNIT_ROUNDOFF:
            break
    else:
        raise ConvergenceError(f"Gauss-Jacobi nodes not converged in {_NEWTON_STEPS} Newton steps "
                               f"(n={n}, alpha={alpha}, beta={beta})")
    x.sort()
    _, dq = _jacobi_values(x, coefficients)
    w = beta_function(alpha + 1.0, beta + 1.0) * (2.0 * n + a + b + 1.0) / ((1.0 - x) * (1.0 + x) * dq * dq)
    t = 0.5 * (x + 1.0)
    if not (np.all(np.diff(x) > 0.0) and np.all(w > 0.0) and np.isfinite(w).all()):
        raise ConvergenceError(f"Gauss-Jacobi rule out of range (n={n}, alpha={alpha}, beta={beta})")
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _jacobi_values(x: np.ndarray, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """``q_n(x)`` and ``q_n'(x)`` from ``q_(j+1) = ((x - c_j) q_j - s_(j-1) q_(j-1)) / s_j``, ``q_0 = 1``.

    ``coefficients`` holds ``(c_j, s_j)`` for j < n: the monic recurrence's
    shift and the square root of its next scale, so that each ``q_j`` is the
    orthonormal polynomial times the square root of the weight's mass.
    """
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    s_prev = 0.0
    for c, s in coefficients:
        y = x - c
        q_prev, q, d_prev, d = q, (y * q - s_prev * q_prev) / s, d, (q + y * d - s_prev * d_prev) / s
        s_prev = s
    return q, d


def apply_via_quadrature(mu: Measure, a: SequenceVector, n_rows: int) -> SequenceVector:
    """Reference apply route: integrate the row series against the measure.

    Density terms are integrated by Gauss-Jacobi rules matched to each
    term's own endpoint weight.  The row series is a polynomial of degree
    stored-length-1 + n, so a rule with enough nodes is exact; when the
    required rule would be too large, two refinements are compared at
    relative tolerance 1e-9 instead.  Atoms contribute point
    evaluations: interior ones directly, the endpoint ones through the
    t=0 / t=1 row series conventions.

    Each row series is summed over all rows and nodes in blocks of W terms
    by :func:`_row_series_block`: one ``exp`` per grid point and one
    (n_rows x W) @ (W x nodes) product per block, with W the largest width
    with ``(W-1) ln(n_rows+1) <= 640``, cut to the stored length and to
    ``_LOG_REFRESH``.  Underflow inside a block adds an absolute error
    below ``1e-29 W (1 + max|a|)`` per grid point, far below the series'
    absolute tail tolerance ``_TAIL_TOL``.
    """
    _check_size(n_rows, DEFAULT_SECTION_CAP)
    values = a.values
    K = len(values)
    out = np.zeros(n_rows)
    if K == 0:
        return SequenceVector(out)
    rows = np.arange(n_rows)
    for term in mu.jacobi_terms:
        degree = (K - 1) + (n_rows - 1)
        n_nodes = degree // 2 + 1
        if n_nodes <= _GAUSS_EXACT_MAX:
            out += _gauss_jacobi_integrals(term, rows, values, n_nodes)
        else:
            coarse = _gauss_jacobi_integrals(term, rows, values, _GAUSS_EXACT_MAX)
            fine = _gauss_jacobi_integrals(term, rows, values, 2 * _GAUSS_EXACT_MAX)
            scale = np.maximum(np.abs(fine), np.abs(coarse))
            err = float(np.max(np.abs(fine - coarse) / np.where(scale > 0, scale, 1.0)))
            if err > 1e-9:
                raise ConvergenceError(
                    f"quadrature not converged for density term {term}: "
                    f"relative change {err:.3e} between refinements",
                    estimate=err,
                )
            out += fine
    interior = mu.interior_atoms
    if interior:
        t_atoms = np.array([atom.location for atom in interior])
        masses = np.array([atom.mass for atom in interior])
        out += _row_series_block(rows, t_atoms, values) @ masses
    c0, c1 = mu.atom_at(0.0), mu.atom_at(1.0)
    if c0 > 0:
        out += c0 * values[0]
    if c1 > 0:
        out[0] += c1 * values.sum()
    return SequenceVector(out)


#: Tiles of a tiled :class:`FFTPlan` with at most this many entries hold their dense Hankel segment.
_DENSE_TILE_ENTRIES = 4096

#: :func:`fft_plan` keeps the one-tile plan iff its bound at the probe is at most this many times the tiled plan's.
_ONE_TILE_BOUND_RATIO = 256


def _layout(n_rows: int, n_cols: int, tiled: bool) -> list[tuple[slice, slice, int]]:
    """A plan's tiles: disjoint ``(rows, cols, m)`` that cover ``[0, n_rows) x [0, n_cols)``.

    One tile is the whole block.  The tiled cover has row tiles
    ``[2^i, 2^(i+1)) x [0, 4 * 2^i)``, column tiles
    ``[0, 2^(j-1)) x [2^j, 2^(j+1))`` for j >= 2 and the corner
    ``[0, 1) x [0, 4)``, each cut to the block, and drops empty ones; inside
    a tile n+k+1 varies by less than a factor of 6.  m is the least power of
    two at least rows + columns - 1 long, or 0 for a tiled cover's dense tile
    of at most ``_DENSE_TILE_ENTRIES`` entries.
    """
    spans = [(0, n_rows, 0, n_cols)]
    if tiled:
        spans = [(0, 1, 0, 4)] + [(1 << i, 2 << i, 0, 4 << i) for i in range((n_rows - 1).bit_length())]
        spans += [(0, 1 << (j - 1), 1 << j, 2 << j) for j in range(2, (n_cols - 1).bit_length())]
    layout = []
    for r0, r1, c0, c1 in spans:
        n, k = min(r1, n_rows) - r0, min(c1, n_cols) - c0
        if n > 0 and k > 0:
            m = 0 if tiled and n * k <= _DENSE_TILE_ENTRIES else 1 << (n + k - 2).bit_length()
            layout.append((slice(r0, r0 + n), slice(c0, c0 + k), m))
    return layout


class FFTPlan(_Record):
    """The FFT apply of one measure's leading ``n_rows`` by ``n_cols`` block, for many inputs.

    ``terms`` holds one ``(row, col, eta)`` per density term: the full row
    and column factors :func:`~genhilbert.kernel.jacobi_factors` returns,
    read-only, and the term's factor error against the exact matrix
    (:func:`~genhilbert.kernel._term_rtol`).  ``tiles`` cut the block into
    disjoint ``(rows, cols, m, terms)``: row and column slices, a transform
    length m and, per density term in ``terms``' order, a tile-term
    ``(segment, d, h_2, h_1)``.  d is the term's largest row factor over the
    tile's rows, ``||D||_inf``.  ``h`` is the Hankel factor over the tile's
    diagonals, ``segment`` its spectrum ``rfft(h, m)``, a read-only array of
    its own, or, when m is 0, the dense matrix ``h[i + j]`` of the tile's
    shape, and ``h_2``, ``h_1`` its 2- and 1-norms.  ``c0`` and ``c1`` are
    the endpoint masses.  All of these are a measure nu's, and the plan is
    that of ``2**scale`` times nu (:meth:`apply`).  Build one with
    :func:`fft_plan`.

    Every factor and every segment is held once, also in a pickled or
    copied plan; the transposed plan shares them, and an image runs one
    transform pair per FFT tile-term (:meth:`image`).  A pickled or copied
    plan's zero-stride constant factors come back at zero stride too, and
    hold no bytes.
    """

    __slots__ = ("n_rows", "n_cols", "terms", "tiles", "c0", "c1", "scale")

    def __init__(self, n_rows: int, n_cols: int, terms: tuple, tiles: tuple, c0: float, c1: float, scale: int = 0):
        _Record.__init__(self, n_rows, n_cols, terms, tiles, c0, c1, scale)

    def __reduce__(self):
        # numpy pickles a zero-stride factor as a full array; it travels as (value, length) instead.
        terms = tuple(
            tuple(x if x.strides[0] else (float(x[0]), len(x)) for x in (row, col)) + (eta,)
            for row, col, eta in self.terms
        )
        return _unpickled_plan, (self.n_rows, self.n_cols, terms, self.tiles, self.c0, self.c1, self.scale)

    def transposed(self) -> FFTPlan:
        """The plan of the transposed matrix: each term's factors swap, each tile's ranges too, and so do c0 and c1."""
        tiles = tuple(
            (cols, rows, m, tuple(
                (s if m else s.T, float(col[cols].max()), *hs) for (s, _, *hs), (_, col, _) in zip(terms, self.terms)
            ))
            for rows, cols, m, terms in self.tiles
        )
        terms = tuple((col, row, eta) for row, col, eta in self.terms)
        return FFTPlan(self.n_cols, self.n_rows, terms, tiles, self.c1, self.c0, self.scale)

    def image(self, values) -> np.ndarray:
        """:meth:`apply`'s image of ``values`` (length ``n_cols``), bit for bit, without its bound."""
        return self._image(np.asarray(values, dtype=np.float64), None)[0]

    def apply(self, a: SequenceVector, p: float) -> tuple[SequenceVector, float]:
        """The image of ``a`` (length ``n_cols``) in O(M log M) and an a-priori ell-p error bound.

        A density term's entries are ``D[n] H[n+k] E[k]``
        (:func:`~genhilbert.kernel.jacobi_factors`), so on a tile of n rows
        from r0 and k columns from c0 its image is ``D * c`` with
        ``c[i] = sum_j h[i+j] b[j]``, ``h = H[r0+c0 :][: n+k-1]`` and
        ``b = E * a`` over the tile's columns.  These are entries k-1 ...
        k-2+n of the linear convolution of h with reversed b.  A circular
        convolution of length ``m >= n+k-1`` wraps only entries at or beyond
        m onto indices below k-1, so the rows kept are exact; m is the least
        power of two that long: one ``rfft`` of reversed b, one product with
        the segment and one ``irfft`` give c.  A dense tile (m = 0) forms c as
        the product of its matrix ``h[i+j]`` with b.  An atom at 0 adds
        ``c0 * a[0]`` to every row, an atom at 1 adds ``c1 * sum(a)`` to
        row 0; p is checked as :func:`lp_norm` checks it.

        All of this runs on ``a / 2**e_a``, 2**e_a the power of two above
        ``max |a|``, which keeps ``E * a``, ``sum(a)`` and ``||a||_1`` in
        range; the image and the bound are then multiplied by
        ``2**(scale + e_a)``.  Both scalings are exact while the values stay
        in the float64 range, so the image is finite whenever it is within
        that range, both equal those of the scaled measure's own plan bit for
        bit, and beyond it they are inf.

        The bound majorizes ``||y_fft - y||_p``, where ``y`` is the exact
        product of the entries :func:`~genhilbert.kernel.entry_block` returns
        with ``a`` (the dense route without its summation rounding), and also
        where ``y`` is the exact image under the exact matrix.  With unit
        roundoff u, N = n_rows, K = len(a), A the most sums that can land in
        one row (terms times tiles, plus the endpoint atoms),
        ``lam = max(1, log2 m)`` and ``s = max(0, 1/p - 1/2)`` (so that a
        tile's ``||x||_p <= n^s ||x||_2``), it is, to first order in u, a sum
        over the tiles of ::

            n^s sum_terms ||D||_inf ((16 u (lam + A + 1) + eta) ||h||_2 ||b||_1
                                     + 16 u (lam + A + 1) ||h||_1 ||b||_2)

        (a dense tile has ``k + 2A + 4`` in place of ``16 (lam + A + 1)``), plus::

            (2A + K + 3) u (c0 |a[0]| N^(1/p) + c1 ||a||_1)

        Derivation (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., section 24.1): Theorem 24.2 bounds a computed radix-2
        transform of length m by ``||fl(Fx) - Fx||_2 <= phi ||Fx||_2``,
        ``phi = log2(m) (u + gamma_4 (sqrt(2) + u)) < 7 u lam``.  m is a power
        of two, a length the theorem covers; numpy.fft's pocketfft computes
        these real transforms by radix-4 and radix-2 passes (a radix-4
        butterfly is two radix-2 levels in exact arithmetic), and the theorem
        is taken for them, not proved.  The convolution is
        ``F^-1(Fh . Fb)`` with ``||Fx||_2 = sqrt(m) ||x||_2`` and
        ``||Fx||_inf <= ||x||_1``.  The error of ``Fh`` meets ``Fb`` and costs
        ``phi ||h||_2 ||b||_1``; the error of ``Fb`` meets ``Fh`` and costs
        ``phi ||h||_1 ||b||_2``; the complex products (``sqrt(2) gamma_2``), the
        inverse transform (``phi``) and its 1/m scaling (``u``) cost at most
        ``phi + 4u`` times ``||h * b||_2 <= ||h||_2 ||b||_1`` (Young's
        inequality).  A dense tile's product instead errs by at most
        ``gamma_k`` times ``h * |b|`` per row (ibid., (3.11)).  The rest are
        relative roundings per row of the majorant ``D (h * |b|)``: forming
        ``b`` and scaling by ``D`` (u each), adding the at most A sums into
        the row (A u), and the entries' own rounding in ``entry_block``
        (at most (A + 1) u).  Per term this is
        ``(14 lam + 2A + 7) u ||h||_2 ||b||_1 + 7 lam u ||h||_1 ||b||_2`` in
        ell-2, times ``||D||_inf n^s`` in ell-p, and the tiles' errors add.
        Against the exact matrix, the factors' own error, at most eta
        relative per term since every factor is positive, adds
        ``eta D (h * |b|)`` per row.
        The atoms share those ``(2A + 3) u`` per row, and ``sum(a)`` adds at
        most ``K u``.

        The bound reads norms only (:func:`_stated_bound`).  Where the
        factors grow or shrink along the block, one tile's bound is loose by
        their spread; inside a tile of the tiled cover n+k+1 varies by less
        than a factor of 6, so each tile's bound is that of its own rows'
        image up to ``6^|alpha+beta+1|``.
        """
        p = validate_p(p)
        norms = []
        out, e_a, atoms = self._image(a.values, norms, a.nonneg)
        return SequenceVector(out), _ldexp(_stated_bound(self, norms, atoms, p), self.scale + e_a)

    # An image beyond the float64 range is inf, with no warning.
    @np.errstate(over="ignore")
    def _image(
        self, values: np.ndarray, norms: list | None, nonneg: bool = False
    ) -> tuple[np.ndarray, int, tuple[float, float]]:
        """``(y, e_a, (|a[0]|, ||a||_1))``: the image y of ``values``, 2**e_a the power of two above ``max |a|``, and a's norms in units of it.

        When ``norms`` is a list, each tile-term's b norms
        (:func:`_norms_1_2`) are appended to it in the plan's order, as
        :func:`_stated_bound` reads them.  ``nonneg`` says that no value is
        negative (:class:`SequenceVector`'s field), and then the values'
        minimum is not read; otherwise it is.

        The input is scaled once, ``a = values / 2**e_a``, and each term's
        ``E a`` is formed once over all K columns.  A tile-term's b is the
        slice of it over the tile's columns, read in place, and a new array
        only where the shift guard below fires.  A tile that is the whole
        block (a one-tile plan's) takes b, the row factor and the image whole,
        with no view.  The atoms read the same ``a``.
        """
        K = len(values)
        if K != self.n_cols:
            raise ValueError(f"input length {K} does not match the plan's {self.n_cols} columns")
        out = np.zeros(self.n_rows)
        if not (K and self.n_rows):
            return out, 0, (0.0, 0.0)
        low = 0.0 if nonneg else values.min()
        e_a = math.frexp(max(values.max(), -low))[1]
        a = np.ldexp(values, -e_a)
        products = [a * col if col.strides[0] or col[0] != 1.0 else a for _, col, _ in self.terms]
        for rows, cols, m, terms in self.tiles:
            n, k = rows.stop - rows.start, cols.stop - cols.start
            # A tile that is the whole block reads E a, the row factor and the image whole, through no view.
            whole = n == self.n_rows and k == K
            into = out if whole else out[rows]
            for (segment, _, _, h_1), (row, col, _), product in zip(terms, self.terms, products):
                b, row = (product, row) if whole else (product[cols], row[rows])
                if norms is not None:
                    norms.append(_norms_1_2(b))
                # The transforms' values reach m ||h||_1 ||b||_1 (a dense
                # product's, ||h||_1 ||b||_1), which E can carry past the
                # float64 range although |a| < 1 here.  Since |b| <= |E| and
                # E is monotone along the tile, ||b||_1 <= k max(E[0], E[-1]),
                # and below 2**1000 the plan alone settles that they cannot.
                # Otherwise b's norm decides, and when they can, they run on
                # b / 2**e, whose entries are below 1, and the rows are
                # scaled back; both steps are exact.
                shift, reach = 0, max(m, 1) * h_1
                if not reach * k * max(col[cols.start], col[cols.stop - 1]) < 2.0**1000:
                    b_1, _, e = norms[-1] if norms is not None else _norms_1_2(b)
                    if math.frexp(reach * b_1)[1] + e > 1000:
                        shift = e
                        b = np.ldexp(b, -shift)
                if m:
                    c = row * irfft(segment * rfft(b[::-1], m), m)[k - 1 : k - 1 + n]
                else:
                    c = row * (segment @ b)
                into += np.ldexp(c, shift) if shift else c
        c0, c1 = self.c0, self.c1
        a_1 = 0.0
        if c0 > 0:
            out += c0 * a[0]
        if c1 > 0:
            out[0] += c1 * a.sum()
            a_1 = np.abs(a).sum()
        if low >= 0.0:
            # The exact image is nonnegative; rows whose value lies below the
            # transforms' absolute error can come out negative, and clipping
            # them moves every row toward its exact value.
            np.maximum(out, 0.0, out=out)
        np.ldexp(out, self.scale + e_a, out=out)
        return out, e_a, (abs(float(a[0])), a_1)


def _unpickled_plan(n_rows: int, n_cols: int, terms: tuple, tiles: tuple, c0: float, c1: float, scale: int) -> FFTPlan:
    """The plan :meth:`FFTPlan.__reduce__` pickled: each ``(value, length)`` factor is broadcast back to zero stride."""
    terms = tuple(
        tuple(np.broadcast_to(*x) if type(x) is tuple else x for x in (row, col)) + (eta,) for row, col, eta in terms
    )
    return FFTPlan(n_rows, n_cols, terms, tiles, c0, c1, scale)


def _stated_bound(plan: FFTPlan, norms, atoms, p: float) -> float:
    """:meth:`FFTPlan.apply`'s bound from ``plan``, b's ``norms`` and ``atoms = (|a[0]|, ||a||_1)``.

    ``norms`` holds b's ``(||b||_1 / 2**e, ||b||_2 / 2**e, e)`` for each of
    the plan's tile-terms in order, and the plan's tiles may hold h in
    place of each segment; the bound is in the units of ``a``.
    """
    c0, c1, (a_0, a_1) = plan.c0, plan.c1, atoms
    # Every tile holds row 0 or is the one row tile of its rows, and the tiles
    # that hold a later row hold row 0 too: no row lies in more than row 0.
    A = len(plan.terms) * sum(rows.start == 0 for rows, *_ in plan.tiles) + (c0 > 0) + (c1 > 0)
    u, s = _UNIT_ROUNDOFF, max(0.0, 1.0 / p - 0.5)
    bound = 0.0
    norms = iter(norms)
    for rows, cols, m, terms in plan.tiles:
        # u scales each magnitude before the large factors do, and the
        # power of two of b last, so the bound overflows only when its
        # value is beyond float64.
        weight = factors = 0.0
        for (_, d, h_2, h_1), (_, _, eta), (b_1, b_2, e) in zip(terms, plan.terms, norms):
            weight += _ldexp(u * d * (h_2 * b_1 + h_1 * b_2), e)
            factors += _ldexp(eta * d * h_2 * b_1, e)
        scale = 16.0 * (max(1, m.bit_length() - 1) + A + 1) if m else cols.stop - cols.start + 2 * A + 4
        bound += (rows.stop - rows.start) ** s * (scale * weight + factors)
    return float(bound + (2 * A + plan.n_cols + 3) * (u * c0 * a_0 * plan.n_rows ** (1.0 / p) + u * c1 * a_1))


def fft_plan(mu: Measure, n_rows: int, n_cols: int) -> FFTPlan:
    """The :class:`FFTPlan` of the leading ``n_rows`` by ``n_cols`` block of ``mu``'s matrix.

    Its tiles are one or the tiled cover (:func:`_layout`).  Before any
    transform, both tilings' stated bounds (:meth:`FFTPlan.apply`) are
    taken at the probe, the normalized all-ones vector at p = 2, and the
    one-tile plan, the faster apply, is kept iff its bound is at most
    ``_ONE_TILE_BOUND_RATIO`` times the tiled plan's.  The probe is not the
    Lanczos loop's start vector (:func:`~genhilbert.certify._krylov_start`):
    the pick depends on the block alone, whatever runs on the plan.
    Interior atoms raise ``ValueError``, factors outside the float64 range
    too, naming ``mu``'s own term.  ``n_rows`` is checked as every size is; ``n_cols`` must be an
    integer from 0 to ``HANKEL_CAP``.

    The plan is that of ``(nu, n_rows, n_cols)``, ``mu = 2**e * nu``
    (:func:`_binary_scale`), read from or kept in the process memo under
    that key (:func:`_held_plan`), and serves ``mu`` with scale e, so
    every power-of-two multiple of a measure shares it.
    """
    if mu.interior_atoms:
        raise ValueError("the FFT apply takes density terms and endpoint atoms only")
    _check_size(n_rows, HANKEL_CAP)
    if not isinstance(n_cols, numbers.Integral) or n_cols < 0:
        raise ValueError(f"n_cols must be an integer >= 0, got {n_cols}")
    if n_cols > HANKEL_CAP:
        raise ResourceLimitError(f"size {n_cols} exceeds cap {HANKEL_CAP}")
    plan, e = _held_plan(mu, n_rows, n_cols)
    return FFTPlan(plan.n_rows, plan.n_cols, plan.terms, plan.tiles, plan.c0, plan.c1, e) if e else plan


def _held_plan(mu: Measure, n_rows: int, n_cols: int) -> tuple[FFTPlan, int]:
    """``(plan, e)``: nu's plan of the leading ``n_rows`` by ``n_cols`` block, at scale 0, with ``mu = 2**e * nu``.

    The plan is read from or kept in the memo (:func:`_cached`) under
    ``(nu, n_rows, n_cols)``, as a section is under ``(nu, size)``
    (:func:`_held_section`), and built by :func:`_build_plan` on a miss.
    Its images are ``2**-e`` times mu's, exactly while they stay in the
    float64 range.  :func:`fft_plan` checks its arguments and wraps the
    result at scale e; :class:`~genhilbert.certify._Block` reads the pair
    as it is, for a block it has checked itself.
    """
    return _cached(mu, (n_rows, n_cols), lambda nu: _build_plan(nu, n_rows, n_cols))


def _held_section(mu: Measure, size: int, build) -> tuple[np.ndarray, int]:
    """``(S, e)``: nu's dense leading ``size`` by ``size`` section S, read-only, with ``mu = 2**e * nu``.

    S is read from or kept in the memo as a plan is (:func:`_cached`),
    under ``(nu, size)``, a key no plan takes (a plan's is
    ``(nu, n_rows, n_cols)``), so a measure without interior atoms may hold
    both its section and its plan of one size, and every power-of-two
    multiple of a measure reads one section; its products with S are
    ``2**e`` times mu's, exactly while they stay in the float64 range.  On
    a miss ``build(nu, size)`` (:func:`~genhilbert.kernel.finite_section`'s
    signature) builds it.  A dense square block reads it for every product
    while its ``size**2`` float64 entries fit ``_PLAN_MEMO_BYTES``
    (:meth:`~genhilbert.certify._Block.apply`).
    """
    return _cached(mu, (size,), lambda nu: _section_entry(build(nu, size).entries))


def _section_entry(section: np.ndarray) -> tuple:
    """The memo entry of a section: the section, read-only from now on, its bytes and its largest entry."""
    section.flags.writeable = False
    return section, section.nbytes, (float(section.max()),)


#: Bytes of plans and sections the memo keeps for the life of the process.
_PLAN_MEMO_BYTES = 64 << 20

# (nu, n_rows, n_cols) -> (plan, bytes held, each term's row maximum),
# (nu, size) -> (section, bytes held, (its largest entry,)) and
# (nu, "sigma", size, tol, dense, step cap) -> (sigma_N, 0, (sigma_N,)) (certify._Block.sigma);
# least recently used first.
_plan_memo: OrderedDict = OrderedDict()


def _cached(mu: Measure, shape: tuple, build):
    """``(value, e)``: the memo's value under ``(nu, *shape)``, ``nu = 2**-e * mu`` (:func:`_binary_scale`), or ``build(nu)``'s.

    ``build`` returns ``(value, bytes held, largest values)``, the values
    that scale with the measure: each term's row maximum for a plan, the
    largest entry for a section, sigma_N itself for a held sigma_N
    (:meth:`~genhilbert.certify._Block.sigma`, which holds no array and
    counts 0 bytes).  When nu's build raises ``ValueError``, or
    one of nu's largest values times ``2**e`` leaves float64, mu's own build
    runs with e = 0: it gives mu's value where only nu's leaves float64,
    and otherwise raises mu's own error.  A value within
    ``_PLAN_MEMO_BYTES`` is kept as the memo's newest, and the least
    recently used go first while the memo holds more; one over the budget
    is never kept and lives as long as its caller holds it.  A call that
    raises leaves the memo unchanged.

    A hit costs the same however many entries the memo holds: it only
    becomes the newest entry.  Only a kept build sums the held bytes and
    evicts, since summing reads every entry and so hashes every key.
    """
    for nu, e in (_binary_scale(mu), (mu, 0)):
        key = (nu, *shape)
        entry = _plan_memo.get(key)
        hit = entry is not None
        if not hit:
            try:
                entry = build(nu)
            except ValueError:
                if not e:
                    raise
                continue
        if not e or all(_ldexp(top, e) < math.inf for top in entry[2]):
            break
    value, held, _ = entry
    if hit:
        _plan_memo.move_to_end(key)
    elif held <= _PLAN_MEMO_BYTES:
        _plan_memo[key] = entry
        while sum(nbytes for _, nbytes, _ in _plan_memo.values()) > _PLAN_MEMO_BYTES:
            _plan_memo.popitem(last=False)
    return value, e


#: Binary scalings (_binary_scale) kept per process, least recently used
#: out first.  Each holds two small measure records, and a sweep reads a
#: handful of measures, so the bound only caps memory.
_BINARY_SCALES = 128


@lru_cache(maxsize=_BINARY_SCALES)
def _binary_scale(mu: Measure) -> tuple[Measure, int]:
    """``(nu, e)`` with ``mu = 2**e * nu`` exactly and nu's first coefficient or mass in [1, 2).

    e is 0, and nu is ``mu``, when ``mu`` has no weight or a weight of nu
    would leave the normal float64 range.  The pair is held per measure
    (``_BINARY_SCALES``), and a measure equal to one held gets that one's
    pair: with e = 0, its nu may be an equal twin of ``mu``, not ``mu`` itself.
    """
    exponents = [math.frexp(w)[1] for w in [t.coeff for t in mu.jacobi_terms] + [a.mass for a in mu.atoms]]
    e = exponents[0] - 1 if exponents else 0
    if not e or not all(-1021 <= x - e <= 1024 for x in exponents):
        return mu, 0
    terms = tuple(JacobiTerm(math.ldexp(t.coeff, -e), t.alpha, t.beta) for t in mu.jacobi_terms)
    return Measure(terms, tuple(Atom(a.location, math.ldexp(a.mass, -e)) for a in mu.atoms)), e


def _build_plan(mu: Measure, n_rows: int, n_cols: int, tiled: bool | None = None) -> tuple[FFTPlan, int, tuple]:
    """``mu``'s plan from nothing, the bytes of its arrays and each term's row maximum.

    The factors come from one :func:`~genhilbert.kernel.jacobi_factors`
    call per term and are the plan's ``terms`` whole, with each term's eta;
    a tile-term reads its rows' largest factor from them.  Both tilings are
    laid out as plans, with each tile-term's Hankel factor h in its
    segment's place, and spectra are taken only for the tiling
    :func:`fft_plan` picks at its all-ones probe, or for ``tiled`` when it
    is not None: one ``rfft`` per FFT tile-term, an array of its own
    (:class:`FFTPlan`).  Every array is read-only, and its bytes count once;
    a zero-stride constant counts none.
    """
    c0, c1 = mu.atom_at(0.0), mu.atom_at(1.0)
    if not n_cols:
        return FFTPlan(n_rows, n_cols, (), (), c0, c1), 0, ()
    # The indices live with the factors until the plan is built: freed earlier, they left later
    # applies' large temporaries where each free returns them to the system (c*dt at 2^20: 17% slower).
    n, k, d = np.arange(n_rows), np.arange(n_cols), np.arange(n_rows + n_cols - 1.0)
    factors = [jacobi_factors(term, n, k, d) for term in mu.jacobi_terms]
    for row, col, _ in factors:
        row.flags.writeable = col.flags.writeable = False
    terms = tuple((row, col, _term_rtol(term)) for (row, col, _), term in zip(factors, mu.jacobi_terms))
    # Both tilings as plans, with h in each segment's place.
    candidates = [
        FFTPlan(n_rows, n_cols, terms, tuple(
            (r, c, m, tuple(
                (h, float(row[r].max()), float(np.linalg.norm(h)), float(h.sum()))
                for row, _, hankel in factors
                for h in [hankel[r.start + c.start : r.stop + c.stop - 1]]
            ))
            for r, c, m in _layout(n_rows, n_cols, t)
        ), c0, c1)
        for t in (False, True)
    ]
    if tiled is None:
        # The probe a = 1/sqrt(K) at p = 2: b = E/sqrt(K), |a[0]| = 1/sqrt(K), ||a||_1 = sqrt(K).
        q = 1.0 / math.sqrt(n_cols)
        one, split = (
            _stated_bound(plan, [(q * b_1, q * b_2, e) for b_1, b_2, e in norms], (q, n_cols * q), 2.0)
            for plan in candidates
            for norms in [[_norms_1_2(col[c]) for _, c, _, _ in plan.tiles for _, col, _ in plan.terms]]
        )
        tiled = not one <= _ONE_TILE_BOUND_RATIO * split
    nbytes = sum(x.nbytes for row, col, _ in factors for x in (row, col) if x.strides[-1])
    tiles = []
    for r, c, m, tile_terms in candidates[tiled].tiles:
        shape, held = (r.stop - r.start, c.stop - c.start), []
        for h, *hs in tile_terms:
            segment = rfft(h, m) if m else as_strided(h, shape, h.strides * 2).copy()
            segment.flags.writeable = False
            nbytes += segment.nbytes
            held.append((segment, *hs))
        tiles.append((r, c, m, tuple(held)))
    row_max = tuple(float(row.max()) for row, _, _ in factors)
    return FFTPlan(n_rows, n_cols, terms, tuple(tiles), c0, c1), nbytes, row_max


def hankel_fast_apply(a: SequenceVector, n_rows: int) -> SequenceVector:
    """Classical Hilbert matrix apply, d_n = sum_k a_k / (n+k+1), in O(M log M).

    This is the :class:`FFTPlan` of the Lebesgue measure, whose factors are
    ``D = E = 1`` and ``H[s] = 1/(s+1)``.
    """
    return fft_plan(LEBESGUE, n_rows, len(a)).apply(a, 2.0)[0]


def sequence_to_csv(seq: SequenceVector, p: float | None = None) -> str:
    """One value per line at full precision, optional ``# p=<value>`` header."""
    lines = []
    if p is not None:
        lines.append("# p=%r" % float(p))
    lines.extend("%.17g" % v for v in seq.values)
    return "\n".join(lines) + "\n"


def sequence_from_csv(text: str) -> tuple[SequenceVector, float | None]:
    """Parse the sequence format; returns the vector and the header p, if any.

    The text is read by :func:`~genhilbert.norms.parse_sequence_csv`.
    """
    values, p = parse_sequence_csv(text)
    return SequenceVector(values), p
