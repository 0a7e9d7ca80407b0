"""Applying the operator to sequences.

Two deliberately redundant routes: an entrywise truncated matvec (the
workhorse) and quadrature of the row generating series against the measure
(the reference).  Measures without interior atoms additionally get an
FFT apply: each density term is a Hankel matrix scaled by diagonal factors
on both sides, so its image is one convolution against a Hankel spectrum
that an :class:`FFTPlan` computes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, rfft
from scipy.special import gammaln, roots_jacobi

from .errors import ConvergenceError, ResourceLimitError
from .kernel import (
    _TINY, _UNIT_ROUNDOFF, DEFAULT_SECTION_CAP, _check_size, entry_block, jacobi_factors,
)
from .measure import LEBESGUE, Measure
from .norms import validate_p

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

#: Size cap for the FFT routes (n_rows and input length).
HANKEL_CAP = 1 << 22

# Target elements per block in the truncated matvec (memory bound).
_APPLY_BLOCK_ELEMENTS = 1 << 18

# Largest Gauss-Jacobi rule used for exact polynomial integration; beyond
# this the quadrature route falls back to compare-two-rules refinement.
_GAUSS_EXACT_MAX = 1024

# Re-derive the running log-term from log-gamma every this many series steps.
_LOG_REFRESH = 4096

# Row-series truncation: stop once the tail bound is below _TAIL_TOL at
# every grid point; raise ConvergenceError after _MAX_TERMS terms.
_TAIL_TOL = 1e-12
_MAX_TERMS = 10**7


@dataclass(frozen=True)
class SequenceVector:
    """Finite stored prefix of a sequence, implicitly zero beyond its end.

    ``nonneg`` is read from the values: whether none is negative.
    """

    values: np.ndarray
    nonneg: bool = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"sequence values must be one-dimensional, got shape {values.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nonneg", bool(values.size == 0 or values.min() >= 0.0))

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
    try:
        return math.ldexp(root, e)
    except OverflowError:
        return math.inf


def _scaled(x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """``x`` divided by the power of two 2**e above its largest magnitude, ``||x||_2`` and e.

    The division is exact and keeps the squares in ``np.linalg.norm`` in
    range; the norm is math.inf only when it is beyond the float64 range.
    """
    e = math.frexp(float(np.abs(x).max()))[1]
    x = np.ldexp(x, -e)
    try:
        return x, math.ldexp(float(np.linalg.norm(x)), e), e
    except OverflowError:
        return x, math.inf, e


def _row_series_block(rows, t, values) -> np.ndarray:
    """Row series sum_m binom(n+m,m) t^m (1-t)^n a_m on a rows-by-nodes grid.

    ``t`` must lie strictly inside (0,1) and ``values`` be nonempty.  Terms
    are generated through a running log recurrence; iteration stops early
    once the geometric tail bound (ratio threshold (1+t)/2) falls below
    ``_TAIL_TOL`` for every grid point, and is exact at the stored length
    otherwise.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 1)
    t = np.asarray(t, dtype=np.float64).reshape(1, -1)
    out = np.zeros((rows.shape[0], t.shape[1]))
    K = len(values)
    suffix_max = np.maximum.accumulate(np.abs(values)[::-1])[::-1]
    log_t = np.log(t)
    log_1mt = np.log1p(-t)
    r_star = (1.0 + t) / 2.0
    tail_scale = 1.0 / (1.0 - r_star)
    log_c = rows * log_1mt
    m = 0
    while True:
        out += np.exp(log_c) * values[m]
        m += 1
        if m == K:
            return out
        log_c = log_c + log_t + np.log((rows + m) / m)
        if m % _LOG_REFRESH == 0:
            log_c = (
                gammaln(rows + (m + 1.0))
                - gammaln(m + 1.0)
                - gammaln(rows + 1.0)
                + m * log_t
                + rows * log_1mt
            )
        ratio_next = t * (rows + m + 1.0) / (m + 1.0)
        if np.all(ratio_next <= r_star):
            tail_bound = suffix_max[m] * np.exp(log_c) * tail_scale
            if np.all(tail_bound < _TAIL_TOL):
                return out
        if m >= _MAX_TERMS:
            raise ConvergenceError(
                f"row series not converged after {m} terms (tail_tol={_TAIL_TOL})",
                estimate=float(np.max(suffix_max[m] * np.exp(log_c) * tail_scale)),
            )


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
    Rows are computed in memory-bounded blocks; each row is summed whole in
    a fixed order, so results do not depend on the blocking.
    """
    _check_size(n_rows, DEFAULT_SECTION_CAP)
    k_row = np.arange(len(a))[None, :]

    def rows(start, stop):
        return entry_block(mu, np.arange(start, stop)[:, None], k_row)

    return SequenceVector(_row_block_sums(rows, a.values, n_rows))


def _row_block_sums(rows, values: np.ndarray, n_rows: int) -> np.ndarray:
    """``sum_k rows(start, stop)[i, k] * values[k]`` for the first ``n_rows`` rows.

    ``rows(start, stop)`` returns the matrix rows ``start:stop`` over the
    columns of ``values``; it is called on blocks of at most
    ``_APPLY_BLOCK_ELEMENTS`` entries (at least one row).  Each row is summed
    whole in a fixed order, so results do not depend on the blocking.
    """
    K = len(values)
    out = np.zeros(n_rows)
    if K == 0:
        return out
    block = max(1, min(n_rows, _APPLY_BLOCK_ELEMENTS // K))
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        out[start:stop] = (rows(start, stop) * values).sum(axis=1)
    return out


def _gauss_jacobi_integrals(term, rows, values, n_nodes):
    """Integrals of the row series against coeff * t^alpha (1-t)^beta dt."""
    x, w = roots_jacobi(n_nodes, term.beta, term.alpha)
    t = 0.5 * (x + 1.0)
    scale = term.coeff * 2.0 ** -(term.alpha + term.beta + 1.0)
    e = _row_series_block(rows, t, values)
    return scale * (e * w).sum(axis=1)


def apply_via_quadrature(mu: Measure, a: SequenceVector, n_rows: int) -> SequenceVector:
    """Reference apply route: integrate the row series against the measure.

    Density terms are integrated by Gauss-Jacobi rules matched to each
    term's own endpoint weight.  The row series is a polynomial of degree
    stored-length-1 + n, so a rule with enough nodes is exact; when the
    required rule would be too large, two refinements are compared at
    relative tolerance 1e-9 instead.  Atoms contribute point
    evaluations: interior ones directly, the endpoint ones through the
    t=0 / t=1 row series conventions.
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


@dataclass(frozen=True)
class FFTPlan:
    """The FFT apply of one measure's leading ``n_rows`` by ``n_cols`` block, for many inputs.

    Per density term ``(row, col, spectrum, h_2, h_1)``: the factors
    :func:`~genhilbert.kernel.jacobi_factors` returns, ``rfft(hankel, m)``
    and the Hankel factor's 2- and 1-norms; ``c0`` and ``c1`` are the
    endpoint masses.  Build one with :func:`fft_plan`.
    """

    n_rows: int
    n_cols: int
    m: int
    terms: tuple
    c0: float
    c1: float

    def transposed(self) -> FFTPlan:
        """The plan of the transposed matrix: row and column factors swap, and so do c0 and c1."""
        terms = tuple((col, row, spectrum, h_2, h_1) for row, col, spectrum, h_2, h_1 in self.terms)
        return FFTPlan(self.n_cols, self.n_rows, self.m, terms, self.c1, self.c0)

    def apply(self, a: SequenceVector, p: float) -> tuple[SequenceVector, float]:
        """The image of ``a`` (length ``n_cols``) in O(M log M) and an a-priori ell-p error bound.

        A density term's entries are ``D[n] H[n+k] E[k]``
        (:func:`~genhilbert.kernel.jacobi_factors`), so its image is ``D * c``
        with ``c[n] = sum_k H[n+k] b[k]`` and ``b = E * a``.  These are entries
        K-1 ... K-2+N of the linear convolution of ``h = H[:N+K-1]`` with
        reversed ``b``.  A circular convolution of length ``m >= N+K-1`` wraps
        only entries at or beyond ``m`` onto indices below K-1, so the rows kept
        are exact; ``m`` is the least power of two that long, and the image is
        finite whenever it is within the float64 range.  An atom at 0 adds
        ``c0 * a[0]`` to every row, an atom at 1 adds ``c1 * sum(a)`` to row 0.

        The bound majorizes ``||y_fft - y||_p``, where ``y`` is the exact
        product of the entries :func:`~genhilbert.kernel.entry_block` returns
        with ``a`` (the dense route without its summation rounding).  With unit
        roundoff u, N = n_rows, K = len(a), T components (density terms plus
        endpoint atoms), ``lam = max(1, log2 m)`` and ``s = max(0, 1/p - 1/2)``
        (so that ``||x||_p <= N^s ||x||_2``), it is, to first order in u::

            16 u (lam + T + 1) N^s sum_terms ||D||_inf (||h||_2 ||b||_1 + ||h||_1 ||b||_2)
            + (2T + K + 3) u (c0 |a[0]| N^(1/p) + c1 ||a||_1)

        Derivation (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., section 24.1): Theorem 24.2 bounds a computed radix-2
        transform of length m by ``||fl(Fx) - Fx||_2 <= phi ||Fx||_2``,
        ``phi = log2(m) (u + gamma_4 (sqrt(2) + u)) < 7 u lam``.  m is a power
        of two, a length the theorem covers; scipy computes these real
        transforms by radix-4 and radix-2 passes (a radix-4 butterfly is two
        radix-2 levels in exact arithmetic), and the theorem is taken for them,
        not proved.  The convolution is
        ``F^-1(Fh . Fb)`` with ``||Fx||_2 = sqrt(m) ||x||_2`` and
        ``||Fx||_inf <= ||x||_1``.  The error of ``Fh`` meets ``Fb`` and costs
        ``phi ||h||_2 ||b||_1``; the error of ``Fb`` meets ``Fh`` and costs
        ``phi ||h||_1 ||b||_2``; the complex products (``sqrt(2) gamma_2``), the
        inverse transform (``phi``) and its 1/m scaling (``u``) cost at most
        ``phi + 4u`` times ``||h * b||_2 <= ||h||_2 ||b||_1`` (Young's
        inequality).  The rest are relative roundings per row of the majorant
        ``D (h * |b|)``: forming ``b`` and scaling by ``D`` (u each), adding the
        T components (T u), and the entries' own rounding in ``entry_block``
        ((T + 1) u).  Per term this is
        ``(14 lam + 2T + 7) u ||h||_2 ||b||_1 + 7 lam u ||h||_1 ||b||_2`` in
        ell-2, times ``||D||_inf N^s`` in ell-p.  The atoms share those
        ``(2T + 3) u`` per row, and ``sum(a)`` adds at most ``K u``.
        """
        values = a.values
        K, n_rows = len(values), self.n_rows
        if K != self.n_cols:
            raise ValueError(f"input length {K} does not match the plan's {self.n_cols} columns")
        out = np.zeros(n_rows)
        if K == 0:
            return SequenceVector(out), 0.0
        m, u = self.m, _UNIT_ROUNDOFF
        # u scales each magnitude before the large factors do, so the bound
        # overflows only when its value is beyond float64.
        weight = 0.0
        for row, col, spectrum, h_2, h_1 in self.terms:
            b = col * values
            b_1, (b_2, e) = np.abs(b).sum(), _scaled(b)[1:]
            # The transforms' values reach m ||h||_1 ||b||_1.  Where that may
            # pass the float64 range they run on b / 2**e, whose entries are
            # below 1, and the rows are scaled back; both steps are exact.
            # The copy is made only then, so the usual path holds no second
            # array of b's length during the transforms.
            shift = 0 if b_1 < 2.0**1000 / (m * h_1) else e
            conv = irfft(spectrum * rfft((np.ldexp(b, -shift) if shift else b)[::-1], m), m)
            rows = row * conv[K - 1 : K - 1 + n_rows]
            out += np.ldexp(rows, shift) if shift else rows
            weight += u * row.max() * (h_2 * b_1 + h_1 * b_2)
        c0, c1 = self.c0, self.c1
        if c0 > 0:
            out += c0 * values[0]
        if c1 > 0:
            out[0] += c1 * values.sum()
        if a.nonneg:
            # The exact image is nonnegative; rows whose value lies below the
            # transforms' absolute error can come out negative, and clipping
            # them moves every row toward its exact value.
            np.maximum(out, 0.0, out=out)
        components = len(self.terms) + (c0 > 0) + (c1 > 0)
        lam = max(1, m.bit_length() - 1)
        bound = 16.0 * (lam + components + 1) * n_rows ** max(0.0, 1.0 / p - 0.5) * weight
        bound += (2 * components + K + 3) * (
            u * c0 * abs(values[0]) * n_rows ** (1.0 / p) + u * c1 * np.abs(values).sum()
        )
        return SequenceVector(out), float(bound)


def fft_plan(mu: Measure, n_rows: int, n_cols: int) -> FFTPlan:
    """The :class:`FFTPlan` of the leading ``n_rows`` by ``n_cols`` block of ``mu``'s matrix.

    For measures of density terms and endpoint atoms only; interior atoms
    raise ``ValueError``, factors outside the float64 range too.
    """
    if mu.interior_atoms:
        raise ValueError("the FFT apply takes density terms and endpoint atoms only")
    _check_size(n_rows, HANKEL_CAP)
    if n_cols > HANKEL_CAP:
        raise ResourceLimitError(f"size {n_cols} exceeds cap {HANKEL_CAP}")
    m = 1 << (n_rows + n_cols - 2).bit_length()
    terms = []
    if n_cols:
        n, k = np.arange(n_rows), np.arange(n_cols)
        d = np.arange(n_rows + n_cols - 1, dtype=np.float64)
        for term in mu.jacobi_terms:
            row, col, hankel = jacobi_factors(term, n, k, d)
            terms.append((row, col, rfft(hankel, m), np.linalg.norm(hankel), hankel.sum()))
    return FFTPlan(n_rows, n_cols, m, tuple(terms), mu.atom_at(0.0), mu.atom_at(1.0))


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
    """Parse the sequence format; returns the vector and the header p, if any."""
    p = None
    values = []
    for i, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("p="):
                try:
                    p = validate_p(body[2:].strip())
                except ValueError as exc:
                    raise ValueError(f"line {i + 1}: {exc}") from None
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"line {i + 1}: not a finite number: {line!r}")
        values.append(value)
    return SequenceVector(np.array(values, dtype=np.float64)), p
