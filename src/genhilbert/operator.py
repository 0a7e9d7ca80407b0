"""Applying the operator to sequences.

Two deliberately redundant routes: an entrywise truncated matvec (the
workhorse) and quadrature of the row generating series against the measure
(the reference).  The classical Hilbert matrix additionally gets an
FFT-based fast apply exploiting its Hankel structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gammaln, roots_jacobi

from .errors import ConvergenceError, ResourceLimitError
from .kernel import DEFAULT_SECTION_CAP, entry_block
from .measure import Measure

__all__ = [
    "SequenceVector",
    "EnEvalConfig",
    "HANKEL_CAP",
    "lp_norm",
    "row_series_value",
    "apply_truncated",
    "apply_via_quadrature",
    "hankel_fast_apply",
    "uniform_coeff",
    "sequence_to_csv",
    "sequence_from_csv",
]

#: Size cap for the FFT fast path (n_rows and input length).
HANKEL_CAP = 1 << 22

# Target elements per block in the truncated matvec (memory bound).
_APPLY_BLOCK_ELEMENTS = 4_000_000

# Largest Gauss-Jacobi rule used for exact polynomial integration; beyond
# this the quadrature route falls back to compare-two-rules refinement.
_GAUSS_EXACT_MAX = 1024

# Re-derive the running log-term from log-gamma every this many series steps.
_LOG_REFRESH = 4096


@dataclass(frozen=True)
class SequenceVector:
    """Finite stored prefix of a sequence, implicitly zero beyond its end.

    ``nonneg=None`` infers the flag from the values; passing ``True``
    asserts it.
    """

    values: np.ndarray
    nonneg: bool | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"sequence values must be one-dimensional, got shape {values.shape}")
        object.__setattr__(self, "values", values)
        nonneg = self.nonneg
        if nonneg is None:
            nonneg = bool(values.size == 0 or values.min() >= 0.0)
        elif nonneg and values.size and not values.min() >= 0.0:
            raise ValueError("nonneg flag set but sequence has negative values")
        object.__setattr__(self, "nonneg", bool(nonneg))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class EnEvalConfig:
    """Truncation policy for row-series evaluation."""

    tail_tol: float = 1e-12
    max_terms: int = 10**7

    def __post_init__(self):
        if not self.tail_tol > 0:
            raise ValueError(f"tail_tol must be > 0, got {self.tail_tol}")
        if not self.max_terms > 0:
            raise ValueError(f"max_terms must be > 0, got {self.max_terms}")


def lp_norm(values, p: float) -> float:
    """ell-p norm of a finite vector; p may be math.inf."""
    values = np.asarray(values, dtype=np.float64)
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1, got {p}")
    if values.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.abs(values).max())
    if p == 1.0:
        return float(np.abs(values).sum())
    return float((np.abs(values) ** p).sum() ** (1.0 / p))


def _row_series_block(rows, t, values, cfg: EnEvalConfig) -> np.ndarray:
    """Row series sum_m binom(n+m,m) t^m (1-t)^n a_m on a rows-by-nodes grid.

    ``t`` must lie strictly inside (0,1).  Terms are generated through a
    running log recurrence; iteration stops early once the geometric tail
    bound (ratio threshold (1+t)/2) falls below ``tail_tol`` for every grid
    point, and is exact at the stored length otherwise.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 1)
    t = np.asarray(t, dtype=np.float64).reshape(1, -1)
    out = np.zeros((rows.shape[0], t.shape[1]))
    K = len(values)
    if K == 0:
        return out
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
            if np.all(tail_bound < cfg.tail_tol):
                return out
        if m >= cfg.max_terms:
            raise ConvergenceError(
                f"row series not converged after {m} terms (tail_tol={cfg.tail_tol})",
                estimate=float(np.max(suffix_max[m] * np.exp(log_c) * tail_scale)),
            )


def row_series_value(n: int, t: float, a: SequenceVector, cfg: EnEvalConfig | None = None) -> float:
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
    cfg = cfg if cfg is not None else EnEvalConfig()
    return float(_row_series_block([n], [t], values, cfg)[0, 0])


def apply_truncated(
    mu: Measure, a: SequenceVector, n_rows: int, cap: int = DEFAULT_SECTION_CAP
) -> SequenceVector:
    """First ``n_rows`` outputs of the matrix applied to the stored sequence.

    Exact truncation: input beyond the stored length is treated as zero.
    Rows are computed in memory-bounded blocks; each row is summed whole in
    a fixed order, so results do not depend on the blocking.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    if n_rows > cap:
        raise ResourceLimitError(f"n_rows {n_rows} exceeds cap {cap}")
    values = a.values
    K = len(values)
    out = np.zeros(n_rows)
    if K == 0:
        return SequenceVector(out, nonneg=True)
    k_row = np.arange(K)[None, :]
    block = max(1, min(n_rows, _APPLY_BLOCK_ELEMENTS // K))
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        n_col = np.arange(start, stop)[:, None]
        out[start:stop] = (entry_block(mu, n_col, k_row) * values).sum(axis=1)
    return SequenceVector(out, nonneg=a.nonneg or None)


def _gauss_jacobi_integrals(term, rows, values, cfg, n_nodes):
    """Integrals of the row series against coeff * t^alpha (1-t)^beta dt."""
    x, w = roots_jacobi(n_nodes, term.beta, term.alpha)
    t = 0.5 * (x + 1.0)
    scale = term.coeff * 2.0 ** -(term.alpha + term.beta + 1.0)
    e = _row_series_block(rows, t, values, cfg)
    return scale * (e * w).sum(axis=1)


def apply_via_quadrature(
    mu: Measure,
    a: SequenceVector,
    n_rows: int,
    cfg: EnEvalConfig | None = None,
    cap: int = DEFAULT_SECTION_CAP,
) -> SequenceVector:
    """Reference apply route: integrate the row series against the measure.

    Density terms are integrated by Gauss-Jacobi rules matched to each
    term's own endpoint weight.  The row series is a polynomial of degree
    stored-length-1 + n, so a rule with enough nodes is exact; when the
    required rule would be too large, two refinements are compared at
    relative tolerance 1e-9 instead.  Atoms contribute point evaluations:
    interior ones directly, the endpoint ones through the t=0 / t=1 row
    series conventions.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    if n_rows > cap:
        raise ResourceLimitError(f"n_rows {n_rows} exceeds cap {cap}")
    cfg = cfg if cfg is not None else EnEvalConfig()
    values = a.values
    K = len(values)
    out = np.zeros(n_rows)
    if K == 0:
        return SequenceVector(out, nonneg=True)
    rows = np.arange(n_rows)
    for term in mu.jacobi_terms:
        degree = (K - 1) + (n_rows - 1)
        n_nodes = degree // 2 + 1
        if n_nodes <= _GAUSS_EXACT_MAX:
            out += _gauss_jacobi_integrals(term, rows, values, cfg, n_nodes)
        else:
            coarse = _gauss_jacobi_integrals(term, rows, values, cfg, _GAUSS_EXACT_MAX)
            fine = _gauss_jacobi_integrals(term, rows, values, cfg, 2 * _GAUSS_EXACT_MAX)
            scale = np.maximum(np.abs(fine), np.abs(coarse))
            err = float(np.max(np.abs(fine - coarse) / np.where(scale > 0, scale, 1.0)))
            if err > 1e-9:
                raise ConvergenceError(
                    f"quadrature not converged for density term {term}: "
                    f"relative change {err:.3e} between refinements",
                    estimate=err,
                )
            out += fine
    interior = [atom for atom in mu.atoms if 0.0 < atom.location < 1.0]
    if interior:
        t_atoms = np.array([atom.location for atom in interior])
        masses = np.array([atom.mass for atom in interior])
        out += _row_series_block(rows, t_atoms, values, cfg) @ masses
    c0, c1 = mu.atom_at(0.0), mu.atom_at(1.0)
    if c0 > 0:
        out += c0 * values[0]
    if c1 > 0:
        out[0] += c1 * values.sum()
    return SequenceVector(out, nonneg=a.nonneg or None)


def uniform_coeff(mu: Measure) -> float | None:
    """``c`` when ``mu`` is ``c * dt``, whose matrix is ``c`` times the classical one; else None."""
    terms = mu.jacobi_terms
    if mu.atoms or len(terms) != 1 or (terms[0].alpha, terms[0].beta) != (0.0, 0.0):
        return None
    return terms[0].coeff


def hankel_fast_apply(a: SequenceVector, n_rows: int, cap: int = HANKEL_CAP) -> SequenceVector:
    """Classical Hilbert matrix apply, d_n = sum_k a_k / (n+k+1), in O(M log M).

    The matrix is Hankel (entries depend on n+k only), so the apply embeds
    into one FFT convolution of the kernel 1/(s+1) with the reversed input.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    K = len(a)
    if n_rows > cap or K > cap:
        raise ResourceLimitError(f"size {max(n_rows, K)} exceeds cap {cap}")
    values = a.values
    if K == 0:
        return SequenceVector(np.zeros(n_rows), nonneg=True)
    diag_len = n_rows + K - 1
    h = 1.0 / np.arange(1.0, diag_len + 1.0)
    m = next_fast_len(diag_len + K - 1)
    conv = irfft(rfft(h, m) * rfft(values[::-1], m), m)
    out = conv[K - 1 : K - 1 + n_rows].copy()
    return SequenceVector(out, nonneg=a.nonneg or None)


def sequence_to_csv(seq: SequenceVector, p: float | None = None) -> str:
    """One value per line at full precision, optional ``# p=<value>`` header."""
    lines = []
    if p is not None:
        lines.append("# p=%s" % ("inf" if math.isinf(p) else repr(float(p))))
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
                p = math.inf if body[2:].strip() == "inf" else float(body[2:])
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"line {i + 1}: not a finite number: {line!r}")
        values.append(value)
    return SequenceVector(np.array(values, dtype=np.float64)), p
