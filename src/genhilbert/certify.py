"""Empirical certification of analytic norms.

Everything here produces lower bounds: truncated applies of power-law test
sequences (whose image ratio approaches the sharp norm as the exponent
perturbation shrinks), and finite-section largest singular values for p=2
(which increase to the operator norm for positive-entry matrices).  The
analytic norm from the norms module is the ceiling every number is checked
against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .kernel import DEFAULT_SECTION_CAP, _check_size, finite_section
from .measure import Measure
from .norms import NormVerdict, classify_boundedness, validate_p, verdict_to_dict
from .operator import (
    HANKEL_CAP,
    FFTPlan,
    SequenceVector,
    _row_block_sums,
    _scaled,
    apply_truncated,
    fft_plan,
    lp_norm,
)

__all__ = [
    "ExtremalParams",
    "CertificationReport",
    "extremal_sequence",
    "lower_bound_ratio",
    "p2_section_norm",
    "convergence_sweep",
    "report_to_csv",
    "report_to_json",
]

# Slack allowed between an empirical lower bound and the analytic norm it
# must stay below (floating-point headroom only).
SOUNDNESS_SLACK = 1e-6

# Largest stated error bound of the FFT apply, relative to the image norm,
# at which lower_bound_ratio prefers it to the dense route.
FFT_ROUTE_RTOL = 1e-9

_POWER_ITERATION_CAP = 20_000


@dataclass(frozen=True)
class ExtremalParams:
    """Power-law test sequence family (n+1)^{-w}, w = 1/p + epsilon.

    epsilon is capped at 1/p: the certification grids only ever shrink
    epsilon toward 0, and the cap keeps w within (1/p, 2/p].
    """

    p: float
    epsilon: float
    length: int

    def __post_init__(self):
        p = validate_p(self.p)
        if math.isinf(p):
            raise ValueError("extremal sequences are defined for finite p only")
        object.__setattr__(self, "p", p)
        if not 0.0 < self.epsilon <= 1.0 / p:
            raise ValueError(f"epsilon must lie in (0, 1/p], got {self.epsilon} at p={p}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")

    @property
    def w(self) -> float:
        return 1.0 / self.p + self.epsilon


@dataclass(frozen=True)
class CertificationReport:
    """Sweep results; construction enforces the report's guarantees.

    Ratios must not exceed a finite target beyond floating-point slack, and
    the finite-section series must be nondecreasing.
    """

    ratios: tuple
    target: float
    sigma_max_series: tuple
    verdict: NormVerdict

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(tuple(row) for row in self.ratios))
        object.__setattr__(
            self, "sigma_max_series", tuple(tuple(row) for row in self.sigma_max_series)
        )
        if math.isfinite(self.target):
            for eps, big_k, n_rows, ratio in self.ratios:
                if ratio > self.target + SOUNDNESS_SLACK:
                    raise ValueError(
                        f"lower-bound ratio {ratio} exceeds analytic norm {self.target} "
                        f"(eps={eps}, K={big_k}, N={n_rows})"
                    )
        sigmas = [s for _, s in self.sigma_max_series]
        if any(b < a for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError(f"sigma_max series not nondecreasing: {sigmas}")


def extremal_sequence(params: ExtremalParams) -> SequenceVector:
    """values[n] = (n+1)^{-w} for n < length; always nonnegative."""
    n_plus_1 = np.arange(1.0, params.length + 1.0)
    return SequenceVector(n_plus_1 ** -params.w)


def lower_bound_ratio(mu: Measure, params: ExtremalParams, n_rows: int) -> float:
    """||C applied to the test sequence||_p / ||test sequence||_p.

    Entries are nonnegative, so any truncation of the image has norm at
    most the true image norm: on the dense truncated route the ratio is a
    certified lower bound for the operator norm.  A measure without
    interior atoms goes through the FFT apply instead when its stated error
    bound on the image norm is at most ``FFT_ROUTE_RTOL`` times that norm,
    or when ``n_rows`` is beyond the dense cap; the numerator is then the
    computed norm less that bound, so the ratio stays a lower bound.  Every
    other case takes the dense route.  The ratio scales exactly with the
    measure, and is math.inf only when it is beyond the float64 range (an
    unboundedness witness, e.g. for measures with an atom at 0).
    """
    return _Block(mu, n_rows, params.length).ratio(extremal_sequence(params), params.p)


def p2_section_norm(mu: Measure, size: int, tol: float = 1e-10) -> float:
    """Largest singular value sigma_N of the size-by-size section, from below.

    Power iteration on the Gram operator S^T S from the normalized all-ones
    vector; it stops once two successive values differ by at most ``tol``
    relative.  Each step applies S to the current vector v and, unless that
    value stops the iteration, S^T to the image.  A measure without interior
    atoms is applied matrix-free through one
    :class:`~genhilbert.operator.FFTPlan` and its transpose, and the step's
    value is the certified Rayleigh quotient
    ``max(0, ||y_fft||_2 - bound) / ||v||_2 <= ||S v||_2 / ||v||_2 <= sigma_N``,
    with ``bound`` the FFT apply's stated ell-2 error bound
    (:meth:`~genhilbert.operator.FFTPlan.apply`).  That route holds while
    every step's bound is at most ``FFT_ROUTE_RTOL`` times ``||y_fft||_2``,
    or throughout when ``size`` is beyond the dense cap, the rule
    :func:`lower_bound_ratio` follows.  Otherwise (interior atoms, or a
    bound above the tolerance within the cap, such as t(1-t)dt's) the
    iteration continues from that step's v on the dense section, where the
    value is ``||S v||_2``.  Power iteration converges from below, so either
    value is a sound lower bound for the p=2 operator norm.  sigma_N scales
    exactly with the measure while the applies stay within the float64 range.
    """
    return _Block(mu, size, size).sigma(tol)


class _Block:
    """The leading ``n_rows`` by ``n_cols`` block of ``mu``'s matrix, and the FFT-or-dense rule.

    Its FFT plan is built on first use and kept, and so is the dense
    section when :meth:`sigma` needs one; the ratios and sigma of one sweep
    size share both.
    """

    def __init__(self, mu: Measure, n_rows: int, n_cols: int):
        self.mu = mu
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._plan = None
        self._section = None

    def plan(self) -> FFTPlan:
        if self._plan is None:
            self._plan = fft_plan(self.mu, self.n_rows, self.n_cols)
        return self._plan

    def fft_serves(self, bound: float, norm: float) -> bool:
        """Whether an FFT image of norm ``norm`` and stated error ``bound`` is used."""
        return bound <= FFT_ROUTE_RTOL * norm or self.n_rows > DEFAULT_SECTION_CAP

    def ratio(self, a: SequenceVector, p: float) -> float:
        """:func:`lower_bound_ratio` for the sequence ``a`` of length ``n_cols``.

        The dense route sums a held section's rows as
        :func:`~genhilbert.operator.apply_truncated` sums its entries, so
        both give the same image bit for bit.  ``a`` is first divided by the
        power of two above its norm, which is exact, so the image norm
        overflows only when the ratio is beyond the float64 range itself.
        """
        norm_a = lp_norm(a.values, p)
        e = math.frexp(norm_a)[1]
        a, denominator = SequenceVector(np.ldexp(a.values, -e)), math.ldexp(norm_a, -e)
        if not self.mu.interior_atoms:
            image, bound = self.plan().apply(a, p)
            numerator = lp_norm(image.values, p)
            if self.fft_serves(bound, numerator):
                return max(0.0, numerator - bound) / denominator
        if self._section is None:
            image = apply_truncated(self.mu, a, self.n_rows).values
        else:
            s = self._section
            image = _row_block_sums(lambda start, stop: s[start:stop], a.values, self.n_rows)
        return lp_norm(image, p) / denominator

    def section(self) -> np.ndarray:
        if self._section is None:
            self._section = finite_section(self.mu, self.n_rows).entries
        return self._section

    def sigma(self, tol: float) -> float:
        """:func:`p2_section_norm` of the (square) block: one power loop over one apply pair.

        The pair is the FFT plan and its transpose until a step's image no
        longer serves (:meth:`fft_serves`), and the dense section and its
        transpose from that step on; the step's vector carries over.  S v and
        S^T S v are divided by the power of two above their largest
        magnitude, which is exact, so sigma scales exactly with the measure.
        """
        if not tol > 0.0:
            raise ValueError(f"tol must be > 0, got {tol}")
        size = self.n_rows
        fft = not self.mu.interior_atoms
        # Building the plan or the section checks the size before v divides by it.
        adjoint = self.plan().transposed() if fft else self.section().T
        v = np.full(size, 1.0 / math.sqrt(size))
        sigma = 0.0
        for _ in range(_POWER_ITERATION_CAP):
            if fft:
                image, bound = self.plan().apply(SequenceVector(v), 2.0)
                u, norm_u = _scaled(image.values)
                fft = self.fft_serves(bound, norm_u)
            if not fft:
                adjoint = self.section().T
                u, norm_u = _scaled(self.section() @ v)
                bound = 0.0
            if norm_u == 0.0:
                return 0.0
            # The dense route states bound 0; its value is ||S v||_2 for the normalized v.
            sigma_new = max(0.0, norm_u - bound) / float(np.linalg.norm(v)) if bound else norm_u
            if abs(sigma_new - sigma) <= tol * sigma_new:
                return sigma_new
            sigma = sigma_new
            w = _scaled(adjoint.apply(SequenceVector(u), 2.0)[0].values if fft else adjoint @ u)[0]
            v = w / np.linalg.norm(w)
        raise ConvergenceError(
            f"power iteration did not reach relative tol {tol} "
            f"within {_POWER_ITERATION_CAP} iterations (size {size})",
            estimate=sigma,
        )


def convergence_sweep(
    mu: Measure, p: float, eps_grid, size_grid, tol: float = 1e-10
) -> CertificationReport:
    """Lower-bound ratios over (epsilon, size) with K = N = size per cell.

    For p=2 a finite-section sigma_max series over the same sizes is
    attached.  The report's construction re-checks soundness against the
    analytic verdict and monotonicity of the section series.

    Every size is checked against its cap (``DEFAULT_SECTION_CAP`` with
    interior atoms, else ``HANKEL_CAP``) before any work.  Each size is then
    one :class:`_Block`: its sigma comes first, so a size whose power
    iteration built the dense section reuses it, and the FFT plan, for
    every epsilon.  The values equal :func:`p2_section_norm`'s and
    :func:`lower_bound_ratio`'s bit for bit.
    """
    eps_grid = list(eps_grid)
    size_grid = list(size_grid)
    if not eps_grid or not size_grid:
        raise ValueError("eps_grid and size_grid must be nonempty")
    p = validate_p(p)
    cap = DEFAULT_SECTION_CAP if mu.interior_atoms else HANKEL_CAP
    for size in size_grid:
        _check_size(size, cap)
    # In report order, epsilon-major: size j's cells are every len(size_grid)-th from j.
    cells = [ExtremalParams(p, eps, size) for eps in eps_grid for size in size_grid]
    verdict = classify_boundedness(mu, p)
    target = verdict.norm if verdict.is_bounded else math.inf
    ratios = [0.0] * len(cells)
    sigma_series = []
    for j, size in enumerate(size_grid):
        block = _Block(mu, size, size)
        if p == 2.0:
            sigma_series.append((size, block.sigma(tol)))
        for c in range(j, len(cells), len(size_grid)):
            ratios[c] = block.ratio(extremal_sequence(cells[c]), p)
    return CertificationReport(
        ratios=tuple((c.epsilon, c.length, c.length, r) for c, r in zip(cells, ratios)),
        target=target,
        sigma_max_series=tuple(sigma_series),
        verdict=verdict,
    )


def report_to_csv(report: CertificationReport) -> str:
    """Ratio table (epsilon,K,N,ratio) plus, when present, an N,sigma_max table."""
    lines = ["epsilon,K,N,ratio"]
    for eps, big_k, n_rows, ratio in report.ratios:
        lines.append("%.17g,%d,%d,%.17g" % (eps, big_k, n_rows, ratio))
    if report.sigma_max_series:
        lines.append("")
        lines.append("N,sigma_max")
        for size, sigma in report.sigma_max_series:
            lines.append("%d,%.17g" % (size, sigma))
    return "\n".join(lines) + "\n"


def report_to_json(report: CertificationReport) -> str:
    """Structured bundle embedding the analytic verdict alongside the tables."""
    payload = {
        "verdict": verdict_to_dict(report.verdict),
        "target": "inf" if math.isinf(report.target) else report.target,
        "ratios": [
            {"epsilon": eps, "K": big_k, "N": n_rows, "ratio": ratio}
            for eps, big_k, n_rows, ratio in report.ratios
        ],
        "sigma_max_series": [
            {"N": size, "sigma_max": sigma} for size, sigma in report.sigma_max_series
        ],
    }
    return json.dumps(payload)
