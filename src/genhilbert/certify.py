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
from .kernel import DEFAULT_SECTION_CAP, finite_section
from .measure import Measure
from .norms import NormVerdict, classify_boundedness, validate_p, verdict_to_dict
from .operator import SequenceVector, apply_fft, apply_truncated, fft_plan, lp_norm

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
    return SequenceVector(n_plus_1 ** -params.w, nonneg=True)


def lower_bound_ratio(mu: Measure, params: ExtremalParams, n_rows: int) -> float:
    """||C applied to the test sequence||_p / ||test sequence||_p.

    Entries are nonnegative, so any truncation of the image has norm at
    most the true image norm: on the dense truncated route the ratio is a
    certified lower bound for the operator norm.  A measure without
    interior atoms goes through the FFT apply instead when its stated error
    bound on the image norm is at most ``FFT_ROUTE_RTOL`` times that norm,
    or when ``n_rows`` is beyond the dense cap; the numerator is then the
    computed norm less that bound, so the ratio stays a lower bound.  Every
    other case takes the dense route.  Overflow of the numerator is
    reported as math.inf (an unboundedness witness, e.g. for measures with
    an atom at 0).
    """
    a = extremal_sequence(params)
    p = params.p
    if not mu.interior_atoms:
        image, bound = apply_fft(mu, a, n_rows, p)
        numerator = lp_norm(image.values, p)
        if math.isinf(numerator):
            return math.inf
        if bound <= FFT_ROUTE_RTOL * numerator or n_rows > DEFAULT_SECTION_CAP:
            return max(0.0, numerator - bound) / lp_norm(a.values, p)
    numerator = lp_norm(apply_truncated(mu, a, n_rows).values, p)
    if math.isinf(numerator):
        return math.inf
    return numerator / lp_norm(a.values, p)


def p2_section_norm(mu: Measure, size: int, tol: float = 1e-10) -> float:
    """Largest singular value sigma_N of the size-by-size section, from below.

    Power iteration on the Gram operator S^T S from the normalized all-ones
    vector; it stops once two successive values differ by at most ``tol``
    relative.  Each step applies S to the current vector v and S^T to the
    image.  A measure without interior atoms is applied matrix-free through
    one :class:`~genhilbert.operator.FFTPlan` and its transpose, and the
    step's value is the certified Rayleigh quotient
    ``max(0, ||y_fft||_2 - bound) / ||v||_2 <= ||S v||_2 / ||v||_2 <= sigma_N``,
    with ``bound`` the FFT apply's stated ell-2 error bound
    (:func:`~genhilbert.operator.apply_fft`).  That route holds while every
    step's bound is at most ``FFT_ROUTE_RTOL`` times ``||y_fft||_2``, or
    throughout when ``size`` is beyond the dense cap, the rule
    :func:`lower_bound_ratio` follows.  Otherwise (interior atoms, or a
    bound above the tolerance within the cap, such as t(1-t)dt's) the
    iteration starts over on the dense section, where the value is
    ``||S v||_2``.  Power iteration converges from below, so either value is
    a sound lower bound for the p=2 operator norm.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not mu.interior_atoms:
        plan = fft_plan(mu, size, size)
        adjoint = plan.transposed()

        def forward(v):
            image, bound = plan.apply(SequenceVector(v), 2.0)
            return image.values, bound

        sigma = _power_iteration(
            forward, lambda u: adjoint.apply(SequenceVector(u), 2.0)[0].values, size, tol
        )
        if sigma is not None:
            return sigma
    s = finite_section(mu, size).entries
    return _power_iteration(lambda v: (s @ v, 0.0), lambda u: s.T @ u, size, tol)


def _power_iteration(forward, backward, size: int, tol: float) -> float | None:
    """sigma from power iteration with ``forward(v) -> (S v, bound)`` and ``backward(u) = S^T u``.

    Returns None as soon as a step's bound exceeds ``FFT_ROUTE_RTOL`` times
    its image norm while ``size`` is within the dense cap.
    """
    v = np.full(size, 1.0 / math.sqrt(size))
    sigma = 0.0
    for _ in range(_POWER_ITERATION_CAP):
        u, bound = forward(v)
        norm_u = float(np.linalg.norm(u))
        if norm_u == 0.0:
            return 0.0
        if bound > FFT_ROUTE_RTOL * norm_u and size <= DEFAULT_SECTION_CAP:
            return None
        # The dense pair states bound 0; its value is ||S v||_2 for the normalized v.
        sigma_new = max(0.0, norm_u - bound) / float(np.linalg.norm(v)) if bound else norm_u
        w = backward(u)
        v = w / np.linalg.norm(w)
        if abs(sigma_new - sigma) <= tol * sigma_new:
            return sigma_new
        sigma = sigma_new
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
    """
    eps_grid = list(eps_grid)
    size_grid = list(size_grid)
    if not eps_grid or not size_grid:
        raise ValueError("eps_grid and size_grid must be nonempty")
    p = validate_p(p)
    verdict = classify_boundedness(mu, p)
    target = verdict.norm if verdict.is_bounded else math.inf
    ratios = []
    for eps in eps_grid:
        for size in size_grid:
            params = ExtremalParams(p=p, epsilon=eps, length=size)
            ratios.append((eps, size, size, lower_bound_ratio(mu, params, size)))
    sigma_series = []
    if p == 2.0:
        sigma_series = [(size, p2_section_norm(mu, size, tol=tol)) for size in size_grid]
    return CertificationReport(
        ratios=tuple(ratios),
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
