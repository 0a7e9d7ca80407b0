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
from .kernel import _UNIT_ROUNDOFF, DEFAULT_SECTION_CAP, _check_size, finite_section
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

# Golub-Kahan-Lanczos steps before p2_section_norm gives up.
_KRYLOV_STEP_CAP = 128


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
    most the true image norm: the ratio is a certified lower bound for the
    operator norm.  A measure without interior atoms takes the FFT apply:
    the one-tile plan while its stated error bound is at most
    ``FFT_ROUTE_RTOL`` times the image norm, else the tiled plan
    (:func:`~genhilbert.operator.fft_plan`).  The numerator is then the
    computed norm less that bound and less the rounding of both norms and
    the quotient, so the ratio stays a lower bound.  A measure with interior
    atoms takes the dense truncated route, whose numerator is the computed
    norm less the rounding of the row sums and of both norms
    (:meth:`_Block.ratio`).  The ratio scales exactly with
    the measure, and is math.inf only when it is beyond the float64 range
    (an unboundedness witness, e.g. for measures with an atom at 0).
    """
    return _Block(mu, n_rows, params.length).ratio(extremal_sequence(params), params.p)


def p2_section_norm(mu: Measure, size: int, tol: float = 1e-10) -> float:
    """Largest singular value sigma_N of the size-by-size section S, from below.

    Golub-Kahan-Lanczos bidiagonalization of S from the normalized all-ones
    vector, with full reorthogonalization; it stops once the top Ritz value
    (the largest singular value of the bidiagonal) changes by at most
    ``tol`` relative, and raises :class:`~genhilbert.errors.ConvergenceError`
    with that value as the estimate past ``_KRYLOV_STEP_CAP`` steps.  The
    value returned is a certified quotient of the top Ritz vector x,
    ``max(0, ||fl(S x)||_2 - bound) / ||x||_2 <= ||S x||_2 / ||x||_2 <= sigma_N``
    with ``bound`` covering the product's and the norms' rounding, so it is a
    sound lower bound for the p=2 operator norm.  A measure
    without interior atoms is applied matrix-free through an
    :class:`~genhilbert.operator.FFTPlan` and its transpose, whose product
    error is the FFT apply's stated ell-2 error bound
    (:meth:`~genhilbert.operator.FFTPlan.apply`).  The one-tile plan holds
    while each step's bound is at most ``FFT_ROUTE_RTOL`` times the larger
    of its image norm and the top Ritz value so far, the rule
    :func:`lower_bound_ratio` follows; from the first step that fails it
    (t(1-t)dt's first, for one) the loop continues with the same basis on
    the tiled plan.  A measure with interior atoms runs on the dense
    section, whose product error is a stated gemv rounding bound
    (:meth:`_Block.sigma`).  sigma_N scales exactly with the measure while
    the applies stay within the float64 range.
    """
    return _Block(mu, size, size).sigma(tol)


class _Block:
    """The leading ``n_rows`` by ``n_cols`` block of ``mu``'s matrix, and the route rule.

    A measure without interior atoms is applied by its one-tile FFT plan
    while that plan's stated bound is at most ``FFT_ROUTE_RTOL`` times the
    image norm (:meth:`fft_serves`), and by its tiled plan otherwise, at any
    size.  A measure with interior atoms takes the dense section or the
    truncated apply.  Each plan is built on first use and kept, and so is
    the dense section; the ratios and sigma of one sweep size share them.
    """

    def __init__(self, mu: Measure, n_rows: int, n_cols: int):
        self.mu = mu
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._plans = {}
        self._section = None

    def plan(self, tiled: bool = False) -> FFTPlan:
        if tiled not in self._plans:
            self._plans[tiled] = fft_plan(self.mu, self.n_rows, self.n_cols, tiled)
        return self._plans[tiled]

    def fft_serves(self, bound: float, norm: float) -> bool:
        """Whether a one-tile image of norm ``norm`` and stated error ``bound`` is used."""
        return bound <= FFT_ROUTE_RTOL * norm

    def ratio(self, a: SequenceVector, p: float) -> float:
        """:func:`lower_bound_ratio` for the sequence ``a`` of length ``n_cols``.

        On the FFT routes the numerator is the image norm times
        ``1 - (2 (N + K) + 16) u`` (N = n_rows, K = n_cols, u the unit
        roundoff), less the apply's bound.  The factor covers, to first
        order in u, the rounding of :func:`~genhilbert.operator.lp_norm` on
        the image and on ``a`` (each at most ``(2L + 6) u`` relative for a
        vector of length L: the sum, the powers, the exponent 1/p and the
        root) and of the factor, the subtraction and the division; an image
        norm beyond float64 stays math.inf.  The dense route sums a held
        section's rows as :func:`~genhilbert.operator.apply_truncated` sums
        its entries, so both give the same image bit for bit, and scales its
        norm by ``1 - (2 (N + K) + K + 16) u``: a row of K nonnegative products
        sums to within ``gamma_K`` of its exact value (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., (3.11)), about ``K u``
        relative, for the nonnegative ``a`` every ratio takes.  ``a`` is
        first divided by the power of two above its norm, which is exact, so
        the image norm overflows only when the ratio is beyond the float64
        range itself.
        """
        norm_a = lp_norm(a.values, p)
        e = math.frexp(norm_a)[1]
        a, denominator = SequenceVector(np.ldexp(a.values, -e)), math.ldexp(norm_a, -e)
        rounding = (2 * (self.n_rows + self.n_cols) + 16) * _UNIT_ROUNDOFF
        if not self.mu.interior_atoms:
            image, bound = self.plan().apply(a, p)
            numerator = lp_norm(image.values, p)
            if not self.fft_serves(bound, numerator):
                image, bound = self.plan(tiled=True).apply(a, p)
                numerator = lp_norm(image.values, p)
            return max(0.0, numerator * (1.0 - rounding) - bound) / denominator
        if self._section is None:
            image = apply_truncated(self.mu, a, self.n_rows).values
        else:
            s = self._section
            image = _row_block_sums(lambda start, stop: s[start:stop], a.values, self.n_rows)
        rounding += self.n_cols * _UNIT_ROUNDOFF
        return lp_norm(image, p) * (1.0 - rounding) / denominator

    def section(self) -> np.ndarray:
        if self._section is None:
            self._section = finite_section(self.mu, self.n_rows).entries
        return self._section

    def sigma(self, tol: float) -> float:
        """:func:`p2_section_norm` of the (square) block: one Golub-Kahan-Lanczos loop.

        Step j applies S to v_j and, unless the top Ritz value then stops
        the loop, S^T to u_j.  Each image is orthogonalized twice against
        the basis it extends (classical Gram-Schmidt) and normalized, which
        gives alpha_j, u_j and beta_j, v_(j+1) of the upper bidiagonal B
        with ``S V = U B``.  For a measure without interior atoms the apply
        pair is the one-tile FFT plan and its transpose until a forward
        image fails :meth:`fft_serves` against the larger of its norm and
        the top Ritz value so far (an image's error moves the Ritz values by
        about that error), and the tiled plan and its transpose from that
        step on; otherwise it is the dense section and its transpose.
        Images are divided by the power of two above their largest
        magnitude before they are orthogonalized, and B is kept in units of
        the first image's power of two; both are exact, so sigma scales
        exactly with the measure.
        The loop also ends when an image is 0 within the basis (the Krylov
        space is invariant, and the Ritz value exact) and after ``size``
        steps.

        The quotient's ``bound`` is the product's error bound plus
        ``(N + 4) u ||y||_2`` (u the unit roundoff), which covers, to first
        order in u, the rounding of the 2-norms of y and x (each at most
        ``(N/2 + 1) u`` relative, Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., section 3.1) and of the final
        subtraction and division.  The product's error bound is the FFT
        apply's stated one (of either plan), or on the dense route
        ``N u ||fl(S |x|)||_2``:
        ``|fl(S x) - S x| <= gamma_N |S| |x|`` (ibid., (3.11)), ``|S| = S``
        here, and fl(S |x|) is within ``gamma_N`` of S |x|.  x is taken with
        a nonnegative sum, so that |x| = x, and fl(S |x|) = fl(S x), as
        long as no component is negative.
        """
        if not tol > 0.0:
            raise ValueError(f"tol must be > 0, got {tol}")
        size = self.n_rows
        dense = bool(self.mu.interior_atoms)
        # Building the plan or the section checks the size before v divides by it.
        plan = None if dense else self.plan()
        adjoint = self.section().T if dense else plan.transposed()
        one_tile = not dense

        def forward(v, reference):
            """The FFT image of v as :func:`_scaled` returns it, and its stated bound."""
            nonlocal plan, adjoint, one_tile
            image, bound = plan.apply(SequenceVector(v), 2.0)
            y, norm, e = _scaled(image.values)
            if one_tile and not self.fft_serves(bound, max(norm, reference)):
                plan, one_tile = self.plan(tiled=True), False
                adjoint = plan.transposed()
                image, bound = plan.apply(SequenceVector(v), 2.0)
                y, norm, e = _scaled(image.values)
            return y, norm, e, bound

        steps = min(size, _KRYLOV_STEP_CAP)
        # Rows of V and U; their storage doubles when full.
        basis_v, basis_u = np.empty((2, min(steps, 16) + 1, size))
        basis_v[0] = 1.0 / math.sqrt(size)
        # B in units of 2**e0, the power of two above the first image's largest magnitude.
        bidiagonal, e0 = np.zeros((steps, steps)), 0
        top = 0.0
        for j in range(steps):
            if dense:
                p, _, e = _scaled(self.section() @ basis_v[j])
            else:
                p, _, e, _ = forward(basis_v[j], math.ldexp(top, e0))
            if j == 0:
                e0 = e
            bidiagonal[j, j], basis_u[j] = _orthonormalized(p, e - e0, basis_u[:j])
            b = bidiagonal[: j + 1, : j + 1]
            previous, top = top, float(np.linalg.svd(b, compute_uv=False)[0])
            if abs(top - previous) <= tol * top or not b[j, j] or j + 1 == size:
                break
            if j + 1 == steps:
                raise ConvergenceError(
                    f"Golub-Kahan-Lanczos did not reach relative tol {tol} "
                    f"within {steps} steps (size {size})",
                    estimate=math.ldexp(top, e0),
                )
            w = adjoint @ basis_u[j] if dense else adjoint.apply(SequenceVector(basis_u[j]), 2.0)[0].values
            w, _, e = _scaled(w)
            if j + 1 == len(basis_v):
                basis_v, basis_u = (np.concatenate((m, np.empty_like(m))) for m in (basis_v, basis_u))
            bidiagonal[j, j + 1], basis_v[j + 1] = _orthonormalized(w, e - e0, basis_v[: j + 1])
            if not bidiagonal[j, j + 1]:
                break
        x = np.linalg.svd(b)[2][0] @ basis_v[: j + 1]
        x *= math.copysign(1.0, x.sum())
        if dense:
            y = self.section() @ x
            norm_y = _scaled(y)[1]
            # S |x| is S x when x is nonnegative, as the top Ritz vector of S >= 0 mostly is.
            z_norm = norm_y if x.min() >= 0.0 else _scaled(self.section() @ np.abs(x))[1]
            bound = size * _UNIT_ROUNDOFF * z_norm
        else:
            _, norm_y, _, bound = forward(x, 0.0)
        bound += (size + 4) * _UNIT_ROUNDOFF * norm_y
        return max(0.0, norm_y - bound) / float(np.linalg.norm(x))


def _orthonormalized(p: np.ndarray, e: int, basis: np.ndarray) -> tuple[float, np.ndarray]:
    """The norm and direction of ``2**e p`` less its components along the orthonormal rows of ``basis``.

    Classical Gram-Schmidt, run twice; a zero remainder gives a norm of 0.0
    and the zero vector.
    """
    for _ in range(2):
        p = p - (basis @ p) @ basis
    norm = math.sqrt(p @ p)
    return math.ldexp(norm, e), (p / norm if norm else p)


def convergence_sweep(
    mu: Measure, p: float, eps_grid, size_grid, tol: float = 1e-10
) -> CertificationReport:
    """Lower-bound ratios over (epsilon, size) with K = N = size per cell.

    For p=2 a finite-section sigma_max series over the same sizes is
    attached.  The report's construction re-checks soundness against the
    analytic verdict and monotonicity of the section series.

    Every size is checked against its cap (``DEFAULT_SECTION_CAP`` with
    interior atoms, else ``HANKEL_CAP``) before any work.  Each size is then
    one :class:`_Block`: its sigma comes first, so a size whose Krylov loop
    built the dense section reuses it, and the FFT plan, for
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
