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
import numbers
from collections import Counter

import numpy as np

from . import operator
from .errors import DEFAULT_SECTION_CAP, HANKEL_CAP, ConvergenceError, _check_block
from .kernel import _UNIT_ROUNDOFF, _entry_rtol, finite_section
from .measure import Measure, _Record, reflected
from .norms import NormVerdict, classify_boundedness, validate_p, verdict_to_dict
from .operator import (
    FFTPlan,
    SequenceVector,
    _binary_scale,
    _cached,
    _held_plan,
    _held_section,
    _ldexp,
    _row_sums,
    _scaled,
    apply_truncated,
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

# Lanczos steps (each one image of S, and one of S^T for a block that is not symmetric)
# before p2_section_norm gives up.
_KRYLOV_STEP_CAP = 128

# A square block without interior atoms of at most this many entries, or four times as
# many when fft_plan picks the tiled cover for it, takes the dense route (_Block).
_DENSE_BLOCK_ENTRIES = 1 << 16


class ExtremalParams(_Record):
    """Power-law test sequence family (n+1)^{-w}, w = 1/p + epsilon.

    epsilon is capped at 1/p: the certification grids only ever shrink
    epsilon toward 0, and the cap keeps w within (1/p, 2/p].
    """

    __slots__ = ("p", "epsilon", "length")

    def __init__(self, p: float, epsilon: float, length: int):
        p = validate_p(p)
        if math.isinf(p):
            raise ValueError("extremal sequences are defined for finite p only")
        if not 0.0 < epsilon <= 1.0 / p:
            raise ValueError(f"epsilon must lie in (0, 1/p], got {epsilon} at p={p}")
        if not isinstance(length, numbers.Integral) or length < 1:
            raise ValueError(f"length must be an integer >= 1, got {length}")
        _Record.__init__(self, p, epsilon, length)

    @property
    def w(self) -> float:
        return 1.0 / self.p + self.epsilon


class CertificationReport(_Record):
    """Sweep results; construction enforces the report's guarantees.

    Ratios and sigma_max values must not exceed a finite target beyond
    floating-point slack, and the finite-section series must be
    nondecreasing.
    """

    __slots__ = ("ratios", "target", "sigma_max_series", "verdict")

    def __init__(self, ratios: tuple, target: float, sigma_max_series: tuple, verdict: NormVerdict):
        ratios = tuple(tuple(row) for row in ratios)
        sigma_max_series = tuple(tuple(row) for row in sigma_max_series)
        if math.isfinite(target):
            for eps, big_k, n_rows, ratio in ratios:
                if ratio > target + SOUNDNESS_SLACK:
                    raise ValueError(
                        f"lower-bound ratio {ratio} exceeds analytic norm {target} "
                        f"(eps={eps}, K={big_k}, N={n_rows})"
                    )
            for size, sigma in sigma_max_series:
                if sigma > target + SOUNDNESS_SLACK:
                    raise ValueError(f"sigma_max {sigma} exceeds analytic norm {target} (N={size})")
        sigmas = [s for _, s in sigma_max_series]
        if any(b < a for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError(f"sigma_max series not nondecreasing: {sigmas}")
        _Record.__init__(self, ratios, target, sigma_max_series, verdict)


def extremal_sequence(params: ExtremalParams) -> SequenceVector:
    """values[n] = (n+1)^{-w} for n < length; always nonnegative."""
    n_plus_1 = np.arange(1.0, params.length + 1.0)
    return SequenceVector(n_plus_1 ** -params.w)


def lower_bound_ratio(mu: Measure, params: ExtremalParams, n_rows: int) -> float:
    """||C applied to the test sequence||_p / ||test sequence||_p.

    Entries are nonnegative, so any truncation of the image has norm at
    most the true image norm: the ratio is a certified lower bound for the
    operator norm.  The image comes from the route :class:`_Block` picks:
    its FFT plan, or on the dense route (interior atoms, or a small square
    block) the row sums of nu's section, held once per process, or the
    truncated apply where the block is not square or the section would not
    fit the memo.  The numerator is its computed norm less the image's
    stated error (:meth:`_Block.apply`) and the rounding of both norms
    (:meth:`_Block.ratio`).  The ratio scales exactly with the measure in
    the normal range, and is rounded toward zero below it; it is math.inf
    only when it is beyond the float64 range (an unboundedness witness,
    e.g. for measures with an atom at 0).
    """
    return _Block(mu, n_rows, params.length).ratio(extremal_sequence(params), params.p)


def p2_section_norm(mu: Measure, size: int, tol: float = 1e-10) -> float:
    """Largest singular value sigma_N of the size-by-size section S, from below.

    Lanczos with full reorthogonalization from the normalized
    ``(n+1)^(-1/2)``, the p = 2 member of the witness family
    (:func:`_krylov_start`), on the operand :class:`_Block` gives either
    route, nu's held section or plan with ``mu = 2**e * nu`` (BLAS
    products of the section on the dense route, which small blocks take,
    and FFT images otherwise): on S itself when ``mu`` equals its
    reflection under t -> 1-t (then S is symmetric and nonnegative, and
    sigma_N is its top eigenvalue), and otherwise on ``S^T S``, whose top
    eigenvalue is sigma_N squared.  It stops once the top Ritz value of sigma_N changes
    by at most ``tol`` relative, and raises
    :class:`~genhilbert.errors.ConvergenceError` with that value as the
    estimate past ``_KRYLOV_STEP_CAP`` steps.  The value returned is a
    certified quotient of the top Ritz vector x,
    ``max(0, ||fl(S x)||_2 - bound) / ||x||_2 <= ||S x||_2 / ||x||_2 <= sigma_N``
    with ``bound`` the product's stated error (:meth:`_Block.apply`) plus
    the norms' rounding, so it is a sound lower bound for the p=2 operator
    norm (:meth:`_Block.sigma`).  sigma_N is nu's times ``2**e``, exactly
    in the normal range and rounded toward zero below it, and is math.inf
    only when it is beyond the float64 range.

    The value is held once per process for nu, ``mu = 2**e * nu``, under
    its ``tol`` and the block's route: a later call for any power-of-two
    multiple of ``mu`` runs no Lanczos loop while it is held.  A call that
    raises holds nothing.
    """
    return _Block(mu, size, size).sigma(tol)


class _Block:
    """The leading ``n_rows`` by ``n_cols`` block of ``mu``'s matrix, and its route.

    The route is picked once, on construction.  A measure with interior
    atoms takes the dense route, and ``n_rows`` is checked against
    ``DEFAULT_SECTION_CAP``; for any other both sizes are checked against
    ``HANKEL_CAP``, and the block takes its one FFT plan unless it is small.
    Small means square with at most ``_DENSE_BLOCK_ENTRIES`` (2^16) entries,
    or 2^18 when :func:`~genhilbert.operator.fft_plan` picks the tiled cover
    for it, since a tiled image makes one Python pass per tile; only a block
    between the two limits builds its plan to learn the pick.  A small block
    (at most 512 rows) takes the dense route: one BLAS product costs a few
    microseconds where an FFT image costs tens, and the dense route's stated
    error is the tighter at these sizes.  :meth:`apply` states each route's
    image and its error once, and the ratios and sigma certify through it.

    Both routes take one operand contract: :meth:`plan` and :meth:`section`
    each return ``(operand, e)``, nu's plan at scale 0 or nu's section,
    with ``mu = 2**e * nu`` exactly
    (:func:`~genhilbert.operator._binary_scale`).  They are fetched on first
    use, kept for the block's life and held once per process in one memo
    (:func:`~genhilbert.operator._cached`): the plan under ``(nu, N, K)``
    (:func:`~genhilbert.operator._held_plan`) and the section under
    ``(nu, N)`` (:func:`~genhilbert.operator._held_section`), read-only.
    sigma and the ratios run on nu's operand and scale their result by
    ``2**e`` toward zero (:func:`_ldexp_down`), by one rule on both routes,
    and the memo holds sigma too (:meth:`sigma`).  If nu's largest entry
    times ``2**e`` leaves float64, mu's own build raises mu's own range error.  A
    plan or section within ``_PLAN_MEMO_BYTES`` (64 MiB) stays in the memo,
    least recently used out first; a larger one lives only as long as its
    block.  A dense square block reads a section for every product; one
    over the budget takes it only for sigma or a sweep of more than one
    product (:func:`convergence_sweep`), and otherwise streams its rows
    (:meth:`apply`), with the same bits.
    """

    def __init__(self, mu: Measure, n_rows: int, n_cols: int):
        self.mu = mu
        self.n_rows = n_rows
        self.n_cols = n_cols
        _check_block(mu, n_rows, n_cols, DEFAULT_SECTION_CAP, HANKEL_CAP)
        self._plan = self._section = None
        entries = n_rows * n_cols
        self.dense = bool(mu.interior_atoms) or (
            n_rows == n_cols
            and entries <= 4 * _DENSE_BLOCK_ENTRIES
            and (entries <= _DENSE_BLOCK_ENTRIES or len(self.plan()[0].tiles) > 1)
        )

    def plan(self) -> tuple[FFTPlan, int]:
        """``(plan, e)``: nu's held or newly built plan at scale 0, with ``mu = 2**e * nu``."""
        if self._plan is None:
            self._plan = _held_plan(self.mu, self.n_rows, self.n_cols)
        return self._plan

    def section(self) -> tuple[np.ndarray, int]:
        """``(S, e)``: nu's held or newly built section, with ``mu = 2**e * nu``."""
        if self._section is None:
            self._section = _held_section(self.mu, self.n_rows, finite_section)
        return self._section

    def apply(self, a: SequenceVector, p: float) -> tuple[np.ndarray, float, int, float | None]:
        """``(y, bound, e, norm)``: ``2**e y`` is the block's computed image of ``a``, and ``2**e bound`` its ell-p error bound.

        ``a`` has length ``n_cols``, and ``2**e bound`` majorizes the ell-p
        distance of ``2**e y`` from the exact image of ``a``.  ``norm`` is
        ``lp_norm(y, p)`` where the bound took it (the dense route,
        nonnegative ``a``), else None.  On the FFT route y and the bound
        are those of nu's plan (:meth:`plan`,
        :meth:`~genhilbert.operator.FFTPlan.apply`), and e is its scale.

        The dense route on a square block takes the row sums
        (:func:`~genhilbert.operator._row_sums`) of nu's section, with e its
        scale: the one the block took, or else nu's held or newly built one
        (:meth:`section`) when its N^2 float64 entries fit
        ``_PLAN_MEMO_BYTES``.  A rectangular block, and a square one over the
        budget that took no section, takes
        :func:`~genhilbert.operator.apply_truncated`, with e = 0: one stream
        of mu's row blocks that computes each component's factors once per
        product and holds one block at a time, never the section.  Both sum
        each row by :func:`~genhilbert.operator._row_sums`, per-row BLAS
        ``ddot`` on column chunks, in an order set by the row's length
        alone, so they give the same y bit for bit.
        With K = n_cols and u the unit roundoff, the bound is
        ``(K u + eta) ||fl(S |a|)||_p``, where fl(S |a|) is y when ``a`` is
        nonnegative.  A row of K products sums to within
        ``gamma_K (|S| |a|)_n`` of its exact value (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., (3.11)), about K u to
        first order; ``|S| = S`` here, and fl(S |a|) is within ``gamma_K``
        of S |a|.  The entries lie within eta relative of the exact
        matrix's, entry by entry (:func:`~genhilbert.kernel._entry_rtol`).
        An interior atom's own log-space error is not subtracted:
        ``_entry_rtol`` counts its part as exact, since its stated bound
        (:func:`~genhilbert.kernel._atom_rtol`, 7e-11 relative for a unit
        atom at 1/2 at N = 2048) lies far above the error its entries show
        against mpmath.  Those errors still lie far above ``K u``: delta_1/2's
        entries err by up to 2.9e-12 relative at N = 1024 and 8.3e-11 at
        16384, where K u is 1.1e-13 and 1.8e-12, so the per-row statement
        above does not cover an atom's rows.  No unsound ratio has been
        seen, since the row errors cancel in the ell-p norm.
        """
        if not self.dense:
            plan, e = self.plan()
            image, bound = plan.apply(a, p)
            return image.values, bound, e, None
        # A section of N^2 float64 entries over the memo budget is not held; the budget is read per call, as _cached reads it.
        if self._section is None and (self.n_cols != self.n_rows or 8 * self.n_rows**2 > operator._PLAN_MEMO_BYTES):
            e = 0
            product = lambda v: apply_truncated(self.mu, SequenceVector(v), self.n_rows).values
        else:
            s, e = self.section()
            product = lambda v: _row_sums(s, v)
        y = product(a.values)
        norm = lp_norm(y, p) if a.nonneg else None
        z_norm = lp_norm(product(np.abs(a.values)), p) if norm is None else norm
        return y, (self.n_cols * _UNIT_ROUNDOFF + _entry_rtol(self.mu)) * z_norm, e, norm

    def ratio(self, a: SequenceVector, p: float) -> float:
        """:func:`lower_bound_ratio` for the sequence ``a`` of length ``n_cols``.

        ``a`` is first divided by the power of two above its norm, which is
        exact, so the image norm overflows only when the ratio is beyond the
        float64 range itself.  The numerator is the norm of the image
        :meth:`apply` gives, times ``1 - (2 (N + K) + 16) u`` (N = n_rows,
        K = n_cols, u the unit roundoff), less the image's stated bound, and
        the quotient (:func:`_certified_quotient`) is multiplied by the
        image's ``2**e``, rounded toward zero (:func:`_ldexp_down`).  The
        factor covers, to first order in u, the rounding of
        :func:`~genhilbert.operator.lp_norm` on the image and on ``a`` (each
        at most ``(2L + 6) u`` relative for a vector of length L: the sum,
        the powers, the exponent 1/p and the root) and of
        the factor, the subtraction and the division.  The image norm is
        taken once: where the bound took it (:meth:`apply`), it is reused.
        """
        norm_a = lp_norm(a.values, p)
        e_a = math.frexp(norm_a)[1]
        # Rebinding a drops this frame's hold on the caller's sequence before the apply.
        a, denominator = SequenceVector(np.ldexp(a.values, -e_a)), math.ldexp(norm_a, -e_a)
        y, bound, e, norm = self.apply(a, p)
        norm = lp_norm(y, p) if norm is None else norm
        rounding = (2 * (self.n_rows + self.n_cols) + 16) * _UNIT_ROUNDOFF
        return _ldexp_down(_certified_quotient(norm * (1.0 - rounding), bound, denominator), e)

    def sigma(self, tol: float) -> float:
        """:func:`p2_section_norm` of the (square) block: a held value, or one Lanczos loop (:meth:`_lanczos`).

        The value is held in the plan and section memo
        (:func:`~genhilbert.operator._cached`) under
        ``(nu, "sigma", N, tol, dense, _KRYLOV_STEP_CAP)``, with
        ``mu = 2**e * nu``: every input the loop reads.  No plan
        ``(nu, N, K)`` or section ``(nu, N)`` key takes that shape.  The
        loop runs on nu's section or plan and scales its result by ``2**e``
        at the end, rounded toward zero (:func:`_ldexp_down`), so sigma of
        any power-of-two multiple of nu is nu's held value so scaled, bit
        for bit, a lower bound below the normal range too, and a repeated
        sweep runs no loop.  Where that product leaves float64, mu's own
        value is computed, as :func:`~genhilbert.operator._cached` does for
        every entry.  A raise is never held: a ConvergenceError raises
        again, with the same estimate.  The entry holds no array and counts
        0 bytes against ``_PLAN_MEMO_BYTES``.
        """
        if not tol > 0.0:
            raise ValueError(f"tol must be > 0, got {tol}")

        def entry(nu: Measure) -> tuple:
            # nu is 2**-e mu (_cached tries nu, then mu itself), and the loop's operand is 2**-scale mu's.
            # Where nu is not mu itself, e is _binary_scale's, and 0 when nu is mu's equal twin held there.
            sigma, scale = self._lanczos(tol)
            sigma = _ldexp_down(sigma, scale - (0 if nu is self.mu else _binary_scale(self.mu)[1]))
            return sigma, 0, (sigma,)

        sigma, e = _cached(self.mu, ("sigma", self.n_rows, tol, self.dense, _KRYLOV_STEP_CAP), entry)
        return _ldexp_down(sigma, e)

    def _images(self, symmetric: bool) -> tuple:
        """``(forward, backward, e)``: bound-free products with S and S^T of nu's section or plan, ``mu = 2**e * nu``.

        They are BLAS ``@`` with nu's section (:meth:`section`) on the dense
        route, and otherwise the images
        (:meth:`~genhilbert.operator.FFTPlan.image`) of nu's plan
        (:meth:`plan`) and of its transpose.  backward is None for a
        ``symmetric`` block, which builds no transpose.
        """
        if self.dense:
            s, e = self.section()
            return s.__matmul__, None if symmetric else s.T.__matmul__, e
        plan, e = self.plan()
        return plan.image, None if symmetric else plan.transposed().image, e

    def _lanczos(self, tol: float) -> tuple[float, int]:
        """``(sigma, scale)``: the Lanczos loop's certified sigma_N of ``2**-scale mu``, whose section or plan it runs on.

        The loop runs on a symmetric matrix A with one orthonormal basis V
        and the tridiagonal ``T = V^T A V``.  When ``mu`` equals its
        reflection (:func:`_reflection_symmetric`), S is symmetric and
        entrywise nonnegative, so by Perron-Frobenius its top eigenvalue is
        sigma: A is S, and the top Ritz value is T's top eigenvalue.  Any
        other block takes ``A = S^T S`` and the root of T's top eigenvalue;
        its Krylov space is Golub-Kahan-Lanczos bidiagonalization's, and so
        is its step count.  v_0 is :func:`_krylov_start`.

        The loop's products carry no bound, and come with scale from
        :meth:`_images`, on either route: products with nu's section or
        plan, ``mu = 2**scale * nu``.  The :class:`ConvergenceError`
        estimate is multiplied by ``2**scale``.  Step j applies S to v_j;
        ``T[j, j]`` is ``v_j . S v_j``, or ``||S v_j||_2^2`` for ``S^T S``.  Unless the top
        Ritz value then stops the loop, A v_j (for ``S^T S``, the transpose
        or transposed plan applied to S v_j) is orthogonalized twice
        against V (classical Gram-Schmidt) and normalized, which gives
        ``T[j, j+1]`` and v_(j+1).  So a symmetric block takes one image
        per step and never builds the transpose, and a step that stops
        makes no transposed image.  Images are divided by the power of two
        above their largest magnitude before they are used, and T is kept
        in units of the first image's power of two (its square for
        ``S^T S``); both are exact, so sigma scales exactly with the
        measure.  The loop also ends when A v_j is 0 within the basis (the
        Krylov space is invariant, and the Ritz value exact) and after
        ``size`` steps.

        The top Ritz vector x, T's top eigenvector in the basis V, taken
        with a nonnegative sum, is certified at p = 2 through :meth:`apply`,
        which gives y = fl(S x) of nu's operand and its stated bound on
        either route.  The
        quotient's bound adds ``(N + 4) u ||y||_2`` (u the unit roundoff),
        which covers, to first order in u, the rounding of the 2-norms of y
        and x (each at most ``(N/2 + 1) u`` relative, Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., section 3.1) and of
        the final subtraction and division (:func:`_certified_quotient`).
        """
        size = self.n_rows
        steps = min(size, _KRYLOV_STEP_CAP)
        symmetric = _reflection_symmetric(self.mu)
        # Rows of V; their storage doubles when full.
        basis = np.empty((min(steps, 16) + 1, size))
        basis[0] = _krylov_start(size)
        forward, backward, scale = self._images(symmetric)
        # T in units of 2**(power e0), 2**e0 the power of two above the first image's largest magnitude.
        power = 1 if symmetric else 2
        tridiagonal, e0 = np.zeros((steps, steps)), 0
        top = 0.0
        for j in range(steps):
            p, norm, e = _scaled(forward(basis[j]))
            if j == 0:
                e0 = e
            tridiagonal[j, j] = math.ldexp(basis[j] @ p if symmetric else norm * norm, power * (e - e0))
            t = tridiagonal[: j + 1, : j + 1]
            previous, top = top, float(np.linalg.eigvalsh(t)[-1])
            top = top if symmetric else math.sqrt(top)
            if abs(top - previous) <= tol * top or j + 1 == size:
                break
            if j + 1 == steps:
                raise ConvergenceError(
                    f"Lanczos did not reach relative tol {tol} within {steps} steps (size {size})",
                    estimate=_ldexp(top, e0 + scale),
                )
            if backward is not None:
                p, _, shift = _scaled(backward(p))
                e += shift
            if j + 1 == len(basis):
                basis = np.concatenate((basis, np.empty_like(basis)))
            beta, basis[j + 1] = _orthonormalized(p, e - power * e0, basis[: j + 1])
            if not beta:
                break
            tridiagonal[j, j + 1] = tridiagonal[j + 1, j] = beta
        x = np.linalg.eigh(t)[1][:, -1] @ basis[: j + 1]
        x *= math.copysign(1.0, x.sum())
        y, bound, *_ = self.apply(SequenceVector(x), 2.0)
        norm_y = _norm_2(y)
        sigma = _certified_quotient(norm_y, bound + (size + 4) * _UNIT_ROUNDOFF * norm_y, float(np.linalg.norm(x)))
        return sigma, scale


def _krylov_start(size: int) -> np.ndarray:
    """The Lanczos loop's first basis vector: ``(n+1)^(-1/2)`` for n < size, normalized.

    It is the p = 2 member of the witness family ``(n+1)^(-1/p-eps)``
    (:func:`extremal_sequence`) at eps = 0, which the top singular vectors
    of the sections approach, so its angle to them is smaller than the
    all-ones vector's, and by the Kaniel-Paige-Saad bound (Y. Saad,
    *Numerical Methods for Large Eigenvalue Problems*, ch. 6) the loop
    needs fewer steps.
    """
    v = 1.0 / np.sqrt(np.arange(1.0, size + 1.0))
    return v / math.sqrt(v @ v)


def _reflection_symmetric(mu: Measure) -> bool:
    """Whether ``mu`` equals its reflection under t -> 1-t, its terms and its atoms compared as multisets.

    Reflection transposes every section, so then every square section of
    ``mu`` is symmetric.  An atom at t < 1/2 pairs only with one at
    ``fl(1 - t)`` whose own reflection, exact by Sterbenz's lemma, is t: so
    the pair is the exact reflection of itself.
    """
    nu = reflected(mu)
    return Counter(mu.jacobi_terms) == Counter(nu.jacobi_terms) and set(mu.atoms) == set(nu.atoms)


def _certified_quotient(norm: float, bound: float, denominator: float) -> float:
    """``max(0, norm - bound) / denominator``, a lower bound for the exact quotient.

    An image norm beyond float64 makes its bound inf too; the quotient is
    then beyond it as well, and is math.inf rather than ``inf - inf``.
    """
    return max(0.0, norm - bound) / denominator if norm < math.inf else math.inf


def _ldexp_down(x: float, e: int) -> float:
    """``x * 2**e`` for a lower bound ``x >= 0``, rounded toward zero, or math.inf when beyond float64.

    The product is exact unless it falls below the normal range, where
    :func:`~genhilbert.operator._ldexp` rounds to nearest: up by as much as
    half a subnormal's ulp, far beyond a certificate's slack.  A product
    that rounded up is taken one float toward zero.
    """
    y = _ldexp(x, e)
    return math.nextafter(y, 0.0) if y < math.inf and math.ldexp(y, -e) > x else y


def _norm_2(x: np.ndarray) -> float:
    """``||x||_2`` from :func:`_scaled`; math.inf only when it is beyond the float64 range."""
    _, norm, e = _scaled(x)
    return _ldexp(norm, e)


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

    Every size is checked against its route's cap before any work, and
    each is then one :class:`_Block` (a block between the small limits
    builds its plan on construction), which keeps its FFT plan or dense
    section for its sigma and every epsilon.  A dense block that runs more
    than one product (sigma counts as one) takes its section after sigma
    and before the ratios, even where the section is over the memo budget,
    so each entry is evaluated once per size.  Sections are held once per
    process under ``(nu, N)``, plans under ``(nu, N, N)`` and sigma_N under
    its tol and route (:meth:`_Block.sigma`), ``mu = 2**e * nu``, in one
    memo of ``_PLAN_MEMO_BYTES`` (64 MiB), least recently used out first:
    a later sweep of any power-of-two multiple of ``mu`` builds neither
    again and runs no Lanczos loop while they are held, and a section or
    plan over the budget is built once per sweep and dropped with its block
    when the sweep returns.  The values equal :func:`p2_section_norm`'s and
    :func:`lower_bound_ratio`'s bit for bit.
    """
    eps_grid = list(eps_grid)
    size_grid = list(size_grid)
    if not eps_grid or not size_grid:
        raise ValueError("eps_grid and size_grid must be nonempty")
    p = validate_p(p)
    for size in size_grid:
        _check_block(mu, size, size, DEFAULT_SECTION_CAP, HANKEL_CAP)
    blocks = [_Block(mu, size, size) for size in size_grid]
    # In report order, epsilon-major: size j's cells are every len(size_grid)-th from j.
    cells = [ExtremalParams(p, eps, size) for eps in eps_grid for size in size_grid]
    verdict = classify_boundedness(mu, p)
    target = verdict.norm if verdict.is_bounded else math.inf
    ratios = [0.0] * len(cells)
    sigma_series = []
    for j, block in enumerate(blocks):
        if p == 2.0:
            sigma_series.append((block.n_rows, block.sigma(tol)))
        if block.dense and len(eps_grid) + (p == 2.0) > 1:
            block.section()
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
