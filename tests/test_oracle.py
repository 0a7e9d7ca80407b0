"""Beta values, kernel integrals, matrix entries, row series and section norms against an arbitrary-precision oracle (mpmath)."""

import math

import numpy as np
import pytest

from genhilbert import (
    Atom,
    JacobiTerm,
    Measure,
    beta_kernel_integral,
    classify_boundedness,
    entry_block,
    finite_section,
    p2_section_norm,
)
from genhilbert.measure import beta
from genhilbert.operator import _row_series_block

mpmath = pytest.importorskip("mpmath")

MAX_INDEX = 300_000
UNIT_ROUNDOFF = 2.0**-53


def _relative_errors(got, ref):
    return [abs((mpmath.mpf(float(g)) - r) / r) for g, r in zip(got, ref)]


def test_beta_matches_mpmath_to_4e15():
    # The direct Gamma quotient reaches 3.3e-15 here; exp of the log-gamma
    # sum reached 8e-15.  Every sharp norm is a sum of such values.
    rng = np.random.default_rng(20220611)
    worst = 0.0
    with mpmath.workdps(30):
        for x, y in rng.uniform(0.0, 6.0, size=(20_000, 2)):
            ref = mpmath.beta(mpmath.mpf(x), mpmath.mpf(y))
            worst = max(worst, abs((mpmath.mpf(beta(float(x), float(y))) - ref) / ref))
    assert worst <= 4e-15


def test_beta_log_space_branch_matches_mpmath_to_5e11():
    # Beyond x + y ~ 171 the Gamma quotient overflows and beta takes exp of
    # the log-gamma sum, whose rounding grows with (x + y) ln(x + y); the
    # worst relative error measured here is 3.9e-11.  Results below the
    # smallest normal float lose relative precision by nature and are skipped.
    rng = np.random.default_rng(12)
    worst, kept = 0.0, 0
    with mpmath.workdps(30):
        for s, f in zip(rng.uniform(172.0, 1e4, 3000), rng.uniform(-6.0, 0.0, 3000)):
            x = float(s * 10.0**f)
            y = float(s - x)
            ref = mpmath.beta(mpmath.mpf(x), mpmath.mpf(y))
            if ref < np.finfo(np.float64).tiny:
                continue
            kept += 1
            worst = max(worst, abs((mpmath.mpf(beta(x, y)) - ref) / ref))
    assert kept >= 2000
    assert worst <= 5e-11


def _kernel_integral_at_30_digits(mu, a, b):
    """The integral of t^a (1-t)^b against mu, and the relative error bound of its float64 value.

    The bound is 4e-15 for the Beta values themselves plus the rounding of
    the arguments x = a + alpha + 1 and y = b + beta + 1, each a correctly
    rounded sum, taken at the density term where it is largest: a relative
    error of u in x moves B by u x |psi(x) - psi(x+y)|, relatively.
    """
    with mpmath.workdps(30):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        total, rtol = mpmath.mpf(0), 4e-15
        for term in mu.jacobi_terms:
            x = a_ + mpmath.mpf(term.alpha) + 1
            y = b_ + mpmath.mpf(term.beta) + 1
            total += mpmath.mpf(term.coeff) * mpmath.beta(x, y)
            psi = mpmath.digamma(x + y)
            rtol = max(rtol, 4e-15 + UNIT_ROUNDOFF * float(
                x * abs(mpmath.digamma(x) - psi) + y * abs(mpmath.digamma(y) - psi)
            ))
        for atom in mu.atoms:
            t = mpmath.mpf(atom.location)
            total += mpmath.mpf(atom.mass) * t**a_ * (1 - t) ** b_
    return total, rtol


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("a,b", [(-0.4, -0.9), (-0.999, -0.001), (-0.75, 0.5)])
def test_beta_kernel_integral_near_the_divergence_boundary_matches_mpmath(a, b, delta):
    # Each density term puts one Beta argument delta above 0, where the
    # integral diverges; the atoms and the Lebesgue term stay moderate.
    terms = [JacobiTerm(1.7, -1.0 - a + delta, 0.25), JacobiTerm(0.5, 0.0, 0.0)]
    if b < 0.0:
        terms.append(JacobiTerm(0.3, 0.5, -1.0 - b + delta))
    mu = Measure(tuple(terms), (Atom(0.3, 0.4), Atom(1.0 - 2.0**-20, 0.2)))
    want, rtol = _kernel_integral_at_30_digits(mu, a, b)
    got = beta_kernel_integral(mu, a, b)
    assert abs((mpmath.mpf(got) - want) / want) <= rtol
    assert got > 0.5 / delta


@pytest.mark.parametrize("delta", [1e-6, 3e-8, 1e-11])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
@pytest.mark.parametrize("side", ["t", "1-t"])
def test_classify_boundedness_norm_near_the_divergence_boundary_matches_mpmath(side, p, delta):
    # The sharp norm is the kernel integral at a = -1/p, b = 1/p - 1.  The
    # density exponent on one side sits delta inside the boundary, where that
    # integral starts to diverge, and then delta outside it.
    a, b = -1.0 / p, 1.0 / p - 1.0
    boundary = -1.0 - (a if side == "t" else b)

    def measure(exponent):
        term = JacobiTerm(2.0, exponent, 0.5) if side == "t" else JacobiTerm(2.0, 0.25, exponent)
        return Measure((term,), (Atom(0.3, 0.4),))

    mu = measure(boundary + delta)
    verdict = classify_boundedness(mu, p)
    want, rtol = _kernel_integral_at_30_digits(mu, a, b)
    assert verdict.is_bounded and verdict.formula_used == "Interior_Np"
    assert abs((mpmath.mpf(verdict.norm) - want) / want) <= rtol
    if boundary - delta > -1.0:
        assert classify_boundedness(measure(boundary - delta), p).reason == "DivergentIntegral"


def test_jacobi_terms_match_mpmath_to_1e10():
    # Row, diagonal and column Pochhammer factors; the log-gamma route
    # cancels terms of size s*ln(s) and loses ~1e-9 here.
    rng = np.random.default_rng(20220611)
    worst = 0.0
    for _ in range(30):
        alpha, beta = rng.uniform(-0.9, 3.0, size=2)
        term = JacobiTerm(float(rng.uniform(0.1, 5.0)), float(alpha), float(beta))
        n = rng.integers(0, MAX_INDEX + 1, size=10)
        k = rng.integers(0, MAX_INDEX + 1, size=10)
        n[:2], k[:2] = rng.integers(0, 20, size=2), rng.integers(0, 20, size=2)
        got = entry_block(Measure((term,), ()), n, k)
        with mpmath.workdps(40):
            ref = [
                term.coeff
                * mpmath.binomial(int(ni) + int(ki), int(ki))
                * mpmath.beta(int(ki) + mpmath.mpf(term.alpha) + 1, int(ni) + mpmath.mpf(term.beta) + 1)
                for ni, ki in zip(n, k)
            ]
            worst = max(worst, max(_relative_errors(got, ref)))
    assert worst <= 1e-10


def test_interior_atoms_match_mpmath_within_log_space_bound():
    """Relative error <= 8 u M, M the sum of the log-space terms' magnitudes.

    ln Gamma(n+k+1) alone is ~3.5e6 at n = k = 3e5, so M u is ~1e-9 there:
    the bound is set by the rounding of the log-space terms, not by the
    binomial's size.  Indices sit near the mode so the entries do not underflow.
    """
    rng = np.random.default_rng(1962)
    for _ in range(30):
        t = float(rng.uniform(0.05, 0.95))
        mass = float(rng.uniform(0.1, 5.0))
        s = rng.integers(0, int(MAX_INDEX / max(t, 1.0 - t)) + 1, size=10)
        spread = rng.uniform(-3.0, 3.0, size=10) * np.sqrt(s * t * (1.0 - t))
        k = np.clip(np.rint(s * t + spread), np.maximum(s - MAX_INDEX, 0), np.minimum(s, MAX_INDEX))
        k = k.astype(np.int64)
        n = s - k
        got = entry_block(Measure((), (Atom(t, mass),)), n, k)
        with mpmath.workdps(40):
            ref = [
                mass * mpmath.binomial(int(si), int(ki)) * mpmath.mpf(t) ** int(ki)
                * (1 - mpmath.mpf(t)) ** int(ni)
                for si, ni, ki in zip(s, n, k)
            ]
            errors = _relative_errors(got, ref)
        for si, ni, ki, err in zip(s, n, k, errors):
            magnitude = (
                math.lgamma(si + 1.0) + math.lgamma(ni + 1.0) + math.lgamma(ki + 1.0)
                + abs(ki * math.log(t)) + abs(ni * math.log1p(-t))
            )
            assert err <= 8.0 * UNIT_ROUNDOFF * (magnitude + 1.0)


ROW_SERIES_ROWS = (0, 1, 7, 100, 1000, 4096)
ROW_SERIES_NODES = (1e-6, 0.3, 1.0 - 1e-6)


@pytest.fixture(scope="module")
def row_series_terms():
    """binom(n+m,m) t^m (1-t)^n at 30 digits for m < 300 on the rows-by-nodes grid."""
    with mpmath.workdps(30):
        return {
            (n, t): [mpmath.binomial(n + m, m) * mpmath.mpf(t) ** m * (1 - mpmath.mpf(t)) ** n for m in range(300)]
            for n in ROW_SERIES_ROWS
            for t in ROW_SERIES_NODES
        }


@pytest.mark.parametrize("K", [1, 2, 300])
@pytest.mark.parametrize("signs", ["nonnegative", "changing"])
def test_blocked_row_series_matches_mpmath(row_series_terms, K, signs):
    # Rows up to 4096 make the blocks 77 terms wide, so K = 300 ends in a
    # partial block.  Each term is the exp of log pieces of up to ~700 and a
    # product of in-block ratios, so it carries a few hundred u of rounding;
    # underflow adds below 1e-29 W (1 + max|a|) per grid point (the bound in
    # the docstring), which 1e-25 covers.  No node stops the series early.
    values = 1.0 / (np.arange(K) + 1.0) ** 0.6
    if signs == "changing":
        values = np.random.default_rng(K).standard_normal(K)
    got = _row_series_block(ROW_SERIES_ROWS, ROW_SERIES_NODES, values)
    with mpmath.workdps(30):
        for i, n in enumerate(ROW_SERIES_ROWS):
            for j, t in enumerate(ROW_SERIES_NODES):
                terms = [c * mpmath.mpf(float(v)) for c, v in zip(row_series_terms[n, t], values)]
                want = mpmath.fsum(terms)
                magnitude = mpmath.fsum(abs(x) for x in terms)
                assert abs(got[i, j] - want) <= 2e-13 * magnitude + 1e-25, (n, t)


@pytest.mark.parametrize(
    "mu",
    [
        Measure((), (Atom(0.5, 1.0),)),
        Measure((JacobiTerm(1.0, 1.0, 1.0),), ()),
        Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), (Atom(0.3, 0.4),)),
    ],
    ids=["delta_half", "t(1-t)dt", "mix-atom"],
)
def test_section_norm_is_at_most_the_sections_own_sigma_at_30_digits(mu):
    # The oracle is the largest singular value of the float64 section itself,
    # from the eigenvalues of S^T S at 30 digits: the certified quotient must
    # not pass it, rounding included.
    for size in (7, 48):
        s = mpmath.matrix(finite_section(mu, size).entries.tolist())
        with mpmath.workdps(30):
            top = mpmath.sqrt(max(mpmath.eigsy(s.T * s, eigvals_only=True)))
            assert mpmath.mpf(p2_section_norm(mu, size)) <= top, (size, top)
