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
from genhilbert import kernel
from genhilbert.measure import beta
from genhilbert.operator import _jacobi_rule, _row_series_block

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


def test_jacobi_terms_match_mpmath_within_their_stated_bound():
    # Row, diagonal and column Pochhammer factors, against the entries'
    # stated error: kernel._entry_rtol, the factors' own bounds plus the
    # products'.
    rng = np.random.default_rng(20220611)
    for _ in range(30):
        alpha, beta = rng.uniform(-0.9, 3.0, size=2)
        term = JacobiTerm(float(rng.uniform(0.1, 5.0)), float(alpha), float(beta))
        n = rng.integers(0, MAX_INDEX + 1, size=10)
        k = rng.integers(0, MAX_INDEX + 1, size=10)
        n[:2], k[:2] = rng.integers(0, 20, size=2), rng.integers(0, 20, size=2)
        mu = Measure((term,), ())
        got = entry_block(mu, n, k)
        with mpmath.workdps(40):
            ref = [
                term.coeff
                * mpmath.binomial(int(ni) + int(ki), int(ki))
                * mpmath.beta(int(ki) + mpmath.mpf(term.alpha) + 1, int(ni) + mpmath.mpf(term.beta) + 1)
                for ni, ki in zip(n, k)
            ]
            assert max(_relative_errors(got, ref)) <= kernel._entry_rtol(mu), term


# Every x below 40 and 400 log-uniform ones up to 2^21, as indices.
_RISING_GRID = np.unique(
    np.concatenate([np.arange(40.0), np.floor(2.0 ** np.random.default_rng(21).uniform(0.0, 21.0, 400))])
)


@pytest.mark.parametrize("exponent", [-0.9, -0.6, 0.3, 0.75, 1.25, 1.5, 2.7, 6.5])
def test_rising_matches_mpmath_within_its_stated_bound(exponent):
    # The Stirling form stays within kernel._rising_rtol, and its worst error
    # is at least 100 times below scipy's poch's.
    from scipy.special import poch

    x = _RISING_GRID
    with mpmath.workdps(40):
        ref = [mpmath.rf(mpmath.mpf(v) + 1, mpmath.mpf(exponent)) for v in x]
        got = kernel._rising(x, exponent)
        worst = max(_relative_errors(got, ref))
        worst_poch = max(_relative_errors(poch(x + 1.0, exponent), ref))
    assert worst <= kernel._rising_rtol(exponent)
    assert 100.0 * worst <= worst_poch
    small = x < kernel._TABLE  # read from the exponent's table when alone
    assert kernel._rising(x[small], exponent).tobytes() == got[small].tobytes()


def test_log_gamma_matches_mpmath_within_its_stated_bound():
    # Every z below 60 and 600 log-uniform ones up to about 1.3e19.
    z = np.floor(2.0 ** np.random.default_rng(5).uniform(0.0, 63.5, 600))
    z = np.unique(np.concatenate([np.arange(1.0, 60.0), z]))
    got = kernel._log_gamma(z)
    assert got[0] == got[1] == 0.0  # ln Gamma(1) = ln Gamma(2) = 0
    with mpmath.workdps(40):
        worst = max(
            abs((mpmath.mpf(float(g)) - mpmath.loggamma(mpmath.mpf(v))) / mpmath.loggamma(mpmath.mpf(v)))
            for v, g in zip(z[2:], got[2:])
        )
    assert worst <= kernel._LOG_GAMMA_RTOL * UNIT_ROUNDOFF
    small = z <= kernel._TABLE  # read from the table when alone
    assert kernel._log_gamma(z[small]).tobytes() == got[small].tobytes()


def _gauss_jacobi_moment_errors(n: int, alpha: float, beta: float) -> float:
    """The largest relative error of the n-point rule's moments of t^j, j < 2n, against mpmath."""
    t, w = _jacobi_rule(n, alpha, beta)
    with mpmath.workdps(30):
        # B(j+alpha+1, beta+1), one exact ratio from the last.
        moment, worst = mpmath.beta(alpha + 1, beta + 1), 0.0
        for j in range(2 * n):
            worst = max(worst, float(abs(math.fsum(w * t**j) / moment - 1)))
            moment *= (j + alpha + 1) / mpmath.mpf(j + alpha + beta + 2)
    return worst


@pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
def test_gauss_jacobi_rules_integrate_moments_to_their_tolerance(n):
    """Each n-point rule integrates t^j t^alpha (1-t)^beta dt, j <= 2n-1, within (32 n^2 + 64) u.

    Near an endpoint the nodes lie O(1/n^2) apart, so a node's rounding moves
    its weight by O(n^2) u relative; the worst errors measured on this grid
    are 0.04 to 0.31 of this tolerance up to n = 128, and 0.035 and 0.014 at
    1024 and 2048.  Their
    nodes stay within 16 u of scipy's roots_jacobi (the two meet at 2 u or
    less except where the rule's own formula for one node is ill conditioned,
    as at n = 1 with alpha + beta near -2).  Rules of 1024 and 2048 nodes
    take this check in CI.
    """
    from scipy.special import roots_jacobi

    exponents = (-0.9, -0.5, 0.0, 0.25, 1.0, 3.0)
    tolerance = (32 * n * n + 64) * UNIT_ROUNDOFF
    for alpha in exponents:
        for beta in exponents:
            assert _gauss_jacobi_moment_errors(n, alpha, beta) <= tolerance, (alpha, beta)
            t, _ = _jacobi_rule(n, alpha, beta)
            x, _ = roots_jacobi(n, beta, alpha)
            assert np.abs(t - 0.5 * (x + 1.0)).max() <= 16 * UNIT_ROUNDOFF, (alpha, beta)


@pytest.mark.parametrize("alpha,beta", [(-0.999, -0.999), (-0.999, -0.998), (-0.999, 40.0)])
def test_gauss_jacobi_rules_near_an_exponent_of_minus_one(alpha, beta):
    """Within ``n^2 u / (1 + min(alpha, beta))`` at n = 64.

    The node nearest an endpoint whose exponent e is near -1 lies about
    ``2 (1 + e) / n^2`` from it, so the rounding of x there moves its weight
    by about ``n^2 u / (2 (1 + e))`` relative.  With the recurrence's
    ``k + a + b`` formed from the rounded ``a + b`` these moments erred by
    1.1e-7 at (-0.999, -0.999); from the exact sum, by 9.3e-11.
    """
    n = 64
    assert _gauss_jacobi_moment_errors(n, alpha, beta) <= n * n * UNIT_ROUNDOFF / (1.0 + min(alpha, beta))


def test_interior_atoms_match_mpmath_within_log_space_bound():
    """Relative error within the stated ``kernel._atom_rtol``, 11 u M + 3 u, and
    within 8 u (M + 1), M the sum of the log-space terms' magnitudes.

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
            assert err <= min(8.0 * UNIT_ROUNDOFF * (magnitude + 1.0), kernel._atom_rtol(t, int(ni), int(ki)))


def test_interior_atom_entries_up_to_their_log_space_bound():
    # kernel._atom_rtol of a unit atom at 1/2 passes kernel._ATOM_RTOL from
    # n = k = 12751065 on; the entry before, binom(2n, n) / 4^n, is within it.
    delta_half = Measure((), (Atom(0.5, 1.0),))
    last = 12_751_064
    assert kernel._atom_rtol(0.5, last, last) <= kernel._ATOM_RTOL < kernel._atom_rtol(0.5, last + 1, last + 1)
    with mpmath.workdps(40):
        ref = mpmath.binomial(2 * last, last) / mpmath.mpf(4) ** last
        [err] = _relative_errors([entry_block(delta_half, last, last)], [ref])
    assert err <= kernel._atom_rtol(0.5, last, last)
    with pytest.raises(ValueError, match="log space"):
        entry_block(delta_half, last + 1, last + 1)


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
