"""Sequence applies: truncated matvec, quadrature reference, FFT fast path."""

import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genhilbert import (
    Atom,
    ConvergenceError,
    ExtremalParams,
    JacobiTerm,
    LEBESGUE,
    Measure,
    ResourceLimitError,
    SequenceVector,
    apply_truncated,
    apply_via_quadrature,
    convergence_sweep,
    extremal_sequence,
    finite_section,
    hankel_fast_apply,
    lp_norm,
    norm_integral,
    reflected,
    row_series_value,
    sequence_from_csv,
    sequence_to_csv,
)
from genhilbert import certify, kernel, operator
from genhilbert.operator import fft_plan
from conftest import MIX2, MIX_ATOM, MIXED_CORPUS, TWO_TERMS, random_interior_measure


def naive_hilbert_apply(values: np.ndarray, n_rows: int) -> np.ndarray:
    """Direct O(K*N) oracle for the classical matrix."""
    k = np.arange(len(values))
    return np.array([(values / (n + k + 1.0)).sum() for n in range(n_rows)])


# ------------------------------------------------------------ SequenceVector


def test_sequence_vector_infers_nonneg_flag():
    assert SequenceVector(np.array([0.0, 1.0])).nonneg is True
    assert SequenceVector(np.array([0.0, -1.0])).nonneg is False


def test_sequence_vector_rejects_matrix_input():
    with pytest.raises(ValueError):
        SequenceVector(np.zeros((2, 2)))


# --------------------------------------------------------------------- norms


@pytest.mark.parametrize(
    "values,p,expected",
    [
        ([3.0, -4.0], 2.0, 5.0),
        ([1.0, -2.0, 3.0], 1.0, 6.0),
        ([1.0, -2.0, 3.0], math.inf, 3.0),
        ([], 2.0, 0.0),
        ([2.0, 2.0, 2.0, 2.0], 4.0, 2.0 * 4.0**0.25),
        # 0.5**p and 0.7**p are subnormal or zero at these p
        ([1.0, 0.5], 2000.0, 1.0),
        ([0.7, 0.7], 1500.0, 0.7 * 2.0 ** (1.0 / 1500.0)),
    ],
)
def test_lp_norm(values, p, expected):
    assert lp_norm(values, p) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("scale", [2.0**-1000, 1e-35, 1e35, 2.0**1000])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
def test_lp_norm_neither_overflows_nor_underflows(scale, p):
    # |v|**p alone leaves the float64 range at these scales.
    values = np.array([1.0, -0.5, 0.25, 3.0])
    want = scale * lp_norm(values, p)
    assert lp_norm(scale * values, p) == pytest.approx(want, rel=1e-14, abs=0)


def test_lp_norm_reports_a_norm_beyond_float64_as_inf():
    assert lp_norm(np.full(4, 1.5e308), 2.0) == math.inf


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm([1.0], 0.5)


def _magnitude_norms(x):
    """``_scaled`` and ``_norms_1_2`` written through ``np.abs``: ``(x / 2**e, ||.||_2, e)`` and ``||x / 2**e||_1``."""
    e = math.frexp(float(np.abs(x).max()))[1]
    x = np.ldexp(x, -e)
    return (x, math.sqrt(x.dot(x)), e), float(np.abs(x).sum())


_NORM_INPUTS = {
    "nonnegative": np.random.default_rng(37).uniform(0.0, 1.0, 300),
    "signed": np.random.default_rng(38).uniform(-1.0, 1.0, 300),
    "one value": np.array([-3.0]),
    "all zero": np.zeros(17),
    "all -0.0": np.full(9, -0.0),
    "-0.0 among nonnegatives": np.array([-0.0, 0.0, 2.5, -0.0, 1.0]),
    "-0.0 among signed": np.array([-0.0, -1.5, 0.0, 2.0]),
    "subnormal nonnegative": np.array([5e-324, 2.5e-310, 0.0, 1e-315]),
    "subnormal signed": np.array([5e-324, -2.5e-310, -0.0, 1e-315]),
    "2^1000": np.random.default_rng(39).uniform(0.0, 1.0, 50) * 2.0**1000,
    "2^1000 signed": np.random.default_rng(40).uniform(-1.0, 1.0, 50) * 2.0**1000,
    "2^-1000": np.random.default_rng(41).uniform(0.0, 1.0, 50) * 2.0**-1000,
    "2^-1000 signed": np.random.default_rng(42).uniform(-1.0, 1.0, 50) * 2.0**-1000,
    # Scaled by 2**-1001, the subnormals underflow to +-0.0.
    "2^1000 with subnormals": np.array([2.0**1000, 5e-324, 0.0, 3.0]),
    "2^1000 with negative subnormals": np.array([2.0**1000, -5e-324, -1e-310, 3.0]),
}


@pytest.mark.parametrize("name", _NORM_INPUTS)
def test_scaled_and_norms_1_2_keep_the_bits_of_their_magnitude_expressions(name):
    x = _NORM_INPUTS[name]
    (want_x, want_2, want_e), want_1 = _magnitude_norms(x)
    got_x, got_2, got_e = operator._scaled(x)
    assert (got_x.tobytes(), got_2.hex(), got_e) == (want_x.tobytes(), want_2.hex(), want_e)
    got_1, got_2, got_e = operator._norms_1_2(x)
    assert (got_1.hex(), got_2.hex(), got_e) == (want_1.hex(), want_2.hex(), want_e)
    # A zero-stride constant, as a plan's unit factor is, and its tile slices.
    constant = np.broadcast_to(x[-1], 64)
    assert operator._norms_1_2(constant[5:40]) == operator._norms_1_2(np.full(35, x[-1]))


# ---------------------------------------------------------------- row series


def test_row_series_at_zero_returns_first_value():
    a = SequenceVector(np.array([7.0, 1.0, 1.0]))
    for n in (0, 1, 5):
        assert row_series_value(n, 0.0, a) == 7.0


def test_row_series_at_one_vanishes_for_positive_rows():
    a = SequenceVector(np.array([1.0, 2.0, 3.0]))
    assert row_series_value(1, 1.0, a) == 0.0
    assert row_series_value(9, 1.0, a) == 0.0


def test_row_zero_series_at_one_is_the_full_sum():
    a = SequenceVector(np.array([1.0, 2.0, 3.0]))
    assert row_series_value(0, 1.0, a) == 6.0


@pytest.mark.parametrize("K", [1, 2, 12, 40])
def test_row_zero_geometric_series(K):
    # sum_{m<K} (1/2)^m = 2 - 2^{1-K}, oracle by direct summation
    a = SequenceVector(np.ones(K))
    direct = sum(0.5**m for m in range(K))
    got = row_series_value(0, 0.5, a)
    assert got == pytest.approx(direct, rel=1e-15)
    assert got == pytest.approx(2.0 - 2.0 ** (1 - K), rel=1e-15)


def test_row_series_against_direct_summation():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(30)
    a = SequenceVector(values)
    for n in (0, 1, 4):
        for t in (0.1, 0.5, 0.9):
            direct = sum(
                math.comb(n + m, m) * t**m * (1 - t) ** n * values[m] for m in range(30)
            )
            assert row_series_value(n, t, a) == pytest.approx(direct, rel=1e-12, abs=1e-13)


def test_row_series_long_sequence_tail_cutoff_is_sound(monkeypatch):
    # geometric tail bound must not bite before 1e-12: compare full vs default
    a = SequenceVector(1.0 / (np.arange(50_000.0) + 1.0) ** 2)
    loose = row_series_value(3, 0.4, a)
    monkeypatch.setattr(operator, "_TAIL_TOL", 1e-300)
    monkeypatch.setattr(operator, "_MAX_TERMS", 10**8)
    exact = row_series_value(3, 0.4, a)
    assert loose == pytest.approx(exact, abs=5e-12)


def test_row_series_reports_nonconvergence(monkeypatch):
    a = SequenceVector(np.ones(10**6))
    monkeypatch.setattr(operator, "_MAX_TERMS", 1000)
    with pytest.raises(ConvergenceError) as err:
        row_series_value(2, 0.999999, a)
    assert err.value.estimate is not None


def test_row_series_log_refresh_matches_the_running_log(monkeypatch):
    rng = np.random.default_rng(3)
    a = SequenceVector(rng.random(200))
    want = apply_via_quadrature(LEBESGUE, a, 8).values
    refreshes = []

    def counted_log_gamma(x, _original=operator._log_gamma):
        refreshes.append(1)
        return _original(x)

    monkeypatch.setattr(operator, "_LOG_REFRESH", 16)
    monkeypatch.setattr(operator, "_log_gamma", counted_log_gamma)
    got = apply_via_quadrature(LEBESGUE, a, 8).values
    assert refreshes
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [0, 1, 50, 700])
def test_row_series_stops_early_at_a_block_start(monkeypatch, n):
    # With a = 1 the series is 1/(1-t), and with a = (-1)^m it is
    # (1-t)^n / (1+t)^(n+1) (negative-binomial sums).  Its tail bound falls
    # below _TAIL_TOL within a few hundred terms, inside a block of at least
    # 98; the series stops at the next block start, and the term cap shows
    # that it stops long before the stored length.
    monkeypatch.setattr(operator, "_MAX_TERMS", 2000)
    t = 0.3
    ones = np.ones(10**6)
    alternating = np.where(np.arange(10**6) % 2 == 0, 1.0, -1.0)
    got = operator._row_series_block([n], [t], ones)[0, 0]
    assert got == pytest.approx(1.0 / (1.0 - t), rel=1e-13)
    got = operator._row_series_block([n], [t], alternating)[0, 0]
    want = math.exp(n * math.log1p(-t) - (n + 1) * math.log1p(t))
    assert abs(got - want) <= 1e-13 * want + operator._TAIL_TOL


def test_row_series_rejects_bad_inputs():
    a = SequenceVector(np.ones(3))
    with pytest.raises(ValueError):
        row_series_value(-1, 0.5, a)
    with pytest.raises(ValueError):
        row_series_value(0, 1.5, a)


# ------------------------------------------------------------ apply_truncated


def test_unit_vector_maps_to_first_column(lebesgue):
    a = SequenceVector(np.array([1.0]))
    out = apply_truncated(lebesgue, a, 3)
    np.testing.assert_allclose(out.values, [1.0, 0.5, 1.0 / 3.0], rtol=1e-15)


def test_zero_measure_maps_to_zero(zero_measure):
    a = SequenceVector(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(apply_truncated(zero_measure, a, 4).values, 0.0)


def test_point_mass_row_zero_geometric(delta_half):
    K = 12
    a = SequenceVector(np.ones(K))
    out = apply_truncated(delta_half, a, 1)
    assert out.values[0] == pytest.approx(2.0 - 2.0 ** (1 - K), rel=1e-14)


def test_apply_matches_naive_oracle(lebesgue):
    rng = np.random.default_rng(11)
    values = rng.random(37)
    got = apply_truncated(lebesgue, SequenceVector(values), 21).values
    np.testing.assert_allclose(got, naive_hilbert_apply(values, 21), rtol=1e-13)


def test_apply_respects_row_cap(lebesgue):
    with pytest.raises(ResourceLimitError):
        apply_truncated(lebesgue, SequenceVector(np.ones(4)), 100_000)


@pytest.mark.parametrize("mu", [LEBESGUE, MIX_ATOM], ids=["lebesgue", "mix-atom"])
@pytest.mark.parametrize("K", [257, 1000, 4097])
@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_blocking_does_not_change_results(mu, K, block_rows, monkeypatch):
    a = SequenceVector(np.random.default_rng(3).random(K))
    full = apply_truncated(mu, a, 65).values
    monkeypatch.setattr(kernel, "_APPLY_BLOCK_ELEMENTS", block_rows * K)
    blocked = apply_truncated(mu, a, 65).values
    assert blocked.tobytes() == full.tobytes()


@pytest.mark.parametrize("K,block_rows", [(170, None), (170, 7), (170, 1), (1 << 17, None)])
def test_a_streamed_apply_s_range_error_names_the_whole_grid_at_any_block_height(K, block_rows, monkeypatch):
    # coeff times the row factor leaves float64.  Every block of the 300 x K
    # grid reads factors over the whole grid, so the error names its largest
    # n+k, as the FFT plan's does; at K = 2^17 a block is 2 rows unpatched.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    mu = Measure((JacobiTerm(1e300, 0.5, 30.0),), ())
    want = f"{mu.jacobi_terms[0]} leaves the float64 range of the factored kernel at n+k <= {300 + K - 2}"
    with pytest.raises(ValueError) as planned:
        fft_plan(mu, 300, K)
    if block_rows is not None:
        monkeypatch.setattr(kernel, "_APPLY_BLOCK_ELEMENTS", block_rows * K)
    with pytest.raises(ValueError) as streamed:
        apply_truncated(mu, SequenceVector(np.ones(K)), 300)
    assert str(streamed.value) == str(planned.value) == want


_CHUNK = operator._ROW_CHUNK


@pytest.mark.parametrize("K", [1, 257, 1001, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_row_sums_keep_their_bits_at_any_block_height_and_row_offset(K):
    # A row's sum depends on its length alone: alone, in a block of any
    # height, and from each of eight element offsets (every alignment of a
    # 64-byte line), it has the same bits, within gamma_K of the exact sum.
    rng = np.random.default_rng(K)
    rows = rng.random((7, K))
    # Signed powers of two: every product is exact, so math.fsum rounds the exact sum once.
    values = rng.choice([-1.0, 1.0], K) * np.ldexp(1.0, rng.integers(-3, 4, K))
    alone = np.array([operator._row_sums(row[None, :], values)[0] for row in rows])
    for height in (2, 3, 7):
        blocked = np.concatenate([operator._row_sums(rows[r0 : r0 + height], values) for r0 in range(0, 7, height)])
        assert blocked.tobytes() == alone.tobytes(), height
    for offset in range(8):
        shifted = np.empty((7, K + 8))[:, offset : offset + K]
        shifted[...] = rows
        moved = np.empty(K + 8)[offset : offset + K]
        moved[...] = values
        assert operator._row_sums(shifted, moved).tobytes() == alone.tobytes(), offset
    gamma = K * 2.0**-53 / (1.0 - K * 2.0**-53)
    for row, got in zip(rows, alone):
        products = row * values
        assert abs(got - math.fsum(products)) <= gamma * math.fsum(np.abs(products))


def test_truncated_rows_keep_their_bits_under_any_blas_thread_count():
    # OpenBLAS splits one ddot of more than 10000 entries between its
    # threads; _row_sums' column chunks are shorter, so mix-atom's rows of
    # 2^17 entries have the same bits on one BLAS thread and on two.
    code = (
        "import numpy as np\n"
        "from genhilbert import Atom, JacobiTerm, Measure, SequenceVector, apply_truncated\n"
        "mu = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), (Atom(0.3, 0.4),))\n"
        "a = SequenceVector(np.random.default_rng(17).random(1 << 17))\n"
        "print(' '.join(v.hex() for v in apply_truncated(mu, a, 4).values.tolist()))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    printed = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout.split())
    here = apply_truncated(MIX_ATOM, SequenceVector(np.random.default_rng(17).random(1 << 17)), 4).values
    assert printed[0] == printed[1] == [v.hex() for v in here.tolist()]


def test_monotone_in_input_length_and_rows(lebesgue):
    values = np.random.default_rng(9).random(64)
    short = apply_truncated(lebesgue, SequenceVector(values[:32]), 16).values
    longer = apply_truncated(lebesgue, SequenceVector(values), 16).values
    assert np.all(longer >= short - 1e-15)
    few = apply_truncated(lebesgue, SequenceVector(values), 8).values
    np.testing.assert_array_equal(longer[:8], few)


# -------------------------------------------------------- quadrature route


def test_quadrature_matches_truncated_on_lebesgue(lebesgue):
    rng = np.random.default_rng(2)
    a = SequenceVector(rng.random(17))
    d1 = apply_truncated(lebesgue, a, 9).values
    d2 = apply_via_quadrature(lebesgue, a, 9).values
    np.testing.assert_allclose(d2, d1, rtol=1e-8)


def test_quadrature_cross_oracle_on_random_interior_measures():
    rng = np.random.default_rng(20240229)
    for _ in range(20):
        mu = random_interior_measure(rng)
        K = int(rng.integers(1, 65))
        n_rows = int(rng.integers(1, 65))
        a = SequenceVector(rng.random(K))
        d1 = apply_truncated(mu, a, n_rows).values
        d2 = apply_via_quadrature(mu, a, n_rows).values
        np.testing.assert_allclose(d2, d1, rtol=1e-7, atol=1e-12)


def test_quadrature_compares_two_rules_beyond_the_exact_rule(monkeypatch):
    monkeypatch.setattr(operator, "_GAUSS_EXACT_MAX", 16)
    # Degree 40 needs 21 nodes; with a[m] = 0 beyond m = 3 the row series has
    # degree at most 4, which both the 16- and the 32-node rule integrate exactly.
    values = np.zeros(40)
    values[[0, 3]] = (1.0, 0.5)
    a = SequenceVector(values)
    got = apply_via_quadrature(LEBESGUE, a, 2).values
    np.testing.assert_allclose(got, apply_truncated(LEBESGUE, a, 2).values, rtol=3e-15, atol=0)
    with pytest.raises(ConvergenceError, match="between refinements") as err:
        apply_via_quadrature(LEBESGUE, SequenceVector(np.ones(40)), 20)
    assert 1e-9 < err.value.estimate < 1e-5


def test_each_gauss_jacobi_rule_is_computed_once(monkeypatch):
    # Repeated applies read each (n_nodes, alpha, beta) rule computed once,
    # and give the images of rules computed afresh per apply, bit for bit.
    # A rule's computation evaluates its recurrence at least twice.
    calls = []
    values = operator._jacobi_values
    monkeypatch.setattr(operator, "_jacobi_values", lambda x, c: calls.append(len(x)) or values(x, c))
    operator._jacobi_rule.cache_clear()
    mu = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), (Atom(0.3, 0.4),))
    a = SequenceVector(1.0 / np.arange(1.0, 129.0) ** 0.6)
    images = [apply_via_quadrature(mu, a, 128).values.tobytes()]
    first = len(calls)
    images += [apply_via_quadrature(mu, a, 128).values.tobytes() for _ in range(2)]
    assert first >= 4 and len(calls) == first and set(calls) == {128}
    assert operator._jacobi_rule.cache_info().currsize == 2
    for x in operator._jacobi_rule(128, -0.5, 0.25):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
    monkeypatch.setattr(operator, "_jacobi_rule", operator._jacobi_rule.__wrapped__)
    assert images == [apply_via_quadrature(mu, a, 128).values.tobytes()] * 3
    assert len(calls) == 2 * first


@pytest.mark.parametrize("n", [64, 300, 2048])
def test_gauss_jacobi_aberth_sums_keep_their_bits_at_any_block_height(monkeypatch, n):
    # Each Newton step sums 1/(x_k - x_i) per row over row blocks of at most
    # kernel._APPLY_BLOCK_ELEMENTS gaps (128 rows at n = 2048); one block of the
    # whole gap matrix and blocks of 7 rows give the same rules bit for bit.
    rule = operator._jacobi_rule.__wrapped__
    pairs = ((0.0, 0.0), (-0.5, 0.25), (3.0, -0.9))
    rules = []
    for elements in (kernel._APPLY_BLOCK_ELEMENTS, n * n, 7 * n):
        monkeypatch.setattr(kernel, "_APPLY_BLOCK_ELEMENTS", elements)
        rules.append([b"".join(x.tobytes() for x in rule(n, alpha, beta)) for alpha, beta in pairs])
    assert rules[0] == rules[1] == rules[2]


def test_a_2048_node_rule_holds_no_gap_matrix():
    # The whole gap matrix of 2048 nodes is 32 MiB; a block of
    # _APPLY_BLOCK_ELEMENTS gaps is 2 MiB.
    rule = operator._jacobi_rule.__wrapped__
    tracemalloc.start()
    try:
        rule(2048, 0.5, -0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_quadrature_endpoint_atom_conventions():
    # atom at 0 adds a_0 to every row; atom at 1 adds the full sum to row 0
    a = SequenceVector(np.array([2.0, 3.0, 4.0]))
    d0 = apply_via_quadrature(Measure((), (Atom(0.0, 5.0),)), a, 4).values
    np.testing.assert_allclose(d0, [10.0, 10.0, 10.0, 10.0], rtol=1e-15)
    d1 = apply_via_quadrature(Measure((), (Atom(1.0, 5.0),)), a, 4).values
    np.testing.assert_allclose(d1, [45.0, 0.0, 0.0, 0.0], rtol=1e-15)


def test_quadrature_interior_atom_is_point_evaluation(delta_half):
    a = SequenceVector(np.array([1.0, 1.0, 1.0, 1.0]))
    got = apply_via_quadrature(delta_half, a, 3).values
    want = [sum(math.comb(n + m, m) * 0.5 ** (n + m) for m in range(4)) for n in range(3)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


# ---------------------------------------------------------------- fast apply


def test_fast_apply_single_column():
    out = hankel_fast_apply(SequenceVector(np.array([1.0])), 4)
    np.testing.assert_allclose(out.values, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-12)


def test_fast_apply_zero_input():
    out = hankel_fast_apply(SequenceVector(np.zeros(8)), 5)
    np.testing.assert_array_equal(out.values, 0.0)


# (1, 1) and (1024, 1025) transform at exactly n_rows + K - 1, the shortest
# length whose wrap-around misses the rows kept
@pytest.mark.parametrize(
    "K,n_rows",
    [(1, 7), (13, 5), (1024, 1024), (777, 2000), (1, 1), (5000, 3), (3, 5000), (1024, 1025)],
)
def test_fast_apply_matches_naive(K, n_rows):
    rng = np.random.default_rng(K)
    values = rng.random(K)
    got = hankel_fast_apply(SequenceVector(values), n_rows).values
    ref = naive_hilbert_apply(values, n_rows)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_fast_apply_size_cap():
    with pytest.raises(ResourceLimitError):
        hankel_fast_apply(SequenceVector(np.ones(4)), 2**23)
    with pytest.raises(ResourceLimitError):
        fft_plan(LEBESGUE, 4, 2**23).apply(SequenceVector(np.ones(2**23)), 2.0)


def test_fft_plan_checks_the_input_length():
    plan = operator.fft_plan(LEBESGUE, 5, 3)
    with pytest.raises(ValueError, match="input length 4 does not match the plan's 3 columns"):
        plan.apply(SequenceVector(np.ones(4)), 2.0)


@pytest.mark.parametrize("p", [0.0, math.nan, 0.5, -1.0])
def test_fft_apply_rejects_a_p_below_one(p):
    plan = fft_plan(LEBESGUE, 4, 3)
    with pytest.raises(ValueError, match="p must be a real >= 1 or inf"):
        plan.apply(SequenceVector(np.ones(3)), p)


@pytest.mark.parametrize(
    "mu,size,value,transposed",
    [
        # E * a is beyond float64; the image peaks at 5.0e305
        (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), 300, 1e306, False),
        # E * a is beyond float64; the image peaks at 5.7e300
        (Measure((JacobiTerm(1.0, 3.0, 0.0),), ()), 1000, 1e300, False),
        (LEBESGUE, 300, 1e306, False),  # the transforms run on a / 2**e_a, whose entries are below 1
        # sum(a) is beyond float64; the atom puts row 0 at 1.56e308
        (Measure((JacobiTerm(1.0, 0.0, 0.0),), (Atom(1.0, 0.5),)), 300, 1e306, False),
        # The transposed plan's b = E * a / 2**e_a carries the coefficient, and m ||h||_1 ||b||_1
        # reaches 2**1021.7: the transforms run on b / 2**e.  At 1e306 they would overflow without it.
        (Measure((JacobiTerm(1.0, 0.0, 0.0), JacobiTerm(1e300, 0.5, 0.0)), ()), 4096, 1.0, True),
        (Measure((JacobiTerm(1.0, 0.0, 0.0), JacobiTerm(1e306, 0.5, 0.0)), ()), 4096, 1.0, True),
    ],
    ids=["t(1-t)dt", "t^3dt", "lebesgue", "atom-at-1", "transposed-1e300", "transposed-1e306"],
)
def test_fft_image_near_the_float64_limit_is_finite_and_within_its_bound(mu, size, value, transposed):
    plan = fft_plan(mu, size, size)
    if transposed:
        plan, mu = plan.transposed(), reflected(mu)
    a = SequenceVector(np.full(size, value))
    image, bound = plan.apply(a, 2.0)
    assert np.isfinite(image.values).all() and math.isfinite(bound)
    # The bound is against the exact products of the entries; the truncated
    # apply sums K nonnegative products, within gamma_K of them per row.
    ref = apply_truncated(mu, a, size).values
    gamma = size * 2.0**-53 / (1.0 - size * 2.0**-53)
    assert lp_norm(image.values - ref, 2.0) <= bound + gamma * lp_norm(ref, 2.0)
    # Dividing the input by a power of two and scaling back are exact.
    e = math.frexp(value)[1]
    small, small_bound = plan.apply(SequenceVector(np.ldexp(a.values, -e)), 2.0)
    assert image.values.tobytes() == np.ldexp(small.values, e).tobytes()
    assert bound == math.ldexp(small_bound, e)


def test_empty_sequence_maps_to_zero_on_every_route():
    mu = Measure((JacobiTerm(1.0, 1.0, 0.0),), (Atom(0.0, 2.0), Atom(0.5, 1.0), Atom(1.0, 1.0)))
    empty = SequenceVector(np.zeros(0))
    for t in (0.0, 0.5, 1.0):
        assert row_series_value(0, t, empty) == 0.0
    for route in (apply_truncated, apply_via_quadrature):
        np.testing.assert_array_equal(route(mu, empty, 5).values, np.zeros(5))


def test_zero_column_fft_plan_maps_to_zero():
    mu = Measure((JacobiTerm(1.0, 1.0, 0.0),), (Atom(0.0, 2.0), Atom(1.0, 1.0)))
    image, bound = operator.fft_plan(mu, 5, 0).apply(SequenceVector(np.zeros(0)), 2.0)
    np.testing.assert_array_equal(image.values, np.zeros(5))
    assert bound == 0.0
    for n_cols in (-1, 2.5, 0.0):
        with pytest.raises(ValueError, match=f"^n_cols must be an integer >= 0, got {n_cols}$"):
            operator.fft_plan(mu, 5, n_cols)


def _assert_exact_partition(n_rows, n_cols):
    tiles = np.array([(r.start, r.stop, c.start, c.stop) for r, c, _ in operator._layout(n_rows, n_cols, True)])
    r0, r1, c0, c1 = tiles.T
    assert (0 <= r0).all() and (r0 < r1).all() and (r1 <= n_rows).all(), (n_rows, n_cols)
    assert (0 <= c0).all() and (c0 < c1).all() and (c1 <= n_cols).all(), (n_rows, n_cols)
    assert ((r1 - r0) * (c1 - c0)).sum() == n_rows * n_cols, (n_rows, n_cols)
    overlaps = (r0[:, None] < r1) & (r0 < r1[:, None]) & (c0[:, None] < c1) & (c0 < c1[:, None])
    assert overlaps.sum() == len(tiles), (n_rows, n_cols)
    # n + k + 1 varies by less than a factor of 6 inside each tile
    assert ((r1 + c1 - 1) < 6 * (r0 + c0 + 1)).all(), (n_rows, n_cols)


def test_tile_cover_is_an_exact_partition():
    # Disjoint tiles inside the block whose areas sum to the block's cover
    # it exactly.  Every size from 1 to 3000 is paired with itself, with its
    # mirror 3001 - N and with 1, 5 and 3000 both ways; all pairs up to 64.
    pairs = {(n, k) for n in range(1, 65) for k in range(1, 65)}
    for n in range(1, 3001):
        pairs |= {(n, n), (n, 3001 - n)} | {(n, k) for k in (1, 5, 3000)} | {(k, n) for k in (1, 5, 3000)}
    for n_rows, n_cols in sorted(pairs):
        _assert_exact_partition(n_rows, n_cols)


def _plan_bytes(plan) -> bytes:
    """Every number a plan holds, as bytes."""
    parts = [repr((plan.n_rows, plan.n_cols, plan.c0, plan.c1))]
    for row, col, eta in plan.terms:
        parts += [repr(eta), row.tobytes(), col.tobytes()]
    for rows, cols, m, terms in plan.tiles:
        parts.append(repr((rows, cols, m)))
        for segment, *norms in terms:
            parts += [repr(norms), segment.tobytes()]
    return b"".join(part.encode() if isinstance(part, str) else part for part in parts)


def _scaled(mu, c):
    return Measure(
        tuple(JacobiTerm(t.coeff * c, t.alpha, t.beta) for t in mu.jacobi_terms),
        tuple(Atom(a.location, a.mass * c) for a in mu.atoms),
    )


def _count_builds(monkeypatch):
    """Count every factor call and every transform ``operator`` makes, as ``{"factors": n, "rfft": n}``."""
    calls = {"factors": 0, "rfft": 0}
    jacobi_factors, rfft = operator.jacobi_factors, operator.rfft

    def counted_factors(*args):
        calls["factors"] += 1
        return jacobi_factors(*args)

    def counted_rfft(*args):
        calls["rfft"] += 1
        return rfft(*args)

    monkeypatch.setattr(operator, "jacobi_factors", counted_factors)
    monkeypatch.setattr(operator, "rfft", counted_rfft)
    return calls


def _assert_same_applies(plan, reference, rng):
    """``plan`` and ``reference`` give the same images and bounds bit for bit, and so do their transposes."""
    for got_plan, want_plan in ((plan, reference), (plan.transposed(), reference.transposed())):
        for sign in (0.0, 1.0):
            values = SequenceVector(rng.uniform(-sign, 1.0, want_plan.n_cols))
            for p in (1.0, 2.0, 3.0):
                (got, got_bound), (want, want_bound) = (q.apply(values, p) for q in (got_plan, want_plan))
                assert got.values.tobytes() == want.values.tobytes() and got_bound == want_bound


def test_memo_hit_equals_a_fresh_build(monkeypatch):
    # A plan read from the memo holds the same bits as one built from an
    # empty memo, and computes the same bits as the measure's own plan,
    # whatever multiple of the measure the memo's plan was built for.
    calls = _count_builds(monkeypatch)
    rng = np.random.default_rng(14)
    for mu in (m for m in MIXED_CORPUS if not m.interior_atoms):
        for n_rows, n_cols in ((7, 7), (300, 170)):
            for c in (1.0, 3.0, 2.0**-40):
                monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
                fft_plan(mu, n_rows, n_cols)
                scaled = _scaled(mu, c)
                count = dict(calls)
                hit = fft_plan(scaled, n_rows, n_cols)
                if c != 3.0:
                    assert calls == count, (mu, c)
                monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
                fresh = fft_plan(scaled, n_rows, n_cols)
                assert _plan_bytes(hit) == _plan_bytes(fresh) and hit.scale == fresh.scale, (mu, n_rows, c)
                _assert_same_applies(hit, operator._build_plan(scaled, n_rows, n_cols)[0], rng)


def test_power_of_two_multiples_share_one_plan(monkeypatch):
    # 2**-40 ... 2**40 times a measure read the plan built for the first of
    # them, with no factor and no transform, and scale its images exactly.
    calls = _count_builds(monkeypatch)
    rng = np.random.default_rng(18)
    for mu in (m for m in MIXED_CORPUS if not m.interior_atoms and (m.jacobi_terms or m.atoms)):
        monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
        first = fft_plan(_scaled(mu, 2.0**-40), 300, 170)
        count = dict(calls)
        for k in range(-40, 41):
            plan = fft_plan(_scaled(mu, 2.0**k), 300, 170)
            assert plan.tiles is first.tiles and plan.scale - first.scale == k + 40, (mu, k)
        assert calls == count and len(operator._plan_memo) == 1, mu
        for k in (-40, 0, 40):
            scaled = _scaled(mu, 2.0**k)
            _assert_same_applies(fft_plan(scaled, 300, 170), operator._build_plan(scaled, 300, 170)[0], rng)


def test_memo_hit_raises_the_same_range_error(monkeypatch):
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())

    def message(route):
        held = list(operator._plan_memo)
        with pytest.raises(ValueError, match="float64 range") as error:
            route()
        # A call that raises leaves the memo as it was.
        assert list(operator._plan_memo) == held
        return str(error.value)

    # coeff times the row leaves float64; a power-of-two multiple of the
    # measure fits, and its plan is kept.
    big = Measure((JacobiTerm(1e300, 0.5, 30.0),), ())
    small = Measure((JacobiTerm(math.ldexp(1e300, -1000), 0.5, 30.0),), ())
    dense = message(lambda: apply_truncated(big, SequenceVector(np.ones(170)), 300))
    miss = message(lambda: fft_plan(big, 300, 170))
    fft_plan(small, 300, 170)
    hit = message(lambda: fft_plan(big, 300, 170))
    assert miss == hit == dense and dense.startswith(repr(big.jacobi_terms[0])) and "n+k <= 468" in dense
    # The column and Hankel factors leave float64 whatever the coefficient;
    # 4.0 tells the caller's term from its multiple's, whose coefficient is
    # 1.0 and whose build fails first.
    steep = Measure((JacobiTerm(4.0, 100.0, 80.0),), ())
    dense = message(lambda: apply_truncated(steep, SequenceVector(np.ones(30)), 20))
    assert message(lambda: fft_plan(steep, 20, 30)) == dense and dense.startswith(repr(steep.jacobi_terms[0]))
    assert list(operator._plan_memo) == [(operator._binary_scale(small)[0], 300, 170)]


def test_a_measure_whose_unit_multiple_leaves_the_range_gets_its_own_plan(monkeypatch):
    # Scaled so that its first coefficient is 1, the second term's row
    # (2**600 (n+1)_85) leaves float64; the measure's own rows do not.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    mu = Measure((JacobiTerm(2.0**-700, 0.0, 0.0), JacobiTerm(2.0**-100, 0.5, 85.0)), ())
    plan = fft_plan(mu, 300, 170)
    assert plan.scale == 0 and list(operator._plan_memo) == [(mu, 300, 170)]
    _assert_same_applies(plan, operator._build_plan(mu, 300, 170)[0], np.random.default_rng(3))
    assert fft_plan(mu, 300, 170).tiles is plan.tiles


def test_a_memo_hit_hashes_as_many_measures_however_many_entries_are_held(monkeypatch):
    # A hit only becomes the memo's newest entry: it sums no bytes, so it
    # hashes no key but its own.
    hashes, measure_hash = [0], Measure.__hash__

    def counted(mu):
        hashes[0] += 1
        return measure_hash(mu)

    def hit_hashes(others):
        monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
        plan = fft_plan(LEBESGUE, 64, 64)
        for size in range(8, 8 + others):
            fft_plan(MIX2, size, 8)
        with monkeypatch.context() as hashing:
            hashing.setattr(Measure, "__hash__", counted)
            hashes[0] = 0
            assert fft_plan(LEBESGUE, 64, 64) is plan
        assert len(operator._plan_memo) == others + 1 and next(reversed(operator._plan_memo)) == (LEBESGUE, 64, 64)
        return hashes[0]

    assert 0 < hit_hashes(1) == hit_hashes(40)


def _held_bytes(plan) -> int:
    """Bytes of the distinct arrays a plan holds, each base array once: the factors, unless constant, and every segment."""
    arrays = [x for row, col, _ in plan.terms for x in (row, col) if x.strides[0]]
    arrays += [segment for *_, terms in plan.tiles for segment, *_ in terms]
    bases = {}
    for x in arrays:
        while isinstance(x.base, np.ndarray):
            x = x.base
        bases[id(x)] = x
    return sum(x.nbytes for x in bases.values())


def test_memo_holds_at_most_its_budget(monkeypatch):
    budget = 1 << 20
    monkeypatch.setattr(operator, "_PLAN_MEMO_BYTES", budget)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    memo, built, lengths = operator._plan_memo, [], []
    for e in range(10, 17):
        size = 1 << e
        for alpha in (1.0, 2.0):
            mu = Measure((JacobiTerm(1.0, alpha, 1.0),), ())
            built.append(((mu, size, size), _held_bytes(fft_plan(mu, size, size))))
            # The newest plans within the budget that fit it together; none over it.
            kept, total = [], 0
            for key, nbytes in reversed(built):
                if nbytes > budget:
                    continue
                total += nbytes
                if total > budget:
                    break
                kept.insert(0, key)
            assert list(memo) == kept, (size, alpha)
            held = [_held_bytes(plan) for plan, _, _ in memo.values()]
            assert held == [nbytes for _, nbytes, _ in memo.values()]
            assert sum(held) <= budget, (size, held)
            lengths.append(len(memo))
    # Plans fit together at first and push each other out; the last ones are each over the budget.
    assert max(lengths) > 2 and lengths[-1] < max(lengths)
    assert sum(nbytes > budget for _, nbytes in built) >= 2


def test_a_plan_over_the_memo_budget_is_not_kept_and_a_sweep_builds_it_once(monkeypatch):
    monkeypatch.setattr(operator, "_PLAN_MEMO_BYTES", 1 << 10)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    builds, build = [], operator._build_plan

    def recorded_build(*args):
        builds.append(args[1:])
        return build(*args)

    monkeypatch.setattr(operator, "_build_plan", recorded_build)
    # t(1-t)dt's tiled block at 512 is small: its sigma takes the dense route.
    for mu, small in ((LEBESGUE, False), (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), True)):
        builds.clear()
        operator._plan_memo.clear()
        plan = fft_plan(mu, 4096, 4096)
        assert _held_bytes(plan) > 1 << 10 and list(operator._plan_memo) == []
        assert fft_plan(mu, 4096, 4096) is not plan and builds == [(4096, 4096)] * 2
        # The sweep's block holds each plan for its sigma and every ratio;
        # the memo holds each sigma, which counts no bytes, and no plan.
        builds.clear()
        convergence_sweep(mu, 2.0, [0.1, 0.3], [512, 2048])
        sigmas = [(mu, "sigma", size, 1e-10, dense, certify._KRYLOV_STEP_CAP) for size, dense in ((512, small), (2048, False))]
        assert builds == [(512, 512), (2048, 2048)] and list(operator._plan_memo) == sigmas


def test_memo_arrays_are_read_only(monkeypatch):
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    mu = Measure((JacobiTerm(1.0, 1.0, 0.5), JacobiTerm(2.0, 0.0, 0.0)), ())
    plans = [fft_plan(mu, 300, 300)] + [operator._build_plan(mu, 300, 300, tiled)[0] for tiled in (False, True)]
    assert [plan for plan, _, _ in operator._plan_memo.values()] == plans[:1]
    for plan in plans:
        held = [x for row, col, _ in plan.terms for x in (row, col)]
        held += [segment for *_, terms in plan.tiles for segment, *_ in terms]
        for x in held:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.0


def test_each_tile_term_holds_its_row_factors_maximum():
    # The bound's ||D||_inf over a tile's rows is stored with each tile-term,
    # by the build and by the transpose; the plan holds each term's factors whole.
    two_terms = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), (Atom(1.0, 0.5),))
    for mu in [m for m in MIXED_CORPUS if not m.interior_atoms and m.jacobi_terms] + [two_terms]:
        for tiled in (False, True):
            plan = operator._build_plan(mu, 300, 170, tiled)[0]
            assert (len(plan.tiles) > 1) == tiled, mu
            for q in (plan, plan.transposed(), plan.transposed().transposed()):
                assert len(q.terms) == len(mu.jacobi_terms)
                for row, col, _ in q.terms:
                    assert row.shape == (q.n_rows,) and col.shape == (q.n_cols,)
                for rows, cols, m, terms in q.tiles:
                    assert len(terms) == len(mu.jacobi_terms)
                    for (_, d, *_), (row, _, _) in zip(terms, q.terms):
                        assert type(d) is float and d == row[rows].max(), (mu, tiled, q.n_rows, rows)


def test_numpy_and_scipy_transforms_give_the_same_plans_and_images(monkeypatch):
    # numpy.fft and scipy.fft run the same pocketfft; the plans' spectra and
    # every image are the same bits with either, one-tile and tiled.
    rng = np.random.default_rng(16)
    measures = [LEBESGUE, Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), MIXED_CORPUS[5]]
    for size in (300, 2**12, 2**16):
        values = SequenceVector(rng.uniform(0.0, 1.0, size))
        for mu in measures:
            for tiled in (False, True):
                results = []
                for fft in (np.fft, scipy.fft):
                    monkeypatch.setattr(operator, "rfft", fft.rfft)
                    monkeypatch.setattr(operator, "irfft", fft.irfft)
                    plan = operator._build_plan(mu, size, size, tiled)[0]
                    image, bound = plan.apply(values, 2.0)
                    results.append((_plan_bytes(plan), image.values.tobytes(), bound))
                assert results[0] == results[1], (mu, size, tiled)


def test_the_pick_reads_the_bound_each_tiling_states_at_the_probe(monkeypatch):
    # A plan's build weighs both tilings from their norms; each plan's apply
    # of the probe, the normalized all-ones vector at p = 2, states the same
    # bounds up to the rounding of forming b.
    probed = []
    stated_bound = operator._stated_bound
    monkeypatch.setattr(operator, "_stated_bound", lambda *args: probed.append(stated_bound(*args)) or probed[-1])
    for mu in (m for m in MIXED_CORPUS if not m.interior_atoms and m.jacobi_terms):
        for n_rows, n_cols in ((256, 256), (300, 170), (2048, 2048)):
            probed.clear()
            picked = len(operator._build_plan(mu, n_rows, n_cols)[0].tiles) > 1
            bounds = list(probed)
            probe = SequenceVector(np.full(n_cols, 1.0 / math.sqrt(n_cols)))
            plans = [operator._build_plan(mu, n_rows, n_cols, tiled)[0] for tiled in (False, True)]
            stated = [plan.apply(probe, 2.0)[1] for plan in plans]
            np.testing.assert_allclose(bounds, stated, rtol=1e-14, err_msg=str((mu, n_rows, n_cols)))
            assert picked == (stated[0] > operator._ONE_TILE_BOUND_RATIO * stated[1]), (mu, n_rows, n_cols)


def test_fft_apply_rejects_interior_atoms(delta_half):
    with pytest.raises(ValueError, match="endpoint atoms"):
        fft_plan(delta_half, 4, 4).apply(SequenceVector(np.ones(4)), 2.0)


def _count_norms(monkeypatch):
    calls, norms_1_2 = [0], operator._norms_1_2

    def counted(x):
        calls[0] += 1
        return norms_1_2(x)

    monkeypatch.setattr(operator, "_norms_1_2", counted)
    return calls


def _assert_image_is_applys(plan, values, norms_taken=None):
    """``plan.image(values)`` has the bits of ``plan.apply``'s image at every p; with a counter, it took no norm."""
    before = norms_taken and norms_taken[0]
    image = plan.image(values)
    if norms_taken is not None:
        assert norms_taken[0] == before, "the image took b's norms"
    for p in (1.0, 2.0, 3.0):
        assert image.tobytes() == plan.apply(SequenceVector(values), p)[0].values.tobytes(), p


def test_image_is_applys_image_bit_for_bit(monkeypatch):
    # One tile, tiled and picked plans and their transposes; one and two
    # terms, atoms at 0 and 1; signed and nonnegative input; 2**k mu shares
    # mu's plan with scale k.  The plan alone settles the transforms' shift
    # guard here, so the image takes no norm.
    rng = np.random.default_rng(2801)
    norms_taken = _count_norms(monkeypatch)
    measures = (LEBESGUE, MIXED_CORPUS[1], MIX2, TWO_TERMS, MIXED_CORPUS[5], MIXED_CORPUS[6], MIXED_CORPUS[7])
    for mu in measures:
        for k in (0, 600, -600):
            scaled = _scaled(mu, 2.0**k)
            for n_rows, n_cols in ((7, 5), (300, 170), (1024, 1024)):
                plans = [fft_plan(scaled, n_rows, n_cols)]
                plans += [operator._build_plan(scaled, n_rows, n_cols, tiled)[0] for tiled in (False, True)]
                for plan in plans:
                    for q in (plan, plan.transposed()):
                        for low in (0.0, -1.0):
                            _assert_image_is_applys(q, rng.uniform(low, 1.0, q.n_cols), norms_taken)
    empty = fft_plan(MIXED_CORPUS[7], 5, 0)
    _assert_image_is_applys(empty, np.zeros(0))
    assert empty.image(np.zeros(0)).tobytes() == np.zeros(5).tobytes()
    with pytest.raises(ValueError, match="^input length 4 does not match the plan's 5 columns$"):
        fft_plan(LEBESGUE, 3, 5).image(np.ones(4))


@pytest.mark.parametrize("mu", [LEBESGUE, Measure(LEBESGUE.jacobi_terms, (Atom(0.0, 1.0),))], ids=["dt", "dt+delta_0"])
def test_the_transposed_plan_of_a_zero_column_block_gives_the_empty_image(mu):
    # No row and no tile: the atom at 0 becomes one at 1, whose row 0 is not there.
    plan = fft_plan(mu, 5, 0).transposed()
    assert (plan.n_rows, plan.n_cols, plan.tiles) == (0, 5, ())
    assert plan.image(np.ones(5)).tobytes() == b""
    for p in (1.0, 2.0, 3.0):
        image, bound = plan.apply(SequenceVector(np.ones(5)), p)
        assert image.values.tobytes() == b"" and bound == 0.0


@pytest.mark.parametrize("coeff", [1e300, 1e306])
def test_image_is_applys_image_where_the_shift_guard_fires(coeff, monkeypatch):
    # The transposed two-term plan of test_fft_image_near_the_float64_limit:
    # its b carries the coefficient, and the transforms run on b / 2**e.
    mu = Measure((JacobiTerm(1.0, 0.0, 0.0), JacobiTerm(coeff, 0.5, 0.0)), ())
    plan = fft_plan(mu, 4096, 4096).transposed()
    shifted, ldexp = [], np.ldexp

    def recorded_ldexp(x, e, *args, **kwargs):
        shifted.append(e)
        return ldexp(x, e, *args, **kwargs)

    norms_taken = _count_norms(monkeypatch)
    monkeypatch.setattr(operator.np, "ldexp", recorded_ldexp)
    for values in (np.ones(4096), np.random.default_rng(5).uniform(-1.0, 1.0, 4096)):
        shifted.clear()
        before = norms_taken[0]
        image = plan.image(values)
        # The second term's b needs its norm, and is shifted down and back up.
        assert norms_taken[0] == before + 1 and max(shifted) > 900 and min(shifted) < -900
        assert np.isfinite(image).all()
        _assert_image_is_applys(plan, values)


def _per_tile_term_image(plan, values):
    """``plan``'s image of ``values`` from one transform pair per tile-term, with no shift guard.

    Each tile-term runs alone, and the rows add in the plan's tile and term
    order, the atoms last.
    """
    e_a = math.frexp(np.abs(values).max())[1]
    out = np.zeros(plan.n_rows)
    for rows, cols, m, terms in plan.tiles:
        n, k = rows.stop - rows.start, cols.stop - cols.start
        for (segment, *_), (row, col, _) in zip(terms, plan.terms):
            b = np.ldexp(values[cols], -e_a) * col[cols]
            if m:
                c = row[rows] * np.fft.irfft(segment * np.fft.rfft(b[::-1], m), m)[k - 1 : k - 1 + n]
            else:
                c = row[rows] * (segment @ b)
            out[rows] += c
    a = np.ldexp(values, -e_a)
    out += plan.c0 * a[0]
    out[0] += plan.c1 * a.sum()
    if values.min() >= 0.0:
        np.maximum(out, 0.0, out=out)
    return np.ldexp(out, plan.scale + e_a)


def test_image_equals_single_transforms_bit_for_bit():
    # Tiled plans with several tile-terms per transform length, one-tile
    # plans with two terms, and endpoint atoms: each tile-term transforms
    # alone, so the image has the bits of _per_tile_term_image, forward and
    # transposed, on nonnegative and signed input.
    rng = np.random.default_rng(2802)
    cases = ((TWO_TERMS, 300), (MIXED_CORPUS[1], 2048), (MIX2, 1024), (MIXED_CORPUS[7], 700), (TWO_TERMS, 1 << 14))
    for mu, size in cases:
        plan = fft_plan(mu, size, size)
        for q in (plan, plan.transposed()):
            for low in (0.0, -1.0):
                values = rng.uniform(low, 1.0, size)
                want = _per_tile_term_image(q, values)
                assert q.image(values).tobytes() == want.tobytes(), (mu, size, q is plan, low)


@pytest.mark.parametrize(
    "mu,size",
    [(TWO_TERMS, 300), (MIXED_CORPUS[1], 2048), (MIX2, 1024), (LEBESGUE, 1 << 17), (TWO_TERMS, 1 << 16)],
    ids=["two-terms@300", "t(1-t)dt@2048", "mix2@1024", "lebesgue@2^17", "two-terms@2^16"],
)
def test_each_spectrum_is_held_once(mu, size, monkeypatch):
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    plan = fft_plan(mu, size, size)
    # Each FFT tile-term's spectrum is a read-only 1-D array of its own, of length m // 2 + 1.
    spectra = [(m, segment) for _, _, m, terms in plan.tiles if m for segment, *_ in terms]
    for m, segment in spectra:
        assert segment.shape == (m // 2 + 1,) and segment.dtype == np.complex128, m
        assert segment.base is None and not segment.flags.writeable
    assert len({id(segment) for _, segment in spectra}) == len(spectra) > 0
    # The memo counts each byte once.
    (held,) = [nbytes for _, nbytes, _ in operator._plan_memo.values()]
    assert held == _held_bytes(plan)
    # The transpose shares them.
    assert all(
        s is t
        for (*_, m, terms), (*_, t_terms) in zip(plan.tiles, plan.transposed().tiles)
        if m
        for (s, *_), (t, *_) in zip(terms, t_terms)
    )


@pytest.mark.parametrize(
    "mu,size",
    [
        (LEBESGUE, 64), (LEBESGUE, 4096), (TWO_TERMS, 300), (MIXED_CORPUS[1], 2048), (MIXED_CORPUS[1], 4096),
        (MIXED_CORPUS[7], 700),
    ],
    ids=["lebesgue@64", "lebesgue@4096", "two-terms@300", "t(1-t)dt@2048", "t(1-t)dt@4096", "t(1-t)dt+atoms@700"],
)
def test_pickled_and_copied_plans_keep_their_segments_and_images(mu, size, monkeypatch):
    # One-tile and tiled plans: a pickled (protocol 4 or 5) or deep-copied
    # plan holds each factor and each segment once, as the plan does
    # (t(1-t)dt's tiled plan at 4096: 0.387 MB of distinct arrays), and its
    # images, bounds and transposed images keep their bits.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    rng = np.random.default_rng(2804)
    plan = fft_plan(mu, size, size)
    (held,) = [nbytes for _, nbytes, _ in operator._plan_memo.values()]
    assert _held_bytes(plan) == held
    values = [rng.uniform(0.0, 1.0, size), rng.uniform(-1.0, 1.0, size)]
    twins = [pickle.loads(pickle.dumps(plan, protocol)) for protocol in (4, 5)]
    for twin in twins + [copy.deepcopy(plan)]:
        assert _plan_bytes(twin) == _plan_bytes(plan) and _held_bytes(twin) == held
        shapes = [[s.shape for *_, terms in q.tiles for s, *_ in terms] for q in (twin, plan)]
        assert shapes[0] == shapes[1]
        for q, t in ((plan, twin), (plan.transposed(), twin.transposed())):
            for v in values:
                assert t.image(v).tobytes() == q.image(v).tobytes()
                for p in (1.0, 2.0):
                    (y, bound), (want, want_bound) = t.apply(SequenceVector(v), p), q.apply(SequenceVector(v), p)
                    assert (y.values.tobytes(), bound) == (want.values.tobytes(), want_bound)


@pytest.mark.parametrize("size", [64, 4096])
@pytest.mark.parametrize("mu", [LEBESGUE, Measure((JacobiTerm(3.0, 0.0, 0.0),), ())], ids=["lebesgue", "3dt"])
def test_pickled_and_copied_plans_keep_their_constant_factors_at_zero_stride(mu, size):
    # numpy pickles a zero-stride array as a full one: Lebesgue's plan at
    # 64 held 1024 bytes more after a round trip, and 16 MiB at 2^20.
    rng = np.random.default_rng(2904)
    plan = fft_plan(mu, size, size)
    values = [rng.uniform(0.0, 1.0, size), rng.uniform(-1.0, 1.0, size)]
    factors = [x for row, col, _ in plan.terms for x in (row, col)]
    assert all(not x.strides[0] for x in factors)
    twins = [pickle.loads(pickle.dumps(plan, protocol)) for protocol in (4, 5)] + [copy.deepcopy(plan)]
    for twin in twins:
        assert _held_bytes(twin) == _held_bytes(plan)
        twin_factors = [x for row, col, _ in twin.terms for x in (row, col)]
        assert [(x.shape, x.strides, x.flags.writeable, x[0]) for x in twin_factors] == [
            (x.shape, x.strides, x.flags.writeable, x[0]) for x in factors
        ]
        for q, t in ((plan, twin), (plan.transposed(), twin.transposed())):
            for v in values:
                assert t.image(v).tobytes() == q.image(v).tobytes()
                for p in (1.0, 2.0):
                    (y, bound), (want, want_bound) = t.apply(SequenceVector(v), p), q.apply(SequenceVector(v), p)
                    assert (y.values.tobytes(), bound) == (want.values.tobytes(), want_bound)


@pytest.mark.slow
def test_fft_images_equal_applys_and_single_transforms_bit_for_bit_up_to_65536():
    # Tiled plans with several tile-terms per transform length from m = 512
    # up, forward and transposed: the image has the bits of apply's and of
    # _per_tile_term_image's, and so lies within apply's stated bound of it.
    rng = np.random.default_rng(2804)
    for mu in (MIXED_CORPUS[1], TWO_TERMS):
        for size in (4096, 16384, 65536):
            plan = fft_plan(mu, size, size)
            for q in (plan, plan.transposed()):
                for low in (0.0, -1.0):
                    values = rng.uniform(low, 1.0, size)
                    image = q.image(values)
                    want = _per_tile_term_image(q, values)
                    assert image.tobytes() == want.tobytes(), (mu, size, q is plan, low)
                    for p in (1.0, 2.0, 3.0):
                        y, bound = q.apply(SequenceVector(values), p)
                        assert image.tobytes() == y.values.tobytes(), (mu, size, q is plan, low, p)
                        assert lp_norm(image - want, p) <= bound, (mu, size, q is plan, low, p)


@pytest.mark.slow
def test_pickled_tiled_plan_at_65536_holds_as_many_bytes_and_keeps_its_images_and_bounds():
    # Each factor and each spectrum travels once: 5.30 MB before and after the round trip.
    size = 1 << 16
    plan = fft_plan(MIXED_CORPUS[1], size, size)
    twin = pickle.loads(pickle.dumps(plan, 5))
    assert len(plan.tiles) > 1 and _held_bytes(twin) == _held_bytes(plan)
    rng = np.random.default_rng(3001)
    for q, t in ((plan, twin), (plan.transposed(), twin.transposed())):
        for low in (0.0, -1.0):
            values = rng.uniform(low, 1.0, size)
            assert t.image(values).tobytes() == q.image(values).tobytes(), (q is plan, low)
            for p in (1.0, 2.0, 3.0):
                (y, bound), (want, want_bound) = (r.apply(SequenceVector(values), p) for r in (t, q))
                assert (y.values.tobytes(), bound) == (want.values.tobytes(), want_bound), (q is plan, low, p)


@pytest.mark.slow
def test_quadrature_apply_agrees_with_the_truncated_apply_to_1e_7_on_mix_atom_at_1024():
    # N = K = 1024 on the measure with an interior atom: both dense kernels
    # (the section build's row blocks and _row_sums) against the reference route.
    for p in (1.0, 1.5, 3.0):
        a = extremal_sequence(ExtremalParams(p, 0.1, 1024))
        quadrature = apply_via_quadrature(MIX_ATOM, a, 1024).values
        truncated = apply_truncated(MIX_ATOM, a, 1024).values
        rel = np.abs(quadrature - truncated) / np.abs(truncated)
        assert rel.max() <= 1e-7, (p, rel.max(), int(rel.argmax()))


# ------------------------------------------------------------- propagation


def test_positivity_preserved_by_all_routes(delta_half):
    rng = np.random.default_rng(8)
    a = SequenceVector(rng.random(20))
    for out in (
        apply_truncated(LEBESGUE, a, 10),
        apply_via_quadrature(delta_half, a, 10),
        hankel_fast_apply(a, 10),
    ):
        assert out.nonneg
        assert out.values.min() >= 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_applies_are_linear_in_the_measure(seed):
    rng = np.random.default_rng(seed)
    mu, nu = random_interior_measure(rng), random_interior_measure(rng)
    locations = [atom.location for atom in mu.atoms + nu.atoms]
    assume(len(set(locations)) == len(locations))
    both = Measure(mu.jacobi_terms + nu.jacobi_terms, mu.atoms + nu.atoms)
    np.testing.assert_allclose(
        finite_section(both, 24).entries,
        finite_section(mu, 24).entries + finite_section(nu, 24).entries,
        rtol=2e-15, atol=0,
    )
    a = SequenceVector(rng.random(int(rng.integers(1, 40))))
    n_rows = int(rng.integers(1, 30))
    np.testing.assert_allclose(
        apply_truncated(both, a, n_rows).values,
        apply_truncated(mu, a, n_rows).values + apply_truncated(nu, a, n_rows).values,
        rtol=2e-15, atol=0,
    )
    np.testing.assert_allclose(
        apply_via_quadrature(both, a, n_rows).values,
        apply_via_quadrature(mu, a, n_rows).values + apply_via_quadrature(nu, a, n_rows).values,
        rtol=1e-11, atol=0,
    )
    # Each FFT image is within its stated bound of the exact one, and the
    # exact images add up, so the difference is within the sum of the bounds.
    ffts = [
        fft_plan(Measure(m.jacobi_terms, ()), n_rows, len(a)).apply(a, 2.0)
        for m in (both, mu, nu)
    ]
    (both_image, _), (mu_image, _), (nu_image, _) = ffts
    gap = lp_norm(both_image.values - mu_image.values - nu_image.values, 2.0)
    assert gap <= sum(bound for _, bound in ffts)


def test_image_norm_bounded_by_sharp_integral():
    # Minkowski-type contraction: ||C a||_p <= N_p ||a||_p for nonneg input
    rng = np.random.default_rng(77)
    corpus = [
        (LEBESGUE, 2.0),
        (LEBESGUE, 3.0),
        (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), 1.0),
        (Measure((JacobiTerm(1.0, 1.0, 0.0),), (Atom(0.5, 1.0),)), 2.0),
    ]
    for mu, p in corpus:
        cap = norm_integral(mu, p)
        assert math.isfinite(cap)
        for _ in range(5):
            a = SequenceVector(rng.random(int(rng.integers(1, 50))))
            image = apply_truncated(mu, a, 200)
            assert lp_norm(image.values, p) <= cap * lp_norm(a.values, p) + 1e-9


# ----------------------------------------------------------------- sequence IO


def test_sequence_csv_round_trip_with_header():
    seq = SequenceVector(np.array([1.0, 0.1 + 0.2, -3.5e-17]))
    text = sequence_to_csv(seq, p=2.0)
    again, p = sequence_from_csv(text)
    assert p == 2.0
    np.testing.assert_array_equal(again.values, seq.values)


def test_sequence_csv_inf_header_and_blank_lines():
    again, p = sequence_from_csv("# p=inf\n\n1.0\n\n2.0\n")
    assert p == math.inf
    np.testing.assert_array_equal(again.values, [1.0, 2.0])


def test_sequence_csv_no_header():
    text = sequence_to_csv(SequenceVector(np.array([4.0])))
    assert text == "4\n"
    again, p = sequence_from_csv(text)
    assert p is None
    np.testing.assert_array_equal(again.values, [4.0])


def test_sequence_csv_inf_header_round_trips():
    seq = SequenceVector(np.array([1.0, 2.0]))
    text = sequence_to_csv(seq, p=math.inf)
    assert text.startswith("# p=inf\n")
    again, p = sequence_from_csv(text)
    assert p == math.inf
    np.testing.assert_array_equal(again.values, seq.values)


@pytest.mark.parametrize("header", ["# p=0.5", "# p=nan", "# p=-3"])
def test_sequence_csv_rejects_an_invalid_p_header(header):
    with pytest.raises(ValueError, match="^line 1: p must be a real >= 1 or inf"):
        sequence_from_csv(header + "\n1.0\n")


def test_sequence_csv_rejects_garbage():
    for text in ("1.0\nbogus\n", "1.0\nnan\n", "1.0\ninf\n", "-inf\n"):
        with pytest.raises(ValueError, match="line"):
            sequence_from_csv(text)
