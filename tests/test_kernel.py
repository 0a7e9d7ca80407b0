"""Matrix entries, finite sections, additivity over endpoint atoms."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import poch

from genhilbert import kernel, operator
from genhilbert import (
    Atom,
    JacobiTerm,
    LEBESGUE,
    Measure,
    ResourceLimitError,
    entry,
    entry_block,
    finite_section,
    reflected,
    section_from_csv,
    section_from_json,
    section_to_csv,
    section_to_json,
)
from conftest import MIX2, MIX_ATOM, MIXED_CORPUS

# ------------------------------------------------------------------- entries


@pytest.mark.parametrize("n,k", [(0, 0), (0, 1), (1, 2), (7, 5), (63, 63), (400, 100)])
def test_classical_entries(n, k):
    assert entry(LEBESGUE, n, k) == pytest.approx(1.0 / (n + k + 1), rel=1e-15)


def test_first_rows_of_classical_matrix():
    section = finite_section(LEBESGUE, 3).entries
    expected = np.array([[1, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]])
    np.testing.assert_allclose(section, expected, rtol=1e-15)


def test_atom_at_zero_gives_first_column(lebesgue):
    mu = Measure((), (Atom(0.0, 2.5),))
    for n in range(5):
        assert entry(mu, n, 0) == 2.5
        assert entry(mu, n, 3) == 0.0


def test_atom_at_one_gives_first_row():
    mu = Measure((), (Atom(1.0, 1.5),))
    section = finite_section(mu, 3).entries
    np.testing.assert_array_equal(section[0], [1.5, 1.5, 1.5])
    np.testing.assert_array_equal(section[1:], 0.0)


@pytest.mark.parametrize("n,k", [(0, 0), (1, 1), (3, 2), (10, 4), (40, 40)])
def test_interior_atom_entry_formula(delta_half, n, k):
    # direct formula with exact integer binomial
    ref = math.comb(n + k, k) * 0.5 ** (n + k)
    assert entry(delta_half, n, k) == pytest.approx(ref, rel=1e-12)


def test_zero_measure_section(zero_measure):
    np.testing.assert_array_equal(finite_section(zero_measure, 2).entries, 0.0)


def test_entries_nonnegative_everywhere():
    rows = np.arange(24.0)[:, None]
    cols = np.arange(24.0)[None, :]
    for mu in MIXED_CORPUS:
        assert entry_block(mu, rows, cols).min() >= 0.0


def test_entry_block_matches_scalar_entry():
    mu = Measure((JacobiTerm(0.7, -0.5, 0.25),), (Atom(0.5, 1.0),))
    block = entry_block(mu, np.arange(6.0)[:, None], np.arange(6.0)[None, :])
    for n in range(6):
        for k in range(6):
            assert block[n, k] == entry(mu, n, k)


@settings(max_examples=20, deadline=None)
@given(
    n0=st.integers(0, 5000),
    k0=st.integers(0, 5000),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
)
def test_offset_grid_block_is_bit_identical_to_entries(n0, k0, rows, cols):
    # A column of consecutive rows by a row of consecutive columns reads the
    # diagonal factors through a strided view; a scalar entry gathers them.
    n = np.arange(n0, n0 + rows)[:, None]
    k = np.arange(k0, k0 + cols)[None, :]
    for mu in MIXED_CORPUS:
        block = entry_block(mu, n, k)
        assert block.shape == (rows, cols)
        for i in range(rows):
            for j in range(cols):
                assert block[i, j] == entry(mu, n0 + i, k0 + j), (mu, n0 + i, k0 + j)


def test_section_is_bit_identical_to_entries():
    # the same array code path serves both, so equality is exact
    for mu in MIXED_CORPUS[:5]:
        section = finite_section(mu, 9).entries
        for n, k in [(0, 0), (3, 7), (8, 1), (5, 5)]:
            assert section[n, k] == entry(mu, n, k)


DENSE_ROUTE = [MIX_ATOM, MIX2, Measure((JacobiTerm(1.0, 1.0, 1.0),), ())]
DENSE_IDS = ["mix-atom", "mix2", "t(1-t)dt"]


def _gathered(mu, n, k):
    """``entry_block`` of every (n_i, k_j) through the gather path: one flat index pair per entry."""
    return entry_block(mu, np.repeat(n, len(k)), np.tile(k, len(n))).reshape(len(n), len(k))


@pytest.mark.parametrize("mu", DENSE_ROUTE, ids=DENSE_IDS)
@pytest.mark.parametrize("size", [1, 7, 255, 513, 1024])
def test_a_sections_row_blocks_have_the_gather_paths_bits(mu, size):
    # A section fills row blocks of at most _APPLY_BLOCK_ELEMENTS entries
    # (256 rows at 1024, so 513 ends on a block of one row), the first
    # component in place; flat indices gather every entry in one block.
    section = finite_section(mu, size).entries
    n = np.arange(size)
    assert section.tobytes() == _gathered(mu, n, n).tobytes()
    for i, j in {(0, 0), (size - 1, 0), (0, size - 1), (size - 1, size - 1), (size // 2, size // 3)}:
        assert section[i, j] == entry(mu, i, j)


@pytest.mark.parametrize("mu", DENSE_ROUTE, ids=DENSE_IDS)
def test_grids_from_a_later_row_and_wider_than_a_block_have_the_gather_paths_bits(mu, monkeypatch):
    # Entries per block, and grids of (first row, first column, rows, columns).
    elements = kernel._APPLY_BLOCK_ELEMENTS
    cases = [
        (elements, [(1, 0, 7, 5), (300, 17, 600, 513), (1500, 3, 2, elements + 3)]),
        # Rows wider than a block, one block each; then blocks of 3, 3 and 1 rows.
        (100, [(5, 2, 9, 257)]),
        (3 * 40 + 1, [(1, 9, 7, 40)]),
    ]
    for elements, grids in cases:
        monkeypatch.setattr(kernel, "_APPLY_BLOCK_ELEMENTS", elements)
        for n0, k0, rows, cols in grids:
            n, k = np.arange(n0, n0 + rows), np.arange(k0, k0 + cols)
            got = entry_block(mu, n[:, None], k[None, :])
            assert got.tobytes() == _gathered(mu, n, k).tobytes(), (elements, n0, k0, rows, cols)


def test_a_section_build_holds_one_block_beside_the_section():
    # The section is the one array of its size: the first component is
    # written into it, and each later one goes through one block of
    # _APPLY_BLOCK_ELEMENTS entries (2 MiB).
    finite_section(MIX_ATOM, 1024)  # the factor tables, held per process, are built outside the trace
    tracemalloc.start()
    try:
        section = finite_section(MIX_ATOM, 1024).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= section.nbytes + 3 * 8 * kernel._APPLY_BLOCK_ELEMENTS


@pytest.mark.parametrize(
    "term",
    [JacobiTerm(3.0, 0.0, 0.0), JacobiTerm(1.0, 1.0, 0.0), JacobiTerm(1.0, 0.0, 0.5), JacobiTerm(2.0, 0.5, -0.5)],
    ids=["c*dt", "t dt", "(1-t)^0.5 dt", "t^0.5 (1-t)^-0.5 dt"],
)
def test_factors_of_exponent_zero_are_constants_with_the_products_bits(term):
    # poch(x, 0) is exactly 1.0, so a constant coeff or 1.0 has the bits of
    # coeff * poch(n+1, 0), and holds no array of ones.  Every other
    # integer-exponent factor has poch's bits too, the product's (the
    # Hankel exponent alpha + beta + 1 = 1 of the last term).  Non-integer
    # exponents are held to mpmath instead (test_oracle.py).
    n, k = np.arange(300), np.arange(170)
    d = np.arange(469.0)
    row, col, hankel = kernel.jacobi_factors(term, n, k, d)
    want = (
        term.coeff * poch(n + 1.0, term.beta),
        poch(k + 1.0, term.alpha),
        1.0 / poch(d + 1.0, term.alpha + term.beta + 1.0),
    )
    exponents = (term.beta, term.alpha, term.alpha + term.beta + 1.0)
    for got, ref, exponent, factor in zip((row, col, hankel), want, exponents, ("row", "col", "hankel")):
        assert got.shape == ref.shape
        assert (got.strides == (0,)) == (exponent == 0.0 and factor != "hankel")
        if exponent.is_integer():
            assert got.tobytes() == ref.tobytes(), factor
    mu = Measure((term,), ())
    section = finite_section(mu, 9).entries
    for n in range(9):
        for k in range(9):
            assert section[n, k] == entry(mu, n, k)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 21, 181])
def test_integer_exponent_product_has_the_bits_of_poch(m):
    # The product runs poch's own recurrence for an integer exponent, in its
    # order, so every value (an overflow's inf included) is the same double.
    for x in (np.arange(5000.0), 2.0**21 + np.arange(-2500.0, 2500.0), 1e7 + np.arange(-2500.0, 2500.0)):
        got = kernel._rising(x, float(m))
        want = poch(x + 1.0, float(m))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, x[0])
    assert kernel._rising(np.asarray(7), float(m)) == poch(8.0, float(m))


@pytest.mark.parametrize("alpha,beta", [(60.0, 0.0), (0.0, 60.0), (100.0, 80.0)])
def test_an_overflowing_product_raises_the_range_error_without_a_warning(alpha, beta):
    # pytest turns RuntimeWarning into an error here, and so does this block.
    term = JacobiTerm(1.0, alpha, beta)
    n = np.arange(200_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as error:
            entry_block(Measure((term,), ()), n, n)
    assert str(error.value) == f"{term} leaves the float64 range of the factored kernel at n+k <= 399998"


def test_symmetric_measure_gives_symmetric_entries():
    symmetric = Measure((JacobiTerm(1.0, 0.75, 0.75),), (Atom(0.5, 0.3),))
    section = finite_section(symmetric, 12).entries
    np.testing.assert_allclose(section, section.T, rtol=1e-12)


def test_endpoint_atoms_add_their_mass_to_column_or_row_zero():
    base = Measure((JacobiTerm(1.0, 0.5, -0.25),), ())
    mu = Measure(base.jacobi_terms, (Atom(0.0, 2.0), Atom(1.0, 3.0)))
    expected = finite_section(base, 6).entries
    expected[:, 0] += 2.0
    expected[0, :] += 3.0
    np.testing.assert_array_equal(finite_section(mu, 6).entries, expected)


def test_interior_atom_entries_beyond_their_log_space_bound_raise():
    # Unchecked, the log-space sum cancels: (n, n) came out 0.5% off at
    # n = 1e12, and 1.0 at n = 2**63 - 1, where the entry is ~1.86e-10.
    delta_half = Measure((), (Atom(0.5, 1.0),))
    for n in (10**12, 2**63 - 1):
        with pytest.raises(ValueError, match="log space"):
            entry(delta_half, n, n)
    with pytest.raises(ValueError, match="log space"):
        entry_block(delta_half, [0, 10**12], 0)
    # Density terms and endpoint atoms have no log-space sum.
    mu = Measure(LEBESGUE.jacobi_terms, (Atom(0.0, 1.0),))
    assert entry(mu, 10**12, 10**12) == pytest.approx(1.0 / (2e12 + 1.0), rel=1e-12)


def test_biased_coin_bound_for_interior_atoms():
    # entries of a point mass are mass * binomial pmf value, hence <= mass
    for s, mass in [(0.2, 1.0), (0.5, 2.0), (0.9, 0.7)]:
        mu = Measure((), (Atom(s, mass),))
        block = entry_block(mu, np.arange(50.0)[:, None], np.arange(50.0)[None, :])
        assert block.max() <= mass + 1e-15


def test_row_sums_of_point_mass_increase_to_geometric_limit():
    # sum_k binom(n+k,k) s^k (1-s)^n -> 1/(1-s), monotonically from below
    for s in (0.1, 0.5, 0.9):
        mu = Measure((), (Atom(s, 1.0),))
        limit = 1.0 / (1.0 - s)
        for n in (0, 1, 4):
            row = entry_block(mu, float(n), np.arange(4000.0))
            partial = np.cumsum(row)
            assert np.all(np.diff(partial) >= 0.0)
            assert partial[-1] <= limit + 1e-12
            assert partial[-1] == pytest.approx(limit, rel=1e-8)


def test_transpose_is_reflection():
    # C(reflected mu) = C(mu)^T: t -> 1-t swaps the roles of n and k
    for mu in MIXED_CORPUS:
        for n in range(16):
            for k in range(16):
                assert entry(reflected(mu), n, k) == pytest.approx(entry(mu, k, n), rel=1e-14)


@pytest.mark.parametrize("n,k", [(-1, 0), (0.5, 1), (2, math.nan), (math.inf, 0)])
def test_entry_block_rejects_non_integer_indices(n, k):
    with pytest.raises(ValueError):
        entry_block(LEBESGUE, np.array([n, 1.0]), k)


@pytest.mark.parametrize("n", [10**20, [3, 10**20], -(10**20)])
def test_entry_block_rejects_indices_beyond_intp(n):
    with pytest.raises(ValueError, match="nonnegative integers"):
        entry_block(LEBESGUE, n, 0)


def test_entry_at_the_largest_indices_does_not_wrap():
    # n + k of two intp indices wrapped past 2**63 - 1 to -2: the entry read
    # inf and a range error named n+k <= -9223372036854775808.
    top = 2**63 - 1
    mu = Measure((JacobiTerm(1.0, 0.5, 0.25),), ())
    # (n+1)_0.25 (k+1)_0.5 / (n+k+1)_1.75 at n = k = 2**63 - 1, from mpmath at 30 digits.
    assert entry(mu, top, top) == pytest.approx(3.22335234405292323e-20, rel=1e-12, abs=0)
    np.testing.assert_array_equal(entry_block(mu, [top, 3], [top, 4]), [entry(mu, top, top), entry(mu, 3, 4)])
    steep = Measure((JacobiTerm(1.0, 10.0, 10.0),), ())
    with pytest.raises(ValueError, match=r"at n\+k <= 18446744073709551614$"):
        entry(steep, top, top)


def test_no_special_function_call_per_entry(monkeypatch):
    """Factors are evaluated per row, column and diagonal, never per entry.

    ``kernel._rising`` counts every Pochhammer factor, an integer
    exponent's exact product included, and ``kernel._log_gamma`` every
    interior atom's log-gamma vector.  Below ``kernel._TABLE`` both read
    tables from the one table cache (``kernel._table``) that the Stirling
    forms (``kernel._stirling_rising``, ``kernel._stirling_log_gamma``)
    fill once per exponent; those calls are counted on their own.
    """
    kernel._table.cache_clear()
    sizes, products, stirling = [], [], []
    for name in ("_rising", "_log_gamma", "_stirling_rising", "_stirling_log_gamma"):
        original = getattr(kernel, name)

        def counted(x, *args, _original=original, _name=name):
            if _name.startswith("_stirling"):
                stirling.append((_name, np.size(x)))
            else:
                sizes.append(np.size(x))
            if _name == "_rising" and args[0] > 0 and float(args[0]).is_integer():
                products.append(np.size(x))
            return _original(x, *args)

        monkeypatch.setattr(kernel, name, counted)
    monkeypatch.setattr(kernel, "_APPLY_BLOCK_ELEMENTS", 5000)
    a = operator.SequenceVector(np.ones(300))
    for mu in MIXED_CORPUS:
        finite_section(mu, 64)
    assert sizes and max(sizes) <= 64 + 64
    assert products  # the corpus's integer exponents take the product path
    # Its non-integer exponents -0.5, 0.25 and 0.75 and its interior atoms fill one table each.
    table = kernel._TABLE
    assert sorted(stirling) == [("_stirling_log_gamma", table)] + [("_stirling_rising", table)] * 3
    stirling.clear()
    for mu in MIXED_CORPUS:
        _assert_factors_once(mu, a, 100, sizes)  # 7 blocks of at most 16 rows by 300 columns
    # Indices that are not a grid of consecutive rows and columns gather
    # one value per distinct diagonal.
    n = np.arange(0, 30, 3)[:, None]
    k = np.arange(0, 60, 3)[None, :]  # 200 entries on 29 diagonals
    for mu in MIXED_CORPUS:
        sizes.clear()
        block = entry_block(mu, n, k)
        assert max(sizes, default=0) <= 29
        for i, j in [(0, 0), (2, 7), (9, 19)]:
            assert block[i, j] == entry(mu, int(n[i, 0]), int(k[0, j]))
    assert stirling == []  # the tables serve every later index below kernel._TABLE
    # Rows of 2^17 columns: one row per block here, two at the default height.
    for mu in MIXED_CORPUS:
        _assert_factors_once(mu, operator.SequenceVector(np.ones(1 << 17)), 6, sizes)


def _assert_factors_once(mu, a, n_rows, sizes):
    """One row, one column and one diagonal vector per component for a whole ``apply_truncated``, not per block."""
    sizes.clear()
    operator.apply_truncated(mu, a, n_rows)
    K = len(a)
    assert sum(sizes) <= (len(mu.jacobi_terms) + len(mu.atoms)) * (n_rows + K + n_rows + K - 1), mu
    assert bool(sizes) == bool(mu.jacobi_terms or mu.interior_atoms), mu


def test_entries_across_the_table_edge_keep_their_bits():
    # A vector with an index from kernel._TABLE on takes the Stirling forms
    # whole, one below it reads their tables: a block across the edge still
    # equals its entries, and the tables the forms, bit for bit.
    mu = Measure((JacobiTerm(0.5, -0.5, 0.25),), (Atom(0.3, 0.4),))
    edge = kernel._TABLE
    n = np.arange(edge - 16, edge + 8)[:, None]
    k = np.arange(24)[None, :]
    entries = np.array([[entry(mu, int(i), int(j)) for j in k[0]] for i in n[:, 0]])
    assert entry_block(mu, n, k).tobytes() == entries.tobytes()
    x = np.arange(edge - 24.0, edge)
    for exponent in (-0.5, 0.25, 0.75):
        assert kernel._rising(x, exponent).tobytes() == kernel._stirling_rising(x + 1.0, exponent).tobytes()
    assert kernel._log_gamma(x + 1.0).tobytes() == kernel._stirling_log_gamma(x + 1.0).tobytes()


def test_factor_overflow_is_an_error_not_a_nan():
    # (k+1)_60 overflows and 1/(k+1)_61 underflows near k = 1e5, although
    # the entries 1/(k+61) of row 0 are representable
    mu = Measure((JacobiTerm(1.0, 60.0, 0.0),), ())
    assert entry(mu, 0, 1000) == pytest.approx(1.0 / 1061.0, rel=1e-14)
    with pytest.raises(ValueError, match="float64 range"):
        entry_block(mu, 0, np.arange(200_000))


def test_a_sum_of_finite_components_beyond_float64_is_the_range_error():
    # Each component of entry (0, 0) is 2^1023, so each alone is finite but
    # their sum is not; half of each stays in range.
    mu = Measure((JacobiTerm(2.0**1023, 0.0, 0.0),), (Atom(0.5, 2.0**1023),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as error:
            entry(mu, 0, 0)
        assert entry(Measure((JacobiTerm(2.0**1022, 0.0, 0.0),), (Atom(0.5, 2.0**1022),)), 0, 0) == 2.0**1023
    assert str(error.value) == f"{mu} leaves the float64 range of the factored kernel at n+k <= 0"


def test_section_cap_enforced(monkeypatch):
    monkeypatch.setattr(kernel, "DEFAULT_SECTION_CAP", 64)
    with pytest.raises(ResourceLimitError):
        finite_section(LEBESGUE, 100)
    with pytest.raises(ValueError):
        finite_section(LEBESGUE, 0)


# ------------------------------------------------------------- endpoint atoms


def test_entry_reconstruction_from_decomposition():
    corpus = [
        Measure((JacobiTerm(1.0, 0.0, 0.0),), (Atom(0.0, 2.0), Atom(1.0, 3.0))),
        Measure((JacobiTerm(0.5, 1.0, -0.5),), (Atom(1.0, 1.0),)),
        Measure((), (Atom(0.0, 1.0), Atom(0.25, 1.0))),
    ]
    for mu in corpus:
        smooth = Measure(mu.jacobi_terms, tuple(a for a in mu.atoms if 0.0 < a.location < 1.0))
        endpoint_atoms = Measure((), tuple(a for a in mu.atoms if a.location in (0.0, 1.0)))
        for n in range(8):
            for k in range(8):
                recon = entry(smooth, n, k) + entry(endpoint_atoms, n, k)
                assert entry(mu, n, k) == pytest.approx(recon, abs=1e-12)
    # the endpoint part's corner carries both masses
    assert entry(Measure((), (Atom(0.0, 2.0), Atom(1.0, 3.0))), 0, 0) == 5.0


# ------------------------------------------------------------------ export


def test_section_csv_round_trip_is_bitwise():
    mu = Measure((JacobiTerm(1.0, -0.5, 1.5),), (Atom(0.5, 0.25),))
    section = finite_section(mu, 8)
    again = section_from_csv(section_to_csv(section))
    assert again.size == 8
    np.testing.assert_array_equal(again.entries, section.entries)


def test_section_json_round_trip_is_bitwise():
    section = finite_section(LEBESGUE, 5)
    again = section_from_json(section_to_json(section))
    np.testing.assert_array_equal(again.entries, section.entries)


def test_section_csv_rejects_ragged_input():
    with pytest.raises(ValueError, match="^section rows must all have the same number of cells$"):
        section_from_csv("1,2\n3\n")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_section_parsers_reject_non_finite_entries(cell):
    with pytest.raises(ValueError, match="^section entries must be finite$"):
        section_from_csv(f"1,2\n{cell},4\n")
    with pytest.raises(ValueError, match="^section entries must be finite$"):
        section_from_json(json.dumps({"size": 2, "entries": [1.0, 2.0, float(cell), 4.0]}))


@pytest.mark.parametrize("size", ["0", "1.5", "-1", "2.0"])
def test_section_json_rejects_a_size_that_is_not_an_integer_from_one(size):
    with pytest.raises(ValueError, match=f"^size must be an integer >= 1, got {size}$"):
        section_from_json(f'{{"size": {size}, "entries": [1.0, 2.0, 3.0, 4.0]}}')


def test_section_csv_rejects_a_non_square_table():
    with pytest.raises(ValueError, match="expected a square table, got shape"):
        section_from_csv("1,2\n3,4\n5,6\n")


def test_empty_index_arrays_give_empty_blocks(delta_half):
    for mu in (LEBESGUE, delta_half):
        assert entry_block(mu, np.arange(0), np.arange(0)).shape == (0,)
        block = entry_block(mu, np.zeros((0, 1), dtype=int), np.arange(3)[None, :])
        assert block.shape == (0, 3)
