"""Lower-bound certification: extremal sequences, sweeps, p=2 section norms."""

import json
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genhilbert import (
    Atom,
    CertificationReport,
    ConvergenceError,
    ExtremalParams,
    FiniteSection,
    JacobiTerm,
    LEBESGUE,
    Measure,
    ResourceLimitError,
    classify_boundedness,
    convergence_sweep,
    extremal_sequence,
    finite_section,
    lower_bound_ratio,
    p2_section_norm,
    reflected,
    report_to_csv,
    report_to_json,
)
from genhilbert import certify as certify_module
from genhilbert import kernel, operator
from genhilbert.certify import SOUNDNESS_SLACK
from genhilbert.norms import classical_constant
from conftest import MIX2, MIX_ATOM, MIXED_CORPUS, TWO_TERMS, random_interior_measure
from genhilbert.operator import (
    SequenceVector,
    apply_truncated,
    apply_via_quadrature,
    fft_plan,
    hankel_fast_apply,
    lp_norm,
)


# ------------------------------------------------------------ ExtremalParams


def test_params_reject_infinite_p():
    with pytest.raises(ValueError):
        ExtremalParams(math.inf, 0.1, 8)


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.51, 2.0])
def test_params_epsilon_must_sit_in_zero_to_one_over_p(eps):
    with pytest.raises(ValueError):
        ExtremalParams(2.0, eps, 8)


def test_params_length_positive():
    for length in (0, 2.5, 3.0):
        with pytest.raises(ValueError, match=f"^length must be an integer >= 1, got {length}$"):
            ExtremalParams(2.0, 0.25, length)


def test_params_weight_exponent():
    assert ExtremalParams(2.0, 0.5, 4).w == 1.0
    assert ExtremalParams(4.0, 0.05, 4).w == pytest.approx(0.3, rel=1e-15)


def test_extremal_sequence_p2_max_epsilon():
    seq = extremal_sequence(ExtremalParams(2.0, 0.5, 3))
    assert seq.nonneg
    np.testing.assert_array_equal(seq.values, [1.0, 0.5, 1.0 / 3.0])


def test_extremal_sequence_p1():
    seq = extremal_sequence(ExtremalParams(1.0, 0.25, 4))
    np.testing.assert_allclose(
        seq.values, [1.0, 2.0 ** -1.25, 3.0 ** -1.25, 4.0 ** -1.25], rtol=1e-15
    )


def test_extremal_sequence_singleton_is_one():
    np.testing.assert_array_equal(
        extremal_sequence(ExtremalParams(7.0, 0.05, 1)).values, [1.0]
    )


# ---------------------------------------------------------- lower_bound_ratio


def test_ratio_zero_measure(zero_measure):
    assert lower_bound_ratio(zero_measure, ExtremalParams(2.0, 0.5, 16), 64) == 0.0


def test_ratio_never_exceeds_the_norm_plus_slack():
    corpus = [
        (LEBESGUE, 2.0),
        (LEBESGUE, 3.0),
        (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), 1.5),
        (Measure((), (Atom(0.5, 2.0),)), 2.0),
    ]
    for mu, p in corpus:
        target = classify_boundedness(mu, p).norm
        for eps in (0.5 / p, 0.05):
            r = lower_bound_ratio(mu, ExtremalParams(p, eps, 256), 1024)
            assert 0.0 < r <= target + 1e-6


def test_ratio_monotone_in_row_count(lebesgue):
    params = ExtremalParams(2.0, 0.02, 512)
    ratios = [lower_bound_ratio(lebesgue, params, rows) for rows in (64, 256, 1024)]
    assert ratios == sorted(ratios)


def test_delta_half_p1_ratio_capped_by_two(delta_half):
    # closed form: the p=1 norm of the delta at 1/2 is exactly 2
    r = lower_bound_ratio(delta_half, ExtremalParams(1.0, 0.3, 128), 512)
    assert 0.0 < r <= 2.0 + 1e-9


def test_fast_path_matches_dense_route(lebesgue):
    params = ExtremalParams(2.0, 0.25, 96)
    fast = lower_bound_ratio(lebesgue, params, 256)
    # same computation through the dense kernel route
    from genhilbert import apply_truncated, extremal_sequence as mk, lp_norm

    a = mk(params)
    dense = lp_norm(apply_truncated(lebesgue, a, 256).values, 2.0) / lp_norm(a.values, 2.0)
    assert fast == pytest.approx(dense, rel=1e-12)


def _extended_precision_image(mu, values, n_rows):
    """The dense route's entries times ``values``, summed in long double."""
    out = np.empty(n_rows, dtype=np.longdouble)
    k = np.arange(len(values))[None, :]
    wide = values.astype(np.longdouble)
    for start in range(0, n_rows, 512):
        n = np.arange(start, min(start + 512, n_rows))[:, None]
        out[start : start + n.shape[0]] = kernel.entry_block(mu, n, k).astype(np.longdouble) @ wide
    return out


def test_fft_route_error_within_its_stated_bound_and_ratio_sound():
    rng = np.random.default_rng(241)
    for case in range(16):
        terms = tuple(
            JacobiTerm(float(rng.uniform(0.1, 3.0)), *map(float, rng.uniform(-0.9, 3.0, size=2)))
            for _ in range(int(rng.integers(1, 3)))
        )
        atoms = tuple(
            Atom(t, float(rng.uniform(0.1, 3.0))) for t in (0.0, 1.0) if rng.random() < 0.3
        )
        mu = Measure(terms, atoms)
        sizes = np.exp(rng.uniform(0.0, math.log(4096), size=2)).astype(int)
        n_rows, K = (4096, 4096) if case == 0 else map(int, sizes)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        values = rng.uniform(-1.0, 1.0, K) if case % 2 else np.arange(1.0, K + 1.0) ** -0.6
        got, bound = fft_plan(mu, n_rows, len(values)).apply(SequenceVector(values), p)
        ref = _extended_precision_image(mu, values, n_rows)
        err = lp_norm((got.values - ref).astype(np.float64), p)
        assert err <= bound, (mu, n_rows, K, p, err, bound)
        verdict = classify_boundedness(mu, p)
        if verdict.is_bounded:
            ratio = lower_bound_ratio(mu, ExtremalParams(p, 0.5 / p, K), n_rows)
            assert ratio <= verdict.norm + SOUNDNESS_SLACK, (mu, n_rows, K, p)


def _force_tiling(patch, tiled):
    """Make every plan certify builds the one-tile (False) or the tiled (True) plan."""
    patch.setattr(certify_module, "_held_plan", lambda *args: (operator._build_plan(*args, tiled)[0], 0))


def test_tiled_image_and_its_transpose_within_their_stated_bounds(monkeypatch):
    rng = np.random.default_rng(1307)
    # The ratio below takes the tiled plan as well.
    _force_tiling(monkeypatch, True)
    for case in range(16):
        terms = tuple(
            JacobiTerm(float(rng.uniform(0.1, 3.0)), *map(float, rng.uniform(-0.9, 3.0, size=2)))
            for _ in range(int(rng.integers(1, 3)))
        )
        atoms = tuple(
            Atom(t, float(rng.uniform(0.1, 3.0))) for t in (0.0, 1.0) if rng.random() < 0.3
        )
        mu = Measure(terms, atoms)
        sizes = np.exp(rng.uniform(0.0, math.log(3000), size=2)).astype(int)
        n_rows, K = (3000, 3000) if case == 0 else map(int, sizes)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        plan = operator._build_plan(mu, n_rows, K, True)[0]
        for transposed in (False, True):
            rows, cols = (K, n_rows) if transposed else (n_rows, K)
            values = rng.uniform(-1.0, 1.0, cols) if case % 2 else np.arange(1.0, cols + 1.0) ** -0.6
            got, bound = (plan.transposed() if transposed else plan).apply(SequenceVector(values), p)
            ref = _extended_precision_image(reflected(mu) if transposed else mu, values, rows)
            err = lp_norm((got.values - ref).astype(np.float64), p)
            assert err <= bound, (mu, n_rows, K, transposed, p, err, bound)
        verdict = classify_boundedness(mu, p)
        if verdict.is_bounded:
            ratio = lower_bound_ratio(mu, ExtremalParams(p, 0.5 / p, K), n_rows)
            assert ratio <= verdict.norm + SOUNDNESS_SLACK, (mu, n_rows, K, p)


def test_t1mt_ratio_stays_positive_and_grows_to_two_to_the_20():
    # One tile's bound swamped t(1-t)dt's image from 2**18 on: ratios fell
    # to 0.053 (p=3) at 2**18 and to 0.0 at 2**20.  The tiles' bound does not.
    mu = Measure((JacobiTerm(1.0, 1.0, 1.0),), ())
    ratios = {p: [] for p in (1.5, 2.0, 3.0)}
    for size in (2**16, 2**18, 2**20):
        block = certify_module._Block(mu, size, size)
        for p, series in ratios.items():
            series.append(block.ratio(extremal_sequence(ExtremalParams(p, 0.05, size)), p))
    for p, series in ratios.items():
        assert 0.0 < series[0] <= series[1] <= series[2] <= classify_boundedness(mu, p).norm, (p, series)


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.floats(0.1, 3.0), st.floats(-0.9, 3.0), st.floats(-0.9, 3.0)),
        min_size=1,
        max_size=2,
    ),
    atoms=st.lists(
        st.tuples(st.sampled_from([0.3, 0.7, 1.0]), st.floats(0.1, 3.0)),
        max_size=2,
        unique_by=lambda atom: atom[0],
    ),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    eps_share=st.floats(0.02, 1.0),
    n_rows=st.integers(1, 64),
    length=st.integers(1, 64),
)
def test_ratio_stays_below_the_norm_on_every_route(terms, atoms, p, eps_share, n_rows, length):
    mu = Measure(tuple(JacobiTerm(*term) for term in terms), tuple(Atom(*atom) for atom in atoms))
    try:
        verdict = classify_boundedness(mu, p)
    except ValueError as error:
        # A subnormal Beta argument, such as alpha at p = 1, puts a convergent norm beyond float64.
        assume("exceeds the float64 range" not in str(error))
        raise
    assume(verdict.is_bounded)
    ceiling = verdict.norm + SOUNDNESS_SLACK
    params = ExtremalParams(p, eps_share / p, length)
    a = extremal_sequence(params)
    for route in (apply_truncated, apply_via_quadrature):
        assert lp_norm(route(mu, a, n_rows).values, p) / lp_norm(a.values, p) <= ceiling, route
    if not mu.interior_atoms:
        # fft_plan picks the one-tile or the tiled plan; each is forced in turn.
        for tiled in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                _force_tiling(patch, tiled)
                assert lower_bound_ratio(mu, params, n_rows) <= ceiling, tiled


def test_fft_ratio_stays_below_the_exact_truncated_ratio():
    # the FFT route subtracts its stated bound, so rounding cannot lift the
    # ratio above the exact image norm of the dense route's entries
    mix2 = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), ())
    for p in (1.0, 1.5, 3.0):
        params = ExtremalParams(p, 0.1, 1024)
        a = extremal_sequence(params)
        exact = _extended_precision_image(mix2, a.values, 1024)
        want = float(np.sum(exact**p) ** (1.0 / p)) / lp_norm(a.values, p)
        ratio = lower_bound_ratio(mix2, params, 1024)
        assert want * (1.0 - 1e-9) <= ratio <= want, (p, ratio, want)


def _record_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_ratio_without_interior_atoms_builds_no_entries(monkeypatch):
    mix2 = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), ())
    with_endpoints = Measure(mix2.jacobi_terms, (Atom(0.0, 0.5), Atom(1.0, 2.0)))
    entries = _counted_entries(monkeypatch)
    for mu in (mix2, with_endpoints):
        for p in (1.0, 1.5, 3.0):
            lower_bound_ratio(mu, ExtremalParams(p, 0.1, 2048), 2048)
    assert entries == []


@pytest.mark.parametrize(
    "mu,size",
    [(Measure((JacobiTerm(1.0, 0.0, 0.0),), (Atom(0.3, 0.4),)), 256)],
    ids=["interior-atom"],
)
def test_ratio_takes_the_dense_route_when_the_fft_cannot_serve(mu, size, monkeypatch):
    # From an empty memo: the ratio builds nu's section and sums its rows, with the streamed apply's bits.
    builds = _section_builds(monkeypatch)
    params = ExtremalParams(2.0, 0.1, size)
    a = extremal_sequence(params)
    # The numerator gives up the rounding of K-term row sums and of both
    # norms, and the entries' own error against the exact matrix.
    rounding = (2 * (size + size) + size + 16) * 2.0**-53 + kernel._entry_rtol(mu)
    dense = lp_norm(apply_truncated(mu, a, size).values, 2.0) * (1.0 - rounding) / lp_norm(a.values, 2.0)
    calls = []
    _record_calls(monkeypatch, calls, certify_module, "apply_truncated")
    assert lower_bound_ratio(mu, params, size) == dense
    assert calls == [] and builds == [(mu, size)]


@pytest.mark.parametrize("mu", [MIX_ATOM, MIXED_CORPUS[1]], ids=["dense", "fft"])
def test_a_ratio_takes_two_norms(mu, monkeypatch):
    # One of the sequence and one of its image: the dense bound's norm of a
    # nonnegative sequence's image is the numerator's too.
    calls = []
    _record_calls(monkeypatch, calls, certify_module, "lp_norm")
    lower_bound_ratio(mu, ExtremalParams(1.5, 0.1, 300), 300)
    assert len(calls) == 2


def test_dense_route_ratio_stays_below_the_exact_ratio():
    # Unscaled, 16 of these 40 ratios came out up to 4.6e-16 above the exact one.
    rng = np.random.default_rng(2027)
    for case in range(40):
        mu = random_interior_measure(rng)
        size = int(rng.integers(50, 600))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        params = ExtremalParams(p, 0.1, size)
        a = extremal_sequence(params).values
        wide = a.astype(np.longdouble)
        exact = _extended_precision_image(mu, a, size)
        want = np.sum(exact**p) ** (1 / p) / np.sum(wide**p) ** (1 / p)
        assert lower_bound_ratio(mu, params, size) <= want, (case, mu, size, p)


@pytest.mark.parametrize("route", ["held", "streamed", "one-tile", "tiled"])
def test_block_apply_image_lies_within_its_stated_bound_on_every_route(route, monkeypatch):
    # _Block.apply gives (y, bound, e, norm): 2**e y is the block's image of
    # a and 2**e bound its stated ell-p error, here against the long double
    # image; norm is y's ell-p norm where the dense bound took it.  No block
    # here is small enough to take the dense route without an interior atom.
    # The streamed blocks have no memo budget, so they take no section.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    if route == "streamed":
        monkeypatch.setattr(operator, "_PLAN_MEMO_BYTES", 0)
    rng = np.random.default_rng(2026)
    if route in ("held", "streamed"):
        measures = (MIX_ATOM, _times_power_of_two(Measure((), (Atom(0.5, 1.0),)), 40))
    else:
        _force_tiling(monkeypatch, route == "tiled")
        # t(1-t)dt, and t(1-t)dt plus unit atoms at both endpoints.
        measures = (MIXED_CORPUS[1], MIXED_CORPUS[7])
    for mu in measures:
        for size in (57, 300):
            block = certify_module._Block(mu, size, size)
            if route == "held":
                block.section()
            # The section's last right singular vector: its image cancels to rounding level.
            cancelling = np.linalg.svd(finite_section(mu, size).entries)[2][-1]
            for p in (1.0, 2.0, 3.0):
                for values in (np.arange(1.0, size + 1.0) ** -0.6, rng.uniform(-1.0, 1.0, size), cancelling):
                    a = SequenceVector(values)
                    y, bound, e, norm = block.apply(a, p)
                    dense = route in ("held", "streamed")
                    assert norm == (lp_norm(y, p) if dense and a.nonneg else None), (route, p, a.nonneg)
                    exact = _extended_precision_image(mu, values, size)
                    err = lp_norm((np.ldexp(y, e).astype(np.longdouble) - exact).astype(np.float64), p)
                    assert err <= math.ldexp(bound, e), (route, mu, size, p, a.nonneg, err, bound, e)
                    if route == "held":
                        # The held section's row sums are the streamed apply's, bit for bit.
                        streamed = apply_truncated(mu, a, size).values
                        assert np.ldexp(y, e).tobytes() == streamed.tobytes()
                    elif route != "streamed":
                        plan, plan_e = block.plan()
                        image, want = plan.apply(a, p)
                        assert (y.tobytes(), bound, e) == (image.values.tobytes(), want, plan_e) and e == 0


@pytest.mark.parametrize(
    "mu,size",
    [(TWO_TERMS, 300), (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), 2048)],
    ids=["two-terms@300", "t(1-t)dt@2048"],
)
def test_picked_tiled_image_and_its_transpose_within_their_stated_bounds(mu, size):
    # The picked plans are tiled, with several tile-terms of one transform
    # length (the two-term measure's at 256 and 512), and the image stays
    # within the plan's stated bound of the long double image, forward and
    # transposed.
    rng = np.random.default_rng(2803)
    plan = fft_plan(mu, size, size)
    assert len(plan.tiles) > 1
    for transposed in (False, True):
        q, oracle = (plan.transposed(), reflected(mu)) if transposed else (plan, mu)
        for values in (np.arange(1.0, size + 1.0) ** -0.6, rng.uniform(-1.0, 1.0, size)):
            exact = _extended_precision_image(oracle, values, size)
            for p in (1.0, 2.0, 3.0):
                y, bound = q.apply(SequenceVector(values), p)
                err = lp_norm((y.values.astype(np.longdouble) - exact).astype(np.float64), p)
                assert err <= bound, (transposed, p, err, bound)


# The gaps to the exact ratio measured 2.1e-12 (t(1-t)dt) and 2.4e-10
# (t^3(1-t)^3, whose Hankel factor varies by up to 6^7 inside a tile).
@pytest.mark.parametrize(
    "mu,size,gap",
    [
        (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), 2048, 4e-12),
        # rows beyond ~1000 fall below the one-tile transforms' absolute error
        (Measure((JacobiTerm(1.0, 3.0, 3.0),), ()), 1024, 4e-10),
    ],
    ids=["t(1-t)dt", "t^3(1-t)^3"],
)
def test_ratio_takes_the_tiled_route_when_one_tile_cannot_serve(mu, size, gap, monkeypatch):
    params = ExtremalParams(2.0, 0.1, size)
    a = extremal_sequence(params)
    exact = _extended_precision_image(mu, a.values, size)
    want = float(np.sqrt(np.sum(exact**2))) / lp_norm(a.values, 2.0)
    truncated, plans = [], []
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    monkeypatch.setattr(
        certify_module, "_held_plan", lambda *args: plans.append(operator._held_plan(*args)) or plans[-1]
    )
    ratio = lower_bound_ratio(mu, params, size)
    assert truncated == []
    assert [len(plan.tiles) > 1 for plan, _ in plans] == [True]
    assert want * (1.0 - gap) <= ratio <= want, (ratio, want)
    # Forced onto the one-tile plan, the same ratio is looser.
    _force_tiling(monkeypatch, False)
    assert lower_bound_ratio(mu, params, size) < ratio


def test_c_dt_ratio_beyond_the_dense_cap_at_large_p(monkeypatch):
    # 2**20 rows are beyond the dense cap, and at p=10 the one-tile plan's
    # stated bound is 1.2e-9 of the image: the FFT image still answers.
    size = 2**20
    mu = Measure((JacobiTerm(3.0, 0.0, 0.0),), ())
    params = ExtremalParams(10.0, 0.05, size)
    calls = []
    _record_calls(monkeypatch, calls, certify_module, "apply_truncated")
    ratio = lower_bound_ratio(mu, params, size)
    assert calls == []
    a = extremal_sequence(params)
    fft = 3.0 * lp_norm(hankel_fast_apply(a, size).values, 10.0) / lp_norm(a.values, 10.0)
    assert abs(ratio - fft) <= 1e-8 * fft
    assert ratio <= 3.0 * classical_constant(10.0) + SOUNDNESS_SLACK


@pytest.mark.parametrize("scale", [1e-35, 1e35])
def test_ratio_at_large_p_scales_with_the_measure(scale):
    # |image|**10 underflowed to a ratio of 0.0 at 1e-35 dt, and overflowed to inf at 1e35 dt.
    params = ExtremalParams(10.0, 0.05, 64)
    want = lower_bound_ratio(LEBESGUE, params, 64)
    got = lower_bound_ratio(Measure((JacobiTerm(scale, 0.0, 0.0),), ()), params, 64)
    assert got == pytest.approx(scale * want, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale,p", [(1e304, 1.0), (1e307, 2.0)])
def test_fft_ratio_scales_with_a_measure_near_the_float64_limit(scale, p):
    # The FFT bound's unit roundoff has to scale the magnitudes before the
    # large factors do, or the bound overflows although its value is far
    # below the float64 limit.
    params = ExtremalParams(p, 0.5 / p, 32768)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = lower_bound_ratio(LEBESGUE, params, 32768)
        got = lower_bound_ratio(Measure((JacobiTerm(scale, 0.0, 0.0),), ()), params, 32768)
    assert got == pytest.approx(scale * want, rel=1e-12, abs=0)


def test_section_norm_of_entries_beyond_float64_is_the_range_error():
    # The interior atom takes the dense route; its section's entries near the
    # corner sum two finite components into inf.
    mu = Measure((JacobiTerm(2.0**1023, 0.0, 0.0),), (Atom(0.5, 2.0**1023),))
    with pytest.raises(ValueError, match="float64 range"):
        p2_section_norm(mu, 100)


def test_factor_range_error_is_the_same_on_both_routes():
    # (alpha+beta+1)! already overflows, so 1/(d+1)_(alpha+beta+1) is 0 at d = 0
    mu = Measure((JacobiTerm(1.0, 100.0, 80.0),), (Atom(1.0, 1.0),))
    params = ExtremalParams(2.0, 0.1, 30)
    a = extremal_sequence(params)
    messages = []
    for route in (
        lambda: apply_truncated(mu, a, 20),
        lambda: fft_plan(mu, 20, len(a)).apply(a, 2.0),
        lambda: lower_bound_ratio(mu, params, 20),
    ):
        with pytest.raises(ValueError, match="float64 range") as error:
            route()
        messages.append(str(error.value))
    assert messages[0] == messages[1] == messages[2]


def test_dual_exponents_approach_the_same_constant(lebesgue):
    # the reflected extremal pair certifies the same sharp constant from
    # either side of the Hoelder duality
    p, q = 3.0, 1.5
    rp = lower_bound_ratio(lebesgue, ExtremalParams(p, 0.01, 4096), 8192)
    rq = lower_bound_ratio(lebesgue, ExtremalParams(q, 0.01, 4096), 8192)
    target = classify_boundedness(lebesgue, p).norm
    assert rp > 0.75 * target
    assert rq > 0.75 * target


# ------------------------------------------------------------ p2_section_norm


@pytest.mark.parametrize("size", [4, 16, 64])
def test_p2_section_norm_matches_dense_eigensolver(lebesgue, size):
    sigma = p2_section_norm(lebesgue, size)
    h = finite_section(lebesgue, size).entries
    top = math.sqrt(max(np.linalg.eigvalsh(h.T @ h)))
    assert sigma == pytest.approx(top, rel=1e-9)
    assert sigma <= top * (1.0 + 1e-12)  # a certified quotient approaches from below


def test_p2_section_norm_trivial_sizes(lebesgue):
    assert p2_section_norm(lebesgue, 1) == pytest.approx(1.0, rel=1e-12)


def test_p2_section_norm_atom_at_one_rank_one():
    # an endpoint atom at 1 fills row 0 with its mass and nothing else,
    # so the section is rank one with sigma = mass * sqrt(N) exactly
    mu = Measure((), (Atom(1.0, 5.0),))
    for size in (4, 16):
        h = finite_section(mu, size).entries
        top = math.sqrt(max(np.linalg.eigvalsh(h.T @ h)))
        assert p2_section_norm(mu, size) == pytest.approx(top, rel=1e-10)
        assert top == pytest.approx(5.0 * math.sqrt(size), rel=1e-12)


def test_p2_section_norm_zero_measure(zero_measure):
    assert p2_section_norm(zero_measure, 8) == 0.0


def test_p2_section_norm_iteration_cap(lebesgue, monkeypatch):
    monkeypatch.setattr(certify_module, "_KRYLOV_STEP_CAP", 3)
    with pytest.raises(ConvergenceError) as exc_info:
        p2_section_norm(lebesgue, 32, tol=1e-300)
    assert exc_info.value.estimate > 0.0


def test_p2_section_norm_below_operator_norm(lebesgue, delta_half):
    for mu in (lebesgue, delta_half):
        target = classify_boundedness(mu, 2.0).norm
        assert p2_section_norm(mu, 256) < target


T1MT = Measure((JacobiTerm(1.0, 1.0, 1.0),), ())
T1MT_ATOMS = Measure((JacobiTerm(1.0, 1.0, 1.0),), (Atom(0.0, 1.0), Atom(1.0, 1.0)))
T_PLUS_ONE_MINUS_T = Measure((JacobiTerm(1.0, 1.0, 0.0), JacobiTerm(1.0, 0.0, 1.0)), ())


@pytest.mark.parametrize(
    "mu,symmetric",
    [
        (LEBESGUE, True),
        (T1MT, True),
        (Measure((), (Atom(0.5, 1.0),)), True),
        (T1MT_ATOMS, True),
        (T_PLUS_ONE_MINUS_T, True),
        (Measure(tuple(reversed(T_PLUS_ONE_MINUS_T.jacobi_terms)), ()), True),
        (MIX2, False),
        (Measure((JacobiTerm(1.0, 1.0, 0.0),), (Atom(1.0, 1.0),)), False),
        (Measure((JacobiTerm(1.0, 0.0, 0.5),), (Atom(0.0, 0.5),)), False),
        (Measure((), (Atom(0.3, 1.0),)), False),
    ],
    ids=["lebesgue", "t(1-t)dt", "delta_1/2", "t(1-t)dt+delta_0+delta_1", "tdt+(1-t)dt", "(1-t)dt+tdt",
         "mix2", "c07", "atom-zero", "delta_0.3"],
)
def test_reflection_symmetry_compares_terms_and_atoms_as_multisets(mu, symmetric):
    assert certify_module._reflection_symmetric(mu) is symmetric


@pytest.mark.parametrize(
    "mu,size,tol",
    [
        (LEBESGUE, 1024, 1e-10),
        (T1MT, 512, 1e-10),
        (T1MT_ATOMS, 1024, 1e-10),
        (T_PLUS_ONE_MINUS_T, 1024, 1e-10),
        (Measure((), (Atom(0.5, 1.0),)), 64, 1e-10),
        # From 256 to 2048 the two loops stop 1.5e-13 to 1.6e-13 apart at the
        # default tol, both sound: the gap is the Ritz values' own, and at
        # tol 1e-12 it falls below 3e-15.
        (Measure((), (Atom(0.5, 1.0),)), 512, 1e-12),
    ],
    ids=["lebesgue@1024", "t(1-t)dt@512", "t(1-t)dt+delta_0+delta_1@1024", "tdt+(1-t)dt@1024", "delta_1/2@64",
         "delta_1/2@512"],
)
def test_one_image_sigma_agrees_with_the_normal_equations_loop(mu, size, tol, monkeypatch):
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    one_image = p2_section_norm(mu, size, tol)
    monkeypatch.setattr(certify_module, "_reflection_symmetric", lambda mu: False)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    normal = p2_section_norm(mu, size, tol)
    assert abs(one_image - normal) <= 1e-13 * normal, (one_image, normal)
    for sigma in (one_image, normal):
        _assert_certified_against_the_dense_norm(mu, size, sigma, 1e-12)


def _record_sections(monkeypatch, sections, products):
    """certify's finite_section, recording each call and every product with a section or its transpose.

    ``products`` gets ``(forward, operand)`` per product: forward is True
    for the section itself (C-ordered), False for its transpose.
    """

    class RecordedProducts(np.ndarray):
        def __matmul__(self, other):
            products.append((self.flags.c_contiguous, np.array(other)))
            return np.asarray(self) @ other

    def recorded_section(mu, size):
        sections.append((mu, size))
        return FiniteSection(size, finite_section(mu, size).entries.view(RecordedProducts))

    monkeypatch.setattr(certify_module, "finite_section", recorded_section)


def _random_fft_cases(seed, count):
    """``count`` random ``(mu, size)``: one or two density terms, endpoint atoms, sizes from 2 to 1024."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        terms = tuple(
            JacobiTerm(float(rng.uniform(0.1, 3.0)), *map(float, rng.uniform(-0.9, 3.0, size=2)))
            for _ in range(int(rng.integers(1, 3)))
        )
        atoms = tuple(
            Atom(t, float(rng.uniform(0.1, 3.0))) for t in (0.0, 1.0) if rng.random() < 0.3
        )
        cases.append((Measure(terms, atoms), int(rng.integers(2, 1025))))
    return cases


# Density-only measures whose Lanczos step counts README gives for both start vectors.
DENSITY_CORPUS = {
    "lebesgue": LEBESGUE,
    "3dt": Measure((JacobiTerm(3.0, 0.0, 0.0),), ()),
    "t(1-t)dt": T1MT,
    "t^3dt": Measure((JacobiTerm(1.0, 3.0, 0.0),), ()),
    "mix2": MIX2,
}
# Criterion 07's t dt plus an atom at 1: its row 0 holds a rank-one part.
C07 = Measure((JacobiTerm(1.0, 1.0, 0.0),), (Atom(1.0, 1.0),))
CORPUS_SIZES = (256, 1024, 2048)


@pytest.mark.parametrize(
    "mu,size",
    [(mu, size) for mu in (*DENSITY_CORPUS.values(), C07) for size in CORPUS_SIZES] + _random_fft_cases(1950, 24),
    ids=[f"{name}@{size}" for name in (*DENSITY_CORPUS, "c07") for size in CORPUS_SIZES]
    + [f"random-{i}" for i in range(24)],
)
def test_fft_route_sigma_is_certified_against_the_dense_eigensolver(mu, size, monkeypatch):
    # The blocks at 256 and the small random ones stay on the FFT route.
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    calls = []
    _record_calls(monkeypatch, calls, certify_module, "finite_section")
    sigma = p2_section_norm(mu, size)
    assert calls == []  # one-tile or tiled, never the dense section
    s = finite_section(mu, size).entries
    top = math.sqrt(np.linalg.eigvalsh(s.T @ s)[-1])
    assert sigma <= top * (1.0 + 1e-12), (mu, size, sigma, top)
    assert abs(sigma - top) <= 1e-9 * top, (mu, size, sigma, top)


def test_atom_free_sweep_builds_no_entries(monkeypatch):
    # On the FFT route; at 256 the block would take the dense route and build its section.
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    mix2 = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), ())
    entries = _counted_entries(monkeypatch)
    report = convergence_sweep(mix2, 2.0, [0.1], [256, 1024])
    assert entries == []
    assert [n for n, _ in report.sigma_max_series] == [256, 1024]


@pytest.mark.parametrize(
    "mu,size",
    [(mu, size) for mu in (Measure((), (Atom(0.5, 1.0),)), MIX_ATOM) for size in CORPUS_SIZES],
    ids=["delta_half", "delta_half@1024", "delta_half@2048", "mix-atom@256", "mix-atom@1024", "mix-atom@2048"],
)
def test_dense_route_sigma_is_one_section_and_unchanged(mu, size, monkeypatch):
    # An interior atom has no FFT apply: it runs on one dense section.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    sections, products = [], []
    _record_sections(monkeypatch, sections, products)
    sigma = p2_section_norm(mu, size)
    assert sections == [(mu, size)]
    assert sum(forward for forward, _ in products) <= 80
    _assert_certified_against_the_dense_norm(mu, size, sigma, 1e-12)


def _sigma_key(nu, size, tol=1e-10, dense=True):
    """The memo key of nu's held sigma_N (certify._Block.sigma)."""
    return (nu, "sigma", size, tol, dense, certify_module._KRYLOV_STEP_CAP)


def _counted_entries(monkeypatch) -> list:
    """The returned list gets the number of entries in each row block the kernel's stream yields.

    ``kernel._row_blocks`` evaluates every entry: those of ``entry_block``
    and ``finite_section`` and the rows ``apply_truncated`` streams.
    """
    entries = []
    stream = kernel._row_blocks

    def counted(*args):
        for rows, block in stream(*args):
            entries.append(block.size)
            yield rows, block

    monkeypatch.setattr(kernel, "_row_blocks", counted)
    monkeypatch.setattr(operator, "_row_blocks", counted)
    return entries


def _section_builds(monkeypatch) -> list:
    """Start from an empty memo; the returned list gets the arguments of each section certify builds."""
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    builds = []
    _record_calls(monkeypatch, builds, certify_module, "finite_section")
    return builds


@pytest.mark.parametrize("k", [1, -1, 100, -100, 1000, -1000])
def test_power_of_two_multiples_share_one_held_section(k, monkeypatch):
    # A sweep of 2**k mu reads the section held for mu, and its sigma and
    # ratios are 2**k times mu's, bit for bit.
    builds, truncated = _section_builds(monkeypatch), []
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    report = convergence_sweep(MIX_ATOM, 2.0, [0.05, 0.1, 0.3], [256])
    scaled = convergence_sweep(_times_power_of_two(MIX_ATOM, k), 2.0, [0.05, 0.1, 0.3], [256])
    assert scaled.sigma_max_series == ((256, math.ldexp(report.sigma_max_series[0][1], k)),)
    assert [row[-1] for row in scaled.ratios] == [math.ldexp(row[-1], k) for row in report.ratios]
    assert builds == [(MIX_ATOM, 256)] and truncated == []
    # The second sweep's sigma is the held one; then its ratios read the section.
    assert list(operator._plan_memo) == [_sigma_key(MIX_ATOM, 256), (MIX_ATOM, 256)]


def test_a_held_unit_section_leaves_a_multiple_its_own_range_error(monkeypatch):
    # nu's section is held; 2**1023 nu's entries near the corner sum two
    # finite components into inf, and its own section build raises its own error.
    builds = _section_builds(monkeypatch)
    nu = Measure((JacobiTerm(1.0, 0.0, 0.0),), (Atom(0.5, 1.0),))
    mu = _times_power_of_two(nu, 1023)
    p2_section_norm(nu, 100)
    with pytest.raises(ValueError, match="float64 range") as want:
        finite_section(mu, 100)
    for call in (lambda: p2_section_norm(mu, 100), lambda: lower_bound_ratio(mu, ExtremalParams(2.0, 0.1, 100), 100)):
        with pytest.raises(ValueError, match="float64 range") as error:
            call()
        assert str(error.value) == str(want.value)
    assert builds == [(nu, 100), (mu, 100), (mu, 100)]
    assert list(operator._plan_memo) == [(nu, 100), _sigma_key(nu, 100)]


def test_held_sections_are_read_only_and_finite_section_stays_fresh(monkeypatch):
    _section_builds(monkeypatch)
    p2_section_norm(MIX_ATOM, 64)
    assert list(operator._plan_memo) == [(MIX_ATOM, 64), _sigma_key(MIX_ATOM, 64)]
    held, nbytes, _ = operator._plan_memo[(MIX_ATOM, 64)]
    with pytest.raises(ValueError, match="read-only"):
        held[0, 0] = 0.0
    fresh = finite_section(MIX_ATOM, 64).entries
    assert fresh.flags.writeable and not np.shares_memory(fresh, held) and nbytes == fresh.nbytes
    entries = np.array([[kernel.entry(MIX_ATOM, n, k) for k in range(64)] for n in range(64)])
    assert fresh.tobytes() == held.tobytes() == entries.tobytes()


def test_a_section_over_the_budget_is_not_kept(monkeypatch):
    # 64 x 64 float64 is the whole budget; one more row and column is over it.
    builds, truncated = _section_builds(monkeypatch), []
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    monkeypatch.setattr(operator, "_PLAN_MEMO_BYTES", 64 * 64 * 8)
    delta = Measure((), (Atom(0.5, 1.0),))
    fft_plan(LEBESGUE, 32, 32)
    plan_bytes = operator._plan_memo[(LEBESGUE, 32, 32)][1]
    for _ in range(2):
        # The sweep's ratios sum the section its sigma built, or the second
        # sweep's held sigma left it to build, and the memo keeps its plan and sigma.
        report = convergence_sweep(delta, 2.0, [0.1, 0.3], [65])
        assert list(operator._plan_memo) == [(LEBESGUE, 32, 32), _sigma_key(delta, 65)] and truncated == []
    assert builds == [(delta, 65)] * 2
    with monkeypatch.context() as cold:
        cold.setattr(operator, "_plan_memo", OrderedDict())
        assert report.sigma_max_series == ((65, p2_section_norm(delta, 65)),)
    # Within the budget, sections and plans leave the memo least recently
    # used first, whichever kind: the section pushes the plan out, and the
    # plan the section.  A held sigma counts no bytes and leaves in its turn.
    p2_section_norm(delta, 64)
    assert list(operator._plan_memo) == [_sigma_key(delta, 65), (delta, 64), _sigma_key(delta, 64)]
    fft_plan(LEBESGUE, 32, 32)
    assert list(operator._plan_memo) == [_sigma_key(delta, 64), (LEBESGUE, 32, 32)]
    # With room for both, a hit makes the plan the newest, and a newer
    # section pushes out the older one, now the least recently used.
    monkeypatch.setattr(operator, "_PLAN_MEMO_BYTES", 64 * 64 * 8 + plan_bytes)
    operator._held_section(delta, 64, certify_module.finite_section)
    assert list(operator._plan_memo) == [_sigma_key(delta, 64), (LEBESGUE, 32, 32), (delta, 64)]
    fft_plan(LEBESGUE, 32, 32)
    assert list(operator._plan_memo) == [_sigma_key(delta, 64), (delta, 64), (LEBESGUE, 32, 32)]
    operator._held_section(delta, 63, certify_module.finite_section)
    assert list(operator._plan_memo) == [(LEBESGUE, 32, 32), (delta, 63)]
    assert builds == [(delta, 65)] * 3 + [(delta, 64)] * 2 + [(delta, 63)]


def test_a_plan_and_a_section_of_one_size_are_held_apart(monkeypatch):
    # An atom-free (nu, 256) holds both its plan and its section, each under
    # its own key, and a power-of-two multiple reads both.
    builds = _section_builds(monkeypatch)
    plan = fft_plan(MIX2, 256, 256)
    section, e = operator._held_section(MIX2, 256, certify_module.finite_section)
    assert e == 0 and list(operator._plan_memo) == [(MIX2, 256, 256), (MIX2, 256)]
    scaled = _times_power_of_two(MIX2, 7)
    twin = fft_plan(scaled, 256, 256)
    held, e = operator._held_section(scaled, 256, certify_module.finite_section)
    assert (twin.scale, twin.tiles, e) == (7, plan.tiles, 7) and held is section
    assert builds == [(MIX2, 256)] and list(operator._plan_memo) == [(MIX2, 256, 256), (MIX2, 256)]


@pytest.mark.parametrize("coeff", [1.0, 32.0])
def test_an_equal_distinct_measure_reads_the_held_binary_scale_and_keeps_its_sigma(coeff, monkeypatch):
    # _binary_scale holds one pair per measure, and an equal, distinct
    # measure reads it: with e = 0 its nu is the first measure, not itself,
    # and sigma's scale correction is 0 either way.
    first, twin = (Measure((JacobiTerm(coeff, 1.25, 0.75),), ()) for _ in range(2))
    assert first == twin and first is not twin
    operator._binary_scale.cache_clear()
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    report = convergence_sweep(first, 2.0, [0.1], [256, 600])
    nu, e = operator._binary_scale(twin)
    assert nu is operator._binary_scale(first)[0] and (nu is first) == (e == 0) and e == math.frexp(coeff)[1] - 1
    # Without the held sigmas, the twin's sweep runs each loop again on nu's held section or plan.
    for key in [key for key in operator._plan_memo if key[1] == "sigma"]:
        del operator._plan_memo[key]
    assert convergence_sweep(twin, 2.0, [0.1], [256, 600]) == report
    with monkeypatch.context() as cold:
        cold.setattr(operator, "_plan_memo", OrderedDict())
        assert report.sigma_max_series == tuple((size, p2_section_norm(twin, size)) for size in (256, 600))


@pytest.mark.slow
def test_a_t1mt_p2_sweep_at_2_20_builds_its_plan_once_and_leaves_the_memo_within_its_budget(monkeypatch):
    builds = []
    _record_calls(monkeypatch, builds, operator, "_build_plan")
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    mu = Measure((JacobiTerm(1.0, 1.0, 1.0),), ())
    report = convergence_sweep(mu, 2.0, [0.05, 0.1], [1 << 20])
    # The tiled plan holds 80.06 MiB, over the 64 MiB budget: the sweep's block keeps it, the memo does not.
    held = sum(nbytes for _, nbytes, _ in operator._plan_memo.values())
    assert [args[1:] for args in builds] == [(1 << 20, 1 << 20)], report.sigma_max_series
    assert held <= operator._PLAN_MEMO_BYTES


@pytest.mark.slow
def test_a_mix_atom_section_is_held_once_per_process_and_none_over_the_memo_budget(monkeypatch):
    # Two Jacobi terms plus an interior atom at 0.3, the benchmark's mix-atom shape.
    entries = _counted_entries(monkeypatch)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    for size in (1024, 4096):
        built, reports = [], []
        for _ in range(2):
            entries.clear()
            reports.append(report_to_json(convergence_sweep(MIX_ATOM, 2.0, [0.05, 0.3], [size])))
            built.append(sum(entries))
        # A section's key is (nu, N); a plan's is (nu, N, K); a held sigma's (nu, "sigma", N, tol, dense, cap).
        held = [key[1:] for key in operator._plan_memo]
        sections = [key for key in held if len(key) == 1]
        sigmas = [key[1] for key in held if key[0] == "sigma"]
        assert reports[0] == reports[1] and sections == [(1024,)] and sigmas[-1] == size, (size, held)
        # 1024^2 float64 is 8 MiB and stays held; 4096^2 is 128 MiB, over the 64 MiB budget.
        assert built == ([size * size, 0] if size == 1024 else [size * size] * 2), (size, built)


@pytest.mark.slow
def test_symmetric_sections_take_the_one_image_loop_with_no_transpose_and_agree_with_the_normal_loop(monkeypatch):
    # A reflection-symmetric section (S^T = S) takes one image per step, with
    # no transposed plan or section; the S^T S loop on the same section, which
    # takes transposes, stops within 1e-11 of it, up to 65536.
    transposes = []  # each transposed plan built, and each transpose taken of a dense section
    transposed, section = operator.FFTPlan.transposed, certify_module.finite_section

    class Section(np.ndarray):
        @property
        def T(self):
            transposes.append("section")
            return np.asarray(self).T

    def recorded_transposed(plan):
        transposes.append("plan")
        return transposed(plan)

    monkeypatch.setattr(operator.FFTPlan, "transposed", recorded_transposed)
    monkeypatch.setattr(
        certify_module, "finite_section", lambda mu, size: FiniteSection(size, section(mu, size).entries.view(Section))
    )
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    t1mt, delta = Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), Measure((), (Atom(0.5, 1.0),))
    cases = [(LEBESGUE, n) for n in (16384, 65536)] + [(t1mt, n) for n in (16384, 65536)]
    # delta_1/2's loops stop 1.4e-12 apart at 4096, within tol's reach; both are sound lower bounds.
    cases.append((delta, 4096))
    for mu, size in cases:
        transposes.clear()
        one_image = p2_section_norm(mu, size)
        assert transposes == [], (mu, size, transposes)
        with monkeypatch.context() as normal_loop:
            normal_loop.setattr(certify_module, "_reflection_symmetric", lambda mu: False)
            # The memo holds sigma under the measure, whatever _reflection_symmetric says: drop the held ones.
            for key in [key for key in operator._plan_memo if key[1] == "sigma"]:
                del operator._plan_memo[key]
            normal = p2_section_norm(mu, size)
        assert transposes != [], (mu, size)
        assert abs(one_image - normal) <= 1e-11 * normal, (mu, size, one_image, normal)


@pytest.mark.slow
def test_a_held_sigma_equals_an_emptied_memo_s_at_every_scale_and_a_second_sweep_runs_no_lanczos_loop(monkeypatch):
    measures = {
        "lebesgue": LEBESGUE,
        "mix2": MIX2,
        "t(1-t)dt": T1MT,
        "t^3dt": T3,
        "mix-atom": MIX_ATOM,
        "delta_1/2": MIXED_CORPUS[3],
    }
    loops = []
    lanczos = certify_module._Block._lanczos
    monkeypatch.setattr(certify_module._Block, "_lanczos", lambda block, tol: loops.append(None) or lanczos(block, tol))
    for name, mu in measures.items():
        # mix-atom's 128 MiB section at 4096 is over the memo budget and is not held; its sigma is.
        for size in (256, 1024, 2048) + ((4096,) if name == "mix-atom" else ()):
            monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
            sigma = p2_section_norm(mu, size)
            for k in (-600, -3, 0, 5, 600):
                scaled = _times_power_of_two(mu, k)
                loops.clear()
                warm = convergence_sweep(scaled, 2.0, [0.1], [size]).sigma_max_series[0][1]
                assert loops == [], (name, size, k)
                with monkeypatch.context() as cold:
                    cold.setattr(operator, "_plan_memo", OrderedDict())
                    fresh = p2_section_norm(scaled, size)
                assert warm.hex() == fresh.hex() == math.ldexp(sigma, k).hex(), (name, size, k)


CORPUS_NAMES = (
    "lebesgue", "t(1-t)dt", "0.5t^-0.5(1-t)^0.25dt", "delta_1/2", "dt+atoms", "t^2dt+5delta_1", "dt+2delta_0",
    "t(1-t)dt+delta_0+delta_1", "zero",
)
HELD_SIGMA_CORPUS = {**dict(zip(CORPUS_NAMES, MIXED_CORPUS)), "mix2": MIX2, "mix-atom": MIX_ATOM}
HELD_SIGMA_SCALES = (-1000, -600, -3, 0, 5, 600, 1000)


def _record_loop_products(monkeypatch) -> list:
    """Start from an empty memo; the returned list gets one item per Lanczos product.

    That is each FFTPlan.image, and each product with a section certify
    builds or with its transpose (:func:`_record_sections`).  A ratio makes
    neither: it applies the plan or sums a section's rows.
    """
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    products = []
    _record_sections(monkeypatch, [], products)
    image = operator.FFTPlan.image
    monkeypatch.setattr(operator.FFTPlan, "image", lambda plan, values: products.append(None) or image(plan, values))
    return products


# The interior-atom corpus measures at 1024 build a 1024^2 section per cold
# sigma; the CI step on held sigma covers delta_1/2 there.
@pytest.mark.parametrize(
    "mu,size",
    [(mu, size) for mu in HELD_SIGMA_CORPUS.values() for size in (64, 256, 300, 1024)
     if size < 1024 or not mu.interior_atoms or mu is MIX_ATOM],
    ids=[f"{name}@{size}" for name, mu in HELD_SIGMA_CORPUS.items() for size in (64, 256, 300, 1024)
         if size < 1024 or not mu.interior_atoms or mu is MIX_ATOM],
)
def test_a_held_sigma_equals_a_fresh_one_and_a_second_sweep_makes_no_lanczos_product(mu, size, monkeypatch):
    # Both routes (dense up to 256, and 300 on a tiled plan; FFT at 300 on
    # one tile and at 1024) and both loops (S on a reflection-symmetric
    # measure, S^T S otherwise).  The held sigma of nu serves every 2**k nu.
    products = _record_loop_products(monkeypatch)
    sigma = p2_section_norm(mu, size)
    assert products
    for k in HELD_SIGMA_SCALES:
        scaled = _times_power_of_two(mu, k)
        products.clear()
        report = convergence_sweep(scaled, 2.0, [0.1], [size])
        assert products == [], k
        with monkeypatch.context() as cold:
            cold.setattr(operator, "_plan_memo", OrderedDict())
            fresh = p2_section_norm(scaled, size)
        assert report.sigma_max_series == ((size, fresh),) and fresh == math.ldexp(sigma, k), (k, fresh, sigma)


# Pinned from the loop before sigma was held: tol 1e-12 takes more steps than 1e-10.
# delta_1/2's values rest on the order in which _row_sums sums a row.
@pytest.mark.parametrize(
    "mu,size,want",
    [
        (Measure((), (Atom(0.5, 1.0),)), 512, ("0x1.fe9b7be7b2bc4p+0", "0x1.fe9b7be7b4f69p+0")),
        (LEBESGUE, 1024, ("0x1.38fe8a38a8119p+1", "0x1.38fe8a38a8118p+1")),
    ],
    ids=["delta_1/2@512", "lebesgue@1024"],
)
def test_each_tol_holds_its_own_sigma(mu, size, want, monkeypatch):
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    for _ in range(2):
        assert tuple(p2_section_norm(mu, size, tol).hex() for tol in (1e-10, 1e-12)) == want
    # Independently of the pins: each sigma lies below the dense 2-norm and
    # within its tol of it (delta_1/2's tol 1e-10 value sits 1.1e-12 below).
    top = float(np.linalg.norm(finite_section(mu, size).entries, 2))
    for tol, sigma in zip((1e-10, 1e-12), want):
        assert 0.0 <= (top - float.fromhex(sigma)) / top <= tol, (tol, sigma, top)
    dense = certify_module._Block(mu, size, size).dense
    assert [key for key in operator._plan_memo if key[1] == "sigma"] == [
        _sigma_key(mu, size, tol, dense) for tol in (1e-10, 1e-12)
    ]


def test_a_sigma_that_raised_raises_again_with_the_same_estimate(monkeypatch):
    # A raise is never held, and a power-of-two multiple's estimate is 2**k times nu's.
    products = _record_loop_products(monkeypatch)
    monkeypatch.setattr(certify_module, "_KRYLOV_STEP_CAP", 3)
    for mu, size in ((LEBESGUE, 300), (MIX_ATOM, 256)):
        estimates = []
        for k in (0, 0, 5, -600):
            products.clear()
            with pytest.raises(ConvergenceError) as error:
                p2_section_norm(_times_power_of_two(mu, k), size, tol=1e-300)
            assert len(products) >= 3, (mu, k)
            estimates.append(math.ldexp(error.value.estimate, -k).hex())
        assert len(set(estimates)) == 1 and float.fromhex(estimates[0]) > 0.0, estimates
        assert all(key[1] != "sigma" for key in operator._plan_memo), mu


def test_a_patched_route_or_step_cap_never_reads_another_ones_sigma(monkeypatch):
    products = _record_loop_products(monkeypatch)
    held = [_sigma_key(MIX2, 256, dense=dense) for dense in (True, False)]
    sigma = p2_section_norm(MIX2, 256)
    # The small block's dense route held it; on the FFT route the loop runs again.
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    products.clear()
    fft = p2_section_norm(MIX2, 256)
    assert products and abs(fft - sigma) <= 1e-9 * sigma
    # Too few steps for the tolerance raise, though both sigmas are held.
    monkeypatch.setattr(certify_module, "_KRYLOV_STEP_CAP", 2)
    for dense in (0, 1 << 16):
        monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", dense)
        with pytest.raises(ConvergenceError):
            p2_section_norm(MIX2, 256)
    assert [key for key in operator._plan_memo if key[1] == "sigma"] == held


def test_emptying_the_memo_empties_every_held_sigma(monkeypatch):
    products = _record_loop_products(monkeypatch)
    for mu in (MIX2, MIX_ATOM):
        sigma = p2_section_norm(mu, 256)
        products.clear()
        assert p2_section_norm(mu, 256) == sigma and products == []
        operator._plan_memo.clear()
        assert p2_section_norm(mu, 256) == sigma and products, mu


def test_a_square_interior_atom_ratio_reads_a_held_section_and_keeps_its_bits(monkeypatch):
    # 711 us against about 57 us at N = 256: a ratio-only call streamed
    # every entry although the memo held the section.  With no memo budget
    # it still streams; within it, the first call builds and holds nu's section.
    builds, truncated = _section_builds(monkeypatch), []
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    for k in (0, 5, -600):
        mu = _times_power_of_two(MIX_ATOM, k)
        cells = [ExtremalParams(p, 0.5 / p, 256) for p in (1.0, 2.0, 3.0)]
        with monkeypatch.context() as streaming:
            streaming.setattr(operator, "_PLAN_MEMO_BYTES", 0)
            streamed = [lower_bound_ratio(mu, params, 256) for params in cells]
        assert len(truncated) == 3
        operator._plan_memo.clear()
        truncated.clear()
        assert [lower_bound_ratio(mu, params, 256) for params in cells] == streamed and truncated == [], k
        assert list(operator._plan_memo) == [(MIX_ATOM, 256)]
        p2_section_norm(MIX_ATOM, 256)
        assert [lower_bound_ratio(mu, params, 256) for params in cells] == streamed and truncated == [], k
    assert builds == [(MIX_ATOM, 256)] * 3


def test_a_ratio_only_call_builds_nu_s_section_once_and_later_ones_evaluate_no_entry(monkeypatch):
    # The first call from an empty memo builds nu's section and holds it;
    # calls at another p, or on 2**k mu, read it with the streamed bits.
    entries, builds = _counted_entries(monkeypatch), _section_builds(monkeypatch)
    cells = [ExtremalParams(p, 0.1, 256) for p in (1.5, 1.0, 3.0)]
    scaled = [_times_power_of_two(MIX_ATOM, k) for k in (0, 5, -600)]
    with monkeypatch.context() as streaming:
        streaming.setattr(operator, "_PLAN_MEMO_BYTES", 0)
        streamed = [[lower_bound_ratio(mu, params, 256).hex() for params in cells] for mu in scaled]
    assert builds == [] and list(operator._plan_memo) == []
    entries.clear()
    assert lower_bound_ratio(MIX_ATOM, cells[0], 256).hex() == streamed[0][0]
    assert sum(entries) == 256 * 256 and builds == [(MIX_ATOM, 256)]
    entries.clear()
    assert [[lower_bound_ratio(mu, params, 256).hex() for params in cells] for mu in scaled] == streamed
    assert entries == [] and builds == [(MIX_ATOM, 256)] and list(operator._plan_memo) == [(MIX_ATOM, 256)]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_a_dense_sweep_evaluates_each_entry_once_with_the_streamed_bits(p, monkeypatch):
    # Each block takes its section once for every epsilon, and the ratios
    # keep the bits of one streamed epsilon per sweep.
    entries = _counted_entries(monkeypatch)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    eps_grid, sizes = [0.05, 0.1, 0.2, 0.3], [256, 1024]
    report = convergence_sweep(MIX_ATOM, p, eps_grid, sizes)
    assert sum(entries) == sum(size * size for size in sizes)
    monkeypatch.setattr(operator, "_PLAN_MEMO_BYTES", 0)
    streamed = [convergence_sweep(MIX_ATOM, p, [eps], sizes).ratios for eps in eps_grid]
    assert [row[-1].hex() for row in report.ratios] == [row[-1].hex() for rows in streamed for row in rows]


def test_over_the_budget_a_lone_ratio_streams_and_a_sweep_builds_its_section_once(monkeypatch):
    builds, truncated = _section_builds(monkeypatch), []
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    monkeypatch.setattr(operator, "_PLAN_MEMO_BYTES", 256 * 256 * 8 - 1)
    lone = lower_bound_ratio(MIX_ATOM, ExtremalParams(1.5, 0.1, 256), 256)
    assert len(truncated) == 1 and builds == [] and list(operator._plan_memo) == []
    truncated.clear()
    report = convergence_sweep(MIX_ATOM, 1.5, [0.1, 0.3], [256])
    assert truncated == [] and builds == [(MIX_ATOM, 256)] and list(operator._plan_memo) == []
    assert report.ratios[0][-1] == lone


def test_a_rectangular_interior_atom_ratio_takes_the_truncated_apply(monkeypatch):
    # The held section is square; a block of K != N columns streams its rows.
    builds, truncated = _section_builds(monkeypatch), []
    cells = [ExtremalParams(2.0, 0.1, length) for length in (200, 300)]
    streamed = [lower_bound_ratio(MIX_ATOM, params, 256) for params in cells]
    p2_section_norm(MIX_ATOM, 256)
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    assert [lower_bound_ratio(MIX_ATOM, params, 256) for params in cells] == streamed
    assert [args[2] for args in truncated] == [256, 256] and builds == [(MIX_ATOM, 256)]


# Either side of each limit: 2^16 entries on a one-tile plan, 2^18 on a tiled one.
@pytest.mark.parametrize(
    "mu,size,dense",
    [(MIX2, 256, True), (MIX2, 257, False), (T1MT, 512, True), (T1MT, 513, False), (LEBESGUE, 512, False)],
    ids=["mix2@256", "mix2@257", "t(1-t)dt@512", "t(1-t)dt@513", "lebesgue@512"],
)
def test_small_blocks_take_the_dense_route_and_read_their_held_section(mu, size, dense, monkeypatch):
    builds, truncated = _section_builds(monkeypatch), []
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    block = certify_module._Block(mu, size, size)
    assert block.dense == dense and (len(fft_plan(mu, size, size).tiles) > 1) == (mu is T1MT)
    eps_grid = (0.05, 0.3)
    cells = [ExtremalParams(2.0, eps, size) for eps in eps_grid]
    # A ratio-only call reads the held section it builds, and a ratio has
    # the same bits before and after sigma.
    alone = [lower_bound_ratio(mu, params, size) for params in cells]
    sigma = p2_section_norm(mu, size)
    after = [lower_bound_ratio(mu, params, size) for params in cells]
    assert builds == ([(mu, size)] if dense else []) and truncated == []
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    report = convergence_sweep(mu, 2.0, eps_grid, [size])
    assert report.sigma_max_series == ((size, sigma),)
    assert [ratio for *_, ratio in report.ratios] == alone == after
    for k in (-600, -3, 5, 600):
        assert p2_section_norm(_times_power_of_two(mu, k), size) == math.ldexp(sigma, k), k


T5_1MT5 = Measure((JacobiTerm(1.0, 5.0, 5.0),), ())
T3 = Measure((JacobiTerm(1.0, 3.0, 0.0),), ())
SMALL_CORPUS = {"t^5(1-t)^5dt": T5_1MT5, "t(1-t)dt": T1MT, "t^3dt": T3, "mix2": MIX2, "lebesgue": LEBESGUE}


# t^5(1-t)^5 dt's sigma_256 on its tiled plan lay 2.1e-8 below the dense
# norm.  The first three measures take the tiled plan, so are small at 512 too.
@pytest.mark.parametrize(
    "mu,size",
    [(mu, size) for mu in SMALL_CORPUS.values() for size in (64, 256)] + [(mu, 512) for mu in (T5_1MT5, T1MT, T3)],
    ids=[f"{name}@{size}" for name in SMALL_CORPUS for size in (64, 256)] + [f"{name}@512" for name in list(SMALL_CORPUS)[:3]],
)
def test_small_block_sigma_lies_within_1e12_below_the_dense_norm(mu, size):
    sigma = p2_section_norm(mu, size)
    top = float(np.linalg.norm(finite_section(mu, size).entries, 2))
    assert top - 1e-12 * top <= sigma <= top, (sigma, top)


@pytest.mark.parametrize("size", [512, 2048], ids=["t(1-t)dt@512", "t(1-t)dt"])
def test_tiled_route_sigma_is_certified_against_the_dense_norm(size, monkeypatch):
    # t(1-t)dt's one-tile bound at the all-ones probe is above 256 times the
    # tiled one, so the loop runs on the tiled plan and its transpose, with
    # no section.  At 512 the block would take the dense route; it stays on
    # the FFT route.
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    mu = Measure((JacobiTerm(1.0, 1.0, 1.0),), ())
    sections, products, plans, forward = [], [], [], []
    _record_sections(monkeypatch, sections, products)
    apply = operator.FFTPlan.apply

    def recorded_plan(*args):
        plans.append(operator._held_plan(*args))
        return plans[-1]

    def recorded_apply(plan, a, p):
        forward.append(any(plan is built for built, _ in plans))
        return apply(plan, a, p)

    monkeypatch.setattr(certify_module, "_held_plan", recorded_plan)
    monkeypatch.setattr(operator.FFTPlan, "apply", recorded_apply)
    sigma = p2_section_norm(mu, size)
    assert sections == []
    assert [len(plan.tiles) > 1 for plan, _ in plans] == [True]
    assert sum(forward) <= 80
    top = float(np.linalg.norm(finite_section(mu, size).entries, 2))
    assert sigma <= top * (1.0 + 1e-12), (sigma, top)
    assert abs(sigma - top) <= 1e-11 * top, (sigma, top)


@pytest.mark.parametrize("size", [256, 512])
@pytest.mark.parametrize("mu", [MIXED_CORPUS[5], MIXED_CORPUS[7]], ids=["t^2dt+5delta_1", "t(1-t)dt+delta_0+delta_1"])
def test_sigma_of_growing_factors_with_endpoint_atoms_within_1e12_of_the_dense_norm(mu, size):
    # One tile's bound at the all-ones probe is 496 to 7100 times the tiled
    # one here; the loop on one tile left sigma 1.8e-11 to 4.0e-10 below.
    sigma = p2_section_norm(mu, size)
    top = float(np.linalg.norm(finite_section(mu, size).entries, 2))
    assert top - 1e-12 * top <= sigma <= top, (sigma, top)


@pytest.mark.parametrize(
    "mu,tiled",
    [
        (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), True),
        (Measure((JacobiTerm(3.0, 0.0, 0.0),), ()), False),
        (Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), ()), False),
    ],
    ids=["t(1-t)dt", "c*dt", "mix2"],
)
def test_a_sweep_transforms_on_the_picked_tiling_alone(mu, tiled, monkeypatch):
    # No spectrum is built, and no apply made, for the tiling not picked;
    # the sweeps at both p share one kept plan.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    applied, builds, spectra = set(), [], [0]
    apply, image, build, rfft = operator.FFTPlan.apply, operator.FFTPlan.image, operator._build_plan, operator.rfft

    def recorded_apply(plan, a, p):
        applied.add(len(plan.tiles) > 1)
        return apply(plan, a, p)

    def recorded_image(plan, values):
        applied.add(len(plan.tiles) > 1)
        return image(plan, values)

    def recorded_build(*args):
        builds.append(None)
        builds[-1] = build(*args)
        return builds[-1]

    def recorded_rfft(*args, **kwargs):
        # A transform made while a plan is built is one of its spectra.
        spectra[0] += builds[-1:] == [None]
        return rfft(*args, **kwargs)

    monkeypatch.setattr(operator.FFTPlan, "apply", recorded_apply)
    monkeypatch.setattr(operator.FFTPlan, "image", recorded_image)
    monkeypatch.setattr(operator, "_build_plan", recorded_build)
    monkeypatch.setattr(operator, "rfft", recorded_rfft)
    for p in (1.5, 2.0):
        convergence_sweep(mu, p, [0.1], [2048])
    assert applied == {tiled}
    # One build, whose transforms are the picked tiling's spectra: one per FFT tile and term.
    (plan, _, _), = builds
    assert spectra[0] == sum(bool(m) for _, _, m, _ in plan.tiles) * len(mu.jacobi_terms) > 0
    assert [key[1:] for key in operator._plan_memo] == [(2048, 2048), _sigma_key(mu, 2048, dense=False)[1:]]


def test_ratio_checks_the_column_cap_before_it_builds_the_sequence(delta_half, monkeypatch):
    # The sequence of 2**22 + 1 floats was built before the plan raised, and
    # a length of 10**18 ran out of memory instead.
    calls = []
    _record_calls(monkeypatch, calls, certify_module, "extremal_sequence")
    cap = operator.HANKEL_CAP
    for length in (cap + 1, 10**18):
        with pytest.raises(ResourceLimitError, match=f"^size {length} exceeds cap {cap}$"):
            lower_bound_ratio(LEBESGUE, ExtremalParams(2.0, 0.1, length), 8)
    assert calls == []
    # The dense route's columns stay uncapped.
    monkeypatch.setattr(certify_module, "HANKEL_CAP", 8)
    assert lower_bound_ratio(delta_half, ExtremalParams(2.0, 0.1, 9), 8) > 0.0


@pytest.mark.parametrize("mu,symmetric", [(LEBESGUE, True), (MIX2, False)], ids=["lebesgue", "mix2"])
def test_krylov_loop_makes_no_transposed_image_on_a_symmetric_block_and_two_fewer_otherwise(mu, symmetric, monkeypatch):
    # A symmetric block's loop runs on S alone and builds no transposed plan.
    # Otherwise convergence is tested before the transposed apply, which the
    # last step's Ritz value does not use.  The certified quotient of the
    # Ritz vector is one more forward apply.  The loop's products are
    # bound-free images, the quotient's an apply at p = 2.
    forward, backward = [], []
    apply, image, transposed = operator.FFTPlan.apply, operator.FFTPlan.image, operator.FFTPlan.transposed

    def recorded_apply(plan, a, p):
        (backward if any(plan is adj for adj in adjoints) else forward).append(p)
        return apply(plan, a, p)

    def recorded_image(plan, values):
        (backward if any(plan is adj for adj in adjoints) else forward).append(None)
        return image(plan, values)

    adjoints = []

    def recorded_transposed(plan):
        adjoints.append(transposed(plan))
        return adjoints[-1]

    monkeypatch.setattr(operator.FFTPlan, "apply", recorded_apply)
    monkeypatch.setattr(operator.FFTPlan, "image", recorded_image)
    monkeypatch.setattr(operator.FFTPlan, "transposed", recorded_transposed)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    p2_section_norm(mu, 512)
    assert len(forward) >= 3
    if symmetric:
        assert adjoints == [] and backward == []
    else:
        assert len(backward) == len(forward) - 2
    assert forward.count(2.0) == 1 and backward.count(2.0) == 0


def test_dense_symmetric_sigma_takes_no_transpose(monkeypatch):
    # delta_1/2's section is symmetric: every product is with the section
    # itself, and the mix-atom section, which is not, takes its transpose.
    for mu, symmetric in ((Measure((), (Atom(0.5, 1.0),)), True), (MIX_ATOM, False)):
        monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
        sections, products = [], []
        _record_sections(monkeypatch, sections, products)
        p2_section_norm(mu, 256)
        forward = sum(f for f, _ in products)
        assert sections == [(mu, 256)] and forward >= 3
        assert len(products) - forward == (0 if symmetric else forward - 1), mu


def _record_fft_route(monkeypatch, applied, build=operator._held_plan):
    """Record each FFTPlan.apply and FFTPlan.image of the plans certify reads with ``build`` as ``(name, input values)``.

    ``build`` returns ``(plan, e)``, as :func:`~genhilbert.operator._held_plan`
    does.  The name is "one-tile" or "tiled", with "^T" for the plan's
    transpose.  A plan is known by its tiles; an apply or image on any
    other plan fails.
    """
    apply, image, transposed = operator.FFTPlan.apply, operator.FFTPlan.image, operator.FFTPlan.transposed
    names = []

    def name_of(plan):
        return next(name for built, name in names if built.tiles is plan.tiles)

    def recorded_plan(mu, n_rows, n_cols):
        plan, e = build(mu, n_rows, n_cols)
        names.append((plan, "tiled" if len(plan.tiles) > 1 else "one-tile"))
        return plan, e

    def recorded_transposed(plan):
        names.append((transposed(plan), name_of(plan) + "^T"))
        return names[-1][0]

    def recorded_apply(plan, a, p):
        applied.append((name_of(plan), a.values.copy()))
        return apply(plan, a, p)

    def recorded_image(plan, values):
        applied.append((name_of(plan), np.array(values)))
        return image(plan, values)

    monkeypatch.setattr(certify_module, "_held_plan", recorded_plan)
    monkeypatch.setattr(operator.FFTPlan, "transposed", recorded_transposed)
    monkeypatch.setattr(operator.FFTPlan, "apply", recorded_apply)
    monkeypatch.setattr(operator.FFTPlan, "image", recorded_image)
    return names


def _assert_certified_against_the_dense_norm(mu, size, sigma, rtol):
    top = float(np.linalg.norm(finite_section(mu, size).entries, 2))
    assert sigma <= top * (1.0 + 1e-12), (sigma, top)
    assert abs(sigma - top) <= rtol * top, (sigma, top)


def test_a_rejected_first_image_runs_the_whole_loop_on_the_tiled_plan(monkeypatch):
    # mix2 keeps one tile (its bound at the all-ones probe is 3.2 times the
    # tiled one); the tiled plan, forced, serves every step and the quotient.
    # At 256 the block would take the dense route; it stays on the FFT route.
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    mu = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), ())
    applied = []
    _record_fft_route(monkeypatch, applied, lambda *args: (operator._build_plan(*args, True)[0], 0))
    sigma = p2_section_norm(mu, 256)
    names = [name for name, _ in applied]
    assert set(names) == {"tiled", "tiled^T"}
    assert names.count("tiled^T") == names.count("tiled") - 2
    _assert_certified_against_the_dense_norm(mu, 256, sigma, 1e-9)


# The two-term measure's first one-tile image once passed a bound-to-norm
# test that its top Ritz vector's failed; fft_plan now picks before any apply.
@pytest.mark.parametrize(
    "mu,sizes,symmetric",
    [
        (TWO_TERMS, (300,), False),
        (MIX2, (256, 1024), False),
        (T1MT, (256, 512), True),
        (MIXED_CORPUS[5], (256,), False),
    ],
    ids=["two-terms", "mix2", "t(1-t)dt", "t^2dt+5delta_1"],
)
def test_every_apply_of_a_sweep_runs_on_the_blocks_one_plan_or_its_transpose(mu, sizes, symmetric, monkeypatch):
    # Every size stays on the FFT route, the small ones too.
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    applied = []
    built = _record_fft_route(monkeypatch, applied)
    report = convergence_sweep(mu, 2.0, [0.05, 0.3], sizes)
    # One plan per size serves sigma, its quotient and both ratios; with its
    # transpose it makes every apply (_record_fft_route fails on any other).
    plans = [(plan.n_rows, name) for plan, name in built if not name.endswith("^T")]
    assert [size for size, _ in plans] == list(sizes), plans
    forward = sum(not name.endswith("^T") for name, _ in applied)
    transposed = len(applied) - forward
    # Each ratio makes one forward apply.  sigma makes no transposed apply,
    # and builds no transposed plan, on a symmetric block, and two
    # transposed applies fewer than forward ones on any other.
    if symmetric:
        assert transposed == 0 and all(not name.endswith("^T") for _, name in built)
    else:
        assert forward == transposed + 4 * len(sizes)
    for size, sigma in report.sigma_max_series:
        _assert_certified_against_the_dense_norm(mu, size, sigma, 1e-11)


def test_krylov_start_is_the_normalized_p2_witness():
    for size in (1, 2, 7, 300, 1 << 20):
        v = certify_module._krylov_start(size)
        w = 1.0 / np.sqrt(np.arange(1.0, size + 1.0))
        np.testing.assert_allclose(v, w / np.linalg.norm(w), rtol=1e-15, atol=0.0)
        assert abs(v @ v - 1.0) <= 1e-14


@pytest.mark.parametrize(
    "mu,dense",
    [(LEBESGUE, False), (MIX2, False), (Measure((), (Atom(0.5, 1.0),)), True), (MIX_ATOM, True)],
    ids=["fft-symmetric", "fft-normal", "dense-symmetric", "dense-normal"],
)
def test_the_krylov_loop_starts_at_the_witness_on_every_path(mu, dense, monkeypatch):
    # The loop's first product is the forward one, with _krylov_start(N) itself.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    size = 300
    if dense:
        sections, products = [], []
        _record_sections(monkeypatch, sections, products)
        p2_section_norm(mu, size)
        assert sections == [(mu, size)]
        forward, first = products[0]
    else:
        applied = []
        _record_fft_route(monkeypatch, applied)
        p2_section_norm(mu, size)
        name, first = applied[0]
        forward = not name.endswith("^T")
    assert forward and first.tobytes() == certify_module._krylov_start(size).tobytes()


def _ones_start(size):
    """The all-ones start the loop took before the witness, bit for bit."""
    return np.full(size, 1.0 / math.sqrt(size))


def _sigma_and_fft_calls(mu, size, start, monkeypatch):
    """``p2_section_norm(mu, size)`` with the loop started at ``start(size)``, and its count of FFT images and applies."""
    applied = []
    with monkeypatch.context() as patch:
        patch.setattr(operator, "_plan_memo", OrderedDict())
        patch.setattr(certify_module, "_krylov_start", start)
        _record_fft_route(patch, applied)
        sigma = p2_section_norm(mu, size)
    return sigma, len(applied)


@pytest.mark.parametrize(
    "mu,size",
    [pytest.param(mu, size, id=f"{name}-{size}") for name, mu in DENSITY_CORPUS.items() for size in CORPUS_SIZES]
    + [
        pytest.param(DENSITY_CORPUS[name], size, id=f"{name}-{size}", marks=pytest.mark.slow)
        for name, size in (("lebesgue", 1 << 16), ("lebesgue", 1 << 20), ("3dt", 1 << 16), ("3dt", 1 << 20),
                           ("t(1-t)dt", 1 << 16))
    ],
)
def test_the_witness_start_takes_no_more_images_than_the_all_ones_start(mu, size, monkeypatch):
    # Both counts include the certified quotient's one apply.
    sigma, calls = _sigma_and_fft_calls(mu, size, certify_module._krylov_start, monkeypatch)
    ones_sigma, ones_calls = _sigma_and_fft_calls(mu, size, _ones_start, monkeypatch)
    assert calls <= ones_calls, (calls, ones_calls)
    assert abs(sigma - ones_sigma) <= 1e-11 * ones_sigma, (sigma, ones_sigma)


@pytest.mark.parametrize("size", [1024, 2048])
def test_the_witness_start_takes_one_step_more_on_c07(size, monkeypatch):
    # The atom at 1 puts its mass in every entry of row 0.  That rank-one
    # part sets sigma_N (about sqrt(N) times the mass), and its right
    # singular vector is the all-ones one: the loop on S^T S takes 3 steps
    # from there and 4 from the witness, one more image and transposed image.
    sigma, calls = _sigma_and_fft_calls(C07, size, certify_module._krylov_start, monkeypatch)
    ones_sigma, ones_calls = _sigma_and_fft_calls(C07, size, _ones_start, monkeypatch)
    assert (calls, ones_calls) == (4 + 3 + 1, 3 + 2 + 1)
    assert abs(sigma - ones_sigma) <= 1e-11 * ones_sigma, (sigma, ones_sigma)


@pytest.mark.parametrize("eps_grid,size_grid", [([], [8]), ([0.1], []), ([], [])])
def test_sweep_rejects_an_empty_grid(lebesgue, eps_grid, size_grid):
    with pytest.raises(ValueError, match="^eps_grid and size_grid must be nonempty$"):
        convergence_sweep(lebesgue, 2.0, eps_grid, size_grid)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_p2_section_norm_rejects_a_tol_that_is_not_positive(lebesgue, tol):
    with pytest.raises(ValueError, match="tol must be > 0"):
        p2_section_norm(lebesgue, 8, tol=tol)


def _times_power_of_two(mu, k):
    return Measure(
        tuple(JacobiTerm(math.ldexp(t.coeff, k), t.alpha, t.beta) for t in mu.jacobi_terms),
        tuple(Atom(a.location, math.ldexp(a.mass, k)) for a in mu.atoms),
    )


@pytest.mark.parametrize("k", [100, 400, 520, 700, 1000, -100, -400, -520, -700, -1000])
def test_sigma_and_ratios_scale_exactly_with_the_measure(k, monkeypatch):
    # 2**k mu has 2**k times mu's entries and images, bit for bit.  sigma
    # read 0.0 at 2**260 dt and inf at 2**-300 dt while ||.||_2 squared
    # unscaled values.  Each sigma starts from an empty memo.
    for mu in MIXED_CORPUS:
        scaled = _times_power_of_two(mu, k)
        monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
        got = p2_section_norm(scaled, 48)
        monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
        assert got == math.ldexp(p2_section_norm(mu, 48), k), mu
        for p in (1.0, 3.0):
            params = ExtremalParams(p, 0.5 / p, 48)
            want = math.ldexp(lower_bound_ratio(mu, params, 48), k)
            assert lower_bound_ratio(scaled, params, 48) == want, (mu, p)


def _lower_bounds(mu, size):
    """The ratios at p = 1, 1.5, 2 and 3 (epsilon 0.1) and sigma of ``mu``'s size-by-size block."""
    ratios = [lower_bound_ratio(mu, ExtremalParams(p, 0.1, size), size) for p in (1.0, 1.5, 2.0, 3.0)]
    return ratios + [p2_section_norm(mu, size)]


@pytest.mark.parametrize("size", [64, 300, 1000])
@pytest.mark.parametrize("mu", [LEBESGUE, T1MT, MIX_ATOM], ids=["lebesgue", "t(1-t)dt", "mix-atom"])
def test_lower_bounds_below_the_normal_range_round_toward_zero(mu, size):
    # 2**k mu's values are nu's, mu = 2**k nu, scaled by 2**k: below 2**-1022
    # that product rounds, and a lower bound that rounded up by half a
    # subnormal's ulp would exceed 2**k times nu's exact value, of which
    # nu's own certified value is a lower bound.
    for k in (-1060, -1065, -1070):
        nu, e = operator._binary_scale(_times_power_of_two(mu, k))
        assert e == k
        for got, want in zip(_lower_bounds(_times_power_of_two(mu, k), size), _lower_bounds(nu, size)):
            assert 0.0 < got < 2.0**-1022 and math.ldexp(got, -k) <= want, (k, got, want)


@pytest.mark.parametrize(
    "mu,size",
    [(mu, size) for mu in (LEBESGUE, T1MT, MIX2) for size in (300, 4096)] + [(MIX_ATOM, 300)],
    ids=[f"{name}@{size}" for name in ("lebesgue", "t(1-t)dt", "mix2") for size in (300, 4096)] + ["mix-atom@300"],
)
def test_both_routes_scale_a_lower_bound_by_one_rule(mu, size):
    # Each value of 2**k mu is nu's, mu = 2**k nu, scaled toward zero by
    # 2**k, on the FFT route as on the dense one, bit for bit.
    for k in (-1070, -1060, -1000, 0, 1000):
        scaled = _times_power_of_two(mu, k)
        nu, e = operator._binary_scale(scaled)
        assert e == k
        want = [certify_module._ldexp_down(value, k).hex() for value in _lower_bounds(nu, size)]
        assert [value.hex() for value in _lower_bounds(scaled, size)] == want, k


def test_p1_ratio_of_a_measure_whose_image_norm_is_beyond_float64():
    # ||C a||_1 is about 1.86e308 for 1e307 dt at this size, and the ratio 7.2e307.
    params = ExtremalParams(1.0, 0.5, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = lower_bound_ratio(LEBESGUE, params, 4096)
        got = lower_bound_ratio(Measure((JacobiTerm(1e307, 0.0, 0.0),), ()), params, 4096)
        beyond = lower_bound_ratio(Measure((JacobiTerm(1e308, 0.0, 0.0),), ()), params, 4096)
    assert got == pytest.approx(1e307 * want, rel=1e-12, abs=0)
    assert beyond == math.inf


def test_sigma_of_a_measure_near_the_float64_limit_scales_exactly(monkeypatch):
    # The transposed apply's input carries the coefficient: 2**1017 ||u||_1
    # m ||h||_1 is beyond float64 in its transforms, while sigma_300
    # (3.3e306) is not.  The second sigma starts from an empty memo.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = math.ldexp(p2_section_norm(LEBESGUE, 300), 1017)
        monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
        got = p2_section_norm(_times_power_of_two(LEBESGUE, 1017), 300)
    assert got == want


@pytest.mark.parametrize("size", [300, 4096])
def test_sigma_of_a_measure_at_the_float64_limit_scales_exactly(size, monkeypatch):
    # The transposed apply's input carries the coefficient, so the bound's
    # ||b||_1 (4096) or h_2 ||b||_1 (300) overflowed for 2**1020 dt, while
    # sigma (2.6e307, 2.9e307) is in range.  The second sigma starts from an empty memo.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = math.ldexp(p2_section_norm(LEBESGUE, size), 1020)
        monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
        got = p2_section_norm(_times_power_of_two(LEBESGUE, 1020), size)
    assert got == want


def test_sigma_beyond_float64_is_inf_on_both_routes():
    # ||S x||_2 is inf here, and the quotient subtracted (N + 4) u ||S x||_2
    # from it: inf - inf read as 0.0, though lower_bound_ratio gave inf.
    fft = _times_power_of_two(LEBESGUE, 1023)
    dense = Measure((JacobiTerm(2.0**1022, 0.0, 0.0),), (Atom(0.5, 2.0**1022),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(finite_section(dense, 300).entries).all()
        for mu in (fft, dense):
            assert p2_section_norm(mu, 300) == math.inf, mu
            assert lower_bound_ratio(mu, ExtremalParams(2.0, 0.1, 300), 300) == math.inf, mu


def test_krylov_cap_estimate_beyond_float64_is_inf(monkeypatch):
    # The estimate 2**e0 times the top Ritz value raised OverflowError.
    monkeypatch.setattr(certify_module, "_KRYLOV_STEP_CAP", 2)
    with pytest.raises(ConvergenceError) as exc_info:
        p2_section_norm(_times_power_of_two(LEBESGUE, 1023), 300)
    assert exc_info.value.estimate == math.inf


def test_transposed_plan_applies_the_reflected_measure():
    # The transpose of mu's matrix is the matrix of mu reflected by t -> 1-t.
    rng = np.random.default_rng(3)
    mix2 = (JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25))
    for mu in (
        Measure(mix2, (Atom(0.0, 0.5), Atom(1.0, 2.0))),
        Measure((JacobiTerm(2.0, 1.0, 0.0),), (Atom(1.0, 1.0),)),
        LEBESGUE,
    ):
        plan = fft_plan(mu, 300, 170)
        a = SequenceVector(rng.uniform(0.0, 1.0, size=170))
        image, _ = plan.apply(a, 2.0)
        want = fft_plan(mu, 300, len(a)).apply(a, 2.0)[0].values
        np.testing.assert_array_equal(image.values, want)
        for p in (1.5, 2.0, 3.0):
            b = SequenceVector(rng.standard_normal(300))
            got, bound = plan.transposed().apply(b, p)
            want, reflected_bound = fft_plan(reflected(mu), 170, len(b)).apply(b, p)
            assert lp_norm(got.values - want.values, p) <= bound + reflected_bound


def test_lebesgue_section_norm_beyond_the_dense_cap(delta_half):
    # sigma_N increases to pi (Magnus 1950), with a gap of order 1/log^2 N.
    sigma = p2_section_norm(LEBESGUE, 65536)
    assert 2.7086 <= sigma <= math.pi
    assert sigma >= p2_section_norm(LEBESGUE, 4096)
    with pytest.raises(ResourceLimitError):
        p2_section_norm(delta_half, 65536)


# ---------------------------------------------------------- convergence_sweep


def test_sweep_shape_and_monotone_sigma(lebesgue):
    report = convergence_sweep(lebesgue, 2.0, (0.5, 0.1), (8, 32))
    assert len(report.ratios) == 4
    assert [r[:3] for r in report.ratios] == [
        (0.5, 8, 8),
        (0.5, 32, 32),
        (0.1, 8, 8),
        (0.1, 32, 32),
    ]
    assert report.target == pytest.approx(math.pi, rel=1e-15)
    sizes = [n for n, _ in report.sigma_max_series]
    sigmas = [s for _, s in report.sigma_max_series]
    assert sizes == [8, 32]
    assert sigmas == sorted(sigmas)
    assert report.verdict.is_bounded


@pytest.mark.parametrize(
    "mu,sizes",
    [
        (Measure((JacobiTerm(1.0, 1.0, 1.0),), ()), (128, 512)),
        (MIX_ATOM, (128, 256)),
        (MIX_ATOM, (600,)),
    ],
    ids=["t(1-t)dt", "interior-atom-mixture", "interior-atom-mixture-600"],
)
def test_p2_sweep_builds_each_size_once(mu, sizes, monkeypatch):
    # t(1-t)dt takes the tiled plan at both sizes, for sigma and the ratios
    # alike, and builds no entry.  The atom mixture is dense throughout; its ratios sum the
    # section sigma built, with the same bits as the truncated apply.  At 600
    # the truncated apply streams two row blocks (436 and 164 rows) and the
    # sweep sums its whole section in one call.  t(1-t)dt's blocks stay on
    # the FFT route, the small ones too.
    monkeypatch.setattr(certify_module, "_DENSE_BLOCK_ENTRIES", 0)
    eps_grid = (0.05, 0.1, 0.3)
    want_ratios = [
        lower_bound_ratio(mu, ExtremalParams(2.0, eps, size), size)
        for eps in eps_grid
        for size in sizes
    ]
    want_sigmas = [p2_section_norm(mu, size) for size in sizes]
    # The counts start from an empty memo, as a fresh process does.
    monkeypatch.setattr(operator, "_plan_memo", OrderedDict())
    entries = _counted_entries(monkeypatch)
    truncated, plans = [], []
    _record_calls(monkeypatch, truncated, certify_module, "apply_truncated")
    _record_calls(monkeypatch, plans, certify_module, "_held_plan")
    report = convergence_sweep(mu, 2.0, eps_grid, sizes)
    assert sum(entries) == (sum(size * size for size in sizes) if mu.interior_atoms else 0)
    assert truncated == []
    assert len(plans) == len({args[1:] for args in plans}) <= len(sizes)
    assert [ratio for *_, ratio in report.ratios] == want_ratios
    assert [sigma for _, sigma in report.sigma_max_series] == want_sigmas


def test_sweep_checks_every_size_against_its_cap_before_any_work(delta_half, monkeypatch):
    calls = []
    for name in ("finite_section", "apply_truncated", "_held_plan"):
        _record_calls(monkeypatch, calls, certify_module, name)
    for mu, cap in ((delta_half, kernel.DEFAULT_SECTION_CAP), (LEBESGUE, operator.HANKEL_CAP)):
        with pytest.raises(ResourceLimitError, match=f"size {cap + 1} exceeds cap {cap}"):
            convergence_sweep(mu, 2.0, [0.1], [4096, cap + 1])
    assert calls == []


@pytest.mark.parametrize(
    "call",
    [
        lambda size: finite_section(LEBESGUE, size),
        lambda size: apply_truncated(LEBESGUE, SequenceVector(np.ones(3)), size),
        lambda size: apply_via_quadrature(LEBESGUE, SequenceVector(np.ones(3)), size),
        lambda size: fft_plan(LEBESGUE, size, 3),
        lambda size: convergence_sweep(LEBESGUE, 2.0, [0.1], [size]),
        lambda size: p2_section_norm(LEBESGUE, size),
        lambda size: lower_bound_ratio(LEBESGUE, ExtremalParams(2.0, 0.1, 3), size),
    ],
    ids=[
        "finite_section",
        "apply_truncated",
        "apply_via_quadrature",
        "fft_plan",
        "sweep",
        "p2_section_norm",
        "lower_bound_ratio",
    ],
)
def test_every_size_entry_point_has_one_check_and_one_wording(call, monkeypatch):
    for module in (kernel, operator, certify_module):
        monkeypatch.setattr(module, "DEFAULT_SECTION_CAP", 8)
    for module in (operator, certify_module):
        monkeypatch.setattr(module, "HANKEL_CAP", 8)
    call(8)
    for size in (0, -1, 2.5, 3.0, 3.5):
        with pytest.raises(ValueError, match=f"^size must be an integer >= 1, got {size}$"):
            call(size)
    with pytest.raises(ResourceLimitError, match="^size 9 exceeds cap 8$"):
        call(9)


def test_sweep_skips_sigma_series_away_from_p2(lebesgue):
    report = convergence_sweep(lebesgue, 3.0, (0.1,), (8,))
    assert report.sigma_max_series == ()


def test_sweep_on_unbounded_measure_has_infinite_target(lebesgue):
    mu = Measure(lebesgue.jacobi_terms, (Atom(0.0, 1.0),))
    report = convergence_sweep(mu, 2.0, (0.25,), (8,))
    assert report.target == math.inf
    assert not report.verdict.is_bounded


def test_sweep_zero_measure_all_zero(zero_measure):
    report = convergence_sweep(zero_measure, 2.0, (0.25,), (4, 8))
    assert all(r[3] == 0.0 for r in report.ratios)
    assert all(s == 0.0 for _, s in report.sigma_max_series)


# -------------------------------------------------------- CertificationReport


def test_report_rejects_ratio_above_target():
    verdict = classify_boundedness(LEBESGUE, 2.0)
    with pytest.raises(ValueError):
        CertificationReport(((0.5, 8, 8, 4.0),), math.pi, (), verdict)


def test_report_rejects_sigma_above_target():
    verdict = classify_boundedness(LEBESGUE, 2.0)
    with pytest.raises(ValueError, match="^sigma_max 3.2 exceeds analytic norm"):
        CertificationReport(((0.5, 8, 8, 1.0),), math.pi, ((8, 1.0), (16, 3.2)), verdict)
    # Within the slack the report stands, and an infinite target checks nothing.
    CertificationReport((), math.pi, ((8, math.pi + 0.5 * SOUNDNESS_SLACK),), verdict)
    CertificationReport((), math.inf, ((8, 1e300),), classify_boundedness(LEBESGUE, 1.0))


def test_report_rejects_decreasing_sigma():
    verdict = classify_boundedness(LEBESGUE, 2.0)
    with pytest.raises(ValueError):
        CertificationReport(
            ((0.5, 8, 8, 1.0),), math.pi, ((8, 2.0), (16, 1.5)), verdict
        )


def test_report_csv_layout(lebesgue):
    report = convergence_sweep(lebesgue, 2.0, (0.5,), (4, 8))
    text = report_to_csv(report)
    blocks = text.split("\n\n")
    assert len(blocks) == 2
    head, *rows = blocks[0].splitlines()
    assert head == "epsilon,K,N,ratio"
    assert len(rows) == 2 and rows[0].startswith("0.5,4,4,")
    head2, *rows2 = blocks[1].splitlines()
    assert head2 == "N,sigma_max"
    assert [r.split(",")[0] for r in rows2] == ["4", "8"]


def test_report_csv_omits_empty_sigma_table(lebesgue):
    report = convergence_sweep(lebesgue, 3.0, (0.1,), (4,))
    text = report_to_csv(report)
    assert "sigma_max" not in text


def test_report_json_round_trip(lebesgue):
    report = convergence_sweep(lebesgue, 2.0, (0.5,), (4,))
    doc = json.loads(report_to_json(report))
    assert doc["verdict"]["status"] == "bounded"
    assert doc["target"] == pytest.approx(math.pi)
    assert doc["ratios"][0]["epsilon"] == 0.5
    assert doc["ratios"][0]["K"] == 4
    assert doc["sigma_max_series"][0]["N"] == 4


def test_report_json_infinite_target(lebesgue):
    mu = Measure(lebesgue.jacobi_terms, (Atom(0.0, 2.0),))
    doc = json.loads(report_to_json(convergence_sweep(mu, 2.0, (0.25,), (4,))))
    assert doc["target"] == "inf"
