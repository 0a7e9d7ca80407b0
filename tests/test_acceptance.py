"""Acceptance suite: one end-to-end check per numbered criterion.

Each test is independent and named so that ``pytest -v`` reads as a
criterion-by-criterion pass/fail report.  Derived floors (section-norm
growth, extremal-ratio levels) were pinned by independent oracle runs:
dense eigensolvers for singular values and direct summation for applies.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from genhilbert import (
    Atom,
    ExtremalParams,
    JacobiTerm,
    LEBESGUE,
    Measure,
    SequenceVector,
    SplitMix64,
    apply_truncated,
    apply_via_quadrature,
    classical_constant,
    classify_boundedness,
    finite_section,
    hankel_fast_apply,
    lower_bound_ratio,
    lp_norm,
    norm_integral,
    p2_section_norm,
)

PARABOLIC = Measure((JacobiTerm(1.0, 1.0, 1.0),), ())  # t(1-t) dt
TILT = Measure((JacobiTerm(1.0, 1.0, 0.0),), ())  # t dt


def test_criterion_01_closed_form_norm_matches_classical_constant():
    for p in (1.1, 1.5, 2.0, 3.0, 10.0):
        expected = math.pi / math.sin(math.pi / p)
        got = norm_integral(LEBESGUE, p)
        assert abs(got - expected) <= 1e-12 * expected, (p, got, expected)
        assert got == pytest.approx(classical_constant(p), rel=1e-15)


def test_criterion_02_classical_section_entries():
    section = finite_section(LEBESGUE, 64).entries
    n, k = np.indices((64, 64))
    exact = 1.0 / (n + k + 1.0)
    assert np.max(np.abs(section - exact)) <= 1e-14


def test_criterion_03_section_norms_increase_toward_pi():
    sizes = (16, 64, 256, 1024, 4096)
    sigmas = [p2_section_norm(LEBESGUE, size) for size in sizes]
    assert all(b > a for a, b in zip(sigmas, sigmas[1:])), sigmas
    assert all(s <= math.pi + 1e-9 for s in sigmas), sigmas
    # Floor pinned by a dense-eigensolver oracle: sigma(4096) = 2.5543...
    # (convergence to pi is logarithmically slow in N).
    assert sigmas[-1] > 2.5, sigmas


def test_criterion_04_extremal_lower_bound_near_pi():
    ratio = lower_bound_ratio(LEBESGUE, ExtremalParams(2.0, 0.01, 10**5), 10**5)
    # Floor pinned against direct summation at K=N=1e4 (ratio 2.6904,
    # i.e. 0.856*pi; the heavy extremal tail is far from converged at 1e5).
    assert 0.85 * math.pi <= ratio <= math.pi, ratio


def test_criterion_05_interior_atom_norm_and_sections():
    delta_half = Measure((), (Atom(0.5, 1.0),))
    assert classify_boundedness(delta_half, 2.0).norm == 2.0
    sigmas = [p2_section_norm(delta_half, size) for size in (16, 64, 256, 1024, 2048)]
    assert all(b >= a for a, b in zip(sigmas, sigmas[1:])), sigmas
    assert 1.8 < sigmas[-1] <= 2.0 + 1e-9, sigmas


def test_criterion_06_endpoint_atom_taxonomy():
    d0, d1 = Atom(0.0, 1.0), Atom(1.0, 1.0)
    corpus = {
        "neither": PARABOLIC,
        "at_zero": Measure(PARABOLIC.jacobi_terms, (d0,)),
        "at_one": Measure(PARABOLIC.jacobi_terms, (d1,)),
        "both": Measure(PARABOLIC.jacobi_terms, (d0, d1)),
    }
    expected = {
        ("neither", 1.0): ("Bounded", 0.5),
        ("neither", 2.0): ("Bounded", math.pi / 8.0),
        ("neither", math.inf): ("Bounded", 0.5),
        ("at_zero", 1.0): ("Unbounded", "AtomAtZero_FiniteP"),
        ("at_zero", 2.0): ("Unbounded", "AtomAtZero_FiniteP"),
        ("at_zero", math.inf): ("Bounded", 1.5),
        ("at_one", 1.0): ("Bounded", 1.5),
        ("at_one", 2.0): ("Unbounded", "AtomAtOne_PGreaterThan1"),
        ("at_one", math.inf): ("Unbounded", "AtomAtOne_PInfinity"),
        ("both", 1.0): ("Unbounded", "AtomAtZero_FiniteP"),
        ("both", 2.0): ("Unbounded", "AtomAtZero_FiniteP"),
        ("both", math.inf): ("Unbounded", "AtomAtOne_PInfinity"),
    }
    for (name, p), (status, payload) in expected.items():
        verdict = classify_boundedness(corpus[name], p)
        assert verdict.status == status, (name, p, verdict)
        if status == "Bounded":
            assert verdict.norm == pytest.approx(payload, rel=1e-12), (name, p)
        else:
            assert verdict.reason == payload, (name, p, verdict)

    # sigma_max growth witnesses for the endpoint masses
    with_zero = Measure(LEBESGUE.jacobi_terms, (Atom(0.0, 2.0),))
    only_one = Measure((), (Atom(1.0, 5.0),))
    for size in (4, 16, 64):
        assert p2_section_norm(with_zero, size) >= 2.0 * math.sqrt(size)
        sigma = p2_section_norm(only_one, size)
        assert abs(sigma - 5.0 * math.sqrt(size)) <= 1e-9, (size, sigma)


def test_criterion_07_p1_norm_with_mass_at_one():
    mu = Measure(TILT.jacobi_terms, (Atom(1.0, 5.0),))
    verdict = classify_boundedness(mu, 1.0)
    assert verdict.status == "Bounded" and verdict.norm == 6.0
    ratio = lower_bound_ratio(mu, ExtremalParams(1.0, 0.05, 10**4), 10**4)
    # Floor pinned by direct summation: ratio = 5.9416 at these sizes.
    assert 5.4 <= ratio <= 6.0, ratio


def test_criterion_08_quadrature_agrees_with_truncation():
    rng = SplitMix64(2024)
    for case in range(50):
        n_terms = 1 + rng.below(2)
        terms = tuple(
            JacobiTerm(
                0.2 + 1.8 * rng.uniform01(),
                -0.9 + 2.9 * rng.uniform01(),
                -0.9 + 2.9 * rng.uniform01(),
            )
            for _ in range(n_terms)
        )
        atoms = tuple(
            Atom(0.05 + 0.9 * rng.uniform01(), 0.1 + rng.uniform01())
            for _ in range(rng.below(3))
        )
        locations = [a.location for a in atoms]
        if len(set(locations)) != len(locations):
            atoms = atoms[:1]
        mu = Measure(terms, atoms)
        length = 1 + rng.below(64)
        n_rows = 1 + rng.below(64)
        a = SequenceVector(np.array([rng.uniform01() for _ in range(length)]))
        direct = apply_truncated(mu, a, n_rows)
        quadrature = apply_via_quadrature(mu, a, n_rows)
        scale = np.maximum(np.abs(direct.values), 1.0)
        worst = np.max(np.abs(quadrature.values - direct.values) / scale)
        assert worst <= 1e-7, (case, worst)


def test_criterion_09_supporting_identities():
    # generating function: sum_n binom(n+m,m) s^n = (1-s)^{-m-1}
    for m in range(21):
        for s in np.arange(0.1, 0.95, 0.1):
            target = (1.0 - s) ** (-m - 1)
            total, term_log = 0.0, 0.0
            n = 0
            while True:
                coeff = math.exp(
                    gammaln(n + m + 1) - gammaln(m + 1) - gammaln(n + 1)
                )
                term = coeff * s**n
                total += term
                # geometric tail bound once the term ratio falls below r*
                ratio = s * (n + m + 1) / (n + 1)
                if ratio < (1.0 + s) / 2.0 and term * ratio / (1.0 - ratio) < 1e-10:
                    break
                n += 1
                assert n < 10**6
            assert abs(total - target) <= 1e-8 * target, (m, s)

    # exponential inequality: (1-t)/(1 - t e^{-x}) >= e^{-tx/(1-t)}
    for x in np.arange(0.0, 10.05, 0.1):
        for t in np.arange(0.0, 0.951, 0.05):
            lhs = (1.0 - t) / (1.0 - t * math.exp(-x))
            rhs = math.exp(-t * x / (1.0 - t))
            assert lhs - rhs >= -1e-12, (x, t)

    # Gamma integral: (1/Gamma(w)) int e^{-ax} x^{w-1} dx = a^{-w}
    for a in (0.5, 1.0, 2.0):
        for w in (0.5, 1.0, 1.5, 2.0):
            value, _ = quad(
                lambda x: math.exp(-a * x) * x ** (w - 1.0) / math.gamma(w),
                0.0,
                np.inf,
            )
            assert abs(value - a ** (-w)) <= 1e-8, (a, w)


def test_criterion_10_hilbert_inequality_and_near_extremal_pair():
    for index, p in enumerate((1.5, 2.0, 3.0)):
        q = p / (p - 1.0)
        constant = classical_constant(p)
        rng = SplitMix64(900 + index)
        for _ in range(200):
            a = np.array([rng.uniform01() for _ in range(1 + rng.below(64))])
            b = np.array([rng.uniform01() for _ in range(1 + rng.below(64))])
            image = hankel_fast_apply(SequenceVector(a), len(b))
            bilinear = float(np.dot(b, image.values))
            assert bilinear <= constant * lp_norm(a, p) * lp_norm(b, q) + 1e-9

        # near-extremal pair: each factor decays at its own conjugate rate
        big_k = 10**4
        n_grid = np.arange(1.0, big_k + 1.0)
        a = n_grid ** -(1.0 / p + 0.01)
        b = n_grid ** -(1.0 / q + 0.01)
        image = hankel_fast_apply(SequenceVector(a), big_k)
        bilinear = float(np.dot(b, image.values))
        achieved = bilinear / (constant * lp_norm(a, p) * lp_norm(b, q))
        # Floor pinned by direct summation: 0.759 / 0.816 / 0.759 at K=1e4.
        assert achieved >= 0.75, (p, achieved)


def test_criterion_11_fft_apply_speed_and_agreement():
    size = 1 << 12
    rng = SplitMix64(31415)
    values = np.array([rng.uniform01() for _ in range(size)])
    a = SequenceVector(values)
    fast = hankel_fast_apply(a, size).values
    h = 1.0 / (np.arange(size)[:, None] + np.arange(size)[None, :] + 1.0)
    naive = h @ values
    assert np.max(np.abs(fast - naive) / np.abs(naive)) <= 1e-10

    size = 1 << 20
    big = SequenceVector(np.ones(size))
    start = time.perf_counter()
    image = hankel_fast_apply(big, size)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    # a naive product at this size would need ~10^12 multiply-adds
    assert image.values.shape == (size,)
    assert np.all(image.values > 0.0)
