"""Boundedness classification and closed-form norms."""

import json
import math

import numpy as np
import pytest

from genhilbert import (
    Atom,
    JacobiTerm,
    LEBESGUE,
    Measure,
    NormVerdict,
    SequenceVector,
    apply_truncated,
    beta_kernel_integral,
    classical_constant,
    classify_boundedness,
    lp_norm,
    norm_integral,
    reflected,
    verdict_to_dict,
    verdict_to_json,
)
from conftest import random_interior_measure

P_GRID = (1.1, 1.5, 2.0, 3.0, 10.0)


# ------------------------------------------------------------- norm_integral


def test_lebesgue_p2_is_pi(lebesgue):
    assert norm_integral(lebesgue, 2.0) == pytest.approx(math.pi, rel=1e-15)


def test_lebesgue_p1_diverges(lebesgue):
    assert norm_integral(lebesgue, 1.0) == math.inf


def test_lebesgue_pinf_diverges(lebesgue):
    assert norm_integral(lebesgue, math.inf) == math.inf


def test_parabolic_p2_closed_form(parabolic):
    # B(3/2, 3/2) = pi/8; oracle value from the half-integer gamma values
    assert norm_integral(parabolic, 2.0) == pytest.approx(math.pi / 8.0, rel=1e-14)


def test_parabolic_pinf_finite(parabolic):
    # integral of t dt
    assert norm_integral(parabolic, math.inf) == pytest.approx(0.5, rel=1e-14)


def test_norm_integral_refuses_endpoint_atoms():
    mu = Measure((), (Atom(0.0, 1.0),))
    with pytest.raises(ValueError):
        norm_integral(mu, 2.0)


def test_norm_integral_rejects_bad_p(lebesgue):
    with pytest.raises(ValueError):
        norm_integral(lebesgue, 0.5)


@pytest.mark.parametrize("p", P_GRID)
def test_reflection_identity_on_p_grid(lebesgue, p):
    # B(1 - 1/p, 1/p) = pi / sin(pi/p)
    assert norm_integral(lebesgue, p) == pytest.approx(classical_constant(p), rel=1e-12)


# -------------------------------------------------------- classical_constant


def test_classical_constant_values():
    assert classical_constant(2.0) == pytest.approx(math.pi, rel=1e-15)
    assert classical_constant(4.0) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_classical_constant_undefined_at_endpoints(p):
    with pytest.raises(ValueError):
        classical_constant(p)


# ------------------------------------------------------ classify_boundedness


def test_lebesgue_p3_norm(lebesgue):
    v = classify_boundedness(lebesgue, 3.0)
    assert v.is_bounded and v.formula_used == "Interior_Np"
    assert v.norm == pytest.approx(2.0 * math.pi / math.sqrt(3.0), rel=1e-14)


def test_atom_at_zero_unbounded_for_finite_p(lebesgue):
    mu = Measure(lebesgue.jacobi_terms, (Atom(0.0, 1.0),))
    for p in (1.0, 2.0, 100.0):
        v = classify_boundedness(mu, p)
        assert (v.status, v.reason) == ("Unbounded", "AtomAtZero_FiniteP")


def test_atom_at_one_unbounded_between_1_and_inf():
    mu = Measure((), (Atom(1.0, 5.0),))
    v = classify_boundedness(mu, 2.0)
    assert v.reason == "AtomAtOne_PGreaterThan1"
    v = classify_boundedness(mu, math.inf)
    assert v.reason == "AtomAtOne_PInfinity"


def test_pure_atom_at_one_p1_norm_is_mass():
    v = classify_boundedness(Measure((), (Atom(1.0, 5.0),)), 1.0)
    assert v.is_bounded and v.norm == 5.0 and v.formula_used == "P1_WithAtomAtOne"


def test_atom_at_one_p1_adds_interior_integral(parabolic):
    mu = Measure(parabolic.jacobi_terms, (Atom(1.0, 1.0),))
    v = classify_boundedness(mu, 1.0)
    # integral of t^{-1} t(1-t) dt = 1/2, plus the endpoint mass
    assert v.norm == pytest.approx(1.5, rel=1e-14)


def test_atom_at_one_p1_divergent_interior(lebesgue):
    mu = Measure(lebesgue.jacobi_terms, (Atom(1.0, 1.0),))
    v = classify_boundedness(mu, 1.0)
    assert (v.status, v.reason) == ("Unbounded", "DivergentIntegral")


def test_a_subnormal_exponent_at_p1_is_the_range_error_not_divergence():
    # At p = 1 the Beta argument a + alpha + 1 is alpha = 2.2e-309 > 0, so the
    # integral converges, to about 1/alpha = 4.5e308, beyond float64, though
    # the float sum (-1 + alpha) + 1 is 0.
    with pytest.raises(ValueError, match="float64 range"):
        classify_boundedness(Measure((JacobiTerm(1.0, 2.2e-309, 0.0),), ()), 1.0)
    v = classify_boundedness(Measure((JacobiTerm(1.0, -2.2e-309, 0.0),), ()), 1.0)
    assert v.reason == "DivergentIntegral"


def test_atom_at_zero_pinf_norm(parabolic):
    mu = Measure(parabolic.jacobi_terms, (Atom(0.0, 1.0),))
    v = classify_boundedness(mu, math.inf)
    # integral of (1-t)^{-1} t(1-t) dt = 1/2, plus the atom's unit kernel value
    assert v.norm == pytest.approx(1.5, rel=1e-14)
    assert v.formula_used == "PInf_WithAtomAtZero"


def test_atom_at_zero_pinf_divergent(lebesgue):
    mu = Measure(lebesgue.jacobi_terms, (Atom(0.0, 1.0),))
    v = classify_boundedness(mu, math.inf)
    assert v.reason == "DivergentIntegral"


def test_both_endpoint_atoms_zero_wins_for_finite_p():
    mu = Measure((), (Atom(0.0, 1.0), Atom(1.0, 1.0)))
    assert classify_boundedness(mu, 1.0).reason == "AtomAtZero_FiniteP"
    assert classify_boundedness(mu, math.inf).reason == "AtomAtOne_PInfinity"


def test_interior_atom_dyadic_norm_exact(delta_half):
    assert classify_boundedness(delta_half, 2.0).norm == 2.0


def test_zero_measure_is_bounded_with_zero_norm(zero_measure):
    for p in (1.0, 2.0, math.inf):
        v = classify_boundedness(zero_measure, p)
        assert v.is_bounded and v.norm == 0.0


# ---------------------------------------------------------------- properties


@pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
def test_dual_symmetry_under_reflection(p):
    # reflecting the measure swaps the roles of p and its conjugate
    q = p / (p - 1.0)
    corpus = [
        Measure((JacobiTerm(1.0, 1.0, 0.5),), ()),
        Measure((JacobiTerm(2.0, 0.25, 0.25),), (Atom(0.25, 1.0),)),
    ]
    for mu in corpus:
        v = classify_boundedness(mu, p)
        v_dual = classify_boundedness(reflected(mu), q)
        assert v.is_bounded and v_dual.is_bounded
        assert v_dual.norm == pytest.approx(v.norm, rel=1e-12)


def test_norm_scales_linearly_in_the_measure():
    mu = Measure((JacobiTerm(1.0, 1.0, 1.0),), (Atom(0.5, 0.5),))
    scaled = Measure(
        tuple(JacobiTerm(3.0 * t.coeff, t.alpha, t.beta) for t in mu.jacobi_terms),
        tuple(Atom(a.location, 3.0 * a.mass) for a in mu.atoms),
    )
    for p in (1.0, 2.0, math.inf):
        assert classify_boundedness(scaled, p).norm == pytest.approx(
            3.0 * classify_boundedness(mu, p).norm, rel=1e-13
        )


def test_bounded_verdicts_dominate_truncated_applies():
    rng = np.random.default_rng(4)
    corpus = [
        (LEBESGUE, 2.0),
        (Measure((JacobiTerm(1.0, 1.0, 1.0),), (Atom(1.0, 2.0),)), 1.0),
        (Measure((), (Atom(0.5, 1.0),)), 3.0),
    ]
    for mu, p in corpus:
        v = classify_boundedness(mu, p)
        assert v.is_bounded
        for _ in range(4):
            a = SequenceVector(rng.random(int(rng.integers(1, 40))))
            image = apply_truncated(mu, a, 128)
            assert lp_norm(image.values, p) <= v.norm * lp_norm(a.values, p) + 1e-9


def test_verdict_is_the_closed_interval_integral():
    # Endpoint atoms included, the operator is bounded iff the sharp-norm
    # integral over [0,1] is finite, and that integral is the norm.
    rng = np.random.default_rng(6)
    endpoint_sets = ((0.0,), (1.0,), (0.0, 1.0))
    formulas = set()
    for _ in range(200):
        base = random_interior_measure(rng)
        ends = endpoint_sets[int(rng.integers(len(endpoint_sets)))]
        mu = Measure(
            base.jacobi_terms,
            base.atoms + tuple(Atom(t, float(rng.uniform(0.1, 2.0))) for t in ends),
        )
        for p in (1.0, 1.5, 2.0, 3.0, math.inf, float(rng.uniform(1.0, 8.0))):
            v = classify_boundedness(mu, p)
            value = beta_kernel_integral(mu, -1.0 / p, 1.0 / p - 1.0)
            assert v.is_bounded == math.isfinite(value)
            if v.is_bounded:
                assert v.norm == value
                formulas.add(v.formula_used)
    assert formulas == {"P1_WithAtomAtOne", "PInf_WithAtomAtZero"}


# -------------------------------------------------------------- NormVerdict


def test_verdict_requires_exactly_one_of_norm_and_reason():
    with pytest.raises(ValueError):
        NormVerdict(2.0)
    with pytest.raises(ValueError):
        NormVerdict(2.0, norm=1.0, reason="DivergentIntegral")
    with pytest.raises(ValueError):
        NormVerdict(2.0, norm=math.inf)


def test_verdict_serialization_keys(lebesgue):
    doc = verdict_to_dict(classify_boundedness(lebesgue, 2.0))
    assert doc == {
        "status": "bounded",
        "norm": pytest.approx(math.pi, rel=1e-15),
        "formula_used": "Interior_Np",
        "p": 2.0,
    }
    doc = verdict_to_dict(classify_boundedness(lebesgue, math.inf))
    assert doc == {"status": "unbounded", "reason": "DivergentIntegral", "p": "inf"}
    assert json.loads(verdict_to_json(classify_boundedness(lebesgue, 2.0)))["status"] == "bounded"
