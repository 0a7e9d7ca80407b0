"""Measure representation, Beta-kernel integrals, schema parsing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from genhilbert import (
    Atom,
    JacobiTerm,
    LEBESGUE,
    Measure,
    MeasureFormatError,
    beta_kernel_integral,
    measure_to_json,
    parse_measure,
    reflected,
    total_mass,
)

# ---------------------------------------------------------------- validation


def test_jacobi_term_rejects_nonintegrable_exponents():
    with pytest.raises(ValueError):
        JacobiTerm(1.0, -1.5, 0.0)
    with pytest.raises(ValueError):
        JacobiTerm(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        JacobiTerm(0.0, 0.0, 0.0)


def test_atom_rejects_bad_location_and_mass():
    with pytest.raises(ValueError):
        Atom(-0.1, 1.0)
    with pytest.raises(ValueError):
        Atom(1.5, 1.0)
    with pytest.raises(ValueError):
        Atom(0.5, 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: JacobiTerm(math.inf, 0.0, 0.0),
        lambda: JacobiTerm(1.0, math.inf, 0.0),
        lambda: JacobiTerm(1.0, 0.0, math.inf),
        lambda: Atom(0.0, math.inf),
        lambda: Atom(0.5, math.inf),
    ],
    ids=["coeff", "alpha", "beta", "mass-at-0", "mass-at-half"],
)
def test_constructors_reject_infinite_parameters(make):
    # Accepted, they gave sections of inf, a sigma of 0.0 and nan norms.
    with pytest.raises(ValueError, match="finite"):
        make()


def test_measure_rejects_duplicate_atom_locations():
    with pytest.raises(ValueError):
        Measure((), (Atom(0.5, 1.0), Atom(0.5, 2.0)))


def test_zero_measure_is_valid(zero_measure):
    assert total_mass(zero_measure) == 0.0


# ------------------------------------------------------------------ integrals


def test_total_mass_lebesgue_is_one(lebesgue):
    assert total_mass(lebesgue) == 1.0


def test_total_mass_atom_is_its_mass():
    assert total_mass(Measure((), (Atom(0.5, 3.0),))) == 3.0


def test_total_mass_parabolic_density(parabolic):
    # oracle: numeric quadrature of t(1-t) on (0,1)
    ref, err = quad(lambda t: t * (1.0 - t), 0.0, 1.0)
    assert err < 1e-12
    assert total_mass(parabolic) == pytest.approx(ref, rel=1e-12)
    assert total_mass(parabolic) == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize(
    "a,b",
    [(0.0, 0.0), (-0.5, -0.5), (1.0, 2.0), (-0.9, 0.3), (0.25, -0.75), (-0.5, 3.5)],
)
def test_lebesgue_kernel_integral_matches_quadrature(lebesgue, a, b):
    got = beta_kernel_integral(lebesgue, a, b)
    ref, _ = quad(lambda t: t**a * (1.0 - t) ** b, 0.0, 1.0, points=[0.5], limit=200)
    assert got == pytest.approx(ref, rel=1e-8)


def test_half_circle_value(lebesgue):
    # B(1/2, 1/2) = pi
    assert beta_kernel_integral(lebesgue, -0.5, -0.5) == pytest.approx(math.pi, rel=1e-15)


@pytest.mark.parametrize(
    "a,b",
    [(-1.0, 0.0), (0.0, -1.0), (-2.0, 0.0), (-1.0, -1.0)],
)
def test_divergent_exponents_detected_symbolically(lebesgue, a, b):
    assert beta_kernel_integral(lebesgue, a, b) == math.inf


def test_divergence_beats_large_finite_parts():
    mu = Measure((JacobiTerm(1e300, 1.0, 1.0), JacobiTerm(1.0, 0.0, 0.0)), ())
    assert beta_kernel_integral(mu, -1.0, 0.0) == math.inf


def test_interior_atom_contributes_pointwise():
    mu = Measure((), (Atom(0.3, 2.0),))
    got = beta_kernel_integral(mu, -0.5, 1.5)
    assert got == pytest.approx(2.0 * 0.3**-0.5 * 0.7**1.5, rel=1e-14)


def test_dyadic_atom_kernel_is_exact(delta_half):
    assert beta_kernel_integral(delta_half, -0.5, -0.5) == 2.0


class TestEndpointAtomFlags:
    """Endpoint atoms always count, with 0**0 = 1, and diverge under an infinite kernel."""

    def test_atom_at_zero_with_positive_exponent_vanishes(self):
        mu = Measure((), (Atom(0.0, 3.0),))
        assert beta_kernel_integral(mu, 2.0, -4.0) == 0.0

    def test_atom_at_zero_with_zero_exponent_counts_mass(self):
        mu = Measure((), (Atom(0.0, 3.0),))
        assert beta_kernel_integral(mu, 0.0, -4.0) == 3.0

    def test_atom_at_zero_with_negative_exponent_diverges(self):
        mu = Measure((), (Atom(0.0, 3.0),))
        assert beta_kernel_integral(mu, -0.5, 0.0) == math.inf

    def test_atom_at_one_mirrors(self):
        mu = Measure((), (Atom(1.0, 7.0),))
        assert beta_kernel_integral(mu, -4.0, 0.0) == 7.0
        assert beta_kernel_integral(mu, 0.0, -0.1) == math.inf


def test_total_mass_equals_full_kernel_integral():
    mu = Measure(
        (JacobiTerm(1.0, 1.0, 1.0), JacobiTerm(0.5, -0.5, 0.25)),
        (Atom(0.0, 1.0), Atom(0.5, 2.0), Atom(1.0, 3.0)),
    )
    assert total_mass(mu) == beta_kernel_integral(mu, 0.0, 0.0)
    density = 1.0 / 6.0 + 0.5 * math.gamma(0.5) * math.gamma(1.25) / math.gamma(1.75)
    assert total_mass(mu) == pytest.approx(density + 1.0 + 2.0 + 3.0, rel=1e-14)


# ----------------------------------------------------------------- overflow


@pytest.mark.parametrize(
    "mu,a,b",
    [
        (Measure((JacobiTerm(1e308, 0.0, 0.0),), (Atom(0.5, 1e308),)), -0.5, -0.5),
        # 5e-324**-1 = 2**1074 is finite in exact arithmetic but not in float64.
        (Measure((), (Atom(5e-324, 1.0),)), -1.0, 0.0),
    ],
    ids=["huge-masses", "subnormal-atom"],
)
def test_overflowing_convergent_integral_is_an_error_not_divergence(mu, a, b):
    with pytest.raises(ValueError, match="float64 range"):
        beta_kernel_integral(mu, a, b)


def test_divergence_is_still_inf_when_parts_would_overflow():
    mu = Measure((JacobiTerm(1e308, 0.0, 0.0),), (Atom(0.5, 1e308), Atom(1.0, 1.0)))
    assert beta_kernel_integral(mu, -0.5, -0.5) == math.inf


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-0.9, 3.0),
    b=st.floats(-0.9, 3.0),
    coeff=st.floats(0.1, 5.0),
    loc=st.floats(0.05, 0.95),
    mass=st.floats(0.1, 5.0),
)
def test_enlarging_a_measure_never_decreases_the_integral(a, b, coeff, loc, mass):
    base = Measure((JacobiTerm(1.0, 0.5, 0.5),), ())
    more_density = Measure(base.jacobi_terms + (JacobiTerm(coeff, 0.0, 0.0),), ())
    more_atoms = Measure(base.jacobi_terms, (Atom(loc, mass),))
    v0 = beta_kernel_integral(base, a, b)
    assert beta_kernel_integral(more_density, a, b) >= v0
    assert beta_kernel_integral(more_atoms, a, b) >= v0


# ------------------------------------------------------------------- parsing


def test_parse_lebesgue():
    mu = parse_measure('{"jacobi":[{"coeff":1,"alpha":0,"beta":0}],"atoms":[]}')
    assert mu == LEBESGUE


def test_parse_pure_atom():
    mu = parse_measure('{"jacobi":[],"atoms":[{"t":1.0,"mass":2.0}]}')
    assert mu == Measure((), (Atom(1.0, 2.0),))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[]", "$"),
        ('{"jacobi":[]}', "atoms"),
        ('{"atoms":[]}', "jacobi"),
        ('{"jacobi":[{"coeff":1,"alpha":-1.5,"beta":0}],"atoms":[]}', "$.jacobi[0].alpha"),
        ('{"jacobi":[{"coeff":-1,"alpha":0,"beta":0}],"atoms":[]}', "$.jacobi[0].coeff"),
        ('{"jacobi":[{"coeff":1,"beta":0}],"atoms":[]}', "alpha"),
        ('{"jacobi":[],"atoms":[{"t":2.0,"mass":1}]}', "$.atoms[0].t"),
        ('{"jacobi":[],"atoms":[{"t":0.5,"mass":0}]}', "$.atoms[0].mass"),
        ('{"jacobi":[],"atoms":[{"t":0.5,"mass":1},{"t":0.5,"mass":2}]}', "$.atoms[1].t"),
        ('{"jacobi":[],"atoms":[{"t":"x","mass":1}]}', "$.atoms[0].t"),
        ("not json", "$"),
        # json.loads accepts these tokens; the schema does not
        ('{"jacobi":[{"coeff":Infinity,"alpha":0,"beta":0}],"atoms":[]}', "$.jacobi[0].coeff"),
        ('{"jacobi":[{"coeff":1,"alpha":Infinity,"beta":0}],"atoms":[]}', "$.jacobi[0].alpha"),
        ('{"jacobi":[{"coeff":1,"alpha":0,"beta":NaN}],"atoms":[]}', "$.jacobi[0].beta"),
        ('{"jacobi":[],"atoms":[{"t":0.5,"mass":Infinity}]}', "$.atoms[0].mass"),
        pytest.param(
            '{"jacobi":[],"atoms":[{"t":0.5,"mass":1%s}]}' % ("0" * 400),
            "$.atoms[0].mass",
            id="integer-beyond-float-range",
        ),
    ],
)
def test_parse_errors_carry_field_paths(text, fragment):
    with pytest.raises(MeasureFormatError) as err:
        parse_measure(text)
    assert fragment in str(err.value)


def test_measure_json_round_trip():
    mu = Measure(
        (JacobiTerm(0.5, -0.5, 2.0),),
        (Atom(0.0, 1.0), Atom(0.25, 0.5), Atom(1.0, 3.0)),
    )
    again = parse_measure(measure_to_json(mu))
    assert again == mu
    # serialized form is valid JSON with the documented keys
    doc = json.loads(measure_to_json(mu))
    assert set(doc) == {"jacobi", "atoms"}


# ---------------------------------------------------------------- reflection


def test_reflected_swaps_exponents_and_mirrors_atoms():
    mu = Measure((JacobiTerm(2.0, 1.0, -0.5),), (Atom(0.0, 1.0), Atom(0.25, 2.0)))
    r = reflected(mu)
    assert r.jacobi_terms == (JacobiTerm(2.0, -0.5, 1.0),)
    assert r.atom_at(1.0) == 1.0
    assert r.atom_at(0.75) == 2.0


def test_reflection_is_an_involution():
    # dyadic atom locations so that 1 - (1 - t) round-trips exactly
    mu = Measure((JacobiTerm(1.0, 0.5, 1.5),), (Atom(0.25, 1.0), Atom(1.0, 2.0)))
    assert reflected(reflected(mu)) == mu


def test_reflection_swaps_kernel_exponents():
    mu = Measure((JacobiTerm(1.0, 0.7, 1.1),), (Atom(0.2, 0.4),))
    lhs = beta_kernel_integral(mu, 0.25, 1.5)
    rhs = beta_kernel_integral(reflected(mu), 1.5, 0.25)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert total_mass(mu) == pytest.approx(total_mass(reflected(mu)), rel=1e-13)
