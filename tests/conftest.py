"""Shared fixtures: a measure corpus and seeded random helpers."""

import numpy as np
import pytest

from genhilbert import Atom, JacobiTerm, LEBESGUE, Measure


@pytest.fixture
def lebesgue():
    return LEBESGUE


@pytest.fixture
def delta_half():
    return Measure((), (Atom(0.5, 1.0),))


@pytest.fixture
def parabolic():
    """dmu = t(1-t) dt, the smooth base used across the endpoint corpus."""
    return Measure((JacobiTerm(1.0, 1.0, 1.0),), ())


@pytest.fixture
def zero_measure():
    return Measure((), ())


def random_interior_measure(rng: np.random.Generator) -> Measure:
    """Random Jacobi mixture plus interior atoms; never an endpoint atom."""
    terms = tuple(
        JacobiTerm(
            float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(-0.9, 2.0)),
            float(rng.uniform(-0.9, 2.0)),
        )
        for _ in range(int(rng.integers(1, 3)))
    )
    locations = rng.uniform(0.05, 0.95, size=int(rng.integers(0, 3)))
    atoms = tuple(Atom(float(t), float(rng.uniform(0.1, 2.0))) for t in sorted(locations))
    return Measure(terms, atoms)


# Small mixed corpus exercising every structural combination.
MIXED_CORPUS = (
    LEBESGUE,
    Measure((JacobiTerm(1.0, 1.0, 1.0),), ()),
    Measure((JacobiTerm(0.5, -0.5, 0.25),), ()),
    Measure((), (Atom(0.5, 1.0),)),
    Measure((JacobiTerm(1.0, 0.0, 0.0),), (Atom(0.25, 0.5), Atom(0.75, 2.0))),
    Measure((JacobiTerm(1.0, 2.0, 0.0),), (Atom(1.0, 5.0),)),
    Measure((JacobiTerm(1.0, 0.0, 0.0),), (Atom(0.0, 2.0),)),
    Measure((JacobiTerm(1.0, 1.0, 1.0),), (Atom(0.0, 1.0), Atom(1.0, 1.0))),
    Measure((), ()),
)

# Two Jacobi terms, the benchmark's mix2, and with an interior atom at 0.3 its mix-atom shape.
MIX2 = Measure((JacobiTerm(1.0, -0.5, 0.25), JacobiTerm(0.5, 0.5, -0.25)), ())
MIX_ATOM = Measure(MIX2.jacobi_terms, (Atom(0.3, 0.4),))

# The README's two-term measure: its picked plan at N = 300 is tiled, with
# several tile-terms at each of the transform lengths 256 and 512.
TWO_TERMS = Measure(
    (
        JacobiTerm(2.008275636674005, 1.4819280638927523, -0.15411454766890031),
        JacobiTerm(1.7657447699476374, -0.7452229680099001, 2.226491179858306),
    ),
    (),
)
