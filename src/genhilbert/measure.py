"""Measures on [0,1] represented as Jacobi-weight mixtures plus point masses.

A measure is a finite sum of absolutely continuous pieces with density
``coeff * t**alpha * (1-t)**beta`` on (0,1) and a finite list of atoms.
Every kernel integral the toolkit needs reduces to Beta-function values
against this family, so integrals are exact to machine precision and
divergence is decided by exponent comparison rather than by overflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "JacobiTerm",
    "Atom",
    "Measure",
    "MeasureFormatError",
    "LEBESGUE",
    "log_beta",
    "beta",
    "beta_kernel_integral",
    "total_mass",
    "parse_measure",
    "measure_to_dict",
    "measure_to_json",
    "reflected",
]


class MeasureFormatError(ValueError):
    """Raised when measure input violates the schema; message carries the field path."""


_LN2 = math.log(2.0)


@dataclass(frozen=True)
class JacobiTerm:
    """Density term ``coeff * t**alpha * (1-t)**beta`` on (0,1).

    Requires finite ``coeff > 0`` and ``alpha, beta > -1`` so the term has finite mass.
    """

    coeff: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 < self.coeff < math.inf:
            raise ValueError(f"coeff must be finite and > 0, got {self.coeff!r}")
        if not -1 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > -1, got {self.alpha!r}")
        if not -1 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > -1, got {self.beta!r}")


@dataclass(frozen=True)
class Atom:
    """Point mass ``mass`` at ``location`` in [0,1]."""

    location: float
    mass: float

    def __post_init__(self):
        if not 0.0 <= self.location <= 1.0:
            raise ValueError(f"atom location must lie in [0,1], got {self.location!r}")
        if not 0 < self.mass < math.inf:
            raise ValueError(f"atom mass must be finite and > 0, got {self.mass!r}")


@dataclass(frozen=True)
class Measure:
    """Finite positive measure on [0,1]: Jacobi mixture plus distinct atoms.

    The empty measure (no terms, no atoms) is valid and induces the zero
    operator.
    """

    jacobi_terms: tuple[JacobiTerm, ...] = field(default=())
    atoms: tuple[Atom, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "jacobi_terms", tuple(self.jacobi_terms))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        locations = [a.location for a in self.atoms]
        if len(set(locations)) != len(locations):
            raise ValueError(f"atom locations must be pairwise distinct, got {locations}")

    @property
    def interior_atoms(self) -> tuple[Atom, ...]:
        """Atoms strictly inside (0,1); the endpoint ones are rank one."""
        return tuple(a for a in self.atoms if 0.0 < a.location < 1.0)

    def atom_at(self, location: float) -> float:
        """Mass at an exact location (0.0 when absent)."""
        for a in self.atoms:
            if a.location == location:
                return a.mass
        return 0.0


#: The classical case: dmu = dt, yielding the Hilbert matrix 1/(n+k+1).
LEBESGUE = Measure((JacobiTerm(1.0, 0.0, 0.0),), ())


def log_beta(x: float, y: float) -> float:
    """ln B(x,y) via log-gamma; valid for x, y > 0 of any magnitude."""
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def beta(x: float, y: float) -> float:
    """B(x,y) = Gamma(x)Gamma(y)/Gamma(x+y).

    Evaluated directly while the three Gamma values and the quotient are
    finite (x + y below ~171), which keeps the error near 3 ulps; in log
    space beyond, where the exponential amplifies the rounding of the
    log-gamma sum.
    """
    try:
        value = math.gamma(x) * math.gamma(y) / math.gamma(x + y)
    except OverflowError:  # a Gamma value beyond the float range, e.g. x = 5e-324
        value = math.inf
    if math.isfinite(value):
        return value
    return math.exp(log_beta(x, y))


def beta_kernel_integral(mu: Measure, a: float, b: float) -> float:
    """Integral of ``t**a * (1-t)**b`` against ``mu`` over the closed interval [0,1].

    Endpoint atoms count with the convention 0**0 = 1.  Returns ``math.inf``
    when the integral diverges; that is decided by exponent comparison
    before any numeric evaluation.  A convergent integral whose value
    leaves the float64 range raises ``ValueError``, so an overflow is never
    mistaken for divergence.  Each Beta argument, such as ``a + alpha + 1``,
    is the correctly rounded sum (``math.fsum``), and the integral diverges
    where one is not positive.
    """
    arguments = [(math.fsum((a, t.alpha, 1.0)), math.fsum((b, t.beta, 1.0))) for t in mu.jacobi_terms]
    if any(not (x > 0.0 and y > 0.0) for x, y in arguments):
        return math.inf
    if (a < 0.0 and mu.atom_at(0.0)) or (b < 0.0 and mu.atom_at(1.0)):
        return math.inf
    # Every part is nonnegative, so the plain sum is accurate to one ulp per part.
    total = 0.0
    try:
        for term, (x, y) in zip(mu.jacobi_terms, arguments):
            total += term.coeff * beta(x, y)
        for atom in mu.atoms:
            t = atom.location
            if 0.0 < t < 1.0:
                # Base-2 log space keeps dyadic locations exact (log2 of 1/2
                # is exactly -1), e.g. the delta_{1/2} sharp norm comes out as
                # the closed-form 2.0 with no rounding residue.
                total += atom.mass * 2.0 ** (a * math.log2(t) + b * (math.log1p(-t) / _LN2))
            else:
                total += atom.mass * t**a * (1.0 - t) ** b
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise ValueError(
            f"the integral of t^{a} (1-t)^{b} converges but its value exceeds the float64 range"
        )
    return total


def total_mass(mu: Measure) -> float:
    """mu([0,1]): Beta-function masses of the density terms plus all atom masses."""
    return beta_kernel_integral(mu, 0.0, 0.0)


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise MeasureFormatError(f"{path}: {message}")


def _number(obj: dict, key: str, path: str) -> float:
    _require(key in obj, path, f"missing required key {key!r}")
    value = obj[key]
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{path}.{key}",
        f"expected a number, got {value!r}",
    )
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    _require(math.isfinite(number), f"{path}.{key}", f"expected a finite number, got {value!r}")
    return number


def parse_measure(text: str) -> Measure:
    """Parse the measure schema: ``{"jacobi": [{coeff,alpha,beta}], "atoms": [{t,mass}]}``.

    Both keys are required; arrays may be empty.  Violations raise
    :class:`MeasureFormatError` with the offending field path.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeasureFormatError(f"$: not valid JSON ({exc})") from exc
    _require(isinstance(obj, dict), "$", "expected an object")
    _require("jacobi" in obj, "$", "missing required key 'jacobi'")
    _require("atoms" in obj, "$", "missing required key 'atoms'")
    _require(isinstance(obj["jacobi"], list), "$.jacobi", "expected an array")
    _require(isinstance(obj["atoms"], list), "$.atoms", "expected an array")

    terms = []
    for i, item in enumerate(obj["jacobi"]):
        path = f"$.jacobi[{i}]"
        _require(isinstance(item, dict), path, "expected an object")
        coeff = _number(item, "coeff", path)
        alpha = _number(item, "alpha", path)
        bta = _number(item, "beta", path)
        _require(coeff > 0, f"{path}.coeff", f"must be > 0, got {coeff}")
        _require(alpha > -1, f"{path}.alpha", f"must be > -1, got {alpha}")
        _require(bta > -1, f"{path}.beta", f"must be > -1, got {bta}")
        terms.append(JacobiTerm(coeff, alpha, bta))

    atoms = []
    seen = {}
    for i, item in enumerate(obj["atoms"]):
        path = f"$.atoms[{i}]"
        _require(isinstance(item, dict), path, "expected an object")
        t = _number(item, "t", path)
        mass = _number(item, "mass", path)
        _require(0.0 <= t <= 1.0, f"{path}.t", f"must lie in [0,1], got {t}")
        _require(mass > 0, f"{path}.mass", f"must be > 0, got {mass}")
        if t in seen:
            raise MeasureFormatError(
                f"{path}.t: duplicate atom location {t} (first at $.atoms[{seen[t]}])"
            )
        seen[t] = i
        atoms.append(Atom(t, mass))

    return Measure(tuple(terms), tuple(atoms))


def measure_to_dict(mu: Measure) -> dict:
    """Inverse of the parse schema."""
    return {
        "jacobi": [
            {"coeff": term.coeff, "alpha": term.alpha, "beta": term.beta}
            for term in mu.jacobi_terms
        ],
        "atoms": [{"t": atom.location, "mass": atom.mass} for atom in mu.atoms],
    }


def measure_to_json(mu: Measure) -> str:
    return json.dumps(measure_to_dict(mu))


def reflected(mu: Measure) -> Measure:
    """Pushforward of ``mu`` under t -> 1-t (swaps alpha/beta and mirrors atoms)."""
    terms = tuple(JacobiTerm(t.coeff, t.beta, t.alpha) for t in mu.jacobi_terms)
    atoms = tuple(Atom(1.0 - a.location, a.mass) for a in mu.atoms)
    return Measure(terms, atoms)
