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
from operator import attrgetter

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


class _Record:
    """Base of the package's immutable records, compared and hashed by their fields.

    A subclass names its fields once, in ``__slots__``, and its
    ``__init__`` validates the arguments and ends in one
    ``_Record.__init__(self, ...)`` call, which stores the field values in
    ``__slots__`` order; assigning or deleting a field afterwards raises
    ``AttributeError``.  Records are equal when they are of the same class
    and their field tuples are equal, and equal records hash equal, as
    their tuples do.  ``repr`` reads ``Class(field=value, ...)``, and pickling
    or copying restores the fields through the base's ``__init__`` alone,
    without the subclass's.  The
    base's ``__eq__`` and ``__hash__`` read the fields through one
    ``attrgetter`` per class, which returns a tuple since every record has
    at least two fields, and its ``__init__`` writes them through their
    slots' descriptors.  ``JacobiTerm``, ``Atom`` and ``Measure``, hashed
    and compared on every memo lookup, spell out their field tuples
    instead, which takes half to three quarters of the time.
    """

    __slots__ = ()

    def __init__(self, *values):
        for set_field, value in zip(self._field_setters, values):
            set_field(self, value)

    def __init_subclass__(cls):
        cls._field_values = attrgetter(*cls.__slots__)
        # The slots' own descriptors write past the read-only __setattr__.
        cls._field_setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._field_values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return _restore, (self.__class__, self._field_values(self))


def _restore(cls, values):
    """The record of class ``cls`` with field values ``values``, as pickled by ``_Record.__reduce__``."""
    record = object.__new__(cls)
    _Record.__init__(record, *values)
    return record


class JacobiTerm(_Record):
    """Density term ``coeff * t**alpha * (1-t)**beta`` on (0,1).

    Requires finite ``coeff > 0`` and ``alpha, beta > -1`` so the term has finite mass.
    """

    __slots__ = ("coeff", "alpha", "beta")

    def __init__(self, coeff: float, alpha: float, beta: float):
        if not 0 < coeff < math.inf:
            raise ValueError(f"coeff must be finite and > 0, got {coeff!r}")
        if not -1 < alpha < math.inf:
            raise ValueError(f"alpha must be finite and > -1, got {alpha!r}")
        if not -1 < beta < math.inf:
            raise ValueError(f"beta must be finite and > -1, got {beta!r}")
        _Record.__init__(self, coeff, alpha, beta)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coeff, self.alpha, self.beta) == (other.coeff, other.alpha, other.beta)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.alpha, self.beta))


class Atom(_Record):
    """Point mass ``mass`` at ``location`` in [0,1]."""

    __slots__ = ("location", "mass")

    def __init__(self, location: float, mass: float):
        if not 0.0 <= location <= 1.0:
            raise ValueError(f"atom location must lie in [0,1], got {location!r}")
        if not 0 < mass < math.inf:
            raise ValueError(f"atom mass must be finite and > 0, got {mass!r}")
        _Record.__init__(self, location, mass)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.location, self.mass) == (other.location, other.mass)
        return NotImplemented

    def __hash__(self):
        return hash((self.location, self.mass))


class Measure(_Record):
    """Finite positive measure on [0,1]: Jacobi mixture plus distinct atoms.

    The empty measure (no terms, no atoms) is valid and induces the zero
    operator.  Measures key the process memo of FFT plans and sections,
    so each lookup hashes and compares one.
    """

    __slots__ = ("jacobi_terms", "atoms")

    def __init__(self, jacobi_terms: tuple[JacobiTerm, ...] = (), atoms: tuple[Atom, ...] = ()):
        jacobi_terms, atoms = tuple(jacobi_terms), tuple(atoms)
        locations = [a.location for a in atoms]
        if len(set(locations)) != len(locations):
            raise ValueError(f"atom locations must be pairwise distinct, got {locations}")
        _Record.__init__(self, jacobi_terms, atoms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.jacobi_terms, self.atoms) == (other.jacobi_terms, other.atoms)
        return NotImplemented

    def __hash__(self):
        return hash((self.jacobi_terms, self.atoms))

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
