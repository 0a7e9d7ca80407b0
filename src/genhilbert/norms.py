"""Boundedness classification and exact operator norms on ell-p.

One criterion covers every measure: the operator is bounded on ell-p iff
the integral of t^(-1/p) (1-t)^(1/p-1) over the closed interval [0,1]
converges, and then that integral is the norm.  Endpoint atoms enter it
with the convention 0**0 = 1, so an atom at 0 is harmless only at
p=infinity and an atom at 1 only at p=1; the unbounded verdicts name the
atom that makes the integral diverge.
"""

from __future__ import annotations

import math

from .measure import Measure, _Record, beta_kernel_integral

__all__ = [
    "REASON_DIVERGENT_INTEGRAL",
    "REASON_ATOM_AT_ZERO_FINITE_P",
    "REASON_ATOM_AT_ONE_P_GT_1",
    "REASON_ATOM_AT_ONE_P_INF",
    "FORMULA_INTERIOR",
    "FORMULA_P1_ATOM_AT_ONE",
    "FORMULA_PINF_ATOM_AT_ZERO",
    "NormVerdict",
    "validate_p",
    "norm_integral",
    "classify_boundedness",
    "classical_constant",
    "verdict_to_dict",
    "verdict_to_json",
]

REASON_DIVERGENT_INTEGRAL = "DivergentIntegral"
REASON_ATOM_AT_ZERO_FINITE_P = "AtomAtZero_FiniteP"
REASON_ATOM_AT_ONE_P_GT_1 = "AtomAtOne_PGreaterThan1"
REASON_ATOM_AT_ONE_P_INF = "AtomAtOne_PInfinity"

FORMULA_INTERIOR = "Interior_Np"
FORMULA_P1_ATOM_AT_ONE = "P1_WithAtomAtOne"
FORMULA_PINF_ATOM_AT_ZERO = "PInf_WithAtomAtZero"


def validate_p(p: float | str) -> float:
    """Check that p, a number or its text, is a real >= 1 or inf; returns it as a float."""
    try:
        value = float(p)
    except ValueError:
        value = math.nan
    if not value >= 1.0:
        raise ValueError(f"p must be a real >= 1 or inf, got {str(p)!r}")
    return value


class NormVerdict(_Record):
    """Outcome of the boundedness decision for one (measure, p) pair.

    Exactly one of ``norm`` (bounded) and ``reason`` (unbounded) is set,
    and ``status`` follows from which; ``formula_used`` names the closed
    form behind a bounded norm.
    """

    __slots__ = ("p", "norm", "reason", "formula_used")

    def __init__(
        self, p: float, norm: float | None = None, reason: str | None = None, formula_used: str | None = None
    ):
        if (norm is None) == (reason is None):
            raise ValueError("exactly one of norm and reason must be present")
        if norm is not None and not (0.0 <= norm < math.inf):
            raise ValueError(f"bounded verdict requires a finite nonnegative norm, got {norm}")
        _Record.__init__(self, p, norm, reason, formula_used)

    @property
    def is_bounded(self) -> bool:
        return self.norm is not None

    @property
    def status(self) -> str:
        return "Bounded" if self.is_bounded else "Unbounded"


def norm_integral(mu: Measure, p: float) -> float:
    """Sharp-norm integral of t^{-1/p} (1-t)^{1/p-1} against a measure without endpoint atoms.

    Its finiteness decides boundedness on ell-p and its value is the
    operator norm; for p=infinity the kernel is 1/(1-t).  Returns math.inf
    when the integral diverges.
    """
    p = validate_p(p)
    if mu.atom_at(0.0) or mu.atom_at(1.0):
        raise ValueError(
            "norm_integral requires a measure without endpoint atoms; "
            "use classify_boundedness for the endpoint taxonomy"
        )
    return beta_kernel_integral(mu, -1.0 / p, 1.0 / p - 1.0)


def classify_boundedness(mu: Measure, p: float) -> NormVerdict:
    """Decide boundedness on ell-p and produce the exact norm when bounded.

    An endpoint atom under a kernel that is infinite there is reported by
    name (an atom at 0 for every finite p first, then an atom at 1 for
    every p > 1); everything else is the finiteness of one integral.
    """
    p = validate_p(p)
    a, b = -1.0 / p, 1.0 / p - 1.0
    c0, c1 = mu.atom_at(0.0), mu.atom_at(1.0)
    if c0 and a < 0.0:
        return NormVerdict(p, reason=REASON_ATOM_AT_ZERO_FINITE_P)
    if c1 and b < 0.0:
        reason = REASON_ATOM_AT_ONE_P_INF if math.isinf(p) else REASON_ATOM_AT_ONE_P_GT_1
        return NormVerdict(p, reason=reason)
    value = beta_kernel_integral(mu, a, b)
    if math.isinf(value):
        return NormVerdict(p, reason=REASON_DIVERGENT_INTEGRAL)
    if c1:
        formula = FORMULA_P1_ATOM_AT_ONE
    elif c0:
        formula = FORMULA_PINF_ATOM_AT_ZERO
    else:
        formula = FORMULA_INTERIOR
    return NormVerdict(p, norm=value, formula_used=formula)


def classical_constant(p: float) -> float:
    """Sharp constant pi/sin(pi/p) of the classical inequality; needs 1 < p < inf."""
    p = validate_p(p)
    if p == 1.0 or math.isinf(p):
        raise ValueError(
            f"classical constant undefined at p={p} (operator unbounded there)"
        )
    return math.pi / math.sin(math.pi / p)


def _p_token(p: float):
    return "inf" if math.isinf(p) else float(p)


def verdict_to_dict(verdict: NormVerdict) -> dict:
    """Serialization with keys status, norm or reason, formula_used, p."""
    out: dict = {"status": verdict.status.lower()}
    if verdict.norm is not None:
        out["norm"] = verdict.norm
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    if verdict.formula_used is not None:
        out["formula_used"] = verdict.formula_used
    out["p"] = _p_token(verdict.p)
    return out


def verdict_to_json(verdict: NormVerdict) -> str:
    import json

    return json.dumps(verdict_to_dict(verdict))


def parse_sequence_csv(text: str) -> tuple[list[float], float | None]:
    """The values and the header p, if any, of the sequence format.

    One value per line; blank lines and ``#`` comments are skipped, and a
    ``# p=<value>`` comment sets p.  Raises ``ValueError`` naming the line
    of a value that is not a finite number or of a bad p.  The standard
    library suffices, so a rejected file is reported before numpy loads;
    :func:`genhilbert.operator.sequence_from_csv` builds the vector.
    """
    p = None
    values = []
    for i, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("p="):
                try:
                    p = validate_p(body[2:].strip())
                except ValueError as exc:
                    raise ValueError(f"line {i + 1}: {exc}") from None
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"line {i + 1}: not a finite number: {line!r}")
        values.append(value)
    return values, p
