"""Generalized Hilbert matrices built from measures on [0,1].

The matrix entry at (n, k) is binom(n+k, k) times the integral of
(1-t)^n t^k against the measure; the classical Hilbert matrix 1/(n+k+1)
is the Lebesgue case.  The package computes entries and finite sections,
applies the operator to sequences, decides boundedness on ell-p with exact
sharp norms, and certifies those norms empirically from below.
"""

from .certify import (
    CertificationReport,
    ExtremalParams,
    convergence_sweep,
    extremal_sequence,
    lower_bound_ratio,
    p2_section_norm,
    report_to_csv,
    report_to_json,
)
from .errors import ConvergenceError, ResourceLimitError
from .kernel import (
    DEFAULT_SECTION_CAP,
    FiniteSection,
    entry,
    entry_block,
    finite_section,
    section_from_csv,
    section_from_json,
    section_to_csv,
    section_to_json,
)
from .measure import (
    LEBESGUE,
    Atom,
    JacobiTerm,
    Measure,
    MeasureFormatError,
    beta_kernel_integral,
    measure_to_dict,
    measure_to_json,
    parse_measure,
    reflected,
    total_mass,
)
from .norms import (
    NormVerdict,
    classical_constant,
    classify_boundedness,
    norm_integral,
    validate_p,
    verdict_to_dict,
    verdict_to_json,
)
from .operator import (
    HANKEL_CAP,
    SequenceVector,
    apply_truncated,
    apply_via_quadrature,
    hankel_fast_apply,
    lp_norm,
    row_series_value,
    sequence_from_csv,
    sequence_to_csv,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CertificationReport",
    "ConvergenceError",
    "DEFAULT_SECTION_CAP",
    "ExtremalParams",
    "FiniteSection",
    "HANKEL_CAP",
    "JacobiTerm",
    "LEBESGUE",
    "Measure",
    "MeasureFormatError",
    "NormVerdict",
    "ResourceLimitError",
    "SequenceVector",
    "SplitMix64",
    "apply_truncated",
    "apply_via_quadrature",
    "beta_kernel_integral",
    "classical_constant",
    "classify_boundedness",
    "convergence_sweep",
    "entry",
    "entry_block",
    "extremal_sequence",
    "finite_section",
    "hankel_fast_apply",
    "lower_bound_ratio",
    "lp_norm",
    "measure_to_dict",
    "measure_to_json",
    "norm_integral",
    "p2_section_norm",
    "parse_measure",
    "reflected",
    "report_to_csv",
    "report_to_json",
    "row_series_value",
    "section_from_csv",
    "section_from_json",
    "section_to_csv",
    "section_to_json",
    "sequence_from_csv",
    "sequence_to_csv",
    "total_mass",
    "validate_p",
    "verdict_to_dict",
    "verdict_to_json",
    "__version__",
]
