"""The package's nine records: construction, validation, value semantics, repr, pickling.

Each record is immutable, equal to another only of its own class with equal
fields, hashed as its field tuple, and printed as ``Class(field=value, ...)``;
the CLI prints a term's repr in its range errors.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from genhilbert import (
    Atom,
    CertificationReport,
    ExtremalParams,
    FiniteSection,
    JacobiTerm,
    LEBESGUE,
    Measure,
    NormVerdict,
    SequenceVector,
)
from genhilbert.operator import FFTPlan, fft_plan

VERDICT = NormVerdict(2.0, norm=math.pi, formula_used="Interior_Np")

# (record, its repr): one of each of the nine classes, and the defaults' forms.
REPRS = [
    (JacobiTerm(1, 0, 0), "JacobiTerm(coeff=1, alpha=0, beta=0)"),
    (JacobiTerm(1.0, -0.5, 0.25), "JacobiTerm(coeff=1.0, alpha=-0.5, beta=0.25)"),
    (Atom(0.5, 2), "Atom(location=0.5, mass=2)"),
    (LEBESGUE, "Measure(jacobi_terms=(JacobiTerm(coeff=1.0, alpha=0.0, beta=0.0),), atoms=())"),
    (Measure(), "Measure(jacobi_terms=(), atoms=())"),
    (
        Measure([JacobiTerm(1.0, 1.0, 1.0)], [Atom(0.0, 1.0)]),
        "Measure(jacobi_terms=(JacobiTerm(coeff=1.0, alpha=1.0, beta=1.0),), atoms=(Atom(location=0.0, mass=1.0),))",
    ),
    (VERDICT, "NormVerdict(p=2.0, norm=3.141592653589793, reason=None, formula_used='Interior_Np')"),
    (NormVerdict(math.inf, reason="X"), "NormVerdict(p=inf, norm=None, reason='X', formula_used=None)"),
    (FiniteSection(2, np.eye(2)), "FiniteSection(size=2, entries=array([[1., 0.],\n       [0., 1.]]))"),
    (SequenceVector([1.0, -2.0]), "SequenceVector(values=array([ 1., -2.]), nonneg=False)"),
    (SequenceVector([]), "SequenceVector(values=array([], dtype=float64), nonneg=True)"),
    (FFTPlan(3, 0, (), (), 0.0, 1.5), "FFTPlan(n_rows=3, n_cols=0, terms=(), tiles=(), c0=0.0, c1=1.5, scale=0)"),
    (FFTPlan(3, 0, (), (), 0.0, 1.5, 4), "FFTPlan(n_rows=3, n_cols=0, terms=(), tiles=(), c0=0.0, c1=1.5, scale=4)"),
    (ExtremalParams(2, 0.1, 8), "ExtremalParams(p=2.0, epsilon=0.1, length=8)"),
    (
        CertificationReport([[0.1, 8, 8, 1.0]], math.pi, [[8, 1.0], [16, 2.0]], VERDICT),
        "CertificationReport(ratios=((0.1, 8, 8, 1.0),), target=3.141592653589793, "
        "sigma_max_series=((8, 1.0), (16, 2.0)), verdict=NormVerdict(p=2.0, norm=3.141592653589793, "
        "reason=None, formula_used='Interior_Np'))",
    ),
]

# Records whose fields hold no array, so == and hash compare their values.
VALUE_RECORDS = [
    JacobiTerm(1.0, -0.5, 0.25),
    Atom(0.5, 2.0),
    Measure([JacobiTerm(1.0, 1.0, 1.0)], [Atom(0.0, 1.0), Atom(0.3, 0.4)]),
    VERDICT,
    FFTPlan(3, 0, (), (), 0.0, 1.5, 4),
    ExtremalParams(2.0, 0.1, 8),
    CertificationReport([[0.1, 8, 8, 1.0]], math.pi, [[8, 1.0]], VERDICT),
]


def _fields(record):
    return [getattr(record, name) for name in type(record).__slots__]


def _same(x, y) -> bool:
    """Equal fields, arrays (also inside an FFT plan's terms and tiles) compared by dtype and bytes."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    if isinstance(x, slice):
        return x == y
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, (FiniteSection, SequenceVector, FFTPlan)):
        return type(x) is type(y) and _same(tuple(_fields(x)), tuple(_fields(y)))
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("record,text", REPRS, ids=[text.split("(")[0] + str(i) for i, (_, text) in enumerate(REPRS)])
def test_repr_is_class_then_each_field(record, text):
    assert repr(record) == text


def test_range_errors_print_the_term_repr():
    from genhilbert import entry

    with pytest.raises(ValueError, match=r"^JacobiTerm\(coeff=1\.0, alpha=300\.0, beta=0\.0\) leaves the float64"):
        entry(Measure((JacobiTerm(1.0, 300.0, 0.0),), ()), 0, 400)


def test_positional_and_keyword_forms_and_defaults():
    assert JacobiTerm(coeff=1.0, alpha=0.5, beta=0.25) == JacobiTerm(1.0, 0.5, 0.25)
    assert Atom(mass=2.0, location=0.5) == Atom(0.5, 2.0)
    assert Measure() == Measure((), ()) == Measure(jacobi_terms=[], atoms=[])
    assert Measure([JacobiTerm(1.0, 0.0, 0.0)]) == LEBESGUE == Measure(atoms=(), jacobi_terms=LEBESGUE.jacobi_terms)
    # Lists become tuples, and the record is hashable.
    assert type(Measure([JacobiTerm(1.0, 0.0, 0.0)], []).jacobi_terms) is tuple
    assert NormVerdict(2.0, norm=1.0) == NormVerdict(2.0, 1.0, None, None)
    assert NormVerdict(p=2.0, reason="X").formula_used is None
    assert FiniteSection(size=1, entries=np.ones((1, 1))).size == 1
    assert FFTPlan(3, 0, (), (), 0.0, 1.5).scale == 0
    assert FFTPlan(n_rows=3, n_cols=0, terms=(), tiles=(), c0=0.0, c1=1.5, scale=2).scale == 2
    assert ExtremalParams(p="2", epsilon=0.1, length=8).p == 2.0
    report = CertificationReport(ratios=[[0.1, 8, 8, 1.0]], target=math.pi, sigma_max_series=[], verdict=VERDICT)
    assert report.ratios == ((0.1, 8, 8, 1.0),) and report.sigma_max_series == ()


def test_sequence_vector_derives_nonneg_and_takes_no_such_argument():
    assert SequenceVector([0.0, 1.0]).nonneg and not SequenceVector([0.0, -1.0]).nonneg
    assert SequenceVector(values=[2.0]).values.dtype == np.float64
    with pytest.raises(TypeError):
        SequenceVector([1.0], nonneg=True)
    with pytest.raises(TypeError):
        SequenceVector([1.0], True)
    assert len(SequenceVector([1.0, 2.0, 3.0])) == 3


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: JacobiTerm(0.0, 0.0, 0.0), "coeff must be finite and > 0, got 0.0"),
        (lambda: JacobiTerm(1.0, -1, 0.0), "alpha must be finite and > -1, got -1"),
        (lambda: JacobiTerm(1.0, 0.0, math.inf), "beta must be finite and > -1, got inf"),
        (lambda: Atom(1.5, 1.0), "atom location must lie in [0,1], got 1.5"),
        (lambda: Atom(0.5, math.nan), "atom mass must be finite and > 0, got nan"),
        (lambda: Measure((), (Atom(0.5, 1.0), Atom(0.5, 2.0))), "atom locations must be pairwise distinct, got [0.5, 0.5]"),
        (lambda: NormVerdict(2.0), "exactly one of norm and reason must be present"),
        (lambda: NormVerdict(2.0, norm=math.inf), "bounded verdict requires a finite nonnegative norm, got inf"),
        (lambda: SequenceVector(np.ones((2, 2))), "sequence values must be one-dimensional, got shape (2, 2)"),
        (lambda: ExtremalParams(0.5, 0.1, 8), "p must be a real >= 1 or inf, got '0.5'"),
        (lambda: ExtremalParams(math.inf, 0.1, 8), "extremal sequences are defined for finite p only"),
        (lambda: ExtremalParams(2.0, 0.6, 8), "epsilon must lie in (0, 1/p], got 0.6 at p=2.0"),
        (lambda: ExtremalParams(2.0, 0.1, 0), "length must be an integer >= 1, got 0"),
        (
            lambda: CertificationReport([(0.1, 8, 8, 4.0)], math.pi, (), VERDICT),
            "lower-bound ratio 4.0 exceeds analytic norm 3.141592653589793 (eps=0.1, K=8, N=8)",
        ),
        (
            lambda: CertificationReport((), math.pi, [(8, 4.0)], VERDICT),
            "sigma_max 4.0 exceeds analytic norm 3.141592653589793 (N=8)",
        ),
        (
            lambda: CertificationReport((), math.pi, [(8, 2.0), (16, 1.5)], VERDICT),
            "sigma_max series not nondecreasing: [2.0, 1.5]",
        ),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_equal_by_value_and_hash_equal_across_int_and_float():
    assert JacobiTerm(1, 0, 0) == JacobiTerm(1.0, 0.0, 0.0)
    assert hash(JacobiTerm(1, 0, 0)) == hash(JacobiTerm(1.0, 0.0, 0.0))
    assert hash(Atom(1, 2)) == hash(Atom(1.0, 2.0))
    mixed = Measure([JacobiTerm(1, 0, 0)], [Atom(0, 2)])
    assert mixed == Measure([JacobiTerm(1.0, 0.0, 0.0)], [Atom(0.0, 2.0)])
    assert hash(mixed) == hash(Measure([JacobiTerm(1.0, 0.0, 0.0)], [Atom(0.0, 2.0)]))
    assert hash(NormVerdict(2, norm=1)) == hash(NormVerdict(2.0, norm=1.0))
    assert len({ExtremalParams(2, 0.25, 8), ExtremalParams(2.0, 0.25, 8)}) == 1
    assert JacobiTerm(1.0, 0.0, 0.0) != JacobiTerm(1.0, 0.0, 0.5)
    assert Measure() != LEBESGUE


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_values_of_their_own_class_only(record):
    twin = copy.copy(record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert not (twin != record)
    fields = tuple(_fields(record))
    # Neither a tuple of the same values nor a record of another class is equal.
    assert record != fields and fields != record
    assert not isinstance(record, tuple)
    with pytest.raises(TypeError):
        iter(record)
    for other in VALUE_RECORDS:
        if type(other) is not type(record):
            assert record != other
    # FiniteSection has two fields, as Atom has.
    if isinstance(record, Atom):
        assert record != FiniteSection(record.location, record.mass)


def test_array_records_compare_as_their_fields_do():
    a = SequenceVector([1.0, 2.0])
    assert a == a and FiniteSection(1, np.ones((1, 1))) == FiniteSection(1, np.ones((1, 1)))
    with pytest.raises(ValueError, match="truth value"):
        a == SequenceVector([1.0, 2.0])
    for record in (a, FiniteSection(2, np.eye(2)), fft_plan(LEBESGUE, 4, 4)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("record", [r for r, _ in REPRS] + [fft_plan(LEBESGUE, 4, 4)], ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1.0


@pytest.mark.parametrize(
    "record",
    [r for r, _ in REPRS] + [fft_plan(Measure((JacobiTerm(1.0, 1.0, 0.0),), (Atom(1.0, 1.0),)), 8, 5)],
    ids=lambda r: type(r).__name__,
)
def test_pickle_and_deepcopy_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        assert _same(tuple(_fields(twin)), tuple(_fields(record)))
    if isinstance(record, FFTPlan) and record.n_cols:
        a = SequenceVector(np.arange(1.0, 6.0))
        twin = pickle.loads(pickle.dumps(record))
        assert _same(twin.apply(a, 2.0), record.apply(a, 2.0))
