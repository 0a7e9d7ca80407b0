"""The public names and the call forms the benchmark harness relies on."""

import importlib
import importlib.util
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import genhilbert

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_exported_name_resolves():
    modules = ["genhilbert"] + [
        f"genhilbert.{info.name}" for info in pkgutil.iter_modules(genhilbert.__path__)
    ]
    missing = []
    for module in modules:
        mod = importlib.import_module(module)
        names = getattr(mod, "__all__", ())
        missing += [f"{module}.{name}" for name in names if not hasattr(mod, name)]
    assert not missing


def test_benchmark_requests_and_oracle_call_forms():
    # One request of each kind, taken from the benchmark's own builders and
    # shrunk, plus the positional calls perfbench/oracle.py makes, so a
    # signature change that would break the benchmark fails here.
    if not WORKLOADS_PY.is_file():
        pytest.skip("perfbench/workloads.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    certify_reqs = workloads.build_requests("certify-p2", 1, 1.0)
    apply_reqs = workloads.build_requests("apply-lp", 1, 1.0)

    def first(requests, kind, shape=None):
        return next(r for r in requests if r["kind"] == kind and shape in (None, r["shape"]))

    run = workloads.InProcess()
    report = run(dict(first(certify_reqs, "sweep", "mix-atom"), sizes=[8, 16]))["report"]
    assert [n for _, _, n, _ in report.ratios] == [8, 16]
    assert [n for n, _ in report.sigma_max_series] == [8, 16]
    ratio = run(dict(first(apply_reqs, "ratio", "c07"), size=64))["ratio"]
    assert 0.0 < ratio < math.inf
    cross = run(dict(first(apply_reqs, "cross"), size=16))
    assert len(cross["truncated"]) == 16
    np.testing.assert_allclose(cross["quadrature"], cross["truncated"], rtol=1e-7)

    from genhilbert.kernel import finite_section
    from genhilbert.measure import LEBESGUE
    from genhilbert.operator import SequenceVector, hankel_fast_apply

    a = 1.0 / np.arange(1.0, 9.0)
    section = finite_section(LEBESGUE, 8).entries
    image = hankel_fast_apply(SequenceVector(a), 8).values
    np.testing.assert_allclose(image, section @ a, rtol=1e-13)
