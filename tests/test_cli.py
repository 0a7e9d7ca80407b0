"""End-to-end command-line behavior through in-process main()."""

import json
import math
import sys

import numpy as np
import pytest

from genhilbert import (
    Atom,
    JacobiTerm,
    LEBESGUE,
    Measure,
    SequenceVector,
    apply_truncated,
    classical_constant,
    entry,
    finite_section,
    measure_to_json,
    section_from_csv,
    section_from_json,
    sequence_to_csv,
)
from genhilbert import cli
from genhilbert.cli import main
from genhilbert.errors import HANKEL_CAP
from genhilbert.operator import fft_plan


@pytest.fixture
def lebesgue_file(tmp_path):
    path = tmp_path / "lebesgue.json"
    path.write_text(measure_to_json(LEBESGUE), encoding="utf-8")
    return str(path)


@pytest.fixture
def atom_zero_file(tmp_path):
    mu = Measure(LEBESGUE.jacobi_terms, (Atom(0.0, 1.0),))
    path = tmp_path / "atom0.json"
    path.write_text(measure_to_json(mu), encoding="utf-8")
    return str(path)


@pytest.fixture
def sequence_file(tmp_path):
    seq = SequenceVector(np.array([1.0, 0.5, 0.25, 0.125]))
    path = tmp_path / "seq.csv"
    path.write_text(sequence_to_csv(seq), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- entry


def test_entry_classical_value(capsys, lebesgue_file):
    code, out, _ = run(capsys, "entry", "--measure", lebesgue_file, "--n", "2", "--k", "3")
    assert code == 0
    assert float(out) == entry(LEBESGUE, 2, 3) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_entry_json_output(capsys, lebesgue_file):
    code, out, _ = run(
        capsys, "entry", "--measure", lebesgue_file, "--n", "0", "--k", "0",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out) == {"n": 0, "k": 0, "value": 1.0}


def test_entry_negative_index_is_usage_error(capsys, lebesgue_file):
    code, _, err = run(capsys, "entry", "--measure", lebesgue_file, "--n", "-1", "--k", "0")
    assert code == 2 and "error:" in err


def test_entry_beyond_the_atom_log_space_bound_is_domain_error(capsys, tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(measure_to_json(Measure((), (Atom(0.5, 1.0),))), encoding="utf-8")
    index = str(2**63 - 1)
    code, out, err = run(capsys, "entry", "--measure", str(path), "--n", index, "--k", index)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "log space" in err


# ------------------------------------------------------------------ section


def test_section_csv_round_trips_bitwise(capsys, lebesgue_file):
    code, out, _ = run(capsys, "section", "--measure", lebesgue_file, "--N", "6")
    assert code == 0
    parsed = section_from_csv(out)
    direct = np.array([[1.0 / (n + k + 1) for k in range(6)] for n in range(6)])
    np.testing.assert_array_equal(parsed.entries, direct)


def test_section_json_round_trips_bitwise(capsys, lebesgue_file):
    code, out, _ = run(capsys, "section", "--measure", lebesgue_file, "--N", "6", "--output", "json")
    assert code == 0
    parsed = section_from_json(out)
    assert parsed.size == 6
    np.testing.assert_array_equal(parsed.entries, finite_section(LEBESGUE, 6).entries)


def test_section_output_is_deterministic(capsys, lebesgue_file):
    _, first, _ = run(capsys, "section", "--measure", lebesgue_file, "--N", "8")
    _, second, _ = run(capsys, "section", "--measure", lebesgue_file, "--N", "8")
    assert first == second


def test_section_over_cap_is_domain_error(capsys, lebesgue_file):
    code, _, err = run(capsys, "section", "--measure", lebesgue_file, "--N", "1000000")
    assert code == 1 and "error:" in err


# -------------------------------------------------------------------- apply


def test_apply_truncated_route(capsys, lebesgue_file, sequence_file):
    code, out, _ = run(
        capsys, "apply", "--measure", lebesgue_file, "--sequence", sequence_file,
        "--rows", "5", "--p", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "# p=2.0"
    got = np.array([float(line) for line in out.splitlines()[1:]])
    want = apply_truncated(
        LEBESGUE, SequenceVector(np.array([1.0, 0.5, 0.25, 0.125])), 5
    ).values
    np.testing.assert_array_equal(got, want)


def test_apply_routes_agree(capsys, lebesgue_file, sequence_file):
    results = {}
    for route in ("truncated", "quadrature", "fft"):
        code, out, _ = run(
            capsys, "apply", "--measure", lebesgue_file, "--sequence", sequence_file,
            "--rows", "4", "--route", route, "--output", "json",
        )
        assert code == 0
        results[route] = np.array(json.loads(out)["values"])
    np.testing.assert_allclose(results["quadrature"], results["truncated"], rtol=1e-12)
    np.testing.assert_allclose(results["fft"], results["truncated"], rtol=1e-12)


def test_apply_fft_route_scales_to_c_dt(capsys, tmp_path, sequence_file):
    mu = Measure((JacobiTerm(3.0, 0.0, 0.0),), ())
    path = tmp_path / "three_dt.json"
    path.write_text(measure_to_json(mu), encoding="utf-8")
    code, out, _ = run(
        capsys, "apply", "--measure", str(path), "--sequence", sequence_file,
        "--rows", "4", "--route", "fft", "--output", "json",
    )
    assert code == 0
    a = SequenceVector(np.array([1.0, 0.5, 0.25, 0.125]))
    want = fft_plan(mu, 4, len(a)).apply(a, 2.0)[0].values
    np.testing.assert_array_equal(json.loads(out)["values"], want)
    want = apply_truncated(mu, a, 4).values
    np.testing.assert_allclose(json.loads(out)["values"], want, rtol=1e-12)


def test_apply_non_finite_sequence_is_usage_error(capsys, lebesgue_file, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1\nnan\n0.5\n", encoding="utf-8")
    code, _, err = run(
        capsys, "apply", "--measure", lebesgue_file, "--sequence", str(path), "--rows", "4"
    )
    assert code == 2 and "not a finite number" in err


@pytest.mark.parametrize("header", ["# p=0.5", "# p=nan", "# p=-3"])
def test_apply_invalid_p_header_is_usage_error(capsys, lebesgue_file, tmp_path, header):
    path = tmp_path / "bad_p.csv"
    path.write_text(header + "\n1.0\n", encoding="utf-8")
    code, out, err = run(
        capsys, "apply", "--measure", lebesgue_file, "--sequence", str(path), "--rows", "2"
    )
    assert code == 2 and out == ""
    assert "line 1: p must be a real >= 1 or inf" in err


def test_apply_fft_requires_classical_measure(capsys, atom_zero_file, sequence_file):
    code, _, err = run(
        capsys, "apply", "--measure", atom_zero_file, "--sequence", sequence_file,
        "--rows", "4", "--route", "fft",
    )
    assert code == 1 and "fft route" in err


# ------------------------------------------------------------ norm/classify


def test_norm_classical_p2(capsys, lebesgue_file):
    code, out, _ = run(capsys, "norm", "--measure", lebesgue_file, "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "bounded"
    assert doc["norm"] == pytest.approx(math.pi, rel=1e-15)
    assert doc["formula_used"] == "Interior_Np"


def test_norm_divergence_is_reported_in_band(capsys, lebesgue_file):
    code, out, _ = run(capsys, "norm", "--measure", lebesgue_file, "--p", "1")
    assert code == 0
    assert json.loads(out) == {"status": "unbounded", "reason": "DivergentIntegral", "p": 1.0}


def test_norm_rejects_endpoint_atoms(capsys, atom_zero_file):
    code, _, err = run(capsys, "norm", "--measure", atom_zero_file, "--p", "2")
    assert code == 1 and "error:" in err


def test_classify_handles_endpoint_atoms(capsys, atom_zero_file):
    code, out, _ = run(capsys, "classify", "--measure", atom_zero_file, "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["reason"]) == ("unbounded", "AtomAtZero_FiniteP")


def test_classify_p_inf_spelling(capsys, lebesgue_file):
    code, out, _ = run(capsys, "classify", "--measure", lebesgue_file, "--p", "inf")
    assert code == 0
    assert json.loads(out)["p"] == "inf"


def test_classify_csv_output(capsys, lebesgue_file):
    code, out, _ = run(
        capsys, "classify", "--measure", lebesgue_file, "--p", "2", "--output", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "status,bounded"


def test_norm_evaluates_the_integral_once(capsys, monkeypatch, tmp_path):
    from genhilbert import measure, norms

    calls = []

    def counted(*args):
        calls.append(args)
        return measure.beta_kernel_integral(*args)

    monkeypatch.setattr(norms, "beta_kernel_integral", counted)
    path = tmp_path / "m.json"
    path.write_text(measure_to_json(Measure((JacobiTerm(1.0, 1.0, 1.0),), (Atom(0.5, 1.0),))))
    for p in ("1", "2", "inf"):
        calls.clear()
        code, _, _ = run(capsys, "norm", "--measure", str(path), "--p", p)
        assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("subcommand", ["norm", "classify"])
@pytest.mark.parametrize(
    "text,p",
    [
        ('{"jacobi":[{"coeff":1e308,"alpha":0,"beta":0}],"atoms":[{"t":0.5,"mass":1e308}]}', "2"),
        ('{"jacobi":[],"atoms":[{"t":5e-324,"mass":1}]}', "1"),
        ('{"jacobi":[{"coeff":1,"alpha":2.2e-309,"beta":0}],"atoms":[]}', "1"),
    ],
    ids=["huge-masses", "subnormal-atom", "subnormal-exponent"],
)
def test_overflow_is_a_domain_error_not_divergence(capsys, tmp_path, subcommand, text, p):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run(capsys, subcommand, "--measure", str(path), "--p", p)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "float64 range" in err


# ------------------------------------------------------------------ certify


def test_certify_csv_table(capsys, lebesgue_file):
    code, out, _ = run(
        capsys, "certify", "--measure", lebesgue_file, "--p", "2",
        "--eps", "0.5,0.1", "--N", "4,8", "--quiet",
    )
    assert code == 0
    blocks = out.split("\n\n")
    assert blocks[0].splitlines()[0] == "epsilon,K,N,ratio"
    assert len(blocks[0].splitlines()) == 5  # header + 4 sweep cells
    assert blocks[1].splitlines()[0] == "N,sigma_max"


def test_certify_p2_beyond_the_dense_cap(capsys, lebesgue_file, tmp_path):
    argv = ["--p", "2", "--eps", "0.1", "--N", "4096,65536", "--output", "json", "--quiet"]
    code, out, _ = run(capsys, "certify", "--measure", lebesgue_file, *argv)
    assert code == 0
    series = json.loads(out)["sigma_max_series"]
    assert [row["N"] for row in series] == [4096, 65536]
    assert series[0]["sigma_max"] <= series[1]["sigma_max"] <= math.pi
    # An interior atom has no matrix-free apply: its sections stay capped.
    path = tmp_path / "atom.json"
    path.write_text(measure_to_json(Measure((), (Atom(0.5, 1.0),))), encoding="utf-8")
    code, out, err = run(capsys, "certify", "--measure", str(path), *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "exceeds cap" in err


def test_certify_large_p_on_a_huge_measure_stays_finite(capsys, tmp_path):
    # |image|**10 overflowed at 1e35 dt, and the ratio came out inf.
    path = tmp_path / "huge.json"
    path.write_text(measure_to_json(Measure((JacobiTerm(1e35, 0.0, 0.0),), ())), encoding="utf-8")
    argv = ["--p", "10", "--eps", "0.05", "--N", "64", "--output", "json", "--quiet"]
    code, out, _ = run(capsys, "certify", "--measure", str(path), *argv)
    assert code == 0
    (row,) = json.loads(out)["ratios"]
    assert 0.0 < row["ratio"] <= 1e35 * classical_constant(10.0)


def test_certify_progress_goes_to_stderr(capsys, lebesgue_file):
    _, out, err = run(
        capsys, "certify", "--measure", lebesgue_file, "--p", "3",
        "--eps", "0.1", "--N", "4",
    )
    assert "certifying" in err and "certifying" not in out


def test_certify_rejects_garbled_eps_list(capsys, lebesgue_file):
    with pytest.raises(SystemExit) as exc_info:
        main(["certify", "--measure", lebesgue_file, "--p", "2",
              "--eps", "0.5;0.1", "--N", "4"])
    assert exc_info.value.code == 2


# ------------------------------------------------------------- hilbert-check


def test_hilbert_check_classical_inequality_holds(capsys):
    code, out, _ = run(
        capsys, "hilbert-check", "--p", "2", "--trials", "40", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["violations"] == 0
    assert 0.0 < doc["max_ratio"] <= 1.0


def test_hilbert_check_seeded_runs_are_identical(capsys):
    args = ("hilbert-check", "--p", "3", "--trials", "10", "--seed", "123")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert json.loads(first)["seed"] == 123


def test_hilbert_check_rejects_endpoint_p(capsys):
    code, _, err = run(capsys, "hilbert-check", "--p", "1", "--trials", "5", "--seed", "1")
    assert code == 2 and "1 < p < inf" in err


def test_hilbert_check_terms_above_the_fft_cap_is_a_cap_error(capsys, monkeypatch):
    # The cap is checked before any trial draws its lists.
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_hilbert_check_trial", no_trial)
    argv = ["hilbert-check", "--p", "2", "--trials", "1", "--seed", "1", "--terms", str(HANKEL_CAP + 1)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"size {HANKEL_CAP + 1} exceeds cap {HANKEL_CAP}" in err


# --------------------------------------------------------------- exit codes


def test_missing_measure_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "entry", "--measure", str(tmp_path / "nope.json"), "--n", "0", "--k", "0"
    )
    assert code == 2 and "cannot read" in err


def test_malformed_measure_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "entry", "--measure", str(path), "--n", "0", "--k", "0")
    assert code == 2 and "error:" in err


def test_non_utf8_input_files_are_usage_errors(capsys, lebesgue_file, tmp_path):
    path = tmp_path / "utf16.bin"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, _, err = run(capsys, "classify", "--measure", str(path), "--p", "2")
    assert code == 2 and "cannot read measure file" in err
    code, _, err = run(
        capsys, "apply", "--measure", lebesgue_file, "--sequence", str(path), "--rows", "4"
    )
    assert code == 2 and "cannot read sequence file" in err


def test_entry_indices_beyond_intp_are_usage_errors(capsys, lebesgue_file):
    for n, k in [("100000000000000000000", "0"), ("0", str(sys.maxsize + 1))]:
        code, _, err = run(capsys, "entry", "--measure", lebesgue_file, "--n", n, "--k", k)
        assert code == 2 and "error:" in err
    code, out, _ = run(
        capsys, "entry", "--measure", lebesgue_file, "--n", str(sys.maxsize), "--k", "0"
    )
    assert code == 0 and float(out) == entry(LEBESGUE, sys.maxsize, 0)


def test_entry_at_the_largest_indices_names_the_true_diagonal(capsys, tmp_path):
    # n + k wrapped in intp: this printed inf with exit 0.
    index = str(sys.maxsize)
    for name, (alpha, beta) in (("half.json", (0.5, 0.25)), ("steep.json", (10.0, 10.0))):
        path = tmp_path / name
        path.write_text(measure_to_json(Measure((JacobiTerm(1.0, alpha, beta),), ())), encoding="utf-8")
        code, out, err = run(capsys, "entry", "--measure", str(path), "--n", index, "--k", index)
        if alpha < 1.0:
            assert code == 0 and 0.0 < float(out) < 1e-19, out
        else:
            assert code == 1 and out == "" and err.startswith("error:")
            assert f"n+k <= {2 * sys.maxsize}" in err


def test_unknown_flag_exits_two(lebesgue_file):
    with pytest.raises(SystemExit) as exc_info:
        main(["entry", "--measure", lebesgue_file, "--n", "0", "--k", "0", "--bogus"])
    assert exc_info.value.code == 2


def test_invalid_p_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["classify", "--measure", "x.json", "--p", "0.5"])
    assert exc_info.value.code == 2


def test_p_that_is_not_a_number_exits_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["classify", "--measure", "x.json", "--p", "abc"])
    assert exc_info.value.code == 2
    assert "p must be a real >= 1 or inf, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["section", "--N", "0"],
        ["certify", "--p", "2", "--eps", "0.1", "--N", "0"],
        ["certify", "--p", "2", "--eps", "0.1", "--N", "8,-4"],
        ["certify", "--p", "2", "--eps", "0.1", "--N", "8", "--tol", "0"],
        ["certify", "--p", "2", "--eps", "0.1", "--N", "8", "--tol", "nan"],
        ["hilbert-check", "--p", "2", "--trials", "0", "--seed", "1"],
        ["apply", "--sequence", "{seq}", "--rows", "0"],
        ["apply", "--sequence", "{seq}", "--rows", "-3"],
        ["certify", "--p", "2", "--eps", ",", "--N", "8"],
        ["certify", "--p", "2", "--eps", "0.1", "--N", ","],
        ["certify", "--p", "2", "--eps", "nan", "--N", "8"],
        ["certify", "--p", "2", "--eps", "0.1", "--N", "8", "--tol", "inf"],
    ],
)
def test_nonpositive_sizes_and_tolerances_exit_two(lebesgue_file, sequence_file, argv):
    if argv[0] != "hilbert-check":
        argv = [argv[0], "--measure", lebesgue_file, *argv[1:]]
    argv = [sequence_file if arg == "{seq}" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
