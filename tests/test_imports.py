"""Each subcommand loads only the array libraries its result needs.

Boundedness verdicts, usage errors and sizes over their caps load neither
numpy nor scipy; entries, sections, applies, certificates and checks load
numpy alone, whatever their exponents, atoms or route, since the library
imports scipy nowhere.  No run loads ``dataclasses``, and the package, its
verdicts and usage errors load no ``inspect`` either: the records derive
from one slotted base (``genhilbert.measure._Record``).  Each check runs in
a fresh interpreter, since this test process has long since imported them all.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ARRAY_LIBRARIES = ["numpy", "scipy"]

# Modules a cold verdict would pay for before any work: dataclasses and the
# inspect it imports (about 12 ms).  numpy imports inspect too.
RECORD_MACHINERY = ["dataclasses", "inspect"]

# Prints, as the last stdout line, which of the JSON list of top-level modules
# in sys.argv[1] are loaded so far.
_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & set(json.loads(sys.argv[1])))))\n"
)


def run_fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` by a fresh interpreter that imports ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "module",
    ["genhilbert", "genhilbert.measure", "genhilbert.norms", "genhilbert.errors", "genhilbert.rng"],
)
def test_standard_library_modules_import_without_array_libraries(module):
    out = run_fresh(f"import {module}\n" + _REPORT, json.dumps(ARRAY_LIBRARIES + RECORD_MACHINERY))
    assert json.loads(out.splitlines()[-1]) == []


# Runs each argv of the JSON list in sys.argv[1] through the CLI in this one
# interpreter and prints, per case, its exit status and which of the
# top-level modules in sys.argv[2] are loaded so far.
_RUN_CASES = textwrap.dedent("""
    import contextlib, io, json, sys
    from genhilbert.cli import main
    quiet = io.StringIO()
    watched = set(json.loads(sys.argv[2]))
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        loaded = sorted({m.split(".")[0] for m in sys.modules} & watched)
        print(json.dumps([status, loaded]))
""")


def run_cases(argvs, watched=ARRAY_LIBRARIES) -> list:
    """``[status, watched modules loaded]`` after each argv, all run in one fresh interpreter.

    A module loaded by one case stays loaded, so the report after each
    case covers every case before it.
    """
    out = run_fresh(_RUN_CASES, json.dumps(argvs), json.dumps(watched))
    return [json.loads(line) for line in out.splitlines()]


def write_files(root: Path, files: dict) -> str:
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return str(root)


def test_verdicts_and_usage_errors_load_no_array_library(tmp_path):
    d = write_files(tmp_path, {
        "leb.json": '{"jacobi": [{"coeff": 1, "alpha": 0, "beta": 0}], '
                    '"atoms": [{"t": 0.5, "mass": 2}]}',
        "endpoint.json": '{"jacobi": [], "atoms": [{"t": 1, "mass": 1}]}',
        "inf.json": '{"jacobi": [{"coeff": Infinity, "alpha": 0, "beta": 0}], "atoms": []}',
    })
    cases = [
        (["classify", "--measure", f"{d}/leb.json", "--p", "3"], 0),
        (["norm", "--measure", f"{d}/leb.json", "--p", "2", "--output", "csv"], 0),
        (["norm", "--measure", f"{d}/endpoint.json", "--p", "2"], 1),
        (["classify", "--p", "2"], 2),
        (["classify", "--measure", f"{d}/leb.json", "--p", "0.5"], 2),
        (["classify", "--measure", f"{d}/inf.json", "--p", "2"], 2),
        (["norm", "--measure", f"{d}/absent.json", "--p", "2"], 2),
    ]
    watched = ARRAY_LIBRARIES + RECORD_MACHINERY
    assert run_cases([argv for argv, _ in cases], watched) == [[status, []] for _, status in cases]


def test_sequence_file_errors_load_no_array_library(tmp_path):
    d = write_files(tmp_path, {
        "c07.json": '{"jacobi": [{"coeff": 1, "alpha": 1, "beta": 0}], "atoms": [{"t": 1, "mass": 1}]}',
        "bad.csv": "1\nabc\n",
        "nan.csv": "1\nnan\n0.5\n",
        "inf.csv": "1\ninf\n0.5\n",
        "header.csv": "# p=0.5\n1\n",
        "a.csv": "1\n0.5\n",
    })
    apply = ["apply", "--measure", f"{d}/c07.json", "--rows", "4", "--sequence"]
    cases = [
        (apply + [f"{d}/bad.csv"], 2),
        (apply + [f"{d}/nan.csv"], 2),
        (apply + [f"{d}/inf.csv"], 2),
        (apply + [f"{d}/header.csv"], 2),
        (apply + [f"{d}/absent.csv"], 2),
        # The fft route's measure check comes before the vector is built.
        (apply + [f"{d}/a.csv", "--route", "fft"], 1),
    ]
    assert run_cases([argv for argv, _ in cases]) == [[status, []] for _, status in cases]


def test_integer_exponent_work_loads_numpy_but_not_scipy(tmp_path):
    d = write_files(tmp_path, {
        "t1mt.json": '{"jacobi": [{"coeff": 1, "alpha": 1, "beta": 1}], "atoms": []}',
        "c07.json": '{"jacobi": [{"coeff": 1, "alpha": 1, "beta": 0}], "atoms": [{"t": 1, "mass": 1}]}',
        "cdt.json": '{"jacobi": [{"coeff": 3, "alpha": 0, "beta": 0}], "atoms": []}',
        "atom.json": '{"jacobi": [], "atoms": [{"t": 0.5, "mass": 1}]}',
        "a.csv": "".join(f"{1.0 / (i + 1) ** 0.6!r}\n" for i in range(64)),
    })
    certify = ["certify", "--p", "2", "--eps", "0.1", "--measure"]
    # Sizes over their caps are refused before numpy loads (exit 1).
    over_caps = [
        ["section", "--measure", f"{d}/cdt.json", "--N", "20000"],
        certify + [f"{d}/atom.json", "--N", "64,20000"],
        certify + [f"{d}/t1mt.json", "--N", f"64,{(1 << 22) + 1}"],
    ]
    assert run_cases(over_caps) == [[1, []]] * len(over_caps)
    cases = [
        (["entry", "--measure", f"{d}/t1mt.json", "--n", "17", "--k", "300"], 0),
        (["section", "--measure", f"{d}/t1mt.json", "--N", "40"], 0),
        (["apply", "--measure", f"{d}/c07.json", "--sequence", f"{d}/a.csv", "--rows", "64"], 0),
        (["apply", "--measure", f"{d}/cdt.json", "--sequence", f"{d}/a.csv", "--rows", "256",
          "--route", "fft", "--p", "2"], 0),
        (["hilbert-check", "--p", "3", "--trials", "50", "--seed", "11"], 0),
    ]
    assert run_cases([argv for argv, _ in cases]) == [[status, ["numpy"]] for _, status in cases]
    # Every record is built without dataclasses, on numpy's path too.
    assert run_cases([argv for argv, _ in cases], ["dataclasses"]) == [[status, []] for _, status in cases]


@pytest.mark.parametrize("case", ["interior-atom-entry", "quadrature-apply", "non-integer-entry"])
def test_work_that_needed_scipy_loads_numpy_alone(tmp_path, case):
    d = write_files(tmp_path, {
        "atom.json": '{"jacobi": [{"coeff": 1, "alpha": 0, "beta": 0}], "atoms": [{"t": 0.5, "mass": 2}]}',
        "half.json": '{"jacobi": [{"coeff": 1, "alpha": 0.5, "beta": 0}], "atoms": []}',
        "a.csv": "1\n0.5\n0.25\n",
    })
    argv = {
        "interior-atom-entry": ["entry", "--measure", f"{d}/atom.json", "--n", "5", "--k", "7"],
        "quadrature-apply": ["apply", "--measure", f"{d}/atom.json", "--sequence", f"{d}/a.csv",
                             "--rows", "8", "--route", "quadrature"],
        "non-integer-entry": ["entry", "--measure", f"{d}/half.json", "--n", "5", "--k", "7"],
    }[case]
    assert run_cases([argv]) == [[0, ["numpy"]]]
