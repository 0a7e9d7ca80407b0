"""Boundedness verdicts and usage errors load neither numpy nor scipy.

Each check runs in a fresh interpreter, since this test process has long
since imported both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints, as the last stdout line, the array libraries loaded so far.
_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})))\n"
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
    out = run_fresh(f"import {module}\n" + _REPORT)
    assert json.loads(out.splitlines()[-1]) == []


def test_verdicts_and_usage_errors_load_no_array_library(tmp_path):
    files = {
        "leb.json": '{"jacobi": [{"coeff": 1, "alpha": 0, "beta": 0}], '
                    '"atoms": [{"t": 0.5, "mass": 2}]}',
        "endpoint.json": '{"jacobi": [], "atoms": [{"t": 1, "mass": 1}]}',
        "inf.json": '{"jacobi": [{"coeff": Infinity, "alpha": 0, "beta": 0}], "atoms": []}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    d = str(tmp_path)
    cases = [
        (["classify", "--measure", f"{d}/leb.json", "--p", "3"], 0),
        (["norm", "--measure", f"{d}/leb.json", "--p", "2", "--output", "csv"], 0),
        (["norm", "--measure", f"{d}/endpoint.json", "--p", "2"], 1),
        (["classify", "--p", "2"], 2),
        (["classify", "--measure", f"{d}/leb.json", "--p", "0.5"], 2),
        (["classify", "--measure", f"{d}/inf.json", "--p", "2"], 2),
        (["norm", "--measure", f"{d}/absent.json", "--p", "2"], 2),
    ]
    # The cases run in one interpreter; a library loaded by one case stays
    # loaded, so the report after each case covers every case before it.
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from genhilbert.cli import main
        quiet = io.StringIO()
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
            loaded = sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
            print(json.dumps([status, loaded]))
    """)
    out = run_fresh(code, json.dumps([argv for argv, _ in cases]))
    assert [json.loads(line) for line in out.splitlines()] == [[status, []] for _, status in cases]
