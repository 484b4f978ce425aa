"""Golden guard: CLI reports agree with the recorded ones.

Keys, strings, booleans and exit codes must match exactly; every number must
agree within ``NUMBER_TOL`` absolute.  The commands run in-process from
``tests/golden`` so the input paths in the reports are stable.  To re-record
after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest

from cstarconv import cli

GOLDEN = Path(__file__).parent / "golden"
NUMBER_TOL = 1e-12

CASES = {
    "validate": ["--seed", "3", "validate", "zn:4", "s3", "d4", "q8"],
    "evolve_zn2": ["evolve", "zn:2", "gamma_zn2.json", "--times", "0,0.5,1"],
    "evolve_dual_s3": ["evolve", "dual:s3", "gamma_dual_s3.json"],
    "guichardet_s3": ["guichardet", "s3", "psi_s3.json"],
}


def run_case(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"exit_code": code, "stdout": out.getvalue()}


def assert_matches(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want), path
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isfinite(got) and abs(got - want) <= NUMBER_TOL, (
            f"{path}: {got!r} vs recorded {want!r}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    recorded = json.loads((GOLDEN / f"{name}.out.json").read_text())
    got = run_case(CASES[name])
    assert got["exit_code"] == recorded["exit_code"]
    assert_matches(json.loads(got["stdout"]), json.loads(recorded["stdout"]))


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out.json").write_text(json.dumps(run_case(argv), indent=1) + "\n")
