"""Golden guard: CLI reports agree with the recorded ones.

Keys, strings, booleans and exit codes must match exactly; every number must
agree within ``NUMBER_TOL`` absolute.  The commands run in-process from
``tests/golden`` so the input paths in the reports are stable.  To re-record
after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py [NAME ...]``: it re-records the
named cases, or all of them when none is named, and exits 2 on an unknown
name.  Re-recording one case leaves the other files as they are, so their
last digits do not move with the CPU that runs it.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
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


def test_recording_one_case_rewrites_only_its_file(tmp_path, monkeypatch):
    copy = tmp_path / "golden"
    copy.mkdir()
    for path in GOLDEN.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    (copy / "guichardet_s3.out.json").write_text("stale\n")
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", copy)
    assert record(["guichardet_s3"]) == 0
    for path in GOLDEN.iterdir():
        if path.name != "guichardet_s3.out.json":
            assert (copy / path.name).read_bytes() == path.read_bytes(), path.name
    rerecorded = json.loads((copy / "guichardet_s3.out.json").read_text())
    assert rerecorded == run_case(CASES["guichardet_s3"])


def test_recording_an_unknown_case_exits_nonzero_naming_the_cases():
    script = Path(__file__)
    result = subprocess.run(
        [sys.executable, str(script), "guichardet_s3", "no_such_case"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert "no_such_case" in result.stderr
    assert all(name in result.stderr for name in CASES)


def record(names: list[str]) -> int:
    """Re-record the named cases (all when ``names`` is empty); 2 on an unknown name."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case {', '.join(unknown)}; valid: {', '.join(CASES)}", file=sys.stderr)
        return 2
    for name in names or CASES:
        report = json.dumps(run_case(CASES[name]), indent=1)
        (GOLDEN / f"{name}.out.json").write_text(report + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(record(sys.argv[1:]))
