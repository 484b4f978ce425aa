"""Golden guard: CLI reports agree with the recorded ones.

Keys, strings, booleans and exit codes must match exactly; every number must
agree within ``NUMBER_TOL`` absolute.  The commands run in-process from
``tests/golden`` so the input paths in the reports are stable.  To re-record
after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py [NAME ...]``: it re-records the
named cases, or all of them when none is named, and exits 2 on an unknown
name.  Re-recording one case leaves the other files as they are, so their
last digits do not move with the CPU that runs it.

Bytes are fixed for one BLAS build and thread count.  Across thread counts
``test_reports_agree_across_blas_thread_counts`` pins the weaker contract on
``Z_256``: the same exit codes and verdicts, and numbers within
``NUMBER_TOL * max(1, |x|)``.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cstarconv as cc
from cstarconv import cli
from cstarconv import io as schemas
from cstarconv.sampling import random_generating_functional

GOLDEN = Path(__file__).parent / "golden"
NUMBER_TOL = 1e-12

CASES = {
    "validate": ["--seed", "3", "validate", "zn:4", "s3", "d4", "q8"],
    "evolve_zn2": ["evolve", "zn:2", "gamma_zn2.json", "--times", "0,0.5,1"],
    "evolve_dual_s3": ["evolve", "dual:s3", "gamma_dual_s3.json"],
    "guichardet_s3": ["guichardet", "s3", "psi_s3.json"],
    "guichardet_s3_not_cpd": ["guichardet", "s3", "psi_s3_spike.json"],
    "guichardet_s3_file_irreps": [
        "guichardet", "s3_table.json", "psi_s3_mixed.json", "--irreps", "s3_irreps.json"
    ],
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


def assert_matches(got, want, path="$", relative=False):
    """``NUMBER_TOL`` bounds each number's difference, scaled by
    ``max(1, |want|)`` when ``relative``."""
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}", relative)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]", relative)
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want), path
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        bound = NUMBER_TOL * (max(1.0, abs(want)) if relative else 1.0)
        assert math.isfinite(got) and abs(got - want) <= bound, (
            f"{path}: {got!r} vs recorded {want!r}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    recorded = json.loads((GOLDEN / f"{name}.out.json").read_text())
    got = run_case(CASES[name])
    assert got["exit_code"] == recorded["exit_code"]
    assert_matches(json.loads(got["stdout"]), json.loads(recorded["stdout"]))


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORDER = 256


def _run_with_threads(argv: list[str], threads: int, cwd) -> tuple[int, dict]:
    """``python -m cstarconv argv`` in a child whose environment alone sets
    the BLAS thread count."""
    env = os.environ | dict.fromkeys(THREAD_VARIABLES, str(threads))
    argv = [sys.executable, "-m", "cstarconv", *argv]
    result = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, env=env)
    assert result.returncode in (0, 1), result.stderr
    return result.returncode, json.loads(result.stdout)


@pytest.fixture(scope="module")
def zn_inputs(tmp_path_factory):
    """A seeded valid generator on functions on ``Z_256`` and ``psi = -(1 - delta_e)``."""
    folder = tmp_path_factory.mktemp("threads")
    b = cc.function_bialgebra(cc.cyclic_group(ORDER))
    gamma = random_generating_functional(b, np.random.default_rng(5))
    blocks = [schemas.to_pairs(blk) for blk in gamma.dual_blocks]
    (folder / "gamma.json").write_text(json.dumps({"dual_blocks": blocks}))
    values = [[0.0, 0.0]] + [[-1.0, 0.0]] * (ORDER - 1)
    (folder / "psi.json").write_text(json.dumps({"values": values}))
    return folder


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", f"zn:{ORDER}", "gamma.json", "--times", "0.5,2"],
        ["guichardet", f"zn:{ORDER}", "psi.json"],
    ],
    ids=["evolve", "guichardet"],
)
def test_reports_agree_across_blas_thread_counts(zn_inputs, argv):
    """Bytes are fixed for one BLAS thread count.  With 1 and 2 threads a
    BLAS may sum in another order, and only the last bits may move: the same
    exit code and verdicts, every number within ``NUMBER_TOL * max(1, |x|)``."""
    one_code, one = _run_with_threads(argv, 1, zn_inputs)
    two_code, two = _run_with_threads(argv, 2, zn_inputs)
    assert one_code == two_code
    verdicts = [[(c["name"], c["pass"]) for c in report["checks"]] for report in (one, two)]
    assert verdicts[0] == verdicts[1]
    assert_matches(two, one, relative=True)


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
