"""One rule decides every report: each check passes exactly when
``within(residual, tolerance)``, with a null residual read as ``nan``, and the
report passes exactly when all its listed checks do, with exit code 0
exactly then.

A PSD check reports its violation (``algebra.psd_violation``), so
``choi_psd[t=...]`` fails on a Choi Hermitian defect that its signed
eigenvalue would hide.  The generator's validity is the listed check
``generating_functional``, so an invalid generator fails a check.  The
contract is checked on fixture inputs, on those two failures, on a
coproduct whose ``*`` defect fails its homomorphism check, on a failed
``guichardet`` precondition and on every recorded golden report.  An ``ast``
scan keeps every tolerance comparison of ``src/`` inside ``algebra.within``.
"""

import ast
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import cstarconv as cc
from cstarconv import cli
from cstarconv import io as schemas

from conftest import corrupted_generating_functional

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(cc.__file__).parent
TOL = 1e-9

# Functions on two points, with epsilon the evaluation at 0:
#   delta(e0) = e0 (x) e0 + (1 + 0.5i) e1 (x) e1
#   delta(e1) = e0 (x) e1 + e1 (x) e0 - 0.5i e1 (x) e1
# Coassociative, counital and unital, but delta(e1)* != delta(e1*): the
# star defect is 1, above the multiplicativity defect 0.56, so it is the
# homomorphism residual.  (Its smallest Choi eigenvalue is 0 and both Choi
# matrices have Hermitian defect 1.)
STAR_DEFECT = {
    "blocks": [1, 1],
    "mode": "hom",
    "delta": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [1, 0]], [[1, 0.5], [0, -0.5]]],
    "epsilon": [[[[1, 0]]], [[[0, 0]]]],
}
# A non-Hermitian functional on functions on Z_2: the Choi matrix of P_0.5
# has smallest eigenvalue 0.306 and Hermitian defect 0.338.
GAMMA_NON_HERMITIAN = {"dual_blocks": [[[[-1, 0.5]]], [[[1, 0]]]]}
# Does not vanish at the identity: the guichardet preconditions fail.
PSI_OFF_IDENTITY = {"group": "s3", "values": [[0.1, 0]] * 6}


def invalid_generator() -> dict:
    """A Hermitian generator on C*(S3) that vanishes at the unit but is not
    conditionally positive: one eigenvalue of a block off the counit's is -1e-2."""
    b = cli._resolve_bialgebra("dual:s3")
    gamma = corrupted_generating_functional(b, np.random.default_rng(0))
    return {"dual_blocks": [schemas.to_pairs(rho) for rho in gamma.dual_blocks]}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def assert_one_rule(report: dict, code: int) -> None:
    checks = report["checks"]
    for c in checks:
        residual = np.nan if c["residual"] is None else c["residual"]
        assert c["pass"] is bool(cc.within(residual, c["tolerance"])), c
    assert report["pass"] is all(c["pass"] for c in checks) is (code == 0)


CASES = {
    "validate": (GOLDEN, ["validate", "zn:4", "s3"]),
    "validate-star-defect": (None, ["validate", "star_defect.json"]),
    "evolve-zn2": (GOLDEN, ["evolve", "zn:2", "gamma_zn2.json", "--times", "0,0.5,1"]),
    "evolve-dual-s3": (GOLDEN, ["evolve", "dual:s3", "gamma_dual_s3.json"]),
    "evolve-non-hermitian": (None, ["evolve", "zn:2", "gamma.json", "--times", "0.5"]),
    "evolve-invalid-generator": (None, ["evolve", "dual:s3", "bad.json", "--times", "0"]),
    "guichardet-s3": (GOLDEN, ["guichardet", "s3", "psi_s3.json"]),
    "guichardet-preconditions": (None, ["guichardet", "s3", "psi.json"]),
}


@pytest.fixture
def repro_dir(tmp_path):
    (tmp_path / "star_defect.json").write_text(json.dumps(STAR_DEFECT))
    (tmp_path / "gamma.json").write_text(json.dumps(GAMMA_NON_HERMITIAN))
    (tmp_path / "bad.json").write_text(json.dumps(invalid_generator()))
    (tmp_path / "psi.json").write_text(json.dumps(PSI_OFF_IDENTITY))
    return tmp_path


@pytest.mark.parametrize("name", CASES)
def test_report_pass_is_the_library_verdict(name, repro_dir, monkeypatch):
    """The library's one verdict, ``within``, decides every check and the report."""
    cwd, argv = CASES[name]
    monkeypatch.chdir(cwd or repro_dir)
    code, report = run_cli(argv)
    assert_one_rule(report, code)


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("*.out.json")), ids=lambda p: p.name.removesuffix(".out.json")
)
def test_every_golden_report_keeps_the_one_rule(path):
    recorded = json.loads(path.read_text())
    assert_one_rule(json.loads(recorded["stdout"]), recorded["exit_code"])


def test_invalid_generator_fails_its_listed_check(repro_dir, monkeypatch):
    monkeypatch.chdir(repro_dir)
    code, out = run_cli(["evolve", "dual:s3", "bad.json", "--times", "0"])
    failing = [c for c in out["checks"] if not c["pass"]]
    assert [c["name"] for c in failing] == ["generating_functional"]
    assert failing[0]["residual"] == pytest.approx(1e-2, rel=1e-9)
    assert out["generating_functional"]["conditionally_positive"] is False
    assert out["norm_bound"] is None
    assert code == 1


def test_coproduct_with_a_star_defect_fails_the_homomorphism_law(repro_dir, monkeypatch):
    monkeypatch.chdir(repro_dir)
    b = schemas.load_bialgebra("star_defect.json")
    assert b.star_residual() == 1.0
    report = cc.validate_bialgebra(b)
    assert report.hom_residual == 1.0
    assert [bool(cc.within(r, TOL)) for _, r in report.checks()] == [True] * 4 + [False]

    code, out = run_cli(["validate", "star_defect.json"])
    checks = {c["name"]: c for c in out["checks"]}
    hom = checks["bialgebra[star_defect.json]:coproduct_homomorphism"]
    assert hom["residual"] == 1.0 and hom["pass"] is False
    assert code == 1


def test_evolve_choi_check_fails_on_a_hermitian_defect(repro_dir, monkeypatch):
    """The residual is the Hermitian defect 0.338, which the signed smallest
    Choi eigenvalue 0.306 of the report body would hide."""
    monkeypatch.chdir(repro_dir)
    code, out = run_cli(["evolve", "zn:2", "gamma.json", "--times", "0.5"])
    choi = next(c for c in out["checks"] if c["name"] == "choi_psd[t=0.5]")
    b = cli._resolve_bialgebra("zn:2")
    p_t = cc.associated_semigroup(b, schemas.load_functional(b.algebra, "gamma.json"))
    report = cc.is_completely_positive(p_t.operator_at(0.5), TOL)
    assert choi["residual"] == report.violation == pytest.approx(0.3384, abs=1e-4)
    assert choi["pass"] is False
    # every Choi eigenvalue is positive, so the violation is the Hermitian defect
    assert 0.3 < min(out["times"][0]["choi_min_eigenvalues"]) < choi["residual"]
    assert code == 1


TOLERANCES = {"tol", "DEFAULT_TOL", "_IRREP_TOL", "_STRUCT_TOL"}


def tolerance_gates(source: str) -> list[int]:
    """Line of each tolerance comparison, and of each ``allclose`` or ``isclose``
    call, outside the body of ``within``.

    A tolerance comparison is a ``Compare`` with an operand that is or
    contains one of the ``TOLERANCES`` names.
    """
    tree = ast.parse(source)
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == "within"
        for node in ast.walk(func)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {n.id for op in operands for n in ast.walk(op) if isinstance(n, ast.Name)}
            if names & TOLERANCES:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("allclose", "isclose"):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_tolerance_gate_is_within(path):
    assert tolerance_gates(path.read_text()) == [], path.name


def test_the_gate_scan_finds_planted_gates():
    planted = """
def within(residual, tol):
    return residual <= tol

def gates(x, v, m, tol):
    ok = within(x, tol) and within(abs(v), _IRREP_TOL * m)
    a = x <= tol
    b = abs(v) > _IRREP_TOL * m
    c = -tol <= x
    d = np.allclose(x, 1.0, atol=DEFAULT_TOL)
    e = isclose(x, v)
    f = x <= floor
    return ok, a, b, c, d, e, f
"""
    assert tolerance_gates(planted) == [7, 8, 9, 10, 11]


def _report_key_writers() -> dict[str, set[str | None]]:
    """Innermost enclosing function (``None`` at module level) of every write
    of each key in ``cli.py``: dict literal, keyword or subscript assignment."""
    tree = ast.parse(Path(cli.__file__).read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    writers: dict[str, set[str | None]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.keyword):
            keys = [node.arg]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice.value] if isinstance(node.slice, ast.Constant) else []
        else:
            continue
        scope = node
        while scope in parents and not isinstance(scope, ast.FunctionDef):
            scope = parents[scope]
        for key in keys:
            writers.setdefault(key, set()).add(getattr(scope, "name", None))
    return writers


def test_report_frame_and_check_entries_have_one_builder_each():
    """``_report`` alone writes a report's header and verdict; ``_check`` alone
    builds a check entry."""
    writers = _report_key_writers()
    assert writers["command"] == {"_report"}
    assert writers["seed"] == {"_report"}
    assert writers["pass"] == {"_report", "_check"}
    assert writers["tolerance"] == {"_report", "_check"}
    assert writers["residual"] == {"_check"}
