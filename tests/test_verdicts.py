"""One rule decides every report check: ``pass == within(residual, tolerance)``.

The three PSD checks (``choi_min_eig[t=...]``, ``coproduct_choi_min_eig`` and
``kernel_psd_after_shift``) print a signed smallest eigenvalue; their pass is
the library's PSD verdict, which also reads Hermitian defects.  The contract
is checked on fixture inputs and on two inputs whose Choi matrices are not
Hermitian although their smallest Choi eigenvalue is nonnegative.  An ``ast``
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

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(cc.__file__).parent
TOL = 1e-9

# Functions on two points in hyper mode, with epsilon the evaluation at 0:
#   delta(e0) = e0 (x) e0 + (1 + 0.5i) e1 (x) e1
#   delta(e1) = e0 (x) e1 + e1 (x) e0 - 0.5i e1 (x) e1
# Every axiom residual is 0, the smallest Choi eigenvalue is 0, and both
# Choi matrices have Hermitian defect 1.
HYPER = {
    "blocks": [1, 1],
    "mode": "hyper",
    "delta": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [1, 0]], [[1, 0.5], [0, -0.5]]],
    "epsilon": [[[[1, 0]]], [[[0, 0]]]],
}
# A non-Hermitian functional on functions on Z_2: the Choi matrix of P_0.5
# has smallest eigenvalue 0.306 and Hermitian defect 0.338.
GAMMA_NON_HERMITIAN = {"dual_blocks": [[[[-1, 0.5]]], [[[1, 0]]]]}
# Does not vanish at the identity: the guichardet preconditions fail.
PSI_OFF_IDENTITY = {"group": "s3", "values": [[0.1, 0]] * 6}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def is_psd_check(name: str) -> bool:
    return name.split(":")[-1].startswith(
        ("choi_min_eig[", "coproduct_choi_min_eig", "kernel_psd_after_shift")
    )


def validate_psd_verdicts(specs):
    return {
        f"{label}:{name}": ok
        for label, b in cli._resolve_validate_targets(specs)
        for name, _, ok in cc.validate_bialgebra(b, TOL).checks(TOL)
        if is_psd_check(name)
    }


def evolve_psd_verdicts(ref, gamma_path, times):
    b = cli._resolve_bialgebra(ref)
    sg = cc.associated_semigroup(b, schemas.load_functional(b.algebra, gamma_path))
    return {
        f"choi_min_eig[t={cli._fmt(t)}]": cc.is_completely_positive(sg.operator_at(t), TOL).cp
        for t in times
    }


def guichardet_psd_verdicts(group, psi_path):
    table, _ = cc.builtin_group(group)
    _, values = schemas.load_group_function(psi_path)
    try:
        cert = cc.guichardet_constant(table, values, TOL)
    except cc.PreconditionError:
        return {}
    return {name: ok for name, _, ok in cert.checks(TOL) if is_psd_check(name)}


CASES = {
    "validate": (
        GOLDEN,
        ["validate", "zn:4", "s3"],
        lambda: validate_psd_verdicts(["zn:4", "s3"]),
    ),
    "validate-hyper": (
        None,
        ["validate", "hyper.json"],
        lambda: validate_psd_verdicts(["hyper.json"]),
    ),
    "evolve-zn2": (
        GOLDEN,
        ["evolve", "zn:2", "gamma_zn2.json", "--times", "0,0.5,1"],
        lambda: evolve_psd_verdicts("zn:2", "gamma_zn2.json", [0.0, 0.5, 1.0]),
    ),
    "evolve-dual-s3": (
        GOLDEN,
        ["evolve", "dual:s3", "gamma_dual_s3.json"],
        lambda: evolve_psd_verdicts("dual:s3", "gamma_dual_s3.json", [1.0]),
    ),
    "evolve-non-hermitian": (
        None,
        ["evolve", "zn:2", "gamma.json", "--times", "0.5"],
        lambda: evolve_psd_verdicts("zn:2", "gamma.json", [0.5]),
    ),
    "guichardet-s3": (
        GOLDEN,
        ["guichardet", "s3", "psi_s3.json"],
        lambda: guichardet_psd_verdicts("s3", "psi_s3.json"),
    ),
    "guichardet-preconditions": (
        None,
        ["guichardet", "s3", "psi.json"],
        lambda: guichardet_psd_verdicts("s3", "psi.json"),
    ),
}


@pytest.fixture
def repro_dir(tmp_path):
    (tmp_path / "hyper.json").write_text(json.dumps(HYPER))
    (tmp_path / "gamma.json").write_text(json.dumps(GAMMA_NON_HERMITIAN))
    (tmp_path / "psi.json").write_text(json.dumps(PSI_OFF_IDENTITY))
    return tmp_path


@pytest.mark.parametrize("name", CASES)
def test_report_pass_is_the_library_verdict(name, repro_dir, monkeypatch):
    cwd, argv, library = CASES[name]
    monkeypatch.chdir(cwd or repro_dir)
    code, report = run_cli(argv)
    psd = library()
    checks = report["checks"]
    assert {c["name"] for c in checks if is_psd_check(c["name"])} == set(psd)
    for c in checks:
        if is_psd_check(c["name"]):
            assert c["pass"] is psd[c["name"]], c
        else:
            residual = np.nan if c["residual"] is None else c["residual"]
            assert c["pass"] is bool(cc.within(residual, c["tolerance"])), c
    assert (code == 0) == report["pass"] == all(c["pass"] for c in checks)


def test_hyper_coproduct_with_a_choi_hermitian_defect_fails(repro_dir, monkeypatch):
    monkeypatch.chdir(repro_dir)
    b = schemas.load_bialgebra("hyper.json")
    assert cc.is_completely_positive(b.delta).hermitian_defects == (1.0, 1.0)
    report = cc.validate_bialgebra(b)
    assert report.cp_min_eig == 0.0 and report.cp_hermitian_defect == 1.0
    assert [ok for *_, ok in report.checks(TOL)] == [True] * 4 + [False]

    code, out = run_cli(["validate", "hyper.json"])
    checks = {c["name"]: c for c in out["checks"]}
    choi = checks["bialgebra[hyper.json]:coproduct_choi_min_eig"]
    assert choi["residual"] == 0.0 and choi["pass"] is False
    assert code == 1


def test_evolve_choi_check_fails_on_a_hermitian_defect(repro_dir, monkeypatch):
    monkeypatch.chdir(repro_dir)
    code, out = run_cli(["evolve", "zn:2", "gamma.json", "--times", "0.5"])
    choi = next(c for c in out["checks"] if c["name"] == "choi_min_eig[t=0.5]")
    assert choi["residual"] > 0.3 and choi["pass"] is False
    assert min(out["times"][0]["choi_min_eigenvalues"]) == choi["residual"]
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
