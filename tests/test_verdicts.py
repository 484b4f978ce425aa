"""Each report check takes its ``pass`` from the library predicate that decides it.

The CLI copies verdicts next to the residuals it prints; it does not derive
them a second time.  These tests rebuild every predicate from the library
and compare it with the report, on fixture inputs and on two inputs whose
Choi matrices are not Hermitian although their smallest Choi eigenvalue is
nonnegative.
"""

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest

import cstarconv as cc
from cstarconv import cli
from cstarconv import io as schemas

GOLDEN = Path(__file__).parent / "golden"
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


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def validate_verdicts(specs):
    verdicts = {}
    for label, b in cli._resolve_validate_targets(specs):
        report = cc.validate_bialgebra(b, TOL)
        axioms = {f"{label}:{name}": ok for name, _, ok in report.checks(TOL)}
        assert all(axioms.values()) == report.passes(TOL)
        verdicts.update(axioms)
    return verdicts


def evolve_verdicts(ref, gamma_path, times):
    b = cli._resolve_bialgebra(ref)
    gamma = schemas.load_functional(b.algebra, gamma_path)
    sg = cc.associated_semigroup(b, gamma)
    verdicts = {}
    if cc.generating_functional(b, gamma, TOL).valid:
        grid = cli._norm_bound_grid(8.0, cc.functional_norm(gamma), TOL)
        bound = cc.norm_continuity_bound(b, gamma, grid, TOL)
        verdicts["generator_norm_bound"] = bound.satisfied
    for t in times:
        tag = f"t={cli._fmt(t)}"
        verdicts[f"state[{tag}]"] = cc.state_check(sg.functional_at(t)).is_state(TOL)
        verdicts[f"choi_min_eig[{tag}]"] = cc.is_completely_positive(sg.operator_at(t), TOL).cp
    return verdicts


def guichardet_verdicts(group, psi_path):
    table, _ = cc.builtin_group(group)
    _, values = schemas.load_group_function(psi_path)
    cert = cc.guichardet_constant(table, values, TOL)
    verdicts = {name: ok for name, _, ok in cert.checks(TOL)}
    assert all(verdicts.values()) == cert.passes(TOL)
    return verdicts


CASES = {
    "validate": (GOLDEN, ["validate", "zn:4", "s3"], lambda: validate_verdicts(["zn:4", "s3"])),
    "validate-hyper": (None, ["validate", "hyper.json"], lambda: validate_verdicts(["hyper.json"])),
    "evolve-zn2": (
        GOLDEN,
        ["evolve", "zn:2", "gamma_zn2.json", "--times", "0,0.5,1"],
        lambda: evolve_verdicts("zn:2", "gamma_zn2.json", [0.0, 0.5, 1.0]),
    ),
    "evolve-dual-s3": (
        GOLDEN,
        ["evolve", "dual:s3", "gamma_dual_s3.json"],
        lambda: evolve_verdicts("dual:s3", "gamma_dual_s3.json", [1.0]),
    ),
    "evolve-non-hermitian": (
        None,
        ["evolve", "zn:2", "gamma.json", "--times", "0.5"],
        lambda: evolve_verdicts("zn:2", "gamma.json", [0.5]),
    ),
    "guichardet-s3": (
        GOLDEN,
        ["guichardet", "s3", "psi_s3.json"],
        lambda: guichardet_verdicts("s3", "psi_s3.json"),
    ),
}


@pytest.fixture
def repro_dir(tmp_path):
    (tmp_path / "hyper.json").write_text(json.dumps(HYPER))
    (tmp_path / "gamma.json").write_text(json.dumps(GAMMA_NON_HERMITIAN))
    return tmp_path


@pytest.mark.parametrize("name", CASES)
def test_report_pass_is_the_library_verdict(name, repro_dir, monkeypatch):
    cwd, argv, library = CASES[name]
    monkeypatch.chdir(cwd or repro_dir)
    code, report = run_cli(argv)
    verdicts = library()
    passes = {c["name"]: c["pass"] for c in report["checks"]}
    assert set(verdicts) <= set(passes)
    assert {k: passes[k] for k in verdicts} == verdicts
    assert (code == 0) == report["pass"]


def test_hyper_coproduct_with_a_choi_hermitian_defect_fails(repro_dir, monkeypatch):
    monkeypatch.chdir(repro_dir)
    b = schemas.load_bialgebra("hyper.json")
    assert cc.is_completely_positive(b.delta).hermitian_defects == (1.0, 1.0)
    report = cc.validate_bialgebra(b)
    assert report.cp_min_eig == 0.0 and report.cp_hermitian_defect == 1.0
    assert report.max_residual() == 1.0
    assert not report.passes(TOL)

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
