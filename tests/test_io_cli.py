import json
import math
import subprocess
import sys

import numpy as np
import pytest

import cstarconv as cc
from cstarconv import io as schemas


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cstarconv", *args],
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


def test_semigroup_schema_roundtrip(tmp_path):
    z3 = cc.cyclic_group(3)
    payload = {"order": 3, "identity": 0, "table": z3.table.tolist()}
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(payload))
    loaded = schemas.load_semigroup(path)
    assert np.array_equal(loaded.table, z3.table)
    assert loaded.identity == 0


def test_semigroup_schema_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "identity": 0, "table": [[0, 1], [1]]}))
    with pytest.raises(cc.SchemaError, match=r"table\[1\]"):
        schemas.load_semigroup(bad)
    bad.write_text(json.dumps({"order": 2, "identity": 0}))
    with pytest.raises(cc.SchemaError, match="missing key"):
        schemas.load_semigroup(bad)
    bad.write_text("{not json")
    with pytest.raises(cc.SchemaError, match="invalid JSON"):
        schemas.load_semigroup(bad)


def test_irrep_schema_roundtrip(tmp_path):
    irreps = cc.cyclic_irreps(3)
    payload = {
        "irreps": [
            {"dim": 1, "matrices": [schemas.complex_matrix_to_json(m) for m in stack]}
            for stack in irreps.matrices
        ]
    }
    path = tmp_path / "irreps.json"
    path.write_text(json.dumps(payload))
    loaded = schemas.load_irreps(path)
    loaded.validate(cc.cyclic_group(3))


def test_bialgebra_schema_roundtrip(tmp_path, z2_functions):
    b = z2_functions
    payload = {
        "blocks": list(b.algebra.blocks),
        "mode": "hom",
        "delta": schemas.complex_matrix_to_json(b.delta.matrix),
        "epsilon": [schemas.complex_matrix_to_json(blk) for blk in b.epsilon.dual_blocks],
    }
    path = tmp_path / "z2_bialgebra.json"
    path.write_text(json.dumps(payload))
    loaded = schemas.load_bialgebra(path)
    assert cc.validate_bialgebra(loaded).max_residual() == 0.0
    assert np.array_equal(loaded.delta.matrix, b.delta.matrix)


def test_functional_schema(tmp_path, z2_functions):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    gamma = schemas.load_functional(z2_functions.algebra, path)
    assert gamma(z2_functions.algebra.unit()) == 0.0
    path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]]]}))
    with pytest.raises(cc.SchemaError):
        schemas.load_functional(z2_functions.algebra, path)


def test_group_function_and_measure_schemas(tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"group": "zn:2", "values": [[0.0, 0.0], [-2.0, 0.0]]}))
    ref, values = schemas.load_group_function(path)
    assert ref == "zn:2"
    assert np.array_equal(values, np.array([0.0, -2.0]))
    path.write_text(json.dumps({"values": [[0.0, 0.0], ["x", 0.0]]}))
    with pytest.raises(cc.SchemaError, match=r"values\[1\]"):
        schemas.load_group_function(path)
    path.write_text(json.dumps({"monoid": "zn:2", "weights": [0.5, 0.5]}))
    ref, weights = schemas.load_measure(path)
    assert cc.is_probability(weights)


# ---------------------------------------------------------------------------
# CLI: exit codes and report content
# ---------------------------------------------------------------------------


def test_cli_validate_builtin_passes():
    result = run_cli("validate", "zn:4")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert any(name.startswith("functions[zn:4]") for name in names)
    assert any(name.startswith("group_cstar[zn:4]") for name in names)


def test_cli_validate_corrupted_delta(tmp_path, z2_functions):
    b = z2_functions
    delta = np.array(b.delta.matrix)
    delta[0, 1] += 1e-3
    payload = {
        "blocks": [1, 1],
        "mode": "hom",
        "delta": schemas.complex_matrix_to_json(delta),
        "epsilon": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]],
    }
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(payload))
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    report = json.loads(result.stdout)
    coassoc = [c for c in report["checks"] if "coassociativity" in c["name"]]
    assert coassoc and not coassoc[0]["pass"]
    assert coassoc[0]["residual"] >= 1e-4


def test_cli_validate_hyper_bialgebra_file(tmp_path):
    """A completely positive non-homomorphic coproduct passes in hyper mode."""
    # class structure of S3: {e}, transpositions, rotations
    k = np.zeros((3, 3, 3))
    k[0, 0, 0] = 1.0
    k[1, 0, 1] = k[1, 1, 0] = 1.0
    k[2, 0, 2] = k[2, 2, 0] = 1.0
    k[0, 1, 1], k[2, 1, 1] = 1.0 / 3.0, 2.0 / 3.0
    k[1, 1, 2] = k[1, 2, 1] = 1.0
    k[0, 2, 2], k[2, 2, 2] = 0.5, 0.5
    delta = np.zeros((9, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                delta[b * 3 + c, a] = k[a, b, c]
    payload = {
        "blocks": [1, 1, 1],
        "mode": "hyper",
        "delta": schemas.complex_matrix_to_json(delta),
        "epsilon": [[[[1.0, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]]],
    }
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(payload))
    result = run_cli("validate", str(path))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    choi = [c for c in report["checks"] if "choi" in c["name"]]
    assert choi and choi[0]["pass"]
    payload["mode"] = "hom"
    path.write_text(json.dumps(payload))
    result = run_cli("validate", str(path))
    assert result.returncode == 1


def test_cli_validate_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_cli_validate_semigroup_plus_irreps(tmp_path):
    z3 = cc.cyclic_group(3)
    (tmp_path / "z3.json").write_text(
        json.dumps({"order": 3, "identity": 0, "table": z3.table.tolist()})
    )
    irreps = cc.cyclic_irreps(3)
    (tmp_path / "irr.json").write_text(
        json.dumps(
            {
                "irreps": [
                    {"dim": 1, "matrices": [schemas.complex_matrix_to_json(m) for m in stack]}
                    for stack in irreps.matrices
                ]
            }
        )
    )
    result = run_cli("validate", str(tmp_path / "z3.json"), str(tmp_path / "irr.json"))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert any("group_cstar" in c["name"] for c in report["checks"])


def test_cli_evolve_two_state_flow(tmp_path):
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    result = run_cli("evolve", "zn:2", str(gamma_path), "--times", "0,1")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    flags = report["generating_functional"]
    assert flags["hermitian"] and flags["vanishes_at_unit"] and flags["conditionally_positive"]
    at_zero, at_one = report["times"]
    assert at_zero["dual_blocks"][1][0][0] == [0.0, 0.0]
    mass = at_one["dual_blocks"][1][0][0][0]
    assert abs(mass - (1 - math.exp(-2)) / 2) < 1e-9
    assert abs(at_one["distance_to_counit"] - (1 - math.exp(-2))) < 1e-9


def test_cli_evolve_norm_bound_and_grid_max(tmp_path):
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    result = run_cli("evolve", "zn:2", str(gamma_path), "--times", "1", "--grid-max", "4")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    bound = report["norm_bound"]
    assert bound["satisfied"] is True
    assert abs(bound["c_hat"] - 1.0) < 1e-9
    assert bound["generator_norm"] == 2.0


def test_cli_evolve_invalid_generator(tmp_path):
    # the counit itself: hermitian and conditionally positive but unit value 1
    gamma_path = tmp_path / "eps.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]}))
    result = run_cli("evolve", "zn:2", str(gamma_path), "--times", "1")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["generating_functional"]["vanishes_at_unit"] is False
    # diagnostics are not fatal: per-time checks are still reported
    assert report["times"] and report["checks"]


def test_cli_evolve_dual_group(tmp_path):
    table, irreps = cc.builtin_group("s3")
    b = cc.group_cstar_bialgebra(table, irreps)
    rng = np.random.default_rng(7)
    from cstarconv.sampling import random_generating_functional

    gamma = random_generating_functional(b, rng)
    gamma_path = tmp_path / "gamma_s3.json"
    gamma_path.write_text(json.dumps(schemas.functional_to_json(gamma)))
    result = run_cli("evolve", "dual:s3", str(gamma_path), "--times", "0.5,2")
    assert result.returncode == 0


def test_cli_guichardet_s3_sign(tmp_path):
    psi_path = tmp_path / "psi.json"
    psi = [0.0, 0.0, 0.0, -2.0, -2.0, -2.0]
    psi_path.write_text(json.dumps({"group": "s3", "values": [[v, 0.0] for v in psi]}))
    result = run_cli("guichardet", "s3", str(psi_path))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["constant"] == 1.0
    assert report["gns"]["constant"] == 1.0
    assert report["pass"] is True


def test_cli_guichardet_rejects_nonvanishing(tmp_path):
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(
        json.dumps({"group": "s3", "values": [[0.1, 0.0]] + [[0.0, 0.0]] * 5})
    )
    result = run_cli("guichardet", "s3", str(psi_path))
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert any("vanish" in msg for msg in report["precondition_failures"])


def test_cli_guichardet_file_group(tmp_path):
    """A file-based group runs the kernel route; --irreps adds the GNS check."""
    z4 = cc.cyclic_group(4)
    group_path = tmp_path / "z4.json"
    group_path.write_text(json.dumps({"order": 4, "identity": 0, "table": z4.table.tolist()}))
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(
        json.dumps({"values": [[0.0, 0.0], [-1.0, 0.0], [-2.0, 0.0], [-1.0, 0.0]]})
    )
    result = run_cli("guichardet", str(group_path), str(psi_path))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["gns"] is None
    assert report["constant"] == 1.0
    irreps = cc.cyclic_irreps(4)
    irreps_path = tmp_path / "irr.json"
    irreps_path.write_text(
        json.dumps(
            {
                "irreps": [
                    {"dim": 1, "matrices": [schemas.complex_matrix_to_json(m) for m in stack]}
                    for stack in irreps.matrices
                ]
            }
        )
    )
    result = run_cli("guichardet", str(group_path), str(psi_path), "--irreps", str(irreps_path))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["gns"]["constant"] == pytest.approx(1.0, abs=1e-12)


def test_cli_guichardet_value_count_mismatch(tmp_path):
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps({"group": "s3", "values": [[0.0, 0.0]] * 4}))
    result = run_cli("guichardet", "s3", str(psi_path))
    assert result.returncode == 2


def test_cli_text_format(tmp_path):
    result = run_cli("--format", "text", "validate", "zn:2")
    assert result.returncode == 0
    assert "command = validate" in result.stdout
    assert "pass = true" in result.stdout


def test_cli_reports_are_deterministic(tmp_path):
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(
        json.dumps({"group": "s3", "values": [[0.0, 0.0]] * 3 + [[-2.0, 0.0]] * 3})
    )
    commands = [
        ("--seed", "11", "validate", "zn:3", "s3"),
        ("--seed", "11", "evolve", "zn:2", str(gamma_path), "--times", "0.25,1,2"),
        ("--seed", "11", "guichardet", "s3", str(psi_path)),
    ]
    for command in commands:
        first = run_cli(*command)
        second = run_cli(*command)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


MALFORMED_INPUTS = {
    "times-nan": ["evolve", "zn:2", "{gamma}", "--times", "nan"],
    "times-inf": ["evolve", "zn:2", "{gamma}", "--times", "0,inf"],
    "zn-abc": ["validate", "zn:abc"],
    "grid-neg": ["evolve", "zn:2", "{gamma}", "--grid-max", "-1"],
    "grid-zero": ["evolve", "zn:2", "{gamma}", "--grid-max", "0"],
    "grid-nan": ["evolve", "zn:2", "{gamma}", "--grid-max", "nan"],
    "tol-neg": ["--tol=-1e-9", "validate", "zn:2"],
    "tol-inf": ["--tol", "inf", "validate", "zn:2"],
}


@pytest.mark.parametrize("argv", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_cli_rejects_malformed_numbers_and_names(tmp_path, argv):
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    result = run_cli(*[arg.format(gamma=gamma_path) for arg in argv])
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
