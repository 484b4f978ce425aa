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


# JSON matrix texts: (text, decoded in one np.array call)
MATRIX_TEXTS = {
    "ints": ("[[[1, 2], [3, -4]], [[0, 0], [5, 6]]]", True),
    "bools": ("[[[true, false], [1, 0.5]]]", True),
    "floats": ("[[[1.5, -0.0], [-0.0, 2.25e-300]], [[1e300, -1e-320], [0.1, 0.2]]]", True),
    "int-past-2^53": ("[[[9007199254740993, -9007199254740993]]]", True),
    "int-past-int64": ("[[[1180591620717411303424, 0]]]", False),
    "int-past-float": ("[[[1" + "0" * 400 + ", 0]]]", False),
    "nan": ("[[[NaN, 0.0]]]", False),
    "infinity": ("[[[1.0, -Infinity]]]", False),
    "string": ('[[["1", 0]]]', False),
    "null": ("[[[null, 0]]]", False),
    "ragged": ("[[[1, 0], [2, 0]], [[3, 0]]]", False),
    "singletons": ("[[[1], [2]]]", False),
    "triples": ("[[[1, 2, 3]]]", False),
    "numbers-not-pairs": ("[[1, 2]]", False),
    "empty-row": ("[[]]", False),
    "empty-second-row": ("[[[1, 0]], []]", False),
    "empty": ("[]", False),
}


@pytest.mark.parametrize("text, fast", MATRIX_TEXTS.values(), ids=MATRIX_TEXTS.keys())
def test_matrix_decoding_matches_per_entry_walk(monkeypatch, text, fast):
    value = json.loads(text)
    assert (schemas._decode_pairs(value) is not None) == fast

    def decode(walk_only):
        with monkeypatch.context() as patch:
            if walk_only:
                patch.setattr(schemas, "_decode_pairs", lambda value: None)
            try:
                return schemas._as_complex_matrix(value, "$.m")
            except cc.SchemaError as exc:
                return str(exc)

    walked, decoded = decode(walk_only=True), decode(walk_only=False)
    if isinstance(walked, str):
        assert decoded == walked
    else:
        assert decoded.dtype == walked.dtype == np.complex128
        assert decoded.shape == walked.shape
        assert decoded.tobytes() == walked.tobytes()  # signed zeros included


def _bialgebra_doc(blocks):
    return {"blocks": blocks, "mode": "hom", "delta": [[[0, 0]]], "epsilon": []}


def _irrep_doc(matrices):
    return {"irreps": [{"dim": 1, "matrices": matrices}]}


# (command, file, path in the message); each was a traceback with exit 1
BROKEN_STRUCTURE_FILES = {
    "negative-block": ("validate", _bialgebra_doc([1, -1]), "$.blocks"),
    "no-blocks": ("validate", _bialgebra_doc([]), "$.blocks"),
    "no-irrep-matrices": ("irreps", _irrep_doc([]), "$.irreps[0].matrices"),
    "scalar-irrep-matrices": ("irreps", _irrep_doc(5), "$.irreps[0].matrices"),
    "mixed-irrep-shapes": (
        "irreps",
        _irrep_doc([[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]),
        "$.irreps[0].matrices[1]",
    ),
}


@pytest.mark.parametrize(
    "kind, doc, where", BROKEN_STRUCTURE_FILES.values(), ids=BROKEN_STRUCTURE_FILES.keys()
)
def test_cli_rejects_broken_structure_files(tmp_path, capsys, kind, doc, where):
    from cstarconv import cli

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    if kind == "validate":
        argv = ["validate", str(path)]
    else:
        group = tmp_path / "s3.json"
        s3 = cc.s3_group()
        group.write_text(
            json.dumps({"order": 6, "identity": s3.identity, "table": s3.table.tolist()})
        )
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 5}))
        argv = ["guichardet", str(group), str(psi), "--irreps", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"error: at {where}:" in captured.err


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


def test_cli_evolve_overflow_is_a_failed_check(tmp_path):
    """An invalid generator overflows at t = 800: failing checks, not a traceback."""
    gamma_path = tmp_path / "g.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[5.0, 0.0]]], [[[-1.0, 0.0]]]]}))
    result = run_cli("evolve", "zn:2", str(gamma_path), "--times", "1,800")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    report = json.loads(result.stdout)
    assert report["pass"] is False
    overflowed = [c for c in report["checks"] if c["name"].endswith("[t=800]")]
    assert len(overflowed) == 7
    assert all(c["residual"] is None and c["pass"] is False for c in overflowed)
    entry = report["times"][1]
    assert entry["t"] == 800 and entry["state_min_eigenvalue"] is None
    assert all(c["residual"] is not None for c in report["checks"] if "[t=1]" in c["name"])


def test_check_never_passes_a_non_finite_residual():
    from cstarconv.cli import _check

    for residual in (math.nan, math.inf, -math.inf):
        for lower_bound in (False, True):
            check = _check("x", residual, 1e-9, lower_bound=lower_bound)
            assert check["pass"] is False and check["residual"] is None


def test_cli_main_refuses_to_render_non_finite(monkeypatch, capsys):
    """A non-finite number outside the checks ends in exit 1, not a ValueError."""
    from cstarconv import cli

    monkeypatch.setattr(cli, "cmd_validate", lambda args: ({"value": math.inf}, 0))
    assert cli.main(["validate", "zn:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "non-finite" in captured.err


NON_FINITE_OR_BROKEN_GAMMA = {
    "nan": '{"dual_blocks": [[[[NaN, 0.0]]], [[[1.0, 0.0]]]]}',
    "infinity": '{"dual_blocks": [[[[1.0, -Infinity]]], [[[1.0, 0.0]]]]}',
    "int-past-float": '{"dual_blocks": [[[[1' + "0" * 400 + ', 0]]], [[[1, 0]]]]}',
    "int-past-digit-limit": '{"dual_blocks": [[[[1' + "0" * 5000 + ', 0]]], [[[1, 0]]]]}',
    "deep-nesting": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize(
    "text", NON_FINITE_OR_BROKEN_GAMMA.values(), ids=NON_FINITE_OR_BROKEN_GAMMA.keys()
)
def test_cli_rejects_non_finite_and_unparsable_numbers(tmp_path, capsys, text):
    from cstarconv import cli

    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(text)
    assert cli.main(["evolve", "zn:2", str(gamma_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_cli_rejects_binary_file(tmp_path, capsys):
    from cstarconv import cli

    path = tmp_path / "binary.json"
    path.write_bytes(bytes([0xB3, 0x00, 0xFF, 0x7B]))
    assert cli.main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "values, argv",
    [
        # tol = 0 once put t = 0 into the norm-bound grid (PreconditionError);
        # it now runs, and the rounding-level residuals fail a zero tolerance
        ([-1.0, 1.0], ["--tol", "0"]),
        # a norm whose square overflows: OverflowError, then a zero grid floor
        ([-1e154, 1e154], []),
        ([-1e308, 1e308], []),
    ],
    ids=["tol-zero", "norm-1e154", "norm-1e308"],
)
def test_cli_evolve_norm_bound_grid_edges(tmp_path, capsys, values, argv):
    from cstarconv import cli

    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[v, 0.0]]] for v in values]}))
    assert cli.main([*argv, "evolve", "zn:2", str(gamma_path), "--times", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["generating_functional"]["conditionally_positive"] is True
    assert report["checks"][0]["name"] == "generator_norm_bound"
    if argv:
        assert report["norm_bound"]["satisfied"] is True


IMPORT_GUARD = """
import contextlib, io, json, sys
from cstarconv import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_cli_never_imports_scipy(tmp_path):
    """All three commands run without loading scipy, which is a test-only dependency."""
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps({"group": "s3", "values": [[0.0, 0.0]] * 3 + [[-2.0, 0.0]] * 3}))
    commands = [
        ["validate", "zn:4"],
        ["evolve", "zn:2", str(gamma_path), "--times", "0,1"],
        ["guichardet", "s3", str(psi_path)],
    ]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome == {"codes": [0, 0, 0], "scipy": []}
