import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarconv as cc
from cstarconv import io as schemas

from conftest import LOOP_5, axiom_residuals


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
            {"dim": 1, "matrices": [schemas.to_pairs(m) for m in stack]}
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
        "delta": schemas.to_pairs(b.delta.matrix),
        "epsilon": [schemas.to_pairs(blk) for blk in b.epsilon.dual_blocks],
    }
    path = tmp_path / "z2_bialgebra.json"
    path.write_text(json.dumps(payload))
    loaded = schemas.load_bialgebra(path)
    assert (axiom_residuals(cc.validate_bialgebra(loaded)) == 0.0).all()
    assert np.array_equal(loaded.delta.matrix, b.delta.matrix)


def test_functional_schema(tmp_path, z2_functions):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    gamma = schemas.load_functional(z2_functions.algebra, path)
    assert gamma(z2_functions.algebra.unit()) == 0.0
    path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]]]}))
    with pytest.raises(cc.SchemaError):
        schemas.load_functional(z2_functions.algebra, path)


def test_group_function_schema(tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"group": "zn:2", "values": [[0.0, 0.0], [-2.0, 0.0]]}))
    ref, values = schemas.load_group_function(path)
    assert ref == "zn:2"
    assert np.array_equal(values, np.array([0.0, -2.0]))
    path.write_text(json.dumps({"values": [[0.0, 0.0], ["x", 0.0]]}))
    with pytest.raises(cc.SchemaError, match=r"values\[1\]"):
        schemas.load_group_function(path)


# JSON matrix texts: (text, decoded in one np.array call)
MATRIX_TEXTS = {
    "ints": ("[[[1, 2], [3, -4]], [[0, 0], [5, 6]]]", True),
    "bools": ("[[[true, false], [1, 0.5]]]", False),
    "only-bools": ("[[[true, false]]]", False),
    "bool-among-ints": ("[[[1, 2], [3, false]]]", False),
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
# group-function values (rank 1) and irrep stacks (rank 3), in the same form
VALUE_TEXTS = {
    "ints": ("[[1, 2], [3, -4]]", True),
    "floats": ("[[-0.0, 5e-324], [1.7976931348623157e308, -1e-320]]", True),
    "int-past-2^53": ("[[9007199254740993, 0]]", True),
    "empty": ("[]", False),
    "bool": ("[[0, 0], [true, 0]]", False),
    "nan": ("[[0, 0], [NaN, 0]]", False),
    "int-past-float": ("[[1" + "0" * 400 + ", 0]]", False),
    "string": ('[["1", 0]]', False),
    "null": ("[null]", False),
    "triple": ("[[1, 0], [1, 2, 3]]", False),
    "numbers": ("[1.0, 2.0]", False),
    "nested-pairs": ("[[[1, 0]]]", False),
}
STACK_TEXTS = {
    "ints": ("[[[[1, 0]]], [[[0, 1]]]]", True),
    "floats": ("[[[[-0.0, 1.5], [0, 0]], [[0, 0], [1e-320, -0.0]]]]", True),
    "empty": ("[]", False),
    "object": ('{"a": 1}', False),
    "string": ('"abc"', False),
    "number": ("5", False),
    "empty-matrix": ("[[]]", False),
    "empty-rows": ("[[[]]]", False),
    "bool": ("[[[[1, 0]]], [[[false, 0]]]]", False),
    "ragged-matrix": ("[[[[1, 0], [0, 0]], [[1, 0]]]]", False),
    "mixed-shapes": ("[[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]", False),
    "nan-after-mixed-shapes": (
        "[[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[NaN, 0]]]]", False
    ),
}
DECODE_TEXTS = {
    **{name: (2, text, fast) for name, (text, fast) in MATRIX_TEXTS.items()},
    **{f"values-{name}": (1, text, fast) for name, (text, fast) in VALUE_TEXTS.items()},
    **{f"stack-{name}": (3, text, fast) for name, (text, fast) in STACK_TEXTS.items()},
}


@pytest.mark.parametrize("rank, text, fast", DECODE_TEXTS.values(), ids=DECODE_TEXTS.keys())
def test_matrix_decoding_matches_per_entry_walk(rank, text, fast):
    value = json.loads(text)
    assert (schemas._decode_fast(value, rank) is not None) == fast

    def outcome(decode):
        try:
            return decode(value, rank, "$.m")
        except cc.SchemaError as exc:
            return str(exc)

    walked, decoded = outcome(schemas._walk), outcome(schemas._decode)
    if isinstance(walked, str):
        assert decoded == walked
    else:
        assert decoded.dtype == walked.dtype == np.complex128
        assert decoded.shape == walked.shape
        assert decoded.tobytes() == walked.tobytes()  # signed zeros included


# integer arrays, rank 1 for block sizes and 2 for a table: (rank, text, fast)
INTEGER_TEXTS = {
    "table": (2, "[[0, 1], [1, 0]]", True),
    "blocks": (1, "[1, 2, 2]", True),
    "negative": (2, "[[0, -1], [1, 0]]", True),
    "past-int63": (1, "[9223372036854775808]", True),
    "bool": (2, "[[0, true], [1, 0]]", False),
    "only-bools": (1, "[true, false]", False),
    "float": (2, "[[0, 1.0], [1, 0]]", False),
    "string": (1, '[1, "2"]', False),
    "null": (1, "[1, null]", False),
    "past-int64": (2, "[[0, 18446744073709551616], [1, 0]]", False),
    "past-int63-beside-negative": (2, "[[0, -1], [9223372036854775808, 0]]", False),
    "ragged": (2, "[[0, 1], [1]]", False),
    "pairs": (1, "[[1, 0]]", False),
    "empty": (1, "[]", False),
}


@pytest.mark.parametrize("rank, text, fast", INTEGER_TEXTS.values(), ids=INTEGER_TEXTS.keys())
def test_integer_decoding_matches_per_entry_walk(rank, text, fast):
    """Both paths agree on every integer array, and an array they accept is
    the one ``np.array`` makes of the JSON lists, of object dtype past int64."""
    value = json.loads(text)
    assert (schemas._decode_fast(value, rank, int) is not None) == fast

    def outcome(decode):
        try:
            return decode(value, rank, "$.t", int)
        except cc.SchemaError as exc:
            return str(exc)

    walked, decoded = outcome(schemas._walk), outcome(schemas._decode)
    if isinstance(walked, str):
        assert decoded == walked and walked.startswith("at $.t[")
    elif value:
        expected = np.array(value)
        assert decoded.dtype == walked.dtype == expected.dtype
        assert decoded.tolist() == walked.tolist() == expected.tolist()


class Walked(Exception):
    pass


def test_a_valid_table_takes_the_fast_path(monkeypatch):
    """A valid table never reaches the walk; a boolean entry, which numpy
    reads as 0 or 1, still does."""

    def walk(*args):
        raise Walked(args[2])

    monkeypatch.setattr(schemas, "_walk", walk)
    z64 = cc.cyclic_group(64)
    doc = json.loads(json.dumps(_semigroup_doc(64, 0, z64.table.tolist())))
    assert np.array_equal(schemas.load_semigroup(doc).table, z64.table)
    with pytest.raises(Walked, match=re.escape("$.table")):
        schemas.load_semigroup(BROKEN_STRUCTURE_FILES["bool-table-entry"][1])


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.79e308, -1.79e308, 1.0]


@st.composite
def complex_arrays(draw):
    """``(rank, array)``: a complex array of rank 1 to 3 with edge-case parts."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank)))
    part = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    size = 2 * math.prod(shape)
    parts = draw(st.lists(part, min_size=size, max_size=size))
    return rank, np.array(parts).view(np.complex128).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(complex_arrays())
def test_to_pairs_round_trips_through_json_bit_for_bit(case):
    rank, array = case
    decoded = schemas._decode(json.loads(json.dumps(schemas.to_pairs(array))), rank, "$")
    assert decoded.dtype == np.complex128 and decoded.shape == array.shape
    assert decoded.tobytes() == array.tobytes()


def _bialgebra_doc(blocks):
    return {"blocks": blocks, "mode": "hom", "delta": [[[0, 0]]], "epsilon": []}


def _irrep_doc(matrices):
    return {"irreps": [{"dim": 1, "matrices": matrices}]}


def _semigroup_doc(order, identity, table):
    return {"order": order, "identity": identity, "table": table}


def _s3_irrep_doc(first_dim):
    irreps = [
        {"dim": m.shape[1], "matrices": [schemas.to_pairs(g) for g in m]}
        for m in cc.s3_irreps().matrices
    ]
    irreps[0]["dim"] = first_dim
    return {"irreps": irreps}


Z2_TABLE = [[0, 1], [1, 0]]
# the coproduct of the functions on Z2, delta(e_g) = sum over h k = g of e_h (x) e_k
_ONE, _ZERO = [1, 0], [0, 0]
Z2_FUNCTIONS = {
    "mode": "hom",
    "delta": [[_ONE, _ZERO], [_ZERO, _ONE], [_ZERO, _ONE], [_ONE, _ZERO]],
}
# a one-point bialgebra, whose block size each case sets
ONE_POINT = {"mode": "hom", "delta": [[[1, 0]]], "epsilon": [[[[1, 0]]]]}

# (command, file, path in the message); each was a traceback with exit 1, was
# accepted (a bool, float or string count or index), or named a coarser path,
# except the loop, whose refusal as not associative the table kernel relies on
BROKEN_STRUCTURE_FILES = {
    "negative-block": ("validate", _bialgebra_doc([1, -1]), "$.blocks"),
    "bool-block": ("validate", {"blocks": [True]} | ONE_POINT, "$.blocks[0]"),
    "float-block": ("validate", {"blocks": [1.0]} | ONE_POINT, "$.blocks[0]"),
    "bool-order": ("validate", _semigroup_doc(True, 0, [[0]]), "$.order"),
    "float-identity": ("validate", _semigroup_doc(2, 0.7, Z2_TABLE), "$.identity"),
    "string-identity": ("validate", _semigroup_doc(2, "0", Z2_TABLE), "$.identity"),
    "identity-past-order": ("validate", _semigroup_doc(2, 7, Z2_TABLE), "$.identity"),
    "negative-identity": ("validate", _semigroup_doc(2, -1, Z2_TABLE), "$.identity"),
    "identity-not-a-unit": ("validate", _semigroup_doc(2, 1, Z2_TABLE), "$.identity"),
    "bool-table-entry": ("validate", _semigroup_doc(2, 0, [[0, True], [1, 0]]), "$.table[0][1]"),
    "huge-table-entry": ("validate", _semigroup_doc(2, 0, [[0, 2**64], [1, 0]]), "$.table"),
    "loop-validate": ("validate", _semigroup_doc(5, 0, LOOP_5), "$.table"),
    "loop-evolve": ("evolve", _semigroup_doc(5, 0, LOOP_5), "$.table"),
    "float-irrep-dim": ("irreps", _s3_irrep_doc(1.0), "$.irreps[0].dim"),
    "bool-irrep-dim": ("irreps", _s3_irrep_doc(True), "$.irreps[0].dim"),
    "bool-irrep-entry": (
        "irreps", _irrep_doc([[[[1, 0]]]] * 5 + [[[[True, 0]]]]), "$.irreps[0].matrices[5][0][0]"
    ),
    "bool-delta-entry": (
        "validate", {"blocks": [1]} | ONE_POINT | {"delta": [[[1, False]]]}, "$.delta[0][0]"
    ),
    "bool-epsilon-entry": (
        "validate",
        {"blocks": [1]} | ONE_POINT | {"epsilon": [[[[True, 0]]]]},
        "$.epsilon[0][0][0]",
    ),
    "no-blocks": ("validate", _bialgebra_doc([]), "$.blocks"),
    "no-irrep-matrices": ("irreps", _irrep_doc([]), "$.irreps[0].matrices"),
    "scalar-irrep-matrices": ("irreps", _irrep_doc(5), "$.irreps[0].matrices"),
    "mixed-irrep-shapes": (
        "irreps",
        _irrep_doc([[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]),
        "$.irreps[0].matrices[1]",
    ),
    # every matrix is read before the shapes are compared
    "nan-after-mixed-irrep-shapes": (
        "irreps",
        _irrep_doc([[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[math.nan, 0]]]]),
        "$.irreps[0].matrices[2][0][0]",
    ),
    # "hom" is the only mode, read before the coproduct
    **{
        f"mode-{case}-{command}": (command, {"blocks": [1]} | ONE_POINT | change, "$.mode")
        for case, change in {
            "hyper": {"mode": "hyper"},
            "upper-case": {"mode": "HOM"},
            "number": {"mode": 1},
            "hyper-bad-delta": {"mode": "hyper", "delta": [[["1", 0]]]},
        }.items()
        for command in ("validate", "evolve")
    },
}


def _guichardet_s3_file_argv(tmp_path, irreps):
    """``guichardet`` on an S3 table file with ``--irreps irreps``."""
    group = tmp_path / "s3.json"
    s3 = cc.s3_group()
    group.write_text(json.dumps({"order": 6, "identity": s3.identity, "table": s3.table.tolist()}))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 5}))
    return ["guichardet", str(group), str(psi), "--irreps", str(irreps)]


@pytest.mark.parametrize(
    "kind, doc, where", BROKEN_STRUCTURE_FILES.values(), ids=BROKEN_STRUCTURE_FILES.keys()
)
def test_cli_rejects_broken_structure_files(tmp_path, capsys, kind, doc, where):
    from cstarconv import cli

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    if kind == "validate":
        argv = ["validate", str(path)]
    elif kind == "evolve":
        argv = ["evolve", str(path), str(GOLDEN / "gamma_zn2.json")]
    else:
        argv = _guichardet_s3_file_argv(tmp_path, path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: at {path}: at {where}: ")


def _z3_with(row: int, entries) -> list:
    """The table of ``Z_3`` with row ``row`` replaced by ``entries``."""
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table[row] = entries
    return table


# (table of an order-3 file, its whole refusal): each entry defect sits past
# the first row and column, so its path is exact, and every message is pinned
TABLE_REFUSALS = {
    "row-count": ([[0, 1, 2], [1, 2, 0]], "at $.table: expected 3 rows"),
    "short-row": (_z3_with(1, [1, 2]), "at $.table[1]: expected 3 entries"),
    "long-row": (_z3_with(1, [1, 2, 0, 0]), "at $.table[1]: expected 3 entries"),
    "row-not-a-list": (_z3_with(1, 5), "at $.table[1]: expected 3 entries"),
    "ragged-first-row-too-long": (_z3_with(0, [0, 1, 2, 0]), "at $.table[0]: expected 3 entries"),
    "float-entry": (_z3_with(1, [1, 2.0, 0]), "at $.table[1][1]: expected an integer, got 2.0"),
    "string-entry": (_z3_with(1, [1, 2, "0"]), "at $.table[1][2]: expected an integer, got '0'"),
    "bool-entry": (_z3_with(2, [2, True, 1]), "at $.table[2][1]: expected an integer, got True"),
    "entry-2**64": (
        _z3_with(2, [2, 0, 2**64]), "at $.table: Python int too large to convert to C long"
    ),
    "entry-minus-one": (
        _z3_with(2, [2, -1, 1]), "at $.table: table entries must be element indices"
    ),
    "entry-order": (_z3_with(2, [2, 0, 3]), "at $.table: table entries must be element indices"),
    # every row is counted before any entry is read
    "float-before-short-row": (
        [[0, 1.0, 2], [1, 2], [2, 0, 1]], "at $.table[1]: expected 3 entries"
    ),
}


@pytest.mark.parametrize("table, message", TABLE_REFUSALS.values(), ids=TABLE_REFUSALS.keys())
def test_cli_pins_each_table_refusal(tmp_path, capsys, table, message):
    from cstarconv import cli

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_semigroup_doc(3, 0, table)))
    assert cli.main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: at {path}: {message}\n"


ONE_BLOCK = {"blocks": [1]} | ONE_POINT
# the file argument's place on each command line
SCHEMA_ARGV = {
    "validate": ["validate"], "evolve": ["evolve", "zn:2"], "guichardet": ["guichardet", "s3"]
}
# (command, document, its whole refusal): one case per schema refusal that no
# other test reaches
SCHEMA_REFUSALS = {
    "top-level-list": ("validate", [1], "top level must be an object"),
    "order-zero": (
        "validate", _semigroup_doc(0, 0, []), "at $.order: expected a positive integer, got 0"
    ),
    "irreps-not-a-list": (
        "validate", {"irreps": {}}, "at $: irrep file must contain a list under 'irreps'"
    ),
    "irrep-without-matrices": (
        "validate", {"irreps": [{"dim": 1}]},
        "at $.irreps[0]: each irrep needs 'dim' and 'matrices'",
    ),
    "bialgebra-without-mode": (
        "validate", {"blocks": [1]}, "at $: bialgebra file missing key 'mode'"
    ),
    "blocks-not-a-list": (
        "validate", ONE_BLOCK | {"blocks": 1}, "at $.blocks: expected a list of integers"
    ),
    "delta-shape": (
        "validate", ONE_BLOCK | {"delta": [[[1, 0]], [[0, 0]]]},
        "at $.delta: expected shape (1, 1), got (2, 1)",
    ),
    "epsilon-not-a-list": (
        "validate", ONE_BLOCK | {"epsilon": {}}, "at $.epsilon: expected a list of dual blocks"
    ),
    "no-dual-blocks": (
        "evolve", {}, "at $: functional file must contain a list under 'dual_blocks'"
    ),
    "no-values": (
        "guichardet", {"group": "s3"},
        "at $: group function file must contain a list under 'values'",
    ),
    "row-not-a-list": (
        "evolve", {"dual_blocks": [[5], [[[1, 0]]]]},
        "at $.dual_blocks[0][0]: expected a list (matrix row)",
    ),
}


@pytest.mark.parametrize(
    "command, doc, message", SCHEMA_REFUSALS.values(), ids=SCHEMA_REFUSALS.keys()
)
def test_cli_pins_each_schema_refusal(tmp_path, capsys, command, doc, message):
    from cstarconv import cli

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*SCHEMA_ARGV[command], str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: at {path}: {message}\n"


# (command, file, path in the message): a JSON boolean in a [re, im] pair was
# read as 0 or 1 and ran with exit 0 or 1
BOOLEAN_NUMBERS = {
    "gamma-pair": (
        "evolve", {"dual_blocks": [[[[True, False]]], [[[False, 0]]]]}, "$.dual_blocks[0][0][0]"
    ),
    "gamma-mixed": (
        "evolve", {"dual_blocks": [[[[True, 0.5]]], [[[-1, 0]]]]}, "$.dual_blocks[0][0][0]"
    ),
    "psi-value": (
        "guichardet", {"values": [[0, 0], [True, 0]] + [[-1, 0]] * 4}, "$.values[1]"
    ),
}


@pytest.mark.parametrize(
    "command, doc, where", BOOLEAN_NUMBERS.values(), ids=BOOLEAN_NUMBERS.keys()
)
def test_cli_rejects_boolean_numbers(tmp_path, capsys, command, doc, where):
    from cstarconv import cli

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = {
        "evolve": ["evolve", "zn:2", str(path)],
        "guichardet": ["guichardet", "s3", str(path)],
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: at {path}: at {where}: ")


# (command, file, message): a refusal of a whole array names the array
WHOLE_ARRAY_REFUSALS = {
    "irrep-dim": (
        "irreps",
        {"irreps": [{"dim": 2, "matrices": [[[[1, 0]]]] * 6}]},
        "at $.irreps[0]: matrices have shape (1, 1), declared dim 2",
    ),
    # the entries of an object or a string are not matrices[0], [1], ...
    "irrep-matrices-object": (
        "irreps",
        _irrep_doc({"e": [[[1, 0]]]}),
        "at $.irreps[0].matrices: expected a non-empty list of matrices",
    ),
    "irrep-matrices-string": (
        "irreps",
        _irrep_doc("[[[1, 0]]]"),
        "at $.irreps[0].matrices: expected a non-empty list of matrices",
    ),
    "no-values": ("guichardet", {"values": []}, "at $.values: expected 6 values, got 0"),
}


@pytest.mark.parametrize(
    "kind, doc, message", WHOLE_ARRAY_REFUSALS.values(), ids=WHOLE_ARRAY_REFUSALS.keys()
)
def test_cli_refuses_a_whole_array_at_its_path(tmp_path, capsys, kind, doc, message):
    from cstarconv import cli

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    if kind == "irreps":
        argv = _guichardet_s3_file_argv(tmp_path, path)
    else:
        argv = ["guichardet", "s3", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[0] == f"error: at {path}: {message}"


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
        "delta": schemas.to_pairs(delta),
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
    """The S3 class-hypergroup coproduct is completely positive and unital but
    not multiplicative: with ``"mode": "hyper"`` both commands refuse the file
    (exit 2, naming the file and ``$.mode``), and with ``"hom"`` it fails the homomorphism
    law alone."""
    from test_bialgebra import s3_class_hyperbialgebra

    payload = {
        "blocks": [1, 1, 1],
        "mode": "hyper",
        "delta": schemas.to_pairs(s3_class_hyperbialgebra().delta.matrix),
        "epsilon": [[[[1.0, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]]],
    }
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(payload))
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[0.5, 0.0]]], [[[0.5, 0.0]]]]}))
    for argv in (["validate", str(path)], ["evolve", str(path), str(gamma)]):
        result = run_cli(*argv)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(f"error: at {path}: at $.mode: ")
        assert "*-homomorphism" in result.stderr and "Traceback" not in result.stderr
    payload["mode"] = "hom"
    path.write_text(json.dumps(payload))
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    failed = [c["name"] for c in json.loads(result.stdout)["checks"] if not c["pass"]]
    assert failed == [f"bialgebra[{path}]:coproduct_homomorphism"]


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
                    {"dim": 1, "matrices": [schemas.to_pairs(m) for m in stack]}
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
    """For ``gamma = rate (delta_1 - delta_e)`` on ``Z_2``, ``lambda_t(p)/t``
    decreases to ``gamma(p) = rate = |gamma| / 2``: that is ``c_hat``, read from
    the flow and not set by the grid, also for a small generator at the
    default ``--grid-max``."""
    gamma_path = tmp_path / "gamma.json"
    for rate, grid_max in [(1.0, "4"), (0.05, "8")]:
        gamma_path.write_text(json.dumps({"dual_blocks": [[[[-rate, 0.0]]], [[[rate, 0.0]]]]}))
        result = run_cli("evolve", "zn:2", str(gamma_path), "--times", "1", "--grid-max", grid_max)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        check = next(c for c in report["checks"] if c["name"] == "generator_norm_bound")
        assert check["pass"] is True
        assert abs(report["norm_bound"]["c_hat"] - rate) < 1e-9
        assert report["generating_functional"]["norm"] == 2 * rate


@pytest.mark.parametrize("grid_max", ["8", "1e-300"])
def test_cli_evolve_norm_bound_fails_a_broken_flow_at_any_grid_max(
    tmp_path, monkeypatch, capsys, grid_max
):
    """``gamma = 2 (mu - delta_e)`` on ``Z_64``, ``mu`` a seeded probability
    off ``e``, has norm 4 and ``gamma(p) = 2``.  Difference quotients halved
    by a fault give ``c_hat`` about 1: the bound fails at every
    ``--grid-max``, a tiny one included, while the correct flow passes."""
    from cstarconv import cli
    from cstarconv.convolution import AssociatedSemigroup

    mu = np.random.default_rng(5).random(63)
    weights = np.concatenate([[-2.0], 2.0 * mu / mu.sum()])
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"dual_blocks": [[[[w, 0.0]]] for w in weights]}))
    argv = ["evolve", "zn:64", str(path), "--times", "1", "--grid-max", grid_max]

    def bound_check():
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        return code, next(c for c in report["checks"] if c["name"] == "generator_norm_bound")

    code, check = bound_check()
    assert code == 0 and check["pass"] is True and abs(check["residual"]) < 1e-9
    quotient = AssociatedSemigroup.quotient_at
    monkeypatch.setattr(AssociatedSemigroup, "quotient_at", lambda sg, t: quotient(sg, t) * 0.5)
    code, check = bound_check()
    assert code == 1 and check["pass"] is False
    assert check["residual"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize(
    "bialgebra, blocks", [("zn:1", [1]), ("zn:2", [1, 1]), ("dual:s3", [1, 1, 2])]
)
def test_cli_evolve_zero_generator_stays_at_the_counit_at_every_time(
    tmp_path, capsys, bialgebra, blocks
):
    """``gamma = 0`` is a valid generator with ``lambda_t = epsilon`` and
    difference quotient exactly 0 at every finite time: ``c_hat`` and every
    ``distance_to_counit`` read 0 at ``t = 1e300`` and ``--grid-max 1e300``,
    where the quotient's series weights ``t^k`` overflow."""
    from cstarconv import cli

    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dual_blocks": [[[[0, 0]] * n] * n for n in blocks]}))
    argv = ["evolve", bialgebra, str(path), "--grid-max", "1e300", "--times", "0,1,1e300"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["norm_bound"]["c_hat"] == 0
    assert [t["distance_to_counit"] for t in report["times"]] == [0, 0, 0]


@pytest.mark.parametrize("rate", [1e-309, 5e-324])
def test_cli_evolve_subnormal_generator_has_finite_bound_and_moduli(tmp_path, capsys, rate):
    """``gamma = rate (delta_1 - delta_e)`` on ``Z_2`` with a subnormal rate,
    where the power of two at the convolution matrix's 1-norm has an
    infinite reciprocal: ``c_hat`` reads ``rate`` and ``|lambda_1 - epsilon|``
    reads ``2 rate`` to first order, both to the precision of a subnormal."""
    from cstarconv import cli

    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"dual_blocks": [[[[-rate, 0.0]]], [[[rate, 0.0]]]]}))
    assert cli.main(["evolve", "zn:2", str(path), "--times", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert abs(report["norm_bound"]["c_hat"] / rate - 1) < 1e-9
    assert abs(report["times"][0]["distance_to_counit"] / (2 * rate) - 1) < 1e-9


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
    blocks = [schemas.to_pairs(rho) for rho in gamma.dual_blocks]
    gamma_path.write_text(json.dumps({"dual_blocks": blocks}))
    result = run_cli("evolve", "dual:s3", str(gamma_path), "--times", "0.5,2")
    assert result.returncode == 0


def test_cli_evolve_dual_cyclic_group_matches_the_dense_route(tmp_path, monkeypatch, capsys):
    """``evolve dual:zn:8`` on the table-built C*(Z_8) against the same run on
    the Fourier-built coproduct: same keys, strings and verdicts but the
    kernel's name, numbers within 1e-12."""
    from cstarconv import cli
    from cstarconv.sampling import random_generating_functional
    from test_golden import assert_matches

    table, irreps = cc.builtin_group("zn:8")
    dense = cc.group_cstar_bialgebra(table, irreps)
    gamma = random_generating_functional(dense, np.random.default_rng(8))
    gamma_path = tmp_path / "gamma_z8.json"
    blocks = [schemas.to_pairs(rho) for rho in gamma.dual_blocks]
    gamma_path.write_text(json.dumps({"dual_blocks": blocks}))
    argv = ["evolve", "dual:zn:8", str(gamma_path), "--times", "0,0.5,2"]

    def report():
        code = cli.main(argv)
        return code, json.loads(capsys.readouterr().out)

    code, table_route = report()
    monkeypatch.setattr(cli, "_builtin_group_cstar", lambda *args: dense)
    dense_code, dense_route = report()
    assert code == dense_code == 0
    assert (table_route.pop("kernel"), dense_route.pop("kernel")) == ("table", "dense")
    assert_matches(table_route, dense_route)


def test_cli_evolve_builds_one_flow(tmp_path, monkeypatch, capsys):
    """``evolve zn:64`` forms the left-convolution matrix of gamma once: the
    moduli, the norm-bound grid and the states share one flow."""
    import cstarconv as cc
    from cstarconv import cli
    from cstarconv.sampling import random_generating_functional

    b = cli._resolve_bialgebra("zn:64")
    gamma = random_generating_functional(b, np.random.default_rng(1))
    path = tmp_path / "gamma.json"
    blocks = [cc.io.to_pairs(rho) for rho in gamma.dual_blocks]
    path.write_text(json.dumps({"dual_blocks": blocks}))
    calls = []
    kernel = type(b).left_matrix

    def counted(self, dual):
        calls.append(dual.shape)
        return kernel(self, dual)

    monkeypatch.setattr(type(b), "left_matrix", counted)
    times = "0.001,0.01,0.1,0.5,1,2,4,8"
    assert cli.main(["evolve", "zn:64", str(path), "--times", times]) == 0
    assert calls == [(64,)]


def test_cli_builds_cyclic_irreps_only_for_guichardet(tmp_path, monkeypatch, capsys):
    """``validate zn:8``, ``evolve zn:8`` and ``evolve dual:zn:8`` read no
    irrep: with ``cyclic_irreps`` made to raise they print the same reports,
    while ``guichardet zn:8`` still reaches it for the GNS route."""
    from cstarconv import cli, groups

    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]] + [[[[0, 0]]]] * 6}))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 7}))
    runs = [
        ["validate", "zn:8"],
        ["evolve", "zn:8", str(gamma), "--times", "0.5,2"],
        ["evolve", "dual:zn:8", str(gamma), "--times", "0.5,2"],
    ]

    def reports():
        out = []
        for argv in runs:
            assert cli.main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    expected = reports()

    def refuse(n):
        raise RuntimeError(f"cyclic_irreps({n}) was built")

    monkeypatch.setattr(groups, "cyclic_irreps", refuse)
    assert reports() == expected
    with pytest.raises(RuntimeError, match="cyclic_irreps"):
        cli.main(["guichardet", "zn:8", str(psi)])


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


def test_cli_guichardet_gns_route_uses_the_tolerance(tmp_path):
    """The GNS positivity gate is the command's ``--tol``, as on the kernel route."""
    psi_path = tmp_path / "psi.json"
    odd = cc.s3_sign() < 0
    psi = np.where(np.arange(6) == cc.s3_group().identity, 0.0, -1.0) + (1 / 3 + 1e-11) * odd
    psi_path.write_text(json.dumps({"group": "s3", "values": [[v, 0.0] for v in psi]}))
    result = run_cli("guichardet", "s3", str(psi_path))
    assert result.returncode == 0, result.stdout
    report = json.loads(result.stdout)
    assert "precondition_failures" not in report
    agreement = next(c for c in report["checks"] if c["name"] == "gns_constant_agreement")
    assert agreement["pass"] is True


def test_cli_guichardet_refuses_bad_irreps_before_the_kernel_route(
    tmp_path, monkeypatch, capsys
):
    """A ``Z_3`` irrep with ``chi(1) = i`` is refused (exit 2) before the
    kernel route's eigendecomposition runs."""
    from cstarconv import cli, groupfun

    group = tmp_path / "z3.json"
    table = cc.cyclic_group(3).table.tolist()
    group.write_text(json.dumps({"order": 3, "identity": 0, "table": table}))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [[0.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]}))
    omega = np.exp(2j * np.pi / 3)
    characters = [[1, 1, 1], [1, omega, omega**2], [1, 1j, -1]]
    irreps = tmp_path / "irreps.json"
    irreps.write_text(json.dumps({"irreps": [
        {"dim": 1, "matrices": [schemas.to_pairs(np.array([[c]])) for c in chi]}
        for chi in characters
    ]}))
    calls = []
    constant = groupfun.guichardet_constant
    monkeypatch.setattr(groupfun, "guichardet_constant", lambda *a: calls.append(a) or constant(*a))
    assert cli.main(["guichardet", str(group), str(psi), "--irreps", str(irreps)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: at {irreps}: irrep 2 violates the homomorphism law at (1, 2)\n" in captured.err
    assert calls == []



def _s3_irreps_broken(kind):
    """The S3 irreps with one defect of ``kind``, and the refusal it draws."""
    mats = [np.array(m) for m in cc.s3_irreps().matrices]
    if kind == "count":
        mats[2] = mats[2][:5]
        return mats, "irrep 2 has 5 matrices, expected 6"
    if kind == "identity":
        mats[2][0] = -mats[2][0]
        return mats, "irrep 2 does not map the identity to 1"
    if kind == "unitarity":
        mats[2][1:] *= 2.0
        return mats, "irrep 2 is not unitary at element 1"
    if kind == "homomorphism":
        mats[2][[1, 2]] = mats[2][[2, 1]]
        return mats, "irrep 2 violates the homomorphism law at (1, 3)"
    if kind == "dimensions":
        return mats[:2], "irrep dimensions (1, 1) do not satisfy sum(d^2) == |G| == 6"
    if kind == "trivial":
        mats[0] = mats[1]
        return mats, "irrep table must contain the trivial representation"
    assert kind == "orthogonality"
    mats[1] = mats[0]
    return mats, "matrix coefficients violate Schur orthogonality"


def _write_irreps(path, mats):
    path.write_text(json.dumps({"irreps": [
        {"dim": int(m.shape[1]), "matrices": schemas.to_pairs(m)} for m in mats
    ]}))


@pytest.mark.parametrize(
    "kind",
    ["count", "identity", "unitarity", "homomorphism", "dimensions", "trivial", "orthogonality"],
)
def test_cli_names_the_irrep_file_it_refuses(tmp_path, capsys, kind):
    """Each refusal of ``IrrepTable.validate`` names the irrep file, from
    ``guichardet --irreps`` and from ``validate``, and exits 2.  The irreps
    are validated before any hypothesis on the function is decided, so a
    function that is not conditionally positive-definite draws the same
    refusal."""
    from cstarconv import cli

    s3 = cc.s3_group()
    group = tmp_path / "S3.json"
    group.write_text(json.dumps({"order": 6, "identity": 0, "table": s3.table.tolist()}))
    valid, spike = tmp_path / "psi.json", tmp_path / "spike.json"
    valid.write_text(json.dumps({"values": [[v - 1.0, 0.0] for v in cc.s3_sign()]}))
    spike.write_text(json.dumps({"values": [[5.0 * (g == 3), 0.0] for g in range(6)]}))
    mats, message = _s3_irreps_broken(kind)
    irreps = tmp_path / "f.json"
    _write_irreps(irreps, mats)
    for argv in (["guichardet", str(group), str(valid), "--irreps", str(irreps)],
                 ["guichardet", str(group), str(spike), "--irreps", str(irreps)],
                 ["validate", str(group), str(irreps)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: at {irreps}: {message}\n"


def test_cli_does_not_blame_the_irrep_file_for_a_group_file(tmp_path, capsys):
    """A monoid that is not a group is refused as the group file's fault,
    never the irrep file's."""
    from cstarconv import cli

    monoid = tmp_path / "monoid.json"
    monoid.write_text(json.dumps(
        {"order": 3, "identity": 0, "table": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}
    ))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [[0.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]}))
    irreps = tmp_path / "f.json"
    _write_irreps(irreps, cc.cyclic_irreps(3).matrices)
    runs = {
        f"error: at {monoid}: irrep tables require a group\n": [
            "validate", str(monoid), str(irreps)
        ],
        f"error: at {monoid}: operation requires a group (some inverses missing)\n": [
            "guichardet", str(monoid), str(psi), "--irreps", str(irreps)
        ],
    }
    for err, argv in runs.items():
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == err

# the files a refusal case reads: valid ones, and one defect each
NAMED_FILES = {
    "z2": _semigroup_doc(2, 0, Z2_TABLE),
    "bad_table": _semigroup_doc(2, 0, [[0, 5], [1, 0]]),
    "monoid": _semigroup_doc(3, 0, [[0, 1, 2], [1, 2, 2], [2, 2, 2]]),
    "bad_bialgebra": _bialgebra_doc([1, -1]),
    # functions on Z2 with a counit that is zero, and one on both points
    "zero_counit": {"blocks": [1, 1], "epsilon": [[[[0, 0]]], [[[0, 0]]]]} | Z2_FUNCTIONS,
    "two_block_counit": {"blocks": [1, 1], "epsilon": [[[[1, 0]]], [[[1, 0]]]]} | Z2_FUNCTIONS,
    "unknown": {"rows": []},
    "gamma": {"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]},
    "one_block": {"dual_blocks": [[[[-1.0, 0.0]]]]},
    "psi": {"values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 5},
    "psi3": {"values": [[0.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]},
    "five_values": {"values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 4},
    "zn6_psi": {"group": "zn:6", "values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 5},
    "not_json": "{oops",
}

# (argv, refused file, start of its reason): one case per schema and command
# that reads it, the file refused among valid ones
NAMED_REFUSALS = {
    "validate-second-table": (
        ["validate", "{z2}", "{bad_table}"], "bad_table",
        "at $.table: table entries must be element indices",
    ),
    "validate-bialgebra": (
        ["validate", "{z2}", "{bad_bialgebra}"], "bad_bialgebra",
        "at $.blocks: block dimensions must be positive, got (1, -1)",
    ),
    "validate-irreps-after-builtin": (
        ["validate", "s3", "{bad_irreps}"], "bad_irreps", "irrep 2 has 5 matrices, expected 6"
    ),
    "validate-orphan-irreps": (
        ["validate", "{irreps}", "{z2}"], "irreps",
        "irrep file must follow a group (built-in or semigroup file)",
    ),
    "validate-unknown-schema": (
        ["validate", "{z2}", "{unknown}"], "unknown",
        "unrecognized schema (no table/irreps/blocks key)",
    ),
    "validate-not-json": (["validate", "{z2}", "{not_json}"], "not_json", "invalid JSON ("),
    "evolve-block-count": (
        ["evolve", "zn:2", "{one_block}"], "one_block",
        "at $.dual_blocks: expected 2 blocks, got 1",
    ),
    "evolve-block-count-table-file": (
        ["evolve", "{z2}", "{one_block}"], "one_block",
        "at $.dual_blocks: expected 2 blocks, got 1",
    ),
    "evolve-table": (
        ["evolve", "{bad_table}", "{gamma}"], "bad_table",
        "at $.table: table entries must be element indices",
    ),
    "evolve-bialgebra": (
        ["evolve", "{bad_bialgebra}", "{gamma}"], "bad_bialgebra",
        "at $.blocks: block dimensions must be positive, got (1, -1)",
    ),
    "evolve-zero-counit": (
        ["evolve", "{zero_counit}", "{gamma}"], "zero_counit", "counit vanishes everywhere"
    ),
    "evolve-two-block-counit": (
        ["evolve", "{two_block_counit}", "{gamma}"], "two_block_counit",
        "counit is not a character supported on a single 1x1 block",
    ),
    "evolve-unknown-schema": (
        ["evolve", "{unknown}", "{gamma}"], "unknown",
        "unrecognized schema (no table/irreps/blocks key)",
    ),
    "evolve-irreps": (
        ["evolve", "{irreps}", "{gamma}"], "irreps",
        "expected a table or bialgebra file, got irreps",
    ),
    "guichardet-value-count": (
        ["guichardet", "s3", "{five_values}"], "five_values",
        "at $.values: expected 6 values, got 5",
    ),
    "guichardet-value-count-file-group": (
        ["guichardet", "{s3}", "{five_values}", "--irreps", "{irreps}"], "five_values",
        "at $.values: expected 6 values, got 5",
    ),
    "guichardet-group-mismatch": (
        ["guichardet", "s3", "{zn6_psi}"], "zn6_psi",
        "at $.group: function file names group 'zn:6', command got 's3'",
    ),
    "guichardet-not-a-group": (
        ["guichardet", "{monoid}", "{psi3}"], "monoid",
        "operation requires a group (some inverses missing)",
    ),
    "guichardet-table": (
        ["guichardet", "{bad_table}", "{psi}"], "bad_table",
        "at $.table: table entries must be element indices",
    ),
    "guichardet-irreps": (
        ["guichardet", "{s3}", "{psi}", "--irreps", "{bad_irreps}"], "bad_irreps",
        "irrep 2 has 5 matrices, expected 6",
    ),
    "guichardet-irreps-not-json": (
        ["guichardet", "{s3}", "{psi}", "--irreps", "{not_json}"], "not_json", "invalid JSON ("
    ),
}


@pytest.mark.parametrize(
    "argv, culprit, reason", NAMED_REFUSALS.values(), ids=NAMED_REFUSALS.keys()
)
def test_cli_names_the_file_whose_content_it_refuses(tmp_path, capsys, argv, culprit, reason):
    """Exit 2 with one line ``error: at <file>: <reason>``, naming the refused
    file and no other, whatever its schema, command or place on the line."""
    from cstarconv import cli

    paths = {}
    for name, doc in NAMED_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    paths["s3"] = Path(_s3_group_file(tmp_path))
    paths["irreps"], paths["bad_irreps"] = tmp_path / "irreps.json", tmp_path / "bad_irreps.json"
    _write_irreps(paths["irreps"], cc.s3_irreps().matrices)
    _write_irreps(paths["bad_irreps"], _s3_irreps_broken("count")[0])
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: at {paths[culprit]}: {reason}")
    assert [p for p in paths.values() if str(p) in line] == [paths[culprit]]


def _strings_beginning_with_at(path: Path) -> list[int]:
    """Lines of the strings and f-strings of ``path`` whose text begins ``at ``."""
    tree = ast.parse(path.read_text(), str(path))
    parts = {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) for v in n.values}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) and node.values:
            first = node.values[0]
            text = first.value if isinstance(first, ast.Constant) else ""
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = "" if id(node) in parts else node.value
        else:
            continue
        if text.startswith("at "):
            lines.append(node.lineno)
    return lines


def test_one_frame_prefixes_every_refusal():
    """``io.at`` writes the one ``at <where>: `` prefix; no other string of
    the package begins a message that way."""
    package = Path(cc.__file__).resolve().parent
    found = {p.name: _strings_beginning_with_at(p) for p in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "io.py"} == {}
    assert len(found["io.py"]) == 1


def test_cli_leaves_the_schema_dispatch_to_io():
    """``cli.py`` reads no document itself and tests no schema key with
    ``in``: ``io.load_structure`` picks a file's schema."""
    path = Path(cc.__file__).resolve().parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    loads = [
        node.lineno
        for node in ast.walk(tree)
        if "load_document" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    keys = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant)
        and node.left.value in ("table", "irreps", "blocks")
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
    ]
    assert (loads, keys) == ([], [])


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
                    {"dim": 1, "matrices": [schemas.to_pairs(m) for m in stack]}
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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["DUAL:s3", " dual:s3", "Dual:S3", "dual: s3 "])
def test_cli_reads_the_dual_prefix_like_a_fixture_name(name, capsys):
    """The dual: prefix is stripped and case-folded as fixture names are."""
    from cstarconv import cli

    gamma = str(GOLDEN / "gamma_dual_s3.json")
    assert cli.main(["evolve", "dual:s3", gamma]) == 0
    want = json.loads(capsys.readouterr().out)
    assert cli.main(["evolve", name, gamma]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["inputs"][0]["source"] == name
    got["inputs"], want["inputs"] = got["inputs"][1:], want["inputs"][1:]
    assert got == want


def test_cli_guichardet_refuses_irreps_for_a_builtin_group(tmp_path, capsys):
    """A built-in group carries its irreps: --irreps is refused, not ignored."""
    from cstarconv import cli

    missing = tmp_path / "nonexistent.json"
    argv = ["guichardet", "s3", str(GOLDEN / "psi_s3.json"), "--irreps", str(missing)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--irreps" in captured.err and "'s3'" in captured.err


def _zn6_kernel_file(tmp_path, ref) -> str:
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"group": ref, "values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 5}))
    return str(path)


@pytest.mark.parametrize("ref", ["zn:6", "zn:06", "zn: 6", " ZN:6 "])
def test_cli_guichardet_accepts_every_spelling_of_its_group(ref, tmp_path, capsys):
    from cstarconv import cli

    assert cli.main(["guichardet", "zn:6", _zn6_kernel_file(tmp_path, ref)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("ref", ["zn:7", "s3", "dual:zn:6", "s4", "", "zn:1000000000"])
def test_cli_guichardet_refuses_a_function_of_another_group(ref, tmp_path, capsys):
    """Names are compared as names: a huge order is refused without building it."""
    from cstarconv import cli

    psi = _zn6_kernel_file(tmp_path, ref)
    tracemalloc.start()
    try:
        code = cli.main(["guichardet", "zn:6", psi])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 4 * 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"function file names group {ref!r}" in captured.err


UNBUILDABLE_ORDERS = {
    "beyond-address-space": 10**18,  # numpy's MemoryError for 8 EB of indices
    "beyond-index-range": 10**19,  # numpy's ValueError: more than 2**63 entries
}
UNBUILDABLE_COMMANDS = {
    "validate": ["validate", "zn:{n}"],
    "evolve": ["evolve", "zn:{n}", "{gamma}"],
    "evolve-dual": ["evolve", "dual:zn:{n}", "{gamma}"],
    "guichardet": ["guichardet", "zn:{n}", "{psi}"],
}


@pytest.mark.parametrize("n", UNBUILDABLE_ORDERS.values(), ids=UNBUILDABLE_ORDERS.keys())
@pytest.mark.parametrize(
    "argv", UNBUILDABLE_COMMANDS.values(), ids=UNBUILDABLE_COMMANDS.keys()
)
def test_cli_refuses_a_cyclic_order_too_large_to_build(n, argv, capsys):
    """numpy refuses the table before touching memory; the CLI exits 2 naming the order."""
    from cstarconv import cli

    inputs = {"gamma": GOLDEN / "gamma_zn2.json", "psi": GOLDEN / "psi_s3.json"}
    assert cli.main([a.format(n=n, **inputs) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cyclic group of order {n} is too large to build")


@pytest.mark.parametrize(
    "error", [MemoryError(), MemoryError("Unable to allocate 27.0 GiB for an array")]
)
def test_cli_reports_memory_exhaustion_in_one_line(monkeypatch, capsys, error):
    """A ``MemoryError`` anywhere in a command exits 2, the code of an order
    too large to build, with one ``error:`` line and no traceback."""
    from cstarconv import cli

    def exhaust(args):
        raise error

    monkeypatch.setattr(cli, "cmd_validate", exhaust)
    assert cli.main(["validate", "zn:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: not enough memory for this input")
    assert str(error) in line


EMPTY_NAMES = {
    "guichardet": ["guichardet", "", "{psi}"],
    "evolve": ["evolve", " ", "{gamma}"],
    "validate": ["validate", "zn:2", ""],
}


@pytest.mark.parametrize("argv", EMPTY_NAMES.values(), ids=EMPTY_NAMES.keys())
def test_cli_names_an_empty_group_name(argv, capsys):
    """A blank name is refused as such, not read as the directory '.'."""
    from cstarconv import cli

    inputs = {"psi": GOLDEN / "psi_s3.json", "gamma": GOLDEN / "gamma_zn2.json"}
    assert cli.main([arg.format(**inputs) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "empty group name" in err and "Errno" not in err


def _s3_group_file(tmp_path) -> str:
    path = tmp_path / "s3_group.json"
    table = cc.s3_group().table.tolist()
    path.write_text(json.dumps({"order": 6, "identity": 0, "table": table}))
    return str(path)


BLANK_PATHS = {
    "evolve-gamma": (["evolve", "zn:2", ""], "blank path"),
    "guichardet-psi": (["guichardet", "s3", ""], "blank path"),
    "guichardet-file-irreps": (["guichardet", "{group}", "{psi}", "--irreps", ""], "blank path"),
    "guichardet-builtin-irreps": (["guichardet", "s3", "{psi}", "--irreps", ""], "--irreps"),
}


@pytest.mark.parametrize("argv, message", BLANK_PATHS.values(), ids=BLANK_PATHS.keys())
def test_cli_refuses_a_blank_path_by_name(argv, message, tmp_path, capsys):
    """A blank path is malformed input; --irreps "" neither drops the GNS route
    nor passes for a built-in group."""
    from cstarconv import cli

    inputs = {"psi": GOLDEN / "psi_s3.json", "group": _s3_group_file(tmp_path)}
    assert cli.main([arg.format(**inputs) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Errno" not in captured.err and "directory" not in captured.err
    assert message in captured.err


DUAL_NAMES = {
    "validate": ["validate", "dual:s3"],
    "validate-zn": ["validate", "zn:2", "DUAL:zn:4"],
    "guichardet": ["guichardet", "dual:s3", "{psi}"],
}


@pytest.mark.parametrize("argv", DUAL_NAMES.values(), ids=DUAL_NAMES.keys())
def test_cli_names_the_dual_prefix_where_it_is_refused(argv, capsys):
    """``evolve`` takes ``dual:``; ``validate`` and ``guichardet`` refuse it by
    name, not as an unknown group."""
    from cstarconv import cli

    assert cli.main([arg.format(psi=GOLDEN / "psi_s3.json") for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "dual:" in captured.err and "unknown built-in group" not in captured.err


def test_cli_digests_a_file_named_like_a_builtin_group(tmp_path, monkeypatch, capsys):
    """Only the group argument may be a built-in name; the function file is hashed."""
    from cstarconv import cli

    psi = (GOLDEN / "psi_s3.json").read_bytes()
    (tmp_path / "s3").write_bytes(psi)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["guichardet", "s3", "s3"]) == 0
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert inputs == [
        {"source": "s3", "sha256": hashlib.sha256(b"builtin:s3").hexdigest()},
        {"source": "s3", "sha256": hashlib.sha256(psi).hexdigest()},
    ]


@pytest.mark.parametrize(
    "spelling, canonical", [("zn:06", "zn:6"), (" ZN: 6 ", "zn:6"), ("dual:S3", "dual:s3")]
)
def test_cli_digests_a_builtin_by_its_folded_name(spelling, canonical):
    """Spellings of one built-in group hash alike, as the canonical one always has."""
    from cstarconv import cli

    digest = cli._digest(spelling, True)
    assert digest["source"] == spelling
    assert digest["sha256"] == cli._digest(canonical, True)["sha256"]
    assert digest["sha256"] == hashlib.sha256(f"builtin:{canonical}".encode()).hexdigest()


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
    "seed-neg": ["--seed", "-1", "validate", "zn:2"],
    "seed-float": ["--seed", "1.5", "evolve", "zn:2", "{gamma}"],
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


ORDER = "error: cyclic group order must be an integer in {!r}"
SEED_ERROR = "cstarconv: error: argument --seed: expected a nonnegative integer, got {!r}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "zn:3_0"], ORDER.format("zn:3_0")),
        (["validate", "zn:٣"], ORDER.format("zn:٣")),  # ARABIC-INDIC DIGIT THREE
        (["evolve", "dual:zn:２", "g.json"], ORDER.format("zn:２")),  # FULLWIDTH DIGIT TWO
        (["--seed", "٣", "validate", "zn:2"], SEED_ERROR.format("٣")),
    ],
    ids=["underscore", "arabic-indic", "fullwidth-dual", "seed"],
)
def test_cli_reads_orders_and_seeds_as_ascii_digits(capsys, argv, message):
    """``int`` reads ``3_0`` as 30 and other scripts' digits as numbers; the CLI does not."""
    from cstarconv import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an option value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == message


def test_cli_decodes_json_as_utf8_in_any_locale(tmp_path):
    """A file is UTF-8 (RFC 8259) whatever the locale's codec, here ASCII."""
    psi = tmp_path / "psi.json"
    doc = {"note": "café", "values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 5}
    psi.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    runs = []
    for env in (
        {"PYTHONUTF8": "1"},
        {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"},
    ):
        runs.append(subprocess.run(
            [sys.executable, "-m", "cstarconv", "guichardet", "zn:6", str(psi)],
            capture_output=True, env={**os.environ, **env},
        ))
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    assert runs[0].stdout == runs[1].stdout


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
    assert len(overflowed) == 6
    assert all(c["residual"] is None and c["pass"] is False for c in overflowed)
    entry = report["times"][1]
    assert entry["t"] == 800 and entry["state_min_eigenvalue"] is None
    assert all(c["residual"] is not None for c in report["checks"] if "[t=1]" in c["name"])


def test_cli_overflow_keeps_numpy_warnings_off_stderr(tmp_path):
    """An overflowing exponential fails its checks; stderr holds only the timing line."""
    gamma_path = tmp_path / "g.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[-1e154, 0.0]]], [[[1e154, 0.0]]]]}))
    result = run_cli("evolve", "zn:2", str(gamma_path))
    assert result.returncode == 1
    assert re.fullmatch(r"# elapsed seconds: \d+\.\d{3}\n", result.stderr), result.stderr


def test_cli_smoke_check_fails_on_a_nan_sample(tmp_path):
    """Convolutions that overflow to nan fail the sampled checks, not read as 0."""
    path = tmp_path / "huge.json"
    delta = [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [1, 0]], [[1e308, 0], [-1e308, 0]]]
    doc = {"blocks": [1, 1], "mode": "hom", "delta": delta, "epsilon": [[[[1, 0]]], [[[0, 0]]]]}
    path.write_text(json.dumps(doc))
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    sampled = [c for c in json.loads(result.stdout)["checks"] if c["name"].endswith("[sample]")]
    assert len(sampled) == 3
    assert all(c["residual"] is None and c["pass"] is False for c in sampled)


def test_check_never_passes_a_non_finite_residual():
    from cstarconv.cli import _check, render_json

    for residual in (math.nan, math.inf, -math.inf):
        check = _check("x", residual, 1e-9)
        assert check["pass"] is False
        assert json.loads(render_json(check))["residual"] is None


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_main_renders_a_non_finite_number_as_null(monkeypatch, capsys, fmt):
    """The renderer writes null for every non-finite float, wherever it sits."""
    from cstarconv import cli

    body = {"value": math.inf, "nested": [np.float64(np.nan), {"x": -math.inf}]}
    monkeypatch.setattr(cli, "cmd_validate", lambda args: (body, 0))
    assert cli.main(["--format", fmt, "validate", "zn:2"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == {"value": None, "nested": [None, {"x": None}]}
    else:
        assert out == "value = null\nnested[0] = null\nnested[1].x = null\n"


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
    names = [c["name"] for c in report["checks"][:2]]
    assert names == ["generating_functional", "generator_norm_bound"]
    if argv:
        assert report["checks"][1]["pass"] is True


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
