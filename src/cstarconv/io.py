"""Structured-text (JSON) schemas for tables, irreps, bialgebras and functions.

Complex numbers are ``[re, im]`` pairs; matrices are row-major nested lists
in canonical basis order.  Schemas:

* semigroup file:   ``{"order": m, "identity": e, "table": [[...]]}``
* irrep file:       ``{"irreps": [{"dim": d, "matrices": [[[...]]]}]}``
  (one ``d x d`` complex matrix per group element, in table order)
* bialgebra file:   ``{"blocks": [...], "mode": "hom"|"hyper",
  "delta": <dim^2 x dim complex matrix>, "epsilon": [<dual blocks>]}``
* functional file:  ``{"dual_blocks": [<per-block complex matrices>]}``
* group function:   ``{"group": <ref>, "values": [[re, im], ...]}``

A ``<ref>`` is a built-in fixture name (``zn:<n>``, ``s3``, ``d4``, ``q8``).
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .algebra import Algebra, Functional, tensor_algebra
from .bialgebra import Bialgebra
from .errors import SchemaError
from .groups import IrrepTable, SemigroupTable
from .maps import LinearMap


def _fail(path: str, message: str):
    raise SchemaError(f"at {path}: {message}")


def _is_number(value) -> bool:
    # the one rule for a JSON number; a JSON true is a Python int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, path: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        _fail(path, f"expected a [re, im] pair, got {value!r}")
    return complex(_as_finite(value[0], path), _as_finite(value[1], path))


def _as_int(value, path: str) -> int:
    # int() would truncate 0.7 and parse "0"
    if not (_is_number(value) and isinstance(value, int)):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_finite(value: int | float, path: str) -> float:
    # the JSON parser accepts NaN, Infinity and integers beyond float range;
    # no schema allows them
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected finite numbers, got {value!r}")
    return number


def _as_complex_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty nested list (matrix)")
    matrix = _decode_pairs(value)
    if matrix is not None:
        return matrix
    rows = []
    width = None
    for r, row in enumerate(value):
        if not isinstance(row, list):
            _fail(f"{path}[{r}]", "expected a list (matrix row)")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}[{r}]", f"ragged row: {len(row)} entries, expected {width}")
        rows.append([_as_complex(v, f"{path}[{r}][{c}]") for c, v in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _decode_pairs(value: list) -> np.ndarray | None:
    """A well-formed matrix of ``[re, im]`` pairs in one ``np.array`` call.

    ``None`` when the value is anything else (ragged, non-numeric, a
    boolean, a wrong pair length, non-finite, past float range), so that
    the per-entry walk in :func:`_as_complex_matrix` reports it.
    """
    try:
        array = np.array(value)
    except (ValueError, OverflowError):
        return None
    if array.dtype.kind not in "iuf" or array.ndim != 3 or array.shape[2] != 2:
        return None
    # numpy reads a boolean beside numbers as 0 or 1; the type scan runs in C
    if bool in set(map(type, chain.from_iterable(chain.from_iterable(value)))):
        return None
    pairs = np.ascontiguousarray(array, dtype=np.float64)
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(np.complex128)[..., 0]


def complex_matrix_to_json(matrix: np.ndarray) -> list:
    return [
        [[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)
    ]


def load_document(source) -> dict:
    if isinstance(source, dict):
        return source
    if not str(source).strip():  # Path("") is the working directory
        raise SchemaError(f"blank path {source!r} names no file")
    try:
        data = json.loads(Path(source).read_text())
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, integers past the digit limit
        # and too deep nesting
        raise SchemaError(f"at {source}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"at {source}: top level must be an object")
    return data


def load_semigroup(source) -> SemigroupTable:
    data = load_document(source)
    for key in ("order", "identity", "table"):
        if key not in data:
            _fail("$", f"semigroup file missing key {key!r}")
    order = _as_int(data["order"], "$.order")
    identity = _as_int(data["identity"], "$.identity")
    table = data["table"]
    if order < 1:
        _fail("$.order", f"expected a positive integer, got {order!r}")
    if not isinstance(table, list) or len(table) != order:
        _fail("$.table", f"expected {order} rows")
    for r, row in enumerate(table):
        if not isinstance(row, list) or len(row) != order:
            _fail(f"$.table[{r}]", f"expected {order} entries")
        for c, v in enumerate(row):
            _as_int(v, f"$.table[{r}][{c}]")
    if not 0 <= identity < order:
        _fail("$.identity", f"identity index {identity} out of range")
    try:
        return SemigroupTable(np.array(table), identity)
    except (ValueError, OverflowError) as exc:  # an entry past the index range, or a law
        # SemigroupTable checks the entries, then the identity, then associativity
        unit = list(range(order))
        indices = all(0 <= v < order for row in table for v in row)
        not_unit = table[identity] != unit or [row[identity] for row in table] != unit
        where = "$.identity" if indices and not_unit else "$.table"
        raise SchemaError(f"at {where}: {exc}") from exc


def load_irreps(source) -> IrrepTable:
    data = load_document(source)
    if "irreps" not in data or not isinstance(data["irreps"], list):
        _fail("$", "irrep file must contain a list under 'irreps'")
    mats = []
    for i, entry in enumerate(data["irreps"]):
        prefix = f"$.irreps[{i}]"
        if not isinstance(entry, dict) or "dim" not in entry or "matrices" not in entry:
            _fail(prefix, "each irrep needs 'dim' and 'matrices'")
        d = _as_int(entry["dim"], f"{prefix}.dim")
        matrices = entry["matrices"]
        # a non-empty string or object fails entry by entry below
        if not matrices or isinstance(matrices, (int, float)):
            _fail(f"{prefix}.matrices", "expected a non-empty list of matrices")
        stack = [
            _as_complex_matrix(m, f"{prefix}.matrices[{g}]")
            for g, m in enumerate(matrices)
        ]
        for g, m in enumerate(stack):
            if m.shape != stack[0].shape:
                _fail(
                    f"{prefix}.matrices[{g}]",
                    f"shape {m.shape} differs from matrices[0] {stack[0].shape}",
                )
        arr = np.stack(stack)
        if arr.shape[1:] != (d, d):
            _fail(prefix, f"matrices have shape {arr.shape[1:]}, declared dim {d}")
        mats.append(arr)
    try:
        return IrrepTable(tuple(mats))
    except ValueError as exc:
        raise SchemaError(f"at $.irreps: {exc}") from exc


def load_bialgebra(source) -> Bialgebra:
    data = load_document(source)
    for key in ("blocks", "mode", "delta", "epsilon"):
        if key not in data:
            _fail("$", f"bialgebra file missing key {key!r}")
    blocks = data["blocks"]
    if not isinstance(blocks, list):
        _fail("$.blocks", "expected a list of integers")
    blocks = tuple(_as_int(n, f"$.blocks[{i}]") for i, n in enumerate(blocks))
    try:
        algebra = Algebra(blocks)
    except ValueError as exc:
        raise SchemaError(f"at $.blocks: {exc}") from exc
    delta = _as_complex_matrix(data["delta"], "$.delta")
    square = tensor_algebra(algebra, algebra)
    if delta.shape != (square.dim, algebra.dim):
        _fail(
            "$.delta",
            f"expected shape ({square.dim}, {algebra.dim}), got {delta.shape}",
        )
    eps = load_functional(algebra, {"epsilon": data["epsilon"]}, key="epsilon")
    mode = data["mode"]
    if mode not in ("hom", "hyper"):
        _fail("$.mode", f"expected 'hom' or 'hyper', got {mode!r}")
    try:
        return Bialgebra(algebra, LinearMap(algebra, square, delta), eps, mode)
    except ValueError as exc:
        raise SchemaError(f"at $: {exc}") from exc


def load_functional(algebra: Algebra, source, key: str = "dual_blocks") -> Functional:
    data = load_document(source)
    if key not in data or not isinstance(data[key], list):
        _fail("$", f"functional file must contain a list under {key!r}")
    mats = [
        _as_complex_matrix(m, f"$.{key}[{i}]") for i, m in enumerate(data[key])
    ]
    try:
        return algebra.functional(mats)
    except ValueError as exc:
        raise SchemaError(f"at $.{key}: {exc}") from exc


def load_group_function(source) -> tuple[str | None, np.ndarray]:
    data = load_document(source)
    if "values" not in data or not isinstance(data["values"], list):
        _fail("$", "group function file must contain a list under 'values'")
    values = np.array(
        [_as_complex(v, f"$.values[{i}]") for i, v in enumerate(data["values"])]
    )
    group_ref = data.get("group")
    if group_ref is not None and not isinstance(group_ref, str):
        _fail("$.group", "expected a built-in group name")
    return group_ref, values
