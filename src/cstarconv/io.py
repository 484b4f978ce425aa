"""Structured-text (JSON) schemas for tables, irreps, bialgebras and functions.

Matrices are row-major nested lists in canonical basis order.  Schemas:

* semigroup file:   ``{"order": m, "identity": e, "table": [[...]]}``
* irrep file:       ``{"irreps": [{"dim": d, "matrices": [[[...]]]}]}``
  (one ``d x d`` complex matrix per group element, in table order)
* bialgebra file:   ``{"blocks": [...], "mode": "hom",
  "delta": <dim^2 x dim complex matrix>, "epsilon": [<dual blocks>]}``
  (``"hom"`` says the coproduct is a *-homomorphism, the only kind read)
* functional file:  ``{"dual_blocks": [<per-block complex matrices>]}``
* group function:   ``{"group": <ref>, "values": [[re, im], ...]}``

A ``<ref>`` is a built-in fixture name (``zn:<n>``, ``s3``, ``d4``, ``q8``).
The loaders refuse by JSON path through :func:`at`, the one frame that
prefixes a refusal; read inside ``at(path)``, a file's refusals are
``at <path>: at <JSON path>: <reason>``.

One codec reads every array: :func:`_decode` reads leaves nested ``rank``
lists deep, ``[re, im]`` pairs (group-function values, a matrix, an irrep's
stack of matrices: rank 1, 2, 3) or JSON integers (block sizes, a table:
rank 1, 2), and refuses a malformed array at its first defect, by path.
:func:`to_pairs` writes a complex array of any rank as pairs.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .algebra import Algebra, Functional, tensor_algebra
from .bialgebra import Bialgebra
from .errors import PreconditionError, SchemaError
from .groups import IrrepTable, SemigroupTable
from .maps import LinearMap


@contextmanager
def at(where: str | None):
    """Refuse a ``ValueError`` or ``OverflowError`` raised inside as the
    :class:`SchemaError` ``at <where>: <reason>``, ``where`` a file or JSON path."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        # a precondition is a verdict, and None or a blank path names no file
        if isinstance(exc, PreconditionError) or not str(where or "").strip():
            raise
        raise SchemaError(f"at {where}: {exc}") from exc


def _fail(path: str, message: str):
    with at(path):
        raise SchemaError(message)


def _is_number(value) -> bool:
    # the one rule for a JSON number; a JSON true is a Python int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


def _decode(value, rank: int, path: str, leaf: type = complex) -> np.ndarray:
    """``value`` by the fast path, or by the walk where the fast path refuses."""
    array = _decode_fast(value, rank, leaf)
    return _walk(value, rank, path, leaf) if array is None else array


def _decode_fast(value, rank: int, leaf: type = complex) -> np.ndarray | None:
    """A well-formed value in one ``np.array`` call, else ``None``: a boolean,
    a string, a wrong pair length, a ragged level, a non-finite number, an
    integer past float range or a float where an integer belongs go to :func:`_walk`."""
    try:
        array = np.array(value)
    except (ValueError, OverflowError):  # ragged, or an integer past every dtype
        return None
    pair = leaf is complex  # a pair is one more level, of length 2
    if array.dtype.kind not in ("iuf" if pair else "iu") or array.shape[rank:] != (2,) * pair:
        return None
    scalars = value
    for _ in range(rank - 1 + pair):
        scalars = chain.from_iterable(scalars)
    # numpy reads a boolean beside numbers as 0 or 1; the type scan runs in C
    if bool in set(map(type, scalars)):
        return None
    if not pair:
        return array
    pairs = np.ascontiguousarray(array, dtype=np.float64)
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(np.complex128)[..., 0]


def _walk(value, rank: int, path: str, leaf: type = complex) -> np.ndarray:
    """:func:`_decode` entry by entry, rank 0 being one pair or integer; a rank-1
    list may be empty, and the matrices of a rank-3 stack agree in shape."""
    if rank == 0 and leaf is int:
        return _as_int(value, path)
    if rank == 0:
        pair = isinstance(value, (list, tuple)) and len(value) == 2
        if not (pair and all(map(_is_number, value))):
            _fail(path, f"expected a [re, im] pair, got {value!r}")
        return np.complex128(_as_finite(value[0], path), _as_finite(value[1], path))
    if rank > 1 and (not isinstance(value, list) or not value):
        what = "nested list (matrix)" if rank == 2 else "list of matrices"
        _fail(path, f"expected a non-empty {what}")
    parts = []
    for i, part in enumerate(value):
        where = f"{path}[{i}]"
        if rank == 2 and not isinstance(part, list):
            _fail(where, "expected a list (matrix row)")
        if rank == 2 and len(part) != len(value[0]):
            _fail(where, f"ragged row: {len(part)} entries, expected {len(value[0])}")
        parts.append(_walk(part, rank - 1, where, leaf))
    # rows agree by now; matrices are compared once all of them are read
    for i, part in enumerate(parts):
        if np.shape(part) != np.shape(parts[0]):
            _fail(f"{path}[{i}]", f"shape {part.shape} differs from matrices[0] {parts[0].shape}")
    return np.array(parts, dtype=np.complex128 if leaf is complex else None)


def to_pairs(array) -> list:
    """``array`` as nested ``[re, im]`` pairs, the format :func:`_decode` reads."""
    return np.stack([array.real, array.imag], -1).tolist()


def load_document(source) -> dict:
    if isinstance(source, dict):
        return source
    if not str(source).strip():  # Path("") is the working directory
        raise SchemaError(f"blank path {source!r} names no file")
    try:
        data = json.loads(Path(source).read_text(encoding="utf-8"))  # RFC 8259
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, integers past the digit limit
        # and too deep nesting
        raise SchemaError(f"invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
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
    for r, row in enumerate(table):  # counted first, so the codec meets a square
        if not isinstance(row, list) or len(row) != order:
            _fail(f"$.table[{r}]", f"expected {order} entries")
    array = _decode(table, 2, "$.table", int)  # of object dtype past every integer dtype
    if not 0 <= identity < order:
        _fail("$.identity", f"identity index {identity} out of range")
    # SemigroupTable checks the entries, then the identity, then associativity
    unit = np.arange(order)
    indices = array.dtype.kind == "i" and 0 <= array.min() and array.max() < order
    is_unit = np.array_equal(array[identity], unit) and np.array_equal(array[:, identity], unit)
    with at("$.table" if is_unit or not indices else "$.identity"):
        return SemigroupTable(array, identity)


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
        stack = _decode(entry["matrices"], 3, f"{prefix}.matrices")
        if stack.shape[1:] != (d, d):
            _fail(prefix, f"matrices have shape {stack.shape[1:]}, declared dim {d}")
        mats.append(stack)
    with at("$.irreps"):
        return IrrepTable(tuple(mats))


def load_bialgebra(source) -> Bialgebra:
    data = load_document(source)
    for key in ("blocks", "mode", "delta", "epsilon"):
        if key not in data:
            _fail("$", f"bialgebra file missing key {key!r}")
    if data["mode"] != "hom":
        mode = data["mode"]
        _fail("$.mode", f'expected "hom": the coproduct must be a *-homomorphism; got {mode!r}')
    blocks = data["blocks"]
    if not isinstance(blocks, list):
        _fail("$.blocks", "expected a list of integers")
    _decode(blocks, 1, "$.blocks", int)  # refused by path; Algebra takes the exact integers
    with at("$.blocks"):
        algebra = Algebra(tuple(blocks))
    delta = _decode(data["delta"], 2, "$.delta")
    square = tensor_algebra(algebra, algebra)
    if delta.shape != (square.dim, algebra.dim):
        _fail(
            "$.delta",
            f"expected shape ({square.dim}, {algebra.dim}), got {delta.shape}",
        )
    epsilon = data["epsilon"]
    if not isinstance(epsilon, list):
        _fail("$.epsilon", "expected a list of dual blocks")
    dual = [_decode(m, 2, f"$.epsilon[{i}]") for i, m in enumerate(epsilon)]
    with at("$.epsilon"):
        eps = algebra.functional(dual)
    with at("$"):
        return Bialgebra(algebra, LinearMap(algebra, square, delta), eps)


def load_structure(source) -> SemigroupTable | IrrepTable | Bialgebra:
    """A file's table, irreps or bialgebra: its first key of table, irreps, blocks decides."""
    data = load_document(source)
    loaders = {"table": load_semigroup, "irreps": load_irreps, "blocks": load_bialgebra}
    for key, load in loaders.items():
        if key in data:
            return load(data)
    raise SchemaError("unrecognized schema (no table/irreps/blocks key)")


def load_functional(algebra: Algebra, source) -> Functional:
    data = load_document(source)
    if "dual_blocks" not in data or not isinstance(data["dual_blocks"], list):
        _fail("$", "functional file must contain a list under 'dual_blocks'")
    blocks = [_decode(m, 2, f"$.dual_blocks[{i}]") for i, m in enumerate(data["dual_blocks"])]
    with at("$.dual_blocks"):
        return algebra.functional(blocks)


def load_group_function(source) -> tuple[str | None, np.ndarray]:
    data = load_document(source)
    if "values" not in data or not isinstance(data["values"], list):
        _fail("$", "group function file must contain a list under 'values'")
    values = _decode(data["values"], 1, "$.values")
    group_ref = data.get("group")
    if group_ref is not None and not isinstance(group_ref, str):
        _fail("$.group", "expected a built-in group name")
    return group_ref, values
