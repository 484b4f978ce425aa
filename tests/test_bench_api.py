"""Every library name the benchmark harness imports still resolves and binds.

``perfbench/`` imports library functions by name for its in-process replay
and its input checks, some of them inside functions.  A library change that
renames or removes one of them, or changes the positional arguments it
takes, would break the traced run without any other test noticing, so each
``from cstarconv... import name`` is checked here, and so is every call the
harness makes of a library callable, directly or through one of its timing
wrappers, and every attribute it reads off a bialgebra.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import cstarconv as cc
from cstarconv.io import load_bialgebra, to_pairs

from conftest import on_table_kernel

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _library_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            top = (getattr(node, "module", None) or "").split(".")[0]
            if isinstance(node, ast.ImportFrom) and top == "cstarconv":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "cstarconv":
                        yield path.name, alias.name, None


IMPORTS = list(_library_imports())


def test_harness_imports_are_found():
    assert {source for source, _, _ in IMPORTS} >= {"replay.py", "workloads.py"}


@pytest.mark.parametrize(
    "source, module, name", IMPORTS, ids=[f"{s}:{m}.{n}" for s, m, n in IMPORTS]
)
def test_harness_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule, as in `from pkg import io`


# harness wrappers that call ``fn(*args)``: name -> (index of fn, index of the first arg)
WRAPPERS = {"timed": (1, 2), "shadow": (1, 2), "_load": (0, 2), "_peak_mb": (0, 1)}


def _imported(module: str, name: str):
    mod = importlib.import_module(module)
    return getattr(mod, name, None) or importlib.import_module(f"{module}.{name}")


def _library_calls():
    """``(file, label, callable or None, positional count, keyword names)`` per call."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {  # local name -> library function, class or module
            alias.asname or alias.name: _imported(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cstarconv"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args, keywords = node.func, node.args, node.keywords
            wrapper = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if wrapper in WRAPPERS and len(args) > WRAPPERS[wrapper][0]:
                # keywords of a wrapper call are the wrapper's own
                at, first = WRAPPERS[wrapper]
                func, args, keywords = args[at], args[first:], []
            if isinstance(func, ast.Name) and func.id in names:
                label, fn = func.id, names[func.id]
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and inspect.ismodule(names.get(func.value.id))
            ):
                label = f"{func.value.id}.{func.attr}"
                fn = getattr(names[func.value.id], func.attr, None)
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in args):
                continue
            if any(k.arg is None for k in keywords):
                continue
            yield path.name, label, fn, len(args), tuple(k.arg for k in keywords)


CALLS = {call[:2] + call[3:]: call[2] for call in _library_calls()}


def test_harness_calls_are_found():
    assert {label for _, label, _, _ in CALLS} >= {
        "associated_semigroup",
        "continuity_moduli",
        "convolution_exp",
        "norm_continuity_bound",
        "validate_bialgebra",
        "cio.load_bialgebra",
    }


@pytest.mark.parametrize(
    "call", CALLS, ids=[f"{s}:{lb}/{n}" + "".join(f"+{k}" for k in kw) for s, lb, n, kw in CALLS]
)
def test_harness_call_binds(call):
    source, label, count, keywords = call
    fn = CALLS[call]
    assert fn is not None, f"{source} calls {label}, which the library no longer has"
    inspect.signature(fn).bind(*range(count), **dict.fromkeys(keywords))


def _bialgebra_reads():
    """Attribute chains the harness reads off a bialgebra ``b``, such as ``("delta", "matrix")``."""
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id == "b":
                chains.add(tuple(chain))
    return sorted(chains)


def test_harness_bialgebra_reads_resolve_on_every_construction(tmp_path):
    """Each ``b.<attribute>`` the harness reads exists on a table-built, a
    Fourier-built and a file-loaded bialgebra, whatever kernel each runs on."""
    reads = _bialgebra_reads()
    expected = {("structure_tensor",), ("delta", "matrix"), ("counit_coords",), ("epsilon",)}
    assert expected | {("algebra",)} <= set(reads)
    table_built = cc.function_bialgebra(cc.cyclic_group(5))
    fourier_built = cc.group_cstar_bialgebra(*cc.builtin_group("s3"))
    payload = {
        "blocks": list(table_built.algebra.blocks),
        "mode": "hom",
        "delta": to_pairs(table_built.delta.matrix),
        "epsilon": [to_pairs(blk) for blk in table_built.epsilon.dual_blocks],
    }
    (tmp_path / "z5.json").write_text(json.dumps(payload))
    file_loaded = load_bialgebra(str(tmp_path / "z5.json"))
    dense = [not on_table_kernel(b) for b in (table_built, fourier_built, file_loaded)]
    assert dense == [False, True, True]
    for b in (table_built, fourier_built, file_loaded):
        for chain in reads:
            value = b
            for attr in chain:
                value = getattr(value, attr)
        dim = b.algebra.dim
        assert b.structure_tensor.shape == (dim, dim, dim)
        assert b.delta.matrix.shape == (dim * dim, dim)
        assert np.array_equal(b.counit_coords, b.epsilon.dual)
