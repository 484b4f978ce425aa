"""Every library name the benchmark harness imports still resolves and binds.

``perfbench/`` imports library functions by name for its in-process replay
and its input checks, some of them inside functions.  A library change that
renames or removes one of them, or changes the positional arguments it
takes, would break the traced run without any other test noticing, so each
``from cstarconv... import name`` is checked here, and so is every call the
harness makes of a library callable, directly or through one of its timing
wrappers.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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
