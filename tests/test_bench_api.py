"""Every library name the benchmark harness imports still resolves.

``perfbench/`` imports library functions by name for its in-process replay
and its input checks, some of them inside functions.  A library change that
renames or removes one of them would break the traced run without any other
test noticing, so each ``from cstarconv... import name`` is checked here.
"""

import ast
import importlib
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
