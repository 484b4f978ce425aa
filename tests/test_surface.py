"""The public surface: ``cstarconv.__all__`` holds only names that callers use.

A caller is the package itself (outside ``__init__``), a demo or the
benchmark harness; tests are not callers.  The few names exported for the
paper alone, with no caller yet, are listed in ``PAPER_OBJECTS``.  Every
``tol`` with a default on that surface defaults to ``DEFAULT_TOL``.
"""

import ast
import inspect
import types
from pathlib import Path

import cstarconv as cc

ROOT = Path(__file__).resolve().parent.parent

PAPER_OBJECTS = {
    "compound_poisson": "the independent cross-check of convolution_exp",
    "generator_pairing_residual": "the leg-order oracle of the coproduct's coordinates",
    "is_positive_definite": "positive-definite functions, the Guichardet application",
}


def _caller_files() -> list[Path]:
    package = Path(cc.__file__).resolve().parent
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        files.extend((ROOT / folder).rglob("*.py"))
    return sorted(files)


def _referenced_names(path: Path) -> set[str]:
    """Every Name read or deleted (not one only assigned), Attribute and import
    alias in a file: a module constant is not its own caller."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _exported() -> set[str]:
    return {
        name for name in cc.__all__ if not isinstance(getattr(cc, name), types.ModuleType)
    }


def test_every_export_has_a_caller_or_is_a_paper_object():
    assert set(PAPER_OBJECTS) <= _exported()
    used = set().union(*map(_referenced_names, _caller_files()))
    assert sorted(_exported() - used - set(PAPER_OBJECTS)) == []


def _tolerance_defaults():
    """``(qualname, default)`` of each defaulted ``tol`` of an exported function
    or of a method of an exported class."""
    for name in sorted(_exported()):
        obj = getattr(cc, name)
        if inspect.isclass(obj):
            funcs = [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
        else:
            funcs = [obj] if inspect.isfunction(obj) else []
        for func in funcs:
            param = inspect.signature(func).parameters.get("tol")
            if param is not None and param.default is not param.empty:
                yield func.__qualname__, param.default


def test_every_tolerance_defaults_to_default_tol():
    defaults = dict(_tolerance_defaults())
    assert "validate_bialgebra" in defaults and "is_cocommutative" in defaults
    assert {q: d for q, d in defaults.items() if d != cc.DEFAULT_TOL} == {}
