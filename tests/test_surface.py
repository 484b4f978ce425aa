"""The public surface: ``cstarconv.__all__``, every public top-level
function and class of a ``cstarconv`` module, and every public member of such
a class, hold only names that callers use.

A caller is the package itself (outside ``__init__``), a demo or the
benchmark harness; tests are not callers, so a helper only tests call lives
in ``tests/conftest.py``.  The few names exported for the paper alone, with
no caller yet, are listed in ``PAPER_OBJECTS``.  Every ``tol`` with a
default on that surface defaults to ``DEFAULT_TOL``.
"""

import ast
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import cstarconv as cc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(cc.__file__).resolve().parent

# the package surface: 71 objects and the 8 submodules ``__init__`` lists
SUBMODULES = {
    "algebra", "bialgebra", "convolution", "errors", "groupfun", "groups", "maps", "semigroup"
}
OBJECTS = set("""
Algebra AssociatedSemigroup Bialgebra CompletePositivityReport ConstructionError
DEFAULT_TOL DiscreteDecomposition Element Functional GNSData
GeneratingFunctional GuichardetCertificate GuichardetViaGNS IrrepTable LinearMap
NormContinuityBound PreconditionError SchemaError SemigroupTable ShapeError
StateCheck ValidationReport associated_semigroup builtin_group
commutation_residual compound_poisson continuity_moduli convolution_exp convolve
convolve_measures cyclic_group cyclic_irreps d4_group d4_irreps
discrete_type_decomposition element_norm fourier_matrices function_bialgebra
functional_from_function functional_norm functional_norms generating_functional
generator_pairing_residual gns group_cstar_bialgebra guichardet_constant
guichardet_via_gns hermitian_spectrum is_completely_positive
is_conditionally_positive_definite is_hermitian_function is_positive_definite
is_positive_functional is_probability kernel_matrix mixing_permutation
norm_continuity_bound q8_group q8_irreps recover_functional
right_convolution_operator s3_group s3_irreps s3_sign state_check
strong_invariance_residual tensor_algebra unitality_residual validate_bialgebra
weak_invariance_residual within
""".split())

PAPER_OBJECTS = {
    "compound_poisson": "the independent cross-check of convolution_exp",
    "generator_pairing_residual": "the leg-order oracle of the coproduct's coordinates",
    "is_positive_definite": "positive-definite functions, the Guichardet application",
}


def _caller_files() -> list[Path]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
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


def _used() -> set[str]:
    return set().union(*map(_referenced_names, _caller_files()))


def _public_definitions():
    """``(module, name)`` of each public top-level function and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def _read_members() -> tuple[set[str], set[str]]:
    """``(read, values)`` over the caller files: ``read`` holds every attribute
    read (``x.name``, not one only assigned) and keyword argument name, and
    ``values`` the attribute reads that are not immediately called, the only
    reads of a field or a property (``Algebra.functional(...)`` calls a method
    and reads no ``functional`` field)."""
    read, values = set(), set()
    for path in _caller_files():
        tree = ast.parse(path.read_text(), str(path))
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
                if id(node) not in callees:
                    values.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                read.add(node.arg)
    return read, values


def _is_property(item: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id in ("property", "cached_property")
        for d in item.decorator_list
    )


def _public_members():
    """``(module, class, member, is_value)`` of each public method, property and
    annotated field of a public top-level class of the package; ``is_value``
    marks a property or a field.  Dunders are not public."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name, is_value = item.name, _is_property(item)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name, is_value = item.target.id, True
                else:
                    continue
                if not name.startswith("_"):
                    yield path.stem, node.name, name, is_value


def test_every_export_has_a_caller_or_is_a_paper_object():
    assert set(PAPER_OBJECTS) <= _exported()
    assert sorted(_exported() - _used() - set(PAPER_OBJECTS)) == []


def test_every_public_definition_has_a_caller_or_is_a_paper_object():
    used = _used() | set(PAPER_OBJECTS)
    definitions = list(_public_definitions())
    assert ("sampling", "random_functional") in definitions
    assert [f"{m}.{name}" for m, name in definitions if name not in used] == []


def test_every_public_member_is_read_by_a_caller():
    """A method is read by any ``x.name`` or keyword; a field or a property
    only by a read as a value, so a method of the same name hides neither."""
    members = list(_public_members())
    assert ("convolution", "AssociatedSemigroup", "norm_bound", False) in members
    assert ("convolution", "AssociatedSemigroup", "dual_gamma", True) in members
    assert ("bialgebra", "DiscreteDecomposition", "ideal_unit", True) in members
    assert ("groups", "SemigroupTable", "order", True) in members
    read, values = _read_members()
    unread = [
        f"{m}.{cls}.{name}"
        for m, cls, name, is_value in members
        if name not in (values if is_value else read)
    ]
    assert unread == []


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
    assert "validate_bialgebra" in defaults and "is_positive_definite" in defaults
    assert {q: d for q, d in defaults.items() if d != cc.DEFAULT_TOL} == {}


FRESH_IMPORT = """
import json, sys
import cstarconv
listed = dir(cstarconv)
loaded = sorted(m for m in sys.modules if m.startswith("cstarconv."))
print(json.dumps({"all": cstarconv.__all__, "dir": listed, "loaded": loaded}))
"""


def test_the_package_surface_is_whole():
    assert len(OBJECTS) == 71 and len(SUBMODULES) == 8
    assert set(cc.__all__) == OBJECTS | SUBMODULES and len(cc.__all__) == 79
    for name in cc.__all__:
        value = getattr(cc, name)
        assert isinstance(value, types.ModuleType) == (name in SUBMODULES), name
        if name in SUBMODULES:
            assert value.__name__ == f"cstarconv.{name}"
    star = {}
    exec("from cstarconv import *", star)
    assert set(star) - {"__builtins__"} == set(cc.__all__)
    assert all(star[name] is getattr(cc, name) for name in cc.__all__)


def test_dir_lists_the_surface_before_any_lazy_name_loads(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    fresh = json.loads(result.stdout)
    assert set(fresh["all"]) == OBJECTS | SUBMODULES
    assert OBJECTS | SUBMODULES <= set(fresh["dir"])
    assert {"convolution", "groupfun", "semigroup"}.isdisjoint(
        name.removeprefix("cstarconv.") for name in fresh["loaded"]
    )
