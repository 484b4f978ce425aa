"""Convolution semigroups of states on finite-dimensional C*-bialgebras.

The package realizes, at desk scale, the interplay between three pictures
of a noncommutative stochastic flow on a multi-matrix bialgebra:

* the convolution Banach algebra of functionals, with unit the counit;
* one-parameter convolution semigroups of states and their generating
  functionals (Hermitian, conditionally positive, vanishing at the unit);
* the induced operator semigroups on the algebra, cut out among all
  semigroups by commutation/invariance identities and recovered from
  their generators by exponentiation.

Classical specializations (functions on finite monoids, group C*-algebras
of finite groups, positive-definite functions and the Guichardet shift)
are included, along with a small CLI (``python -m cstarconv``).

``import cstarconv`` loads the five foundation modules every command needs:
``algebra``, ``bialgebra``, ``errors``, ``groups`` and ``maps``.  The names
of ``convolution``, ``semigroup`` and ``groupfun``, and those modules
themselves, load on first access (PEP 562); ``__all__`` and ``dir()`` list
them all from the start.
"""

from importlib import import_module as _import_module

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    Element,
    Functional,
    GNSData,
    StateCheck,
    element_norm,
    functional_norm,
    functional_norms,
    gns,
    hermitian_spectrum,
    is_positive_functional,
    left_multiplication_matrix,
    mixing_permutation,
    state_check,
    tensor_algebra,
    within,
)
from .bialgebra import (
    Bialgebra,
    DiscreteDecomposition,
    ValidationReport,
    discrete_type_decomposition,
    function_bialgebra,
    fourier_matrices,
    group_cstar_bialgebra,
    is_cocommutative,
    validate_bialgebra,
)
from .errors import ConstructionError, PreconditionError, SchemaError, ShapeError
from .groups import (
    IrrepTable,
    SemigroupTable,
    builtin_group,
    cyclic_group,
    cyclic_irreps,
    d4_group,
    d4_irreps,
    q8_group,
    q8_irreps,
    s3_group,
    s3_irreps,
    s3_sign,
)
from .maps import LinearMap

# module -> the names it exports, each imported on first access
_LAZY = {
    "convolution": (
        "SCHOENBERG_GRID",
        "AssociatedSemigroup",
        "GeneratingFunctional",
        "NormContinuityBound",
        "continuity_moduli",
        "convolution_exp",
        "convolve",
        "generating_functional",
        "left_convolution_operator",
        "norm_continuity_bound",
        "right_convolution_operator",
    ),
    "groupfun": (
        "GuichardetCertificate",
        "GuichardetViaGNS",
        "compound_poisson",
        "convolve_measures",
        "function_from_functional",
        "functional_from_function",
        "guichardet_constant",
        "guichardet_via_gns",
        "is_conditionally_positive_definite",
        "is_hermitian_function",
        "is_positive_definite",
        "is_probability",
        "kernel_matrix",
        "schoenberg_exp",
    ),
    "semigroup": (
        "CompletePositivityReport",
        "associated_semigroup",
        "commutation_residual",
        "generator_pairing_residual",
        "is_completely_positive",
        "is_right_convolution_operator",
        "recover_functional",
        "strong_invariance_residual",
        "unitality_residual",
        "weak_invariance_residual",
    ),
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY_SOURCE))
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a lazy name's module on first access and bind the name here,
    so later lookups no longer reach this hook."""
    if name not in _LAZY_SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY_SOURCE[name]}", __name__)
    value = module if name in _LAZY else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
