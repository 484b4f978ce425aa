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
"""

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    Element,
    Functional,
    GNSData,
    StateCheck,
    element_norm,
    functional_norm,
    functional_norm_witness,
    gns,
    hermitian_spectrum,
    is_positive,
    is_positive_functional,
    is_state,
    left_multiplication_matrix,
    mixing_permutation,
    right_multiplication_matrix,
    state_check,
    tensor_algebra,
    tensor_element,
    tensor_functional,
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
    is_commutative,
    validate_bialgebra,
)
from .convolution import (
    SCHOENBERG_GRID,
    GeneratingFunctional,
    NormContinuityBound,
    continuity_moduli,
    convolution_exp,
    convolution_exp_quotient,
    convolve,
    generating_functional,
    left_convolution_operator,
    norm_continuity_bound,
    right_convolution_operator,
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
from .groupfun import (
    GuichardetCertificate,
    GuichardetViaGNS,
    compound_poisson,
    convolve_measures,
    function_from_functional,
    functional_from_function,
    guichardet_constant,
    guichardet_via_gns,
    is_conditionally_positive_definite,
    is_hermitian_function,
    is_positive_definite,
    is_probability,
    kernel_matrix,
    measure_functional,
    schoenberg_exp,
    translation_unitary,
)
from .maps import LinearMap, tensor_flip, tensor_map
from .semigroup import (
    AssociatedSemigroup,
    CompletePositivityReport,
    associated_semigroup,
    commutation_residual,
    generator_pairing_residual,
    is_completely_positive,
    is_right_convolution_operator,
    recover_functional,
    strong_invariance_residual,
    unitality_residual,
    weak_invariance_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
