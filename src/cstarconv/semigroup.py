"""Semigroups on the algebra induced by convolution semigroups of functionals.

A convolution semigroup acting on the dual induces the one-parameter family
``P_t = right_convolution_operator(exp(t gamma))`` on the algebra itself,
with generator the right-convolution operator of the generating functional.
The characterisations of which operator semigroups arise this way reduce,
in finite dimension, to exact linear-algebra residuals over the coordinate
dual basis, which is a finite spanning set: no sampling is needed to
discharge a "for all functionals" quantifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import (
    DEFAULT_TOL,
    Functional,
    element_norm,
    hermitian_defect,
    min_hermitian_eigenvalue,
)
from .bialgebra import Bialgebra
from .convolution import (
    convolution_exp,
    right_convolution_operator,
)
from .maps import LinearMap


@dataclass(frozen=True, eq=False)
class AssociatedSemigroup:
    """The operator semigroup of a norm-continuous convolution semigroup.

    Attributes
    ----------
    bialgebra : Bialgebra
    gamma : Functional
        Generating functional of the convolution semigroup.
    generator : LinearMap
        Right-convolution operator of ``gamma``; the semigroup is its
        exponential.
    """

    bialgebra: Bialgebra
    gamma: Functional
    generator: LinearMap

    def operator_at(self, t: float) -> LinearMap:
        """``P_t = exp(t Z)`` on the algebra."""
        alg = self.bialgebra.algebra
        return LinearMap(alg, alg, scipy.linalg.expm(t * self.generator.matrix))

    def functional_at(self, t: float) -> Functional:
        """The convolution exponential at time ``t`` (the state of the flow)."""
        return convolution_exp(self.bialgebra, self.gamma, t)


def associated_semigroup(b: Bialgebra, gamma: Functional) -> AssociatedSemigroup:
    """Build the semigroup associated with the generator ``gamma``.

    Because the right-convolution map is an algebra morphism from the
    convolution algebra, ``exp(t Z)`` agrees with the right-convolution
    operator of ``exp(t gamma)``; the two routes are computed independently
    and their agreement is part of the test suite.
    """
    return AssociatedSemigroup(b, gamma, right_convolution_operator(b, gamma))


def recover_functional(b: Bialgebra, p_t: LinearMap) -> Functional:
    """Read back the functional of an associated map: ``epsilon compose P_t``."""
    dual = b.counit_coords @ p_t.matrix
    return b.algebra.functional_from_dual_coords(dual)


# ---------------------------------------------------------------------------
# Characterisations of associated semigroups
# ---------------------------------------------------------------------------


def commutation_residual(b: Bialgebra, t_map: LinearMap, extra_functionals=()) -> float:
    """Max commutator norm of ``t_map`` with all left-convolution operators.

    The coordinate dual basis spans the dual, so running over it makes the
    check complete; ``extra_functionals`` may add smoke-test samples.
    """
    t3 = b.structure_tensor
    mat = t_map.matrix
    left_all = np.einsum("kjl,lm->kjm", t3, mat) - np.einsum("jl,klm->kjm", mat, t3)
    residual = float(np.max(np.abs(left_all)))
    for mu in extra_functionals:
        lmat = np.einsum("k,kjl->jl", b.algebra.dual_coords(mu), t3)
        residual = max(residual, float(np.max(np.abs(lmat @ mat - mat @ lmat))))
    return residual


def strong_invariance_residual(b: Bialgebra, t_map: LinearMap) -> float:
    """Deviation of ``delta T`` from ``(id (x) T) delta`` (max-abs entries)."""
    t3 = b.structure_tensor
    mat = t_map.matrix
    lhs = np.einsum("kjl,lm->kjm", t3, mat)
    rhs = np.einsum("kjm,ij->kim", t3, mat)
    return float(np.max(np.abs(lhs - rhs)))


def weak_invariance_residual(b: Bialgebra, t_map: LinearMap) -> float:
    """Deviation of ``T`` from the right-convolution operator of ``eps T``.

    Zero exactly on the range of the right-convolution map; this residual
    doubles as the reconstruction error of :func:`recover_functional`.
    """
    reconstructed = right_convolution_operator(b, recover_functional(b, t_map))
    return float(np.max(np.abs(t_map.matrix - reconstructed.matrix)))


def is_right_convolution_operator(
    b: Bialgebra, t_map: LinearMap, tol: float = DEFAULT_TOL
) -> bool:
    """Whether ``t_map`` is the right-convolution operator of some functional."""
    return weak_invariance_residual(b, t_map) <= tol


# ---------------------------------------------------------------------------
# Complete positivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletePositivityReport:
    """Choi diagnostics of a linear map, one entry per source block."""

    min_choi_eigenvalues: tuple[float, ...]
    hermitian_defects: tuple[float, ...]
    cp: bool


def is_completely_positive(
    t_map: LinearMap, tol: float = DEFAULT_TOL
) -> CompletePositivityReport:
    """Complete positivity via per-source-block Choi matrices.

    For each source block ``M_n`` the Choi matrix
    ``sum_{r,s} E_rs (x) T(E_rs)`` is formed with the target embedded
    block-diagonally in its faithful representation.  A map from a direct
    sum of matrix blocks is completely positive iff each such restriction
    is (restrictions of CP maps to the summands are compositions with
    *-homomorphisms, and a sum of CP contributions is CP), and for a map
    out of a single full matrix block positivity of the Choi matrix is
    exactly Choi's criterion.
    """
    src, tgt = t_map.source, t_map.target
    big_n = tgt.rep_dim
    min_eigs = []
    defects = []
    for off, n in zip(src.coord_offsets, src.blocks):
        # images[r, s] = embedded T(E_rs); the Choi matrix is indexed [(r, a), (s, b)]
        images = tgt.embed(t_map.matrix[:, off : off + n * n].T).reshape(n, n, big_n, big_n)
        choi = images.transpose(0, 2, 1, 3).reshape(n * big_n, n * big_n)
        defects.append(hermitian_defect(choi))
        min_eigs.append(min_hermitian_eigenvalue(choi))
    cp = all(d <= tol for d in defects) and all(e >= -tol for e in min_eigs)
    return CompletePositivityReport(tuple(min_eigs), tuple(defects), cp)


def unitality_residual(t_map: LinearMap) -> float:
    """C*-norm distance of ``T(1)`` from the unit of the target."""
    unit = t_map.source.unit()
    return element_norm(t_map.target, t_map(unit) - t_map.target.unit())


# ---------------------------------------------------------------------------
# Generator pairing
# ---------------------------------------------------------------------------


def generator_pairing_residual(b: Bialgebra, gamma: Functional) -> float:
    """Largest deviation in ``mu(Z a) = gamma(L_mu a)`` over basis pairs.

    The left side applies the semigroup generator and pairs with each
    coordinate functional; the right side runs each coordinate functional
    through its left-convolution operator and pairs with the generator.
    The two sides traverse the structure tensor along different axes, so
    the identity is a genuine cross-check of the implementation.
    """
    alg = b.algebra
    z_matrix = right_convolution_operator(b, gamma).matrix
    t3 = b.structure_tensor
    dual_gamma = alg.dual_coords(gamma)
    paired = np.empty((alg.dim, alg.dim), dtype=np.complex128)
    for k in range(alg.dim):
        paired[k] = dual_gamma @ t3[k]
    return float(np.max(np.abs(z_matrix - paired)))
