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

from .algebra import (
    DEFAULT_TOL,
    Functional,
    element_norm,
    hermitian_spectrum,
    mixing_permutation,
    psd_violation,
    within,
)
from .bialgebra import Bialgebra
# perfbench/replay.py imports associated_semigroup from this module
from .convolution import associated_semigroup, right_convolution_operator
from .maps import LinearMap


def recover_functional(b: Bialgebra, p_t: LinearMap) -> Functional:
    """Read back the functional of an associated map: ``epsilon compose P_t``."""
    return Functional(b.algebra, b.counit_coords @ p_t.matrix)


# ---------------------------------------------------------------------------
# Characterisations of associated semigroups
# ---------------------------------------------------------------------------


def commutation_residual(b: Bialgebra, t_map: LinearMap) -> float:
    """Max commutator norm of ``t_map`` with all left-convolution operators.

    The left-convolution operator of the ``k``-th coordinate functional is
    ``T[k]``, and every left-convolution operator is a combination of these,
    so the commutators ``T[k] @ M - M @ T[k]`` over the coordinate dual
    basis make the check complete (:meth:`Bialgebra.invariance_residual`).
    The dense kernel returns their exact maximum ``R``; the table kernel
    returns a bound in ``[R, 2 R]``, which is 0 exactly when ``R`` is.
    """
    return b.invariance_residual(t_map.matrix)


#: Deviation of ``delta T`` from ``(id (x) T) delta`` (max-abs entries).  In
#: structure-tensor coordinates ``delta T`` is ``T[k] @ M`` and
#: ``(id (x) T) delta`` is ``M @ T[k]``, so this is the residual of
#: :func:`commutation_residual`, which ``evolve`` reports once as
#: ``commutation[t]``.  The alias is kept only for the benchmark replay
#: (``perfbench/replay.py``), which calls it by this name.
strong_invariance_residual = commutation_residual


def weak_invariance_residual(b: Bialgebra, t_map: LinearMap) -> float:
    """Deviation of ``T`` from the right-convolution operator of ``eps T``.

    Zero exactly on the range of the right-convolution map; this residual
    doubles as the reconstruction error of :func:`recover_functional`.
    """
    reconstructed = right_convolution_operator(b, recover_functional(b, t_map))
    return float(np.max(np.abs(t_map.matrix - reconstructed.matrix)))


# ---------------------------------------------------------------------------
# Complete positivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletePositivityReport:
    """Choi diagnostics of a linear map, one entry per source block.

    ``violation`` is the largest :func:`~cstarconv.algebra.psd_violation`
    over the Choi pieces, and ``cp`` records ``within(violation, tol)``.
    """

    min_choi_eigenvalues: tuple[float, ...]
    violation: float
    cp: bool


def is_completely_positive(
    t_map: LinearMap, tol: float = DEFAULT_TOL
) -> CompletePositivityReport:
    """Complete positivity via per-source-block Choi matrices.

    For each source block ``M_n`` the Choi matrix
    ``sum_{r,s} E_rs (x) T(E_rs)`` is formed with the target in its
    faithful block-diagonal representation.  A map from a direct sum of
    matrix blocks is completely positive iff each such restriction is
    (restrictions of CP maps to the summands are compositions with
    *-homomorphisms, and a sum of CP contributions is CP), and for a map
    out of a single full matrix block positivity of the Choi matrix is
    exactly Choi's criterion.

    The Choi matrix of a source block is block-diagonal over the target
    blocks, so it is never assembled: its ``n * m`` square pieces, one per
    target block ``M_m``, are batched over all source and target blocks of
    equal sizes, and the minimum eigenvalue and Hermitian defect of a
    source block are the minimum and maximum over its pieces.  A piece with
    a non-finite entry reports ``nan``, so such a map is never CP.
    """
    src, tgt = t_map.source, t_map.target
    min_eigs = np.full(len(src.blocks), np.inf)
    defects = np.zeros(len(src.blocks))
    for n, src_pos, src_idx in src.blocks_by_size:
        for m, _, tgt_idx in tgt.blocks_by_size:
            # images[tb, a, b, sb, r, s] = T(E_rs of source block sb)[a, b] in
            # target block tb; each piece is indexed [(r, a), (s, b)]
            images = t_map.matrix[np.ix_(tgt_idx.ravel(), src_idx.ravel())]
            images = images.reshape(len(tgt_idx), m, m, len(src_idx), n, n)
            choi = images.transpose(3, 0, 4, 1, 5, 2).reshape(
                len(src_idx), len(tgt_idx), n * m, n * m
            )
            defect, eigs = hermitian_spectrum(choi)
            min_eigs[src_pos] = np.minimum(min_eigs[src_pos], eigs.min(axis=1))
            defects[src_pos] = np.maximum(defects[src_pos], defect.max(axis=1))
    # np.max so that a nan piece makes the violation nan
    violation = float(np.max(psd_violation(defects, min_eigs)))
    return CompletePositivityReport(
        tuple(min_eigs.tolist()), violation, bool(within(violation, tol))
    )


def unitality_residual(t_map: LinearMap) -> float:
    """C*-norm distance of ``T(1)`` from the unit of the target."""
    unit = t_map.source.unit()
    return element_norm(t_map.target, t_map(unit) - t_map.target.unit())


# ---------------------------------------------------------------------------
# Generator pairing
# ---------------------------------------------------------------------------


def generator_pairing_residual(b: Bialgebra, gamma: Functional) -> float:
    """Largest deviation in ``mu(Z a) = (mu (x) gamma)(delta a)`` over basis pairs.

    The left side is the generator matrix ``Z``, contracted by the
    bialgebra's kernel through :func:`right_convolution_operator`; the right
    side pairs the coproduct matrix itself with the product functionals
    ``e_k (x) gamma`` of the coordinate functionals, built as Kronecker
    products reordered by :func:`mixing_permutation`.  The identity holds
    for any bilinear coproduct, coassociative or not, so it checks the
    bookkeeping of what the kernel contracts, the table kernel's ``f`` or
    the dense kernel's structure tensor (which leg is which, and the
    Kronecker reordering), not the coproduct axioms.
    """
    alg = b.algebra
    z_matrix = right_convolution_operator(b, gamma).matrix
    # row k is the dual vector of e_k (x) gamma on the tensor square
    products = np.kron(np.eye(alg.dim), alg.dual_coords(gamma))
    products = products[:, mixing_permutation(alg, alg)]
    paired = products @ b.delta.matrix
    return float(np.max(np.abs(z_matrix - paired)))
