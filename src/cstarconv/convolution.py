"""The convolution Banach algebra on the dual of a bialgebra.

Functionals convolve through the coproduct, ``(lam * mu)(a) = (lam (x) mu)(delta a)``,
making the dual space a unital Banach algebra whose unit is the counit.
This module provides the product, the induced translation operators on the
algebra, exponentials of generating functionals (the norm-continuous
convolution semigroups), and the quantitative norm bound available on
discrete-type bialgebras.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import (
    DEFAULT_TOL,
    Functional,
    functional_norm,
    hermitian_defect,
    min_hermitian_eigenvalue,
)
from .bialgebra import Bialgebra, discrete_type_decomposition
from .errors import PreconditionError, ShapeError
from .maps import LinearMap

#: Default time grid for Schoenberg-style state checks: covers both the
#: short-time (generator) and long-time (ergodic) regimes.
SCHOENBERG_GRID = tuple(2.0**k for k in range(-10, 4))


def _dual(b: Bialgebra, mu: Functional) -> np.ndarray:
    try:
        return b.algebra.dual_coords(mu)
    except ShapeError as exc:
        raise ShapeError(f"functional does not live on this bialgebra: {exc}") from exc


def convolve(b: Bialgebra, lam: Functional, mu: Functional) -> Functional:
    """Convolution product of two functionals through the coproduct."""
    out = np.einsum(
        "k,j,kjl->l", _dual(b, lam), _dual(b, mu), b.structure_tensor
    )
    return b.algebra.functional_from_dual_coords(out)


def convolution_matrix(b: Bialgebra, mu: Functional, side: str = "left") -> np.ndarray:
    """Matrix of convolution by ``mu`` on dual coordinates.

    ``side="left"`` returns the matrix of ``nu -> mu * nu``, ``side="right"``
    that of ``nu -> nu * mu``.
    """
    dual = _dual(b, mu)
    if side == "left":
        return np.einsum("k,kjl->lj", dual, b.structure_tensor)
    if side == "right":
        return np.einsum("j,kjl->lk", dual, b.structure_tensor)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def left_convolution_operator(b: Bialgebra, mu: Functional) -> LinearMap:
    """The operator ``a -> (mu (x) id)(delta a)`` on the algebra.

    Composing with the counit recovers the functional:
    ``epsilon(L(a)) = mu(a)``.
    """
    mat = np.einsum("k,kjl->jl", _dual(b, mu), b.structure_tensor)
    return LinearMap(b.algebra, b.algebra, mat)


def right_convolution_operator(b: Bialgebra, mu: Functional) -> LinearMap:
    """The operator ``a -> (id (x) mu)(delta a)`` on the algebra.

    For functions on a group and a point mass this is right translation;
    in general ``mu -> right_convolution_operator(mu)`` is a unital algebra
    morphism from the convolution algebra into linear maps.
    """
    mat = np.einsum("j,kjl->kl", _dual(b, mu), b.structure_tensor)
    return LinearMap(b.algebra, b.algebra, mat)


# ---------------------------------------------------------------------------
# Exponentials and norm-continuous semigroups
# ---------------------------------------------------------------------------


def convolution_exp(
    b: Bialgebra, gamma: Functional, t: float, tol: float = DEFAULT_TOL
) -> Functional:
    """The convolution exponential ``sum_n (t gamma)^{*n} / n!``.

    Implemented as the matrix exponential of the left-convolution operator
    applied to the counit coordinates; scipy's scaling-and-squaring Pade
    scheme keeps the error far below ``tol`` at desk scale.  ``t = 0``
    returns the counit exactly.
    """
    if t < 0:
        raise PreconditionError(f"time must be nonnegative, got {t}")
    mult = convolution_matrix(b, gamma, side="left")
    dual = scipy.linalg.expm(t * mult) @ b.counit_coords
    return b.algebra.functional_from_dual_coords(dual)


def convolution_exp_quotient(b: Bialgebra, gamma: Functional, t: float) -> Functional:
    """The difference quotient ``(exp(t gamma) - epsilon) / t`` of the exponential.

    Evaluated through the phi_1 function of the convolution operator,
    ``phi_1(t M) @ dual(gamma)`` with ``phi_1(z) = (e^z - 1)/z``, via one
    exponential of an augmented matrix.  This avoids the catastrophic
    cancellation of forming ``exp(t M) - I`` at small ``t`` and extends
    continuously to ``t = 0``, where it returns ``gamma`` itself.
    """
    if t < 0:
        raise PreconditionError(f"time must be nonnegative, got {t}")
    mult = convolution_matrix(b, gamma, side="left")
    dual_gamma = _dual(b, gamma)
    dim = b.algebra.dim
    aug = np.zeros((dim + 1, dim + 1), dtype=np.complex128)
    aug[:dim, :dim] = t * mult
    aug[:dim, dim] = dual_gamma
    quotient = scipy.linalg.expm(aug)[:dim, dim]
    return b.algebra.functional_from_dual_coords(quotient)


@dataclass(frozen=True, eq=False)
class GeneratingFunctional:
    """A candidate semigroup generator with its diagnostics.

    Valid generators (Hermitian, vanishing at the unit, conditionally
    positive) exponentiate to convolution semigroups of states; this is the
    finite-dimensional Schoenberg correspondence.
    """

    functional: Functional
    hermitian: bool
    vanishes_at_unit: bool
    conditionally_positive: bool

    @property
    def valid(self) -> bool:
        return self.hermitian and self.vanishes_at_unit and self.conditionally_positive


def generating_functional(
    b: Bialgebra, gamma: Functional, tol: float = DEFAULT_TOL
) -> GeneratingFunctional:
    """Classify a functional as a semigroup generator.

    Conditional positivity (positivity on positive elements killed by the
    counit) is decided in closed form: for a character counit on a
    multi-matrix algebra it is equivalent to positive semidefiniteness of
    every dual block away from the counit-carrying block.
    """
    dec = discrete_type_decomposition(b)
    hermitian = all(hermitian_defect(r) <= tol for r in gamma.dual_blocks)
    unit_val = gamma(b.algebra.unit())
    cond = all(
        hermitian_defect(r) <= tol and min_hermitian_eigenvalue(r) >= -tol
        for i, r in enumerate(gamma.dual_blocks)
        if i != dec.omega_index
    )
    # np.abs gives inf where the builtin abs of a complex raises OverflowError
    return GeneratingFunctional(gamma, hermitian, bool(np.abs(unit_val) <= tol), cond)


def continuity_moduli(b: Bialgebra, gamma: Functional, times) -> list[float]:
    """Dual-norm distances ``|exp(t gamma) - epsilon|`` at the given times.

    Computed as ``t * norm((exp(t gamma) - epsilon) / t)`` through the
    stable difference quotient, so small times lose no accuracy.
    """
    out = []
    for t in times:
        if t == 0:
            out.append(0.0)
            continue
        out.append(float(t) * functional_norm(convolution_exp_quotient(b, gamma, t)))
    return out


@dataclass(frozen=True)
class NormContinuityBound:
    """Result of the quantitative generator-norm bound on discrete type.

    ``c_hat`` estimates ``sup_{t > 0} exp(t gamma)(p) / t`` (p the unit of
    the counit kernel) from grid values, capped below by ``1/T`` which
    dominates all ``t > T`` since the state mass of ``p`` is at most 1.
    ``satisfied`` records the bound ``norm(gamma) <= 2 * c_hat + tol``.
    """

    c_hat: float
    generator_norm: float
    satisfied: bool


def norm_continuity_bound(
    b: Bialgebra, gamma: Functional, grid, tol: float = DEFAULT_TOL
) -> NormContinuityBound:
    """Check the automatic-norm-continuity bound for a valid generator.

    Parameters
    ----------
    b : Bialgebra
        Must be of discrete type (validated character counit).
    gamma : Functional
        A valid generating functional; invalid input raises.
    grid : iterable of float
        Strictly positive times covering ``(0, T]``; the estimate only sees
        grid values, so the grid should refine toward 0 (the supremum is
        approached there).
    tol : float
        Slack added to the bound check.
    """
    diag = generating_functional(b, gamma, tol)
    if not diag.valid:
        raise PreconditionError(
            "norm bound requires a valid generating functional "
            f"(hermitian={diag.hermitian}, vanishes_at_unit={diag.vanishes_at_unit}, "
            f"conditionally_positive={diag.conditionally_positive})"
        )
    grid = [float(t) for t in grid]
    if not grid or any(t <= 0 for t in grid):
        raise PreconditionError("grid must consist of strictly positive times")
    p = discrete_type_decomposition(b).ideal_unit
    # np.max so that a grid value lost to overflow (nan) fails the bound
    best = float(np.max([convolution_exp_quotient(b, gamma, t)(p).real for t in grid]))
    c_hat = max(best, 1.0 / max(grid))
    norm = functional_norm(gamma)
    return NormContinuityBound(c_hat, norm, norm <= 2.0 * c_hat + tol)
