"""The convolution Banach algebra on the dual of a bialgebra.

Functionals convolve through the coproduct, ``(lam * mu)(a) = (lam (x) mu)(delta a)``,
making the dual space a unital Banach algebra whose unit is the counit.
This module provides the product, the induced translation operators on the
algebra, the flow of a generating functional (its norm-continuous
convolution semigroup of functionals and the operator semigroup it induces,
:class:`AssociatedSemigroup`), and the quantitative norm bound available on
discrete-type bialgebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_TOL, Functional, _dual_block_spectra, functional_norm, psd_violation, within
)
from .bialgebra import Bialgebra, discrete_type_decomposition
from .errors import PreconditionError, ShapeError
from .maps import LinearMap


def _dual(b: Bialgebra, mu: Functional) -> np.ndarray:
    try:
        return b.algebra.dual_coords(mu)
    except ShapeError as exc:
        raise ShapeError(f"functional does not live on this bialgebra: {exc}") from exc


def convolve(b: Bialgebra, lam: Functional, mu: Functional) -> Functional:
    """Convolution product of two functionals through the coproduct."""
    return b.algebra.functional_from_dual_coords(b.convolve(_dual(b, lam), _dual(b, mu)))


def right_convolution_operator(b: Bialgebra, mu: Functional) -> LinearMap:
    """The operator ``a -> (id (x) mu)(delta a)`` on the algebra.

    For functions on a group and a point mass this is right translation;
    in general ``mu -> right_convolution_operator(mu)`` is a unital algebra
    morphism from the convolution algebra into linear maps.
    """
    return LinearMap(b.algebra, b.algebra, b.right_matrix(_dual(b, mu)))


# ---------------------------------------------------------------------------
# Exponentials and norm-continuous semigroups
# ---------------------------------------------------------------------------

# Higham (2005), Table 2.3: the largest 1-norm at which the degree-m
# diagonal Pade approximant of exp has backward error below double-precision
# unit roundoff.
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
# phi_1(z) = sum_k z^k / (k + 1)!, which AssociatedSemigroup.quotient_at sums
# for |z| <= theta_3: the terms past k = 6 sum to less than 2**-53 there (the
# k = 7 term is 4.2e-18), so the first seven terms leave no tail in double
# precision.
_PHI1_COEFFS = 1.0 / np.cumprod(np.arange(1.0, 8.0))
# numerator coefficients b_0 .. b_m of the degree-m diagonal Pade approximant
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    ),
}


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade approximant.

    Higham, *The scaling and squaring method for the matrix exponential
    revisited*, SIAM J. Matrix Anal. Appl. 26 (2005): the smallest degree
    ``m`` in 3, 5, 7, 9 whose threshold ``theta_m`` bounds the 1-norm, else
    degree 13 after ``s = ceil(log2(|a|_1 / theta_13))`` halvings undone by
    ``s`` squarings.  Real input gives a real result; complex input whose
    imaginary part is exactly zero is exponentiated in real arithmetic (about
    a third of the cost) and returned complex.  The zero matrix gives the
    identity exactly.  A non-finite entry (or a 1-norm that overflows) gives
    an all-``nan`` result instead of raising.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expm needs a square matrix, got shape {a.shape}")
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if np.iscomplexobj(a) and not a.imag.any():
        return _pade_expm(a.real).astype(a.dtype)
    return _pade_expm(a)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """:func:`expm` of a square float or complex array, in its own arithmetic."""
    ident = np.eye(a.shape[0], dtype=a.dtype)
    if a.shape[0] == 0:
        return ident
    norm = float(np.abs(a).sum(axis=0).max())
    if not np.isfinite(norm):
        return np.full_like(a, np.nan)
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            c = _PADE_COEFFS[m]
            a2 = a @ a
            power = ident
            u = c[1] * ident
            v = c[0] * ident
            for j in range(2, m, 2):
                power = power @ a2
                u += c[j + 1] * power
                v += c[j] * power
            u = a @ u
            return np.linalg.solve(v - u, v + u)
    s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13]))))
    # an exact power of two; s reaches 1022 at the largest finite norms,
    # where a factor such as 4.0**s (for a @ a) would raise OverflowError
    a = a * np.ldexp(1.0, -s)
    c = _PADE_COEFFS[13]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
        + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * ident
    )
    v = (
        a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
        + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def convolution_exp(b: Bialgebra, gamma: Functional, t: float) -> Functional:
    """The convolution exponential ``sum_n (t gamma)^{*n} / n!``.

    Implemented as the matrix exponential of the left-convolution operator
    applied to the counit coordinates, by the scaling-and-squaring Pade
    scheme of :func:`expm`.  ``t = 0`` returns the counit exactly.
    """
    return AssociatedSemigroup(b, gamma).functional_at(t)


@dataclass(frozen=True, eq=False)
class AssociatedSemigroup:
    """The flow of a generating functional ``gamma``: its states and operators.

    What derives from ``(bialgebra, gamma)`` is built once per flow: the dual
    coordinates of ``gamma``, its left-convolution matrix on dual coordinates
    (for the states and their difference quotients), that matrix's Krylov
    vectors on ``gamma`` (for the quotients at small times) and the generator
    ``Z`` (for the operators ``P_t``).  The right-convolution map is an algebra
    morphism from the convolution algebra, so ``exp(t Z)`` is the
    right-convolution operator of ``exp(t gamma)``; the two routes share no
    matrix, and their agreement is part of the test suite.  A ``gamma`` on
    another algebra raises ``ShapeError`` at once.
    """

    bialgebra: Bialgebra
    gamma: Functional

    def __post_init__(self):
        self.dual_gamma  # refuse a functional of another algebra at once

    @cached_property
    def dual_gamma(self) -> np.ndarray:
        """Dual coordinates of ``gamma``."""
        return _dual(self.bialgebra, self.gamma)

    @cached_property
    def convolution_matrix(self) -> np.ndarray:
        """Left convolution ``nu -> gamma * nu`` on dual coordinates."""
        return self.bialgebra.left_matrix(self.dual_gamma).T

    @cached_property
    def generator(self) -> LinearMap:
        """The generator ``Z``: the right-convolution operator of ``gamma``."""
        return right_convolution_operator(self.bialgebra, self.gamma)

    @staticmethod
    def _require_time(t: float) -> None:
        if t < 0:
            raise PreconditionError(f"time must be nonnegative, got {t}")

    def functional_at(self, t: float) -> Functional:
        """The convolution exponential at time ``t`` (the state of the flow)."""
        self._require_time(t)
        b = self.bialgebra
        dual = expm(t * self.convolution_matrix) @ b.counit_coords
        return b.algebra.functional_from_dual_coords(dual)

    @cached_property
    def _convolution_norm(self) -> float:
        """The 1-norm (largest absolute column sum) of ``convolution_matrix``."""
        return float(np.abs(self.convolution_matrix).sum(axis=0).max())

    @cached_property
    def _krylov(self) -> tuple[float, np.ndarray]:
        """``(s, u)`` with ``u[k] = (M / s)^k dual(gamma)`` for the terms of
        the ``phi_1`` series, ``M`` the convolution matrix and ``s`` a power of
        two at or above its 1-norm, so no power overflows and the scaling
        is exact."""
        norm = self._convolution_norm
        scale = float(np.ldexp(1.0, int(np.frexp(norm)[1]))) if norm > 0 else 1.0
        scaled = self.convolution_matrix / scale
        powers = [self.dual_gamma]
        for _ in range(1, len(_PHI1_COEFFS)):
            powers.append(scaled @ powers[-1])
        return scale, np.array(powers)

    def quotient_at(self, t: float) -> Functional:
        """The difference quotient ``(exp(t gamma) - epsilon) / t``.

        Evaluated through the phi_1 function of the convolution operator,
        ``phi_1(t M) @ dual(gamma)`` with ``phi_1(z) = (e^z - 1)/z``.  This
        avoids the catastrophic cancellation of forming ``exp(t M) - I`` at
        small ``t`` and extends continuously to ``t = 0``, where it returns
        ``gamma`` itself.  While ``t |M|_1 <= theta_3`` (the norm below which
        :func:`expm` takes its degree-3 Pade approximant) it sums seven terms
        ``t^k M^k dual(gamma) / (k + 1)!`` of the series, whose tail lies
        below 2**-53 there, from Krylov vectors computed once per flow.
        Larger times take one exponential of an augmented matrix.
        """
        self._require_time(t)
        alg = self.bialgebra.algebra
        if t * self._convolution_norm <= _PADE_THETA[3]:
            scale, powers = self._krylov
            weights = _PHI1_COEFFS * (t * scale) ** np.arange(len(_PHI1_COEFFS))
            return alg.functional_from_dual_coords(weights @ powers)
        dim = alg.dim
        aug = np.zeros((dim + 1, dim + 1), dtype=np.complex128)
        aug[:dim, :dim] = t * self.convolution_matrix
        aug[:dim, dim] = self.dual_gamma
        return alg.functional_from_dual_coords(expm(aug)[:dim, dim])

    def operator_at(self, t: float) -> LinearMap:
        """``P_t = exp(t Z)`` on the algebra."""
        self._require_time(t)
        alg = self.bialgebra.algebra
        return LinearMap(alg, alg, expm(t * self.generator.matrix))

    def moduli(self, times) -> list[float]:
        """Dual-norm distances ``|exp(t gamma) - epsilon|`` at the given times.

        Computed as ``t * norm((exp(t gamma) - epsilon) / t)`` through the
        stable difference quotient, so small times lose no accuracy.
        """
        return [0.0 if t == 0 else float(t) * functional_norm(self.quotient_at(t)) for t in times]

    def norm_bound(self, grid, tol: float = DEFAULT_TOL) -> NormContinuityBound:
        """Check the automatic-norm-continuity bound for a valid generator.

        The bialgebra must be of discrete type and ``gamma`` a valid
        generating functional; invalid input raises.  ``grid`` holds strictly
        positive times, and ``c_hat`` is the largest ``exp(t gamma)(p) / t``
        computed on it: no value off the grid enters, so the grid should
        refine toward 0, where the quotient tends to ``gamma(p)``.
        """
        b, gamma = self.bialgebra, self.gamma
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
        c_hat = float(np.max([self.quotient_at(t)(p).real for t in grid]))
        return NormContinuityBound(c_hat, functional_norm(gamma) - 2.0 * c_hat)


def associated_semigroup(b: Bialgebra, gamma: Functional) -> AssociatedSemigroup:
    """The flow (:class:`AssociatedSemigroup`) of the generator ``gamma``."""
    return AssociatedSemigroup(b, gamma)


@dataclass(frozen=True, eq=False)
class GeneratingFunctional:
    """A candidate semigroup generator with its diagnostics.

    Valid generators (Hermitian, vanishing at the unit, conditionally
    positive) exponentiate to convolution semigroups of states; this is the
    finite-dimensional Schoenberg correspondence.  ``violation`` is the
    largest of the dual blocks' Hermitian defects, ``|gamma(1)|`` and the
    PSD violation of the blocks off the counit's, and ``valid`` records
    ``within(violation, tol)``: the conjunction of the three conditions.
    """

    functional: Functional
    hermitian: bool
    vanishes_at_unit: bool
    conditionally_positive: bool
    violation: float
    valid: bool


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
    defects, min_eigs, _ = _dual_block_spectra(gamma)
    # np.abs gives inf where the builtin abs of a complex raises OverflowError
    unit_defect = np.abs(gamma(b.algebra.unit()))
    off_counit = np.delete(psd_violation(defects, min_eigs), dec.omega_index)
    hermitian = bool(np.all(within(defects, tol)))
    vanishes = bool(within(unit_defect, tol))
    cond = bool(np.all(within(off_counit, tol)))
    # np.max so that a nan diagnostic makes the violation nan
    violation = float(np.max(np.concatenate([defects, [unit_defect], off_counit])))
    return GeneratingFunctional(
        gamma, hermitian, vanishes, cond, violation, bool(within(violation, tol))
    )


def continuity_moduli(b: Bialgebra, gamma: Functional, times) -> list[float]:
    """:meth:`AssociatedSemigroup.moduli` of the flow of ``gamma``."""
    return AssociatedSemigroup(b, gamma).moduli(times)


@dataclass(frozen=True)
class NormContinuityBound:
    """Result of the quantitative generator-norm bound on discrete type.

    ``c_hat`` is the largest computed ``exp(t gamma)(p) / t`` over the grid
    (p the unit of the counit kernel): a lower bound on
    ``C = sup_{t > 0} exp(t gamma)(p) / t``.  ``residual`` is
    ``norm(gamma) - 2 * c_hat``, so ``within(residual, tol)`` certifies
    ``norm(gamma) <= 2 C`` from computed values alone, at any grid, and a
    residual lost to overflow never passes.
    """

    c_hat: float
    residual: float


def norm_continuity_bound(
    b: Bialgebra, gamma: Functional, grid, tol: float = DEFAULT_TOL
) -> NormContinuityBound:
    """:meth:`AssociatedSemigroup.norm_bound` of the flow of ``gamma``."""
    return AssociatedSemigroup(b, gamma).norm_bound(grid, tol)
