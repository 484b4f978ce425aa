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

from .algebra import DEFAULT_TOL, Functional, _dual_block_spectra, functional_norm
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
    return b.algebra.functional_from_dual_coords(b.convolve(_dual(b, lam), _dual(b, mu)))


def left_convolution_operator(b: Bialgebra, mu: Functional) -> LinearMap:
    """The operator ``a -> (mu (x) id)(delta a)`` on the algebra.

    Composing with the counit recovers the functional:
    ``epsilon(L(a)) = mu(a)``.  The transpose of its matrix is the matrix of
    left convolution ``nu -> mu * nu`` on dual coordinates.
    """
    return LinearMap(b.algebra, b.algebra, b.left_matrix(_dual(b, mu)))


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
    return _exp(b, b.left_matrix(_dual(b, gamma)).T, t)


def _exp(b: Bialgebra, mult: np.ndarray, t: float) -> Functional:
    """:func:`convolution_exp` from the prebuilt left-convolution matrix ``mult``."""
    if t < 0:
        raise PreconditionError(f"time must be nonnegative, got {t}")
    dual = expm(t * mult) @ b.counit_coords
    return b.algebra.functional_from_dual_coords(dual)


def _exp_quotient(
    b: Bialgebra, mult: np.ndarray, dual_gamma: np.ndarray, t: float
) -> Functional:
    """:func:`convolution_exp_quotient` from the prebuilt left-convolution
    matrix ``mult`` of ``gamma`` and its dual coordinates ``dual_gamma``."""
    if t < 0:
        raise PreconditionError(f"time must be nonnegative, got {t}")
    dim = b.algebra.dim
    aug = np.zeros((dim + 1, dim + 1), dtype=np.complex128)
    aug[:dim, :dim] = t * mult
    aug[:dim, dim] = dual_gamma
    return b.algebra.functional_from_dual_coords(expm(aug)[:dim, dim])


def convolution_exp_quotient(b: Bialgebra, gamma: Functional, t: float) -> Functional:
    """The difference quotient ``(exp(t gamma) - epsilon) / t`` of the exponential.

    Evaluated through the phi_1 function of the convolution operator,
    ``phi_1(t M) @ dual(gamma)`` with ``phi_1(z) = (e^z - 1)/z``, via one
    exponential of an augmented matrix.  This avoids the catastrophic
    cancellation of forming ``exp(t M) - I`` at small ``t`` and extends
    continuously to ``t = 0``, where it returns ``gamma`` itself.
    """
    dual_gamma = _dual(b, gamma)
    return _exp_quotient(b, b.left_matrix(dual_gamma).T, dual_gamma, t)


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
    defects, min_eigs, _ = _dual_block_spectra(gamma)
    hermitian = bool(np.all(defects <= tol))
    unit_val = gamma(b.algebra.unit())
    positive = (defects <= tol) & (min_eigs >= -tol)
    cond = bool(np.all(np.delete(positive, dec.omega_index)))
    # np.abs gives inf where the builtin abs of a complex raises OverflowError
    return GeneratingFunctional(gamma, hermitian, bool(np.abs(unit_val) <= tol), cond)


def continuity_moduli(b: Bialgebra, gamma: Functional, times) -> list[float]:
    """Dual-norm distances ``|exp(t gamma) - epsilon|`` at the given times.

    Computed as ``t * norm((exp(t gamma) - epsilon) / t)`` through the
    stable difference quotient, so small times lose no accuracy.
    """
    dual_gamma = _dual(b, gamma)
    mult = b.left_matrix(dual_gamma).T
    out = []
    for t in times:
        if t == 0:
            out.append(0.0)
            continue
        out.append(float(t) * functional_norm(_exp_quotient(b, mult, dual_gamma, t)))
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
    dual_gamma = _dual(b, gamma)
    mult = b.left_matrix(dual_gamma).T
    # np.max so that a grid value lost to overflow (nan) fails the bound
    best = float(np.max([_exp_quotient(b, mult, dual_gamma, t)(p).real for t in grid]))
    c_hat = max(best, 1.0 / max(grid))
    norm = functional_norm(gamma)
    return NormContinuityBound(c_hat, norm, norm <= 2.0 * c_hat + tol)
