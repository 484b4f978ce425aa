"""Positive-definite functions on finite groups and their semigroups.

This module carries the classical faces of the theory: complex functions on
a finite group correspond to functionals on its group C*-algebra through
``omega(lam_g) = phi(g)``; positive-definite functions (PSD translation
kernels) correspond to positive functionals; and Hermitian conditionally
positive-definite functions vanishing at the identity are exactly the
logarithmic derivatives of pointwise-exponential semigroups.  The
Guichardet decomposition ``psi = phi - phi(e)`` is produced in closed form
with an eigenvalue certificate and cross-checked through an independent
GNS-based construction; each route decides conditional positivity once,
with its own numbers.  Every row and column of a translation kernel ``K``
sums to ``sum(psi)``, so ``P K P = K - mean(psi) J`` for ``P = I - J/|G|``
and no projection is formed.  Compound Poisson semigroups of measures on a
finite monoid close the commutative circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    Functional,
    GNSData,
    gns,
    hermitian_spectrum,
    is_positive_functional,
    psd_violation,
    within,
)
from .bialgebra import fourier_matrices
from .errors import ConstructionError, PreconditionError
from .groups import IrrepTable, SemigroupTable

# ---------------------------------------------------------------------------
# Kernels and positivity notions
# ---------------------------------------------------------------------------


def _require_group(group: SemigroupTable, values) -> tuple[np.ndarray, np.ndarray]:
    """The group's inverses and the values of a function on it, as complex.

    The one place that validates a group function: the table must be a
    group's and ``values`` must hold one value per element.
    """
    inv = group.inverses
    if inv is None:
        raise ConstructionError("operation requires a group (some inverses missing)")
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (group.order,):
        raise PreconditionError(f"expected {group.order} values, got shape {values.shape}")
    return inv, values


def kernel_matrix(group: SemigroupTable, values) -> np.ndarray:
    """Translation kernel ``K[g, h] = f(g^{-1} h)`` of a group function.

    Every row is a permutation of the value vector, so all row sums equal
    the total sum of the function.
    """
    inv, values = _require_group(group, values)
    return values[group.table[inv, :]]


def is_positive_definite(group: SemigroupTable, values, tol: float = DEFAULT_TOL) -> bool:
    """Whether the translation kernel is Hermitian and PSD within tol."""
    return bool(within(psd_violation(*hermitian_spectrum(kernel_matrix(group, values))), tol))


def is_hermitian_function(group: SemigroupTable, values, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``f(g^{-1}) == conj(f(g))`` for every group element."""
    inv, values = _require_group(group, values)
    return bool(within(np.max(np.abs(values[inv] - values.conj())), tol))


def is_conditionally_positive_definite(
    group: SemigroupTable, values, tol: float = DEFAULT_TOL
) -> bool:
    """Whether the kernel compressed by ``P = I - J/|G|``, the kernel of
    ``values - mean(values)``, is Hermitian and PSD within tol."""
    _, values = _require_group(group, values)
    spectrum = hermitian_spectrum(kernel_matrix(group, values - values.mean()))
    return bool(within(psd_violation(*spectrum), tol))


# ---------------------------------------------------------------------------
# Guichardet decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GuichardetCertificate:
    """Closed-form shift of a conditionally positive-definite function.

    ``constant`` is the negated mean of the input values; adding it makes
    the function positive-definite (``shifted_values``).  The certificate
    fields witness this: the shifted kernel is PSD with the all-ones vector
    in its kernel, while lowering the constant by ``minimality_delta``
    already produces an eigenvalue below ``-delta * |G|``.
    """

    constant: float
    shifted_values: np.ndarray
    min_eigenvalue: float
    hermitian_defect: float
    ones_residual: float
    minimality_delta: float
    minimality_min_eigenvalue: float

    def checks(self) -> list[tuple[str, float]]:
        """``(fact, residual)`` for each certified fact; ``within`` decides them.

        The residual of ``kernel_psd_after_shift`` is the shifted kernel's
        :func:`~cstarconv.algebra.psd_violation`, the number the conditional
        positivity hypothesis was decided on.
        """
        order = len(self.shifted_values)
        named = (
            ("kernel_psd_after_shift", psd_violation(self.hermitian_defect, self.min_eigenvalue)),
            ("ones_vector_annihilated", self.ones_residual),
            ("shift_minimality", self.minimality_min_eigenvalue + self.minimality_delta * order),
        )
        return [(name, float(r)) for name, r in named]


def _check_guichardet_preconditions(group, values, conditionally_positive, tol):
    problems = []
    if not is_hermitian_function(group, values, tol):
        problems.append("function is not Hermitian")
    if not conditionally_positive:
        problems.append("function is not conditionally positive-definite")
    if not within(abs(values[group.identity]), tol):
        problems.append(
            f"function does not vanish at the identity (value {values[group.identity]})"
        )
    if problems:
        raise PreconditionError("; ".join(problems))


#: How far the minimality probe lowers the Guichardet constant.
MINIMALITY_DELTA = 1e-3


def guichardet_constant(
    group: SemigroupTable, values, tol: float = DEFAULT_TOL
) -> GuichardetCertificate:
    """Smallest constant whose addition makes the function positive-definite.

    The constant is ``-mean(values)``: translation invariance puts the
    all-ones vector in the kernel of the shifted translation kernel exactly
    there, conditional positivity gives PSD on its orthogonal complement,
    and any smaller constant makes the ones-vector Rayleigh quotient
    negative.  The certificate re-verifies all three facts by eigenvalues,
    and its spectrum decides conditional positivity too: the shifted
    kernel is ``P K P = K - mean J`` but for ``i Im(mean) J``, which leaves
    the Hermitian part alone, so only the Hermitian defect is ``P K P``'s.

    Raises
    ------
    PreconditionError
        Listing each violated hypothesis (Hermitian, conditionally
        positive-definite, vanishing at the identity).
    """
    inv, values = _require_group(group, values)
    m = group.order
    mean = np.mean(values)
    constant = float(-mean.real)
    shifted = values + constant
    kernel = kernel_matrix(group, shifted)
    lowered = kernel - MINIMALITY_DELTA
    spectra = hermitian_spectrum(np.stack([kernel, lowered]))
    (defect, _), (min_eig, lowered_min) = (a.tolist() for a in spectra)
    # the entries of K - mean J are those of values - mean: compare g with g^-1
    centred = values - mean
    centred_defect = np.abs(centred - centred[inv].conj()).max()
    conditionally_positive = within(psd_violation(centred_defect, min_eig), tol)
    _check_guichardet_preconditions(group, values, conditionally_positive, tol)
    # the ones vector is tested against the matrix whose spectrum is certified
    ones_residual = float(np.linalg.norm((kernel + kernel.conj().T) / 2 @ np.ones(m)))
    return GuichardetCertificate(
        constant, shifted, min_eig, defect, ones_residual, MINIMALITY_DELTA, lowered_min
    )


# ---------------------------------------------------------------------------
# Function <-> functional correspondence on the group C*-algebra
# ---------------------------------------------------------------------------


def functional_from_function(
    group: SemigroupTable, irreps: IrrepTable, values
) -> Functional:
    """The functional on the group C*-algebra with ``omega(lam_g) = f(g)``.

    The dual blocks are the Fourier coefficients
    ``rho_pi = (d_pi / |G|) sum_g f(g) pi(g)^H``; Schur orthogonality makes
    the correspondence a bijection, and positive-definite functions map to
    positive functionals.
    """
    _, values = _require_group(group, values)
    _, fourier = fourier_matrices(group, irreps)
    return Functional(Algebra(irreps.dims), values @ fourier)


# ---------------------------------------------------------------------------
# Compound Poisson semigroups of measures
# ---------------------------------------------------------------------------


def convolve_measures(monoid: SemigroupTable, first, second) -> np.ndarray:
    """Convolution of two weight vectors on a finite monoid."""
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    out = np.zeros(monoid.order)
    np.add.at(out, monoid.table, np.outer(first, second))
    return out


def is_probability(weights, tol: float = DEFAULT_TOL) -> bool:
    weights = np.asarray(weights, dtype=np.float64)
    return bool(within([-weights.min(initial=0.0), abs(weights.sum() - 1.0)], tol).all())


#: Largest Poisson intensity summed as a series; larger ones are halved first.
POISSON_PIECE_INTENSITY = 30.0
#: Poisson tail mass left out of the series, summed over the squarings.
POISSON_TAIL_TOL = 1e-12


def compound_poisson(monoid: SemigroupTable, jump_weights, rate: float, t: float) -> np.ndarray:
    """Time-``t`` distribution of the compound Poisson flow on a monoid.

    The generator is ``rate * (jump - point mass at identity)``; the
    distribution is the Poisson mixture
    ``exp(-rate t) sum_n (rate t)^n / n! jump^{*n}``.  The intensity
    ``rate * t`` is halved ``s`` times until it is at most
    :data:`POISSON_PIECE_INTENSITY`, the series of that piece is truncated
    once its Poisson tail falls below ``POISSON_TAIL_TOL / 2^s``, and the
    piece is convolved with itself ``s`` times (scaling and squaring, Higham
    2005).
    The start weight ``exp(-intensity)`` of a single series would be
    subnormal or zero past an intensity of about 708, and the mass would drift.

    Raises
    ------
    PreconditionError
        If ``jump_weights`` is not a probability vector or ``rate``/``t``
        are negative or not finite.
    """
    jump = np.asarray(jump_weights, dtype=np.float64)
    if not is_probability(jump):
        raise PreconditionError("jump distribution must be a probability vector")
    if not (np.isfinite(rate) and np.isfinite(t)) or rate < 0 or t < 0:
        raise PreconditionError("rate and time must be finite and nonnegative")
    intensity = rate * t
    squarings = 0
    while intensity > POISSON_PIECE_INTENSITY:
        intensity /= 2.0
        squarings += 1
    piece_tol = POISSON_TAIL_TOL / 2.0**squarings
    power = np.zeros(monoid.order)
    power[monoid.identity] = 1.0
    weight = np.exp(-intensity)
    out = weight * power
    accumulated = weight
    n = 0
    # weight > 0 stops the sum once rounding keeps the tail above piece_tol
    while 1.0 - accumulated > piece_tol and weight > 0.0:
        n += 1
        weight *= intensity / n
        power = convolve_measures(monoid, power, jump)
        out += weight * power
        accumulated += weight
    for _ in range(squarings):
        out = convolve_measures(monoid, out, out)
    return out


# ---------------------------------------------------------------------------
# GNS route to the Guichardet decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GuichardetViaGNS:
    """Result of the representation-theoretic Guichardet construction."""

    constant: float
    shifted_values: np.ndarray
    gns_data: GNSData
    function_deviation: float


def guichardet_via_gns(
    group: SemigroupTable,
    irreps: IrrepTable,
    values,
    tol: float = DEFAULT_TOL,
) -> GuichardetViaGNS:
    """Build the positive-definite shift through a cyclic representation.

    The function is transported to a generating functional on the group
    C*-algebra; compressing it by the unit ``p`` of the counit kernel gives
    a positive functional whose GNS vector state, evaluated on the
    translation unitaries, is a positive-definite function differing from
    the input by the constant ``omega(1)``.  The result must agree with
    :func:`guichardet_constant`, which proceeds through kernel eigenvalues
    instead; the two share their input only, and this one forms no kernel.
    The counit of the group C*-algebra is the trivial irrep, so it lives on
    block ``irreps.trivial_index`` of the table, validated before any
    hypothesis is decided.  The other dual blocks are the compressed
    kernel's, scaled by ``d_pi / |G|``, so the gate of ``gns``, ``omega``
    positive, decides conditional positivity.
    """
    _, values = _require_group(group, values)
    irreps.validate(group)
    alg = Algebra(irreps.dims)
    lam, fourier = fourier_matrices(group, irreps)

    # functional_from_function, with the (1x1) counit block compressed away
    dual = values @ fourier
    dual[alg.coord_offsets[irreps.trivial_index]] = 0.0
    omega = Functional(alg, dual)
    _check_guichardet_preconditions(group, values, is_positive_functional(omega, tol), tol)
    constant = omega(alg.unit()).real

    data = gns(alg, omega, tol)
    # <eta, pi(a) eta> is linear in a: read it on the basis, then on every lam_g;
    # on e_k it is u @ L_k @ v, and (L_k v)[z[k, y]] = v[y] for the product table z
    eta = data.cyclic_vector
    u = np.append(eta.conj() @ data.to_space, 0.0)  # entry -1 reads 0
    shifted = (u[alg.product_table] @ (data.from_space @ eta)) @ lam
    deviation = float(np.max(np.abs((shifted - shifted[group.identity]) - values)))
    return GuichardetViaGNS(float(constant), shifted, data, deviation)
