"""Coproduct/counit structure on finite-dimensional C*-algebras.

A bialgebra here is an algebra together with a coproduct ``delta`` (a linear
map into the tensor square) and a counit character ``epsilon``, subject to
coassociativity and the counit laws.  Two construction families are
provided: functions on a finite monoid (commutative) and the group
C*-algebra of a finite group presented through a complete table of unitary
irreps (cocommutative).  ``mode="hyper"`` relaxes the coproduct from a
*-homomorphism to a completely positive unital map.

Most computations are contractions of the *structure tensor*
``T[k, j, l]``: the coefficient of ``e_k (x) e_j`` (Kronecker coordinates)
in ``delta(e_l)``.  Convolution of functionals, translation operators, the
invariance residual and the coassociativity, counit and cocommutativity
tests all go through a few :class:`Bialgebra` methods, backed by one of two
kernels chosen once per bialgebra from ``delta`` itself:

* the *table* kernel, when every row of the coproduct matrix holds exactly
  one nonzero entry, that entry is exactly ``1.0``, and every left
  translation ``f(k, .)`` of the table it defines is a bijection.  Then
  ``T[k, j, l] = [f(k, j) = l]`` (functions on a finite group), and the
  contractions are exact index gathers and scatters on the int table ``f``;
* the *dense* kernel otherwise: einsums and matrix products over ``T``.

The selection never rounds: a coproduct with rounding fill (such as the
Fourier-built group C*-coproducts) or with one entry off ``1.0`` stays dense,
so ``validate`` sees every defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, Element, Functional, mixing_permutation, tensor_algebra
from .errors import ConstructionError, ShapeError
from .groups import IrrepTable, SemigroupTable
from .maps import LinearMap

_STRUCT_TOL = 1e-12
# target size, in entries, of the temporaries of one chunk of a chunked
# contraction; a single index of the chunked axis is never split
_CHUNK = 2**18


def _chunks(dim: int, entries_per_index: int) -> list[slice]:
    """Consecutive slices of ``range(dim)`` of about ``_CHUNK`` entries each."""
    width = max(1, _CHUNK // entries_per_index)
    return [slice(start, min(start + width, dim)) for start in range(0, dim, width)]


def _max_abs(parts) -> float:
    """Largest absolute entry over arrays; ``nan`` if any entry is ``nan``."""
    return float(np.max([np.max(np.abs(p)) for p in parts]))


@dataclass(frozen=True, eq=False)
class Bialgebra:
    """An algebra with coproduct and counit.

    Attributes
    ----------
    algebra : Algebra
    delta : LinearMap
        Coproduct, a map from ``algebra`` to its tensor square.
    epsilon : Functional
        Counit; must be a character.
    mode : str
        ``"hom"`` when the coproduct is a unital *-homomorphism,
        ``"hyper"`` when it is merely completely positive and unital.
    """

    algebra: Algebra
    delta: LinearMap
    epsilon: Functional
    mode: str = "hom"

    def __post_init__(self):
        if self.mode not in ("hom", "hyper"):
            raise ConstructionError(f"mode must be 'hom' or 'hyper', got {self.mode!r}")
        square = tensor_algebra(self.algebra, self.algebra)
        if (
            self.delta.source.blocks != self.algebra.blocks
            or self.delta.target.blocks != square.blocks
        ):
            raise ShapeError("coproduct must map the algebra into its tensor square")
        self.algebra._require(self.epsilon)

    @cached_property
    def tensor_square(self) -> Algebra:
        return tensor_algebra(self.algebra, self.algebra)

    @cached_property
    def structure_tensor(self) -> np.ndarray:
        """Array ``T[k, j, l]``: Kronecker coefficient of ``delta(e_l)``."""
        dim = self.algebra.dim
        perm = mixing_permutation(self.algebra, self.algebra)
        kron_rows = np.empty((dim * dim, dim), dtype=np.complex128)
        kron_rows[perm] = self.delta.matrix
        tensor = kron_rows.reshape(dim, dim, dim)
        tensor.setflags(write=False)
        return tensor

    @property
    def counit_coords(self) -> np.ndarray:
        return self.epsilon.dual

    # -- the contraction kernel --------------------------------------------

    @cached_property
    def _table(self) -> np.ndarray | None:
        """The int table ``f`` with ``T[k, j, l] = [f[k, j] = l]``, or ``None``.

        ``None`` selects the dense kernel.  The table is read off ``delta``
        exactly: each row of the coproduct matrix must hold one nonzero
        entry, equal to ``1.0``, and each row ``f[k]`` must be a permutation.
        """
        dim = self.algebra.dim
        delta = self.delta.matrix
        nonzero = delta != 0
        if not (np.count_nonzero(nonzero, axis=1) == 1).all():
            return None
        cols = nonzero.argmax(axis=1)
        if not (delta[np.arange(dim * dim), cols] == 1.0).all():
            return None
        table = np.empty(dim * dim, dtype=np.intp)
        table[mixing_permutation(self.algebra, self.algebra)] = cols
        table = table.reshape(dim, dim)
        if not (np.sort(table, axis=1) == np.arange(dim)).all():
            return None
        return table

    def left_matrix(self, dual: np.ndarray) -> np.ndarray:
        """``sum_k dual[k] T[k]``, the matrix of ``a -> (mu (x) id)(delta a)``.

        Its transpose is the matrix of ``nu -> mu * nu`` on dual coordinates.
        """
        f = self._table
        if f is None:
            return np.einsum("k,kjl->jl", dual, self.structure_tensor)
        dim = len(f)
        # T[k] has its one 1 of row j in column f[k, j]: scatter-add dual[k] there
        index = (np.arange(dim) * dim + f).ravel()
        weights = np.repeat(dual, dim)
        out = np.empty(dim * dim, dtype=np.complex128)
        out.real = np.bincount(index, weights.real, dim * dim)
        out.imag = np.bincount(index, weights.imag, dim * dim)
        return out.reshape(dim, dim)

    def right_matrix(self, dual: np.ndarray) -> np.ndarray:
        """``sum_j dual[j] T[:, j, :]``, the matrix of ``a -> (id (x) mu)(delta a)``.

        Its transpose is the matrix of ``nu -> nu * mu`` on dual coordinates.
        """
        f = self._table
        if f is None:
            return np.einsum("j,kjl->kl", dual, self.structure_tensor)
        # row k is a permutation of dual: entry [k, f[k, j]] is dual[j]
        out = np.empty(f.shape, dtype=np.complex128)
        out[np.arange(len(f))[:, None], f] = dual
        return out

    def convolve(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Dual vector of the convolution of the functionals with dual vectors ``x``, ``y``."""
        if self._table is None:
            return np.einsum("k,j,kjl->l", x, y, self.structure_tensor)
        return x @ self.right_matrix(y)

    def invariance_residual(self, matrix: np.ndarray) -> float:
        """``max |T[k] @ matrix - matrix @ T[k]|`` over all ``k``.

        Runs over chunks of ``k`` whose temporaries hold about ``_CHUNK``
        entries, so memory stays bounded at any ``dim``.  On the dense kernel
        the two products are one matrix product and one batched matrix
        product per chunk.  On the table kernel ``T[k] @ M`` is the row
        gather ``M[f[k]]`` and ``M @ T[k]`` the column gather
        ``M[:, f_inv[k]]``; renumbering the columns by ``f[k]`` turns their
        difference into ``M[f[k]][:, f[k]] - M``, the same entries in
        another order, so one gather per chunk gives the same maximum.
        """
        dim = self.algebra.dim
        f = self._table

        def commutators(ks):
            if f is None:
                t3 = self.structure_tensor[ks]
                out = (t3.reshape(-1, dim) @ matrix).reshape(t3.shape)
                out -= np.matmul(matrix, t3)
            else:
                out = matrix[f[ks, :, None], f[ks, None, :]]
                out -= matrix
            return out

        return _max_abs(commutators(ks) for ks in _chunks(dim, dim * dim))

    def coassociativity_residual(self) -> float:
        """Max-abs deviation of ``(delta (x) id) delta`` from ``(id (x) delta) delta``.

        On the table kernel both sides are 0/1 tensors and the residual is
        ``1.0`` exactly when ``f[f[x, y], z] != f[x, f[y, z]]`` somewhere.
        On the dense kernel it compares every entry, as two matrix products
        per chunk of output columns, so peak memory is about ``dim**3``
        entries rather than two ``dim**4`` arrays.
        """
        dim = self.algebra.dim
        f = self._table
        if f is not None:
            return float(
                any((f[f[xs]] != f[xs][:, f]).any() for xs in _chunks(dim, dim * dim))
            )
        t3 = self.structure_tensor
        pairs = t3.reshape(dim * dim, dim)

        # (delta (x) id) delta (e_l) has entries [k, a, b] = sum_j T[a, b, j] T[k, j, l]
        # and (id (x) delta) delta (e_l) has [a, b, j] = sum_k T[a, b, k] T[k, j, l]:
        # one GEMM each per chunk of columns l
        def defects(cols):
            c = cols.stop - cols.start
            left = pairs @ t3.transpose(1, 0, 2)[:, :, cols].reshape(dim, dim * c)
            right = pairs @ t3[:, :, cols].reshape(dim, dim * c)
            left = left.reshape(dim, dim, dim, c).transpose(2, 0, 1, 3)
            return left - right.reshape(dim, dim, dim, c)

        return _max_abs(defects(cols) for cols in _chunks(dim, dim**3))

    def counit_residual(self) -> float:
        """Max-abs deviation of ``(eps (x) id) delta`` and ``(id (x) eps) delta`` from ``id``."""
        eps = self.counit_coords
        eye = np.eye(self.algebra.dim)
        return _max_abs([self.right_matrix(eps) - eye, self.left_matrix(eps) - eye])

    def cocommutativity_residual(self) -> float:
        """Max-abs deviation of the coproduct from its tensor flip."""
        f = self._table
        if f is not None:
            return float((f != f.T).any())
        t3 = self.structure_tensor
        return float(np.max(np.abs(t3 - t3.transpose(1, 0, 2))))


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the bialgebra axioms (max-abs matrix deviations)."""

    coassoc_residual: float
    counit_residual: float
    character_residual: float
    unit_residual: float
    hom_residual: float | None
    cp_min_eig: float | None

    def passes(self, tol: float) -> bool:
        ok = (
            self.coassoc_residual <= tol
            and self.counit_residual <= tol
            and self.character_residual <= tol
            and self.unit_residual <= tol
        )
        if self.hom_residual is not None:
            ok = ok and self.hom_residual <= tol
        if self.cp_min_eig is not None:
            ok = ok and self.cp_min_eig >= -tol
        return ok

    def max_residual(self) -> float:
        vals = [
            self.coassoc_residual,
            self.counit_residual,
            self.character_residual,
            self.unit_residual,
        ]
        if self.hom_residual is not None:
            vals.append(self.hom_residual)
        if self.cp_min_eig is not None:
            vals.append(max(0.0, -self.cp_min_eig))
        return max(vals)


def validate_bialgebra(b: Bialgebra, tol: float = 1e-10) -> ValidationReport:
    """Measure all bialgebra axioms and return their residuals.

    Coassociativity and the counit laws are identities on the structure
    tensor, measured by :meth:`Bialgebra.coassociativity_residual` and
    :meth:`Bialgebra.counit_residual` on the bialgebra's kernel.  The
    character law and (in ``hom`` mode) the homomorphism law are checked
    exhaustively over all pairs of canonical basis elements, from one
    tensor of basis products.  In ``hyper`` mode the homomorphism residual
    is replaced by the minimum Choi eigenvalue of the coproduct.
    """
    alg = b.algebra
    dim = alg.dim
    eye = np.eye(dim)
    coassoc = b.coassociativity_residual()
    counit = b.counit_residual()
    eps = b.counit_coords

    # products[x, y] = coords(e_x e_y); the basis is real, so e_x* = e_{star_perm[x]}
    products = alg.multiply(eye[:, None, :], eye)
    character = float(np.max(np.abs(products @ eps - np.outer(eps, eps))))
    character = max(character, abs(eps @ alg.unit_coords - 1.0))
    character = max(character, float(np.max(np.abs(eps[alg.star_perm] - eps.conj()))))

    square = b.tensor_square
    delta = b.delta.matrix
    unit_res = float(np.max(np.abs(delta @ alg.unit_coords - square.unit_coords)))

    hom_residual = None
    cp_min_eig = None
    if b.mode == "hom":
        # delta(e_x)* against delta(e_x*), for all x at once
        hom = float(np.max(np.abs(delta[square.star_perm].conj() - delta[:, alg.star_perm])))
        images = delta.T  # images[x] = coords(delta(e_x))
        for x in range(dim):
            lhs = square.multiply(images[x], images)
            rhs = products[x] @ images
            hom = max(hom, float(np.max(np.abs(lhs - rhs))))
        hom_residual = hom
    else:
        from .semigroup import is_completely_positive

        cp_min_eig = min(is_completely_positive(b.delta, tol).min_choi_eigenvalues)

    return ValidationReport(coassoc, counit, character, unit_res, hom_residual, cp_min_eig)


# ---------------------------------------------------------------------------
# Construction: functions on a finite monoid
# ---------------------------------------------------------------------------


def function_bialgebra(monoid: SemigroupTable) -> Bialgebra:
    """The commutative bialgebra of complex functions on a finite monoid.

    The algebra is ``m`` one-dimensional blocks (one per point); the
    coproduct dualizes multiplication, ``delta(f)(g, h) = f(g h)``, and the
    counit evaluates at the identity element.
    """
    m = monoid.order
    alg = Algebra((1,) * m)
    square = tensor_algebra(alg, alg)
    delta = np.zeros((m * m, m), dtype=np.complex128)
    delta[np.arange(m * m), monoid.table.ravel()] = 1.0
    eps = alg.functional_from_dual_coords(np.eye(m)[monoid.identity])
    return Bialgebra(alg, LinearMap(alg, square, delta), eps)


# ---------------------------------------------------------------------------
# Construction: group C*-algebra of a finite group
# ---------------------------------------------------------------------------


def group_cstar_bialgebra(group: SemigroupTable, irreps: IrrepTable) -> Bialgebra:
    """The cocommutative bialgebra on the group C*-algebra of a finite group.

    The algebra is the direct sum of one matrix block per irrep.  The
    translation unitaries ``lam_g = (+)_pi pi(g)`` span the algebra; the
    coproduct and counit are fixed on this spanning set by
    ``delta(lam_g) = lam_g (x) lam_g`` and ``epsilon(lam_g) = 1`` and
    extended linearly through Fourier inversion
    ``coeff_g(E) = sum_pi (d_pi / |G|) trace(pi(g)^H E_pi)``.

    Raises
    ------
    ConstructionError
        If the irrep table is incomplete or fails validation.
    """
    irreps.validate(group)
    alg = Algebra(irreps.dims)
    square = tensor_algebra(alg, alg)
    lam, fourier = fourier_matrices(group, irreps)
    # column g: coords(lam_g (x) lam_g) = kron(lam_g, lam_g)[perm]
    lam_pairs = (lam[:, None, :] * lam[None, :, :]).reshape(square.dim, group.order)
    delta = lam_pairs[mixing_permutation(alg, alg)] @ fourier
    eps = np.zeros(alg.dim)
    eps[alg.coord_offsets[irreps.trivial_index]] = 1.0
    return Bialgebra(alg, LinearMap(alg, square, delta), alg.functional_from_dual_coords(eps))


def fourier_matrices(group: SemigroupTable, irreps: IrrepTable):
    """Spanning-set and inversion matrices of the group C*-algebra.

    Returns ``(lam, fourier)`` where column ``g`` of ``lam`` holds the
    coordinates of the translation unitary of ``g`` and ``fourier @ lam`` is
    the identity on group functions (and ``lam @ fourier`` the identity on
    coordinates).
    """
    m = group.order
    lam = irreps.coefficient_rows()
    weights = np.repeat([d / m for d in irreps.dims], [d * d for d in irreps.dims])
    return lam, (weights[:, None] * lam.conj()).T


# ---------------------------------------------------------------------------
# Discrete-type decomposition and symmetry predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteDecomposition:
    """Splitting of a discrete-type bialgebra at the counit block.

    ``omega`` is the unit of the unique one-dimensional block supporting the
    counit and ``ideal_unit = 1 - omega`` the unit of the kernel ideal of
    the counit.
    """

    omega_index: int
    omega: Element
    ideal_unit: Element


def discrete_type_decomposition(
    b: Bialgebra, tol: float = _STRUCT_TOL
) -> DiscreteDecomposition:
    """Locate the one-dimensional block on which the counit lives.

    A character on a multi-matrix algebra is supported on a single 1x1
    block, where it takes the value 1.  If the counit data does not have
    this form the input is corrupted and an error is raised.
    """
    alg = b.algebra
    carrier = None
    for i, (n, rho) in enumerate(zip(alg.blocks, b.epsilon.dual_blocks)):
        weight = float(np.abs(rho).max())
        if weight <= tol:
            continue
        if n != 1 or abs(rho[0, 0] - 1.0) > tol or carrier is not None:
            raise ConstructionError(
                "counit is not a character supported on a single 1x1 block"
            )
        carrier = i
    if carrier is None:
        raise ConstructionError("counit vanishes everywhere")
    mats = [np.zeros((n, n)) for n in alg.blocks]
    mats[carrier] = np.array([[1.0]])
    omega = alg.element(mats)
    return DiscreteDecomposition(carrier, omega, alg.unit() - omega)


def is_commutative(b: Bialgebra) -> bool:
    """True when the algebra is commutative, i.e. all blocks are 1x1."""
    return all(n == 1 for n in b.algebra.blocks)


def is_cocommutative(b: Bialgebra, tol: float = 1e-10) -> bool:
    """Whether the coproduct is invariant under the tensor flip."""
    return b.cocommutativity_residual() <= tol
