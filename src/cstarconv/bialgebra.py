"""Coproduct/counit structure on finite-dimensional C*-algebras.

A bialgebra here is an algebra together with a coproduct ``delta`` (a
unital *-homomorphism into the tensor square) and a counit character
``epsilon``, subject to coassociativity and the counit laws.  Two
construction families are provided: functions on a finite monoid
(commutative) and the group C*-algebra of a finite group presented through
a complete table of unitary irreps (cocommutative).

Most computations are contractions of the *structure tensor*
``T[k, j, l]``: the coefficient of ``e_k (x) e_j`` (Kronecker coordinates)
in ``delta(e_l)``.  Convolution of functionals, translation operators, the
invariance residual and the coproduct laws all go through a few methods,
and the class of a bialgebra is its kernel:

* :class:`Bialgebra`, the *dense* kernel of einsums and matrix products
  over ``T``, for every coproduct given as a matrix, 0/1 ones included: no
  table is read off a matrix, so ``validate`` sees every defect of it.
* ``_TableBialgebra``, the *table* kernel of exact gathers on the table
  ``f`` of a finite group, ``T[k, j, l] = [f(k, j) = l]``, which only
  :func:`function_bialgebra` builds.  The CLI's C*(``Z_n``) is built
  by it as the functions on the dual group, whose table in the character
  basis of ``cyclic_irreps`` is that of ``Z_n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    Element,
    Functional,
    mixing_permutation,
    tensor_algebra,
    within,
)
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


class Bialgebra:
    """An algebra with coproduct and counit, on the dense kernel.

    ``kernel`` names the kernel (``"dense"`` here, ``"table"`` on the table
    kernel), so a report can say which one decided its residuals.

    Attributes
    ----------
    algebra : Algebra
    delta : LinearMap
        Coproduct, a map from ``algebra`` to its tensor square.
    epsilon : Functional
        Counit; must be a character.
    """

    kernel = "dense"

    def __init__(self, algebra: Algebra, delta: LinearMap, epsilon: Functional):
        self.__dict__.update(algebra=algebra, delta=delta, epsilon=epsilon)
        if delta.source != algebra or delta.target != self.tensor_square:
            raise ShapeError("coproduct must map the algebra into its tensor square")
        algebra._require(epsilon)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a Bialgebra is immutable")

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

    def left_matrix(self, dual: np.ndarray) -> np.ndarray:
        """``sum_k dual[k] T[k]``, the matrix of ``a -> (mu (x) id)(delta a)``.

        Its transpose is the matrix of ``nu -> mu * nu`` on dual coordinates.
        A stack of shape ``(..., dim)`` gives a stack of matrices, one GEMM
        with ``T``.
        """
        dim = self.algebra.dim
        out = dual @ self.structure_tensor.reshape(dim, dim * dim)
        return out.reshape(out.shape[:-1] + (dim, dim))

    def right_matrix(self, dual: np.ndarray) -> np.ndarray:
        """``sum_j dual[j] T[:, j, :]``, the matrix of ``a -> (id (x) mu)(delta a)``.

        Its transpose is the matrix of ``nu -> nu * mu`` on dual coordinates.
        """
        return np.einsum("j,kjl->kl", dual, self.structure_tensor)

    def convolve(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Dual vectors of the convolutions of functionals with dual vectors ``x``, ``y``.

        ``x`` and ``y`` are stacks of shape ``(..., dim)`` with broadcastable
        leading axes; entry ``l`` of a result is ``sum_kj x[k] y[j] T[k, j, l]``,
        that is ``y @ left_matrix(x)``, on either kernel.  The stacks run in
        chunks of vectors whose left matrices hold about ``_CHUNK`` entries.
        """
        dim = self.algebra.dim
        x, y = np.asarray(x), np.asarray(y)
        batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        x = np.broadcast_to(x, batch + (dim,)).reshape(-1, dim)
        y = np.broadcast_to(y, batch + (dim,)).reshape(-1, dim)
        out = np.empty(x.shape, dtype=np.complex128)
        for rows in _chunks(len(out), dim * dim):
            out[rows] = (y[rows, None] @ self.left_matrix(x[rows]))[:, 0]
        return out.reshape(batch + (dim,))

    def invariance_residual(self, matrix: np.ndarray) -> float:
        """``max |T[k] @ matrix - matrix @ T[k]|`` over all ``k``.

        Runs over chunks of ``k`` whose temporaries hold about ``_CHUNK``
        entries, so memory stays bounded at any ``dim``; each chunk is two
        matrix products.
        """
        dim = self.algebra.dim

        def commutators(ks):
            t3 = self.structure_tensor[ks]
            out = (t3.reshape(-1, dim) @ matrix).reshape(t3.shape)
            out -= np.matmul(matrix, t3)
            return out

        return _max_abs(commutators(ks) for ks in _chunks(dim, dim * dim))

    def coassociativity_residual(self) -> float:
        """Max-abs deviation of ``(delta (x) id) delta`` from ``(id (x) delta) delta``.

        It compares every entry, as two matrix products per chunk of output
        columns, so peak memory is about ``dim**3`` entries rather than two
        ``dim**4`` arrays.
        """
        dim = self.algebra.dim
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
            right = right.reshape(dim, dim, dim, c)
            return np.subtract(left, right, out=right)

        return _max_abs(defects(cols) for cols in _chunks(dim, dim**3))

    def counit_residual(self) -> float:
        """Max-abs deviation of ``(eps (x) id) delta`` and ``(id (x) eps) delta`` from ``id``."""
        eps = self.counit_coords
        eye = np.eye(self.algebra.dim)
        return _max_abs([self.right_matrix(eps) - eye, self.left_matrix(eps) - eye])

    def cocommutativity_residual(self) -> float:
        """Max-abs deviation of the coproduct from its tensor flip, over
        chunks of ``k`` as in :meth:`invariance_residual`."""
        dim = self.algebra.dim
        t3 = self.structure_tensor
        flipped = t3.transpose(1, 0, 2)
        return _max_abs(t3[ks] - flipped[ks] for ks in _chunks(dim, dim * dim))

    def unit_residual(self) -> float:
        """Max-abs deviation of ``delta(1)`` from the unit of the tensor square."""
        u = self.algebra.unit_coords
        return _max_abs([self.delta.matrix @ u - self.tensor_square.unit_coords])

    def star_residual(self) -> float:
        """Max-abs deviation of ``delta(e_x)*`` from ``delta(e_x*)`` over all ``x``."""
        s, delta = self.algebra.star_perm, self.delta.matrix
        return _max_abs([delta[self.tensor_square.star_perm].conj() - delta[:, s]])

    def homomorphism_residual(self) -> float:
        """Max-abs deviation of ``delta(e_x) delta(e_y)`` from ``delta(e_x e_y)``.

        ``e_x e_y`` is read from the ``product_table`` ``z``, and the check
        runs one ``x`` at a time (peak about ``dim**3`` entries).
        """
        z = self.algebra.product_table
        images = self.delta.matrix.T  # images[x] = coords(delta(e_x))

        def defects(x):
            expected = images[z[x]]
            expected[z[x] < 0] = 0.0
            return self.tensor_square.multiply(images[x], images) - expected

        return _max_abs(defects(x) for x in range(self.algebra.dim))


class _TableBialgebra(Bialgebra):
    """The functions on a finite group with table ``f``, on the table kernel.

    ``T[k, j, l] = [f(k, j) = l]``, so the left and right matrices are exact
    gathers of a dual vector through ``l j^-1`` and ``k^-1 l``, two index
    tables cached on the kernel, and ``delta`` is formed from ``f`` only when
    a dense path reads it.  The coproduct is the pullback ``delta(g)(k, j) =
    g(f[k, j])``, a unital *-homomorphism for any map ``f``, and
    :class:`SemigroupTable` refused ``f`` unless it is associative: so the
    coassociativity, unit, ``*`` and homomorphism laws read exactly 0, and
    only the counit and cocommutativity residuals are computed, as exact
    counts.  That reason holds only for a checked table, so
    :func:`function_bialgebra` is the one place that builds this class.
    The invariance residual is a bound within a factor 2 of the exact one,
    read from the group's identity and inverses (:meth:`invariance_residual`).
    """

    kernel = "table"

    def __init__(self, algebra: Algebra, epsilon: Functional, group: SemigroupTable):
        self.__dict__.update(
            algebra=algebra, epsilon=epsilon,
            _f=group.table, _identity=group.identity, _inverses=group.inverses,
        )

    @cached_property
    def delta(self) -> LinearMap:
        f = self._f
        dim = len(f)
        # on 1x1 blocks the coordinates of e_k (x) e_j are its Kronecker ones
        matrix = np.zeros((dim * dim, dim), dtype=np.complex128)
        matrix[np.arange(dim * dim), f.ravel()] = 1.0
        return LinearMap(self.algebra, self.tensor_square, matrix)

    @cached_property
    def _right_index(self) -> np.ndarray:
        """``[k, l] -> k^-1 l``: ``T[k, j, l]`` is 1 exactly at ``j = k^-1 l``."""
        return self._f[self._inverses]

    @cached_property
    def _left_index(self) -> np.ndarray:
        """``[j, l] -> l j^-1``: ``T[k, j, l]`` is 1 exactly at ``k = l j^-1``."""
        return self._f.T[self._inverses]

    def left_matrix(self, dual: np.ndarray) -> np.ndarray:
        return dual[..., self._left_index]

    def right_matrix(self, dual: np.ndarray) -> np.ndarray:
        return dual[..., self._right_index]

    def invariance_residual(self, matrix: np.ndarray) -> float:
        """A certified bound ``2 r`` on the exact residual ``R``, from orbit
        representatives, at ``dim**2`` cost.

        ``T[k] @ M`` is the row gather ``M[f[k]]`` and ``M @ T[k]`` the column
        gather ``M[:, f_inv[k]]``; renumbering the columns by ``f[k]`` gives
        ``R = max_{k,j,l} |M[kj, kl] - M[j, l]|``.  Every pair ``(j, l)`` lies
        in the left-translation orbit of ``(e, j^-1 l)``, so
        ``r = max_{j,l} |M[j, l] - M[e, j^-1 l]|`` has ``r <= R`` (take
        ``k = j^-1``) and ``R <= 2 r`` (pass through the representative), and
        the returned ``2 r`` lies in ``[R, 2 R]``: 0 exactly when ``M``
        commutes with every ``T[k]``.  The representatives ``M[e, j^-1 l]``
        are the right matrix of the row ``M[e]``.
        """
        out = self.right_matrix(matrix[self._identity])
        np.subtract(matrix, out, out=out)
        return 2.0 * _max_abs([out])

    def coassociativity_residual(self) -> float:
        return 0.0

    unit_residual = star_residual = homomorphism_residual = coassociativity_residual

    def cocommutativity_residual(self) -> float:
        return float((self._f != self._f.T).any())


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the bialgebra axioms (max-abs matrix deviations).

    ``hom_residual`` covers both halves of the *-homomorphism law of the
    coproduct: the ``*`` law and multiplicativity.
    """

    coassoc_residual: float
    counit_residual: float
    character_residual: float
    unit_residual: float
    hom_residual: float

    def checks(self, tol: float) -> list[tuple[str, float, bool]]:
        """``(axiom, residual, within(residual, tol))`` for each axiom, in report order."""
        named = (
            ("coassociativity", self.coassoc_residual),
            ("counit_laws", self.counit_residual),
            ("counit_character", self.character_residual),
            ("coproduct_unital", self.unit_residual),
            ("coproduct_homomorphism", self.hom_residual),
        )
        return [(name, r, bool(within(r, tol))) for name, r in named]


def validate_bialgebra(b: Bialgebra, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Measure all bialgebra axioms and return their residuals.

    The coproduct laws (coassociativity, the counit laws, unitality and the
    *-homomorphism law) are :class:`Bialgebra` methods run on the
    bialgebra's kernel.  The character law of the counit is checked
    exhaustively over all pairs of matrix units, gathered through the
    algebra's ``product_table``.  Every reported number is a residual, so
    ``tol`` decides nothing here: it is kept, unused, for the callers that
    pass it positionally (the benchmark's replay among them), and the
    verdicts come from :meth:`ValidationReport.checks`.
    """
    alg = b.algebra
    coassoc = b.coassociativity_residual()
    counit = b.counit_residual()
    eps = b.counit_coords
    character = _max_abs(
        [
            np.append(eps, 0.0)[alg.product_table] - np.outer(eps, eps),
            eps @ alg.unit_coords - 1.0,
            eps[alg.star_perm] - eps.conj(),
        ]
    )
    hom = _max_abs([b.star_residual(), b.homomorphism_residual()])
    return ValidationReport(coassoc, counit, character, b.unit_residual(), hom)


# ---------------------------------------------------------------------------
# Construction: functions on a finite monoid
# ---------------------------------------------------------------------------


def function_bialgebra(monoid: SemigroupTable) -> Bialgebra:
    """The commutative bialgebra of complex functions on a finite monoid.

    The algebra is ``m`` one-dimensional blocks (one per point); with ``f``
    the monoid's table, the coproduct pulls functions back along
    multiplication, ``delta(g)(k, j) = g(f[k, j])``, and the counit is the
    point mass at the identity.  A group gets ``_TableBialgebra``, the table
    kernel, which this function alone builds, since its exact laws rest on
    :class:`SemigroupTable` having checked ``f``.  Any other monoid gets the
    dense :class:`Bialgebra` of the coproduct formed from ``f``.
    """
    m = monoid.order
    alg = Algebra((1,) * m)
    eps = alg.functional_from_dual_coords(np.eye(m)[monoid.identity])
    b = _TableBialgebra(alg, eps, monoid)
    if monoid.is_group:
        return b
    return Bialgebra(alg, b.delta, eps)


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
    weights = np.concatenate([np.full(d * d, d / m) for d in irreps.dims])
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


def discrete_type_decomposition(b: Bialgebra) -> DiscreteDecomposition:
    """Locate the one-dimensional block on which the counit lives.

    A character on a multi-matrix algebra is supported on a single 1x1
    block, where it takes the value 1.  If the counit data does not have
    this form the input is corrupted and an error is raised.
    """
    alg = b.algebra
    carrier = None
    for i, (n, rho) in enumerate(zip(alg.blocks, b.epsilon.dual_blocks)):
        weight = float(np.abs(rho).max())
        if within(weight, _STRUCT_TOL):
            continue
        if n != 1 or not within(abs(rho[0, 0] - 1.0), _STRUCT_TOL) or carrier is not None:
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


def is_cocommutative(b: Bialgebra, tol: float = DEFAULT_TOL) -> bool:
    """Whether the coproduct is invariant under the tensor flip."""
    return bool(within(b.cocommutativity_residual(), tol))
