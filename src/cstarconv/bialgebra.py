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
invariance residual and the coproduct laws all go through a few
:class:`Bialgebra` methods, backed by one of two kernels chosen once per
bialgebra:

* the *table* kernel, when ``T[k, j, l] = [f(k, j) = l]`` for the table
  ``f`` of a finite group; the contractions are exact gathers and scatters
  on ``f``, the counit and cocommutativity residuals exact counts, and the
  other coproduct laws 0 by construction (see :func:`function_bialgebra`);
* the *dense* kernel otherwise: einsums and matrix products over ``T``.

Which family takes which kernel:

* functions on a finite monoid go through :func:`function_bialgebra`, the
  one way onto the table kernel: table when the monoid is a group, with
  the dense coproduct matrix formed only when a dense path reads ``delta``;
  dense, formed from the table, for a monoid that is not a group.
* the group C*-algebra C*(``Z_n``) of the built-in ``zn:<n>`` (CLI
  ``validate zn:<n>`` and ``evolve dual:zn:<n>``): table.  In the character
  basis ``e_j`` of ``cyclic_irreps``, ``lam_g = sum_j omega^(j g) e_j`` and
  ``lam_g (x) lam_g`` give ``delta(e_j) = sum_{a + b = j mod n} e_a (x) e_b``
  and ``epsilon(e_j) = [j = 0]``: by Pontryagin duality C*(``Z_n``) is the
  functions on the dual group, whose table is that of ``Z_n`` itself, so it
  is built exactly as ``function_bialgebra(cyclic_group(n))``.
* every ``Bialgebra(algebra, delta, epsilon, mode)``: dense.  That covers
  :func:`group_cstar_bialgebra` (``s3``, ``d4``, ``q8``, irrep files, and
  the tests' oracle for C*(``Z_n``)), whose coproduct comes out of Fourier
  inversion with rounding fill, and bialgebra files, 0/1 coproducts
  included: no table is read off a matrix, so ``validate`` sees every
  defect of a given coproduct.
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
    psd_within,
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
    """An algebra with coproduct and counit.

    Attributes
    ----------
    algebra : Algebra
    delta : LinearMap
        Coproduct, a map from ``algebra`` to its tensor square.  On the table
        kernel it is formed from the table on first access.
    epsilon : Functional
        Counit; must be a character.
    mode : str
        ``"hom"`` when the coproduct is a unital *-homomorphism,
        ``"hyper"`` when it is merely completely positive and unital.
    """

    def __init__(self, algebra: Algebra, delta: LinearMap, epsilon: Functional, mode: str = "hom"):
        if mode not in ("hom", "hyper"):
            raise ConstructionError(f"mode must be 'hom' or 'hyper', got {mode!r}")
        self.__dict__.update(algebra=algebra, delta=delta, epsilon=epsilon, mode=mode, _table=None)
        if delta.source != algebra or delta.target != self.tensor_square:
            raise ShapeError("coproduct must map the algebra into its tensor square")
        algebra._require(epsilon)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a Bialgebra is immutable")

    @cached_property
    def delta(self) -> LinearMap:
        f = self._table  # only function_bialgebra sets a table, so only it gets here
        dim = len(f)
        # on 1x1 blocks the coordinates of e_k (x) e_j are its Kronecker ones
        matrix = np.zeros((dim * dim, dim), dtype=np.complex128)
        matrix[np.arange(dim * dim), f.ravel()] = 1.0
        return LinearMap(self.algebra, self.tensor_square, matrix)

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
        """Dual vectors of the convolutions of functionals with dual vectors ``x``, ``y``.

        ``x`` and ``y`` are stacks of shape ``(..., dim)`` with broadcastable
        leading axes; entry ``l`` of a result is ``sum_kj x[k] y[j] T[k, j, l]``.
        The stacks run in chunks of vectors whose temporaries hold about
        ``_CHUNK`` entries.  On the dense kernel a chunk is one GEMM
        ``x @ T.reshape(dim, dim**2)`` and one batched contraction with ``y``;
        on the table kernel it is one ``bincount`` that scatters
        ``x[s, k] y[s, j]`` of vector ``s`` to ``s * dim + f[k, j]``.
        """
        dim = self.algebra.dim
        x, y = np.asarray(x), np.asarray(y)
        batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        x = np.broadcast_to(x, batch + (dim,)).reshape(-1, dim)
        y = np.broadcast_to(y, batch + (dim,)).reshape(-1, dim)
        out = np.empty(x.shape, dtype=np.complex128)
        f = self._table
        for rows in _chunks(len(out), dim * dim):
            if f is None:
                left = x[rows] @ self.structure_tensor.reshape(dim, dim * dim)
                out[rows] = np.einsum("sj,sjl->sl", y[rows], left.reshape(-1, dim, dim))
            else:
                count = rows.stop - rows.start
                index = (np.arange(count)[:, None, None] * dim + f).ravel()
                weights = (x[rows, :, None] * y[rows, None, :]).ravel()
                part = out[rows]
                part.real = np.bincount(index, weights.real, count * dim).reshape(count, dim)
                part.imag = np.bincount(index, weights.imag, count * dim).reshape(count, dim)
        return out.reshape(batch + (dim,))

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

        Exactly 0 on the table kernel, which only :func:`function_bialgebra`
        reaches.  On the dense kernel it compares every entry, as two matrix
        products per chunk of output columns, so peak memory is about
        ``dim**3`` entries rather than two ``dim**4`` arrays.
        """
        if self._table is not None:
            return 0.0
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
        """Max-abs deviation of the coproduct from its tensor flip."""
        f = self._table
        if f is not None:
            return float((f != f.T).any())
        t3 = self.structure_tensor
        return float(np.max(np.abs(t3 - t3.transpose(1, 0, 2))))

    def unit_residual(self) -> float:
        """Max-abs deviation of ``delta(1)`` from the unit of the tensor square;
        exactly 0 on the table kernel, which only :func:`function_bialgebra` reaches."""
        if self._table is not None:
            return 0.0
        u = self.algebra.unit_coords
        return _max_abs([self.delta.matrix @ u - self.tensor_square.unit_coords])

    def star_residual(self) -> float:
        """Max-abs deviation of ``delta(e_x)*`` from ``delta(e_x*)`` over all ``x``;
        exactly 0 on the table kernel, which only :func:`function_bialgebra` reaches."""
        if self._table is not None:
            return 0.0
        s, delta = self.algebra.star_perm, self.delta.matrix
        return _max_abs([delta[self.tensor_square.star_perm].conj() - delta[:, s]])

    def homomorphism_residual(self) -> float:
        """Max-abs deviation of ``delta(e_x) delta(e_y)`` from ``delta(e_x e_y)``;
        exactly 0 on the table kernel, which only :func:`function_bialgebra` reaches.

        ``e_x e_y`` is read from the ``product_table`` ``z``, and the check
        runs one ``x`` at a time (peak about ``dim**3`` entries).
        """
        if self._table is not None:
            return 0.0
        z = self.algebra.product_table
        images = self.delta.matrix.T  # images[x] = coords(delta(e_x))

        def defects(x):
            expected = images[z[x]]
            expected[z[x] < 0] = 0.0
            return self.tensor_square.multiply(images[x], images) - expected

        return _max_abs(defects(x) for x in range(self.algebra.dim))


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the bialgebra axioms (max-abs matrix deviations).

    In ``hyper`` mode the homomorphism law gives way to complete positivity
    of the coproduct, measured by the smallest Choi eigenvalue and the
    largest Choi Hermitian defect.
    """

    coassoc_residual: float
    counit_residual: float
    character_residual: float
    unit_residual: float
    hom_residual: float | None
    cp_min_eig: float | None
    cp_hermitian_defect: float | None

    def checks(self, tol: float) -> list[tuple[str, float, bool]]:
        """``(axiom, residual, verdict)`` for each measured axiom, in report order.

        An axiom holds when ``within(residual, tol)``.  Complete positivity
        is reported by the smallest Choi eigenvalue and holds when every Choi
        piece is PSD within ``tol``, Hermitian defect included.
        """
        named = (
            ("coassociativity", self.coassoc_residual),
            ("counit_laws", self.counit_residual),
            ("counit_character", self.character_residual),
            ("coproduct_unital", self.unit_residual),
            ("coproduct_homomorphism", self.hom_residual),
        )
        out = [(name, r, bool(within(r, tol))) for name, r in named if r is not None]
        if self.cp_min_eig is not None:
            cp = psd_within(self.cp_hermitian_defect, self.cp_min_eig, tol)
            out.append(("coproduct_choi_min_eig", self.cp_min_eig, bool(cp)))
        return out


def validate_bialgebra(b: Bialgebra, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Measure all bialgebra axioms and return their residuals.

    The coproduct laws (coassociativity, the counit laws, unitality and, in
    ``hom`` mode, the *-homomorphism law) are :class:`Bialgebra` methods
    run on the bialgebra's kernel.  The character law of the counit is
    checked exhaustively over all pairs of matrix units, gathered through
    the algebra's ``product_table``.  In ``hyper`` mode the homomorphism
    residual is replaced by the Choi diagnostics of the coproduct; ``tol``
    is passed to :func:`~cstarconv.semigroup.is_completely_positive` and
    affects no reported number.
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
    unit_res = b.unit_residual()
    if b.mode == "hom":
        hom = _max_abs([b.star_residual(), b.homomorphism_residual()])
        return ValidationReport(coassoc, counit, character, unit_res, hom, None, None)
    from .semigroup import is_completely_positive

    cp = is_completely_positive(b.delta, tol)
    min_eig = float(np.min(cp.min_choi_eigenvalues))
    defect = float(np.max(cp.hermitian_defects))
    return ValidationReport(coassoc, counit, character, unit_res, None, min_eig, defect)


# ---------------------------------------------------------------------------
# Construction: functions on a finite monoid
# ---------------------------------------------------------------------------


def function_bialgebra(monoid: SemigroupTable) -> Bialgebra:
    """The commutative bialgebra of complex functions on a finite monoid.

    The algebra is ``m`` one-dimensional blocks (one per point); with ``f``
    the monoid's table, the coproduct pulls functions back along
    multiplication, ``delta(g)(k, j) = g(f[k, j])``, and the counit is the
    point mass at the identity.  Pullback along a map is a unital
    *-homomorphism, and :class:`SemigroupTable` refuses a table that is not
    associative, so on the table kernel, which only this function reaches,
    the coproduct laws other than the counit laws read exactly 0.  A group
    runs on the table kernel and forms ``delta`` only when a dense path reads
    it; any other monoid gets the dense bialgebra formed from ``f``.
    """
    f, m = monoid.table, monoid.order
    alg = Algebra((1,) * m)
    eps = alg.functional_from_dual_coords(np.eye(m)[monoid.identity])
    b = Bialgebra.__new__(Bialgebra)
    b.__dict__.update(algebra=alg, epsilon=eps, mode="hom", _table=f)
    # a row of m entries in range(m) is a permutation when it hits every value
    hit = np.zeros((m, m), dtype=bool)
    hit[np.arange(m)[:, None], f] = True
    if hit.all():
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
