"""Finite-dimensional C*-algebras given by block-matrix data.

An algebra is a direct sum of full matrix blocks ``M_{n_1} + ... + M_{n_k}``.
:class:`Algebra` owns the one coordinate layout of the package: the canonical
basis is the family of matrix units, blocks in declared order and row-major
within each block.  An element stores its coordinates in that basis as one
flat vector; a linear functional stores the flat vector of its values on the
basis, so that

    mu(a) = dual @ coords = sum_i trace(rho_i @ a_i),

where the dual block ``rho_i`` is the transpose of the block's slice of
``dual``.  Per-block matrices are read-only views of the vectors.  Every
dense matrix in this package (coproducts, translation operators, semigroup
maps) acts on these coordinates.  All values are immutable after
construction and every operation is a pure function, so everything is safe
to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import PreconditionError, ShapeError

#: Default absolute tolerance for every numerical predicate in the package.
DEFAULT_TOL = 1e-9

GNS_RANK_TOL = 1e-12  # relative eigenvalue threshold of the GNS Gram null space

# largest block size that Algebra.multiply forms without a batched matmul
_SMALL_BLOCK = 2


def _frozen(array, dtype=np.complex128) -> np.ndarray:
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


def _coordinates(algebra: Algebra, coords, kind: str) -> np.ndarray:
    """``coords`` flattened to one read-only complex vector of ``algebra.dim`` entries."""
    out = _frozen(np.asarray(coords, dtype=np.complex128).ravel())
    if out.size != algebra.dim:
        raise ShapeError(f"expected {algebra.dim} {kind}, got {out.size}")
    return out


def hermitian_spectrum(mats) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian defect and smallest Hermitian-part eigenvalue of each matrix.

    ``mats`` is a stack of shape ``(..., n, n)``; both results have shape
    ``(...)``.  The defect of ``A`` is ``max|A - A^H|``; the eigenvalue is the
    smallest of ``A/2 + A^H/2`` (no overflow), by one batched ``eigvalsh``.  A
    matrix with a non-finite entry gets the eigenvalue ``nan``, where LAPACK
    would return zeros or fail to converge, so it fails every gate.

    Every positive-semidefiniteness decision of the package (states,
    conditionally positive functionals, Choi pieces, translation kernels)
    is measured here, reduced by :func:`psd_violation` and decided by
    :func:`within`.
    """
    mats = np.asarray(mats)
    mats_h = mats.conj().swapaxes(-1, -2)
    defects = np.abs(mats - mats_h).max(axis=(-2, -1))
    finite = np.isfinite(mats).all(axis=(-2, -1))
    herm = np.where(finite[..., None, None], mats / 2.0 + mats_h / 2.0, 0.0)
    return defects, np.where(finite, np.linalg.eigvalsh(herm)[..., 0], np.nan)


def within(residual, tol: float) -> np.ndarray:
    """Elementwise verdict ``residual <= tol``; a non-finite residual never passes.

    Every pass/fail decision of the package is taken here.
    """
    residual = np.asarray(residual)
    return np.isfinite(residual) & (residual <= tol)


def psd_violation(defects, min_eigs) -> np.ndarray:
    """Elementwise distance from PSD of the output of :func:`hermitian_spectrum`.

    The larger of the Hermitian defect and the negated smallest eigenvalue,
    0 for an exactly PSD matrix and ``nan`` when either is not finite, so
    ``within`` never passes it.
    """
    defects, min_eigs = np.asarray(defects), np.asarray(min_eigs)
    finite = np.isfinite(defects) & np.isfinite(min_eigs)
    # 0 - e rather than -e, so that a zero eigenvalue gives +0, not -0
    return np.where(finite, np.maximum(defects, 0.0 - min_eigs), np.nan)


@dataclass(frozen=True)
class Algebra:
    """A finite multi-matrix C*-algebra, described by its block dimensions.

    Parameters
    ----------
    blocks : tuple of int
        Ordered block sizes ``(n_1, ..., n_k)``, each at least 1.

    Attributes
    ----------
    dim : int
        Coordinate dimension ``sum(n_i ** 2)`` (number of matrix units).
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if len(blocks) == 0 or any(n < 1 for n in blocks):
            raise ShapeError(f"block dimensions must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def dim(self) -> int:
        return int(sum(n * n for n in self.blocks))

    @cached_property
    def coord_offsets(self) -> tuple[int, ...]:
        """Start index of each block in the coordinate vector."""
        starts = np.concatenate([[0], np.cumsum([n * n for n in self.blocks])])
        return tuple(int(s) for s in starts[:-1])

    @cached_property
    def star_perm(self) -> np.ndarray:
        """Index array with ``coords(a*) = conj(coords(a)[star_perm])``.

        It transposes each block, so it is its own inverse; the same rule
        gives the dual vector of the adjoint functional.
        """
        perm = np.concatenate(
            [
                off + np.arange(n * n).reshape(n, n).T.ravel()
                for off, n in zip(self.coord_offsets, self.blocks)
            ]
        )
        perm.setflags(write=False)
        return perm

    @cached_property
    def unit_coords(self) -> np.ndarray:
        return _frozen(np.concatenate([np.eye(n).ravel() for n in self.blocks]))

    @cached_property
    def blocks_by_size(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """For each distinct block size ``n``: the positions of the blocks of
        that size in ``blocks`` and their ``(count, n * n)`` coordinate indices."""
        groups: dict[int, list[int]] = {}
        for i, n in enumerate(self.blocks):
            groups.setdefault(n, []).append(i)
        offsets = np.array(self.coord_offsets)
        return tuple(
            (n, np.array(pos), offsets[pos][:, None] + np.arange(n * n))
            for n, pos in groups.items()
        )

    @cached_property
    def product_table(self) -> np.ndarray:
        """Int table ``z`` with ``e_x e_y = e_{z[x, y]}``, or 0 where ``z[x, y] = -1``
        (so a vector with one 0 appended gathers the coordinate of each product)."""
        table = np.full((self.dim, self.dim), -1, dtype=np.intp)
        for n, _, idx in self.blocks_by_size:
            r, s, u = np.indices((n, n, n)).reshape(3, -1)
            table[idx[:, r * n + s], idx[:, s * n + u]] = idx[:, r * n + u]
        table.setflags(write=False)
        return table

    # -- constructors -----------------------------------------------------

    def element(self, blocks) -> "Element":
        """Wrap per-block matrices as an element, validating shapes."""
        mats = [np.asarray(b, dtype=np.complex128) for b in blocks]
        self._check_shapes(mats)
        return Element(self, np.concatenate([m.ravel() for m in mats]))

    def functional(self, dual_blocks) -> "Functional":
        """Wrap per-block dual matrices as a functional, validating shapes."""
        mats = [np.asarray(b, dtype=np.complex128) for b in dual_blocks]
        self._check_shapes(mats)
        return Functional(self, np.concatenate([m.T.ravel() for m in mats]))

    def unit(self) -> "Element":
        return Element(self, self.unit_coords)

    # -- coordinates -------------------------------------------------------

    def to_coords(self, a: "Element") -> np.ndarray:
        """Coordinates of an element in the canonical matrix-unit basis."""
        self._require(a)
        return a.coords

    def dual_coords(self, mu: "Functional") -> np.ndarray:
        """Row vector with ``mu(a) = dual_coords(mu) @ to_coords(a)``."""
        self._require(mu)
        return mu.dual

    def split(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-block ``(n, n)`` views of a coordinate vector, row-major."""
        return tuple(
            vector[off : off + n * n].reshape(n, n)
            for off, n in zip(self.coord_offsets, self.blocks)
        )

    # -- block arithmetic on coordinate arrays -----------------------------

    def multiply(self, x, y) -> np.ndarray:
        """Coordinates of the product ``x * y`` of coordinate arrays.

        This is the multiplication rule ``e_rs e_tu = delta_st e_ru`` within
        each block.  ``x`` and ``y`` have shape ``(..., dim)`` with
        broadcastable leading axes; the product runs as one batched matrix
        product per distinct block size.  Blocks of size at most
        ``_SMALL_BLOCK`` are formed as a broadcast sum of outer products,
        which numpy runs faster than a batched ``@`` over tiny matrices.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        out = np.empty(batch + (self.dim,), dtype=np.result_type(x, y, np.complex128))
        for n, _, idx in self.blocks_by_size:
            k = idx.shape[0]
            xb = x[..., idx].reshape(x.shape[:-1] + (k, n, n))
            yb = y[..., idx].reshape(y.shape[:-1] + (k, n, n))
            if n <= _SMALL_BLOCK:
                prod = xb[..., :, 0, None] * yb[..., None, 0, :]
                for b in range(1, n):
                    prod += xb[..., :, b, None] * yb[..., None, b, :]
            else:
                prod = xb @ yb
            out[..., idx] = prod.reshape(batch + (k, n * n))
        return out

    # -- helpers -----------------------------------------------------------

    def _check_shapes(self, mats) -> None:
        if len(mats) != len(self.blocks):
            raise ShapeError(
                f"expected {len(self.blocks)} blocks, got {len(mats)}"
            )
        for i, (m, n) in enumerate(zip(mats, self.blocks)):
            if m.shape != (n, n):
                raise ShapeError(f"block {i} has shape {m.shape}, expected ({n}, {n})")

    def _require(self, value) -> None:
        if value.algebra != self:
            raise ShapeError(
                f"value lives on blocks {value.algebra.blocks}, expected {self.blocks}"
            )


@dataclass(frozen=True, eq=False)
class Element:
    """An algebra element: its coordinate vector in the matrix-unit basis."""

    algebra: Algebra
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _coordinates(self.algebra, self.coords, "coordinates"))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only per-block matrices."""
        return self.algebra.split(self.coords)

    def _new(self, coords) -> "Element":
        return Element(self.algebra, coords)

    def __add__(self, other: "Element") -> "Element":
        return self._new(self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        return self._new(self.coords - other.coords)

    def __neg__(self) -> "Element":
        return self._new(-self.coords)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self._new(self.algebra.multiply(self.coords, other.coords))
        return self._new(complex(other) * self.coords)

    def __rmul__(self, scalar) -> "Element":
        return self._new(complex(scalar) * self.coords)


@dataclass(frozen=True, eq=False)
class Functional:
    """A linear functional, stored as its values ``dual`` on the matrix units.

    Calling the functional on an :class:`Element` evaluates
    ``dual @ coords``, which equals the trace pairing
    ``sum_i trace(rho_i @ a_i)`` with the dual blocks ``rho_i``.
    """

    algebra: Algebra
    dual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dual", _coordinates(self.algebra, self.dual, "dual coordinates"))

    @property
    def dual_blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only dual block matrices ``rho_i``."""
        return tuple(v.T for v in self.algebra.split(self.dual))

    def _new(self, dual) -> "Functional":
        return Functional(self.algebra, dual)

    def __call__(self, a: Element) -> complex:
        self.algebra._require(a)
        return complex(self.dual @ a.coords)

    def __add__(self, other: "Functional") -> "Functional":
        return self._new(self.dual + other.dual)

    def __sub__(self, other: "Functional") -> "Functional":
        return self._new(self.dual - other.dual)

    def __neg__(self) -> "Functional":
        return self._new(-self.dual)

    def __mul__(self, scalar) -> "Functional":
        return self._new(complex(scalar) * self.dual)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Norms and positivity
# ---------------------------------------------------------------------------


def element_norm(algebra: Algebra, a: Element) -> float:
    """C*-norm of an element: the largest singular value over all blocks.

    Parameters
    ----------
    algebra : Algebra
        The owning algebra (used for shape validation).
    a : Element
        The element to measure.

    Returns
    -------
    float
        ``max_i sigma_max(a_i)``; satisfies ``norm(a* a) == norm(a) ** 2``.
        ``nan`` if a coordinate is not finite.
    """
    algebra._require(a)
    if not np.isfinite(a.coords).all():
        return float("nan")
    return max(
        float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())
        for _, mats in _block_stacks(algebra, a.coords)
    )


def functional_norm(mu: Functional) -> float:
    """Dual norm of a functional: the sum of per-block trace norms.

    This is the norm dual to the block operator norm, and agrees with
    ``sup { |mu(a)| : element_norm(a) <= 1 }``.  ``nan`` if a coordinate is
    not finite.
    """
    return float(functional_norms(mu.algebra, mu.dual))


def functional_norms(algebra: Algebra, duals) -> np.ndarray:
    """:func:`functional_norm` of each dual vector in a ``(..., dim)`` stack.

    One batched SVD per block size above 1; the trace norm of a 1x1 block is
    its modulus.  A vector with a non-finite coordinate gets ``nan``; it is
    zeroed before the SVD, which would fail on it.
    """
    duals = np.asarray(duals)
    finite = np.isfinite(duals).all(axis=-1)
    duals = np.where(finite[..., None], duals, 0.0)
    traces = np.empty(duals.shape[:-1] + (len(algebra.blocks),))
    for pos, rho in _block_stacks(algebra, duals, dual=True):
        if rho.shape[-1] == 1:
            traces[..., pos] = np.abs(rho[..., 0, 0])
        else:
            traces[..., pos] = np.linalg.svd(rho, compute_uv=False).sum(axis=-1)
    # summed in block order (cumsum adds in sequence), so that a norm does
    # not depend on the batching
    return np.where(finite, np.cumsum(traces, axis=-1)[..., -1], np.nan)


def _block_stacks(algebra: Algebra, vector: np.ndarray, dual: bool = False):
    """The blocks of coordinate vectors, one stack per distinct block size.

    ``vector`` has shape ``(..., dim)``.  Yields ``(positions, mats)`` for
    each block size ``n``: ``positions`` index ``algebra.blocks`` and
    ``mats`` has shape ``(..., len(positions), n, n)``.  With ``dual`` the
    blocks are read as the dual matrices ``rho_i``, the transposes of the
    row-major slices.
    """
    for n, pos, idx in algebra.blocks_by_size:
        mats = vector[..., idx].reshape(vector.shape[:-1] + (len(pos), n, n))
        yield pos, (mats.swapaxes(-1, -2) if dual else mats)


def is_positive_functional(mu: Functional, tol: float = DEFAULT_TOL) -> bool:
    """Whether every dual block is positive semidefinite within tol."""
    defects, min_eigs, _ = _dual_block_spectra(mu)
    return bool(np.all(within(psd_violation(defects, min_eigs), tol)))


@dataclass(frozen=True)
class StateCheck:
    """Diagnostics of the state predicate for a functional."""

    hermitian_defect: float
    min_eigenvalue: float
    unit_value: complex

    def violation(self) -> float:
        """Largest deviation from the state conditions (0 for exact states).

        The functional is a state within ``tol`` when ``within(violation(),
        tol)``; ``nan`` if any diagnostic is ``nan``, so that it fails.
        """
        unit_defect = np.abs(self.unit_value - 1.0)
        return float(np.max([self.hermitian_defect, 0.0, -self.min_eigenvalue, unit_defect]))


def state_check(mu: Functional) -> StateCheck:
    """Measure how far a functional is from being a state.

    A functional is a state iff every dual block is positive semidefinite
    and the value at the unit (the sum of the block traces) equals 1.
    """
    defects, min_eigs, traces = _dual_block_spectra(mu)
    # numpy's max/min propagate a nan from any block; the traces are summed
    # in block order
    unit = complex(sum(traces.tolist()))
    return StateCheck(float(np.max(defects)), float(np.min(min_eigs)), unit)


def _dual_block_spectra(mu: Functional) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian defect, smallest Hermitian-part eigenvalue and trace of each dual block.

    Three arrays in block order, from one :func:`hermitian_spectrum` call
    per block size.
    """
    count = len(mu.algebra.blocks)
    defects = np.empty(count)
    min_eigs = np.empty(count)
    traces = np.empty(count, dtype=np.complex128)
    for pos, rho in _block_stacks(mu.algebra, mu.dual, dual=True):
        defects[pos], min_eigs[pos] = hermitian_spectrum(rho)
        traces[pos] = np.trace(rho, axis1=1, axis2=2)
    return defects, min_eigs, traces


# ---------------------------------------------------------------------------
# Tensor products (finite-dimensional minimal tensor product)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)  # all callers share one square and the layout data it caches
def tensor_algebra(a1: Algebra, a2: Algebra) -> Algebra:
    """Tensor product algebra: Kronecker blocks in lexicographic order."""
    return Algebra(tuple(n * m for n in a1.blocks for m in a2.blocks))


@lru_cache(maxsize=None)
def mixing_permutation(a1: Algebra, a2: Algebra) -> np.ndarray:
    """Index array with ``coords(x (x) y) = kron(coords(x), coords(y))[perm]``.

    The Kronecker product of the factor coordinates interleaves row and
    column indices; this permutation is the one place that reorders it into
    the canonical matrix-unit coordinates of :func:`tensor_algebra`.
    """
    square = tensor_algebra(a1, a2)
    starts = np.array(square.coord_offsets).reshape(len(a1.blocks), len(a2.blocks))
    perm = np.empty(square.dim, dtype=np.intp)
    # one broadcast per pair of block sizes (n, m), over all block pairs of
    # those sizes: tensor block (n*m) x (n*m), row (r1, r2), column (s1, s2),
    # row-major, holds Kronecker entry k1 * a2.dim + k2
    for n, pos1, idx1 in a1.blocks_by_size:
        for m, pos2, idx2 in a2.blocks_by_size:
            r1, r2, s1, s2 = np.indices((n, m, n, m)).reshape(4, -1)
            k1 = idx1[:, 0, None, None] + r1 * n + s1
            k2 = idx2[None, :, 0, None] + r2 * m + s2
            targets = starts[np.ix_(pos1, pos2)][:, :, None] + np.arange(r1.size)
            perm[targets] = k1 * a2.dim + k2
    perm.setflags(write=False)
    return perm


# ---------------------------------------------------------------------------
# GNS construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GNSData:
    """Cyclic representation of a positive functional, held as its quotient map.

    The representation is ``pi(a) = to_space @ L_a @ from_space``, where
    ``L_a`` is the coordinate matrix of left multiplication ``b -> a * b``.
    No representing matrix is formed: a caller reads what it needs from the
    two factors.

    Attributes
    ----------
    dimension : int
        Hilbert-space dimension ``d`` (the rank of the Gram matrix).
    to_space : np.ndarray
        ``(d, algebra.dim)`` quotient map ``b -> [b]`` onto an orthonormal
        basis of the GNS space.
    from_space : np.ndarray
        ``(algebra.dim, d)`` right inverse of ``to_space`` on the non-null
        span: ``to_space @ from_space`` is the identity.
    cyclic_vector : np.ndarray
        Vector ``eta = [1]`` of length ``d`` with ``<eta, pi(a) eta> = omega(a)``.
    """

    dimension: int
    to_space: np.ndarray
    from_space: np.ndarray
    cyclic_vector: np.ndarray


def gns(algebra: Algebra, omega: Functional, tol: float = DEFAULT_TOL) -> GNSData:
    """GNS construction for a positive functional.

    Builds the Gram matrix ``G[x, y] = omega(x* y)`` over the canonical
    basis by one gather through the table of basis products,
    :attr:`Algebra.product_table` ``z`` (``e_x* e_y`` is
    ``e_{z[star_perm[x], y]}``, or 0), and factors the quotient by its
    numerical null space (eigenvalues below ``GNS_RANK_TOL * max_eigenvalue``)
    onto an orthonormal basis.  It stops there: :class:`GNSData` holds the
    quotient map and its right inverse, from which ``pi(a)`` is
    ``to_space @ L_a @ from_space``, with ``L_a`` the coordinate matrix of
    left multiplication by ``a``.

    Parameters
    ----------
    algebra : Algebra
    omega : Functional
    tol : float
        Absolute tolerance of the positivity gate on ``omega``, its only
        role: the rank decision uses the fixed ``GNS_RANK_TOL``.

    Returns
    -------
    GNSData

    Raises
    ------
    PreconditionError
        If ``omega`` is not positive within ``tol``.
    """
    if not is_positive_functional(omega, tol):
        raise PreconditionError("GNS construction requires a positive functional")

    gram = np.append(algebra.dual_coords(omega), 0.0)[algebra.product_table[algebra.star_perm]]
    gram = (gram + gram.conj().T) / 2.0

    eigvals, eigvecs = np.linalg.eigh(gram)
    top = float(eigvals.max(initial=0.0))
    keep = eigvals > GNS_RANK_TOL * max(top, 0.0)
    if top <= 0.0:
        keep = np.zeros_like(keep)
    svals = eigvals[keep]
    vecs = eigvecs[:, keep]
    d = int(keep.sum())

    to_space = (np.sqrt(svals)[:, None]) * vecs.conj().T
    from_space = vecs / np.sqrt(svals)[None, :] if d else vecs

    eta = to_space @ algebra.unit_coords
    return GNSData(d, _frozen(to_space), _frozen(from_space), _frozen(eta))
