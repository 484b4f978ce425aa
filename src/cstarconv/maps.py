"""Dense linear maps between algebras, in canonical coordinates.

The only subtlety is the bookkeeping between two coordinate systems on a
tensor product algebra: the canonical matrix-unit coordinates of
``tensor_algebra(A, B)`` and the plain Kronecker product of the factor
coordinates.  The two differ by a fixed permutation (:func:`mixing_permutation`)
because the Kronecker product of matrix units interleaves row and column
indices.  That permutation lives beside :func:`tensor_algebra` in
:mod:`cstarconv.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element, _frozen, mixing_permutation, tensor_algebra
from .errors import ShapeError


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map between algebras, stored as a dense coordinate matrix.

    ``matrix`` has shape ``(target.dim, source.dim)`` and acts on canonical
    matrix-unit coordinates: ``coords(T(a)) = matrix @ coords(a)``.
    """

    source: Algebra
    target: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(self.matrix)
        if mat.shape != (self.target.dim, self.source.dim):
            raise ShapeError(
                f"map matrix has shape {mat.shape}, expected "
                f"({self.target.dim}, {self.source.dim})"
            )
        object.__setattr__(self, "matrix", mat)

    def __call__(self, a: Element) -> Element:
        return self.target.from_coords(self.matrix @ self.source.to_coords(a))

    @staticmethod
    def identity(algebra: Algebra) -> "LinearMap":
        return LinearMap(algebra, algebra, np.eye(algebra.dim, dtype=np.complex128))


def tensor_map(s: LinearMap, t: LinearMap) -> LinearMap:
    """The map ``s (x) t`` between the corresponding tensor algebras."""
    perm_src = mixing_permutation(s.source, t.source)
    perm_tgt = mixing_permutation(s.target, t.target)
    big = np.kron(s.matrix, t.matrix)[np.ix_(perm_tgt, perm_src)]
    return LinearMap(
        tensor_algebra(s.source, t.source), tensor_algebra(s.target, t.target), big
    )


def tensor_flip(algebra: Algebra) -> LinearMap:
    """The flip ``a (x) b -> b (x) a`` on the tensor square of an algebra.

    The matrix is a permutation, so the flip squares to the identity exactly.
    """
    dim = algebra.dim
    square = tensor_algebra(algebra, algebra)
    perm = mixing_permutation(algebra, algebra)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    mat = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for r in range(dim * dim):
        k1, k2 = divmod(perm[r], dim)
        mat[r, inv[k2 * dim + k1]] = 1.0
    return LinearMap(square, square, mat)
